#!/usr/bin/env python3
"""Check the closed-form element counts against the frontier.

On quad:D and poly:q, monoid.element_counter answers count(y) in closed
form. This compares it with the frontier's count: the counter of a Beurling
system on the same prime norms, which enumerates every element of norm
<= X. The oracle is independent of the closed form only while it counts
through a Beurling system: on quad:D and poly:q the frontier sizes its
columns by the closed-form count, but a Beurling system has none, so its
frontier grows its columns and never reads one. It runs every
fundamental discriminant D with |D| <= 100 at X = N, and every supported
q at the largest power of q <= N, over every y up to 3000, every power of
q and the integer below it, 50 log-spaced y and X.
It prints one line per system and exits 1 on the first mismatch.

    PYTHONPATH=src python3 scripts/check_counts.py --limit 1000000
"""
import argparse
import sys

import numpy as np

from monoidldp.gfpoly import SUPPORTED_Q
from monoidldp.monoid import element_counter
from monoidldp.systems import (
    Beurling,
    PolyOverFq,
    QuadraticField,
    _is_fundamental_discriminant,
    prime_norms,
)


def _ys(X: int, q: int | None = None) -> list[int]:
    ys = {*range(1, min(X, 3000) + 1), X,
          *np.geomspace(1, X, 50).round().astype(int).tolist()}
    n = q or X + 1
    while n <= X:
        ys.update((n - 1, n))
        n *= q
    return sorted(ys)


def _mismatch(system, X: int, ys: list[int]) -> str | None:
    """The first y where the closed form and the frontier differ, described."""
    closed = element_counter(system, X)
    frontier = element_counter(Beurling(tuple(prime_norms(system, X).tolist())), X)
    for y in ys:
        a, b = closed(y), frontier(y)
        if a != b:
            return f"{system.key}: count({y}) = {a} in closed form, {b} by the frontier"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, default=10**6, help="the largest X, N")
    N = ap.parse_args().limit
    if N < 2:
        ap.error(f"--limit must be >= 2, got {N}")
    runs = [(QuadraticField(D), N, None)
            for D in range(-100, 101) if _is_fundamental_discriminant(D)]
    for q in (q for q in SUPPORTED_Q if q <= N):
        X = q
        while X * q <= N:
            X *= q
        runs.append((PolyOverFq(q), X, q))
    for system, X, q in runs:
        ys = _ys(X, q)
        bad = _mismatch(system, X, ys)
        if bad:
            print(f"MISMATCH {bad}")
            return 1
        print(f"{system.key}: X={X}, {len(ys)} values of y agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check the block-bounded KS maxima of `ek` against full arrays.

experiments._ks_maxima takes Phi only at the end points of blocks of the
sorted sample and inside the blocks that can hold a maximum. This compares
both maxima, bit for bit, with the full-array computation: scipy's ndtr
over every element and the step arrays (i+1)/n and i/n. It runs `ek`'s
sample (min_norm 3) on the integers at every power of ten from 1e3 up to N
and at N, and on quad:-4 and poly:2 the same up to min(N, 1e6). It prints
one line per system and X and exits 1 on the first mismatch. scipy must be
installed; the package itself never imports it.

    PYTHONPATH=src python3 scripts/check_ks.py --limit 10000000
"""
import argparse
import sys

import numpy as np
from scipy.special import ndtr

from monoidldp.experiments import _ek_sample, _ks_maxima
from monoidldp.monoid import omega_column
from monoidldp.systems import Integers, PolyOverFq, QuadraticField


def _oracle(t: np.ndarray) -> tuple[float, float]:
    """The KS maxima over full Phi and step arrays."""
    n = len(t)
    phi = ndtr(t)
    steps = np.arange(1, n + 1, dtype=np.float64) / n
    return float(np.max(steps - phi)), float(np.max(phi - (steps - 1.0 / n)))


def _grid(N: int) -> list[int]:
    xs, x = [], 1000
    while x < N:
        xs.append(x)
        x *= 10
    return [*xs, N]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, default=10**6, help="the largest X, N")
    N = ap.parse_args().limit
    if N < 16:
        ap.error(f"--limit must be >= 16, got {N}")
    runs = [(Integers(), X) for X in _grid(N)]
    runs += [(system, X) for system in (QuadraticField(-4), PolyOverFq(2))
             for X in _grid(min(N, 10**6))]
    for system, X in runs:
        table, _ = omega_column(system, X)
        t = _ek_sample(table, 3)
        del table
        got, want = _ks_maxima(t), _oracle(t)
        if [x.hex() for x in got] != [x.hex() for x in want]:
            print(f"MISMATCH {system.key}: X={X}, n={t.size}: blocks give {got}, "
                  f"full arrays {want}")
            return 1
        print(f"{system.key}: X={X}, n={t.size}, both maxima agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())

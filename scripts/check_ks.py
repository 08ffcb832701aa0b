#!/usr/bin/env python3
"""Check the binned KS maxima of `ek` against the full sorted sample.

experiments._ks_bins counts `ek`'s statistic into bins, and
experiments._ks_maxima takes Phi only at the bin edges and at the values
of the bins that can hold a maximum. This compares both maxima, bit for
bit, with the full-array computation: the whole statistic, built and
sorted here, Phi(t) = 0.5 * math.erfc(-t / sqrt 2) over every element, one
float at a time, and the step arrays (i+1)/n and i/n. It runs `ek`'s
sample (min_norm 3) on the integers at every power of ten from 1e3 up to N
and at N, and on quad:-4 and poly:2 the same up to min(N, 1e6). It prints
one line per system and X and exits 1 on the first mismatch. It needs only
the package's own dependencies.

    PYTHONPATH=src python3 scripts/check_ks.py --limit 10000000
"""
import argparse
import math
import sys
from functools import partial

import numpy as np

from monoidldp.experiments import _SQRT1_2, _ek_sample, _ks_bins, _ks_maxima
from monoidldp.monoid import block_rows, cell_blocks
from monoidldp.systems import Integers, PolyOverFq, QuadraticField


def _oracle(blocks) -> tuple[int, float, float]:
    """(n, D+, D-): the KS maxima over the full sorted statistic of the
    rows of norm >= 3, full Phi and full step arrays."""
    parts = []
    for block in blocks:
        norm, o = block_rows(block, lo=3)
        ll = np.log(np.log(norm.astype(np.float64)))
        parts.append((o - ll) / np.sqrt(ll))
    t = np.sort(np.concatenate(parts))
    del parts
    n = len(t)
    # one float at a time, from lists of 2^16 values
    phi = np.fromiter((0.5 * math.erfc(-v * _SQRT1_2)
                       for i in range(0, n, 1 << 16) for v in t[i:i + (1 << 16)].tolist()),
                      np.float64, n)
    del t
    steps = np.arange(1, n + 1, dtype=np.float64) / n
    return n, float(np.max(steps - phi)), float(np.max(phi - (steps - 1.0 / n)))


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
        blocks = list(cell_blocks(system, X, None)[1])
        sample = partial(_ek_sample, min_norm=3)
        counts, masks = _ks_bins(blocks, sample)
        got = _ks_maxima(blocks, sample, counts, masks)
        n, *want = _oracle(blocks)
        if [x.hex() for x in got] != [x.hex() for x in want] or int(counts.sum()) != n:
            print(f"MISMATCH {system.key}: X={X}, n={n}: bins give {got} over "
                  f"{int(counts.sum())} rows, full arrays {tuple(want)}")
            return 1
        print(f"{system.key}: X={X}, n={n}, both maxima agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())

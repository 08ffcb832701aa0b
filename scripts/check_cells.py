#!/usr/bin/env python3
"""Check the (omega, a) cells of the integers' sieve against the frontier.

monoid.cell_counts gives, per X, the number of elements of norm <= X in
each cell (omega, a), a counting the primes in g's class. On the integers
the cells come from the segmented sieve; on a Beurling system, from the
frontier. The Beurling system whose norms are the rational primes is the
integers, so the two histograms must be equal, entry for entry. This runs
both sources for g = omega and residue:4:1:2:0.5 at every power of ten up
to N and at N, the Beurling system built once from the primes up to N. It
prints one line per g and X and exits 1 on the first mismatch. N is at
most the frontier's cap, 1e7.

    PYTHONPATH=src python3 scripts/check_cells.py --limit 10000000
"""
import argparse
import sys

import numpy as np

from monoidldp.additive import NormResidue, Omega
from monoidldp.monoid import cell_counts
from monoidldp.systems import Beurling, Integers, prime_norms

GS = [Omega(), NormResidue(4, frozenset({1}), 2, 0.5)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, default=10**6, help="the largest X, N")
    N = ap.parse_args().limit
    if N < 1:
        ap.error(f"--limit must be >= 1, got {N}")
    grid = sorted({10**k for k in range(len(str(N)))} | {N})
    beurling = Beurling(tuple(prime_norms(Integers(), N).tolist()))
    for g in GS:
        sieve, frontier = cell_counts(Integers(), grid, g), cell_counts(beurling, grid, g)
        for X, a, b in zip(grid, sieve, frontier):
            if not np.array_equal(a, b):
                k, j = np.argwhere(a != b)[0]
                print(f"MISMATCH {g.key}: X={X}, cell ({k}, {j}) holds {a[k, j]} "
                      f"by the sieve, {b[k, j]} by the frontier")
                return 1
            print(f"{g.key}: X={X}, {int(a.sum())} elements in {np.count_nonzero(a)} cells agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())

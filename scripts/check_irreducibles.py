#!/usr/bin/env python3
"""Check the irreducible sieve's counts against the necklace formula.

For every supported q and every degree n with q^n <= N, the number of monic
irreducibles that gfpoly.irreducible_indices finds must equal
necklace_count(q, n), the Moebius sum (1/n) sum_{d|n} mu(d) q^(n/d), which
shares no code with the sieve. The default N is 1e8, the cap on every prime
list, so every degree a poly:q report can reach is checked. It prints one
line per q and exits 1 on the first mismatch.

    PYTHONPATH=src python3 scripts/check_irreducibles.py --limit 100000000
"""
import argparse
import sys

from monoidldp.gfpoly import SUPPORTED_Q, irreducible_indices, necklace_count


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, default=10**8, help="the largest q^n, N")
    N = ap.parse_args().limit
    if N < 2:
        ap.error(f"--limit must be >= 2, got {N}")
    for q in (q for q in SUPPORTED_Q if q <= N):
        n = 1
        while q ** (n + 1) <= N:
            n += 1
        for d in range(1, n + 1):
            got, want = len(irreducible_indices(q, d)), necklace_count(q, d)
            if got != want:
                print(f"MISMATCH poly:{q}: degree {d} has {got} irreducibles, "
                      f"the necklace count is {want}")
                return 1
        irreducible_indices.cache_clear()  # one q's arrays at a time
        print(f"poly:{q}: degrees 1..{n} (q^n = {q**n}) agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())

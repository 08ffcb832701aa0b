"""Columns on demand: ek_report and ldp_scan reduce one column in blocks.

The oracle is the full-table computation the blocked code replaced: the
(norm, omega, gsum) table of count (monoid.table_blocks, concatenated),
reduced over whole columns at once, and for ek the KS maxima over the
whole sorted statistic and its Phi.
"""
import collections
import dataclasses
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoidldp import experiments, monoid
from monoidldp.additive import DiscreteMeasure, NormResidue, Omega
from monoidldp.cli import main
from monoidldp.errors import EmptySample
from monoidldp.experiments import EKReport, LDPRow, _ndtr, ek_report, ldp_scan
from monoidldp.monoid import block_rows, cell_blocks, cell_counts, table_blocks
from monoidldp.reportio import write_csv
from monoidldp.systems import (
    Beurling,
    Integers,
    PolyOverFq,
    QuadraticField,
    mertens_sum,
    prime_norms,
)
from tables import count_table

RESIDUE = NormResidue(4, frozenset({1}), 2, 0.5)
INTERVALS = [(-math.inf, 0.5), (0.5, 1), (1, 1.5), (1.5, 2), (2, math.inf)]
RHO = DiscreteMeasure.delta(1.0)


def _ek_oracle(system, X: int, min_norm: int = 3) -> EKReport:
    table = count_table(system, X, Omega())
    mask = table.norm >= min_norm
    ll = np.log(np.log(table.norm[mask].astype(np.float64)))
    t = np.sort((table.omega[mask] - ll) / np.sqrt(ll))
    phi = _ndtr(t)
    steps = np.arange(1, t.size + 1, dtype=np.float64) / t.size
    d_plus = float(np.max(steps - phi))
    d_minus = float(np.max(phi - (steps - 1.0 / t.size)))
    omega = table.omega.astype(np.int64)
    n, s1, s2 = table.count, int(omega.sum()), int((omega * omega).sum())
    return EKReport(
        X=X, samples=table.count, min_norm=min_norm, ks_sample_count=t.size,
        ks_distance=d_plus, ks_two_sided=max(d_plus, d_minus),
        mean_omega=int(table.omega.sum(dtype=np.int64)) / table.count,
        mertens_mean=mertens_sum(prime_norms(system, X), X)[0],
        variance_omega=float(Fraction(n * s2 - s1 * s1, n * n)),
    )


def _ldp_oracle(system, g, X_grid, intervals, rho) -> list[LDPRow]:
    table = count_table(system, max(X_grid), g)
    rows = []
    for X in X_grid:
        total = int(table.norm.searchsorted(np.uint64(X), "right"))
        ll = math.log(math.log(X))
        v = table.gsum[:total] / ll
        for lo, hi in intervals:
            count = int(np.count_nonzero((v >= lo) & (v < hi)))
            normalized = math.log(count / total) / ll if count else -math.inf
            rows.append(LDPRow(X, lo, hi, count, total, Fraction(count, total),
                               normalized, experiments._rate_bound(rho, lo, hi)))
    return rows


def _hex(row) -> dict:
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in dataclasses.asdict(row).items()}


# blocks of 1 and 3 rows at X = 1e6 would take a million Python iterations;
# the other X cover both, 2^16 +- 1 across a block boundary
CASES = [(X, block) for X in (16, 17, 1000, 2**16 - 1, 2**16 + 1, 10**6)
         for block in (1, 3, 2**16, X + 1) if X < 10**6 or block > 3]
# ek pays per block for its run test and its bins, so 1-row blocks stop at
# X = 1000: X = 16, 17 and 1000 put a block boundary at every row, and
# 2^16 +- 1 keep theirs at blocks of 3 and 2^16
EK_CASES = [(X, block) for X, block in CASES if block > 1 or X < 2**16 - 1]
# ldp_scan's Python loop runs ~1.5 X times with 1-row blocks, so near 2^16
# only once: that loop is the same for every g, and CASES holds Omega at
# every other block size
LDP_CASES = [(X, block, g) for X, block in CASES for g in (RESIDUE, Omega())
             if block > 1 or X < 2**16 - 1 or (X, g) == (2**16 + 1, RESIDUE)]


@pytest.mark.parametrize("X,block", EK_CASES)
def test_blocked_ek_matches_the_full_table(monkeypatch, X, block):
    want = _hex(_ek_oracle(Integers(), X))
    monkeypatch.setattr(monoid, "_BLOCK_ROWS", block)
    assert _hex(ek_report(Integers(), X)) == want


@pytest.mark.parametrize("X,block,g", LDP_CASES, ids=lambda v: getattr(v, "key", v))
def test_blocked_ldp_scan_matches_the_full_table(monkeypatch, X, block, g):
    grid = sorted({3, X // 7 + 3, X // 2 + 1, X})
    want = [_hex(r) for r in _ldp_oracle(Integers(), g, grid, INTERVALS, RHO)]
    monkeypatch.setattr(monoid, "_BLOCK_ROWS", block)
    assert [_hex(r) for r in ldp_scan(Integers(), g, grid, INTERVALS, RHO)] == want


def test_ldp_scan_edge_at_a_g_value_takes_every_element_of_it():
    # g(n) = 0.1 a + 0.7 b is not a sum of dyadic values, so a float sum in
    # the order the primes come gives some n with (a, b) = (3, 1) 1.0 and
    # others 1 - 2^-53. Correctly rounded per cell, all of them are 1.0,
    # and an edge at lo = 1.0 / log log X takes them all, as it does one
    # ulp lower
    X, g = 10**5, NormResidue(3, frozenset({1}), 0.1, 0.7)
    ll = math.log(math.log(X))
    lo = 1.0 / ll
    rows = ldp_scan(Integers(), g, [X], [(lo, math.inf), (math.nextafter(lo, 0.0), math.inf)],
                    RHO)
    # the oracle: omega and a of every n by whole-array strided adds, and
    # g of each (omega, a) as an exact fraction, rounded once
    omega, a = np.zeros(X + 1, dtype=np.int64), np.zeros(X + 1, dtype=np.int64)
    for p in prime_norms(Integers(), X).tolist():
        omega[p::p] += 1
        a[p::p] += p % 3 == 1
    cells = collections.Counter(zip(omega[1:].tolist(), a[1:].tolist()))
    want = sum(c for (k, j), c in cells.items()
               if float(j * Fraction(0.1) + (k - j) * Fraction(0.7)) / ll >= lo)
    assert cells[4, 3] > 0
    assert [r.count for r in rows] == [want, want]


@pytest.mark.parametrize("system,X", [
    (QuadraticField(-4), 1000), (QuadraticField(-4), 2**16 + 1), (QuadraticField(5), 5000),
    (PolyOverFq(3), 3**8), (Beurling((2, 3, 3, 5)), 5000),
], ids=lambda v: getattr(v, "key", v))
@pytest.mark.parametrize("block", [3, 2**16])
def test_blocked_reductions_on_the_frontier(monkeypatch, system, X, block):
    want_ek = _hex(_ek_oracle(system, X, min_norm=5))
    grid = [16, X // 3, X]
    want_ldp = [_hex(r) for r in _ldp_oracle(system, RESIDUE, grid, INTERVALS, RHO)]
    monkeypatch.setattr(monoid, "_BLOCK_ROWS", block)
    assert _hex(ek_report(system, X, min_norm=5)) == want_ek
    assert [_hex(r) for r in ldp_scan(system, RESIDUE, grid, INTERVALS, RHO)] == want_ldp


def _columns(blocks) -> tuple[np.ndarray, np.ndarray]:
    """The (norm, cell) columns of every row of the blocks, in order."""
    norm, cells = zip(*map(block_rows, blocks))
    return np.concatenate(norm), np.concatenate(cells)


def _cut(system, X, g, shift, lo, hi) -> list[tuple[int, int, int]]:
    """The (norm, omega, a) rows of norm in [lo, hi] that block_rows gives
    over cell_blocks' blocks, sorted, checking each block on the way."""
    rows = []
    for block in cell_blocks(system, X, g)[1]:
        least, most, norms, cells = block
        assert (norms is None) == isinstance(system, Integers)
        assert 1 <= least <= most and cells.size <= monoid._BLOCK_ROWS
        norm, cut = block_rows(block, lo, hi)
        assert norm.dtype == np.uint64 and norm.size == cut.size
        if norms is None:  # the implicit norms, in row order
            assert np.array_equal(norm, np.arange(max(lo, least), norm.size + max(lo, least)))
        else:  # explicit norms keep their row order
            top = most if hi is None else hi
            assert norm.tolist() == [n for n in norms.tolist() if lo <= n <= top]
        cut = cut.astype(np.int64)
        rows += zip(norm.tolist(), (cut & (1 << shift) - 1).tolist(), (cut >> shift).tolist())
    return sorted(rows)


@pytest.mark.parametrize("block", [1, 7, 2**16])
def test_block_rows_read_implicit_and_explicit_norms_alike(monkeypatch, block):
    # the integers' sieve, whose norms are implicit, against a Beurling
    # system over the same primes, whose frontier gives them explicitly in
    # level order: the same rows under every cut
    monkeypatch.setattr(monoid, "_BLOCK_ROWS", block)
    X = 60
    beurling = Beurling(tuple(prime_norms(Integers(), X).tolist()))
    for g in (None, RESIDUE):
        for lo in (1, 2, 3, X - 1, X, X + 1):
            for hi in (None, 0, 1, 2, X - 1, X, X + 5):
                want = _cut(beurling, X, g, monoid._CELL_BITS, lo, hi)
                assert _cut(Integers(), X, g, 4, lo, hi) == want, (g, lo, hi)
                top = X if hi is None else min(X, hi)
                assert [n for n, _, _ in want] == list(range(lo, top + 1))


def _cell_histogram(omega, a) -> np.ndarray:
    cells = np.zeros((monoid._CELLS, monoid._CELLS), dtype=np.int64)
    np.add.at(cells, (omega, a), 1)
    return cells


@pytest.mark.parametrize("system", [
    Integers(), QuadraticField(-4), QuadraticField(-3), PolyOverFq(2), Beurling((2, 3, 3, 5)),
], ids=lambda s: s.key)
def test_columns_are_the_tables_columns(system):
    X = 3000
    table = count_table(system, X, RESIDUE)
    primes, blocks = cell_blocks(system, X, None)
    blocks = list(blocks)
    assert all(cells.dtype == np.uint8 for *_, cells in blocks)
    norm, omega = _columns(blocks)
    assert omega.size == table.count
    r_norm, cells = _columns(cell_blocks(system, X, RESIDUE)[1])
    assert r_norm.tobytes() == norm.tobytes()
    f_norm, f_omega, a = monoid._frontier(primes, X, RESIDUE)
    assert a.dtype == np.uint8
    if isinstance(system, Integers):  # the norms are implicit, 1..X
        assert all(norms is None for _, _, norms, _ in blocks)
        assert norm.tobytes() == np.arange(1, X + 1, dtype=np.uint64).tobytes()
        # the sieve's cells, omega + 16 a in one byte, against the
        # frontier's columns over the same primes, bit for bit
        assert cells.dtype == np.uint8
        order = np.argsort(f_norm)
        assert f_norm[order].tobytes() == norm.tobytes()
        assert (cells & 15).tobytes() == f_omega[order].tobytes() == omega.tobytes()
        assert (cells >> 4).tobytes() == a[order].tobytes()
        a = cells >> 4
    else:  # the frontier's rows as built, in level order
        assert norm.tobytes() == f_norm.tobytes()
        assert np.array_equal(omega, f_omega)
        assert np.array_equal(cells, omega + (a.astype(np.intp) << monoid._CELL_BITS))
        # and, as a multiset, the sorted table's rows
        order = np.lexsort((RESIDUE.sums(omega, a), omega, norm))
        norm, omega, a = norm[order], omega[order], a[order]
    assert norm.tobytes() == table.norm.tobytes()
    assert np.array_equal(omega, table.omega)
    assert RESIDUE.sums(omega, a).tobytes() == table.gsum.tobytes()
    assert np.array_equal(cell_counts(system, [X], RESIDUE)[0], _cell_histogram(omega, a))
    assert primes.tobytes() == prime_norms(system, X).tobytes()


@pytest.mark.parametrize("system", [QuadraticField(-4), PolyOverFq(2), Beurling((2, 3, 3, 5))],
                         ids=lambda s: s.key)
def test_ldp_scan_builds_no_sorted_table(system, monkeypatch):
    grid = [16, 300, 3000]
    want = [_hex(r) for r in ldp_scan(system, RESIDUE, grid, INTERVALS, RHO)]

    def no_table(*args, **kwargs):
        raise AssertionError("ldp_scan sorted the frontier's table")

    monkeypatch.setattr(monoid, "table_blocks", no_table)
    monkeypatch.setattr(monoid, "_sorted_table", no_table)
    got = [_hex(r) for r in ldp_scan(system, RESIDUE, grid, INTERVALS, RHO)]
    assert got == want and len(got) == len(grid) * len(INTERVALS)


FRONTIER_EK = [(QuadraticField(-3), 5000), (QuadraticField(5), 5000), (PolyOverFq(3), 3**8),
               (Beurling((2, 3, 3, 5)), 5000)]


@pytest.mark.parametrize("system,X", FRONTIER_EK, ids=lambda v: getattr(v, "key", v))
@pytest.mark.parametrize("min_norm,block", [(3, 2**16), (101, 7)])
def test_ek_matches_the_sorted_table(monkeypatch, system, X, min_norm, block):
    """Rows of norm < min_norm lie scattered through the level-ordered
    columns, so with 7-row blocks most blocks keep only some rows."""
    want = _hex(_ek_oracle(system, X, min_norm))
    monkeypatch.setattr(monoid, "_BLOCK_ROWS", block)
    assert _hex(ek_report(system, X, min_norm)) == want


@pytest.mark.parametrize("system,X", FRONTIER_EK, ids=lambda v: getattr(v, "key", v))
def test_ek_above_every_norm_is_an_empty_sample(monkeypatch, system, X):
    monkeypatch.setattr(monoid, "_BLOCK_ROWS", 7)
    with pytest.raises(EmptySample):
        ek_report(system, X, min_norm=X + 1)


@settings(max_examples=30, deadline=None)
@given(system_X=st.sampled_from(FRONTIER_EK), min_norm=st.integers(3, 400),
       seed=st.integers(0, 2**32 - 1), block=st.sampled_from([5, 64, 2**16]))
def test_shuffled_rows_change_no_ek_field(system_X, min_norm, seed, block):
    system, X = system_X
    want = _hex(ek_report(system, X, min_norm))

    def shuffled(system, X, g):
        primes, blocks = cell_blocks(system, X, g)
        norm, omega = _columns(blocks)
        order = np.random.default_rng(seed).permutation(norm.size)
        return primes, monoid._frontier_blocks(norm[order], omega[order], None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "cell_blocks", shuffled)
        mp.setattr(monoid, "_BLOCK_ROWS", block)
        assert _hex(ek_report(system, X, min_norm)) == want


# tracemalloc sees NumPy's buffers. At 1e6 on the integers the full table
# took ~46 (ek) and ~21-31 (ldp_scan) bytes per element, and one whole
# float64 column (ek's sorted statistic, ldp_scan's gsum) ~11. Without it,
# ek holds its omega blocks (1 byte per element; ~5.6 in all while it
# also kept a uint16 KS bin per row, ~4.5 without) and ldp_scan one sieve
# segment of one-byte (omega, a) cells (~4.5 bytes per element, ~9 while
# it sieved a float64 gsum); both also hold the primes and a block's
# temporaries. On
# poly:2 most rows repeat the one before: ek took 16.5 and 22.6 bytes per
# element when it collapsed neither these runs nor the ties of its
# candidates into (value, count). count's CSV held the sieve's whole
# table, ~20.6 bytes per element; it keeps the one-byte cells and
# expands a block as the writer reads it.
PEAK_RUNS = {
    "ek": (5, Integers(), 10**6, ek_report),
    "ldp-residue": (6, Integers(), 10**6,
                    lambda s, X: ldp_scan(s, RESIDUE, [X // 10, X], INTERVALS, RHO)),
    "ldp-omega": (6, Integers(), 10**6, lambda s, X: ldp_scan(s, Omega(), [X], INTERVALS, RHO)),
    "ek-poly2": (12, PolyOverFq(2), 2**16, ek_report),
    "count-omega": (8, Integers(), 10**6, lambda s, X: _count_csv(s, X, Omega())),
    "count-residue": (8, Integers(), 10**6, lambda s, X: _count_csv(s, X, RESIDUE)),
}


def _count_csv(system, X, g):
    """count's CSV body, as the CLI writes it, thrown away."""
    write_csv(os.devnull, ["norm", "omega", "gsum"], table_blocks(system, X, g)[1])


@pytest.mark.parametrize("name", list(PEAK_RUNS))
def test_reduction_peaks_in_bytes_per_element(monkeypatch, name):
    bound, system, X, run = PEAK_RUNS[name]
    elements = X
    if not isinstance(system, Integers):
        # the frontier's own peak is not the reduction's: build it untraced
        primes, blocks = cell_blocks(system, X, None)
        blocks = list(blocks)
        monkeypatch.setattr(experiments, "cell_blocks", lambda *args: (primes, iter(blocks)))
        elements = sum(cells.size for *_, cells in blocks)
    tracemalloc.start()
    try:
        run(system, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * elements, f"{peak / elements:.2f} bytes per element"


def test_count_json_on_the_integers_holds_no_column(monkeypatch, tmp_path):
    """count's JSON reads cell_counts' histogram, which counts each segment
    as it is sieved. A path that kept every sieved block to bincount them
    would hold X bytes, one cell per element (1.29 per element in all). The
    prime list, ~0.57 bytes per element at 4e6 and ~1.07 while it is
    sieved, is built untraced: it is the prime layer's. The segment and
    block sizes are shrunk so that the sieve's fixed buffers, ~1.3 bytes
    per element at 4e6 with the defaults, do not hide a column. What is
    left, ~0.3 bytes per element, is two step bytes per prime, one segment
    and the CLI."""
    X = 4_000_000
    primes = prime_norms(Integers(), X)
    monkeypatch.setattr(monoid, "prime_norms", lambda system, X: primes)
    monkeypatch.setattr(monoid, "_SEGMENT", 1 << 16)
    monkeypatch.setattr(monoid, "_BLOCK_PAIRS", 1 << 12)
    monkeypatch.setattr(monoid, "_BLOCK_ROWS", 1 << 12)
    tracemalloc.start()
    try:
        assert main(["count", "--limit", str(X), "--format", "json", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= X // 2, f"{peak / X:.2f} bytes per element"

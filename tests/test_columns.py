"""Columns on demand: ek_report and ldp_scan reduce one column in blocks.

The oracle is the full-table computation the blocked code replaced: the
(norm, omega, gsum) table of enumerate_monoid (the sieve's _sieve_table on
the integers), reduced over whole columns at once, and for ek the KS
maxima over the whole sorted statistic and its Phi.
"""
import collections
import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoidldp import experiments, monoid
from monoidldp.additive import DiscreteMeasure, NormResidue, Omega
from monoidldp.errors import EmptySample
from monoidldp.experiments import EKReport, LDPRow, _ndtr, ek_report, ldp_scan
from monoidldp.monoid import cell_counts, enumerate_monoid, omega_column
from monoidldp.systems import (
    Beurling,
    Integers,
    PolyOverFq,
    QuadraticField,
    mertens_sum,
    prime_norms,
)

RESIDUE = NormResidue(4, frozenset({1}), 2, 0.5)
INTERVALS = [(-math.inf, 0.5), (0.5, 1), (1, 1.5), (1.5, 2), (2, math.inf)]
RHO = DiscreteMeasure.delta(1.0)


def _ek_oracle(system, X: int, min_norm: int = 3) -> EKReport:
    table = enumerate_monoid(system, X, Omega())
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
    table = enumerate_monoid(system, max(X_grid), g)
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


def _rows(table, lo, hi) -> list[tuple[int, float]]:
    """The (norm, gsum) rows that table.blocks yields, in order, checking
    each block's size and dtypes on the way."""
    rows = []
    for norms, vals in table.blocks(table.gsum, lo, hi):
        assert norms.dtype == np.uint64 and vals.dtype == np.float64
        assert norms.size == vals.size <= monoid._BLOCK_ROWS
        rows += zip(norms.tolist(), vals.tolist())
    return rows


@pytest.mark.parametrize("block", [1, 7, 2**16])
def test_blocks_read_implicit_and_explicit_norms_alike(monkeypatch, block):
    monkeypatch.setattr(monoid, "_BLOCK_ROWS", block)
    count = 50
    values = np.random.default_rng(0).random(count)
    norm = np.arange(1, count + 1, dtype=np.uint64)
    # explicit norms may come in any order, and the rows keep it
    order = np.random.default_rng(1).permutation(count)
    cases = [(monoid.MonoidTable(None, None, values), norm),
             (monoid.MonoidTable(norm, None, values), norm),
             (monoid.MonoidTable(norm[order], None, values[order]), norm[order])]
    for lo in (1, 2, count, count + 1):
        for hi in (None, 0, 1, count - 1, count, count + 5):
            top = count if hi is None else hi
            for table, norms in cases:
                assert table.count == count
                want = [(n, v) for n, v in zip(norms.tolist(), table.gsum.tolist())
                        if lo <= n <= top]
                assert _rows(table, lo, hi) == want, (table.norm is None, lo, hi)


def _cell_histogram(omega, a) -> np.ndarray:
    cells = np.zeros((monoid._CELLS, monoid._CELLS), dtype=np.int64)
    np.add.at(cells, (omega, a), 1)
    return cells


@pytest.mark.parametrize("system", [
    Integers(), QuadraticField(-4), QuadraticField(-3), PolyOverFq(2), Beurling((2, 3, 3, 5)),
], ids=lambda s: s.key)
def test_columns_are_the_tables_columns(system):
    X = 3000
    table = enumerate_monoid(system, X, RESIDUE)
    o_table, primes = omega_column(system, X)
    assert o_table.gsum is None and o_table.count == table.count
    norm, omega = o_table.norm, o_table.omega
    assert omega.dtype == np.uint8
    f_norm, f_omega, a = monoid._frontier(primes, X, RESIDUE)
    assert a.dtype == np.uint8
    if isinstance(system, Integers):  # the norms are implicit, 1..X
        assert norm is None
        norm = np.arange(1, X + 1, dtype=np.uint64)
        # the sieve's cells, omega + 16 a in one byte, against the
        # frontier's columns over the same primes, bit for bit
        cells = monoid._sieve(primes, X, RESIDUE.inside(primes))
        order = np.argsort(f_norm)
        assert f_norm[order].tobytes() == norm.tobytes()
        assert (cells & 15).tobytes() == f_omega[order].tobytes() == omega.tobytes()
        assert (cells >> 4).tobytes() == a[order].tobytes()
        a = cells >> 4
    else:  # the frontier's rows as built, in level order
        assert norm.tobytes() == f_norm.tobytes()
        assert np.array_equal(omega, f_omega)
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

    monkeypatch.setattr(monoid, "enumerate_monoid", no_table)
    monkeypatch.setattr(monoid, "_frontier_table", no_table)
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

    def shuffled(system, X):
        table, primes = omega_column(system, X)
        order = np.random.default_rng(seed).permutation(table.count)
        return monoid.MonoidTable(table.norm[order], table.omega[order], None), primes

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "omega_column", shuffled)
        mp.setattr(monoid, "_BLOCK_ROWS", block)
        assert _hex(ek_report(system, X, min_norm)) == want


# tracemalloc sees NumPy's buffers. At 1e6 on the integers the full table
# took ~46 (ek) and ~21-31 (ldp_scan) bytes per element, and one whole
# float64 column (ek's sorted statistic, ldp_scan's gsum) ~11. Without it,
# ek holds omega and the KS bins (3 bytes per element) and ldp_scan one
# sieve segment of one-byte (omega, a) cells (~4.5 bytes per element, ~9
# while it sieved a float64 gsum); both also hold the primes and a block's
# temporaries. On
# poly:2 most rows repeat the one before: ek took 16.5 and 22.6 bytes per
# element when it collapsed neither these runs nor the ties of its
# candidates into (value, count).
PEAK_RUNS = {
    "ek": (6, Integers(), 10**6, ek_report),
    "ldp-residue": (6, Integers(), 10**6,
                    lambda s, X: ldp_scan(s, RESIDUE, [X // 10, X], INTERVALS, RHO)),
    "ldp-omega": (6, Integers(), 10**6, lambda s, X: ldp_scan(s, Omega(), [X], INTERVALS, RHO)),
    "ek-poly2": (12, PolyOverFq(2), 2**16, ek_report),
}


@pytest.mark.parametrize("name", list(PEAK_RUNS))
def test_reduction_peaks_in_bytes_per_element(monkeypatch, name):
    bound, system, X, run = PEAK_RUNS[name]
    elements = X
    if not isinstance(system, Integers):
        # the frontier's own peak is not the reduction's: build it untraced
        built = omega_column(system, X)
        monkeypatch.setattr(experiments, "omega_column", lambda system, X: built)
        elements = built[0].count
    tracemalloc.start()
    try:
        run(system, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * elements, f"{peak / elements:.2f} bytes per element"

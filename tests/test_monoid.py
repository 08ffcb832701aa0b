"""Monoid enumeration: sieve vs frontier vs recursion, brute-force oracle."""
import json
import math
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoidldp import monoid
from monoidldp.additive import NormResidue, Omega
from monoidldp.cli import main
from monoidldp.errors import BudgetExceeded, MonoidLdpError, ParameterError
from monoidldp.gfpoly import SUPPORTED_Q
from monoidldp.monoid import cell_blocks, cell_counts, element_counter, table_blocks
from monoidldp.reportio import round12
from monoidldp.systems import (
    Beurling,
    Integers,
    PolyOverFq,
    QuadraticField,
    _is_fundamental_discriminant,
    list_primes,
    prime_norms,
    primes_upto,
)
from tables import count_table, frontier_table

ALL_FUNDAMENTAL = [D for D in range(-100, 101) if _is_fundamental_discriminant(D)]


def test_integers_table_small():
    t = count_table(Integers(), 10, Omega())
    assert t.norm.tolist() == list(range(1, 11))
    assert t.omega.tolist() == [0, 1, 1, 1, 1, 2, 1, 1, 1, 2]
    assert t.gsum.tolist() == [0.0, 1, 1, 1, 1, 2, 1, 1, 1, 2]
    assert np.bincount(t.omega).tolist() == [1, 7, 2]


def test_beurling_23_elements():
    t = count_table(Beurling((2, 3)), 12, Omega())
    assert t.norm.tolist() == [1, 2, 3, 4, 6, 8, 9, 12]
    assert t.omega.tolist() == [0, 1, 1, 1, 2, 1, 1, 2]
    assert np.bincount(t.omega).tolist() == [1, 5, 2]


def scalar_g(g, norm):
    """g at one prime of this norm, each rule written out one prime at a
    time: the reference that the array evaluation g.values must match."""
    if isinstance(g, Omega):
        return 1.0
    return g.value_in if norm % g.modulus in g.residues else g.value_out


# every kind of g the integer sieve meets: constant and not, non-dyadic
# values (where a sum in floats would depend on its order), a zero g, and
# a g kept on two primes (3 and 97: each other prime of either class
# would be a multiple of 3 or of 97), zero elsewhere
SIEVE_GS = {
    "omega": Omega(),
    "residue-3-2": NormResidue(3, frozenset({2}), 0.1, 0.7),
    "residue-int-values": NormResidue(4, frozenset({1}), 2, 1),
    "residue-7-squares": NormResidue(7, frozenset({1, 2, 4}), 1.1, 0.3),
    "zero": NormResidue(4, frozenset({1}), 0.0, 0.0),
    "restricted": NormResidue(291, frozenset({3, 97}), 0.7, 0.0),
}


def _assert_paths_agree(X, g):
    """The sieve's columns against the frontier's on the integers, bit for
    bit; returns the sieve's."""
    sieve = count_table(Integers(), X, g)
    for a, b in zip(sieve, frontier_table(Integers(), X, g)):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    return sieve


def test_sieve_matches_recursion():
    # isqrt(X) crosses a prime at these X, so they move the sieve's split;
    # at X = p(p + 2) (15, 35, 143) the prime p = isqrt(X) must count as small
    for X in (1, 2, 3, 4, 8, 9, 10, 15, 24, 25, 26, 35, 48, 49, 50, 120, 121, 122, 143,
              10**4 + 7):
        for g in SIEVE_GS.values():
            _assert_paths_agree(X, g)


def test_sieve_matches_recursion_for_constant_g():
    # gsum is 6 * 0.1 correctly rounded, whatever order the paths meet the
    # primes in: 0.1 added six times is not that; 30030 is the first n with
    # omega = 6
    g = NormResidue(4, frozenset({1}), 0.1, 0.1)
    gsum = _assert_paths_agree(30030, g)[2]
    assert gsum[-1] == float(6 * Fraction(0.1)) == 6 * 0.1 != 0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.1


@pytest.mark.parametrize("system", [Integers(), QuadraticField(-4)], ids=lambda s: s.key)
def test_table_at_smaller_x_is_a_prefix(system):
    # count's table at X is a prefix of the table at any larger X; g here
    # is constant on the primes up to 40000 only (its class holds 40009)
    g = NormResidue(40009, frozenset({0}), 0.7, 0.1)
    big = count_table(system, 50_000, g)
    for X in (1, 30030, 40009):
        small = count_table(system, X, g)
        total = small.count
        assert np.array_equal(big.norm[:total], small.norm)
        assert np.array_equal(big.omega[:total], small.omega)
        assert np.array_equal(big.gsum[:total], small.gsum)


@pytest.mark.parametrize("g", [Omega(), NormResidue(3, frozenset({2}), 0.1, 0.7)],
                         ids=lambda g: g.key)
def test_beurling_over_the_rational_primes_is_the_integers(g):
    # the frontier over the rational primes, given as Beurling norms, against
    # the integer sieve, byte for byte
    X = 10**5
    beurling = count_table(Beurling(tuple(primes_upto(X).tolist())), X, g)
    integers = count_table(Integers(), X, g)
    for a, b in zip((beurling.norm, beurling.omega, beurling.gsum),
                    (integers.norm, integers.omega, integers.gsum)):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(SIEVE_GS))
def test_values_match_value(name):
    g = SIEVE_GS[name]
    primes = primes_upto(10**4)
    got = g.values(primes)
    assert got.dtype == np.float64
    expected = np.array([float(scalar_g(g, p)) for p in primes.tolist()])
    assert np.array_equal(got, expected)
    assert g.values(primes[:0]).shape == (0,)


def test_sieve_matches_recursion_with_residue_g():
    _assert_paths_agree(5000, NormResidue(4, frozenset({1, 3}), 1.0, 2.0))


def _prime_counts(primes, X):
    """The sieve's oracle, with no segments: per n in 0..X, how many of the
    primes divide n, by one strided add per prime up to sqrt(X), and for
    those above it one add per cofactor m over every prime p with m p <= X."""
    col = np.zeros(X + 1, dtype=np.int32)
    k = int(primes.searchsorted(math.isqrt(X), "right"))
    for p in primes[:k].tolist():
        col[p::p] += 1
    large = primes[k:]
    for m in range(1, X // int(large[0]) + 1 if large.size else 1):
        col[m * large[:large.searchsorted(X // m, "right")]] += 1
    return col


# the g of the segmented-sieve oracle tests: a constant g and two residue
# g; omega (no g) is checked beside them
SEGMENT_GS = [Omega(), NormResidue(4, frozenset({1}), 2, 0.5), SIEVE_GS["residue-7-squares"]]


def _assert_segments_match_the_whole_sieve(X):
    primes = primes_upto(X)
    omega = _prime_counts(primes, X)
    want = omega[1:].astype(np.uint8)
    blocks = cell_blocks(Integers(), X, None)[1]
    got = np.concatenate([cells for *_, cells in blocks])
    assert got.dtype == np.uint8 and got.tobytes() == want.tobytes(), X
    for g in SEGMENT_GS:
        inside = g.inside(primes)
        a = 0 if inside is None else _prime_counts(primes[inside], X)
        # the sieve packs a cell into one byte, omega + 16 a
        want = (omega + 16 * a)[1:].astype(np.uint8)
        got = np.concatenate([cells for *_, cells in cell_blocks(Integers(), X, g)[1]])
        assert got.dtype == np.uint8 and got.tobytes() == want.tobytes(), (X, g)
        # count's table: every block's cells expanded, in norm order
        hist = table_blocks(Integers(), X, g)[0]
        table = count_table(Integers(), X, g)
        assert table.norm.tobytes() == np.arange(1, X + 1, dtype=np.uint64).tobytes()
        assert table.omega.tobytes() == (want & 15).tobytes()
        assert table.gsum.tobytes() == g.sums(want & 15, want >> 4).tobytes()
        assert np.array_equal(hist, np.bincount(want & 15)), (X, g)
        # cell_counts holds no column: it counts the segments as sieved
        grid = [X // 2 + 1, X]
        counts = cell_counts(Integers(), grid, g)
        for x, Y in enumerate(grid):
            cells = np.zeros((monoid._CELLS, monoid._CELLS), dtype=np.int64)
            times = np.bincount(want[:Y], minlength=256)
            cells[np.arange(256) & 15, np.arange(256) >> 4] = times
            assert np.array_equal(counts[x], cells), (X, Y, g)


# per segment size, X at segment boundaries and one off them, and X whose
# primes above sqrt(X) are none or few (1 to 10)
SEGMENT_CASES = {
    1: [1, 2, 3, 4, 5, 8, 9, 10, 48, 49, 50, 121, 1000],
    7: [1, 3, 6, 7, 8, 13, 14, 15, 49, 699, 700, 701, 10**4 + 7],
    2**16: [10, 2**16 - 1, 2**16, 2**16 + 1, 2**17 - 1, 2**17, 2**17 + 1, 3 * 2**16 + 5],
    "above X": [1, 2, 10, 1000, 2**16 + 1],
}


@pytest.mark.parametrize("segment", list(SEGMENT_CASES))
def test_segments_match_the_whole_sieve(monkeypatch, segment):
    for X in SEGMENT_CASES[segment]:
        monkeypatch.setattr(monoid, "_SEGMENT", X + 1 if segment == "above X" else segment)
        _assert_segments_match_the_whole_sieve(X)


def test_segments_match_the_whole_sieve_at_the_segment_size():
    segment = monoid._SEGMENT
    for X in (segment - 1, segment, segment + 1, 2 * segment + 1):
        _assert_segments_match_the_whole_sieve(X)


def test_omega_total_identity():
    # sum of omega over the table equals sum over primes of floor(X/p)
    X = 10**4
    t = count_table(Integers(), X, Omega())
    assert int(t.omega.sum(dtype=np.int64)) == sum(X // n for n in list_primes(Integers(), X)[0].tolist())


def test_poly_table_small():
    t = count_table(PolyOverFq(2), 8, Omega())
    # degree <= 3 monic polys: 1 unit + 2 + 4 + 8 = 15 elements
    assert t.count == 15
    assert t.norm.tolist() == [1, 2, 2, 4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8]
    # no 3-prime product fits: the smallest, t*(t+1)*(t^2+t+1), has norm 16
    assert sorted(t.omega.tolist()) == [0] + [1] * 9 + [2] * 5


def test_table_column_dtypes():
    for build in (lambda X: count_table(Integers(), X, Omega()),
                  lambda X: frontier_table(Integers(), X, Omega()),
                  lambda X: count_table(QuadraticField(-4), X, Omega())):
        for X in (1, 1000):
            assert [col.dtype for col in build(X)] == [np.uint64, np.uint8, np.float64]
    # omega is one byte per element in every table, on every system
    for system in (Integers(), QuadraticField(-4), PolyOverFq(3), Beurling((2, 3, 3, 5))):
        for X in (1, 1000):
            assert all(cells.dtype == np.uint8 for *_, cells in cell_blocks(system, X, None)[1])
            assert count_table(system, X, Omega()).omega.dtype == np.uint8


def _reference_table(system, X, g):
    """The depth-first recursion the frontier replaced, kept as its oracle:
    lexsorted (norm, omega, gsum) columns, g evaluated one prime at a time
    and summed exactly, each gsum rounded once."""
    norms = list_primes(system, X)[0].tolist()
    gvals = [Fraction(scalar_g(g, n)) for n in norms]
    rows = [(1, 0, Fraction(0))]

    def rec(i0, n, om, gs):
        for i in range(i0, len(norms)):
            m = n * norms[i]
            if m > X:
                break
            gi = gvals[i] + gs
            while m <= X:
                rows.append((m, om + 1, gi))
                rec(i + 1, m, om + 1, gi)
                m *= norms[i]

    rec(0, 1, 0, Fraction(0))
    rows = [(n, om, float(gs)) for n, om, gs in rows]
    norm, omega, gsum = (np.array(col, dtype=dtype)
                         for col, dtype in zip(zip(*rows), (np.uint64, np.uint8, np.float64)))
    order = np.lexsort((gsum, omega, norm))
    return norm[order], omega[order], gsum[order]


ORACLE_SYSTEMS = [
    Integers(), QuadraticField(-4), QuadraticField(5), QuadraticField(-3), PolyOverFq(2),
    PolyOverFq(3), Beurling((2, 3, 3, 5, 7, 7)),
]


@pytest.mark.parametrize("system", ORACLE_SYSTEMS, ids=lambda s: s.key)
def test_frontier_matches_reference_recursion(system):
    norms = prime_norms(system, 10**4).tolist()
    # X a prime norm, so that prime is the last (nxt == P.size), and X =
    # n * P[nxt] exactly, for n the product of the first j norms
    edges = {norms[k] for k in (0, 3, -1)} | {math.prod(norms[:j]) for j in (2, 3, 4)}
    for X in sorted({1, 2, 3, 4, 8, 9, 25, 26, 121, 122, 10**4 + 7} | edges):
        for name in ("omega", "residue-3-2", "residue-7-squares", "zero"):
            for got, want in zip(frontier_table(system, X, SIEVE_GS[name]),
                                 _reference_table(system, X, SIEVE_GS[name])):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (X, name)


BLOCK_SYSTEMS = [QuadraticField(-4), QuadraticField(5), PolyOverFq(3),
                 Beurling((2, 3, 3, 5, 7, 7))]
# closed-form counts size the frontier's columns on these; Beurling grows them
EXACT_SYSTEMS = [QuadraticField(-4), QuadraticField(5), PolyOverFq(2), PolyOverFq(3)]


@pytest.mark.parametrize("system", BLOCK_SYSTEMS, ids=lambda s: s.key)
def test_frontier_is_independent_of_block_size(monkeypatch, system):
    X, g = 5000, SIEVE_GS["residue-3-2"]
    want = _reference_table(system, X, g)
    count = element_counter(system, X)
    want_counts = [count(y) for y in range(1, X + 1)]
    levels = np.bincount(want[1])
    # (pairs, parents) per block: 1 parent or pair per block; 7 pairs split
    # parents' pair ranges unevenly; 97 parents split some level unevenly
    assert any(size > 97 and size % 97 for size in levels)
    calls = {"_expand": 0, "_pair_blocks": 0}

    def counted(name, run):
        def run_and_count(*args):
            calls[name] += 1
            return run(*args)
        return run_and_count

    for name in calls:
        monkeypatch.setattr(monoid, name, counted(name, getattr(monoid, name)))
    for pairs, parents in ((2**16, 1), (2**16, 7), (2**16, 97), (1, 7), (7, 97),
                           (1, 2**16), (7, 2**16)):
        monkeypatch.setattr(monoid, "_BLOCK_PAIRS", pairs)
        monkeypatch.setattr(monoid, "_BLOCK_PARENTS", parents)
        calls.update(dict.fromkeys(calls, 0))
        got = count_table(system, X, g)
        for a, b in zip((got.norm, got.omega, got.gsum), want):
            assert a.tobytes() == b.tobytes(), (pairs, parents)
        if parents == 1:
            # one parent per block: a leaf's block is skipped before its
            # pairs are counted, and a live parent's pairs (fewer than 2^16)
            # are expanded at once
            assert 0 < calls["_pair_blocks"] == calls["_expand"] < got.count, calls
        count = element_counter(system, X)
        assert [count(y) for y in range(1, X + 1)] == want_counts


def _must_not_run(*args):
    raise AssertionError("must not run")


@pytest.mark.parametrize("system", EXACT_SYSTEMS, ids=lambda s: s.key)
def test_exact_columns_never_grow(monkeypatch, system):
    # sized by the closed-form count, the columns are allocated once
    monkeypatch.setattr(monoid, "_grow", _must_not_run)
    monkeypatch.setattr(monoid, "_BLOCK_PAIRS", 7)
    g = SIEVE_GS["residue-3-2"]
    for X in (1, 2, 4, 1000, 5000):
        total = element_counter(system, X)(X)
        assert count_table(system, X, g).count == total
        elements = sum(cells.size for *_, cells in cell_blocks(system, X, None)[1])
        assert elements == cell_counts(system, [X], g).sum() == total
    # a Beurling system has no closed form, so its columns do grow
    with pytest.raises(AssertionError, match="must not run"):
        cell_blocks(Beurling((2, 3, 5, 7)), 10**6, None)


@pytest.mark.parametrize("system,X", [(QuadraticField(-4), 10**6), (PolyOverFq(3), 3**12)],
                         ids=lambda v: getattr(v, "key", v))
def test_exact_budget_raises_before_any_column(monkeypatch, system, X):
    # the cap is checked against the closed-form count, so the error carries
    # the exact count, and comes before g or any column of the frontier
    total = element_counter(system, X)(X)
    monkeypatch.setattr(monoid, "_MAX_ELEMENTS", total - 1)
    unread = type("G", (), {"key": "unread", "values": staticmethod(_must_not_run),
                            "inside": staticmethod(_must_not_run)})()
    for build in (lambda: count_table(system, X, unread), lambda: cell_blocks(system, X, None),
                  lambda: cell_counts(system, [X], unread)):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as err:
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.predicted, err.value.cap) == (total, total - 1)
        assert peak < 8 * total  # less than the norm column, int64
    monkeypatch.setattr(monoid, "_MAX_ELEMENTS", total)
    assert count_table(system, X, Omega()).count == total


@pytest.mark.parametrize("system", EXACT_SYSTEMS, ids=lambda s: s.key)
@pytest.mark.parametrize("error", [-1, 1])
def test_wrong_closed_form_count_raises(monkeypatch, system, error):
    # every run on quad:D and poly:q checks the closed form against the
    # enumeration: a count off by one either way fills too many or too few rows
    X = 3000
    counter = element_counter(system, X)
    monkeypatch.setattr(monoid, "element_counter",
                        lambda *args: lambda y: counter(y) + error)
    monkeypatch.setattr(monoid, "_grow", _must_not_run)
    for build in (lambda: count_table(system, X, Omega()), lambda: cell_blocks(system, X, None),
                  lambda: cell_counts(system, [X], Omega())):
        with pytest.raises(MonoidLdpError, match=f"closed-form count is {counter(X) + error}"):
            build()


@pytest.mark.parametrize("system", [QuadraticField(-4), PolyOverFq(3), Beurling((2, 3, 3, 5))],
                         ids=lambda s: s.key)
def test_budget_boundary_is_exact(monkeypatch, system):
    # an error exactly when the element count exceeds the cap, at every cap
    X = 400
    total = count_table(system, X, Omega()).count
    # only a Beurling counter enumerates; the others hold no element
    builds = [lambda: count_table(system, X, Omega())]
    if isinstance(system, Beurling):
        builds.append(lambda: element_counter(system, X))
    for cap in range(1, total + 2):
        monkeypatch.setattr(monoid, "_MAX_ELEMENTS", cap)
        if cap >= total:
            assert count_table(system, X, Omega()).count == total
            assert element_counter(system, X)(X) == total
            continue
        for build in builds:
            with pytest.raises(BudgetExceeded) as err:
                build()
            assert err.value.cap == cap
            assert cap < err.value.predicted <= total


def _gaussian_lattice_count(X):
    """Ideals of Z[i] of norm <= X: nonzero (a, b) with a^2 + b^2 <= X, up to units."""
    r = math.isqrt(X)
    points = sum(2 * math.isqrt(X - a * a) + 1 for a in range(-r, r + 1)) - 1
    assert points % 4 == 0
    return points // 4


def test_quad_minus4_counts_match_gaussian_lattice():
    count = element_counter(QuadraticField(-4), 300_000)
    for X, expected in ((1, 1), (100, 79), (12345, 9699), (300_000, 235_610)):
        assert _gaussian_lattice_count(X) == expected
        assert count(X) == expected
    assert all(count(y) == _gaussian_lattice_count(y) for y in range(1, 2001))
    assert element_counter(QuadraticField(-4), 12345)(12345) == 9699


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_poly_counts_are_monic_polynomial_counts(q):
    X = 5000
    count = element_counter(PolyOverFq(q), X)
    for y in range(1, X + 1):
        assert count(y) == sum(q**d for d in range(14) if q**d <= y)


def _frontier_counts(system, X, ys):
    """count(y) by the frontier: the Beurling counter on the same prime norms.
    A Beurling system has no closed form, so its frontier never reads one;
    quad:D and poly:q tables are sized by the closed form, and would make
    this oracle check the closed form against itself."""
    count = element_counter(Beurling(tuple(prime_norms(system, X).tolist())), X)
    return [count(y) for y in ys]


def _oracle_ys(X):
    """Every y up to 3000, 50 log-spaced y and X."""
    spaced = np.geomspace(1, X, 50).round().astype(int).tolist()
    return sorted({*range(1, min(X, 3000) + 1), *spaced, X})


def test_quad_closed_form_matches_the_frontier_for_every_discriminant():
    assert len(ALL_FUNDAMENTAL) == 61
    X, ys = 10**5, _oracle_ys(10**5)
    for D in ALL_FUNDAMENTAL:
        count = element_counter(QuadraticField(D), X)
        assert [count(y) for y in ys] == _frontier_counts(QuadraticField(D), X, ys), D


@pytest.mark.parametrize("D", [-4, -3, 5, 8, -23, 93])
def test_quad_closed_form_matches_the_frontier_at_1e6(D):
    X, ys = 10**6, _oracle_ys(10**6)
    count = element_counter(QuadraticField(D), X)
    assert [count(y) for y in ys] == _frontier_counts(QuadraticField(D), X, ys)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_poly_closed_form_matches_the_frontier(q):
    powers = [1]
    while powers[-1] * q <= 10**6:
        powers.append(powers[-1] * q)
    X = powers[-1]  # the largest q^n <= 1e6
    ys = sorted({*_oracle_ys(X), *powers, *(n - 1 for n in powers[1:])})
    count = element_counter(PolyOverFq(q), X)
    assert [count(y) for y in ys] == _frontier_counts(PolyOverFq(q), X, ys)


@pytest.mark.parametrize("D,limit", [
    (-3, math.pi / (3 * math.sqrt(3))),
    (-4, math.pi / 4),
    (-23, 3 * math.pi / math.sqrt(23)),
    (5, 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)),
])
def test_quad_density_tends_to_the_class_number_formula(D, limit):
    # count(y) / y -> L(1, chi_D), which is 2 pi h / (w sqrt|D|) for D < 0
    y = 10**12
    assert abs(element_counter(QuadraticField(D), y)(y) / y - limit) < 1e-6


@settings(max_examples=60, deadline=None)
@given(system=st.sampled_from([*map(QuadraticField, ALL_FUNDAMENTAL), PolyOverFq(2),
                               PolyOverFq(9)]),
       X=st.integers(1, 10**7), y=st.integers(1, 10**7),
       asked=st.lists(st.integers(1, 10**7), max_size=4),
       near=st.lists(st.integers(-3, 3), max_size=4))
def test_closed_form_answers_do_not_depend_on_earlier_questions(system, X, y, asked, near):
    # a counter that has answered other y, some of them next to y, answers
    # each y as a fresh counter does
    y = 1 + (y - 1) % X
    ys = [1 + (v - 1) % X for v in asked] + [min(max(y + d, 1), X) for d in near] + [y]
    warm = element_counter(system, X)
    assert [warm(v) for v in ys] == [element_counter(system, X)(v) for v in ys]


def test_beurling_counts_match_smooth_numbers():
    # elements of the monoid on norms (2, 3, 5) are the 5-smooth integers
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    count = element_counter(Beurling((2, 3, 5)), 1000)
    assert [count(y) for y in range(1, 1001)] == list(accumulate(map(smooth, range(1, 1001))))


@pytest.mark.parametrize("system", [
    Integers(), PolyOverFq(2), PolyOverFq(3), QuadraticField(-4), QuadraticField(5),
    QuadraticField(-3), Beurling((2, 3, 3, 5, 7, 7)),
], ids=lambda s: s.key)
def test_counter_matches_one_shot_counts(system):
    X = 300
    count = element_counter(system, X)
    assert [count(y) for y in range(1, X + 1)] == [
        element_counter(system, y)(y) for y in range(1, X + 1)
    ]
    with pytest.raises(ParameterError):
        element_counter(system, 0)


def test_budget_errors(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(monoid, "_MAX_ELEMENTS", 10)
        with pytest.raises(BudgetExceeded):
            count_table(Integers(), 10**4, Omega())
        with pytest.raises(BudgetExceeded) as err:
            count_table(Beurling((2,)), 2**20, Omega())
        assert err.value.cap == 10
    # each X cap raises before anything is allocated, exactly above the cap
    for system, cap in ((Integers(), "_MAX_X_SIEVE"), (QuadraticField(-4), "_MAX_X_FRONTIER")):
        with monkeypatch.context() as m:
            m.setattr(monoid, cap, 10**3)
            table = count_table(system, 10**3, Omega())
            assert table.count == element_counter(system, 10**3)(10**3)
            with pytest.raises(BudgetExceeded) as err:
                count_table(system, 10**3 + 1, Omega())
            assert (err.value.predicted, err.value.cap) == (10**3 + 1, 10**3)
    # the frontier's cap bounds the Beurling counter alone; the closed forms
    # have their own, and the integers none
    closed = (QuadraticField(-4), PolyOverFq(3))
    monkeypatch.setattr(monoid, "_MAX_X_FRONTIER", 10**3)
    with pytest.raises(BudgetExceeded):
        element_counter(Beurling((2, 3)), 10**3 + 1)
    for system in closed:
        assert element_counter(system, 10**3 + 1)(10**3) == element_counter(system, 10**3)(10**3)
    monkeypatch.setattr(monoid, "_MAX_X_COUNT", 10**3)
    for system in closed:
        assert element_counter(system, 10**3)(10**3) > 0
        with pytest.raises(BudgetExceeded) as err:
            element_counter(system, 10**3 + 1)
        assert (err.value.predicted, err.value.cap) == (10**3 + 1, 10**3)
    assert element_counter(Integers(), 10**3 + 1)(10**3 + 1) == 10**3 + 1


def test_x_validation():
    for system in (Integers(), QuadraticField(-4), Beurling((2, 3))):
        with pytest.raises(ParameterError):
            count_table(system, 0, Omega())


@pytest.mark.parametrize("system", [PolyOverFq(2), QuadraticField(-4), Beurling((2, 3, 3, 5))],
                         ids=lambda s: s.key)
@pytest.mark.parametrize("g", [Omega(), NormResidue(4, frozenset({1}), 2, 0.5)],
                         ids=lambda g: g.key)
def test_count_builds_the_frontier_once_and_json_sorts_nothing(monkeypatch, tmp_path, system, g):
    X = 5000
    want = count_table(system, X, g)
    argv = ["count", "--g", g.key, "--limit", str(X), "--out", str(tmp_path)]
    if isinstance(system, Beurling):
        (tmp_path / "norms.txt").write_text("".join(f"{n}\n" for n in system.norms))
        argv += ["--system", f"beurling:{tmp_path / 'norms.txt'}"]
    else:
        argv += ["--system", system.key]
    builds = []

    def frontier(*args):
        builds.append(args[1])
        return build(*args)

    build = monoid._frontier
    monkeypatch.setattr(monoid, "_frontier", frontier)
    assert main([*argv, "--format", "csv"]) == 0
    assert builds == [X]
    lines = (tmp_path / "count.csv").read_text().splitlines()
    assert len(lines) == want.count + 1
    # the JSON report reads the histogram alone: no gsum, no sort of the
    # table (np.sort of the prime norms on quad:D is not one)
    for name in ("lexsort", "argsort"):
        monkeypatch.setattr(np, name, _must_not_run)
    monkeypatch.setattr(type(g), "sums", _must_not_run)
    assert main([*argv, "--format", "json"]) == 0
    assert builds == [X, X]
    report = json.loads((tmp_path / "count.json").read_text())
    assert report["omega_histogram"] == np.bincount(want.omega).tolist()
    assert report["count"] == want.count
    assert report["mean_omega"] == round12(float(want.omega.sum(dtype=np.int64)) / want.count)


def test_table_csv(tmp_path):
    assert main(["count", "--limit", "6", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "count.csv").read_text().splitlines()
    assert lines[0] == "norm,omega,gsum"
    assert lines[1] == "1,0,0"
    assert lines[6] == "6,2,2"


def _brute_table(norms, X, gvals):
    """All products of generator powers with norm <= X, by direct expansion."""
    elements = [(1, 0, 0.0)]
    for n, gv in zip(norms, gvals):
        new = []
        for norm, om, gs in elements:
            m = norm * n
            while m <= X:
                new.append((m, om + 1, gs + gv))
                m *= n
        elements.extend(new)
    return sorted((n, o, round(g, 9)) for n, o, g in elements)


@settings(max_examples=50, deadline=None)
@given(
    norms=st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=4),
    X=st.integers(min_value=1, max_value=300),
)
def test_beurling_enumeration_against_brute_force(norms, X):
    g = NormResidue(3, frozenset({0}), 0.5, 2.0)
    gvals = [0.5 if n % 3 == 0 else 2.0 for n in norms]
    t = count_table(Beurling(tuple(norms)), X, g)
    got = sorted(
        (int(n), int(o), round(float(gg), 9))
        for n, o, gg in zip(t.norm, t.omega, t.gsum)
    )
    assert got == _brute_table(norms, X, gvals)

"""Exact Z/Y expectations, domination, truncation, and MGF gaps vs oracles."""
import collections
import decimal
import itertools
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoidldp import exact, monoid, systems
from monoidldp.additive import NormResidue, Omega, rho_X
from monoidldp.errors import BudgetExceeded, EmptySystem, ParameterError, PrimeNotInSystem
from monoidldp.exact import (
    _support_counts,
    domination_report,
    expect_Y,
    expect_Z,
    log_mgf_Y,
    tail_mass,
    truncation_sets,
    truncation_threshold,
)
from monoidldp.experiments import gap_sweep
from monoidldp.monoid import element_counter
from monoidldp.systems import (
    Beurling,
    Integers,
    PolyOverFq,
    QuadraticField,
    list_primes,
    prime_norms,
)


def _gap_at(system, g, X, C, theta):
    """The gap row at one X: a one-point gap_sweep."""
    return gap_sweep(system, g, [X], C, theta).rows[0]


def _count(system, X):
    """The number of elements of norm <= X."""
    return element_counter(system, X)(X)


def _g_at(g, n):
    """g at a prime of norm n."""
    return float(g.values(np.array([n]))[0])


def _mgf_y(norms, g, theta):
    """The Y-side MGF over the primes of the norms, as a gap row takes it."""
    return math.exp(log_mgf_Y(norms, g, theta))


def _mgf_z(system, X, norms, g, theta):
    """The Z-side MGF over the primes of the norms, as a gap row takes it:
    the mean of exp(theta g_S) over the support counts."""
    return exact._mean_exp(*_support_counts(element_counter(system, X), X, norms, g), theta)


def _log_mgf_z(system, X, norms, g, theta):
    """The log of _mgf_z, as a gap row in log space takes it."""
    return exact._log_mean_exp(*_support_counts(element_counter(system, X), X, norms, g), theta)


def _norms(*norms):
    return np.array(norms, dtype=np.int64)


def test_expect_z_examples():
    assert expect_Z(Integers(), 10, [2, 3]) == Fraction(1, 10)
    assert expect_Z(Integers(), 100, [2, 3]) == Fraction(4, 25)
    assert expect_Z(Integers(), 10, [2, 7]) == 0  # 14 > 10
    assert float(expect_Z(Integers(), 10, _norms(2))) == 0.5


@pytest.mark.parametrize("X", [10, 100, 1000])
@pytest.mark.parametrize("norms", [(2,), (3,), (2, 3), (2, 5), (3, 5, 7)])
def test_expect_z_matches_divisibility_scan(X, norms):
    prod = math.prod(norms)
    hits = sum(1 for m in range(1, X + 1) if m % prod == 0)
    assert expect_Z(Integers(), X, list(norms)) == Fraction(hits, X)


def test_expect_y():
    assert expect_Y([2, 3]) == Fraction(1, 6)
    assert expect_Y(_norms(2, 3, 5)) == Fraction(1, 30)
    assert expect_Y([]) == 1


def test_expect_distinctness_and_membership():
    # the integers have one prime of norm 2, so [2, 2] names a second one
    with pytest.raises(PrimeNotInSystem):
        expect_Z(Integers(), 10, [2, 2])
    with pytest.raises(PrimeNotInSystem):
        expect_Z(Integers(), 10, [13])
    # 4 = N(t^2 + t + 1) is a norm of poly:2, not of the integers
    with pytest.raises(PrimeNotInSystem):
        expect_Z(Integers(), 10, [4])
    # a norm above X is not looked up past X
    with pytest.raises(PrimeNotInSystem, match="norm <= 100"):
        expect_Z(Integers(), 100, [101])
    with pytest.raises(ParameterError):
        expect_Z(Integers(), 0, [])
    assert expect_Z(Integers(), 10, []) == 1


@pytest.mark.parametrize("system,X,fits,too_many", [
    # 5 splits in Q(i) into two primes of norm 5
    (QuadraticField(-4), 100, [5, 5], [5, 5, 5]),
    (Beurling((2, 2, 3)), 100, [2, 2], [2, 2, 2]),
], ids=lambda v: getattr(v, "key", None))
def test_expect_repeated_norms_are_a_multiset(system, X, fits, too_many):
    product = math.prod(fits)
    assert expect_Z(system, X, fits) == Fraction(
        _count(system, X // product), _count(system, X))
    with pytest.raises(PrimeNotInSystem, match=f"norm <= {X}"):
        expect_Z(system, X, too_many)
    # a prime of the system whose norm exceeds X is not counted
    with pytest.raises(PrimeNotInSystem):
        expect_Z(system, fits[0] - 1, fits[:1])


def test_domination_integers_ratio_capped_at_one():
    rep = domination_report(Integers(), 100, 3)
    assert rep.M_exact == 1
    assert rep.M_observed == 1.0
    assert (rep.witness, rep.witness_norms) == (("2",), (2,))
    # tuple count matches a combinations scan with the same product cutoff
    norms = list_primes(Integers(), 100)[0].tolist()
    expected = sum(
        1
        for k in (1, 2, 3)
        for tup in itertools.combinations(norms, k)
        if math.prod(tup) <= 100
    )
    assert rep.tuples_examined == expected


def test_domination_beurling_exceeds_one():
    rep = domination_report(Beurling((2, 3)), 12, 2)
    assert rep.M_exact == Fraction(3, 2)
    assert rep.witness_norms == (2, 3)
    assert rep.witness == ("beurling#1", "beurling#2")


def test_domination_poly_matches_brute_maximum():
    system = PolyOverFq(2)
    X, k_max = 8, 3
    norms, labels = list_primes(system, X)
    cx = _count(system, X)
    best = Fraction(0)
    for k in range(1, k_max + 1):
        for tup in itertools.combinations(norms.tolist(), k):
            prod = math.prod(tup)
            if prod <= X:
                best = max(best, Fraction(_count(system, X // prod) * prod, cx))
    rep = domination_report(system, X, k_max)
    assert rep.M_exact == best == Fraction(14, 15)
    assert (rep.witness, rep.witness_norms) == ((labels[0],), (int(norms[0]),))


def _labelled_domination(system, X, k_max):
    """The depth-first search over labelled primes that the report replaced:
    (the largest ratio, its witness's labels and norms, tuples examined)."""
    norms, labels = list_primes(system, X)
    entries = list(zip(labels, norms.tolist()))
    cx = _count(system, X)
    best, witness, examined = Fraction(0), (), 0

    def rec(i0, prod, picked):
        nonlocal best, witness, examined
        for i in range(i0, len(entries)):
            p = prod * entries[i][1]
            if p > X:
                break
            examined += 1
            tup = picked + (entries[i],)
            ratio = Fraction(_count(system, X // p) * p, cx)
            if ratio > best:
                best, witness = ratio, tup
            if len(tup) < k_max:
                rec(i + 1, p, tup)

    rec(0, 1, ())
    return (best, *(tuple(column) for column in zip(*witness)), examined)


@pytest.mark.parametrize("system,X,k_max", [
    (Integers(), 1000, 3),
    (QuadraticField(-4), 2000, 3),
    (QuadraticField(-3), 500, 2),
    (PolyOverFq(3), 3**6, 3),
    (Beurling((2, 3, 3, 5, 7, 7, 11)), 200, 3),
], ids=lambda v: getattr(v, "key", str(v)))
def test_domination_searches_norms_and_labels_only_the_witness(system, X, k_max, monkeypatch):
    expected = _labelled_domination(system, X, k_max)
    real, limits = exact.list_primes, []

    def spy(system_, limit, norms):
        limits.append(limit)
        assert np.array_equal(norms, prime_norms(system_, limit))
        return real(system_, limit, norms)

    monkeypatch.setattr(exact, "list_primes", spy)
    rep = domination_report(system, X, k_max)
    assert (rep.M_exact, rep.witness, rep.witness_norms, rep.tuples_examined) == expected
    assert limits == [max(rep.witness_norms)]


@pytest.mark.parametrize("system,X,k_max", [
    (Integers(), 30, 3),
    (Integers(), 210, 4),
    (QuadraticField(-4), 300, 3),
    # repeated norms give distinct primes equal ratios; at X = 27 three
    # tuples share the maximum, so the tie rule picks the witness
    (Beurling((2, 2, 3, 3, 3, 5, 7, 7)), 27, 3),
    (Beurling((2, 2, 3, 3, 3, 5, 7, 7)), 150, 3),
], ids=lambda v: getattr(v, "key", str(v)))
def test_domination_matches_a_brute_force_fraction_maximum(system, X, k_max):
    norms, labels = list_primes(system, X)
    norms = norms.tolist()
    cx = _count(system, X)
    # every tuple of distinct primes with product <= X, index-lexicographic,
    # which is the search's depth-first order
    tuples = sorted(tup for k in range(1, k_max + 1)
                    for tup in itertools.combinations(range(len(norms)), k)
                    if math.prod(norms[i] for i in tup) <= X)
    ratios = [Fraction(_count(system, X // prod) * prod, cx)
              for prod in (math.prod(norms[i] for i in tup) for tup in tuples)]
    best = max(ratios)
    first = tuples[ratios.index(best)]
    rep = domination_report(system, X, k_max)
    assert rep.M_exact == best
    assert rep.M_observed == float(best)
    assert rep.witness == tuple(labels[i] for i in first)
    assert rep.witness_norms == tuple(norms[i] for i in first)
    assert rep.tuples_examined == len(tuples)


def test_domination_validation_and_budget(monkeypatch):
    with pytest.raises(ParameterError):
        domination_report(Integers(), 100, 0)
    monkeypatch.setattr(exact, "_MAX_TUPLES", 10)
    with pytest.raises(BudgetExceeded) as err:
        domination_report(Integers(), 100, 3)
    assert err.value.cap == 10
    # a lower bound on the tuples, known before a block is scored
    assert err.value.predicted > err.value.cap


def _dfs_domination(system, X, k_max):
    """The depth-first recursion the level search replaced, kept as its
    oracle: (M_exact, witness labels, witness norms, tuples examined)."""
    primes = prime_norms(system, X)
    norms = primes.tolist()
    count = element_counter(system, X)
    best, witness, examined = 0, (), 0

    def rec(i0, prod, picked):
        nonlocal best, witness, examined
        for i in range(i0, len(norms)):
            p = prod * norms[i]
            if p > X:
                break  # norms ascend
            examined += 1
            tup = picked + (i,)
            num = count(X // p) * p
            if num > best:
                best, witness = num, tup
            if len(tup) < k_max:
                rec(i + 1, p, tup)

    rec(0, 1, ())
    labels = list_primes(system, X)[1]
    return (Fraction(best, count(X)), tuple(labels[i] for i in witness),
            tuple(norms[i] for i in witness), examined)


def _near_products(system, k):
    """X at and next to the products of the first 1..k prime norms."""
    norms = prime_norms(system, 10**4).tolist()
    return sorted({math.prod(norms[:j]) + d for j in range(1, k + 1) for d in (-1, 0, 1)} - {0})


def _report_row(rep):
    return rep.M_exact, rep.witness, rep.witness_norms, rep.tuples_examined


@pytest.mark.parametrize("system", [Integers(), QuadraticField(-4), QuadraticField(5),
                                    PolyOverFq(3)], ids=lambda s: s.key)
def test_domination_matches_the_depth_first_oracle(system):
    for X in _near_products(system, 5):
        for k_max in (1, 2, 3, 4):
            rep = domination_report(system, X, k_max)
            assert _report_row(rep) == _dfs_domination(system, X, k_max), (X, k_max)
            assert rep.M_observed == float(rep.M_exact)


def test_domination_ties_keep_the_depth_first_witness():
    # repeated norms give distinct primes equal ratios, so most maxima tie;
    # at X = 80, 105 or 112 a longer tuple ties a later, shorter one and
    # comes first in depth-first order, so the tie crosses levels
    system = Beurling((2, 3, 3, 5, 7, 7))
    for X in (*range(1, 130), *_near_products(system, 6), 500, 1000):
        for k_max in (1, 2, 3, 4, 6):
            assert _report_row(domination_report(system, X, k_max)) == \
                _dfs_domination(system, X, k_max), (X, k_max)


@pytest.mark.parametrize("system,X,k_max", [
    (Integers(), 3000, 3),
    (QuadraticField(-4), 2000, 4),
    (Beurling((2, 3, 3, 5, 7, 7)), 1000, 4),
], ids=lambda v: getattr(v, "key", str(v)))
def test_domination_is_independent_of_block_size(monkeypatch, system, X, k_max):
    # one pair per block puts every tie in a block of its own; 7 cuts a
    # parent's primes across blocks and splits levels unevenly
    want = _dfs_domination(system, X, k_max)
    for pairs in (1, 7, 2**16):
        monkeypatch.setattr(monoid, "_BLOCK_PAIRS", pairs)
        assert _report_row(domination_report(system, X, k_max)) == want, pairs


def test_domination_memory_is_a_block_not_every_tuple():
    # 495,329 tuples at 1e6 with k_max 3: a search that kept every tuple as
    # (product, index tuple) held 24 bytes or more each, ~12 MB. The level
    # search keeps the tuples that can grow and one block of children; its
    # traced peak was 3.3 MB with the prime list, against 3.6 MB for the
    # depth-first recursion, which holds one path and the norms as ints
    domination_report(Integers(), 1000, 3)
    tracemalloc.start()
    try:
        rep = domination_report(Integers(), 10**6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.tuples_examined == 495_329
    assert peak <= 6 * 2**20, f"{peak / 2**20:.1f} MB"


def test_truncation_threshold():
    assert truncation_threshold(100) == pytest.approx(7.203289171686981, rel=1e-14)
    assert truncation_threshold(100) == pytest.approx(
        math.exp(math.log(100) / math.log(math.log(100)) ** 2), rel=1e-15)
    with pytest.raises(ParameterError):
        truncation_threshold(15)


def test_truncation_sets_split():
    ts = truncation_sets(Integers(), Omega(), 100, 5.0)
    assert ts.B.dtype == np.int64
    assert ts.B.tolist() == [2, 3, 5, 7]
    # a cap below every prime value leaves B empty
    ts_low = truncation_sets(Integers(), Omega(), 100, 0.5)
    assert ts_low.B.tolist() == []


@pytest.mark.parametrize("system,X,C", [
    (Integers(), 10**4, 0.5),
    (QuadraticField(-4), 10**5, 5.0),
    (PolyOverFq(2), 2**12, 1.0),
    (Beurling((2, 3, 3, 5, 7, 7, 11)), 100, 1.0),
], ids=lambda v: getattr(v, "key", str(v)))
def test_truncation_b_is_the_small_norms_of_the_full_list(system, X, C):
    g = NormResidue(3, frozenset({2}), 2.5, 0.3)  # C = 1 drops the 2.5 primes
    ts = truncation_sets(system, g, X, C)
    norms = list_primes(system, X)[0].tolist()
    assert ts.B.tolist() == [n for n in norms if n <= ts.k_X and abs(_g_at(g, n)) <= C]
    assert ts.B.size


def test_gap_components_lists_no_primes(monkeypatch):
    X = 10**5
    expected = _gap_at(QuadraticField(-4), Omega(), X, 5.0, 1.0)

    def refuse(*args, **kwargs):
        raise AssertionError("the gap row listed labelled primes")

    monkeypatch.setattr(exact, "list_primes", refuse)
    monkeypatch.setattr(systems, "list_primes", refuse)
    assert _gap_at(QuadraticField(-4), Omega(), X, 5.0, 1.0) == expected


def test_mgf_y_closed_form():
    B = _norms(2, 3, 5, 7)
    expected = math.prod(1 + (math.e - 1) / p for p in (2, 3, 5, 7))
    assert _mgf_y(B, Omega(), 1.0) == pytest.approx(expected, rel=1e-14)
    assert _mgf_y(B, Omega(), 1.0) == pytest.approx(4.8932342847282495, rel=1e-12)
    assert _mgf_y(_norms(2, 3, 5), Omega(), 1.0) == pytest.approx(
        3.9288291738042944, rel=1e-12)
    assert _mgf_y(B, Omega(), 0.0) == 1.0
    assert log_mgf_Y(B, Omega(), 1.0) == pytest.approx(math.log(expected), rel=1e-14)


def _brute_mgf_z_integers(X, norm_vals, theta):
    tot = 0.0
    for m in range(1, X + 1):
        s = sum(gv for n, gv in norm_vals if m % n == 0)
        tot += math.exp(theta * s)
    return tot / X


def test_mgf_z_against_elementwise_scan():
    B = _norms(2, 3, 5, 7)
    got = _mgf_z(Integers(), 100, B, Omega(), 1.0)
    assert got == pytest.approx(_brute_mgf_z_integers(100, [(p, 1.0) for p in (2, 3, 5, 7)], 1.0),
                                rel=1e-12)
    assert got == pytest.approx(4.643404184909107, rel=1e-12)

    g = NormResidue(4, frozenset({1}), 1.0, 0.25)
    vals = [(n, _g_at(g, n)) for n in B.tolist()]
    assert _mgf_z(Integers(), 100, B, g, 0.7) == pytest.approx(
        _brute_mgf_z_integers(100, vals, 0.7), rel=1e-12)


def test_mgf_z_against_subset_expansion():
    # E[e^(theta S)] = sum over subsets S of B of floor(X/prod) prod(e^(theta g)-1) / X
    X = 1000
    B = _norms(2, 3, 5)
    theta = 1.0
    total = 0.0
    for k in range(len(B) + 1):
        for sub in itertools.combinations(B.tolist(), k):
            prod = math.prod(sub)
            total += (X // prod) * math.prod(math.expm1(theta) for _ in sub)
    assert _mgf_z(Integers(), X, B, Omega(), theta) == pytest.approx(total / X, rel=1e-12)


def test_gap_components_frozen_row():
    row = _gap_at(Integers(), Omega(), 1000, 5.0, 1.0)
    assert row.B_size == 3
    assert row.log_space is False
    assert row.mgf_Y == pytest.approx(3.9288291738042944, rel=1e-12)
    assert row.gap == pytest.approx(0.00620048856943, rel=1e-9)


def _restricted_gsums(system, X, subset, g):
    """Per element of norm <= X, g summed exactly over its primes whose
    norms are in the subset (a union of norm classes) and rounded once: a
    depth-first walk over the system's primes, its rows in the sorted
    table's (norm, omega, gsum) order."""
    norms = prime_norms(system, X).tolist()
    kept = set(subset.tolist())
    gvals = [Fraction(_g_at(g, n)) if n in kept else Fraction(0) for n in norms]
    rows = [(1, 0, Fraction(0))]

    def rec(i0, n, om, gs):
        for i in range(i0, len(norms)):
            m = n * norms[i]
            if m > X:
                break
            gi = gs + gvals[i]
            while m <= X:
                rows.append((m, om + 1, gi))
                rec(i + 1, m, om + 1, gi)
                m *= norms[i]

    rec(0, 1, 0, Fraction(0))
    norm, omega, gsum = (np.array(col, dtype=float) for col in zip(*rows))
    return gsum[np.lexsort((gsum, omega, norm))]


def _table_log_mgf_z(gsums, theta):
    """The table oracle: log of the mean of exp(theta * gsum) over every
    element (_restricted_gsums), as log1p of the mean of expm1, which keeps
    its relative accuracy near 0 (the log of a sum shifted by its peak
    loses it there)."""
    return math.log1p(math.fsum(map(math.expm1, (theta * gsums).tolist())) / gsums.size)


# (system, X, norm bound of the subset); every subset has a product of two
# or more primes below X, and all but the integers repeat norms
MGF_SYSTEMS = [
    (Integers(), 2000, 13),
    (QuadraticField(-4), 2000, 13),
    (QuadraticField(5), 2000, 20),
    (PolyOverFq(2), 2**11, 16),
    (PolyOverFq(3), 3**7, 9),
    (PolyOverFq(7), 7**4, 7),
    (Beurling((2, 2, 3, 5, 7, 7, 11)), 2000, 7),
]
MGF_CASES = [pytest.param(*case, id=case[0].key) for case in MGF_SYSTEMS]


@pytest.mark.parametrize("system,X,bound", MGF_CASES)
@pytest.mark.parametrize("C", [1.0, 5.0])
def test_mgf_z_matches_table_oracle(system, X, bound, C):
    g = NormResidue(3, frozenset({2}), 2.5, 0.3)  # C = 1 drops the 2.5 primes
    norms = prime_norms(system, bound)
    subset = norms[g.values(norms) <= C]
    assert len(subset) >= 2
    gsums = _restricted_gsums(system, X, subset, g)
    assert gsums.size == _count(system, X)
    for theta in (-3.0, -1.0, 0.0, 0.5, 1.0, 2.5):
        want = _table_log_mgf_z(gsums, theta)
        assert math.isclose(_mgf_z(system, X, subset, g, theta), math.exp(want), rel_tol=1e-14)
        got = _log_mgf_z(system, X, subset, g, theta)
        assert math.isclose(got, want, rel_tol=1e-14, abs_tol=1e-16)


def test_log_mgf_z_near_zero_matches_a_decimal_oracle():
    # the log of a mean near 1, 0.0427 here: taken as the log of a sum
    # shifted by its peak, it kept ~1e-15 of absolute accuracy, 2.1e-14
    # relative
    system, X, norms = QuadraticField(-4), 2000, _norms(9, 13, 13)
    g, theta = NormResidue(3, frozenset({2}), 2.5, 0.3), 0.5
    total, support = _support_counts(element_counter(system, X), X, norms, g)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        mean = sum(c * (Decimal(theta) * Decimal(gs)).exp() for c, gs in support) / total
        want = Fraction(mean.ln())
    got = exact._log_mean_exp(total, support, theta)
    assert abs(Fraction(got) - want) <= Fraction(math.ulp(float(want)))


@pytest.mark.parametrize("system,X,bound", MGF_CASES)
def test_support_counts_sum_to_count(system, X, bound):
    subset = prime_norms(system, bound)
    total, support = _support_counts(element_counter(system, X), X, subset, Omega())
    assert total == _count(system, X)
    assert sum(c for c, _ in support) == total
    assert all(c >= 1 for c, _ in support)


@pytest.mark.parametrize("X", [1, 2, 30, 97, 1000])
def test_support_counts_match_trial_division(X):
    subset = prime_norms(Integers(), 47)
    g = NormResidue(4, frozenset({1}), 0.1, 0.7)
    total, support = _support_counts(element_counter(Integers(), X), X, subset, g)
    # each S that some m <= X has exactly, by trial division, with its
    # count and its g_S, summed exactly and rounded once
    expected = collections.Counter(
        tuple(n for n in subset.tolist() if m % n == 0) for m in range(1, X + 1))
    assert total == X
    assert sorted(support) == sorted(
        (c, float(sum(Fraction(_g_at(g, n)) for n in S))) for S, c in expected.items())


@pytest.mark.parametrize("system", [Integers(), QuadraticField(-4)], ids=lambda s: s.key)
def test_gap_components_builds_no_table(system, monkeypatch):
    expected = _gap_at(system, NormResidue(4, frozenset({1}), 1.0, 0.25), 10**4, 5.0, 1.0)

    def no_table(*args, **kwargs):
        raise AssertionError("the gap row built a monoid table")

    monkeypatch.setattr(monoid, "table_blocks", no_table)
    row = _gap_at(system, NormResidue(4, frozenset({1}), 1.0, 0.25), 10**4, 5.0, 1.0)
    assert row == expected and row.B_size >= 2


def test_gap_vanishes_at_theta_zero():
    assert _gap_at(Integers(), Omega(), 100, 5.0, 0.0).gap == 0.0
    assert _gap_at(Beurling((2, 3)), Omega(), 100, 5.0, 0.0).gap == 0.0


def test_mgf_overflow_switches_to_log_space():
    # B at X = 100 is the primes up to k_X ~ 7.2
    B = _norms(2, 3, 5, 7)
    # mgf_Y exceeds 1e300, so the row holds both logs
    ly = log_mgf_Y(B, Omega(), 700.0)
    assert ly > exact._LOG_OVERFLOW > 690.0
    row = _gap_at(Integers(), Omega(), 100, 5.0, 700.0)
    assert row.B_size == 4
    assert row.log_space is True
    assert row.mgf_Y == ly
    assert row.mgf_Z == _log_mgf_z(Integers(), 100, B, Omega(), 700.0)
    assert math.isfinite(row.mgf_Z) and math.isfinite(row.mgf_Y)
    assert row.gap == abs(row.mgf_Z - row.mgf_Y)
    # e^(theta g_S) itself overflows on the Z side once g_S = 2
    with pytest.raises(OverflowError):
        _mgf_z(Integers(), 100, B, Omega(), 400.0)
    row = _gap_at(Integers(), Omega(), 100, 5.0, 400.0)
    assert row.log_space is True
    assert row.mgf_Z == _log_mgf_z(Integers(), 100, B, Omega(), 400.0)
    assert row.mgf_Z > 709.78


def test_gap_row_in_log_space_when_only_mgf_z_overflows():
    # one prime of norm ~1e9 at theta = 711: e^711 overflows on the Z side
    # while mgf_Y, about e^711 / 1e9, stays below 1e300
    X, B, theta = 10**12, _norms(999_999_937), 711.0
    count = element_counter(Integers(), X)
    ts = exact.TruncationSets(X, 5.0, truncation_threshold(X), B)
    row = exact._gap_row(ts, Omega(), theta, count)
    ly = log_mgf_Y(B, Omega(), theta)
    assert ly <= exact._LOG_OVERFLOW
    with pytest.raises(OverflowError):
        exact._mean_exp(*_support_counts(count, X, B, Omega()), theta)
    assert row.log_space and row.mgf_Y == ly
    assert row.mgf_Z == exact._log_mean_exp(*_support_counts(count, X, B, Omega()), theta)


def test_tail_mass():
    # Omega exceeds C = 0.5 at every prime, so the ratio telescopes to e - 1
    assert tail_mass(Integers(), Omega(), 10, 0.5, 1.0) == pytest.approx(
        math.e - 1, rel=1e-14)
    # residue rule: only N(p) = 5 lands in class 1 mod 4 below 10
    g = NormResidue(4, frozenset({1}), 1.0, 0.0)
    assert tail_mass(Integers(), g, 10, 0.5, 1.0) == pytest.approx(
        (math.e - 1) * 42 / 247, rel=1e-12)
    assert tail_mass(Integers(), Omega(), 10, 1.0, 1.0) == 0.0
    with pytest.raises(ParameterError):
        tail_mass(Integers(), Omega(), 10, 0.5, -1.0)
    with pytest.raises(EmptySystem):
        tail_mass(Integers(), Omega(), 1, 0.5, 1.0)


@pytest.mark.parametrize("system", [Integers(), QuadraticField(-4)], ids=lambda s: s.key)
@pytest.mark.parametrize("g,top", [(Omega(), 1.0),
                                   (NormResidue(4, frozenset({1}), 2.0, 0.5), 2.0),
                                   (NormResidue(4, frozenset({1}), 0.5, 2.0), 2.0)],
                         ids=lambda v: getattr(v, "key", None))
def test_tail_mass_above_every_value_reads_no_weight(system, g, top, monkeypatch):
    # a cap at or above every value g takes leaves no atom above it, so
    # rho_X's weights are never taken; below the largest value they are
    def refuse(*args):
        raise AssertionError("tail_mass took rho_X")

    monkeypatch.setattr(exact, "rho_X", refuse)
    for C in (top, top + 0.5, math.inf):
        assert tail_mass(system, g, 1000, C, 1.0) == 0.0
    with pytest.raises(AssertionError, match="took rho_X"):
        tail_mass(system, g, 1000, top - 0.25, 1.0)
    # the checks before it still run first
    with pytest.raises(ParameterError):
        tail_mass(system, g, 1000, top, -1.0)
    with pytest.raises(EmptySystem):
        tail_mass(system, g, 1, top, 1.0)
    with pytest.raises(BudgetExceeded):
        tail_mass(system, g, 10**12, top, 1.0)


@pytest.mark.parametrize("system", [Integers(), QuadraticField(-4), PolyOverFq(3),
                                    Beurling((2, 3))], ids=lambda s: s.key)
def test_rho_x_and_tail_mass_below_one_and_at_one(system):
    # rho_X reads the prefix up to X of a longer norm array
    for f in (lambda X: rho_X(prime_norms(system, 100), Omega(), X),
              lambda X: tail_mass(system, Omega(), X, 0.5, 1.0)):
        with pytest.raises(ParameterError):
            f(0)
        with pytest.raises(EmptySystem):
            f(1)


@given(st.integers(20, 400), st.floats(0.0, 3.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_mgf_z_dominated_by_mgf_y_for_integers(X, theta):
    # floor(X/prod)/X <= 1/prod termwise in the subset expansion when g >= 0
    ts = truncation_sets(Integers(), Omega(), max(X, 16), 10.0)
    my = _mgf_y(ts.B, Omega(), theta)
    mz = _mgf_z(Integers(), max(X, 16), ts.B, Omega(), theta)
    assert mz <= my * (1 + 1e-12)

"""Experiment drivers: EK normality, LDP tail scans, condition sweeps, gap trend."""
import dataclasses
import math
from fractions import Fraction

import pytest

from monoidldp import experiments
from monoidldp.additive import DiscreteMeasure, NormResidue, Omega, exp_moment, rho_X
from monoidldp.errors import EmptySample, EmptySystem, ParameterError
from monoidldp.experiments import condition_sweep, ek_report, gap_sweep, ldp_scan
from monoidldp.rate import rate
from monoidldp.systems import (
    Beurling,
    Integers,
    PolyOverFq,
    QuadraticField,
    list_primes,
    prime_norms,
)

DELTA1 = DiscreteMeasure.delta(1.0)


def _omega_int(m):
    cnt, d = 0, 2
    while d * d <= m:
        if m % d == 0:
            cnt += 1
            while m % d == 0:
                m //= d
        d += 1
    return cnt + (1 if m > 1 else 0)


def _phi(t):
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def test_ek_report_against_trial_division_oracle():
    X = 1000
    rep = ek_report(Integers(), X)
    ts = sorted(
        (_omega_int(m) - math.log(math.log(m))) / math.sqrt(math.log(math.log(m)))
        for m in range(3, X + 1)
    )
    n = len(ts)
    d_plus = max((i + 1) / n - _phi(t) for i, t in enumerate(ts))
    d_minus = max(_phi(t) - i / n for i, t in enumerate(ts))
    assert rep.ks_sample_count == n == X - 2
    assert rep.ks_distance == pytest.approx(d_plus, rel=1e-12)
    assert rep.ks_two_sided == pytest.approx(max(d_plus, d_minus), rel=1e-12)
    assert rep.ks_distance == pytest.approx(0.094455, abs=1e-5)
    assert rep.mean_omega == sum(X // n for n in list_primes(Integers(), X)[0].tolist()) / X


def test_ek_report_frozen_statistics():
    rep = ek_report(Integers(), 10_000)
    assert rep.samples == 10_000
    assert rep.ks_distance == pytest.approx(0.099978352969690, rel=1e-9)
    assert rep.ks_two_sided >= rep.ks_distance
    assert rep.mean_omega == pytest.approx(2.43, rel=1e-14)
    assert rep.variance_omega == pytest.approx(0.7003000000000001, rel=1e-12)
    assert rep.mertens_mean == pytest.approx(2.483059947233561, rel=1e-12)


def test_ek_report_min_norm_mask():
    rep = ek_report(Integers(), 100, min_norm=5)
    assert rep.samples == 100
    assert rep.ks_sample_count == 96
    assert rep.min_norm == 5


def test_ek_report_validation():
    with pytest.raises(ParameterError):
        ek_report(Integers(), 15)
    with pytest.raises(ParameterError):
        ek_report(Integers(), 100, min_norm=2)
    with pytest.raises(EmptySample):
        ek_report(Beurling((100,)), 16)


def test_ldp_scan_small_tail_is_exact():
    ll = math.log(math.log(10))
    rows = ldp_scan(Integers(), Omega(), [10], [(2 / ll, math.inf)], DELTA1)
    (row,) = rows
    assert row.count == 2  # omega >= 2 holds for 6 and 10 only
    assert row.total == 10
    assert row.tail_prob == Fraction(1, 5)
    assert row.normalized == pytest.approx(math.log(0.2) / ll, rel=1e-14)
    assert row.rate_bound == -rate(DELTA1, 2 / ll).I


def test_ldp_scan_partition_sums_to_one():
    intervals = [(0.0, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, math.inf)]
    rows = ldp_scan(Integers(), Omega(), [10_000], intervals, DELTA1)
    assert sum(r.tail_prob for r in rows) == 1
    assert all(r.total == 10_000 for r in rows)


def test_ldp_scan_full_line_and_empty_cells():
    (full,) = ldp_scan(Integers(), Omega(), [100], [(0.0, math.inf)], DELTA1)
    assert full.tail_prob == 1
    assert full.normalized == 0.0
    (empty,) = ldp_scan(Integers(), Omega(), [100], [(10.0, 11.0)], DELTA1)
    assert empty.count == 0
    assert empty.normalized == -math.inf
    (neg,) = ldp_scan(Integers(), Omega(), [100], [(-2.0, 0.0)], DELTA1)
    assert neg.count == 0
    assert neg.rate_bound == -math.inf  # interval misses [0, inf) entirely


@pytest.mark.parametrize("system", [Integers(), QuadraticField(-4)], ids=lambda s: s.key)
def test_ldp_scan_rows_equal_one_scan_per_x(system):
    # one enumeration at the largest X serves every X of the grid
    g = NormResidue(3, frozenset({2}), 0.1, 0.7)
    intervals = [(0.0, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, math.inf)]
    grid = [1000, 30, 20_000, 3, 1000]
    rows = ldp_scan(system, g, grid, intervals, DELTA1)
    assert [r.X for r in rows] == [X for X in grid for _ in intervals]
    assert rows == [r for X in grid for r in ldp_scan(system, g, [X], intervals, DELTA1)]


def test_ldp_scan_validation():
    with pytest.raises(ParameterError):
        ldp_scan(Integers(), Omega(), [100], [(1.0, 1.0)], DELTA1)
    with pytest.raises(ParameterError):
        ldp_scan(Integers(), Omega(), [2], [(0.0, 1.0)], DELTA1)


def test_condition_sweep_integers_passes():
    rep = condition_sweep(Integers(), Omega(), DELTA1, [100, 1000, 10_000, 100_000], [0.5, 1.0])
    assert rep.overall == "PASS"
    assert rep.density["flag"] == "PASS"
    assert rep.density["status"] == "EXACT"
    assert rep.prime_count["flag"] == "PASS"
    assert rep.prime_count["max_ratio"] < 2.0
    assert rep.mertens["flag"] == "PASS"
    # rho_X for omega is exactly delta_1, so every deviation vanishes
    assert rep.convergence["flag"] == "PASS"
    for row in rep.convergence["rows"]:
        assert all(d == 0.0 for _, d in row["deviations"])
    keys = set(dataclasses.asdict(rep))
    assert keys == {"overall", "density", "prime_count", "mertens", "convergence"}


def test_condition_sweep_convergence_is_zero_when_the_limit_matches():
    # rho_X for omega is delta_1 at every X: one deviation per (theta, X), each 0
    grid = [10, 100, 1000, 10_000]
    rows = condition_sweep(Integers(), Omega(), DELTA1, grid, [0.5, 1.0]).convergence["rows"]
    assert [r["theta"] for r in rows] == [0.5, 1.0]
    for r in rows:
        assert r["deviations"] == [[X, 0.0] for X in grid]
        assert r["ok"] is True


@pytest.mark.parametrize("system", [Integers(), QuadraticField(-4)], ids=lambda s: s.key)
def test_condition_sweep_deviations_are_the_moment_gaps(system):
    g = NormResidue(4, frozenset({1}), 2.0, 0.5)
    grid, thetas = [1000, 10_000, 30_000, 100_000], [-1.0, 0.5, 1.0]
    rep = condition_sweep(system, g, DELTA1, grid, thetas)
    norms = prime_norms(system, grid[-1])
    rows = rep.convergence["rows"]
    assert [r["theta"] for r in rows] == thetas
    for theta, row in zip(thetas, rows):
        want = [abs(exp_moment(rho_X(norms, g, X), theta) - exp_moment(DELTA1, theta))
                for X in grid]
        assert row["deviations"] == [[X, d] for X, d in zip(grid, want)]
        assert row["ok"] == (want[-1] < want[0] or want[-1] < 1e-12)
    assert rep.convergence["flag"] == ("PASS" if all(r["ok"] for r in rows) else "WARN")


def test_condition_sweep_flags_sublinear_counting():
    rep = condition_sweep(Beurling((2, 2, 2)), Omega(), DELTA1,
                          [10, 100, 1000, 10_000], [1.0])
    assert rep.density["flag"] == "FAILED"
    assert rep.overall == "FAILED"


def test_condition_sweep_empty_system_propagates():
    with pytest.raises(EmptySystem):
        condition_sweep(Beurling(()), Omega(), DELTA1, [10, 100, 1000, 10_000], [1.0])


def test_condition_sweep_validation():
    with pytest.raises(ParameterError):
        condition_sweep(Integers(), Omega(), DELTA1, [], [1.0])
    with pytest.raises(ParameterError):
        condition_sweep(Integers(), Omega(), DELTA1, [100, 1000, 10_000, 100_000], [])
    with pytest.raises(ParameterError):
        condition_sweep(Integers(), Omega(), DELTA1, [2, 10, 100, 1000], [1.0])


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_condition_sweep_refuses_a_non_finite_theta_before_it_builds_anything(monkeypatch, theta):
    def build(*args):
        raise AssertionError("condition_sweep built something before checking theta")

    monkeypatch.setattr(experiments, "density_fit", build)
    monkeypatch.setattr(experiments, "prime_norms", build)
    with pytest.raises(ParameterError, match="every theta must be finite"):
        condition_sweep(Integers(), Omega(), DELTA1, [1000, 10**5, 10**6, 3 * 10**7], [1.0, theta])


def test_gap_sweep_trend():
    rep = gap_sweep(Integers(), Omega(), [100, 1000], 5.0, 1.0)
    assert rep.trend == "PASS"
    assert rep.rows[0].gap == pytest.approx(0.2498300998191425, rel=1e-12)
    assert rep.rows[1].gap < rep.rows[0].gap


def test_gap_sweep_flat_at_theta_zero():
    rep = gap_sweep(Integers(), Omega(), [100, 1000], 5.0, 0.0)
    assert all(r.gap == 0.0 for r in rep.rows)
    assert rep.trend == "WARN"  # zero gaps cannot strictly decrease


@pytest.mark.parametrize("system", [Integers(), QuadraticField(-4), PolyOverFq(3),
                                    Beurling((2, 2, 3, 5, 5, 7))], ids=lambda s: s.key)
@pytest.mark.parametrize("theta", [1.0, 3000.0])  # 3000: the log-space rows
def test_gap_sweep_rows_are_gap_components(system, theta):
    # the sweep reads every row off one counter built at its largest X; a
    # one-point sweep builds its own at each X
    g, grid = NormResidue(4, frozenset({1}), 1.0, 0.25), [100, 729, 5000, 20000]
    rows = gap_sweep(system, g, grid, 5.0, theta).rows
    assert rows == tuple(gap_sweep(system, g, [X], 5.0, theta).rows[0] for X in grid)
    assert all(r.log_space == (theta > 1.0) for r in rows)


def test_gap_sweep_validation():
    with pytest.raises(ParameterError):
        gap_sweep(Integers(), Omega(), [100, 100], 5.0, 1.0)
    with pytest.raises(ParameterError, match="nonempty"):
        gap_sweep(Integers(), Omega(), [], 5.0, 1.0)

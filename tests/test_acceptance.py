"""Acceptance suite: one test per numbered contract criterion.

Each test prints the measured quantities it gates on, so the -v line is the
pass/fail record and the printed values are the regression trail. Everything
asserted here is either an exact identity, an oracle comparison, or a
monotone trend; no asymptotic closeness is claimed at finite X.
"""
import itertools
import math
import time
from fractions import Fraction

import numpy as np

from monoidldp.additive import DiscreteMeasure, Omega
from monoidldp.cli import main
from monoidldp.exact import domination_report, expect_Z
from monoidldp.experiments import ek_report, gap_sweep, ldp_scan
from monoidldp.gfpoly import necklace_count
from monoidldp.monoid import enumerate_monoid
from monoidldp.rate import rate, rate_closed_form_omega
from monoidldp.systems import (
    Beurling,
    Integers,
    PolyOverFq,
    QuadraticField,
    density_fit,
    list_primes,
    mertens_sum,
    prime_norms,
)

DELTA1 = DiscreteMeasure.delta(1.0)


def test_criterion_01_rate_matches_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        x = 0.1 + i * (5.0 - 0.1) / 49
        worst = max(worst, abs(rate(DELTA1, x).I - rate_closed_form_omega(x)))
    assert worst < 1e-8
    assert rate(DELTA1, -1.0).I == math.inf
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1: max|I - closed form| = {worst:.3e} over 50 points, "
          f"{elapsed:.3f}s")


def test_criterion_02_expect_z_equals_brute_scan():
    t0 = time.perf_counter()
    system = Integers()
    checked = 0
    for X in (10, 100, 1000):
        norms = prime_norms(system, X).tolist()

        def tuples(i0, prod, picked):
            for i in range(i0, len(norms)):
                p = prod * norms[i]
                if p > X:
                    break  # norms ascend, no later index fits either
                tup = picked + (norms[i],)
                yield p, tup
                if len(tup) < 3:
                    yield from tuples(i + 1, p, tup)

        for prod, tup in tuples(0, 1, ()):
            hits = sum(1 for m in range(1, X + 1) if m % prod == 0)
            assert expect_Z(system, X, tup) == Fraction(hits, X)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 2: {checked} tuples exact across X in (10, 100, 1000), "
          f"{elapsed:.3f}s")


def test_criterion_03_domination_constants():
    rep_int = domination_report(Integers(), 100, 3)
    assert rep_int.M_observed == 1.0
    rep_beu = domination_report(Beurling((2, 3)), 12, 2)
    assert rep_beu.M_observed == 1.5
    assert rep_beu.witness_norms == (2, 3)
    print(f"criterion 3: integers M={rep_int.M_observed}, "
          f"beurling(2,3) M={rep_beu.M_observed} "
          f"witness={list(rep_beu.witness_norms)}")


def test_criterion_04_mertens_sum_and_stability():
    t0 = time.perf_counter()
    total, _ = mertens_sum(prime_norms(Integers(), 100), 100)
    direct = sum(1 / p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83,
                                 89, 97))
    assert abs(total - direct) < 1e-12
    assert abs(total - 1.802817) < 1e-5
    norms = prime_norms(Integers(), 10**6)
    _, dev5 = mertens_sum(norms, 10**5)
    _, dev6 = mertens_sum(norms, 10**6)
    step = abs(dev6 - dev5)
    assert step < 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 4: sum(1/p, p<=100) = {total:.9f}, "
          f"|dev(1e6) - dev(1e5)| = {step:.6f}, {elapsed:.2f}s")


def test_criterion_05_gap_strictly_decreasing():
    t0 = time.perf_counter()
    grid = [10**3, 10**4, 10**5, 10**6]
    rep = gap_sweep(Integers(), Omega(), grid, 5.0, 1.0)
    gaps = [r.gap for r in rep.rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert rep.trend == "PASS"
    rep0 = gap_sweep(Integers(), Omega(), grid, 5.0, 0.0)
    assert all(r.gap == 0.0 for r in rep0.rows)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 5: gaps = {[f'{g:.3e}' for g in gaps]}, "
          f"all exactly 0 at theta=0, {elapsed:.2f}s")


def test_criterion_06_mean_omega_identity():
    cases = [
        (Integers(), 10**4, Fraction(243, 100)),
        (PolyOverFq(2), 2**10, Fraction(4852, 2047)),
        (Beurling((2, 3, 5, 7, 11)), 10**4, Fraction(467, 174)),
    ]
    shown = []
    for system, X, frozen in cases:
        table = enumerate_monoid(system, X, Omega())
        mean = Fraction(int(table.omega.sum(dtype=np.int64)), table.count)
        per_prime = sum(
            (expect_Z(system, X, [n]) for n in prime_norms(system, X).tolist()),
            Fraction(0),
        )
        assert mean == per_prime == frozen
        shown.append(f"{system.key}: {mean}")
    print("criterion 6: " + "; ".join(shown))


def test_criterion_07_ek_distance_trend_and_baseline():
    t0 = time.perf_counter()
    d4 = ek_report(Integers(), 10**4).ks_distance
    d6 = ek_report(Integers(), 10**6).ks_distance
    assert d6 < d4
    assert d6 < 0.12
    # regression baseline; recorded value, not an asymptotic claim
    assert abs(d6 - 0.099018449121748) < 1e-9
    assert abs(d4 - 0.099978352969690) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 7: KS(1e4) = {d4:.15f}, KS(1e6) = {d6:.15f}, "
          f"{elapsed:.2f}s")


def _poly_divides(q, a, b):
    """Does monic a divide monic b over F_q? Coefficients low to high."""
    r = list(b)
    da = len(a) - 1
    for shift in range(len(b) - len(a), -1, -1):
        c = r[shift + da]
        if c:
            for i, ai in enumerate(a):
                r[shift + i] = (r[shift + i] - c * ai) % q
    return all(v == 0 for v in r[:da])


def _brute_irreducible_count(q, d):
    def monics(deg):
        for low in itertools.product(range(q), repeat=deg):
            yield low + (1,)

    divisors = [a for dd in range(1, d // 2 + 1) for a in monics(dd)]
    return sum(
        1 for b in monics(d) if not any(_poly_divides(q, a, b) for a in divisors)
    )


def test_criterion_08_counting_oracles():
    for q in (2, 3):
        per_degree = {}
        for n in list_primes(PolyOverFq(q), q**6)[0].tolist():
            d = round(math.log(n, q))
            per_degree[d] = per_degree.get(d, 0) + 1
        for d in range(1, 7):
            brute = _brute_irreducible_count(q, d)
            assert brute == necklace_count(q, d) == per_degree[d]
    fit = density_fit(QuadraticField(-4), [100, 1000, 10**4, 10**5])
    err = abs(fit.a_hat - math.pi / 4)
    assert err < 0.01
    print(f"criterion 8: irreducible counts match for q in (2,3) deg <= 6; "
          f"quad(-4) a_hat = {fit.a_hat:.6f}, |a_hat - pi/4| = {err:.6f}")


def test_criterion_09_ldp_tail_exactness():
    ll = math.log(math.log(10))
    (row,) = ldp_scan(Integers(), Omega(), [10], [(2 / ll, math.inf)], DELTA1)
    assert row.tail_prob == Fraction(2, 10)
    intervals = [(0.0, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, math.inf)]
    rows = ldp_scan(Integers(), Omega(), [10**4], intervals, DELTA1)
    total = sum(r.tail_prob for r in rows)
    assert total == 1
    print(f"criterion 9: P[omega >= 2] = {row.tail_prob} at X=10, "
          f"partition mass = {total} at X=1e4")


CLI_RUNS = [
    ["primes"],
    ["count"],
    ["density"],
    ["mertens"],
    ["expect", "--primes", "2,3"],
    ["dominate"],
    ["mgf-gap"],
    ["tail-mass"],
    ["rate"],
    ["ek"],
    ["ldp-scan"],
    ["sweep"],
]


def test_criterion_10_cli_runs_thread_invariant(tmp_path):
    for args in CLI_RUNS:
        name = args[0]
        d1 = tmp_path / name / "t1"
        d8 = tmp_path / name / "t8"
        c1 = main(args + ["--threads", "1", "--out", str(d1)])
        c8 = main(args + ["--threads", "8", "--out", str(d8)])
        assert c1 == c8 == 0, f"{name}: exit codes {c1} vs {c8}"
        files1 = sorted(p.name for p in d1.iterdir())
        files8 = sorted(p.name for p in d8.iterdir())
        assert files1 == files8 and files1, f"{name}: file sets differ"
        for fname in files1:
            b1 = (d1 / fname).read_bytes()
            b8 = (d8 / fname).read_bytes()
            assert b1 == b8, f"{name}/{fname}: bytes differ between thread counts"
    print(f"criterion 10: {len(CLI_RUNS)} subcommands byte-identical "
          f"across --threads 1 and 8")

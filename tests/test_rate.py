"""Legendre-Fenchel rate transform vs closed forms and a golden-section oracle."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from monoidldp.additive import DiscreteMeasure
from monoidldp.errors import ParameterError
from monoidldp.rate import (
    lambda_of_theta,
    lambda_prime,
    rate,
    rate_closed_form_omega,
    rate_profile,
)

DELTA1 = DiscreteMeasure.delta(1.0)


def test_delta1_examples():
    assert rate(DELTA1, 1.0).I == pytest.approx(0.0, abs=1e-12)
    assert rate(DELTA1, 1.0).theta_star == pytest.approx(0.0, abs=1e-12)
    assert rate(DELTA1, 0.5).I == pytest.approx(0.5 * math.log(0.5) - 0.5 + 1, abs=1e-10)
    assert rate(DELTA1, 0.5).I == pytest.approx(0.153426409720027, abs=1e-10)
    p2 = rate(DELTA1, 2.0)
    assert p2.I == pytest.approx(2 * math.log(2) - 1, abs=1e-10)
    assert p2.theta_star == pytest.approx(math.log(2), abs=1e-10)
    assert p2.status == "converged"


def test_delta1_boundaries():
    at0 = rate(DELTA1, 0.0)
    assert at0.I == 1.0
    assert at0.status == "saturated-left"
    assert at0.theta_star is None
    below = rate(DELTA1, -0.5)
    assert below.I == math.inf
    assert below.status == "infinite"


def test_delta1_closed_form_across_grid():
    for i in range(50):
        x = 0.1 + i * (5.0 - 0.1) / 49
        assert abs(rate(DELTA1, x).I - rate_closed_form_omega(x)) < 1e-8
    assert rate_closed_form_omega(0.0) == 1.0
    assert rate_closed_form_omega(-1.0) == math.inf


def test_delta0_degenerate():
    d0 = DiscreteMeasure.delta(0.0)
    assert rate(d0, 0.0).I == 0.0
    assert rate(d0, 0.5).I == math.inf


def test_half_half_closed_form():
    # rho = (delta_0 + delta_1)/2: Lambda(t) = (e^t - 1)/2, so for x in (0, 1/2]
    # theta* = log(2x) and I(x) = x log(2x) - x + 1/2
    rho = DiscreteMeasure(((0.0, 0.5), (1.0, 0.5)))
    for x in (0.1, 0.25, 0.5, 1.0, 2.0):
        p = rate(rho, x)
        assert p.I == pytest.approx(x * math.log(2 * x) - x + 0.5, abs=1e-10)
        assert p.theta_star == pytest.approx(math.log(2 * x), abs=1e-9)


def _golden_section_sup(rho, x, lo=-60.0, hi=60.0, tol=1e-12):
    f = lambda t: t * x - lambda_of_theta(rho, t)
    inv = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - inv * (b - a), a + inv * (b - a)
    while b - a > tol:
        if f(c) > f(d):
            b, d = d, c
            c = b - inv * (b - a)
        else:
            a, c = c, d
            d = a + inv * (b - a)
    m = 0.5 * (a + b)
    return f(m)


def test_three_atom_measure_against_golden_section():
    rho = DiscreteMeasure(((0.5, 0.4), (1.0, 0.3), (2.0, 0.3)))
    for x in (0.3, 0.8, rho.mean, 1.5, 3.0):
        assert rate(rho, x).I == pytest.approx(_golden_section_sup(rho, x), abs=1e-6)


def test_rate_zero_at_mean():
    for rho in (DELTA1,
                DiscreteMeasure(((0.5, 0.4), (1.0, 0.3), (2.0, 0.3))),
                DiscreteMeasure(((0.0, 0.25), (0.5, 0.5), (3.0, 0.25)))):
        p = rate(rho, rho.mean)
        assert p.I == pytest.approx(0.0, abs=1e-10)
        assert p.theta_star == pytest.approx(0.0, abs=1e-8)


def test_duality_probes():
    # I(x) >= theta x - Lambda(theta) for every probe theta, with equality
    # within tolerance at theta*
    rho = DiscreteMeasure(((0.5, 0.4), (1.0, 0.3), (2.0, 0.3)))
    for x in (0.4, 1.0, 2.5):
        p = rate(rho, x)
        for theta in (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            assert p.I >= theta * x - lambda_of_theta(rho, theta) - 1e-10
        assert p.I == pytest.approx(
            p.theta_star * x - lambda_of_theta(rho, p.theta_star), abs=1e-12)


def test_negative_support_rejected():
    with pytest.raises(ParameterError):
        rate(DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5))), 1.0)


def test_lambda_prime_is_slope():
    rho = DiscreteMeasure(((0.5, 0.4), (1.0, 0.3), (2.0, 0.3)))
    h = 1e-6
    for theta in (-1.0, 0.0, 0.7):
        fd = (lambda_of_theta(rho, theta + h) - lambda_of_theta(rho, theta - h)) / (2 * h)
        assert lambda_prime(rho, theta) == pytest.approx(fd, rel=1e-6)


def test_rate_profile_statuses():
    rho = DELTA1
    grid = [-1.0, 0.0, 0.5, 1.0, 2.0]
    prof = rate_profile(rho, grid)
    assert prof.statuses == ("infinite", "saturated-left", "converged",
                             "converged", "converged")
    assert prof.I_values[0] == math.inf
    assert prof.I_values[1] == 1.0
    with pytest.raises(ParameterError):
        rate_profile(rho, [1.0, 0.5])


@given(st.floats(-4, 4), st.floats(-4, 4))
@settings(max_examples=80, deadline=None)
def test_lambda_midpoint_convex(t1, t2):
    rho = DiscreteMeasure(((0.0, 0.2), (0.5, 0.3), (2.0, 0.5)))
    mid = lambda_of_theta(rho, (t1 + t2) / 2)
    avg = (lambda_of_theta(rho, t1) + lambda_of_theta(rho, t2)) / 2
    assert mid <= avg + 1e-9 * (1 + abs(avg))


@given(st.floats(0.05, 3.0), st.floats(0.05, 3.0))
@settings(max_examples=50, deadline=None)
def test_rate_midpoint_convex(x1, x2):
    rho = DiscreteMeasure(((0.5, 0.4), (1.0, 0.3), (2.0, 0.3)))
    mid = rate(rho, (x1 + x2) / 2).I
    avg = (rate(rho, x1).I + rate(rho, x2).I) / 2
    assert mid <= avg + 1e-8 * (1 + abs(avg))

"""The scaled cumulant generating function and its Legendre-Fenchel transform.

For a finite discrete measure rho supported on [0, inf),

    Lambda(theta) = sum w (e^(theta y) - 1),
    I(x) = sup_theta (theta x - Lambda(theta)).

Lambda' is strictly increasing from 0 to infinity whenever rho has a
positive atom, so the supremum for x > 0 is found by solving
Lambda'(theta) = x with a safeguarded Newton iteration: a bracket
[lo, hi] with Lambda'(lo) < x < Lambda'(hi) is grown geometrically from
[-1, 1], every Newton step is confined to the bracket, and any step that
leaves it (or hits a non-finite derivative) is replaced by bisection.

Boundary behavior is handled analytically. For x < 0 the linear term theta*x
dominates as theta -> -inf and I = +inf. For x = 0 the supremum is the limit
of -Lambda(theta) as theta -> -inf, the total weight of the positive atoms;
with rho = delta_1 this is the closed-form value I(0) = 1 of the reference
rate x log x - x + 1. Measures with atoms of both signs are out of scope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .additive import DiscreteMeasure
from .errors import NoConvergence, ParameterError

_MAX_ITER = 200


def _exp(t: float) -> float:
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def _expm1(t: float) -> float:
    try:
        return math.expm1(t)
    except OverflowError:
        return math.inf


def lambda_of_theta(rho: DiscreteMeasure, theta: float) -> float:
    """Lambda(theta) = integral of (e^(theta y) - 1) d rho; Lambda(0) = 0."""
    return math.fsum(w * _expm1(theta * y) for y, w in rho.atoms)


def lambda_prime(rho: DiscreteMeasure, theta: float) -> float:
    return math.fsum(w * y * _exp(theta * y) for y, w in rho.atoms)


def _lambda_second(rho: DiscreteMeasure, theta: float) -> float:
    return math.fsum(w * y * y * _exp(theta * y) for y, w in rho.atoms)


def _require_nonnegative_support(rho: DiscreteMeasure) -> None:
    if rho.atoms[0][0] < 0:
        raise ParameterError(
            "rate transform supports measures on [0, inf) only; "
            f"got an atom at {rho.atoms[0][0]}"
        )


@dataclass(frozen=True)
class RatePoint:
    I: float
    theta_star: float | None
    iters: int
    status: str  # converged | saturated-left | infinite


def rate(rho: DiscreteMeasure, x: float) -> RatePoint:
    """I(x) with the maximizing theta when one exists.

    status is "converged" when Lambda'(theta*) = x was solved, "infinite"
    when I = +inf (x outside the closure of Lambda's slope range), and
    "saturated-left" at x = 0 where the supremum is a theta -> -inf limit.
    """
    _require_nonnegative_support(rho)
    positive_mass = math.fsum(w for y, w in rho.atoms if y > 0)
    if x < 0:
        return RatePoint(math.inf, None, 0, "infinite")
    if positive_mass == 0.0:
        # rho = delta_0: Lambda is identically 0
        if x == 0:
            return RatePoint(0.0, 0.0, 0, "converged")
        return RatePoint(math.inf, None, 0, "infinite")
    if x == 0:
        return RatePoint(positive_mass, None, 0, "saturated-left")

    tol = 1e-12 * max(1.0, abs(x))
    lo, hi = -1.0, 1.0
    for _ in range(_MAX_ITER):
        if lambda_prime(rho, lo) < x:
            break
        hi = lo
        lo *= 2.0
    else:
        raise NoConvergence("bracket expansion failed on the left", bracket=(lo, hi))
    for _ in range(_MAX_ITER):
        if lambda_prime(rho, hi) > x:
            break
        lo = hi
        hi *= 2.0
    else:
        raise NoConvergence("bracket expansion failed on the right", bracket=(lo, hi))

    theta = min(max(0.0, lo), hi)  # Newton start, confined to the bracket
    for it in range(1, _MAX_ITER + 1):
        fp = lambda_prime(rho, theta) - x
        if abs(fp) <= tol:
            return RatePoint(theta * x - lambda_of_theta(rho, theta), theta, it, "converged")
        if fp > 0:
            hi = theta
        else:
            lo = theta
        second = _lambda_second(rho, theta)
        cand = theta - fp / second if math.isfinite(fp) and second > 0 else math.nan
        if not math.isfinite(cand) or not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        theta = cand
    raise NoConvergence(
        f"Newton hit the {_MAX_ITER}-iteration cap at x={x}", bracket=(lo, hi)
    )


def rate_closed_form_omega(x: float) -> float:
    """x log x - x + 1 on [0, inf) with 0 log 0 = 0; +inf below 0."""
    if x < 0:
        return math.inf
    if x == 0:
        return 1.0
    return x * math.log(x) - x + 1.0


@dataclass(frozen=True)
class RateProfile:
    measure: DiscreteMeasure
    x_grid: tuple[float, ...]
    I_values: tuple[float, ...]
    theta_stars: tuple[float | None, ...]
    solver_iters: tuple[int, ...]
    statuses: tuple[str, ...]


def rate_profile(rho: DiscreteMeasure, x_grid: Sequence[float]) -> RateProfile:
    """rate() over a sorted grid; per-point failures are recorded, not fatal."""
    xs = [float(x) for x in x_grid]
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise ParameterError("x_grid must be sorted ascending")

    def solve(x: float) -> RatePoint:
        try:
            return rate(rho, x)
        except NoConvergence:
            return RatePoint(math.nan, None, _MAX_ITER, "no-convergence")

    points = [solve(x) for x in xs]
    return RateProfile(
        rho,
        tuple(xs),
        tuple(p.I for p in points),
        tuple(p.theta_star for p in points),
        tuple(p.iters for p in points),
        tuple(p.status for p in points),
    )

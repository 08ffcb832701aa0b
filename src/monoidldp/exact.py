"""Exact divisor-indicator expectations and their Bernoulli surrogates.

Z_p is the indicator that the prime p divides a uniformly chosen monoid
element of norm <= X; Y_p is an independent Bernoulli(1/N(p)) surrogate.
For distinct primes the expectation of a Z-product is exactly

    count(floor(X / prod N(p_i))) / count(X),

a ratio of element counts, because the elements divisible by all the p_i
are those of the form m * prod p_i with N(m) below the floored threshold.
The Y-product expectation is 1 / prod N(p_i). Their ratio is bounded by a
constant M, observed here by exhaustive tuple search.

Truncation keeps one set of primes: B, those with N(p) <= k_X =
X^(1/(log log X)^2) and |g(p)| <= C. Only B is built, as labelled entries
from the primes up to k_X; the large primes and those with |g(p)| > C are
never listed. Over B both moment generating functions are cheap to compute
exactly, and their gap is the quantity that the coupling argument drives to
zero as X grows; tail_mass is the integral over |g(p)| > C against the
empirical measure rho_X, read from prime_norms and g.values.

The Z-side MGF needs no table of elements. For S a set of primes of B with
N(S) = prod N(p) <= X, d_S = count(floor(X / N(S))) elements are divisible
by all of S, and c_S = sum over T containing S of (-1)^(|T| - |S|) d_T
(superset Moebius inversion) counts, exactly, those whose primes from B are
exactly S. So mgf_Z = sum_S c_S exp(theta g_S) / count(X), each term >= 0
for either sign of theta: the finite Kubilius model (Elliott, 1979).
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .additive import AdditiveFunction, moment_overflow
from .errors import (
    BudgetExceeded,
    EmptySystem,
    MgfOverflow,
    ParameterError,
    PrimeNotInSystem,
)
from .monoid import element_counter
from .systems import PrimeEntry, PrimeSystem, list_primes, prime_norms

# product flagged as overflowing once it exceeds 1e300
_LOG_OVERFLOW = 300.0 * math.log(10.0)
# the domination search's cap on tuples examined
_MAX_TUPLES = 10_000_000


@dataclass(frozen=True)
class ExactExpectation:
    value: Fraction

    @property
    def float_value(self) -> float:
        return float(self.value)


def _check_membership(system: PrimeSystem, X: int, primes: Sequence[PrimeEntry]) -> None:
    if len(set(primes)) != len(primes):
        raise ParameterError("prime tuple entries must be distinct")
    # by prefix stability, the primes up to the largest norm asked suffice
    top = max([1, *(p.norm for p in primes)])
    entries = list_primes(system, min(X, top))  # sorted as PrimeEntry orders
    for p in primes:
        i = bisect.bisect_left(entries, p)
        if i == len(entries) or entries[i] != p:
            raise PrimeNotInSystem(f"{p!r} is not a prime of the system with norm <= {X}")


def expect_Z(system: PrimeSystem, X: int, primes: Sequence[PrimeEntry]) -> ExactExpectation:
    """E[prod Z_p] over the uniform element of norm <= X, exact rational."""
    if X < 1:
        raise ParameterError(f"X must be >= 1, got {X}")
    _check_membership(system, X, primes)
    product = math.prod(p.norm for p in primes)
    if product > X:
        return ExactExpectation(Fraction(0))
    count = element_counter(system, X)
    return ExactExpectation(Fraction(count(X // product), count(X)))


def expect_Y(primes: Sequence[PrimeEntry]) -> ExactExpectation:
    """E[prod Y_p] = 1 / prod N(p); exact rational."""
    if len(set(primes)) != len(primes):
        raise ParameterError("prime tuple entries must be distinct")
    return ExactExpectation(Fraction(1, math.prod(p.norm for p in primes)))


@dataclass(frozen=True)
class DominationReport:
    X: int
    k_max: int
    M_observed: float
    M_exact: Fraction
    witness: tuple[PrimeEntry, ...]
    tuples_examined: int


def domination_report(system: PrimeSystem, X: int, k_max: int) -> DominationReport:
    """Largest observed expect_Z / expect_Y over distinct-prime tuples.

    Only tuples with norm product <= X are enumerated; larger products give
    expect_Z = 0 and cannot attain the maximum. Ties keep the first witness
    in depth-first (index-lexicographic) order.
    """
    if k_max < 1:
        raise ParameterError(f"k_max must be >= 1, got {k_max}")
    norms = prime_norms(system, X).tolist()
    count = element_counter(system, X)
    cx = count(X)
    best = Fraction(0)
    witness: tuple[int, ...] = ()  # indices into norms
    examined = 0

    def rec(i0: int, prod: int, picked: tuple[int, ...]) -> None:
        nonlocal best, witness, examined
        for i in range(i0, len(norms)):
            p = prod * norms[i]
            if p > X:
                break  # norms ascend
            examined += 1
            if examined > _MAX_TUPLES:
                raise BudgetExceeded(
                    f"domination search exceeds {_MAX_TUPLES} tuples",
                    predicted=examined, cap=_MAX_TUPLES,
                )
            tup = picked + (i,)
            # ratio = expect_Z / expect_Y = count(X // p) * p / count(X)
            ratio = Fraction(count(X // p) * p, cx)
            if ratio > best:
                best, witness = ratio, tup
            if len(tup) < k_max:
                rec(i + 1, p, tup)

    rec(0, 1, ())
    # labels only for the witness: by prefix stability and the shared
    # (norm, label) order, index i is the same prime in both lists
    entries = list_primes(system, norms[witness[-1]]) if witness else ()
    return DominationReport(X, k_max, float(best), best,
                            tuple(entries[i] for i in witness), examined)


@dataclass(frozen=True)
class TruncationSets:
    X: int
    C: float
    k_X: float
    B: tuple[PrimeEntry, ...]


def truncation_threshold(X: int) -> float:
    """k_X = X^(1/(log log X)^2)."""
    if X < 16:
        raise ParameterError(f"truncation needs X >= 16, got {X}")
    return math.exp(math.log(X) / math.log(math.log(X)) ** 2)


def truncation_sets(
    system: PrimeSystem, g: AdditiveFunction, X: int, C: float
) -> TruncationSets:
    """B: the primes with N(p) <= k_X and |g(p)| <= C, in list_primes order.

    The boundary N(p) = k_X belongs to B, so the B-side MGF comparison
    includes the boundary prime; any fixed rule works, this one is pinned
    for determinism. Norms are integers, so these are the primes up to
    floor(k_X), a prefix of the primes up to X.
    """
    k_X = truncation_threshold(X)
    entries = list_primes(system, math.floor(k_X))
    big = (np.abs(_g_values(g, entries)) > C).tolist()
    return TruncationSets(X, C, k_X, tuple(e for e, b in zip(entries, big) if not b))


def _g_values(g: AdditiveFunction, subset: Sequence[PrimeEntry]) -> np.ndarray:
    """g.values over the norms of the subset, in its order."""
    return g.values(np.array([e.norm for e in subset], dtype=np.int64))


def log_mgf_Y(subset: Sequence[PrimeEntry], g: AdditiveFunction, theta: float) -> float:
    """log E[exp(theta sum g(p) Y_p)] = sum log(1 + (e^(theta g(p)) - 1)/N(p))."""
    return math.fsum(_log_bernoulli_mgf(theta * y, e.norm)
                     for y, e in zip(_g_values(g, subset).tolist(), subset))


def _log_bernoulli_mgf(t: float, N: int) -> float:
    """log(1 + (e^t - 1)/N). e^t overflows past t = 709.78, so from t = 700 on
    the term is t + log1p((N - 1) e^-t) - log N, the same value rewritten."""
    if t < 700.0:
        return math.log1p(math.expm1(t) / N)
    return t + math.log1p((N - 1) * math.exp(-t)) - math.log(N)


def mgf_Y(subset: Sequence[PrimeEntry], g: AdditiveFunction, theta: float) -> float:
    """Product of (1 + (e^(theta g(p)) - 1)/N(p)) over the subset.

    With g >= 0 the partial products are monotone in theta's sign, so the
    product overflows 1e300 only if the full log does; that case raises
    MgfOverflow carrying the log-space value.
    """
    lm = log_mgf_Y(subset, g, theta)
    if lm > _LOG_OVERFLOW:
        raise MgfOverflow(f"mgf_Y exceeds 1e300 (log value {lm:.6g})", log_value=lm)
    return math.exp(lm)


def _support_counts(
    system: PrimeSystem, X: int, subset: Sequence[PrimeEntry], g: AdditiveFunction
) -> tuple[int, list[tuple[int, float]]]:
    """count(X) and (c_S, g_S) per S with N(S) <= X (module docstring); g_S
    adds g over S in the subset's ascending order, as a table's gsum would."""
    count = element_counter(system, X)
    sets = {0: (1, 0.0)}  # bitmask over subset indices -> (N(S), g_S)
    for i, (p, gp) in enumerate(zip(subset, _g_values(g, subset).tolist())):
        for mask, (n, gs) in list(sets.items()):
            if n * p.norm <= X:
                sets[mask | 1 << i] = (n * p.norm, gp + gs)
    # d_S = count(X // N(S)), then the superset Moebius transform in place
    c = {mask: count(X // n) for mask, (n, _) in sets.items()}
    for i in range(len(subset)):
        bit = 1 << i
        for mask in sets:
            if mask & bit:
                c[mask ^ bit] -= c[mask]
    return count(X), [(c[mask], gs) for mask, (_, gs) in sets.items()]


def mgf_Z(system: PrimeSystem, X: int, subset: Sequence[PrimeEntry],
          g: AdditiveFunction, theta: float) -> float:
    """Exact mean of exp(theta * sum_{p in subset, p | m} g(p)) over the
    elements m of norm <= X; MgfOverflow if it overflows a double."""
    _check_membership(system, X, subset)
    count, support = _support_counts(system, X, subset, g)
    try:
        return math.fsum(c * math.exp(theta * gs) for c, gs in support) / count
    except OverflowError:
        lm = log_mgf_Z(system, X, subset, g, theta)
        raise MgfOverflow(f"mgf_Z overflows (log value {lm:.6g})", log_value=lm) from None


def log_mgf_Z(system: PrimeSystem, X: int, subset: Sequence[PrimeEntry],
              g: AdditiveFunction, theta: float) -> float:
    """Log-space mgf_Z via a stable log-sum-exp; for overflowing thetas."""
    _check_membership(system, X, subset)
    count, support = _support_counts(system, X, subset, g)
    w = [theta * gs for _, gs in support]
    peak = max(w)
    total = math.fsum(c * math.exp(t - peak) for (c, _), t in zip(support, w))
    return peak + math.log(total) - math.log(count)


@dataclass(frozen=True)
class GapComponents:
    X: int
    C: float
    theta: float
    k_X: float
    B_size: int
    mgf_Z: float
    mgf_Y: float
    gap: float
    log_space: bool


def gap_components(
    system: PrimeSystem,
    g: AdditiveFunction,
    X: int,
    C: float,
    theta: float,
) -> GapComponents:
    """Both B-side MGFs and their absolute difference.

    If the Y-side product overflows 1e300 the two sides are compared in log
    space instead and the row is flagged; the contract quantity is otherwise
    the plain absolute difference.
    """
    ts = truncation_sets(system, g, X, C)
    try:
        my = mgf_Y(ts.B, g, theta)
        mz = mgf_Z(system, X, ts.B, g, theta)
        return GapComponents(X, C, theta, ts.k_X, len(ts.B), mz, my, abs(mz - my), False)
    except MgfOverflow:
        ly = log_mgf_Y(ts.B, g, theta)
        lz = log_mgf_Z(system, X, ts.B, g, theta)
        return GapComponents(X, C, theta, ts.k_X, len(ts.B), lz, ly, abs(lz - ly), True)


def tail_mass(
    system: PrimeSystem, g: AdditiveFunction, X: int, C: float, theta: float
) -> float:
    """Integral of (e^(theta y) - 1) over y > C against rho_X."""
    if theta < 0:
        raise ParameterError(f"tail_mass needs theta >= 0, got {theta}")
    norms = prime_norms(system, X)
    if not norms.size:
        raise EmptySystem(f"no prime of norm <= {X}")
    den = math.fsum((1.0 / norms).tolist())
    vals = g.values(norms)
    big = vals > C
    tail = list(zip(vals[big].tolist(), norms[big].tolist()))
    try:
        num = math.fsum(math.expm1(theta * y) / n for y, n in tail)
    except OverflowError:
        raise moment_overflow("tail_mass", theta, (y for y, _ in tail)) from None
    return num / den

"""Exact divisor-indicator expectations and their Bernoulli surrogates.

Z_p is the indicator that the prime p divides a uniformly chosen monoid
element of norm <= X; Y_p is an independent Bernoulli(1/N(p)) surrogate.
For distinct primes the expectation of a Z-product is exactly

    count(floor(X / prod N(p_i))) / count(X),

a ratio of element counts, because the elements divisible by all the p_i
are those of the form m * prod p_i with N(m) below the floored threshold.
The counts come from monoid.element_counter, in closed form on every system
but Beurling, so no element is enumerated here and X may reach 1e12 there.
The Y-product expectation is 1 / prod N(p_i). Their ratio is bounded by a
constant M, observed here by exhaustive tuple search. Both read only the
norms, so a prime tuple is passed as its norms; a norm repeated k times
names k distinct primes of that norm.

Truncation keeps one set of primes: B, those with N(p) <= k_X =
X^(1/(log log X)^2) and |g(p)| <= C. Only B is built, as the norm array
of the primes up to k_X; the large primes and those with |g(p)| > C are
never listed. Over B both moment generating functions are cheap to compute
exactly, and their gap is the quantity that the coupling argument drives to
zero as X grows; tail_mass is the integral of e^(theta y) - 1 over the
atoms y > C of the empirical measure rho_X, which it reads from
additive.rho_X and nowhere else.

The Z-side MGF needs no table of elements. For S a set of primes of B with
N(S) = prod N(p) <= X, d_S = count(floor(X / N(S))) elements are divisible
by all of S, and c_S = sum over T containing S of (-1)^(|T| - |S|) d_T
(superset Moebius inversion) counts, exactly, those whose primes from B are
exactly S. So mgf_Z = sum_S c_S exp(theta g_S) / count(X), each term >= 0
for either sign of theta: the finite Kubilius model (Elliott, 1979).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .additive import AdditiveFunction, Omega, moment_overflow, rho_X
from .errors import BudgetExceeded, EmptySystem, ParameterError, PrimeNotInSystem
from .monoid import _pairs, _quotients, element_counter
from .systems import PrimeSystem, list_primes, prime_norms

# product flagged as overflowing once it exceeds 1e300
_LOG_OVERFLOW = 300.0 * math.log(10.0)
# the domination search's cap on tuples examined
_MAX_TUPLES = 10_000_000


def _check_norms(system: PrimeSystem, X: int, norms: Sequence[int],
                 primes: np.ndarray | None = None) -> None:
    """Raise PrimeNotInSystem unless each norm appears at most as often as
    the system has primes of that norm <= X.

    primes, when given, are the caller's prime_norms up to at least the
    smaller of X and the largest norm asked; else they are built here.
    """
    asked, times = np.unique(np.asarray(norms, dtype=np.int64), return_counts=True)
    if primes is None:
        # by prefix stability, the primes up to the largest norm asked suffice
        primes = prime_norms(system, min(X, max([1, *asked.tolist()])))
    have = primes[: primes.searchsorted(X, "right")]
    held = have.searchsorted(asked, "right") - have.searchsorted(asked, "left")
    for n, k, h in zip(asked.tolist(), times.tolist(), held.tolist()):
        if k > h:
            raise PrimeNotInSystem(
                f"{k} prime(s) of norm {n} asked; the system has {h} with norm <= {X}")


def expect_Z(system: PrimeSystem, X: int, norms: Sequence[int],
             primes: np.ndarray | None = None) -> Fraction:
    """E[prod Z_p] over the uniform element of norm <= X, exact rational.

    primes, when given, are the caller's prime_norms up to at least the
    smaller of X and the largest norm asked; the membership check reads
    them instead of building its own.
    """
    if X < 1:
        raise ParameterError(f"X must be >= 1, got {X}")
    _check_norms(system, X, norms, primes)
    product = math.prod(int(n) for n in norms)
    if product > X:
        return Fraction(0)
    count = element_counter(system, X)
    return Fraction(count(X // product), count(X))


def expect_Y(norms: Sequence[int]) -> Fraction:
    """E[prod Y_p] = 1 / prod N(p); exact rational."""
    return Fraction(1, math.prod(int(n) for n in norms))


@dataclass(frozen=True)
class DominationReport:
    X: int
    k_max: int
    M_observed: float
    M_exact: Fraction
    witness: tuple[str, ...]  # the witness primes' labels
    witness_norms: tuple[int, ...]
    tuples_examined: int


def domination_report(system: PrimeSystem, X: int, k_max: int) -> DominationReport:
    """Largest observed expect_Z / expect_Y over distinct-prime tuples.

    Only tuples with norm product <= X are enumerated; larger products give
    expect_Z = 0 and cannot attain the maximum. Ties keep the first witness
    in depth-first (index-lexicographic) order. Every ratio
    count(X // N) * N / count(X) shares the denominator count(X), so the
    search compares the integer numerators and builds one Fraction.

    The search runs one tuple length at a time. A level's tuples are the
    children of the previous level's: a parent (N, last index j) takes
    each prime i > j with N * p_i <= X. Of a level, only the tuples that
    can take a further prime (N <= X // p_(j+1)) and are shorter than
    k_max are kept, as (N, j, parent row); children are built and scored
    in the blocks of monoid._pairs, of at most _BLOCK_PAIRS, and dropped.
    The tuple cap is checked once per level, against the tuples examined
    so far plus the whole level, the lower bound that held before each of
    its blocks; a budget error reports it as predicted. A level's rows are
    in index-lexicographic order, so the first maximal row of a block is
    the first of its ties, and a tie between levels goes to the smaller
    index tuple, a prefix first, as in depth-first order.
    """
    if k_max < 1:
        raise ParameterError(f"k_max must be >= 1, got {k_max}")
    P = prime_norms(system, X)
    XP = _quotients(P, X)
    count = element_counter(system, X)
    best = 0  # the numerator of the largest ratio
    witness: tuple[int, ...] = ()  # indices into P
    examined = 0
    # the level being extended, (N, last index, parent row), first the
    # empty tuple; chain holds (last index, parent row) of every level above
    prod, last, up = np.ones(1, np.int64), np.full(1, -1, np.int64), np.zeros(1, np.int64)
    chain: list[tuple[np.ndarray, np.ndarray]] = []

    def path(i: int, r: int) -> tuple[int, ...]:
        """The index tuple of the child i of the level's row r."""
        tup = [i]
        for lasts, ups in reversed(chain):
            tup.append(int(lasts[r]))
            r = int(ups[r])
        return tuple(tup[::-1])

    for k in range(1, k_max + 1):
        if k > 1:
            chain.append((last, up))
        # per parent, the primes p_i with i > last and N * p_i <= X: one at
        # least, as a kept tuple passed that test, and none for the empty
        # tuple only when there is no prime
        counts = P.searchsorted(X // prod, "right") - (last + 1)
        # the tuples examined plus the rest of the level is the same lower
        # bound before every block of the level, so the cap is checked here
        at_least = examined + int(counts.sum())
        if at_least > _MAX_TUPLES:
            raise BudgetExceeded(
                f"domination search exceeds {_MAX_TUPLES} tuples",
                predicted=at_least, cap=_MAX_TUPLES,
            )
        kept = []
        for rows, take, i in _pairs(last + 1, counts):
            row = np.repeat(np.arange(rows.start, rows.stop), take)
            N = prod[row] * P[i]
            examined += N.size
            # expect_Z / expect_Y = count(X // N) * N / count(X), one count
            # per distinct X // N. count(y) is at most y (1 + log y) on every
            # system but Beurling, whose counts stay under the element cap,
            # 2e8; N <= X <= 1e8, the prime list's cap, so the numerator
            # stays far below 2^63
            at = X // N
            ys = np.unique(at)
            at = ys.searchsorted(at)
            score = np.array([count(y) for y in ys.tolist()], np.int64)[at]
            del at
            score *= N
            j = int(score.argmax())
            top = int(score[j])
            del score
            if top >= best:
                tup = path(int(i[j]), int(row[j]))
                if top > best or tup < witness:
                    best, witness = top, tup
            if k < k_max:
                grow = np.flatnonzero(N <= XP[i + 1])
                kept.append((N[grow], i[grow], row[grow]))
        if not kept:
            break
        prod, last, up = (np.concatenate(col) for col in zip(*kept))
    # labels only for the witness: by prefix stability and the shared
    # (norm, label) order, index i is the same prime in both lists
    labels = []
    if witness:
        lim = int(P[witness[-1]])
        labels = list_primes(system, lim, P[: P.searchsorted(lim, "right")])[1]
    M = Fraction(best, count(X))
    return DominationReport(X, k_max, float(M), M, tuple(labels[i] for i in witness),
                            tuple(int(P[i]) for i in witness), examined)


@dataclass(frozen=True)
class TruncationSets:
    X: int
    C: float
    k_X: float
    B: np.ndarray  # int64 norms, ascending, with multiplicity


def truncation_threshold(X: int) -> float:
    """k_X = X^(1/(log log X)^2)."""
    if X < 16:
        raise ParameterError(f"truncation needs X >= 16, got {X}")
    return math.exp(math.log(X) / math.log(math.log(X)) ** 2)


def truncation_sets(
    system: PrimeSystem, g: AdditiveFunction, X: int, C: float
) -> TruncationSets:
    """B: the norms of the primes with N(p) <= k_X and |g(p)| <= C.

    The boundary N(p) = k_X belongs to B, so the B-side MGF comparison
    includes the boundary prime; any fixed rule works, this one is pinned
    for determinism. Norms are integers, so these are the primes up to
    floor(k_X), a prefix of the primes up to X.
    """
    if math.isnan(C):  # +-inf is a valid cap
        raise ParameterError("the cap C must not be NaN")
    k_X = truncation_threshold(X)
    norms = prime_norms(system, math.floor(k_X))
    return TruncationSets(X, C, k_X, norms[np.abs(g.values(norms)) <= C])


def log_mgf_Y(norms: np.ndarray, g: AdditiveFunction, theta: float) -> float:
    """log E[exp(theta sum g(p) Y_p)] = sum log(1 + (e^(theta g(p)) - 1)/N(p))."""
    return math.fsum(_log_bernoulli_mgf(theta * y, n)
                     for y, n in zip(g.values(norms).tolist(), norms.tolist()))


def _log_bernoulli_mgf(t: float, N: int) -> float:
    """log(1 + (e^t - 1)/N). e^t overflows past t = 709.78, so from t = 700 on
    the term is t + log1p((N - 1) e^-t) - log N, the same value rewritten."""
    if t < 700.0:
        return math.log1p(math.expm1(t) / N)
    return t + math.log1p((N - 1) * math.exp(-t)) - math.log(N)


def _support_counts(
    count: Callable[[int], int], X: int, norms: np.ndarray, g: AdditiveFunction
) -> tuple[int, list[tuple[int, float]]]:
    """count(X) and (c_S, g_S) per S with N(S) <= X (module docstring); g_S
    is g at S's cell, as a table's gsum is (g.sums). count is an
    element_counter built at X or above."""
    inside = g.inside(norms)
    ins = [False] * len(norms) if inside is None else inside.tolist()
    # bitmask over indices into norms -> (N(S), |S|, primes of S in g's class)
    sets = {0: (1, 0, 0)}
    for i, (p, j) in enumerate(zip(norms.tolist(), ins)):
        for mask, (n, k, a) in list(sets.items()):
            if n * p <= X:
                sets[mask | 1 << i] = (n * p, k + 1, a + j)
    # d_S = count(X // N(S)), then the superset Moebius transform in place
    c = {mask: count(X // n) for mask, (n, _, _) in sets.items()}
    for i in range(len(norms)):
        bit = 1 << i
        for mask in sets:
            if mask & bit:
                c[mask ^ bit] -= c[mask]
    _, k, a = (np.array(col) for col in zip(*sets.values()))
    return count(X), list(zip([c[mask] for mask in sets], g.sums(k, a).tolist()))


def _mean_exp(total: int, support: list[tuple[int, float]], theta: float) -> float:
    """sum of c_S exp(theta g_S) / total; OverflowError if it overflows a double."""
    return math.fsum(c * math.exp(theta * gs) for c, gs in support) / total


def _log_mean_exp(total: int, support: list[tuple[int, float]], theta: float) -> float:
    """The log of _mean_exp. The c_S sum to total, so the mean is 1 plus
    the mean of c_S expm1(theta g_S), and log1p of that keeps the relative
    accuracy of a result near 0. Only where that sum overflows a double is
    it taken as a log-sum-exp shifted by the largest exponent."""
    w = [theta * gs for _, gs in support]
    try:
        excess = math.fsum(c * math.expm1(t) for (c, _), t in zip(support, w)) / total
    except OverflowError:
        excess = math.inf
    if math.isfinite(excess):
        return math.log1p(excess)
    peak = max(w)
    s = math.fsum(c * math.exp(t - peak) for (c, _), t in zip(support, w))
    return peak + math.log(s) - math.log(total)


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


def _gap_row(ts: TruncationSets, g: AdditiveFunction, theta: float,
             count: Callable[[int], int]) -> GapComponents:
    """Both MGFs over B = ts.B and their absolute difference, count being an
    element_counter built at ts.X or above; B holds primes of the system by
    construction. If mgf_Y exceeds 1e300 or mgf_Z overflows a double, the
    two sides are compared in log space instead and the row is flagged; the
    gap is otherwise the plain absolute difference."""
    total, support = _support_counts(count, ts.X, ts.B, g)
    head = (ts.X, ts.C, theta, ts.k_X, len(ts.B))
    ly = log_mgf_Y(ts.B, g, theta)
    if ly <= _LOG_OVERFLOW:  # else mgf_Y would exceed 1e300
        try:
            mz, my = _mean_exp(total, support, theta), math.exp(ly)
        except OverflowError:  # mgf_Z overflows a double
            pass
        else:
            return GapComponents(*head, mz, my, abs(mz - my), False)
    lz = _log_mean_exp(total, support, theta)
    return GapComponents(*head, lz, ly, abs(lz - ly), True)


def tail_mass(
    system: PrimeSystem, g: AdditiveFunction, X: int, C: float, theta: float
) -> float:
    """Integral of (e^(theta y) - 1) over y > C against rho_X."""
    if not 0 <= theta < math.inf:  # NaN fails both
        raise ParameterError(f"tail_mass needs a finite theta >= 0, got {theta}")
    if math.isnan(C):  # +-inf is a valid cap
        raise ParameterError("the cap C must not be NaN")
    norms = prime_norms(system, X)
    if not norms.size:
        raise EmptySystem(f"no prime of norm <= {X}")
    if (1.0 if isinstance(g, Omega) else max(g.value_in, g.value_out)) <= C:
        return 0.0  # no atom lies above the cap, whatever its weight
    atoms = [(y, w) for y, w in rho_X(norms, g, X).atoms if y > C]
    try:
        return math.fsum(w * math.expm1(theta * y) for y, w in atoms)
    except OverflowError:
        raise moment_overflow("tail_mass", theta, (y for y, _ in atoms)) from None

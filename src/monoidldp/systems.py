"""Prime systems: generators of prime norms satisfying the counting axioms.

A prime system produces, for any threshold X, the complete finite multiset
of primes of norm <= X, each of norm >= 2. Norms may repeat (distinct primes
of equal norm are distinct generators of the monoid). Every computation
reads the primes as prime_norms(system, X): an int64 array, ascending, with
multiplicity, built without labels. list_primes gives the same primes as
two columns, (norms, labels): norms is prime_norms' array and labels a list
of strings, unique within a system, in (norm, label) order, built from that
array and X. Only reports that print primes (primes, expect, the dominate
witness) build labels, and no per-prime object is built. Both are pure
functions of (system, X), so prefixes are stable: restricting the primes
for X to norms <= X' reproduces the primes for X'. Both raise
BudgetExceeded above X = 1e8, the ceiling of the integer sieve, on every
system and before anything is built.

Nothing is cached, not even primes_upto, the rational primes up to X that
the integers and the quadratic fields both read; a Beurling system holds
its own norms, sorted once when it is built. On a quadratic field the
Kronecker symbol (D/p) is chi_D(p), and chi_D is a character mod |D|: each
prime's symbol is read from _kronecker_table(D) at p mod |D|, the table the
closed-form ideal counts read too, and the one implementation of the
symbol: it takes (D/p) at the primes below |D|, at most 25 of them.

Four systems are provided:

  Integers        rational primes, norm p (Eratosthenes sieve)
  PolyOverFq(q)   monic irreducibles over GF(q), norm q^deg, q in {2,..,9};
                  prime_norms counts them by the necklace formula, and
                  only labels run the irreducible sieve
  QuadraticField  prime ideals of Q(sqrt(D)) for a fundamental discriminant
                  D, |D| <= 100, split per the Kronecker symbol (D/p)
  Beurling        an explicit norm sequence from a file or inline tuple;
                  prime_norms copies a prefix of the presorted norms, one
                  searchsorted and no sort per call

The module also carries the counting diagnostics used to probe the axioms
at finite X: a linear-density fit for "count = aX + O(X^b)", the Chebyshev
ratio pi_P(X) log X / X, and the Mertens sum of reciprocal norms whose
deviation from log log X should stabilize. The last two, like rho_X,
take the prime norms as prime_norms gives them at some X' >= X and read
their prefix up to X, so a grid needs one prime list, at its largest X.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, DegenerateGrid, ParameterError, SourceError
from .gfpoly import SUPPORTED_Q, irreducible_indices, monic_labels, necklace_count

# the ceiling of primes_upto's sieve over 1..X, kept for every system: no
# prime list, and no integer table, is built beyond it
_MAX_X_SIEVE = 100_000_000


@dataclass(frozen=True)
class Integers:
    @property
    def key(self) -> str:
        return "integers"

    def _norms(self, X: int) -> np.ndarray:
        return primes_upto(X)

    def _labels(self, X: int, norms: np.ndarray) -> list[str]:
        return list(map(str, norms.tolist()))


@dataclass(frozen=True)
class PolyOverFq:
    q: int

    def __post_init__(self):
        if self.q not in SUPPORTED_Q:
            raise ParameterError(
                f"q must be a prime power <= 9 (one of {SUPPORTED_Q}), got {self.q}"
            )

    @property
    def key(self) -> str:
        return f"poly:{self.q}"

    def _degrees(self, X: int):
        """(degree, norm q^degree) for every degree with q^degree <= X."""
        d, norm = 1, self.q
        while norm <= X:
            yield d, norm
            d += 1
            norm *= self.q

    def _norms(self, X: int) -> np.ndarray:
        parts = [np.full(necklace_count(self.q, d), norm, dtype=np.int64)
                 for d, norm in self._degrees(X)]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def _labels(self, X: int, norms: np.ndarray) -> list[str]:
        # one norm per degree: (norm, label) order sorts within a degree only
        return [label for d, _ in self._degrees(X)
                for label in sorted(monic_labels(self.q, d, irreducible_indices(self.q, d)))]


@dataclass(frozen=True)
class QuadraticField:
    D: int

    def __post_init__(self):
        if abs(self.D) > 100 or not _is_fundamental_discriminant(self.D):
            raise ParameterError(
                f"D must be a fundamental discriminant with |D| <= 100, got {self.D}"
            )

    @property
    def key(self) -> str:
        return f"quad:{self.D}"

    def _chi(self, p: np.ndarray) -> np.ndarray:
        """The Kronecker symbol (D/p) at rational primes p, read from the
        table of chi_D, a character mod |D|."""
        return _kronecker_table(self.D)[p % abs(self.D)]

    def _norms(self, X: int) -> np.ndarray:
        p = primes_upto(X)
        chi = self._chi(p)
        split = p[chi == 1]
        # an inert prime ideal (p) has norm p^2
        inert = p[chi == -1]
        inert = inert[: inert.searchsorted(math.isqrt(X), "right")]
        return np.sort(np.concatenate([split, split, p[chi == 0], inert * inert]))

    def _labels(self, X: int, norms: np.ndarray) -> list[str]:
        # read off the norm column, with no second sieve: a square norm is
        # an inert p^2 (no prime is a square); a prime norm p is ramified
        # where chi_D(p) = 0, else one of a split pair, adjacent, s1 first
        root = np.rint(np.sqrt(norms)).astype(np.int64)
        inert = root * root == norms
        p = np.where(inert, root, norms)
        second = np.zeros(norms.size, dtype=np.int64)
        second[1:] = norms[1:] == norms[:-1]
        kind = np.where(inert, 3, np.where(self._chi(p) == 0, 2, second))
        suffix = np.array(["s1", "s2", "r", "i"], dtype=object)[kind].tolist()
        return [f"({p},{k})" for p, k in zip(p.tolist(), suffix)]


@dataclass(frozen=True)
class Beurling:
    norms: tuple[int, ...]
    source: str = "inline"

    def __post_init__(self):
        for n in self.norms:
            if not isinstance(n, int) or n < 2:
                raise SourceError(f"Beurling norms must be integers >= 2, got {n!r}")
        # sorted once; no X above the sieve's cap is read
        object.__setattr__(self, "_sorted", np.sort(np.array(
            [n for n in self.norms if n <= _MAX_X_SIEVE], dtype=np.int64)))

    @classmethod
    def from_file(cls, path: str) -> "Beurling":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as e:
            raise SourceError(f"cannot read Beurling file {path}: {e}") from e
        norms = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                n = int(line)
            except ValueError:
                raise SourceError(f"{path}:{lineno}: not an integer norm: {line!r}") from None
            if n < 2:
                raise SourceError(f"{path}:{lineno}: norm must be >= 2, got {n}")
            norms.append(n)
        return cls(tuple(norms), source=str(path))

    @property
    def key(self) -> str:
        return f"beurling:{self.source}"

    def _norms(self, X: int) -> np.ndarray:
        return self._sorted[: self._sorted.searchsorted(X, "right")].copy()

    def _labels(self, X: int, norms: np.ndarray) -> list[str]:
        # the i-th norm of the source is beurling#i; in (norm, label) order,
        # beurling#10 comes before beurling#9
        return [label for _, label in sorted(
            (n, f"beurling#{i}") for i, n in enumerate(self.norms, start=1) if n <= X)]


PrimeSystem = Integers | PolyOverFq | QuadraticField | Beurling


def primes_upto(X: int) -> np.ndarray:
    """Rational primes <= X, ascending, int64; a sieve over the odd numbers."""
    if X < 2:
        return np.empty(0, dtype=np.int64)
    # odd[i] stands for 2i + 1; the odd multiples of p from p^2 on are
    # every p-th entry from index p^2 // 2
    odd = np.ones((X + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(X) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2  # in the place of 1, which odd[0] stands for
    return primes


def _squarefree(m: int) -> bool:
    m = abs(m)
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        d += 1
    return True


def _is_fundamental_discriminant(D: int) -> bool:
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return _squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


def _kronecker_table(D: int) -> np.ndarray:
    """chi_D(n) for n = 0..|D| - 1, int64: the Kronecker symbol (D/n), a
    character mod |D| for a fundamental discriminant D, extended
    completely multiplicatively from (D/p) at the primes p below |D|:
    (D/2) is 0 for even D, else 1 or -1 as D = +-1 or +-3 mod 8, and at
    odd p Euler's criterion gives D^((p-1)/2) = 0, 1 or -1 mod p."""
    m = abs(D)
    chi = np.ones(m, dtype=np.int64)
    chi[0] = 0  # gcd(|D|, D) > 1
    for p in primes_upto(m - 1).tolist():
        if p == 2:
            c = 0 if D % 2 == 0 else 1 if D % 8 in (1, 7) else -1
        else:  # p - 1 read as -1
            c = (pow(D, (p - 1) // 2, p) + 1) % p - 1
        pk = p
        while pk < m:  # every power of p multiplies in c once more
            chi[pk::pk] *= c
            pk *= p
    return chi


def list_primes(system: PrimeSystem, X: int,
                norms: np.ndarray | None = None) -> tuple[np.ndarray, list[str]]:
    """All primes of the system with norm <= X as two columns, (norms,
    labels), in (norm, label) order: norms is prime_norms(system, X), and
    labels[i] names the prime of norm norms[i]. Each call builds both anew,
    except norms when the caller passes prime_norms(system, X) in.
    """
    _check_prime_x(X)
    if norms is None:
        norms = system._norms(X)
    return norms, system._labels(X, norms)


@dataclass(frozen=True)
class DensityFit:
    """Least-squares probe of count(X) = a*X + O(X^b).

    a_hat is the density at the largest supported threshold; slope is the
    raw log-log regression slope of the residual magnitudes and b_hat its
    clamp to [0, 1) territory (a negative slope still satisfies the O(X^b)
    bound, with b = 0). status is EXACT when every residual vanishes, FAILED
    when slope >= 1 or some residual reaches half the main term, OK else.
    """

    grid: tuple[int, ...]
    counts: tuple[int, ...]
    a_hat: float
    b_hat: float
    slope: float
    residuals: tuple[tuple[int, float], ...]
    status: str
    unsupported: tuple[int, ...] = dc_field(default_factory=tuple)


def density_fit(system: PrimeSystem, grid: Sequence[int]) -> DensityFit:
    """Fit count(X) = a*X + O(X^b) over a strictly increasing grid.

    The counts come from one element counter at the largest supported
    threshold; every supported threshold must be >= 1. The whole grid is
    checked before the counter is built.
    """
    from .monoid import element_counter

    grid, unsupported = _density_grid(system, grid)
    count = element_counter(system, grid[-1])
    counts = [count(x) for x in grid]
    a_hat = counts[-1] / grid[-1]
    residuals = [(x, c - a_hat * x) for x, c in zip(grid, counts)]
    if all(r == 0.0 for _, r in residuals):
        return DensityFit(tuple(grid), tuple(counts), a_hat, 0.0, 0.0,
                          tuple(residuals), "EXACT", unsupported)
    pts = [(math.log(x), math.log(abs(r))) for x, r in residuals if r != 0.0]
    if len(pts) >= 2:
        xs = np.array([u for u, _ in pts])
        ys = np.array([v for _, v in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = 0.0
    max_rel = max(abs(r) / (a_hat * x) for x, r in residuals)
    status = "FAILED" if (slope >= 1.0 or max_rel >= 0.5) else "OK"
    # a negative slope over-satisfies the O(X^b) bound; report b = 0 then.
    # b_hat may sit outside [0, 1) only on the FAILED branch.
    b_hat = max(slope, 0.0)
    return DensityFit(tuple(grid), tuple(counts), a_hat, b_hat, slope,
                      tuple(residuals), status, unsupported)


def _density_grid(system: PrimeSystem, grid: Sequence[int]) -> tuple[list[int], tuple[int, ...]]:
    """The grid's supported thresholds and the unsupported ones; raises
    unless >= 4 strictly increasing thresholds >= 1 are supported."""
    grid = [int(x) for x in grid]
    if len(grid) < 4 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise DegenerateGrid("density grid must be >= 4 strictly increasing thresholds")
    unsupported: tuple[int, ...] = ()
    if isinstance(system, PolyOverFq):
        # count(X) is a step function, constant between powers of q; the
        # linear-density axiom only holds along X = q^n
        supported = [x for x in grid if _is_power_of(x, system.q)]
        unsupported = tuple(x for x in grid if x not in supported)
        if len(supported) < 4:
            raise DegenerateGrid(
                f"need >= 4 thresholds that are powers of q={system.q}; "
                f"got {len(supported)} (others are flagged unsupported)"
            )
        grid = supported
    if grid[0] < 1:
        raise ParameterError(f"X must be >= 1, got {grid[0]}")
    return grid, unsupported


def _is_power_of(x: int, q: int) -> bool:
    if x < 1:
        return False
    while x % q == 0:
        x //= q
    return x == 1


def prime_norms(system: PrimeSystem, X: int) -> np.ndarray:
    """Norms of the primes of norm <= X, int64, ascending, with multiplicity.

    No label is built. Each call builds the array anew; the norms up to
    X' <= X are its prefix up to searchsorted(X').
    """
    _check_prime_x(X)
    return system._norms(X)


def _check_prime_x(X: int) -> None:
    """Raise unless 1 <= X <= the sieve's cap; before any prime is listed."""
    if X < 1:
        raise ParameterError(f"X must be >= 1, got {X}")
    if X > _MAX_X_SIEVE:
        raise BudgetExceeded(f"primes up to X={X} exceed budget",
                             predicted=X, cap=_MAX_X_SIEVE)


def prime_count_check(norms: np.ndarray, X: int) -> float:
    """pi_P(X) * log X / X; bounded over a grid when pi_P(X) = O(X/log X)."""
    if X < 3:
        raise ParameterError(f"prime_count_check needs X >= 3, got {X}")
    return int(norms.searchsorted(X, "right")) * math.log(X) / X


def mertens_sum(norms: np.ndarray, X: int) -> tuple[float, float]:
    """(sum of 1/N(p) over norms <= X with multiplicity, sum - log log X)."""
    if X < 3:
        raise ParameterError(f"mertens_sum needs X >= 3, got {X}")
    total = _reciprocal_sum(norms[:norms.searchsorted(X, "right")])
    return total, total - math.log(math.log(X))


def _reciprocal_sum(norms: np.ndarray) -> float:
    """fsum of 1/N over the norms, correctly rounded whatever their order."""
    return math.fsum(chain.from_iterable((1.0 / part).tolist() for part in chunks(norms)))


def chunks(a: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive 2^16-entry views of a: no Python object per prime is held."""
    return (a[i:i + (1 << 16)] for i in range(0, len(a), 1 << 16))

"""Strongly additive functions and the prime-value measures they induce.

A strongly additive g is determined by its values on primes: g of a product
of prime powers is the sum of g(p) over the distinct primes p dividing it.
Two rules are supported, both with finitely many distinct values, all
finite and all non-negative (the large-deviation machinery downstream
assumes a measure supported on [0, inf)):

  Omega                g(p) = 1, the distinct-prime-divisor count
  NormResidue(m,R,..)  g(p) = value_in when N(p) mod m lands in R, else value_out

Each rule reads only a prime's norm, and g has one evaluation path:
values(norms), a float64 array of g over an array of prime norms. The
enumeration, rho_X, tail_mass and the B-side MGFs all call it once over
prime_norms (or B's norms), so no Python runs per prime to evaluate g.

The empirical measure rho_X puts mass proportional to 1/N(p) on each value
g(p) over norms <= X, normalized by the Mertens sum. Weights are accumulated
as unreduced integer fractions and combined by divide-and-conquer so the
total mass is exactly 1 before any float rounding; a gcd normalization per
prime would be quadratic-time at X = 10^6.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptySystem, ParameterError


@dataclass(frozen=True)
class Omega:
    @property
    def key(self) -> str:
        return "omega"

    def values(self, norms: np.ndarray) -> np.ndarray:
        return np.ones(len(norms))


@dataclass(frozen=True)
class NormResidue:
    modulus: int
    residues: frozenset[int]
    value_in: float
    value_out: float

    def __post_init__(self):
        if self.modulus < 1:
            raise ParameterError(f"modulus must be >= 1, got {self.modulus}")
        object.__setattr__(self, "residues", frozenset(int(r) % self.modulus for r in self.residues))
        # NaN fails both comparisons
        if not all(0 <= v < math.inf for v in (self.value_in, self.value_out)):
            raise ParameterError("prime values must be finite and non-negative")

    @property
    def key(self) -> str:
        rs = ",".join(str(r) for r in sorted(self.residues))
        return f"residue:{self.modulus}:{rs}:{self.value_in:.12g}:{self.value_out:.12g}"

    def values(self, norms: np.ndarray) -> np.ndarray:
        inside = np.isin(norms % self.modulus, sorted(self.residues))
        return np.where(inside, float(self.value_in), float(self.value_out))


AdditiveFunction = Omega | NormResidue


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite list of (atom, weight) pairs; atoms finite, weights finite and
    positive, total mass 1."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not all(math.isfinite(y) and math.isfinite(w) for y, w in self.atoms):
            raise ParameterError("atoms and weights must be finite")
        ys = [y for y, _ in self.atoms]
        if sorted(ys) != ys or len(set(ys)) != len(ys):
            raise ParameterError("atoms must be sorted by value with no duplicates")
        if any(w <= 0 for _, w in self.atoms):
            raise ParameterError("atom weights must be positive")
        if abs(math.fsum(w for _, w in self.atoms) - 1.0) > 1e-12:
            raise ParameterError("atom weights must sum to 1 within 1e-12")

    @classmethod
    def delta(cls, y: float = 1.0) -> "DiscreteMeasure":
        return cls(((float(y), 1.0),))

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, float]]) -> "DiscreteMeasure":
        merged: dict[float, float] = {}
        for y, w in pairs:
            merged[float(y)] = merged.get(float(y), 0.0) + float(w)
        return cls(tuple(sorted(merged.items())))

    @classmethod
    def from_json(cls, text: str) -> "DiscreteMeasure":
        try:
            data = json.loads(text)
            pairs = [(float(a["y"]), float(a["w"])) for a in data["atoms"]]
        except (ValueError, TypeError, KeyError) as e:  # JSONDecodeError is a ValueError
            raise ParameterError(f"measure JSON must be {{\"atoms\": [{{\"y\":..,\"w\":..}}]}}: {e}") from e
        return cls.from_pairs(pairs)

    @property
    def mean(self) -> float:
        return math.fsum(w * y for y, w in self.atoms)


def _tree_sum(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """Sum of num/den fractions without gcd reduction, combined pairwise."""
    while len(pairs) > 1:
        nxt = []
        for i in range(0, len(pairs) - 1, 2):
            (n1, d1), (n2, d2) = pairs[i], pairs[i + 1]
            nxt.append((n1 * d2 + n2 * d1, d1 * d2))
        if len(pairs) % 2:
            nxt.append(pairs[-1])
        pairs = nxt
    return pairs[0]


def rho_X(norms: np.ndarray, g: AdditiveFunction, X: int) -> DiscreteMeasure:
    """Empirical prime-value measure at threshold X.

    Atom at each distinct y = g(p), weighted by sum of 1/N(p) over the
    primes attaining y, normalized by the full Mertens sum. Exact rational
    until the final float conversion. norms: prime_norms at some X' >= X.
    """
    if X < 1:
        raise ParameterError(f"X must be >= 1, got {X}")
    norms = norms[: norms.searchsorted(X, "right")]
    if not norms.size:
        raise EmptySystem(f"no prime of norm <= {X}; rho_X denominator vanishes")
    groups: dict[float, list[tuple[int, int]]] = {}
    for y, n in zip(g.values(norms).tolist(), norms.tolist()):
        groups.setdefault(y, []).append((1, n))
    group_sums = {y: _tree_sum(ps) for y, ps in groups.items()}
    tot_n, tot_d = _tree_sum(list(group_sums.values()))
    # correctly rounded big-int division; no gcd on huge denominators
    return DiscreteMeasure(tuple((y, (n * tot_d) / (d * tot_n))
                                 for y, (n, d) in sorted(group_sums.items())))


def exp_moment(measure: DiscreteMeasure, theta: float) -> float:
    """Integral of e^(theta*y) against the measure."""
    try:
        return math.fsum(w * math.exp(theta * y) for y, w in measure.atoms)
    except OverflowError:
        raise moment_overflow("exp_moment", theta, (y for y, _ in measure.atoms)) from None


def moment_overflow(statistic: str, theta: float, ys) -> OverflowError:
    """The error for a moment that is infinite in floating point at theta.

    It names the first y among ys whose e^(theta*y) overflows, or says that
    the sum of finite terms overflowed when no single term does.
    """
    for y in ys:
        try:
            math.exp(theta * y)
        except OverflowError:
            return OverflowError(
                f"{statistic} is infinite at theta={theta!r}: "
                f"e^(theta*y) overflows at y={y!r}")
    return OverflowError(f"{statistic} is infinite at theta={theta!r}: the sum overflows")


@dataclass(frozen=True)
class ConvergenceRow:
    X: int
    theta: float
    empirical: float
    limit: float
    deviation: float


def check_convergence(
    norms: np.ndarray,
    g: AdditiveFunction,
    rho: DiscreteMeasure,
    theta_grid: Sequence[float],
    X_grid: Sequence[int],
) -> list[ConvergenceRow]:
    """|exp_moment(rho_X) - exp_moment(rho)| per (X, theta) grid point;
    norms: prime_norms at the largest X or above."""
    if not theta_grid or not X_grid:
        raise ParameterError("theta and X grids must be nonempty")
    rows = []
    for X in X_grid:
        emp = rho_X(norms, g, X)
        for theta in theta_grid:
            a = exp_moment(emp, theta)
            b = exp_moment(rho, theta)
            rows.append(ConvergenceRow(X, theta, a, b, abs(a - b)))
    return rows

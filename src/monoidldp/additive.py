"""Strongly additive functions and the prime-value measures they induce.

A strongly additive g is determined by its values on primes: g of a product
of prime powers is the sum of g(p) over the distinct primes p dividing it.
Two rules are supported, both with finitely many distinct values, all
finite and all non-negative (the large-deviation machinery downstream
assumes a measure supported on [0, inf)):

  Omega                g(p) = 1, the distinct-prime-divisor count
  NormResidue(m,R,..)  g(p) = value_in when N(p) mod m lands in R, else value_out

Each rule reads only a prime's norm and takes at most two values on the
primes: value_in on a class of norms and value_out off it (Omega has no
class, and takes 1). So g(n) is a function of the element's cell (omega, a):
omega distinct primes, a of them in the class. Each rule has three array
methods, and no Python runs per prime or per element:

  values(norms)    g at each prime, float64: the truncation set and the
                   B-side MGFs read it
  inside(norms)    whether each prime is in the class (None for Omega): the
                   enumeration counts a from it, and rho_X groups the primes
                   by it
  sums(omega, a)   g(n) per cell, value_in a + value_out (omega - a)
                   correctly rounded, so it does not depend on the order in
                   which an element's primes are met

The empirical measure rho_X puts mass proportional to 1/N(p) on each value
g(p) over norms <= X, normalized by the Mertens sum. Each weight is the
correctly rounded quotient of two exact sums. A g of one value has one
atom, of weight 1. Otherwise rho_X reads the norms 2^16 at a time and
keeps two Python ints, the fixed-point sums of floor(2^K / N(p)) over the
primes in g's class and over those off it, with the two prime counts;
these bound each weight from both sides. Only when the two bounds round to
different doubles does it build each class's norm array, and take the sums
again as unreduced integer fractions, combined by divide-and-conquer, so
the total mass is exactly 1 before any float rounding (a gcd normalization
per prime would be quadratic-time at X = 10^6).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import EmptySystem, ParameterError
from .systems import chunks


@dataclass(frozen=True)
class Omega:
    @property
    def key(self) -> str:
        return "omega"

    def values(self, norms: np.ndarray) -> np.ndarray:
        return np.ones(len(norms))

    def inside(self, norms: np.ndarray) -> None:
        return None

    def sums(self, omega: np.ndarray, a: np.ndarray | None) -> np.ndarray:
        return np.asarray(omega, dtype=np.float64)


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
        return np.where(self.inside(norms), float(self.value_in), float(self.value_out))

    def inside(self, norms: np.ndarray) -> np.ndarray:
        return np.isin(norms % self.modulus, sorted(self.residues))

    def sums(self, omega: np.ndarray, a: np.ndarray) -> np.ndarray:
        """g over elements with omega distinct primes, a of them in the
        class: value_in a + value_out (omega - a), correctly rounded."""
        omega = np.asarray(omega)
        top = int(omega.max(initial=0)) + 1
        v_in, v_out = Fraction(self.value_in), Fraction(self.value_out)
        cells = np.array([[float(j * v_in + (k - j) * v_out) for j in range(top)]
                          for k in range(top)])
        return cells[omega, a]


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


# bits of the fixed-point sums of rho_X: 2^192 / N(p) keeps ~165 bits of
# each 1/N(p) at the 1e8 prime cap, far more than a double's 53
_FIXED_BITS = 192


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
    primes attaining y, normalized by the full Mertens sum, each weight
    the correctly rounded double of that exact ratio. norms: prime_norms
    at some X' >= X.
    """
    if X < 1:
        raise ParameterError(f"X must be >= 1, got {X}")
    norms = norms[: norms.searchsorted(X, "right")]
    if not norms.size:
        raise EmptySystem(f"no prime of norm <= {X}; rho_X denominator vanishes")
    if isinstance(g, Omega) or g.value_in == g.value_out:  # one atom: every prime
        return DiscreteMeasure.delta(1.0 if isinstance(g, Omega) else g.value_in)
    # the primes in g's class, then those off it: floor(2^K / N(p)) summed
    # and counted, one chunk at a time
    unit = 1 << _FIXED_BITS
    sums, counts = [0, 0], [0, 0]
    for part in chunks(norms):
        inside = g.inside(part)
        for k, ns in enumerate((part[inside], part[~inside])):
            sums[k] += sum(map(unit.__floordiv__, ns.tolist()))
            counts[k] += ns.size
    kept = [k for k in (0, 1) if counts[k]]  # the classes some prime attains
    weights = _fixed_weights([sums[k] for k in kept], [counts[k] for k in kept])
    if weights is None:
        inside = g.inside(norms)
        groups = (norms[inside], norms[~inside])
        weights = _exact_weights([groups[k] for k in kept])
    ys = (float(g.value_in), float(g.value_out))
    return DiscreteMeasure.from_pairs([(ys[k], w) for k, w in zip(kept, weights)])


def _fixed_weights(sums: list[int], counts: list[int]) -> list[float] | None:
    """The weights from s_y = sum of floor(2^K / N(p)) over the c_y primes
    of atom y, S their total over m primes: the exact weight lies strictly
    inside (s_y / (S + m), (s_y + c_y) / S), so where both ends round to
    one double, that double is its correctly rounded value. None when they
    do not, for some atom."""
    total, m = sum(sums), sum(counts)
    weights = []
    for s, c in zip(sums, counts):
        w = s / (total + m)  # int / int: correctly rounded
        if w != (s + c) / total:
            return None
        weights.append(w)
    return weights


def _exact_weights(groups: list[np.ndarray]) -> list[float]:
    """The weights as exact unreduced fractions (tree sums per atom), each
    divided once, correctly rounded, with no gcd on the huge denominators;
    every group holds at least one norm."""
    sums = [_tree_sum([(1, n) for n in ns.tolist()]) for ns in groups]
    tot_n, tot_d = _tree_sum(sums)
    return [(n * tot_d) / (d * tot_n) for n, d in sums]


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


"""Headline experiments: normality of omega, LDP tail scans, axiom sweeps.

The asymptotic statements being probed live at speed log log X, so none of
them is numerically reachable as a limit at desk scale. Each driver therefore
reports exact finite-X quantities next to the limiting object and asserts
only trends and identities:

  ek_report          per-element normalized omega statistic against the
                     standard normal CDF (correctly normalized)
  ldp_scan           exact tail probabilities of gsum / log log X on given
                     intervals, next to the rate-function bound, from the
                     histogram of the (omega, a) cells; the two columns
                     are emitted side by side, convergence is not asserted
  condition_sweep    counting-axiom diagnostics bundled with PASS/WARN/FAILED
                     flags; thresholds documented on the function
  gap_sweep          the B-side MGF gap per X, asserting a strict decrease

The Kolmogorov-Smirnov figure reported as ks_distance is the one-sided
statistic sup_t (F_emp(t) - Phi(t)). The plain two-sided supremum is carried
alongside as ks_two_sided; at X = 10^6 for the integers it sits near 0.27
(the empirical statistic is right-skewed at any desk scale, so the two-sided
distance is dominated by the left-of-center deficit), while the one-sided
statistic is near 0.099 and is the quantity the regression baseline tracks.

Both KS maxima are exact over every element, with no float array over the
sample and no sort of it. Phi is erfc(-t / sqrt 2) / 2, erfc being the C
library's (math.erfc). A first pass counts the statistic into fixed bins,
block by block, keeping per block only a bit mask of the bins it touches;
the counts give every bin's ranks, and Phi at the bin edges bounds every
value inside. A second pass takes the statistic again only in the blocks
that touch a bin that can hold a maximum, and keeps the rows of those
bins, whose ranks are the rows below their bin plus their place inside it
(see _ks_bins and _ks_maxima).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

import numpy as np

from .additive import AdditiveFunction, DiscreteMeasure, exp_moment, rho_X
from .errors import EmptySample, ParameterError
from .exact import GapComponents, _gap_row, truncation_sets
from .monoid import block_rows, cell_blocks, cell_counts, element_counter
from .rate import rate
from .systems import (
    PrimeSystem,
    chunks,
    density_fit,
    mertens_sum,
    prime_count_check,
    prime_norms,
)


@dataclass(frozen=True)
class EKReport:
    X: int
    samples: int
    min_norm: int
    ks_sample_count: int
    ks_distance: float
    ks_two_sided: float
    mean_omega: float
    mertens_mean: float
    variance_omega: float


def ek_report(system: PrimeSystem, X: int, min_norm: int = 3) -> EKReport:
    """Normality diagnostics for (omega(m) - log log N(m)) / sqrt(log log N(m)).

    The statistic is computed per element over norms >= min_norm (so the
    inner logarithm is positive); mean and variance of omega and the Mertens
    sum are reported over the full table for cross-checks.

    The omega blocks of cell_blocks are kept (one byte per element on the
    integers), rows in any order, and read for the omega histogram and the
    KS bins, then again where the KS maxima can lie. Mean and variance come
    exactly from the omega histogram and the KS maxima from ranks, so no
    field depends on the row order.
    """
    if X < 16:
        raise ParameterError(f"ek_report needs X >= 16, got {X}")
    if min_norm < 3:
        raise ParameterError("min_norm must be >= 3 so log log N(m) > 0")
    if min_norm > X:
        raise EmptySample(f"no element of norm >= {min_norm} at X={X}")
    primes, blocks = cell_blocks(system, X, None)
    # the Mertens sum before the blocks are built, so no temporary of its
    # meets them
    mertens_mean = mertens_sum(primes, X)[0]
    blocks = list(blocks)
    # omega < 64 (norms >= 2); bincount reads the uint8 cells, no intp copy
    hist = sum(np.bincount(block[3], minlength=64) for block in blocks)
    count = int(hist.sum())
    k = np.arange(hist.size)
    s1, s2 = int(hist @ k), int(hist @ (k * k))
    sample = partial(_ek_sample, min_norm=min_norm)
    counts, masks = _ks_bins(blocks, sample)
    samples = int(counts.sum())
    if not samples:
        raise EmptySample(f"no element of norm >= {min_norm} at X={X}")
    d_plus, d_minus = _ks_maxima(blocks, sample, counts, masks)
    return EKReport(
        X=X,
        samples=count,
        min_norm=min_norm,
        ks_sample_count=samples,
        ks_distance=d_plus,
        ks_two_sided=max(d_plus, d_minus),
        mean_omega=s1 / count,
        mertens_mean=mertens_mean,
        # the population variance, correctly rounded
        variance_omega=float(Fraction(count * s2 - s1 * s1, count * count)),
    )


def _ek_sample(block, min_norm: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The statistic (omega - log log N) / sqrt(log log N) of a block's rows
    of norm >= min_norm, and their runs (_ks_bins). Where most rows equal
    the row before them, as on F_q[t], whose norms are few, each run of
    equal rows is one entry."""
    norm, o = block_rows(block, lo=min_norm)
    new = np.concatenate(([True], (norm[1:] != norm[:-1]) | (o[1:] != o[:-1])))
    runs = None
    if 2 * np.count_nonzero(new) <= norm.size:
        heads = np.flatnonzero(new)
        norm, o, runs = norm[heads], o[heads], np.diff(heads, append=norm.size)
    ll = norm.astype(np.float64)
    np.log(np.log(ll, out=ll), out=ll)
    root = np.sqrt(ll)
    np.subtract(o, ll, out=ll)
    ll /= root
    return ll, runs


_SQRT1_2 = 7.07106781186547524401e-1


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Phi(a) = erfc(-a / sqrt 2) / 2, the standard normal CDF, elementwise,
    erfc being math.erfc, the C library's, over 2^16 values at a time."""
    x = a * -_SQRT1_2
    for part in chunks(x):
        part[:] = np.fromiter(map(math.erfc, part.tolist()), np.float64, part.size)
    x *= 0.5
    return x


# The KS bins: _KS_BINS uniform bins over t in [_KS_LO, _KS_HI), the end
# bins also taking every t beyond; the range only sets how many rows the
# second pass reads, never the result. The slack covers erfc's departures
# from a monotone Phi, below 1e-15, and the rounding of the bounds.
_KS_BINS = 1 << 14
_KS_LO, _KS_HI = -4.0, 8.0
_KS_SLACK = 1e-9


def _ks_bin(t: np.ndarray) -> np.ndarray:
    """The bin of each t: (t - _KS_LO) / width clipped to [0, _KS_BINS -
    1], in float64, cast to intp. Every step is monotone, so the bin never
    falls as t rises."""
    b = t - _KS_LO
    b *= _KS_BINS / (_KS_HI - _KS_LO)
    return np.clip(b, 0, _KS_BINS - 1, out=b).astype(np.intp)


def _ks_bins(blocks, sample) -> tuple[np.ndarray, list[np.ndarray]]:
    """Pass 1: (counts, masks), the sample rows in each bin, and per block
    the bins that its entries touch, as a packed bit mask (np.packbits of
    _KS_BINS bits). sample(block) gives (t, runs): the statistic of each
    entry of the block, and the sample rows that each entry stands for
    (None: one each)."""
    counts = np.zeros(_KS_BINS, dtype=np.int64)
    masks = []
    for block in blocks:
        t, runs = sample(block)
        c = np.bincount(_ks_bin(t), runs, minlength=_KS_BINS)
        counts += c.astype(np.int64, copy=False)
        masks.append(np.packbits(c > 0))
    return counts, masks


def _ks_maxima(blocks, sample, counts: np.ndarray, masks: list[np.ndarray]
               ) -> tuple[float, float]:
    """Pass 2: (max_i (i+1)/n - Phi(t_i), max_i Phi(t_i) - ((i+1)/n - 1/n))
    over the sorted sample t of n rows, from the blocks and sample, as in
    _ks_bins, and pass 1's counts and masks.

    The bin never falls as t rises, so bin j holds the ranks before[j] to
    before[j] + counts[j] - 1, and with one bin of margin for the rounding
    of the bins its t lie between the edges of bins j - 1 and j + 2. So
    Phi at those edges bounds both maxima over the bin from above, and over
    every bin from below. The second pass takes the statistic again in the
    blocks whose mask meets a bin whose upper bound reaches the lower one,
    keeps the entries of those bins, and collapses their ties into (value,
    count) block by block. Each value is then evaluated at the
    rank that maximizes each expression, its last for the first and its
    first for the second, which is the same float expression as over the
    full arrays, so the maxima are the same bits.
    """
    n = int(counts.sum())
    before = np.cumsum(counts) - counts
    j = np.flatnonzero(counts)
    # Phi at the lower and upper edges, the end bins open to -inf and +inf
    width = (_KS_HI - _KS_LO) / _KS_BINS
    phi_lo = np.where(j == 0, 0.0, _ndtr(_KS_LO + (j - 1) * width))
    phi_hi = np.where(j == _KS_BINS - 1, 1.0, _ndtr(_KS_LO + (j + 2) * width))
    upto = (before[j] + counts[j]) / n
    at = before[j] / n
    keep = np.zeros(_KS_BINS, dtype=bool)
    keep[j] = ((upto - phi_lo + _KS_SLACK >= np.max(upto - phi_hi) - _KS_SLACK)
               | (phi_hi - at + _KS_SLACK >= np.max(phi_lo - at) - _KS_SLACK))
    kept = np.packbits(keep)
    values, tallies = [], []
    for block, mask in zip(blocks, masks):
        if not np.bitwise_and(mask, kept).any():
            continue
        t, runs = sample(block)
        sel = keep[_ks_bin(t)]
        v, c = _tally(t[sel], np.ones(np.count_nonzero(sel), np.int64) if runs is None
                      else runs[sel])
        values.append(v)
        tallies.append(c)
    v, c = _tally(np.concatenate(values), np.concatenate(tallies))
    # the rank of each value's first row: the rows below it that were read,
    # plus those of the bins below its own that were not
    skipped = before - (np.cumsum(counts * keep) - counts * keep)
    first = np.cumsum(c) - c + skipped[_ks_bin(v)]
    phi = _ndtr(v)
    d_plus = float(np.max((first + c) / n - phi))
    d_minus = float(np.max(phi - ((first + 1) / n - 1.0 / n)))
    return d_plus, d_minus


def _tally(v: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of v, ascending, and the sum of c over each."""
    order = np.argsort(v)
    v, c = v[order], c[order]
    heads = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    return v[heads], np.add.reduceat(c, heads)


@dataclass(frozen=True)
class LDPRow:
    X: int
    x_lo: float
    x_hi: float
    count: int
    total: int
    tail_prob: Fraction
    normalized: float
    rate_bound: float


def ldp_scan(
    system: PrimeSystem,
    g: AdditiveFunction,
    X_grid: Sequence[int],
    intervals: Sequence[tuple[float, float]],
    rho: DiscreteMeasure,
) -> list[LDPRow]:
    """Exact P[gsum / log log X in [lo, hi)] per X and interval.

    Intervals are half-open on the right so a partition of the line has
    exactly summing tail probabilities. normalized = log(tail)/log log X is
    reported next to -inf I over the interval; the doubly logarithmic speed
    keeps the two columns visibly apart at any reachable X, so no closeness
    is asserted.

    Every g takes at most two values on the primes, so gsum is a function
    of the cell (omega, a), a counting the primes in g's class. The cells'
    histogram at every X comes from one table, built at the largest X
    (cell_counts); g and the interval tests are then taken once per cell,
    g correctly rounded (g.sums), so elements with equal g never fall on
    both sides of an edge.
    """
    for lo, hi in intervals:
        if not lo < hi:
            raise ParameterError(f"empty interval [{lo}, {hi})")
    X_list = [int(X) for X in X_grid]
    for X in X_list:
        if X < 3:
            raise ParameterError(f"ldp_scan needs X >= 3, got {X}")
    if not X_list:
        return []
    counts = cell_counts(system, X_list, g)
    k, a = np.nonzero(counts.any(axis=0))
    gsum = g.sums(k, a)
    bounds = [_rate_bound(rho, lo, hi) for lo, hi in intervals]
    rows = []
    for X, cells in zip(X_list, counts[:, k, a]):
        ll = math.log(math.log(X))
        total = int(cells.sum())
        v = gsum / ll
        for (lo, hi), bound in zip(intervals, bounds):
            count = int(cells[(v >= lo) & (v < hi)].sum())
            tail = Fraction(count, total)
            normalized = math.log(count / total) / ll if count else -math.inf
            rows.append(LDPRow(X, lo, hi, count, total, tail, normalized, bound))
    return rows


def _rate_bound(rho: DiscreteMeasure, lo: float, hi: float) -> float:
    """-inf of I over [lo, hi); I is convex with minimum at the mean."""
    lo_eff = max(lo, 0.0)
    if hi <= lo_eff:
        return -math.inf  # interval misses [0, inf), where I is finite
    x = min(max(rho.mean, lo_eff), hi)
    return -rate(rho, x).I


@dataclass(frozen=True)
class ConditionReport:
    """Bundled counting-axiom and moment-convergence diagnostics.

    Flag thresholds: density is FAILED by the fit itself (residual slope
    >= 1 or a residual reaching half the main term); prime_count WARNs when
    max pi_P(X) log X / X over the grid exceeds 2.0; mertens WARNs when the
    deviation moves by >= 0.05 between the last two grid points; convergence
    WARNs for a theta whose deviation neither ends below its starting value
    nor ends below 1e-12. overall is FAILED > WARN > PASS.
    """

    overall: str
    density: dict
    prime_count: dict
    mertens: dict
    convergence: dict


def condition_sweep(
    system: PrimeSystem,
    g: AdditiveFunction,
    rho: DiscreteMeasure,
    X_grid: Sequence[int],
    theta_grid: Sequence[float],
) -> ConditionReport:
    if not X_grid or not theta_grid:
        raise ParameterError("X and theta grids must be nonempty")
    X_list = [int(X) for X in X_grid]
    if min(X_list) < 3:
        raise ParameterError("condition_sweep needs every X >= 3")
    theta_list = [float(t) for t in theta_grid]
    if not all(map(math.isfinite, theta_list)):  # before anything is built
        raise ParameterError(f"every theta must be finite, got {theta_list}")

    fit = density_fit(system, X_list)  # checks the whole grid before it builds anything
    norms = prime_norms(system, max(X_list))
    density = {
        "flag": "FAILED" if fit.status == "FAILED" else "PASS",
        "status": fit.status,
        "a_hat": fit.a_hat,
        "b_hat": fit.b_hat,
        "slope": fit.slope,
        "residuals": [[x, r] for x, r in fit.residuals],
        "unsupported": list(fit.unsupported),
    }

    ratios = [[X, prime_count_check(norms, X)] for X in X_list]
    max_ratio = max(r for _, r in ratios)
    prime_count = {
        "flag": "PASS" if max_ratio <= 2.0 else "WARN",
        "rows": ratios,
        "max_ratio": max_ratio,
    }

    msums = [[X, *mertens_sum(norms, X)] for X in X_list]
    dev_step = abs(msums[-1][2] - msums[-2][2])  # density_fit needs >= 4 thresholds
    mertens = {
        "flag": "PASS" if dev_step < 0.05 else "WARN",
        "rows": msums,
        "last_step": dev_step,
    }

    # |exp_moment(rho_X) - exp_moment(rho)| per (X, theta), X by X; rho_X's
    # moment is taken before the limit's, so an overflow names rho_X's atom
    table = []
    for X in X_list:
        emp = rho_X(norms, g, X)
        table.append([abs(exp_moment(emp, t) - exp_moment(rho, t)) for t in theta_list])
    conv_rows = []
    conv_flag = "PASS"
    for theta, devs in zip(theta_list, zip(*table)):
        ok = devs[-1] < devs[0] or devs[-1] < 1e-12
        if not ok:
            conv_flag = "WARN"
        conv_rows.append({"theta": theta, "deviations": [[x, d] for x, d in zip(X_list, devs)],
                          "ok": ok})
    convergence = {"flag": conv_flag, "rows": conv_rows}

    flags = [density["flag"], prime_count["flag"], mertens["flag"], convergence["flag"]]
    overall = "FAILED" if "FAILED" in flags else ("WARN" if "WARN" in flags else "PASS")
    return ConditionReport(overall, density, prime_count, mertens, convergence)


@dataclass(frozen=True)
class GapReport:
    rows: tuple[GapComponents, ...]
    trend: str  # PASS when gaps strictly decrease along the grid, else WARN


def gap_sweep(
    system: PrimeSystem,
    g: AdditiveFunction,
    X_grid: Sequence[int],
    C: float,
    theta: float,
) -> GapReport:
    """The B-side MGF gap and its components per X; strict decrease expected.
    Every row reads one element counter, built at the largest X."""
    X_list = [int(X) for X in X_grid]
    if not X_list:
        raise ParameterError("X_grid must be nonempty")
    if any(b <= a for a, b in zip(X_list, X_list[1:])):
        raise ParameterError("X_grid must be strictly increasing")
    if not math.isfinite(theta):
        raise ParameterError(f"theta must be finite, got {theta}")
    # B for every X first: an X below 16 is refused before the count is built
    sets = [truncation_sets(system, g, X, C) for X in X_list]
    count = element_counter(system, X_list[-1])
    rows = tuple(_gap_row(ts, g, theta, count) for ts in sets)
    decreasing = all(b.gap < a.gap for a, b in zip(rows, rows[1:]))
    return GapReport(rows, "PASS" if decreasing else "WARN")

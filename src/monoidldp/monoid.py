"""Exhaustive materialization of the monoid probability space.

For a prime system and threshold X, the table holds every monoid element of
norm <= X as a (norm, omega, gsum) triple: the norm, the number of distinct
primes dividing the element, and the strongly additive statistic sum g(p)
over those primes. Factorizations are discarded; every downstream statistic
depends only on these three numbers, and memory is the binding constraint.

Every g takes at most two values on the primes, value_in on a class of
norms and value_out off it, so gsum is a function of the element's cell
(omega, a), a being the number of its distinct primes in the class
(g.inside). The paths below count a as they count omega, in integers, and
g.sums turns a cell into its correctly rounded gsum, which does not depend
on the order in which the primes were met. cell_counts gives the cells'
histogram at every X of a grid, which is all that ldp_scan reads.

A frontier enumerates the elements one omega-level at a time, over the
primes sorted by norm. Every element other than 1 is a parent times
p_i^e, e >= 1, with i at or after the parent's next prime index nxt, so
level k + 1 is the children of level k. One table, XP = X // P with a 0
after the last prime (_quotients), says which parents can grow: n has a
child exactly when n <= XP[nxt], and the 0 stops the parents whose
largest prime is the last one. Most elements are leaves. A level's
parents are taken in blocks of _BLOCK_PARENTS, that one test picks out a
block's live parents, and a block with none is skipped. The live
parents' (parent, prime) pairs come from one searchsorted of X // n and
are expanded in blocks of at most _BLOCK_PAIRS pairs, so the temporaries
are bounded, not a whole level; a short loop over exponents takes e + 1
while n * p^e <= XP[i], that is n * p^(e+1) <= X, with no division per
child. A child's a is the parent's a, plus one when p_i is in the class.
exact.domination_report runs the same test and the same pair blocks over
tuples of distinct primes.

The levels fill three columns: norm (int64), a (uint8, only when g has a
class) and nxt (int32, dropped at the end); omega is the level index,
repeated into uint8 at the end. a and omega need separate bytes: a
Beurling system whose norm 2 repeats reaches omega = 23 below the
frontier's cap. On quad:D and poly:q the callers pass the element
count in closed form (element_counter), so the element cap is checked
against the exact count before anything is allocated, and the columns are
allocated once at that size; the enumeration must fill them exactly, else
MonoidLdpError, which makes each run a cross-check of the closed form. A
Beurling system has no closed form: its columns grow by doubling, and
since each pair gives at least one child, the cap is checked against the
pair count before each parent block is expanded and again after every
pair block; it raises exactly when the element count exceeds the cap.

For the rational integers the cells are instead sieved over 1..X, in
segments of _SEGMENT values of n, into one uint8 per n, omega + 16 a: a
prime adds 1, or 17 when it is in the class, and the nibbles cannot carry,
since omega <= 8 below 23# = 223,092,870, above the sieve's 1e8 cap. Every
n <= X has at most one prime factor above sqrt(X). So a segment [lo, hi)
gets one strided add per prime p <= sqrt(X), from the first multiple of p
at or above lo, and then the large primes: for every cofactor m <=
sqrt(X) at once, two searchsorted give the primes p with lo <= m p < hi,
and the (m, p) pairs are added in blocks of _BLOCK_PAIRS. With no class
the byte is omega (1 byte per element, as in every table); the norms,
1..X, are implicit.

ek_report, cell_counts and table_blocks read one stream of blocks
(cell_blocks): a block's norm range, its norms (None on the integers: that
range) and its cells, omega alone when no g is asked for. Only block_rows
reads implicit norms, cutting a block to the rows of norm in [lo, hi] by a
slice or a mask. Rows may come in any order, so no sort runs for ek_report
or cell_counts. cell_counts holds no column on the integers; ek_report and
table_blocks keep the blocks, one byte per element, and table_blocks
expands a block to its (norm, omega, gsum) rows as it is read, which on
the integers are in norm order already. Elsewhere table_blocks sorts the
frontier's table, 17 bytes per element, and only when its rows are read.

The table at X' <= X is the prefix of the table at X, so one table serves
every threshold up to X.
Element counts need no table. element_counter answers count(y) in closed
form on every system but Beurling: y on the integers, the sum of q^d over
q^d <= y on F_q[t], and on a quadratic field, whose elements are the
ideals, sum_{d <= y} chi_D(d) floor(y/d) by the hyperbola method, in
O(sqrt(y)) NumPy work. Only a Beurling counter enumerates, by the frontier
with no omega, gsum or g, and answers from its sorted norm column.

The system picks the path, the sieve for the integers and the frontier for
every other system, and four constants cap it: X <= 1e7 on the frontier
(tables, and Beurling counters), X <= 1e8 on the sieve (the prime layer's
cap), at most 2e8 elements in memory, and X <= 1e12 for the closed-form
counts, which hold no element. The X caps are checked before anything is
allocated, the element cap as above. Partial products never overflow:
they are bounded by X, which the caps keep below 2^63.
"""
from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, MonoidLdpError, ParameterError
from .systems import (
    _MAX_X_SIEVE,
    Beurling,
    Integers,
    PolyOverFq,
    PrimeSystem,
    _kronecker_table,
    prime_norms,
)

# rows of a block (cell_blocks); bounds the temporaries of the reductions
# over the elements
_BLOCK_ROWS = 1 << 16
# values of n sieved at once on the integers; 2^20 ran faster than 2^18 at
# 1e8, for ek and ldp-scan alike, at the same peak (BENCH_segments.json)
_SEGMENT = 1 << 20
# parents whose pairs are counted at once, and (parent, prime) pairs
# expanded at once; together they bound the frontier's temporaries
_BLOCK_PARENTS = 1 << 16
_BLOCK_PAIRS = 1 << 16
# desk-scale caps: elements in memory, and X on the frontier; the sieve's
# X cap, _MAX_X_SIEVE, is the prime layer's
_MAX_ELEMENTS = 200_000_000
_MAX_X_FRONTIER = 10_000_000
# X for the closed-form element counts, which hold no element: at 1e12 one
# quad:D count takes ~10 ms and arrays of 1e6 entries, and every sum of
# _quad_counter stays far inside int64
_MAX_X_COUNT = 10**12


def table_blocks(system: PrimeSystem, X: int, g) -> tuple[np.ndarray, Iterator[tuple]]:
    """(hist, blocks): the omega histogram of the elements of norm <= X,
    as np.bincount gives it, and their (norm, omega, gsum) rows in blocks,
    uint64, uint8 and float64, sorted by (norm, omega, gsum), gsum being g
    at each row's cell (g.sums). On the integers the cells of cell_blocks
    are kept and a block is expanded as it is read; elsewhere the frontier
    runs once, and its table is sorted, as one block, when first read."""
    if isinstance(system, Integers):
        blocks = list(cell_blocks(system, X, g)[1])
        # cell = omega + 16 a: a row per a, a column per omega
        hist = sum(np.bincount(b[3], minlength=256) for b in blocks).reshape(16, 16).sum(axis=0)
        hist = np.trim_zeros(hist, "b")
        cell = np.arange(256)
        sums = g.sums(cell & 15, cell >> 4)  # gsum per cell
        return hist, ((norms, cells & 15, sums[cells])
                      for norms, cells in map(block_rows, blocks))
    primes, total = _prepare(system, X)
    norm, omega, a = _frontier(primes, X, g, total)
    return np.bincount(omega), _sorted_table(norm, omega, a, g)


def _sorted_table(norm: np.ndarray, omega: np.ndarray, a: np.ndarray | None, g):
    """The frontier's table as one block, gsum from each row's cell, sorted
    by (norm, omega, gsum)."""
    columns = [norm, omega, g.sums(omega, a)]
    del norm, omega, a
    order = np.lexsort(columns[::-1])  # by norm, then omega, then gsum
    for k in range(len(columns)):  # one sorted copy alive at a time
        columns[k] = columns[k][order]
    del order
    yield tuple(columns)


def cell_blocks(system: PrimeSystem, X: int, g):
    """(primes, blocks): the prime norms <= X, and the elements of norm <=
    X in blocks of at most _BLOCK_ROWS rows, rows in any order.

    A block is (least, most, norms, cells): its least and largest norm, its
    uint64 norms, or None when they are least..most in row order (read
    them through block_rows), and each row's cell: omega, uint8, as built,
    when g is None or has no class; else omega + 16 a (uint8) on the
    integers and omega + _CELLS a (intp) elsewhere, a counting the row's
    primes in g's class (g.inside). The integers sieve a segment as its
    blocks are read; elsewhere they are the frontier's columns, as built.
    """
    primes, total = _prepare(system, X)
    if isinstance(system, Integers):
        return primes, _segments(primes, X, None if g is None else g.inside(primes))
    return primes, _frontier_blocks(*_frontier(primes, X, g, total))


def block_rows(block, lo: int = 1, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(norms, cells) of a block's rows with lo <= norm <= hi (hi None: no
    bound), in row order, norms in uint64. This is the one reader of
    implicit norms (None: least..most), which it cuts as a slice; explicit
    norms are masked, unless the whole block lies inside the bounds."""
    least, most, norms, cells = block
    lo, hi = max(lo, least), most if hi is None else min(hi, most)
    if norms is None:
        return np.arange(lo, hi + 1, dtype=np.uint64), cells[lo - least:max(hi - least + 1, 0)]
    if least < lo or hi < most:
        keep = (norms >= np.uint64(lo)) & (norms <= np.uint64(max(hi, 0)))
        return norms[keep], cells[keep]
    return norms, cells


# the cells (omega, a) of cell_counts: omega < 64, as norms are >= 2 and X
# stays below 2^63
_CELL_BITS = 6
_CELLS = 1 << _CELL_BITS


def cell_counts(system: PrimeSystem, X_grid: Sequence[int], g) -> np.ndarray:
    """counts[x, k, j]: the elements of norm <= X_grid[x] with k distinct
    primes, j of them in g's class (g.inside; j = 0 when g has none), for
    k, j < _CELLS.

    The blocks of cell_blocks, at the largest X, are read once: a block
    takes one bincount of its cells for the X above all its norms, and one
    per X that cuts it, of its rows of norm <= X. On the integers the
    blocks come as the sieve yields them, and no column is held.
    """
    _, blocks = cell_blocks(system, max(X_grid), g)
    shift = 4 if isinstance(system, Integers) else _CELL_BITS
    size = 1 << 2 * shift
    counts = np.zeros((len(X_grid), size), dtype=np.int64)
    for block in blocks:
        least, most, _, cells = block
        whole = None
        for x, X in enumerate(X_grid):
            if X < least:
                continue
            if most <= X:
                if whole is None:
                    whole = np.bincount(cells, minlength=size)
                counts[x] += whole
            else:
                counts[x] += np.bincount(block_rows(block, hi=X)[1], minlength=size)
    cells = np.arange(size)
    out = np.zeros((len(X_grid), _CELLS, _CELLS), dtype=np.int64)
    out[:, cells & (1 << shift) - 1, cells >> shift] = counts
    return out


def _frontier_blocks(norm: np.ndarray, omega: np.ndarray, a: np.ndarray | None):
    """The blocks of cell_blocks over the frontier's columns, in level
    order: cells are omega as built when a is None, else omega + _CELLS a."""
    for i in range(0, norm.size, _BLOCK_ROWS):
        norms, cells = norm[i:i + _BLOCK_ROWS], omega[i:i + _BLOCK_ROWS]
        if a is not None:
            cells = cells.astype(np.intp) + (a[i:i + _BLOCK_ROWS].astype(np.intp) << _CELL_BITS)
        yield int(norms.min()), int(norms.max()), norms, cells


def _prepare(system: PrimeSystem, X: int) -> tuple[np.ndarray, int | None]:
    """The X caps, checked before anything is allocated; then the prime
    norms <= X and the element count at X in closed form, None on Beurling
    systems, which have none."""
    _check_x(system, X)
    primes = prime_norms(system, X)
    return primes, None if isinstance(system, Beurling) else element_counter(system, X)(X)


def _check_x(system: PrimeSystem, X: int) -> None:
    """Raise, before anything is allocated, if X is invalid or over the cap
    of the path that enumerates the system. The sieve's table has X
    elements, so the element cap bounds it too."""
    if X < 1:
        raise ParameterError(f"X must be >= 1, got {X}")
    if isinstance(system, Integers):
        path, cap = "sieve", min(_MAX_X_SIEVE, _MAX_ELEMENTS)
    else:
        path, cap = "frontier", _MAX_X_FRONTIER
    if X > cap:
        raise BudgetExceeded(f"{path} at X={X} exceeds budget", predicted=X, cap=cap)


def _segments(primes: np.ndarray, X: int, inside: np.ndarray | None):
    """The blocks of cell_blocks over 1..X, ascending, (least, most, None,
    cells), cut from segments of _SEGMENT values of n: entry n is the cell
    omega(n) + 16 a(n), in uint8, a(n) being the primes primes[i] dividing
    n with inside[i] (none when inside is None, so that entry n is
    omega(n)). Each prime adds 1, or 17 when inside, and the nibbles cannot
    carry, as no n below 23# = 223,092,870 has 9 distinct primes."""
    step = np.ones(primes.size, np.uint8) if inside is None else np.where(inside, 17, 1)
    # primes up to sqrt(X): one strided add per prime and segment
    k = int(primes.searchsorted(math.isqrt(X), "right"))
    small = list(zip(primes[:k].tolist(), step[:k].tolist()))
    # n <= X has at most one prime factor above sqrt(X); its cofactor m is
    # below sqrt(X), and n determines (m, p), so a segment's targets are
    # distinct
    large, big = primes[k:], step[k:].astype(np.uint8)
    m = np.arange(1, X // int(large[0]) + 1 if large.size else 1, dtype=np.int64)
    for lo in range(1, X + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, X + 1)
        col = np.zeros(hi - lo, dtype=np.uint8)
        for p, v in small:
            col[-lo % p::p] += v
        # per cofactor m, the large primes p with lo <= m p < hi
        first = large.searchsorted(-(-lo // m))
        count = large.searchsorted(-(-hi // m)) - first
        ends = np.cumsum(count)
        for a, b in _pair_blocks(ends):
            i = _ranges(first[a:b], count[a:b])
            n = np.repeat(m[a:b], count[a:b]) * large[i] - lo
            col[n] += 1 if inside is None else big[i]
        for a in range(0, col.size, _BLOCK_ROWS):
            cells = col[a:a + _BLOCK_ROWS]
            yield lo + a, lo + a + cells.size - 1, None, cells


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """first[j], first[j] + 1, ..., first[j] + count[j] - 1 for every j, in
    one int64 array."""
    i = np.repeat(first - (np.cumsum(count) - count), count)
    i += np.arange(i.size)
    return i


def _pair_blocks(ends: np.ndarray):
    """(a, b): consecutive slices of the rows with pairs, ends being the
    running pair count over the rows, each of at most _BLOCK_PAIRS pairs or
    else of one row."""
    a = int(ends.searchsorted(0, "right"))
    while a < ends.size:
        base = int(ends[a - 1]) if a else 0
        b = max(int(ends.searchsorted(base + _BLOCK_PAIRS, "right")), a + 1)
        yield a, b
        a = int(ends.searchsorted(ends[b - 1], "right"))


def _pieces(count: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, skip, count): every row's count[j] pairs cut into pieces of at
    most _BLOCK_PAIRS, in row order; a piece holds the pairs skip, skip + 1,
    ..., skip + count - 1 of its row, so that _pair_blocks over the pieces
    never yields more than _BLOCK_PAIRS pairs."""
    pieces = -(-count // _BLOCK_PAIRS)
    row = np.repeat(np.arange(count.size), pieces)
    skip = _ranges(np.zeros_like(pieces), pieces) * _BLOCK_PAIRS
    return row, skip, np.minimum(count[row] - skip, _BLOCK_PAIRS)


def _frontier(P: np.ndarray, X: int, g, total: int | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Unsorted (norm, omega, a) columns of every element of norm <= X,
    P being the prime norms <= X, one omega-level at a time; a counts an
    element's primes in g's class (g.inside), in uint8, and is None when g
    is None or has no class.

    total, when given, is the element count in closed form: the element cap
    is checked against it, the columns are allocated once at that size, and
    the enumeration must fill them exactly, else MonoidLdpError. Without it
    the columns grow by doubling.
    """
    if total is not None:
        _check_budget(total)
    inside = None if g is None else g.inside(P)
    In = None if inside is None else inside.astype(np.uint8)
    size = max(1024, 2 * P.size) if total is None else total
    # norm, a and nxt, the index of the first prime an element may take;
    # levels are contiguous slices, level 0 is 1
    cols = [np.empty(size, dtype=np.int64)]
    if In is not None:
        cols.append(np.empty(size, dtype=np.uint8))
    cols.append(np.empty(size, dtype=np.int32))
    for col in cols:
        col[0] = 0
    cols[0][0] = 1
    sizes = [1]
    XP = _quotients(P, X)
    start, stop = 0, 1  # the level: cols[k][start:stop]
    while start < stop:
        used = stop
        for first in range(start, stop, _BLOCK_PARENTS):
            last = min(first + _BLOCK_PARENTS, stop)
            # the live parents, those with a child: n * p_nxt <= X
            live = np.flatnonzero(cols[0][first:last] <= XP[cols[-1][first:last]])
            if not live.size:
                continue
            parents = [col[first:last][live] for col in cols]
            # per parent, the primes p_i with i >= nxt and n * p_i <= X
            count = P.searchsorted(X // parents[0], "right") - parents[-1]
            ends = np.cumsum(count)
            # pairs; each gives one child at least
            _check_budget(used + int(ends[-1]))
            for a, b in _pair_blocks(ends):
                children = _expand(P, XP, In, [col[a:b] for col in parents], count[a:b])
                n = children[0].size
                if used + n > cols[0].size:
                    if total is not None:
                        raise _count_error(X, total, f"more than {total}")
                    cols = [_grow(col, used, used + n) for col in cols]
                for col, child in zip(cols, children):
                    col[used:used + n] = child
                used += n
                _check_budget(used + int(ends[-1] - ends[b - 1]))
        sizes.append(used - stop)
        start, stop = stop, used
    if total is not None and stop != total:
        raise _count_error(X, total, stop)
    norm = cols[0][:stop].view(np.uint64)
    omega = np.repeat(np.arange(len(sizes), dtype=np.uint8), sizes)
    return norm, omega, cols[1][:stop] if In is not None else None


def _expand(P, XP, In, parents, count) -> list[np.ndarray]:
    """The children [norm, a, nxt] of a block of parents [norm, a, nxt]
    (no a when In is None): n * p_i^e <= X, e >= 1, for the count[j]
    primes i = nxt[j], nxt[j] + 1, ... of parent j; XP is _quotients(P, X)."""
    i = _ranges(parents[-1], count)
    p, xp = P[i], XP[i]
    cols = [np.repeat(parents[0], count) * p]
    if In is not None:
        cols.append(In[i] + np.repeat(parents[1], count))
    cols.append(i + 1)
    parts = []
    while cols[0].size:  # every exponent shares omega, a and nxt
        parts.append(cols)
        more = cols[0] <= xp  # n p^e <= X // p: one more power fits
        p, xp = p[more], xp[more]
        cols = [col[more] for col in cols]
        cols[0] *= p
    return [np.concatenate(part) for part in zip(*parts)]


def _quotients(P: np.ndarray, X: int) -> np.ndarray:
    """X // P[i] per prime, then a 0: n * P[i] <= X exactly when n <=
    XP[i], and index P.size, past the last prime, takes no n >= 1. int32,
    as every caller has X <= 1e8, the prime list's cap, below 2^31."""
    XP = np.zeros(P.size + 1, np.int32)
    XP[:-1] = X // P
    return XP


def _grow(col: np.ndarray, used: int, need: int) -> np.ndarray:
    """A larger copy of col's first used entries, room for need at least."""
    out = np.empty(max(need, 2 * col.size), dtype=col.dtype)
    out[:used] = col[:used]
    return out


def _count_error(X: int, total: int, built) -> MonoidLdpError:
    """The closed-form count and the frontier disagree: a fault of one."""
    return MonoidLdpError(
        f"the frontier built {built} elements of norm <= {X}, "
        f"where the closed-form count is {total}")


def _check_budget(at_least: int) -> None:
    """Raise when the element count, or a lower bound on it, exceeds the
    cap."""
    if at_least > _MAX_ELEMENTS:
        raise BudgetExceeded(
            f"enumeration exceeds {_MAX_ELEMENTS} elements",
            predicted=at_least, cap=_MAX_ELEMENTS,
        )


def element_counter(system: PrimeSystem, X: int) -> Callable[[int], int]:
    """count(y), the number of elements of norm <= y, for every 1 <= y <= X.

    Every system but Beurling answers in closed form and holds no element:
    the integers with y; poly:q with the sum of q^d over q^d <= y; quad:D,
    whose elements are the ideals, with sum_{d <= y} chi_D(d) floor(y/d)
    by the hyperbola method (_quad_counter). These take X up to
    _MAX_X_COUNT. A Beurling system is enumerated once at X by the
    frontier, norms only and under its caps, over the system's presorted
    norms up to X, and answers from the sorted norm column, which stays
    in memory (8 bytes per element) while the counter lives. Results for
    y > X are not counts.
    """
    if X < 1:
        raise ParameterError(f"X must be >= 1, got {X}")
    if isinstance(system, Integers):
        return int
    if isinstance(system, Beurling):
        _check_x(system, X)
        norm = _frontier(prime_norms(system, X), X, None)[0]
        norm.sort()
        # a Python int would promote the whole uint64 column on every lookup
        return lambda y: int(norm.searchsorted(np.uint64(y), "right"))
    if X > _MAX_X_COUNT:
        raise BudgetExceeded(f"closed-form count at X={X} exceeds budget",
                             predicted=X, cap=_MAX_X_COUNT)
    if isinstance(system, PolyOverFq):
        return partial(_poly_count, system.q)
    return _quad_counter(system.D, X)


def _poly_count(q: int, y: int) -> int:
    """The monic polynomials over F_q of norm q^d <= y: sum of q^d."""
    total, norm = 0, 1
    while norm <= y:
        total += norm
        norm *= q
    return total


def _quad_counter(D: int, X: int) -> Callable[[int], int]:
    """count(y) = sum_{d <= y} chi(d) floor(y/d) on quad:D, as the Dedekind
    zeta function is zeta(s) L(s, chi_D), for every y <= X.

    The hyperbola method with s = isqrt(y) gives it as
    sum_{d <= s} chi(d) floor(y/d) + sum_{m <= s} S(floor(y/m)) - S(s) s,
    S(n) being chi(1) + ... + chi(n), which is periodic mod |D| because chi
    is non-principal. Each y takes two int64 reductions of length s, exact
    while X <= _MAX_X_COUNT (the first sum is below y (1 + log s)). Answers
    are kept by y: the callers ask for floor(X / N) over many N, which takes
    at most 2 sqrt(X) values.
    """
    chi = _kronecker_table(D)
    m = chi.size
    S = np.cumsum(chi)  # S[r] = chi(1) + ... + chi(r), as chi(0) = 0
    d = np.arange(1, math.isqrt(X) + 1, dtype=np.int64)
    chi_d = chi[d % m]
    known: dict[int, int] = {}

    def count(y: int) -> int:
        c = known.get(y)
        if c is None:
            s = math.isqrt(y)
            q = y // d[:s]
            c = known[y] = int(chi_d[:s] @ q) + int(S[q % m].sum()) - int(S[s % m]) * s
        return c

    return count


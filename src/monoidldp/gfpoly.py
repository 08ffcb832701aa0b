"""Arithmetic over small finite fields and enumeration of monic irreducibles.

Supports GF(q) for q in {2, 3, 4, 5, 7, 8, 9}. Prime-power fields are built
as F_p[x]/(m(x)) with a fixed irreducible modulus; field elements are encoded
as integers 0..q-1 via base-p coefficient digits, so tables are exhaustively
checkable. A monic polynomial of degree d over GF(q) is encoded by the
integer index of its d low coefficients in base q (the leading 1 is implicit)
and has norm q^d.

Irreducibles of degree n are found by sieving: every reducible monic P of
degree n factors as f*h with f a minimal-degree irreducible factor, so deg f
<= n/2, and marking f*h over all irreducible f and all monic h of the
complementary degree covers exactly the reducibles. The products are formed
in bulk with numpy, never one pair at a time. For q != 2 the monic h of each
degree are a uint8 digit matrix, the irreducible f are stacked beside them,
and the low n digits of f*h come from a convolution through the field's add
and mul tables; a Horner pass encodes them as indices. Blocks of at most
_BLOCK_ROWS products bound the working arrays whatever the degree. For q = 2
polynomials are bit masks and the products carryless multiplies on uint64,
which beats the table lookups by far (degrees 1-18 on a 2-core VM: 0.012 s
against 0.42 s for the table path), so that field keeps its own path. The
count of monic irreducibles of degree n is (1/n) sum_{d|n} mu(d) q^(n/d),
which serves as an independent oracle.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import ParameterError

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9)

# modulus coefficients low -> high for the non-prime fields
_MODULI = {
    4: (2, (1, 1, 1)),      # x^2 + x + 1 over F_2
    8: (2, (1, 1, 0, 1)),   # x^3 + x + 1 over F_2
    9: (3, (1, 0, 1)),      # x^2 + 1 over F_3
}


def _digit_mul_mod(p: int, mod: tuple[int, ...], a: list[int], b: list[int]) -> list[int]:
    k = len(mod) - 1
    out = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    # reduce by the monic modulus
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(k):
                out[i - k + j] = (out[i - k + j] - c * mod[j]) % p
    return out[:k]


@functools.cache
def field(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(add, mul): the addition and multiplication tables of GF(q), q x q
    uint8 arrays, read-only, since the cache hands the same ones to every
    caller."""
    if q not in SUPPORTED_Q:
        raise ParameterError(f"unsupported field order q={q}; supported: {SUPPORTED_Q}")
    if q in _MODULI:
        p, mod = _MODULI[q]
        k = len(mod) - 1
    else:
        p, k, mod = q, 1, (0, 1)

    def digits(e: int) -> list[int]:
        return [(e // p**i) % p for i in range(k)]

    def undigits(ds: list[int]) -> int:
        return sum(d * p**i for i, d in enumerate(ds))

    add = np.array([[undigits([(x + y) % p for x, y in zip(digits(a), digits(b))])
                     for b in range(q)] for a in range(q)], dtype=np.uint8)
    mul = np.array([[undigits(_digit_mul_mod(p, mod, digits(a), digits(b)))
                     for b in range(q)] for a in range(q)], dtype=np.uint8)
    add.flags.writeable = mul.flags.writeable = False
    return add, mul


# rows (products f*h) per bulk-sieve block; bounds the sieve's working arrays
_BLOCK_ROWS = 1 << 18


@functools.cache
def irreducible_indices(q: int, n: int) -> np.ndarray:
    """Sorted indices of all monic irreducibles of degree exactly n: an
    int64 array, read-only, since the cache hands the same one to every
    caller."""
    if q not in SUPPORTED_Q:
        raise ParameterError(f"unsupported field order q={q}; supported: {SUPPORTED_Q}")
    if n < 1:
        raise ParameterError(f"degree must be >= 1, got {n}")
    reducible = _reducible_gf2(n) if q == 2 else _reducible_bulk(q, n)
    indices = np.flatnonzero(~reducible).astype(np.int64, copy=False)
    indices.flags.writeable = False
    return indices


def _monic_digits(q: int, degree: int, start: int, stop: int) -> np.ndarray:
    """Digits of the monic polynomials with indices start..stop-1, one per column.

    Row i holds the coefficients of t^i; row `degree` is the leading 1.
    """
    idx = np.arange(start, stop, dtype=np.int64)
    digits = np.ones((degree + 1, stop - start), dtype=np.uint8)
    for i in range(degree):
        idx, digits[i] = np.divmod(idx, q)
    return digits


def _reducible_bulk(q: int, n: int) -> np.ndarray:
    # digits are uint8 field elements; x*q + y indexes the flattened tables
    add, mul = (table.ravel() for table in field(q))
    reducible = np.zeros(q**n, dtype=bool)
    for a in range(1, n // 2 + 1):
        b = n - a
        fi = irreducible_indices(q, a)
        f = _monic_digits(q, a, 0, q**a)[:, fi]
        hstep = min(q**b, _BLOCK_ROWS)
        fstep = max(1, _BLOCK_ROWS // hstep)
        for hstart in range(0, q**b, hstep):
            h = _monic_digits(q, b, hstart, min(hstart + hstep, q**b))[:, None, :]
            for fstart in range(0, len(fi), fstep):
                fq = f[:, fstart:fstart + fstep, None] * np.uint8(q)
                # low n digits of f*h; f_a = h_b = 1, so the product's top is 1
                out = np.zeros((n, fq.shape[1], h.shape[2]), dtype=np.uint8)
                out[: b + 1] = mul[fq[0] + h]
                for i in range(1, a):
                    win = out[i : i + b + 1]
                    win[...] = add[win * np.uint8(q) + mul[fq[i] + h]]
                win = out[a:]
                win[...] = add[win * np.uint8(q) + h[:b]]
                code = np.zeros(out.shape[1:], dtype=np.int64)
                for i in range(n - 1, -1, -1):
                    code *= q
                    code += out[i]
                reducible[code] = True
    return reducible


def _reducible_gf2(n: int) -> np.ndarray:
    # bit i of the mask is the coefficient of t^i; bulk carryless multiply
    top = np.uint64(1 << n)
    reducible = np.zeros(1 << n, dtype=bool)
    for a in range(1, n // 2 + 1):
        b = n - a
        h = np.arange(1 << b, 1 << (b + 1), dtype=np.uint64)
        for fi in irreducible_indices(2, a).tolist():
            fbits = fi | (1 << a)
            acc = np.zeros(h.shape, dtype=np.uint64)
            shift = 0
            while fbits:
                if fbits & 1:
                    acc ^= h << np.uint64(shift)
                fbits >>= 1
                shift += 1
            reducible[(acc ^ top).astype(np.int64)] = True
    return reducible


def _term(c: int, i: int) -> str:
    if i == 0:
        return str(c)
    head = "" if c == 1 else str(c)
    return f"{head}t" if i == 1 else f"{head}t^{i}"


def _terms_table(q: int, lo: int, hi: int) -> list[str]:
    """The "+term" strings of the digits at powers lo..hi-1, high power first.

    Entry j is for the coefficients whose index in base q is j, the digit of
    t^lo lowest; a zero coefficient adds no term.
    """
    table = [""]
    for i in range(lo, hi):
        row = [""] + ["+" + _term(c, i) for c in range(1, q)]
        table = [head + tail for head in row for tail in table]
    return table


def monic_labels(q: int, degree: int, indices) -> list[str]:
    """The human-readable form of the monic polynomial of each index, all of
    one degree: e.g. "t^3+t+1", or "2t^2+t+2" for q=3.

    One np.divmod by q^(degree//2) splits each index into its high and low
    halves; a label is the leading term, then the high half's string, then
    the low half's, each looked up in a table of all q^k digit strings of
    that half.
    """
    half = degree // 2
    high, low = _terms_table(q, half, degree), _terms_table(q, 0, half)
    lead = _term(1, degree)
    hi, lo = np.divmod(np.asarray(indices, dtype=np.int64), q**half)
    return [lead + high[h] + low[l] for h, l in zip(hi.tolist(), lo.tolist())]


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    m, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            m = -m
        d += 1
    if n > 1:
        m = -m
    return m


def necklace_count(q: int, n: int) -> int:
    """Number of monic irreducibles of degree n over GF(q), by Moebius sum."""
    if q < 2 or n < 1:
        raise ParameterError(f"necklace_count needs q >= 2 and n >= 1, got q={q}, n={n}")
    total = sum(_mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n

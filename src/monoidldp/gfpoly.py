"""Arithmetic over small finite fields and enumeration of monic irreducibles.

Supports GF(q) for q in {2, 3, 4, 5, 7, 8, 9}. Prime-power fields are built
as F_p[x]/(m(x)) with a fixed irreducible modulus; field elements are encoded
as integers 0..q-1 via base-p coefficient digits, so tables are exhaustively
checkable. A monic polynomial of degree d over GF(q) is encoded by the
integer index of its d low coefficients in base q (the leading 1 is implicit)
and has norm q^d.

Irreducibles of degree n are found by sieving. A reducible monic of degree n
is a multiple of t (constant digit 0: every q-th index) or f*h, f irreducible
of degree a <= n/2 with f(0) != 0, h monic of degree b = n - a. The low b
digits of h run over all q^b residues mod t^b, and f(0) != 0 makes f a unit
mod t^b, so the low b digits L of f*h take every value 0..q^b-1 exactly once.
L fixes the high digits, the H of degree < a with t^b (t^a + H) = -L mod f:
H(L) = f_low + sum_j L_j A_j, A_j = -t^(j-b) mod f, and f*h has index
L + q^b H(L). One recurrence gives the A_j of every f: A_(b-1) = -1/t mod f
= (f - f(0)) / (t f(0)), A_(j-1) = A_j / t mod f. H is built by doubling over
L's digits, one field addition per product: XOR of packed digits for q = 2,
4, 8, and for odd q a lookup per k digits in a table of x + y (q^2k <= 2^16
entries, built per call). Blocks of at most _BLOCK_ROWS products bound the
working arrays. The necklace count (1/n) sum_{d|n} mu(d) q^(n/d) of monic
irreducibles of degree n is an independent oracle.
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


# products f*h per sieve block; bounds the sieve's working arrays
_BLOCK_ROWS = 1 << 18


@functools.cache
def irreducible_indices(q: int, n: int) -> np.ndarray:
    """Sorted indices of the monic irreducibles of degree n: a read-only int64
    array, since the cache hands the same one to every caller."""
    if q not in SUPPORTED_Q:
        raise ParameterError(f"unsupported field order q={q}; supported: {SUPPORTED_Q}")
    if n < 1:
        raise ParameterError(f"degree must be >= 1, got {n}")
    indices = np.flatnonzero(~_reducible(q, n)).astype(np.int64, copy=False)
    indices.flags.writeable = False
    return indices


def _span(H: np.ndarray, steps: np.ndarray, plus) -> np.ndarray:
    """Each step (groups, f, q) widens H (groups, f, w): H'[c w + r] = H[r] + step[c]."""
    for step in steps:
        H = plus(H[:, :, None, :], step[:, :, :, None]).reshape(*H.shape[:2], -1)
    return H


def _reducible(q: int, n: int) -> np.ndarray:
    """True at the index of each reducible monic of degree n."""
    reducible = np.zeros(q**n, dtype=bool)
    if n == 1:
        return reducible
    reducible[::q] = True  # the multiples of t
    add, mul = field(q)
    half, xor = n // 2, q in (2, 4, 8)
    if xor:  # a code holds every digit; the sum of two codes is their XOR
        k, scale, plus = half, 1, np.bitwise_xor
    else:  # x + y digit by digit, for codes of k digits, at table[x + q^k y]
        k = min(half, next(d for d in range(8, 0, -1) if q ** (2 * d) <= 1 << 16))
        table = np.zeros(1, dtype=np.uint8)
        for s in q ** np.arange(k):  # axes (y's top digit, y, x's top digit, x)
            table = (add.T[:, None, :, None] * np.uint8(s) + table.reshape(1, s, 1, s)).ravel()
        scale, plus = q**k, lambda x, y: table[x + y]
    groups = -(-half // k)
    fis = [irreducible_indices(q, a)[int(a == 1):] for a in range(1, half + 1)]  # all but t
    ends = np.cumsum([fi.size for fi in fis])
    f = np.zeros((groups * k + 1, ends[-1]), dtype=np.uint8)  # digits, low first
    for a, fi, end in zip(range(1, half + 1), fis, ends):
        f[:a + 1, end - fi.size:end] = (fi + q**a) // q ** np.arange(a + 1)[:, None] % q
    # S[i] = -t^-(i+1) mod f, for every f at once; A_j = S[b-1-j]
    S = np.zeros((n - 1, *f.shape), dtype=np.uint8)
    S[0, :-1] = mul[(mul == 1).argmax(axis=1)[f[0]], f[1:]]  # (f - f(0)) / (t f(0))
    minus_s0 = add.argmin(axis=1)[S[0, :-1]]  # -x is where x's add row is 0
    for i in range(1, n - 1):
        S[i, :-1] = add[S[i - 1, 1:], mul[S[i - 1, 0], minus_s0]]
    # codes[i, g, f, c]: digits g k .. g k + k - 1 of c S[i], in base q
    digits = mul[S[:, :-1, :, None], np.arange(q)].reshape(n - 1, groups, k, -1, q)
    codes = np.einsum("igknc,k->ignc", digits, q ** np.arange(k))
    lows = np.concatenate(fis) // q ** (k * np.arange(groups))[:, None] % q**k
    for a, end in zip(range(1, half + 1), ends):
        b, g, start = n - a, -(-a // k), end - fis[a - 1].size
        steps = codes[b - 1::-1, :g, start:end] * scale  # step j adds c A_j
        low = lows[:g, start:end, None]
        if xor:  # the index itself, L + q^b H: step j also sets L's digit j
            steps, low = steps * q**b, low * q**b
            steps += np.arange(q) * q ** np.arange(b)[:, None, None, None]
        # L's low m digits span the columns of a block, its high ones the rows
        m = next(m for m in range(b - b // 2, -1, -1) if q**m <= _BLOCK_ROWS)
        w = q**m
        hs = min(q ** (b - m), max(1, _BLOCK_ROWS // w))
        fs = max(1, _BLOCK_ROWS // (w * hs))
        for f0 in range(0, end - start, fs):
            cols = slice(f0, f0 + fs)
            lo = _span(low[:, cols], steps[:m, :, cols], plus)
            hi = _span(np.zeros_like(low[:, cols]), steps[m:, :, cols], plus) * np.int64(scale)
            for h0 in range(0, hi.shape[2], hs):
                H = plus(lo[:, :, None, :], hi[:, :, h0:h0 + hs, None])
                if not xor:  # L + q^b H, H's groups of k digits in base q^k
                    H = (np.einsum("g,g...->...", q ** (b + k * np.arange(g)), H)
                         + np.arange(h0 * w, h0 * w + H[0, 0].size).reshape(-1, w))
                reducible[H] = True
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

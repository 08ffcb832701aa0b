"""Finite-field tables and irreducible enumeration against brute-force oracles."""
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoidldp import gfpoly
from monoidldp.errors import ParameterError
from monoidldp.gfpoly import (
    SUPPORTED_Q,
    field,
    irreducible_indices,
    monic_labels,
    necklace_count,
)


# The scalar reference arithmetic the sieve is checked against.
def monic_coeffs(q: int, degree: int, index: int) -> tuple[int, ...]:
    """Low-to-high coefficients of the monic polynomial with this index."""
    low = [(index // q**i) % q for i in range(degree)]
    return tuple(low) + (1,)


def encode_low(q: int, low: tuple[int, ...]) -> int:
    return sum(c * q**i for i, c in enumerate(low))


def monic_label(q: int, degree: int, index: int) -> str:
    """The label of one index: monic_labels' single-index case."""
    return monic_labels(q, degree, (index,))[0]


def tables(q: int) -> tuple[list[list[int]], list[list[int]]]:
    """field(q)'s (add, mul) as nested lists, for the scalar oracles."""
    add, mul = field(q)
    return add.tolist(), mul.tolist()


def poly_mul(gf, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficient convolution over GF(q), gf being tables(q); inputs
    low-to-high."""
    out = [0] * (len(a) + len(b) - 1)
    add, mul = gf
    for i, ai in enumerate(a):
        if ai:
            row = mul[ai]
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add[out[i + j]][row[bj]]
    return tuple(out)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_field_axioms_exhaustive(q):
    for table in field(q):
        assert table.dtype == np.uint8 and table.shape == (q, q)
        assert not table.flags.writeable  # the cache hands it to every caller
    add, mul = tables(q)
    els = range(q)
    for a in els:
        assert add[a][0] == a
        assert mul[a][1] == a
        assert mul[a][0] == 0
        if a:  # a unique inverse
            assert mul[a].count(1) == 1
        for b in els:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in els:
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_field_rejects_unsupported_q():
    for q in (1, 6, 10, 12):
        with pytest.raises(ParameterError):
            field(q)
    with pytest.raises(ParameterError):
        irreducible_indices(6, 2)
    with pytest.raises(ParameterError):
        irreducible_indices(2, 0)


def _neg_table(gf):
    return [row.index(0) for row in gf[0]]


def _poly_rem(gf, neg, num, den):
    """Remainder of num modulo den (both low-to-high, den monic)."""
    add, mul = gf
    num = list(num)
    dd = len(den) - 1
    for top in range(len(num) - 1, dd - 1, -1):
        c = num[top]
        if c == 0:
            continue
        # den is monic, so the quotient digit is c itself
        for j in range(dd + 1):
            num[top - dd + j] = add[num[top - dd + j]][neg[mul[c][den[j]]]]
    return num[:dd]


def _max_degree(q, bound):
    """The largest n with q^n <= bound."""
    n = 0
    while q ** (n + 1) <= bound:
        n += 1
    return n


def _is_irreducible_by_division(gf, neg, q, n, index):
    f = monic_coeffs(q, n, index)
    for d in range(1, n // 2 + 1):
        for di in range(q**d):
            den = monic_coeffs(q, d, di)
            if not any(_poly_rem(gf, neg, f, den)):
                return False
    return True


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_irreducibles_match_long_division_oracle(q):
    gf = tables(q)
    neg = _neg_table(gf)
    for n in range(1, _max_degree(q, 1024) + 1):
        oracle = tuple(
            i for i in range(q**n) if _is_irreducible_by_division(gf, neg, q, n, i)
        )
        assert irreducible_indices(q, n).tolist() == list(oracle)
        assert len(oracle) == necklace_count(q, n)


def test_necklace_examples():
    assert necklace_count(2, 1) == 2
    assert necklace_count(2, 2) == 1
    assert necklace_count(2, 3) == 2
    assert necklace_count(2, 4) == 3
    assert necklace_count(2, 5) == 6
    assert necklace_count(3, 1) == 3
    assert necklace_count(3, 2) == 3
    assert necklace_count(4, 3) == 20
    with pytest.raises(ParameterError):
        necklace_count(1, 3)
    with pytest.raises(ParameterError):
        necklace_count(2, 0)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_gauss_identity(q):
    # summing d * N(q, d) over divisors d of n counts all monic degree-n polys
    for n in range(1, 9):
        total = sum(
            d * necklace_count(q, d) for d in range(1, n + 1) if n % d == 0
        )
        assert total == q**n


def test_monic_label_examples():
    assert monic_label(2, 3, 0) == "t^3"
    assert monic_label(2, 3, 1) == "t^3+1"
    assert monic_label(2, 3, 2) == "t^3+t"
    assert monic_label(2, 3, 3) == "t^3+t+1"
    assert monic_label(3, 2, 5) == "t^2+t+2"  # index 5 = 2 + 1*3, low digit first
    assert monic_label(3, 2, 7) == "t^2+2t+1"
    assert monic_label(2, 1, 1) == "t+1"


def test_monic_coeffs_roundtrip():
    for q in (2, 3, 5):
        for n in (1, 2, 3):
            seen = set()
            for i in range(q**n):
                coeffs = monic_coeffs(q, n, i)
                assert coeffs[-1] == 1 and len(coeffs) == n + 1
                assert encode_low(q, coeffs[:n]) == i
                seen.add(coeffs)
            assert len(seen) == q**n


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from(SUPPORTED_Q),
    data=st.data(),
)
def test_poly_mul_commutes_and_adds_degrees(q, data):
    gf = tables(q)
    deg = st.integers(min_value=0, max_value=4)
    da, db = data.draw(deg), data.draw(deg)
    coeff = st.integers(min_value=0, max_value=q - 1)
    a = tuple(data.draw(coeff) for _ in range(da)) + (1,)
    b = tuple(data.draw(coeff) for _ in range(db)) + (1,)
    ab = poly_mul(gf, a, b)
    assert ab == poly_mul(gf, b, a)
    assert len(ab) == da + db + 1 and ab[-1] == 1  # monic times monic is monic
    c = tuple(data.draw(coeff) for _ in range(data.draw(deg))) + (1,)
    assert poly_mul(gf, ab, c) == poly_mul(gf, a, poly_mul(gf, b, c))


def test_irreducible_counts_against_necklace_all_q():
    for q in SUPPORTED_Q:
        for n in (1, 2, 3):
            assert len(irreducible_indices(q, n)) == necklace_count(q, n)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_irreducible_counts_match_necklace_up_to_6e5(q):
    for n in range(1, _max_degree(q, 600_000) + 1):
        assert len(irreducible_indices(q, n)) == necklace_count(q, n), (q, n)


def _monic_digits(q: int, degree: int, start: int, stop: int) -> np.ndarray:
    """Digits of the monic polynomials with indices start..stop-1, one per column.

    Row i holds the coefficients of t^i; row `degree` is the leading 1.
    """
    idx = np.arange(start, stop, dtype=np.int64)
    digits = np.ones((degree + 1, stop - start), dtype=np.uint8)
    for i in range(degree):
        idx, digits[i] = np.divmod(idx, q)
    return digits


@functools.cache
def convolution_sieve(q: int, n: int, block: int = 1 << 18) -> np.ndarray:
    """The reducible mask by direct products: the digits of every irreducible
    f of degree a <= n/2 (t included) convolved with those of every monic h of
    degree n - a through field(q)'s tables, each product encoded by Horner.
    Its irreducibles of lower degree come from itself, not from the sieve."""
    add, mul = (table.ravel() for table in field(q))  # x*q + y indexes the tables
    reducible = np.zeros(q**n, dtype=bool)
    for a in range(1, n // 2 + 1):
        b = n - a
        fi = np.flatnonzero(~convolution_sieve(q, a))
        f = _monic_digits(q, a, 0, q**a)[:, fi]
        hstep = min(q**b, block)
        fstep = max(1, block // hstep)
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


@pytest.mark.parametrize("n", range(1, 15))
def test_bulk_sieve_matches_gf2_bitmask_sieve(n):
    # GF(2): the packed XOR sieve against the uint8 table convolution; the two
    # share no arithmetic but field(2)
    assert np.array_equal(gfpoly._reducible(2, n), convolution_sieve(2, n))


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_sieve_matches_convolution_oracle(q):
    for n in range(1, _max_degree(q, 1 << 16) + 1):
        assert np.array_equal(gfpoly._reducible(q, n), convolution_sieve(q, n)), n


@pytest.mark.parametrize("q,n", [(3, 12), (5, 8), (7, 6), (9, 6)])
def test_sieve_with_several_digit_groups_matches_convolution_oracle(q, n):
    # n/2 digits no longer fit one addition table of <= 2^16 entries
    assert np.array_equal(gfpoly._reducible(q, n), convolution_sieve(q, n))


@pytest.mark.parametrize("q,n", [(3, 7), (4, 5), (9, 4), (2, 12)])
def test_bulk_sieve_is_independent_of_block_size(monkeypatch, q, n):
    want = convolution_sieve(q, n)
    assert np.array_equal(gfpoly._reducible(q, n), want)
    # 7 products, no multiple of any q^b with b >= 1: blocks split L's low
    # digits from its high ones, the high rows and the stack of f
    monkeypatch.setattr(gfpoly, "_BLOCK_ROWS", 7)
    assert np.array_equal(gfpoly._reducible(q, n), want)


def _sieve_peak(q, n):
    """tracemalloc's peak over a cold irreducible_indices(q, n), every lower
    degree included."""
    irreducible_indices.cache_clear()
    tracemalloc.start()
    try:
        assert len(irreducible_indices(q, n)) == necklace_count(q, n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_sieve_memory_is_bounded():
    assert _sieve_peak(3, 12) < 64 * 2**20


def test_sieve_memory_is_bounded_at_3_to_the_14():
    # the mask takes 4.6 MB and the 341,484 irreducibles 2.6 MB; one int64
    # per monic of degree 14 would take 38 MB
    assert _sieve_peak(3, 14) < 24 * 2**20


def _label_from_coeffs(q, degree, index):
    """Reference label: nonzero terms of monic_coeffs, highest degree first."""
    coeffs = monic_coeffs(q, degree, index)
    terms = []
    for i in range(degree, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}t" if i == 1 else f"{head}t^{i}")
    return "+".join(terms)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_monic_labels_match_monic_label(q):
    cases = [(d, range(min(q**d, 500))) for d in range(0, 5)]
    cases.append((5, irreducible_indices(q, 5)))
    for d, idx in cases:
        labels = monic_labels(q, d, idx)
        assert labels == [monic_label(q, d, i) for i in idx]
        assert labels == [_label_from_coeffs(q, d, i) for i in idx]


def test_irreducible_indices_are_a_read_only_cached_array():
    indices = irreducible_indices(3, 4)
    assert indices.dtype == np.int64
    assert indices is irreducible_indices(3, 4)
    with pytest.raises(ValueError):
        indices[0] = 0


def _per_digit_labels(q, degree, indices):
    """The per-digit monic_labels: one divmod per digit per label."""
    lead = gfpoly._term(1, degree)
    table = [(q**i, [gfpoly._term(c, i) for c in range(q)])
             for i in range(degree - 1, -1, -1)]
    out = []
    for index in indices:
        terms = [lead]
        for power, row in table:
            c, index = divmod(index, power)
            if c:
                terms.append(row[c])
        out.append("+".join(terms))
    return out


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_half_table_labels_match_per_digit_labels(q):
    # every index of every degree with q^d <= 2^16, reducible ones too;
    # degree 1 has an empty low half, and the last index has every digit q-1
    degree = 1
    while q**degree <= 1 << 16:
        idx = range(q**degree)
        assert monic_labels(q, degree, idx) == _per_digit_labels(q, degree, idx)
        assert monic_labels(q, degree, [q**degree - 1]) == [
            _label_from_coeffs(q, degree, q**degree - 1)]
        degree += 1
    assert monic_labels(q, 3, []) == []

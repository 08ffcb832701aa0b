"""Prime systems, counting axioms, and density fits against direct oracles."""
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoidldp import additive, gfpoly, systems
from monoidldp.additive import NormResidue, Omega, rho_X
from monoidldp.errors import BudgetExceeded, DegenerateGrid, ParameterError, SourceError
from monoidldp.exact import expect_Z, tail_mass
from monoidldp.experiments import gap_sweep
from monoidldp.gfpoly import SUPPORTED_Q
from monoidldp.monoid import element_counter
from monoidldp.systems import (
    Beurling,
    Integers,
    PolyOverFq,
    QuadraticField,
    _is_fundamental_discriminant,
    _kronecker_table,
    density_fit,
    list_primes,
    mertens_sum,
    prime_count_check,
    prime_norms,
    primes_upto,
)
from tables import count_table


def _pairs(system, X):
    """list_primes' two columns zipped into (norm, label) pairs."""
    norms, labels = list_primes(system, X)
    assert len(norms) == len(labels)
    return list(zip(norms.tolist(), labels))


def test_integer_primes():
    assert list_primes(Integers(), 30)[0].tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert list_primes(Integers(), 10)[1] == ["2", "3", "5", "7"]
    norms, labels = list_primes(Integers(), 1)
    assert norms.dtype == np.int64 and norms.size == 0 and labels == []
    with pytest.raises(ParameterError):
        list_primes(Integers(), 0)


def test_primes_upto_against_trial_division():
    def is_prime(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    # every X from 0, and around the squares p^2 of the odd primes to 19,
    # where the sieve's last crossing-out prime changes
    squares = [p * p for p in (3, 5, 7, 11, 13, 17, 19)]
    for X in sorted({*range(201), *(s + d for s in squares for d in (-1, 0, 1))}):
        got = primes_upto(X)
        assert got.dtype == np.int64
        assert got.tolist() == [n for n in range(2, X + 1) if is_prime(n)], X
    assert primes_upto(10**6).size == 78_498
    assert primes_upto(3 * 10**6).size == 216_816
    assert not hasattr(primes_upto, "cache_info")


def test_poly_primes_gf2():
    norms, labels = list_primes(PolyOverFq(2), 8)
    assert norms.tolist() == [2, 2, 4, 8, 8]
    assert labels == ["t", "t+1", "t^2+t+1", "t^3+t+1", "t^3+t^2+1"]


def test_poly_primes_counts_match_necklace():
    from monoidldp.gfpoly import necklace_count

    for q in (2, 3, 5):
        # a label's leading term t^d gives its degree, so the label column
        # is counted per degree apart from the necklace formula
        labels = list_primes(PolyOverFq(q), q**4)[1]
        lead = [label.split("+")[0] for label in labels]
        for d in range(1, 5):
            assert lead.count("t" if d == 1 else f"t^{d}") == necklace_count(q, d)


def test_quadratic_entries_gaussian():
    # Q(i): 2 ramifies, p = 1 mod 4 splits, p = 3 mod 4 is inert with norm p^2
    assert _pairs(QuadraticField(-4), 25) == [
        (2, "(2,r)"),
        (5, "(5,s1)"), (5, "(5,s2)"),
        (9, "(3,i)"),
        (13, "(13,s1)"), (13, "(13,s2)"),
        (17, "(17,s1)"), (17, "(17,s2)"),
    ]


def test_quadratic_rejects_bad_discriminant():
    for D in (0, 1, 2, 3, -3 * 4, 10**4, 101, -101):  # 101 is fundamental but over the size cap
        with pytest.raises(ParameterError):
            QuadraticField(D)
    # these are fundamental
    for D in (-4, -8, -3, 5, 8, -7, 12, 13, 97):
        QuadraticField(D)


def kronecker_at_prime(D, p):
    """The scalar Kronecker symbol (D/p) for a rational prime p: the oracle
    of the array symbol _kronecker."""
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    r = D % p
    if r == 0:
        return 0
    # Euler's criterion
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def _kronecker(D, p):
    """The Kronecker symbol (D/p) for an int64 array of rational primes:
    the Euler-criterion oracle of _kronecker_table, which reads chi_D mod
    |D|.

    Odd p use Euler's criterion, r^((p-1)/2) mod p by square-and-multiply
    in int64; every product is below p^2, so this is exact while
    p^2 < 2^63. (D/2) is 0 for even D, else 1 or -1 as D = +-1 or +-3
    mod 8.
    """
    r = D % p
    result = np.ones_like(p)
    base, e = r, (p - 1) // 2
    while e.any():
        result = np.where(e & 1, result * base % p, result)
        base = base * base % p
        e >>= 1
    chi = np.where(result == 1, 1, -1)
    chi[r == 0] = 0
    if D % 2:
        chi[p == 2] = 1 if D % 8 in (1, 7) else -1
    return chi


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a, result = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


FUNDAMENTAL = (-3, -4, -7, -8, -11, -15, -19, -20, 5, 8, 12, 13, 17, 21, 24, 97)


@pytest.mark.parametrize("D", FUNDAMENTAL)
def test_kronecker_against_square_counting(D):
    for p in [int(v) for v in primes_upto(200)]:
        chi = kronecker_at_prime(D, p)
        if p == 2:
            if D % 2 == 0:
                assert chi == 0
            else:
                assert chi == (1 if D % 8 in (1, 7) else -1)
            continue
        if D % p == 0:
            assert chi == 0
        else:
            squares = {(x * x) % p for x in range(1, p)}
            assert chi == (1 if D % p in squares else -1)


def test_quadratic_splitting_matches_character():
    # ideal count above odd unramified p: 2 if chi = 1 else 0 at norm p
    for D in (-4, 5, -7):
        norms = list_primes(QuadraticField(D), 1000)[0]
        for p in [int(v) for v in primes_upto(1000)]:
            if p == 2 or D % p == 0:
                continue
            chi = kronecker_at_prime(D, p)
            assert int((norms == p).sum()) == (2 if chi == 1 else 0)


def test_beurling_file_parsing(tmp_path):
    f = tmp_path / "norms.txt"
    f.write_text("# toy system\n\n2\n3\n\n# another comment\n2\n")
    b = Beurling.from_file(str(f))
    assert b.norms == (2, 3, 2)
    assert _pairs(b, 10) == [
        (2, "beurling#1"), (2, "beurling#3"), (3, "beurling#2"),
    ]

    bad = tmp_path / "bad.txt"
    bad.write_text("2\nxyz\n")
    with pytest.raises(SourceError, match=r"bad\.txt:2"):
        Beurling.from_file(str(bad))

    low = tmp_path / "low.txt"
    low.write_text("2\n1\n")
    with pytest.raises(SourceError, match=r"low\.txt:2"):
        Beurling.from_file(str(low))

    with pytest.raises(SourceError):
        Beurling.from_file(str(tmp_path / "missing.txt"))

    with pytest.raises(SourceError):
        Beurling((2, 1))


def test_mertens_examples():
    s10, _ = mertens_sum(prime_norms(Integers(), 10), 10)
    assert math.isclose(s10, 1 / 2 + 1 / 3 + 1 / 5 + 1 / 7, rel_tol=0, abs_tol=1e-15)
    s100, d100 = mertens_sum(prime_norms(Integers(), 100), 100)
    assert math.isclose(s100, 1.802817201048871, abs_tol=1e-12)
    assert math.isclose(d100, s100 - math.log(math.log(100)), abs_tol=1e-12)
    with pytest.raises(ParameterError):
        mertens_sum(prime_norms(Integers(), 2), 2)


@pytest.mark.parametrize("system", [Integers(), QuadraticField(-4), PolyOverFq(3),
                                    Beurling((2, 3, 3, 7))], ids=lambda s: s.key)
def test_prime_norms_and_mertens_sum_match_the_prime_list(system):
    longer = prime_norms(system, 2 * 10**5)
    for X in (3, 100, 6561, 10**5):
        listed = [n for n, _ in _entries_oracle(system, X)]
        norms = prime_norms(system, X)
        assert norms.dtype == np.int64
        assert norms.tolist() == listed
        # the correctly rounded sum, whatever the order of the terms
        total = math.fsum(1.0 / n for n in reversed(listed))
        assert mertens_sum(norms, X) == (total, total - math.log(math.log(X)))
        assert prime_count_check(norms, X) == len(listed) * math.log(X) / X
        # the same from the prefix of a longer array
        assert mertens_sum(longer, X) == mertens_sum(norms, X)
        assert prime_count_check(longer, X) == prime_count_check(norms, X)


@pytest.mark.parametrize("system,X", [(Integers(), 10**7), (QuadraticField(-4), 10**7),
                                      (PolyOverFq(2), 2**23)], ids=lambda v: getattr(v, "key", v))
def test_reciprocal_sum_streams_the_whole_list_fsum(system, X):
    # the sum of 1/N(p) behind mertens_sum and tail_mass: fsum fed in
    # blocks gives the bits of fsum over one list of every reciprocal, which
    # would hold ~32 bytes per prime (a float object and its pointer)
    norms = prime_norms(system, X)
    assert norms.size > 5 * 10**5
    want = math.fsum((1.0 / norms).tolist())
    tracemalloc.start()
    try:
        got = systems._reciprocal_sum(norms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.hex() == want.hex()
    assert peak < 8 * norms.size, f"{peak / norms.size:.2f} bytes per prime"


@pytest.mark.parametrize("n,sizes", [(0, []), (1, [1]), (1 << 16, [1 << 16]),
                                     ((1 << 16) + 1, [1 << 16, 1])])
def test_chunks_are_consecutive_views_of_2_16_entries(n, sizes):
    a = np.arange(n, dtype=np.int64)
    parts = list(systems.chunks(a))
    assert [part.size for part in parts] == sizes
    assert all(np.shares_memory(part, a) for part in parts)
    assert [v for part in parts for v in part.tolist()] == a.tolist()


# tracemalloc sees NumPy's buffers. rho_X reads the norms through chunks and
# keeps two Python ints, one sum per class of g, and tail_mass integrates
# rho_X's atoms. At 1e6 (78,498 primes on the integers) what they hold is
# mostly one chunk's Python ints, and for tail_mass the prime list it
# builds: 24-41 and 32-49 bytes per prime. At 1e7 that one chunk is spread
# over ten times the primes, and rho_X holds 3-5 bytes per prime.
RESIDUE = NormResidue(4, frozenset({1}), 2.0, 0.5)


def _peak_bytes_per_prime(run, primes):
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / primes


@pytest.mark.parametrize("system", [Integers(), QuadraticField(-4)], ids=lambda s: s.key)
@pytest.mark.parametrize("g", [RESIDUE, Omega()], ids=lambda g: g.key)
@pytest.mark.parametrize("name,bound", [("rho_X", 64), ("tail_mass", 64)])
def test_prime_measures_hold_no_python_object_per_prime(system, g, name, bound):
    X = 10**6
    norms = prime_norms(system, X)
    run = {"rho_X": lambda: rho_X(norms, g, X),
           "tail_mass": lambda: tail_mass(system, g, X, 0.1, 1.0)}[name]
    per_prime = _peak_bytes_per_prime(run, norms.size)
    assert per_prime <= bound, f"{per_prime:.2f} bytes per prime"


@pytest.mark.parametrize("system", [Integers(), QuadraticField(-4)], ids=lambda s: s.key)
def test_rho_x_keeps_two_sums_not_two_arrays(system):
    # a copy of the norms per class would be 8 bytes per prime by itself
    X = 10**7
    norms = prime_norms(system, X)
    per_prime = _peak_bytes_per_prime(lambda: rho_X(norms, RESIDUE, X), norms.size)
    assert per_prime <= 8, f"{per_prime:.2f} bytes per prime"


TAIL_SYSTEMS = [pytest.param(system, X, id=system.key) for system, X in [
    (Integers(), 10**6), (QuadraticField(-4), 10**6), (PolyOverFq(2), 2**21),
    (Beurling(tuple(range(2, 20000, 3))), 20000)]]


@pytest.mark.parametrize("system,X", TAIL_SYSTEMS)
@pytest.mark.parametrize("C", [0.1, 1.0])
def test_tail_mass_is_the_fsum_over_rho_x_atoms(system, X, C):
    # the integral reads rho_X and sums nothing over the primes itself
    atoms = rho_X(prime_norms(system, X), RESIDUE, X).atoms
    want = math.fsum(w * math.expm1(0.5 * y) for y, w in atoms if y > C)
    assert tail_mass(system, RESIDUE, X, C, 0.5).hex() == want.hex()


@functools.cache
def _exact_class_sums(system, X):
    """Each of RESIDUE's atoms y with the sum of 1/N(p) over the primes
    attaining it, and their total, as unreduced tree-sum fractions."""
    norms = prime_norms(system, X)
    inside = RESIDUE.inside(norms)
    sums = {y: additive._tree_sum([(1, n) for n in ns.tolist()])
            for y, ns in ((2.0, norms[inside]), (0.5, norms[~inside])) if ns.size}
    return sums, additive._tree_sum(list(sums.values()))


@pytest.mark.parametrize("system,X", TAIL_SYSTEMS)
@pytest.mark.parametrize("C", [0.1, 1.0])
def test_tail_mass_is_within_2_ulp_of_the_exact_integral(system, X, C):
    # each atom's exact weight, an unreduced fraction of tree sums, times
    # the exact value of its expm1, summed as one fraction and rounded once
    sums, (tot_n, tot_d) = _exact_class_sums(system, X)
    num, den = 0, 1
    for y, (n, d) in sums.items():
        if y > C:
            e = math.expm1(0.5 * y).as_integer_ratio()
            term_n, term_d = n * tot_d * e[0], d * tot_n * e[1]
            num, den = num * term_d + term_n * den, den * term_d
    want = num / den
    got = tail_mass(system, RESIDUE, X, C, 0.5)
    assert abs(got - want) <= 2 * math.ulp(want)


def test_prime_count_check():
    # pi(X) log X / X: 1.1043 at 1e5 per the prime counting function
    norms = prime_norms(Integers(), 10**5)
    assert math.isclose(prime_count_check(norms, 10**5), 9592 * math.log(10**5) / 10**5, rel_tol=1e-12)
    v = prime_count_check(prime_norms(Beurling((2, 3, 5)), 10), 10)
    assert math.isclose(v, 3 * math.log(10) / 10, rel_tol=1e-12)


def test_element_counter_integers_and_poly():
    assert element_counter(Integers(), 1000)(1000) == 1000
    # monic polynomials of degree <= n over F_2, unit included
    assert element_counter(PolyOverFq(2), 2**6)(2**6) == 2**7 - 1
    assert element_counter(Beurling(()), 100)(100) == 1


def test_density_integers_exact():
    fit = density_fit(Integers(), [100, 1000, 10000, 100000])
    assert fit.status == "EXACT"
    assert fit.a_hat == 1.0
    assert fit.b_hat == 0.0
    assert all(r == 0.0 for _, r in fit.residuals)


def test_density_poly_snaps_to_powers():
    grid = sorted([2**k for k in range(4, 17)] + [1000])  # 1000 is not a power of 2
    fit = density_fit(PolyOverFq(2), grid)
    assert fit.unsupported == (1000,)
    assert fit.status == "OK"
    assert abs(fit.a_hat - 2.0) < 1e-3
    assert 0.0 <= fit.b_hat < 1.0


def test_density_quadratic_gaussian():
    fit = density_fit(QuadraticField(-4), [100, 1000, 10000, 100000])
    assert fit.status == "OK"
    assert abs(fit.a_hat - math.pi / 4) < 0.01


def test_density_beurling_23():
    fit = density_fit(Beurling((2, 3)), [100, 1000, 10000, 100000])
    # the {2,3}-smooth counting function is (log X)^2-ish, far from linear
    assert fit.status == "FAILED"


def test_density_beurling_222_fails():
    fit = density_fit(Beurling((2, 2, 2)), [16, 64, 256, 1024])
    assert fit.status == "FAILED"


def test_density_grid_validation():
    # a degenerate grid is an unsupported parameter, exit 65 in the CLI
    assert issubclass(DegenerateGrid, ParameterError)
    with pytest.raises(DegenerateGrid):
        density_fit(Integers(), [10, 100, 1000])
    with pytest.raises(DegenerateGrid):
        density_fit(Integers(), [10, 100, 100, 1000])
    with pytest.raises(DegenerateGrid):
        density_fit(PolyOverFq(2), [10, 100, 1000, 10000])  # no powers of 2


@settings(max_examples=40, deadline=None)
@given(
    x1=st.integers(min_value=2, max_value=300),
    x2=st.integers(min_value=2, max_value=300),
)
def test_list_primes_prefix_stability(x1, x2):
    lo, hi = sorted((x1, x2))
    sys_ = QuadraticField(-4)
    small, big = _pairs(sys_, lo), _pairs(sys_, hi)
    assert small == [(n, label) for n, label in big if n <= lo]


def test_list_primes_sorted_and_immutable():
    # columns, in (norm, label) order; a second call returns fresh, equal
    # columns, so a caller that writes to its columns changes no other's
    for system in (Integers(), QuadraticField(-4), PolyOverFq(3), Beurling((3, 2, 3, 2))):
        norms, labels = list_primes(system, 100)
        assert isinstance(norms, np.ndarray) and isinstance(labels, list)
        assert _pairs(system, 100) == sorted(zip(norms.tolist(), labels))
        again_norms, again_labels = list_primes(system, 100)
        assert again_norms is not norms and again_labels is not labels
        assert not np.shares_memory(again_norms, norms)
        norms[0], labels[0] = -1, "changed"
        assert list_primes(system, 100)[0].tolist() == again_norms.tolist()
        assert list_primes(system, 100)[1] == again_labels


def test_beurling_prime_norms_are_fresh_prefixes():
    # the norms are sorted once, when the system is built; each call copies
    # the prefix up to X, so writing to one result changes no later one.
    # X = 2 is below the smallest norm, 3 a repeated norm, 1e8 above the
    # largest; a norm past the sieve's cap is never read
    system = Beurling((7, 3, 5, 2**70, 3, 11, 3))
    for X, want in ((2, []), (3, [3, 3, 3]), (10**8, [3, 3, 3, 5, 7, 11])):
        norms = prime_norms(system, X)
        assert norms.dtype == np.int64 and norms.tolist() == want
        norms[:] = -1
        assert prime_norms(system, X).tolist() == want


ALL_FUNDAMENTAL = [D for D in range(-100, 101) if _is_fundamental_discriminant(D)]


def test_array_kronecker_matches_the_scalar_symbol():
    assert len(ALL_FUNDAMENTAL) == 61 and set(FUNDAMENTAL) <= set(ALL_FUNDAMENTAL)
    primes = primes_upto(10**5)
    for D in ALL_FUNDAMENTAL:
        chi = _kronecker(D, primes)
        assert chi.tolist() == [kronecker_at_prime(D, p) for p in primes.tolist()], D


def test_kronecker_table_matches_the_jacobi_symbol():
    # (D/n) = (D/2)^k (D/n') for n = 2^k n' with n' odd, (D/n') a Jacobi symbol
    for D in ALL_FUNDAMENTAL:
        want = [0]
        for n in range(1, abs(D)):
            k = (n & -n).bit_length() - 1
            want.append(kronecker_at_prime(D, 2) ** k * _jacobi(D, n >> k))
        table = _kronecker_table(D)
        assert table.dtype == np.int64 and table.tolist() == want, D
        assert table.sum() == 0  # non-principal: a period sums to 0


def test_kronecker_table_at_primes_matches_the_array_symbol():
    primes = primes_upto(10**5)
    for D in ALL_FUNDAMENTAL:
        chi = _kronecker_table(D)[primes % abs(D)]
        assert np.array_equal(chi, _kronecker(D, primes)), D


def _quad_norms_by_euler(D, X):
    """The prime ideal norms of quad:D up to X with (D/p) from _kronecker,
    Euler's criterion at every rational prime: a second path to prime_norms,
    which reads chi_D from its table mod |D|."""
    p = primes_upto(X)
    chi = _kronecker(D, p)
    split = p[chi == 1]
    inert = p[chi == -1]
    inert = inert[: inert.searchsorted(math.isqrt(X), "right")]
    return np.sort(np.concatenate([split, split, p[chi == 0], inert * inert]))


@pytest.mark.parametrize("X", [1, 2, 3, 4, 10**5])
def test_quad_prime_norms_match_euler_criterion(X):
    for D in ALL_FUNDAMENTAL:
        norms = prime_norms(QuadraticField(D), X)
        assert norms.dtype == np.int64, D
        assert np.array_equal(norms, _quad_norms_by_euler(D, X)), D


@pytest.mark.parametrize("system", [Integers(), QuadraticField(-4), PolyOverFq(3),
                                    Beurling((2, 3))], ids=lambda s: s.key)
@pytest.mark.parametrize("X", [0, -1])
def test_prime_norms_rejects_x_below_one(system, X):
    for read in (prime_norms, list_primes):
        with pytest.raises(ParameterError):
            read(system, X)


@pytest.mark.parametrize("system", [Integers(), QuadraticField(-4), PolyOverFq(3),
                                    Beurling((2, 3))], ids=lambda s: s.key)
def test_prime_layer_cap_is_exact(monkeypatch, system):
    monkeypatch.setattr(systems, "_MAX_X_SIEVE", 100)
    assert prime_norms(system, 100).tolist() == list_primes(system, 100)[0].tolist()
    for read in (prime_norms, list_primes):
        with pytest.raises(BudgetExceeded) as err:
            read(system, 101)
        assert (err.value.predicted, err.value.cap) == (101, 100)


SMALL_XS = (1, 2, 3, 4, 9, 10, 25, 26, 1000, 54321)
NORM_CASES = (
    [(Integers(), SMALL_XS), (Beurling((2, 3, 3, 5, 7, 7)), SMALL_XS)]
    + [(QuadraticField(D), SMALL_XS) for D in ALL_FUNDAMENTAL]
    # around every power of q up to 6561, where a new degree starts
    + [(PolyOverFq(q), [x for k in range(1, 14) if q**k <= 6561 for x in (q**k - 1, q**k)])
       for q in SUPPORTED_Q]
)


@pytest.mark.parametrize("system,grid", NORM_CASES, ids=[s.key for s, _ in NORM_CASES])
def test_prime_norms_match_list_primes(system, grid):
    # at the inert squares 9 and 25, past them, and where a degree starts
    for X in grid:
        norms = prime_norms(system, X)
        listed, labels = list_primes(system, X)
        assert norms.dtype == listed.dtype == np.int64
        assert np.array_equal(norms, listed), X
        assert list(zip(listed.tolist(), labels)) == _entries_oracle(system, X), X


def _refuse(*args, **kwargs):
    raise AssertionError("a prime label was built")


@pytest.mark.parametrize("system,X", [(QuadraticField(-4), 20000), (PolyOverFq(3), 3**8)],
                         ids=lambda v: getattr(v, "key", str(v)))
def test_computation_builds_no_labels(system, X, monkeypatch):
    from monoidldp import exact

    g = NormResidue(4, frozenset({1}), 2.0, 0.5)

    def run():
        t = count_table(system, X, g)
        return (t.norm.tolist(), t.omega.tolist(), t.gsum.tolist(),
                element_counter(system, X)(X // 3), rho_X(prime_norms(system, X), g, X),
                tail_mass(system, g, X, 1.0, 1.0), mertens_sum(prime_norms(system, X), X),
                gap_sweep(system, g, [X], 5.0, 1.0).rows[0],
                expect_Z(system, X, prime_norms(system, 5).tolist()))

    expected = run()
    for module in (systems, exact):
        monkeypatch.setattr(module, "list_primes", _refuse)
    for module in (systems, gfpoly):
        monkeypatch.setattr(module, "monic_labels", _refuse)
    assert run() == expected


def _poly_label(q, degree, index):
    """The label of one monic polynomial, term by term from the base-q
    digits of its index, low digit first."""
    coeffs = [(index // q**i) % q for i in range(degree)] + [1]
    terms = []
    for i in range(degree, -1, -1):
        c = coeffs[i]
        if c and i == 0:
            terms.append(str(c))
        elif c:
            terms.append(("" if c == 1 else str(c)) + ("t" if i == 1 else f"t^{i}"))
    return "+".join(terms)


def _entries_oracle(system, X):
    """The per-prime (norm, label) pairs that list_primes' columns replaced,
    built one prime at a time, in (norm, label) order: quadratic fields by
    the scalar Kronecker symbol, PolyOverFq by the irreducible sieve's
    indices (not the necklace count) and scalar labels."""
    if isinstance(system, Integers):
        out = [(p, str(p)) for p in primes_upto(X).tolist()]
    elif isinstance(system, QuadraticField):
        out = []
        for p in primes_upto(X).tolist():
            chi = kronecker_at_prime(system.D, p)
            if chi == 1:
                out += [(p, f"({p},s1)"), (p, f"({p},s2)")]
            elif chi == 0:
                out.append((p, f"({p},r)"))
            elif p * p <= X:
                # inert: the prime ideal (p) has norm p^2
                out.append((p * p, f"({p},i)"))
    elif isinstance(system, PolyOverFq):
        q, out, d = system.q, [], 1
        while q**d <= X:
            indices = gfpoly.irreducible_indices(q, d).tolist()
            out += [(q**d, _poly_label(q, d, i)) for i in indices]
            d += 1
    else:
        out = [(n, f"beurling#{i}") for i, n in enumerate(system.norms, start=1) if n <= X]
    return sorted(out)


# beurling#1, #9 and #10 share norm 5: (norm, label) order puts #10 before #9
REPEATED = Beurling((5, 2, 3, 2, 7, 3, 2, 11, 5, 5, 2, 3))
LABEL_CASES = ([(Integers(), 10**5), (REPEATED, 12)]
               + [(QuadraticField(D), 10**4) for D in ALL_FUNDAMENTAL]
               + [(PolyOverFq(q), q**6) for q in SUPPORTED_Q])


@pytest.mark.parametrize("system,X", LABEL_CASES, ids=[s.key for s, _ in LABEL_CASES])
def test_list_primes_columns_match_the_per_prime_oracle(system, X):
    norms, labels = list_primes(system, X)
    want = prime_norms(system, X)
    assert norms.dtype == want.dtype == np.int64
    assert np.array_equal(norms, want)
    assert list(zip(norms.tolist(), labels)) == _entries_oracle(system, X)
    # prefix stability: the columns at a smaller X are the prefixes up to it
    small = X // 3
    k = int(norms.searchsorted(small, "right"))
    small_norms, small_labels = list_primes(system, small)
    assert small_norms.tolist() == norms[:k].tolist()
    assert small_labels == labels[:k]

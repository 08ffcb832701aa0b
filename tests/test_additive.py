"""Additive prime-value rules and the empirical measures they induce."""
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monoidldp import additive
from monoidldp.additive import (
    DiscreteMeasure,
    NormResidue,
    Omega,
    exp_moment,
    rho_X,
)
from monoidldp.errors import EmptySystem, ParameterError
from monoidldp.systems import Beurling, Integers, PolyOverFq, QuadraticField, prime_norms


def test_omega_rule():
    g = Omega()
    assert g.key == "omega"
    assert g.values(prime_norms(Integers(), 50)).tolist() == [1.0] * 15


def test_norm_residue_rule():
    g = NormResidue(4, frozenset({1}), 1.0, 0.0)
    norms = prime_norms(Integers(), 30)
    vals = dict(zip(norms.tolist(), g.values(norms).tolist()))
    assert vals == {2: 0.0, 3: 0.0, 5: 1.0, 7: 0.0, 11: 0.0, 13: 1.0,
                    17: 1.0, 19: 0.0, 23: 0.0, 29: 1.0}
    assert g.key == "residue:4:1:1:0"


def test_norm_residue_reduces_residues_mod_m():
    g = NormResidue(4, frozenset({5, 9}), 2.0, 0.5)
    assert g.residues == frozenset({1})


def test_norm_residue_validation():
    with pytest.raises(ParameterError):
        NormResidue(0, frozenset({0}), 1.0, 0.0)
    with pytest.raises(ParameterError):
        NormResidue(4, frozenset({1}), -1.0, 0.0)
    with pytest.raises(ParameterError):
        NormResidue(4, frozenset({1}), 1.0, -0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            NormResidue(4, frozenset({1}), bad, 1.0)
        with pytest.raises(ParameterError, match="finite"):
            NormResidue(4, frozenset({1}), 1.0, bad)


def test_discrete_measure_validation():
    with pytest.raises(ParameterError):
        DiscreteMeasure(((1.0, 0.5), (0.0, 0.5)))  # not sorted
    with pytest.raises(ParameterError):
        DiscreteMeasure(((0.0, 0.5), (0.0, 0.5)))  # duplicate atom
    with pytest.raises(ParameterError):
        DiscreteMeasure(((0.0, 1.0), (1.0, 0.0)))  # zero weight
    with pytest.raises(ParameterError):
        DiscreteMeasure(((0.0, 0.5), (1.0, 0.4)))  # mass 0.9
    # NaN fails every comparison, so only an explicit check stops it
    for atoms in (((math.nan, 1.0),), ((0.0, math.nan),), ((math.inf, 1.0),),
                  ((0.0, 0.5), (1.0, math.nan))):
        with pytest.raises(ParameterError, match="finite"):
            DiscreteMeasure(atoms)


def test_delta_and_mean():
    d = DiscreteMeasure.delta()
    assert d.atoms == ((1.0, 1.0),)
    assert d.mean == 1.0
    half = DiscreteMeasure(((0.0, 0.5), (1.0, 0.5)))
    assert half.mean == 0.5


def test_from_pairs_merges_duplicates_and_sorts():
    m = DiscreteMeasure.from_pairs([(1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
    assert m.atoms == ((0.0, 0.5), (1.0, 0.5))


def test_json_roundtrip():
    m = DiscreteMeasure(((0.0, 0.25), (0.5, 0.25), (2.0, 0.5)))
    text = json.dumps({"atoms": [{"y": y, "w": w} for y, w in m.atoms]})
    assert DiscreteMeasure.from_json(text) == m
    for bad in ('{"atoms": 3}', "not json", '{"atoms": [{"y": "a", "w": 1}]}',
                '{"atoms": [{"y": null, "w": 1}]}', '{"atoms": [{"y": NaN, "w": 1}]}',
                '{"atoms": [{"y": 0, "w": Infinity}]}'):
        with pytest.raises(ParameterError):
            DiscreteMeasure.from_json(bad)


def test_exp_moment_examples():
    assert exp_moment(DiscreteMeasure.delta(), 0.0) == 1.0
    assert exp_moment(DiscreteMeasure.delta(), 1.0) == pytest.approx(math.e, rel=1e-15)
    half = DiscreteMeasure(((0.0, 0.5), (1.0, 0.5)))
    assert exp_moment(half, 2.0) == pytest.approx((1 + math.e**2) / 2, rel=1e-15)


def test_rho_x_integers_omega_is_point_mass():
    assert rho_X(prime_norms(Integers(), 100), Omega(), 100) == DiscreteMeasure(((1.0, 1.0),))


def _exact_rho_weights(system, g, X):
    """Each atom's weight of rho_X as a Fraction, summed prime by prime."""
    norms = prime_norms(system, X)
    groups = {}
    for y, n in zip(g.values(norms).tolist(), norms.tolist()):
        groups[y] = groups.get(y, 0) + Fraction(1, n)
    total = sum(groups.values())
    return {y: s / total for y, s in sorted(groups.items())}


def test_rho_x_residue_exact_weights():
    # primes <= 10: residue class 1 mod 4 holds only 5, so the atom at 1
    # carries (1/5) / (1/2 + 1/3 + 1/5 + 1/7) = 42/247 of the mass
    g = NormResidue(4, frozenset({1}), 1.0, 0.0)
    assert _exact_rho_weights(Integers(), g, 10) == {0.0: Fraction(205, 247),
                                                      1.0: Fraction(42, 247)}
    assert rho_X(prime_norms(Integers(), 10), g, 10).atoms == ((0.0, 205 / 247), (1.0, 42 / 247))


def test_rho_x_empty_system():
    with pytest.raises(EmptySystem):
        rho_X(prime_norms(Integers(), 1), Omega(), 1)
    with pytest.raises(EmptySystem):
        rho_X(prime_norms(Beurling((100,)), 50), Omega(), 50)


@pytest.mark.parametrize("system,X", [
    (Integers(), 10_000),
    (PolyOverFq(2), 2**10),
    (Beurling((2, 3, 5, 7, 11)), 500),
])
def test_rho_x_mass_is_exactly_one(system, X):
    g = NormResidue(3, frozenset({1, 2}), 2.0, 0.25)
    exact = _exact_rho_weights(system, g, X)
    assert sum(exact.values()) == 1
    # each weight is its exact value, correctly rounded
    assert rho_X(prime_norms(system, X), g, X).atoms == tuple((y, float(w)) for y, w in exact.items())


RHO_GS = [NormResidue(4, frozenset({1}), 2.0, 0.5), NormResidue(3, frozenset({1}), 0.1, 0.7)]


def _tree_rho(norms, g, X):
    """rho_X's atoms from the exact tree sums alone."""
    norms = norms[: norms.searchsorted(X, "right")]
    ys = sorted(set(g.values(norms).tolist()))
    groups = [norms[g.values(norms) == y] for y in ys]
    return tuple(zip(ys, additive._exact_weights(groups)))


@pytest.mark.parametrize("system", [Integers(), QuadraticField(-4)], ids=lambda s: s.key)
@pytest.mark.parametrize("g", RHO_GS, ids=lambda g: g.key)
def test_rho_x_fixed_point_matches_the_tree_sum(monkeypatch, system, g):
    # every atom from the fixed-point bounds, none from the fallback, and
    # each the tree sum's correctly rounded weight, bit for bit
    norms = prime_norms(system, 10**5)
    grid = (10, 1000, 10**5)
    want = [_tree_rho(norms, g, X) for X in grid]

    def no_fallback(*args):
        raise AssertionError("rho_X fell back to the tree sums")

    monkeypatch.setattr(additive, "_exact_weights", no_fallback)
    for X, atoms in zip(grid, want):
        got = rho_X(norms, g, X).atoms
        assert [(y.hex(), w.hex()) for y, w in got] == [(y.hex(), w.hex()) for y, w in atoms]


@pytest.mark.parametrize("g", RHO_GS, ids=lambda g: g.key)
def test_rho_x_fallback_gets_the_same_bits(monkeypatch, g):
    # with 8 fixed-point bits the bounds of some atom straddle a double,
    # so every weight comes from the tree sums, as the same bits
    X = 10**5
    norms = prime_norms(Integers(), X)
    want = rho_X(norms, g, X).atoms
    calls = []
    fallback = additive._exact_weights
    monkeypatch.setattr(additive, "_FIXED_BITS", 8)
    monkeypatch.setattr(additive, "_exact_weights",
                        lambda *args: calls.append(1) or fallback(*args))
    assert rho_X(norms, g, X).atoms == want
    assert calls == [1]


@given(st.lists(st.tuples(st.floats(0, 4, allow_nan=False),
                          st.integers(1, 50)),
                min_size=1, max_size=6),
       st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=60, deadline=None)
def test_exp_moment_midpoint_convex_in_theta(pairs, t1, t2):
    total = sum(w for _, w in pairs)
    m = DiscreteMeasure.from_pairs([(y, w / total) for y, w in pairs])
    mid = exp_moment(m, (t1 + t2) / 2)
    assert mid <= (exp_moment(m, t1) + exp_moment(m, t2)) / 2 + 1e-9 * (1 + mid)


def test_rho_x_fallback_skips_a_class_no_prime_attains(monkeypatch):
    # no prime is 0 mod 4, so only the primes off g's class carry mass;
    # with 8 fixed-point bits the fallback sums that one class alone
    X, g = 10**5, NormResidue(4, frozenset({0}), 2.0, 0.5)
    norms = prime_norms(Integers(), X)
    want = rho_X(norms, g, X).atoms
    assert want == ((0.5, 1.0),)
    calls = []
    fallback = additive._exact_weights
    monkeypatch.setattr(additive, "_FIXED_BITS", 8)
    monkeypatch.setattr(additive, "_exact_weights",
                        lambda groups: calls.append(len(groups)) or fallback(groups))
    assert rho_X(norms, g, X).atoms == want
    assert calls == [1]

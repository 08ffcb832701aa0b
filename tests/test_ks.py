"""The array Phi and the binned KS maxima behind `ek`, and an import path
that loads no scipy.

The oracle is Phi one float at a time, 0.5 * math.erfc(-t / sqrt 2), the
expression the package maps over arrays; the KS oracle builds the full
sorted arrays from it. The subprocess tests check that the package never
imports scipy.
"""
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from monoidldp import experiments
from monoidldp.additive import Omega
from monoidldp.experiments import _SQRT1_2, _ks_bins, _ks_maxima, ek_report
from monoidldp.monoid import enumerate_monoid
from monoidldp.systems import Beurling, Integers, PolyOverFq, QuadraticField

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# |t| = sqrt 2 |x| at the ends of fdlibm's erfc intervals, |x| = 0.84375,
# 1.25, 1/0.35, 6 and 28, the erfc of glibc and of most C libraries
EDGES = tuple(math.sqrt(2.0) * x for x in (0.84375, 1.25, 1 / 0.35, 6.0, 28.0))
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -37.5, -38.0, 5e-324, -5e-324,
           1e-300, -1e-300, 1e300, -1e300]


def _phi(t: float) -> float:
    """Phi(t), the standard normal CDF, as a scalar."""
    return 0.5 * math.erfc(-t * _SQRT1_2)


def _python(code: str, cwd) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_cli_loads_no_scipy(tmp_path):
    done = _python("import sys, monoidldp.cli\n"
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                   tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ek_without_scipy_matches_golden(tmp_path, fmt):
    done = _python("import sys\n"
                   "sys.modules['scipy'] = None\n"
                   "from monoidldp.cli import main\n"
                   f"sys.exit(main(['ek', '--limit', '1000', '--format', '{fmt}', '--out', 'out']))",
                   tmp_path)
    assert done.returncode == 0, done.stderr
    golden = GOLDEN / f"ek.{fmt}" / f"ek.{fmt}"
    assert (tmp_path / "out" / f"ek.{fmt}").read_bytes() == golden.read_bytes()


def _bands(half_width: float, points: int) -> np.ndarray:
    """Dense values around each of +-EDGES, and the few ulps at each."""
    parts = []
    for edge in EDGES:
        for c in (edge, -edge):
            parts.append(np.linspace(c - half_width, c + half_width, points))
            ulps = [c]
            for _ in range(64):
                ulps = [np.nextafter(ulps[0], -np.inf), *ulps, np.nextafter(ulps[-1], np.inf)]
            parts.append(np.array(ulps))
    return np.concatenate(parts)


def _phis(ts: np.ndarray) -> np.ndarray:
    return np.fromiter(map(_phi, ts.tolist()), np.float64, ts.size)


def _assert_bits_equal(got: np.ndarray, want: np.ndarray, ts: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    keep = ~np.isnan(want)
    diff = got[keep].view(np.uint64) != want[keep].view(np.uint64)
    assert not diff.any(), (ts[keep][diff][:5], got[keep][diff][:5], want[keep][diff][:5])


def test_array_ndtr_bit_equal_to_scalar_port():
    """The array Phi, taken in chunks of 2^16, against the scalar one: on
    wide and dense values and at the sizes around a chunk's end."""
    rng = np.random.default_rng(20261019)
    ts = np.concatenate([
        rng.uniform(-40.0, 40.0, 50_000),
        _bands(1e-3, 20_001),
        np.linspace(-45.0, -38.0, 1001),  # erfc's subnormals, then 0
        SPECIAL,
    ])
    _assert_bits_equal(experiments._ndtr(ts), _phis(ts), ts)
    for n in (0, 1, 2**16, 2**16 + 1):
        ts = rng.uniform(-10.0, 10.0, n)
        _assert_bits_equal(experiments._ndtr(ts), _phis(ts), ts)


def test_ndtr_special_values():
    phi = experiments._ndtr(np.array([-math.inf, math.inf, 0.0, -0.0, math.nan,
                                      -38.0, -40.0, -1e300]))
    assert phi[:4].tolist() == [0.0, 1.0, 0.5, 0.5]
    assert math.isnan(phi[4])
    # erfc's subnormals reach t = -38; from |x| = 28 on erfc is 0
    assert 0.0 < phi[5] < np.finfo(np.float64).smallest_normal
    assert phi[6] == phi[7] == 0.0


def test_ndtr_falls_by_at_most_1e_15():
    """The fact behind _KS_SLACK: Phi is monotone up to 1e-15 on a dense grid."""
    ts = np.sort(np.concatenate([np.linspace(-40.0, 40.0, 400_001), _bands(1e-4, 2001)]))
    phi = experiments._ndtr(ts)
    assert float(np.max(phi[:-1] - phi[1:])) <= 1e-15
    assert 1e-15 < experiments._KS_SLACK


def _oracle(t: np.ndarray) -> tuple[float, float]:
    """The KS maxima over full Phi and step arrays."""
    t = np.sort(t)
    n = len(t)
    phi = _phis(t)
    steps = np.arange(1, n + 1, dtype=np.float64) / n
    return float(np.max(steps - phi)), float(np.max(phi - (steps - 1.0 / n)))


def _identity(block):
    return block


def _binned(t: np.ndarray, block: int, runs: bool) -> tuple[float, float]:
    """The binned KS maxima of the sample t, shuffled and fed in blocks of
    block entries: one entry per element, or with runs one per distinct
    value, counted as often as it occurs."""
    rng = np.random.default_rng(block)
    if runs:
        values, counts = np.unique(t, return_counts=True)
        order = rng.permutation(values.size)
        values, counts = values[order], counts[order]
    else:
        values, counts = rng.permutation(t), None
    blocks = [(values[a:a + block], None if counts is None else counts[a:a + block])
              for a in range(0, values.size, block)]
    hist, masks = _ks_bins(blocks, _identity)
    assert len(masks) == len(blocks) and int(hist.sum()) == t.size
    # each mask holds exactly the bins of its block's entries
    for (v, _), mask in zip(blocks, masks):
        touched = np.zeros(experiments._KS_BINS, dtype=bool)
        touched[experiments._ks_bin(v)] = True
        assert mask.tobytes() == np.packbits(touched).tobytes()
    return _ks_maxima(blocks, _identity, hist, masks)


def _ek_t(system, X: int) -> np.ndarray:
    table = enumerate_monoid(system, X, Omega())
    mask = table.norm >= 3
    ll = np.log(np.log(table.norm[mask].astype(np.float64)))
    return (table.omega[mask] - ll) / np.sqrt(ll)


def _assert_maxima_bit_equal(t: np.ndarray, block: int = 4096) -> None:
    want = [x.hex() for x in _oracle(t)]
    for runs in (False, True):
        assert [x.hex() for x in _binned(t, block, runs)] == want, runs


@pytest.mark.parametrize("system,X", [
    (Integers(), 10**5), (Integers(), 10**6), (QuadraticField(-4), 10**5),
    (PolyOverFq(2), 2**16), (PolyOverFq(3), 3**9),
], ids=["integers-1e5", "integers-1e6", "quad-4-1e5", "poly2-2^16", "poly3-3^9"])
def test_ks_maxima_bit_equal_on_ek_tables(system, X):
    _assert_maxima_bit_equal(_ek_t(system, X), block=2**16)


@pytest.mark.parametrize("system,X", [(PolyOverFq(2), 2**16), (PolyOverFq(3), 3**9)],
                         ids=["poly2-2^16", "poly3-3^9"])
def test_ek_collapses_tie_heavy_tables_to_the_oracle(system, X):
    """On F_q[t] most rows repeat the one before, so ek reads runs; its
    maxima are the full arrays' bits all the same."""
    d_plus, d_minus = _oracle(_ek_t(system, X))
    report = ek_report(system, X)
    assert report.ks_distance.hex() == d_plus.hex()
    assert report.ks_two_sided.hex() == max(d_plus, d_minus).hex()


def _adversarial() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    return {
        "all-equal": np.full(1000, 0.3),
        "tied-runs": np.repeat(np.sort(rng.normal(size=40)), rng.integers(1, 200, 40)),
        "n=1": np.array([0.25]),
        "block-1": rng.normal(size=255),
        "block+1": rng.normal(size=257),
        "3-blocks": rng.normal(size=768),
        "normal-sample": rng.normal(size=20_000),
        # every value in the clipped end bins
        "far-tails": np.concatenate([rng.uniform(-50, -30, 300), rng.uniform(30, 50, 300)]),
    }


@pytest.mark.parametrize("name", list(_adversarial()))
def test_ks_maxima_bit_equal_on_adversarial_arrays(name):
    _assert_maxima_bit_equal(_adversarial()[name], block=256)


@pytest.mark.parametrize("block", [1, 2, 10**9])
@pytest.mark.parametrize("name", ["tied-runs", "n=1", "block+1", "3-blocks"])
def test_ks_maxima_at_degenerate_block_sizes(monkeypatch, block, name):
    """Blocks of 1 or 2 entries over as many bins, where every entry is a
    candidate, and one block longer than n over the usual bins: each gives
    the oracle's bits."""
    if block < 10**9:
        monkeypatch.setattr(experiments, "_KS_BINS", block)
    _assert_maxima_bit_equal(_adversarial()[name], block)


@pytest.mark.parametrize("system,X", [
    (Integers(), 10**3), (Integers(), 10**6), (QuadraticField(-4), 10**5),
    (PolyOverFq(3), 3**9), (Beurling((2, 3, 3, 5)), 5000),
], ids=lambda v: getattr(v, "key", v))
def test_variance_omega_is_the_exact_variance_correctly_rounded(system, X):
    omega = enumerate_monoid(system, X, Omega()).omega.astype(np.int64)
    n, s1, s2 = omega.size, int(omega.sum()), int((omega * omega).sum())
    exact = Fraction(n * s2 - s1 * s1, n * n)
    got = ek_report(system, X).variance_omega
    # no float lies closer to the exact value than the one reported
    err = abs(Fraction(got) - exact)
    for other in (np.nextafter(got, -np.inf), np.nextafter(got, np.inf)):
        assert err <= abs(Fraction(float(other)) - exact)

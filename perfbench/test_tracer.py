"""Tests of the benchmark's tracer. Run from the repository root:

    python3 -m pytest -q perfbench/test_tracer.py
"""
from __future__ import annotations

import functools
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

INNER = """
import time
def inner(seconds):
    time.sleep(seconds)
    return seconds
"""

OUTER = """
import time
from concurrent.futures import ThreadPoolExecutor
from fakepkg.inner import inner
def outer(seconds):
    time.sleep(seconds)
    return inner(2 * seconds)
def fan_out(seconds):
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(inner, [seconds, seconds]))
"""


@pytest.fixture
def fakepkg():
    """A two-module package: fakepkg.outer calls into fakepkg.inner."""
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    sys.modules["fakepkg"] = pkg
    mods = {}
    for name, source in (("inner", INNER), ("outer", OUTER)):
        mod = types.ModuleType(f"fakepkg.{name}")
        sys.modules[mod.__name__] = mod
        exec(source, mod.__dict__)
        mods[name] = mod
    yield mods
    for name in ("fakepkg", "fakepkg.inner", "fakepkg.outer"):
        sys.modules.pop(name, None)


def _tracer(entry_points=None) -> Tracer:
    return Tracer(package="fakepkg", probes={},
                  entry_points=entry_points or {"outer": ("outer", "fan_out"),
                                                "inner": ("inner",)})


def _by_name(tracer: Tracer):
    own = tracer.self_times()
    return {s.name: (s, own[s.sid][0]) for s in tracer.spans}


def test_self_time_of_nested_spans(fakepkg):
    with _tracer() as tr:
        assert fakepkg["outer"].outer(0.05) == 0.1
    spans = _by_name(tr)
    outer, outer_self = spans["outer"]
    inner, inner_self = spans["inner"]
    assert inner.parent == outer.sid and outer.parent is None
    assert outer.t1 - outer.t0 == pytest.approx(0.15, abs=0.04)
    assert outer_self == pytest.approx(0.05, abs=0.02)
    assert inner_self == pytest.approx(0.1, abs=0.02)


def test_child_spans_on_pool_threads(fakepkg):
    with _tracer() as tr:
        assert fakepkg["outer"].fan_out(0.1) == [0.1, 0.1]
    own = tr.self_times()
    fan = next(s for s in tr.spans if s.name == "fan_out")
    kids = [s for s in tr.spans if s.name == "inner"]
    assert len(kids) == 2 and all(k.parent == fan.sid for k in kids)
    # the two children run side by side, so together they cover about 0.1 s
    # of the parent: its self time is the pool overhead only
    assert own[fan.sid][0] < 0.03
    assert all(own[k.sid][0] == pytest.approx(0.1, abs=0.03) for k in kids)
    assert fakepkg["outer"].ThreadPoolExecutor is ThreadPoolExecutor


def test_missing_entry_points_are_skipped_and_listed(fakepkg):
    tr = _tracer({"outer": ("outer", "gone"), "nolayer": ("x",), "inner": ("inner",)})
    with tr:
        fakepkg["outer"].outer(0.0)
    assert tr.missing == ["outer.gone", "nolayer.x"]
    assert sorted(s.name for s in tr.spans) == ["inner", "outer"]
    assert tr.layer_metrics(1.0)["trace.missing_entry_points"] == 2


def test_uninstall_restores_every_binding(fakepkg):
    inner = fakepkg["inner"].inner
    with _tracer():
        assert fakepkg["outer"].inner is not inner
        assert fakepkg["inner"].inner is not inner
    assert fakepkg["outer"].inner is inner and fakepkg["inner"].inner is inner


def test_cache_hit_ratio(fakepkg):
    fakepkg["inner"].inner = functools.lru_cache(maxsize=None)(fakepkg["inner"].inner)
    with _tracer({"inner": ("inner",)}) as tr:
        for _ in range(4):
            fakepkg["inner"].inner(0.0)
    assert tr.cache_hit_ratios() == {"inner": 0.75}


COMMANDS = [
    ["count", "--system", "quad:-4", "--limit", "3000", "--format", "csv"],
    ["primes", "--system", "poly:3", "--limit", "243", "--format", "json"],
    ["ldp-scan", "--grid", "1000,5000", "--intervals", "0:1,1:inf", "--format", "csv"],
    ["mgf-gap", "--system", "quad:-4", "--grid", "1000,10000", "--format", "json"],
    ["rate", "--grid", "0.5,1,2", "--format", "json"],
]


def _run_commands(out: Path) -> dict[str, bytes]:
    import monoidldp.cli

    for i, argv in enumerate(COMMANDS):
        assert monoidldp.cli.main(argv + ["--out", str(out / str(i)), "--threads", "2"]) == 0
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


def test_wrapping_leaves_report_bytes_unchanged(tmp_path):
    plain = _run_commands(tmp_path / "plain")
    with Tracer() as tr:
        traced = _run_commands(tmp_path / "traced")
    assert traced == plain
    assert tr.missing == []
    m = tr.layer_metrics(1.0)
    rows = plain["0/count.csv"].count(b"\n") - 1
    assert m["reportio.rows_written"] >= rows > 0
    assert m["reportio.bytes_written"] == sum(
        len(b) for name, b in plain.items() if not name.endswith("config-echo.json"))
    assert m["cli.calls"] == len(COMMANDS) and m["monoid.elements"] >= rows
    # the untraced pass above filled list_primes' cache, so the traced one hits it
    assert m["rate.points"] >= 3 and m["systems.cache_hit_ratio"] > 0

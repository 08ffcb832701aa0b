"""Smoke tests of the scripts under scripts/, each run as its own process."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_check_counts_agrees_at_1e4():
    done = _run("check_counts.py", "--limit", "10000")
    assert done.returncode == 0, done.stdout + done.stderr
    # one line per system: 61 discriminants and 7 values of q
    lines = done.stdout.splitlines()
    assert len(lines) == 68 and all(line.endswith("agree") for line in lines)


def test_check_ks_agrees_at_1e4():
    done = _run("check_ks.py", "--limit", "10000")
    assert done.returncode == 0, done.stdout + done.stderr
    # X = 1e3 and 1e4 on each of integers, quad:-4 and poly:2
    lines = done.stdout.splitlines()
    assert len(lines) == 6 and all(line.endswith("agree") for line in lines)


def test_check_irreducibles_agrees_at_1e5():
    done = _run("check_irreducibles.py", "--limit", "100000")
    assert done.returncode == 0, done.stdout + done.stderr
    # one line per q, each up to the largest q^n <= 1e5: 2^16 ... 9^5
    lines = done.stdout.splitlines()
    assert len(lines) == 7 and all(line.endswith("agree") for line in lines)
    assert lines[0] == "poly:2: degrees 1..16 (q^n = 65536) agree"


def test_check_cells_agrees_at_1e5():
    done = _run("check_cells.py", "--limit", "100000")
    assert done.returncode == 0, done.stdout + done.stderr
    # X = 1, 10, ..., 1e5 for each of omega and residue:4:1:2:0.5
    lines = done.stdout.splitlines()
    assert len(lines) == 12 and all(line.endswith("agree") for line in lines)
    assert lines[-1] == "residue:4:1:2:0.5: X=100000, 100000 elements in 23 cells agree"

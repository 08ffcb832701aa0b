"""Golden reports: every subcommand, both formats, byte for byte.

tests/golden/<case>/ holds the report, config-echo.json and exit code that
each entry of CASES produced when the goldens were taken. Goldens taken
before `seed` left the echo carry a `"seed": null` line; it is the one
difference allowed between a golden echo and a fresh one, and such an echo
must still replay to the same report and echo.

Input files are written into the working directory under fixed relative
names, because a Beurling system's path is part of its key.

Regenerate only for an intended, documented byte change, or take the
goldens of new cases by naming them:

    PYTHONPATH=src python tests/test_cli_golden.py [CASE ...]
"""
import json
import os
import sys
from pathlib import Path

import pytest

from monoidldp.cli import COMMAND_TABLE, main

GOLDEN = Path(__file__).parent / "golden"

FIXTURES = {
    "norms.txt": "2\n2\n2\n",
    "rho.json": json.dumps({"atoms": [{"y": 0.5, "w": 0.25}, {"y": 2.0, "w": 0.75}]}),
}

# (case name, argv without --format/--out, formats)
BOTH = ("csv", "json")
CASES = [
    ("primes-integers", ["primes", "--limit", "60"], BOTH),
    ("primes-poly3", ["primes", "--system", "poly:3", "--limit", "81"], BOTH),
    ("primes-quad", ["primes", "--system", "quad:-4", "--limit", "60"], BOTH),
    # every field the bulk irreducible sieve serves, at degrees with a >= 2 splits
    ("primes-poly3-deg6", ["primes", "--system", "poly:3", "--limit", "729"], BOTH),
    ("primes-poly4", ["primes", "--system", "poly:4", "--limit", "256"], BOTH),
    ("primes-poly5", ["primes", "--system", "poly:5", "--limit", "625"], BOTH),
    ("primes-poly7", ["primes", "--system", "poly:7", "--limit", "343"], BOTH),
    ("primes-poly8", ["primes", "--system", "poly:8", "--limit", "512"], BOTH),
    ("primes-poly9", ["primes", "--system", "poly:9", "--limit", "729"], BOTH),
    ("count-integers", ["count", "--limit", "120"], BOTH),
    ("count-quad-residue", ["count", "--system", "quad:-4", "--limit", "120",
                            "--g", "residue:4:1:1:0.5"], BOTH),
    ("count-poly2", ["count", "--system", "poly:2", "--limit", "64"], BOTH),
    # 1,140 rows: more than the frontier's first allocation, so its columns grow
    ("count-beurling", ["count", "--system", "beurling:norms.txt", "--limit", "200000"], BOTH),
    ("density-integers", ["density", "--grid", "geom:100:10000:4"], BOTH),
    ("density-poly-unsupported", ["density", "--system", "poly:2",
                                  "--grid", "1,2,3,4,8"], BOTH),
    ("density-beurling-failed", ["density", "--system", "beurling:norms.txt",
                                 "--grid", "10,100,1000,10000"], BOTH),
    ("mertens-grid", ["mertens", "--grid", "100,1000"], BOTH),
    ("mertens-limit", ["mertens", "--system", "quad:-3", "--grid", "500"], BOTH),
    ("expect-integers", ["expect", "--limit", "10", "--primes", "2,3"], BOTH),
    ("expect-quad", ["expect", "--system", "quad:-4", "--limit", "200",
                     "--primes", "2,5,5"], BOTH),
    # repeated norms name distinct primes of equal norm
    ("expect-beurling-repeated", ["expect", "--system", "beurling:norms.txt",
                                  "--limit", "100", "--primes", "2,2,2"], BOTH),
    ("dominate", ["dominate", "--limit", "50", "--kmax", "2"], BOTH),
    ("dominate-beurling", ["dominate", "--system", "beurling:norms.txt",
                           "--limit", "1000", "--kmax", "3"], BOTH),
    ("mgf-gap", ["mgf-gap", "--grid", "100,1000"], BOTH),
    ("mgf-gap-log-space", ["mgf-gap", "--grid", "100,1000", "--theta", "300"], BOTH),
    # B holds primes of equal norm (split primes, irreducibles of one degree)
    ("mgf-gap-quad-residue", ["mgf-gap", "--system", "quad:-4",
                              "--g", "residue:4:1:2:0.5", "--grid", "1000,100000"], BOTH),
    ("mgf-gap-poly2", ["mgf-gap", "--system", "poly:2", "--grid", "1024,65536"], BOTH),
    # past the frontier's cap: the closed-form element counts reach 1e12
    ("mgf-gap-quad-1e12", ["mgf-gap", "--system", "quad:-4", "--grid",
                           "1000000,100000000,10000000000,1000000000000"], BOTH),
    ("tail-mass", ["tail-mass", "--limit", "100", "--g", "residue:4:1:2:0"], BOTH),
    ("rate-delta1", ["rate"], BOTH),
    ("rate-nonpositive-x", ["rate", "--grid=-1,0,0.5"], BOTH),
    ("rate-file", ["rate", "--rho", "rho.json", "--grid", "geom:0.1:3:5"], BOTH),
    ("ek", ["ek", "--limit", "1000"], BOTH),
    ("ek-integers-1e5", ["ek", "--limit", "100000"], BOTH),
    ("ek-quad", ["ek", "--system", "quad:-4", "--limit", "100000"], BOTH),
    ("ek-poly3", ["ek", "--system", "poly:3", "--limit", "6561"], BOTH),
    ("ldp-scan-infinite", ["ldp-scan", "--grid", "100,1000",
                           "--intervals=-inf:1,1:1.5,1.5:inf"], BOTH),
    ("ldp-scan-residue", ["ldp-scan", "--g", "residue:3:1:1:0", "--rho", "rho.json",
                          "--grid", "200"], BOTH),
    # the frontier's gsum column
    ("ldp-scan-quad", ["ldp-scan", "--system", "quad:-4", "--g", "residue:4:1:2:0.5",
                       "--grid", "100,1000,10000", "--intervals", "0:1,1:1.5,1.5:inf"], BOTH),
    ("sweep", ["sweep", "--grid", "geom:100:10000:4"], BOTH),
    ("sweep-beurling-failed", ["sweep", "--system", "beurling:norms.txt",
                               "--grid", "10,100,1000,10000"], BOTH),
]

RUNS = [(name, argv, fmt) for name, argv, formats in CASES for fmt in formats]


def _case_dir(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{fmt}"


def _run(argv, fmt, out) -> int:
    return main(argv + ["--format", fmt, "--out", str(out)])


def _without_seed(echo: str) -> str:
    """The echo text minus its `"seed"` line, as a seedless echo writes it."""
    lines = echo.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.strip() in ('"seed": null,', '"seed": null'):
            if not line.rstrip().endswith(","):  # it was the last key
                lines[i - 1] = lines[i - 1].rstrip().rstrip(",") + "\n"
            del lines[i]
            break
    return "".join(lines)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for fname, text in FIXTURES.items():
        (tmp_path / fname).write_text(text, encoding="utf-8")
    return tmp_path


def _check_against_golden(out: Path, code: int, golden: Path, command: str, fmt: str):
    report = f"{command}.{fmt}"
    assert code == int((golden / "exit-code").read_text())
    assert (out / report).read_bytes() == (golden / report).read_bytes()
    assert (out / "config-echo.json").read_text(encoding="utf-8") == \
        _without_seed((golden / "config-echo.json").read_text(encoding="utf-8"))
    assert sorted(p.name for p in out.iterdir()) == ["config-echo.json", report]


@pytest.mark.parametrize("command", list(COMMAND_TABLE))
def test_command_has_goldens_in_both_formats(command):
    for fmt in BOTH:
        names = [name for name, argv, f in RUNS if argv[0] == command and f == fmt]
        assert names, f"no golden case runs {command} --format {fmt}"
        for name in names:
            assert _case_dir(name, fmt).is_dir(), f"no golden for {name}.{fmt}"


@pytest.mark.parametrize("name,argv,fmt", RUNS, ids=[f"{n}.{f}" for n, _, f in RUNS])
def test_report_matches_golden(workdir, name, argv, fmt):
    code = _run(argv, fmt, workdir / "out")
    _check_against_golden(workdir / "out", code, _case_dir(name, fmt), argv[0], fmt)


@pytest.mark.parametrize("name,argv,fmt", RUNS, ids=[f"{n}.{f}" for n, _, f in RUNS])
def test_golden_echo_replays(workdir, name, argv, fmt):
    golden = _case_dir(name, fmt)
    code = main(["--config", str(golden / "config-echo.json"), "--out", "replay"])
    _check_against_golden(workdir / "replay", code, golden, argv[0], fmt)


def test_usage_errors_leave_the_parser_as_built(workdir):
    # the parser is built once per process; a command after usage errors
    # writes the golden's bytes
    for argv in (["ek", "--limit", "many"], ["ek", "--bogus"], ["nonesuch"]):
        assert main(argv + ["--out", "bad"]) == 64
    name, argv, fmt = next(run for run in RUNS if run[0] == "ek-quad" and run[2] == "json")
    code = _run(argv, fmt, workdir / "out")
    _check_against_golden(workdir / "out", code, _case_dir(name, fmt), argv[0], fmt)
    assert not (workdir / "bad").exists()


def _regenerate(names: list[str]) -> None:
    import shutil
    import tempfile

    unknown = set(names) - {name for name, _, _ in CASES}
    if unknown:
        raise SystemExit(f"unknown cases: {sorted(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for fname, text in FIXTURES.items():
            Path(fname).write_text(text, encoding="utf-8")
        for name, argv, fmt in RUNS:
            if names and name not in names:
                continue
            out = Path(f"{name}.{fmt}")
            code = _run(argv, fmt, out)
            (out / "exit-code").write_text(f"{code}\n", encoding="utf-8")
            dest = _case_dir(name, fmt)
            shutil.rmtree(dest, ignore_errors=True)
            shutil.copytree(out, dest)
            print(f"{name}.{fmt}: exit {code}")


if __name__ == "__main__":
    sys.exit(_regenerate(sys.argv[1:]))

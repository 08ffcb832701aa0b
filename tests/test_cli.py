"""End-to-end CLI checks: documented examples, exit codes, replay, formats."""
import collections
import csv
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from monoidldp import monoid, systems
from monoidldp.cli import COMMAND_TABLE, _build_parser, main
from monoidldp.reportio import fmt
from monoidldp.systems import Beurling, Integers, PolyOverFq, QuadraticField


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_rate_example(tmp_path):
    code = main(["rate", "--rho", "delta1", "--grid", "0.5,1,2",
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "rate.csv")
    assert header == ["x", "I", "theta_star", "iters", "status"]
    got = [float(r[1]) for r in rows]
    assert got == pytest.approx([0.153426, 0.0, 0.386294], abs=1e-6)
    assert [r[4] for r in rows] == ["converged"] * 3


@pytest.mark.parametrize("grid", ["1,nan,0", "nan", "0,1,nan", "-inf,nan"])
def test_rate_rejects_a_nan_x(tmp_path, grid):
    # NaN compares false, so it would pass the sorted-grid check; it is a
    # bad parameter, not a point that fails to converge
    assert main(["rate", "--grid", grid, "--out", str(tmp_path)]) == 65
    assert not (tmp_path / "rate.csv").exists()


def test_rate_at_infinity_is_infinite(tmp_path):
    assert main(["rate", "--grid", "0.5,inf", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "rate.csv")
    assert rows[1] == ["inf", "inf", "nan", "0", "infinite"]
    assert main(["rate", "--rho", "delta1", "--grid", "inf", "--format", "json",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "rate.json").read_text())
    assert report["rows"] == [{"x": "inf", "I": "inf", "theta_star": None, "iters": 0,
                               "status": "infinite"}]


def test_mertens_limit_example(tmp_path, capsys):
    # a single cutoff is a one-point grid
    code = main(["mertens", "--system", "integers", "--grid", "100",
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "mertens.csv")
    assert header == ["X", "sum", "deviation"]
    assert len(rows) == 1 and rows[0][0] == "100"
    assert float(rows[0][1]) == pytest.approx(1.80282, abs=1e-5)
    assert "sum=1.80281720105" in capsys.readouterr().out
    echo = json.loads((tmp_path / "config-echo.json").read_text())
    assert echo["grid"] == [100]


def test_expect_example(tmp_path, capsys):
    code = main(["expect", "--system", "integers", "--limit", "10",
                 "--primes", "2,3", "--out", str(tmp_path)])
    assert code == 0
    assert "expect: Z=1/10 Y=1/6 ratio=3/5 primes=2*3" in capsys.readouterr().out
    header, rows = _read_csv(tmp_path / "expect.csv")
    assert header == ["X", "primes", "expect_Z", "expect_Y", "ratio"]
    assert rows == [["10", "2*3", "1/10", "1/6", "3/5"]]


def test_usage_errors_exit_64(tmp_path):
    assert main([]) == 64
    assert main(["frobnicate"]) == 64
    assert main(["primes", "--bogus"]) == 64
    assert main(["primes", "--system", "martian", "--out", str(tmp_path)]) == 64
    assert main(["primes", "--threads", "0", "--out", str(tmp_path)]) == 64
    assert main(["rate", "--grid", "geom:0:5:3", "--out", str(tmp_path)]) == 64


# one cheap run of each subcommand, to read the keys of its echo
ECHO_RUNS = {
    "primes": ["--limit", "10"],
    "count": ["--limit", "10"],
    "density": ["--grid", "10,100,1000,10000"],
    "mertens": ["--grid", "10"],
    "expect": ["--limit", "10", "--primes", "2"],
    "dominate": ["--limit", "10", "--kmax", "2"],
    "mgf-gap": ["--grid", "100,1000"],
    "tail-mass": ["--limit", "10"],
    "rate": ["--grid", "1"],
    "ek": ["--limit", "100"],
    "ldp-scan": ["--grid", "10"],
    "sweep": ["--grid", "geom:100:10000:4"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_TABLE))
def test_every_subcommand_option_is_echoed(tmp_path, command):
    assert main([command, *ECHO_RUNS[command], "--out", str(tmp_path)]) in (0, 1, 2)
    echo = json.loads((tmp_path / "config-echo.json").read_text())
    allowed = {"--" + key.replace("_", "-") for key in echo}
    allowed |= {"--out", "--threads", "--format", "-h", "--help"}
    subparsers = _build_parser()._subparsers._group_actions[0].choices
    for action in subparsers[command]._actions:
        assert set(action.option_strings) <= allowed, action.option_strings


def test_removed_options_are_usage_errors(tmp_path, capsys):
    cache, out = tmp_path / "table.mldp", tmp_path / "out"
    for argv in (["count", "--limit", "100", "--dump-cache", str(cache)],
                 ["mertens", "--limit", "100"]):
        assert main([*argv, "--out", str(out)]) == 64
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists() and not cache.exists()


def test_parameter_and_source_errors_exit_65(tmp_path):
    assert main(["primes", "--system", "poly:6", "--out", str(tmp_path)]) == 65
    assert main(["primes", "--system", f"beurling:{tmp_path}/nope.txt"]) == 65
    assert main(["rate", "--rho", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 65
    assert main(["ldp-scan", "--intervals", "2:1", "--grid", "100",
                 "--out", str(tmp_path)]) == 65
    assert main(["ek", "--limit", "10", "--out", str(tmp_path)]) == 65
    for system in ("integers", "quad:-4"):
        assert main(["density", "--system", system, "--grid", "0,1,2,3",
                     "--out", str(tmp_path)]) == 65
    # degenerate grids: too few thresholds, or too few powers of q
    assert main(["density", "--grid", "1,2,3", "--out", str(tmp_path)]) == 65
    assert main(["sweep", "--grid", "3,4,5", "--out", str(tmp_path)]) == 65
    assert main(["density", "--system", "poly:3", "--grid", "3,9,10,27,28",
                 "--out", str(tmp_path)]) == 65


@pytest.mark.parametrize("atoms", [
    '[{"y": NaN, "w": 1}]',  # once reported I(0) = 0 "converged", as for delta_0
    '[{"y": 0, "w": NaN}]',  # a NaN weight passes a mass check by comparison
    '[{"y": Infinity, "w": 1}]',
    '[{"y": "a", "w": 1}]',  # a bad value in the file, not a usage error
])
def test_bad_measure_file_exits_65(tmp_path, capsys, atoms):
    rho = tmp_path / "rho.json"
    rho.write_text('{"atoms": ' + atoms + '}', encoding="utf-8")
    assert main(["rate", "--rho", str(rho), "--out", str(tmp_path / "o")]) == 65
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("g", ["residue:4:1:nan:1", "residue:4:1:1:nan",
                               "residue:4:1:inf:1"])
def test_non_finite_prime_values_exit_65(tmp_path, capsys, g):
    assert main(["count", "--g", g, "--limit", "20", "--out", str(tmp_path)]) == 65
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tail-mass", "--theta", "nan"],
    ["tail-mass", "--theta", "inf"],
    ["tail-mass", "--cap", "nan"],
    ["mgf-gap", "--theta", "nan"],
    ["mgf-gap", "--theta", "inf"],
    ["mgf-gap", "--theta", "-inf"],
    ["mgf-gap", "--cap", "nan"],
    ["sweep", "--theta-grid", "nan"],
    ["sweep", "--theta-grid", "0.5,inf"],
])
def test_non_finite_theta_and_nan_cap_exit_65(tmp_path, capsys, argv):
    # once reported tail=0, tail=nan, gap=nan, gap=0 or a WARN
    grid = ["--grid", "1000,10000"] if argv[0] == "mgf-gap" else []
    assert main([*argv, *grid, "--out", str(tmp_path)]) == 65
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("finite" in err or "NaN" in err)


@pytest.mark.parametrize("cap", ["inf", "-inf"])
def test_an_infinite_cap_is_valid(tmp_path, cap):
    assert main(["tail-mass", "--cap", cap, "--out", str(tmp_path)]) == 0
    assert main(["mgf-gap", "--cap", cap, "--grid", "1000,10000",
                 "--out", str(tmp_path)]) in (0, 1)


@pytest.mark.parametrize("system", ["integers", "quad:-4"])
@pytest.mark.parametrize("min_norm", [2000, 2**64])
def test_ek_min_norm_above_x_is_an_empty_sample(tmp_path, capsys, system, min_norm):
    # 2^64 once failed in building the blocks, exiting 65 or 2 with NumPy's words
    assert main(["ek", "--system", system, "--limit", "1000", "--min-norm", str(min_norm),
                 "--out", str(tmp_path)]) == 2
    assert (f"error: no element of norm >= {min_norm} at X=1000"
            in capsys.readouterr().err)


def test_non_finite_config_values_exit_65(tmp_path):
    assert main(["rate", "--format", "json", "--out", str(tmp_path / "a")]) == 0
    cfg = json.loads((tmp_path / "a" / "config-echo.json").read_text(encoding="utf-8"))
    cfg["rho"]["atoms"][0]["y"] = math.nan
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["--config", str(bad), "--out", str(tmp_path / "b")]) == 65


def test_expect_looks_primes_up_by_norm(tmp_path, capsys):
    # a norm above X has no prime, whatever the norms below it
    assert main(["expect", "--system", "integers", "--limit", "10",
                 "--primes", "2,13", "--out", str(tmp_path)]) == 65
    assert ("error: no unused prime of norm 13 in integers up to 10"
            in capsys.readouterr().err)
    # a repeated split norm takes the next unused prime of that norm
    assert main(["expect", "--system", "quad:-4", "--limit", "100",
                 "--primes", "5,5", "--out", str(tmp_path)]) == 0
    assert "primes=(5,s1)*(5,s2)" in capsys.readouterr().out
    assert main(["expect", "--system", "quad:-4", "--limit", "100",
                 "--primes", "5,5,5", "--out", str(tmp_path)]) == 65
    assert ("error: no unused prime of norm 5 in quad:-4 up to 100"
            in capsys.readouterr().err)
    # a norm between two primes has none
    assert main(["expect", "--system", "integers", "--limit", "10",
                 "--primes", "4", "--out", str(tmp_path)]) == 65
    assert ("error: no unused prime of norm 4 in integers up to 10"
            in capsys.readouterr().err)


@pytest.mark.parametrize("system,norms", [
    (PolyOverFq(3), [9, 3, 9, 27, 9, 3]),
    (QuadraticField(-4), [5, 2, 9, 5, 13, 49, 13]),
    (Integers(), [7, 2, 7]),
])
def test_expect_takes_the_first_unused_entry(tmp_path, capsys, system, norms):
    # the linear rule: for each norm in turn, the first prime of that norm
    # (in (norm, label) order) not taken yet
    listed, names = systems.list_primes(system, max(norms))
    selected = []
    for n in norms:
        match = next((i for i, m in enumerate(listed.tolist())
                      if m == n and i not in selected), None)
        selected.append(match)
    args = ["expect", "--system", system.key, "--limit", "100",
            "--primes", ",".join(map(str, norms)), "--out", str(tmp_path)]
    if None in selected:
        assert main(args) == 65
    else:
        assert main(args) == 0
        labels = "*".join(names[i] for i in selected)
        assert f"primes={labels}" in capsys.readouterr().out


def test_bad_configs_exit_65(tmp_path):
    missing = tmp_path / "absent.json"
    assert main(["--config", str(missing), "--out", str(tmp_path / "o")]) == 65

    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope", encoding="utf-8")
    assert main(["--config", str(not_json), "--out", str(tmp_path / "o")]) == 65

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"command": "frobnicate", "format": "csv"}),
                       encoding="utf-8")
    assert main(["--config", str(unknown), "--out", str(tmp_path / "o")]) == 65

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"command": "primes", "format": "csv",
                                      "seed": None}), encoding="utf-8")
    assert main(["--config", str(incomplete), "--out", str(tmp_path / "o")]) == 65

    # structurally complete but with a junk value inside
    mangled = tmp_path / "mangled.json"
    mangled.write_text(json.dumps({
        "command": "primes", "format": "csv", "seed": None,
        "system": {"kind": "integers"}, "limit": "twelve",
    }), encoding="utf-8")
    assert main(["--config", str(mangled), "--out", str(tmp_path / "o")]) == 65

    # a system or g that is not a JSON object
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"command": "primes", "format": "csv",
                                "system": "integers", "limit": 10}), encoding="utf-8")
    assert main(["--config", str(flat), "--out", str(tmp_path / "o")]) == 65

    # an empty grid, which no command line can give
    for command, extra in (("mgf-gap", {"g": {"kind": "omega"}, "cap": 5.0, "theta": 1.0}),
                           ("mertens", {})):
        empty = tmp_path / f"empty-{command}.json"
        empty.write_text(json.dumps({"command": command, "format": "csv",
                                     "system": {"kind": "integers"}, "grid": [], **extra}),
                         encoding="utf-8")
        assert main(["--config", str(empty), "--out", str(tmp_path / "o")]) == 65


def test_budget_exit_66(tmp_path):
    assert main(["count", "--limit", "200000000000", "--out", str(tmp_path)]) == 66
    assert main(["density", "--system", "quad:-4", "--grid", "1000,10000,100000,1000000000001",
                 "--out", str(tmp_path)]) == 66


# (argv, a grid whose largest X is 1e12 or the largest power of q below it,
# the same grid past 1e12): the closed-form element counts reach 1e12
# without a prime list or a frontier, and refuse any X above it
COUNT_CAP_RUNS = [
    ("density", "quad:-4", "1000000,100000000,10000000000,1000000000000",
     "1000000,100000000,10000000000,1000000000001"),
    ("mgf-gap", "quad:-4", "1000000,100000000,10000000000,1000000000000",
     "1000000,100000000,10000000000,1000000000001"),
    # 2^40 is the first power of 2 past 1e12; density ignores any other X
    ("density", "poly:2", "68719476736,137438953472,274877906944,549755813888",
     "137438953472,274877906944,549755813888,1099511627776"),
    ("mgf-gap", "poly:2", "1024,1048576,1073741824,549755813888",
     "1024,1048576,1073741824,1000000000001"),
]


@pytest.mark.parametrize("command,system,at_cap,over_cap", COUNT_CAP_RUNS,
                         ids=[f"{c} {s}" for c, s, _, _ in COUNT_CAP_RUNS])
def test_closed_form_counts_reach_1e12(command, system, at_cap, over_cap, tmp_path, capsys):
    argv = [command, "--system", system, "--format", "json"]
    assert main(argv + ["--grid", at_cap, "--out", str(tmp_path / "at")]) in (0, 1)
    report = json.loads((tmp_path / "at" / f"{command}.json").read_text())
    grid = [int(x) for x in at_cap.split(",")]
    if command == "density":
        assert report["grid"] == grid and report["status"] == "OK"
    else:
        assert [row["X"] for row in report["rows"]] == grid
    capsys.readouterr()
    assert main(argv + ["--grid", over_cap, "--out", str(tmp_path / "over")]) == 66
    assert "budget error:" in capsys.readouterr().err
    assert not (tmp_path / "over" / f"{command}.json").exists()


@pytest.mark.parametrize("argv", [
    ["dominate", "--system", "quad:-4", "--limit", "100000001"],
    ["sweep", "--system", "quad:-4", "--grid", "1000,10000,100000,100000001"],
], ids=lambda argv: argv[0])
def test_quad_prime_list_readers_keep_the_sieve_cap(argv, tmp_path):
    assert main(argv + ["--out", str(tmp_path)]) == 66


PRIME_READERS = [
    ["mertens", "--grid", "1000000000000"],
    ["tail-mass", "--limit", "1000000000000"],
    ["dominate", "--limit", "1000000000000"],
    ["expect", "--system", "quad:-4", "--limit", "1000000000000", "--primes", "1000000009"],
    ["primes", "--system", "poly:2", "--limit", "1000000000000"],
    ["sweep", "--grid", "1000,10000,100000,1000000000000"],
]


@pytest.mark.parametrize("argv", PRIME_READERS, ids=lambda argv: argv[0])
def test_prime_readers_exit_66_above_the_sieve_cap(argv, tmp_path, monkeypatch, capsys):
    # every builder of a prime list refuses an X above the cap, so a missing
    # check fails here instead of allocating
    def guarded(build, at):  # X is the argument at index `at`
        def build_below_cap(*args):
            assert args[at] <= 10**8, f"primes built up to X={args[at]}"
            return build(*args)
        return build_below_cap

    monkeypatch.setattr(systems, "primes_upto", guarded(systems.primes_upto, 0))
    for cls in (Integers, PolyOverFq, QuadraticField, Beurling):
        for name in ("_norms", "_labels"):
            monkeypatch.setattr(cls, name, guarded(getattr(cls, name), 1))
    assert main(argv + ["--out", str(tmp_path)]) == 66
    assert "budget error:" in capsys.readouterr().err


FAULTY_GRIDS = [
    ["mertens", "--grid", "2,1000000000000"],
    ["sweep", "--grid", "2,10,100,1000000000000"],
    ["mgf-gap", "--system", "quad:-4", "--grid", "10,100000000"],
]


@pytest.mark.parametrize("argv", FAULTY_GRIDS, ids=lambda argv: argv[0])
def test_a_bad_small_x_is_rejected_before_the_over_cap_x(argv, tmp_path):
    # a grid is checked whole before anything is built at its largest X
    assert main(argv + ["--out", str(tmp_path)]) == 65


# (argv, the X of its one prime list or None for none, small B lists it may
# add, frontiers run): a command builds at most one prime list and one element
# counter, at its largest X; only Beurling counters run the frontier
BUILD_COUNTS = [
    (["sweep", "--grid", "1000,10000,30000,100000"], 100_000, 0, 0),
    (["mertens", "--grid", "1000,10000,100000,1000000,3000000"], 3_000_000, 0, 0),
    (["ek", "--limit", "100000"], 100_000, 0, 0),
    (["ek", "--system", "quad:-4", "--limit", "100000"], 100_000, 0, 1),
    (["ldp-scan", "--system", "quad:-4", "--grid", "1000,10000,100000"], 100_000, 0, 1),
    (["dominate", "--system", "quad:-4", "--limit", "30000", "--kmax", "3"], 30_000, 0, 0),
    (["sweep", "--system", "quad:-4", "--grid", "1000,10000,30000,100000"], 100_000, 0, 0),
    # one B list per X, up to floor(k_X) <= 7 here, and no other
    (["mgf-gap", "--system", "quad:-4", "--grid", "1000,10000,100000,300000"], None, 4, 0),
    (["density", "--system", "quad:-4", "--grid", "1000,10000,100000,300000"], None, 0, 0),
    (["expect", "--system", "quad:-4", "--limit", "1000000000000", "--primes", "5,9973,5"],
     9973, 0, 0),
]


@pytest.mark.parametrize("argv,X,b_lists,frontiers", BUILD_COUNTS,
                         ids=lambda v: " ".join(v[:3]) if isinstance(v, list) else None)
def test_each_command_builds_one_prime_list(argv, X, b_lists, frontiers, tmp_path,
                                            monkeypatch):
    built = collections.defaultdict(list)  # builder -> the X of each call

    def counted(name, build):
        def build_and_count(*args):
            built[name].append(args[1])  # X follows self or the prime norms
            return build(*args)
        return build_and_count

    for cls in (Integers, PolyOverFq, QuadraticField, Beurling):
        monkeypatch.setattr(cls, "_norms", counted("_norms", cls._norms))
    monkeypatch.setattr(monoid, "_frontier", counted("_frontier", monoid._frontier))
    assert main(argv + ["--out", str(tmp_path)]) in (0, 1)
    big = [x for x in built["_norms"] if x > 7]
    assert big == ([] if X is None else [X])
    assert len(built["_norms"]) - len(big) == b_lists
    assert built["_frontier"] == [X] * frontiers


def test_expect_builds_one_prime_list(tmp_path, monkeypatch):
    # the asked primes' labels and the membership check read the columns of
    # one list_primes call, at the largest norm asked, whose labels read its
    # norms and so run no second sieve
    built = collections.defaultdict(list)  # builder -> the X of each call

    def counted(name, build):
        def build_and_count(*args):
            built[name].append(args[0 if name == "primes_upto" else 1])
            return build(*args)
        return build_and_count

    monkeypatch.setattr(systems, "primes_upto", counted("primes_upto", systems.primes_upto))
    for cls in (Integers, PolyOverFq, QuadraticField, Beurling):
        for name in ("_norms", "_labels"):
            monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    argv = ["expect", "--system", "quad:-4", "--limit", "1000000000000",
            "--primes", "5,9973,5", "--out", str(tmp_path)]
    assert main(argv) == 0
    # the sieves below |D| = 4 build chi_D's table
    assert [x for x in built.pop("primes_upto") if x > 4] == [9973]
    assert built == {"_norms": [9973], "_labels": [9973]}


def test_help_exits_zero():
    assert main(["-h"]) == 0
    assert main(["rate", "-h"]) == 0


JSON_RUNS = [
    (["primes", "--limit", "50"], "primes"),
    (["count", "--limit", "200", "--g", "residue:4:1:1:0"], "count"),
    (["density", "--grid", "geom:100:10000:4"], "density"),
    (["mertens", "--grid", "100,1000"], "mertens"),
    (["expect", "--limit", "10", "--primes", "2,3"], "expect"),
    (["dominate", "--limit", "50", "--kmax", "2"], "dominate"),
    (["mgf-gap", "--grid", "100,1000"], "mgf-gap"),
    (["tail-mass", "--limit", "100"], "tail-mass"),
    (["rate"], "rate"),
    (["ek", "--limit", "1000"], "ek"),
    (["ldp-scan", "--grid", "100,1000"], "ldp-scan"),
    (["sweep", "--grid", "geom:100:10000:4"], "sweep"),
]


@pytest.mark.parametrize("argv,name", JSON_RUNS, ids=[n for _, n in JSON_RUNS])
def test_json_outputs_parse(tmp_path, argv, name):
    code = main(argv + ["--format", "json", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / f"{name}.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["command"] == name
    json.loads((tmp_path / "config-echo.json").read_text())


def test_ldp_scan_json_serializes_infinity_as_string(tmp_path):
    main(["ldp-scan", "--grid", "100", "--intervals", "1.5:inf",
          "--format", "json", "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "ldp-scan.json").read_text())
    assert payload["rows"][0]["x_hi"] == "inf"


def test_config_echo_replay_is_byte_identical(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["ek", "--limit", "1000", "--format", "json",
                 "--out", str(first)]) == 0
    assert main(["--config", str(first / "config-echo.json"),
                 "--out", str(second)]) == 0
    assert (first / "ek.json").read_bytes() == (second / "ek.json").read_bytes()
    assert (first / "config-echo.json").read_bytes() == \
        (second / "config-echo.json").read_bytes()

    # echoes written while --seed existed carry "seed": null and still replay
    old_echo = tmp_path / "old-echo.json"
    echo = json.loads((first / "config-echo.json").read_text())
    old_echo.write_text(json.dumps({**echo, "seed": None}, indent=2, sort_keys=True),
                        encoding="utf-8")
    third = tmp_path / "third"
    assert main(["--config", str(old_echo), "--out", str(third)]) == 0
    assert (first / "ek.json").read_bytes() == (third / "ek.json").read_bytes()
    assert (first / "config-echo.json").read_bytes() == \
        (third / "config-echo.json").read_bytes()


def test_config_replay_rejects_other_overrides(tmp_path):
    out = tmp_path / "out"
    assert main(["primes", "--limit", "20", "--out", str(out)]) == 0
    cfg = str(out / "config-echo.json")
    assert main(["--config", cfg, "--format", "json", "--out", str(tmp_path / "x")]) == 64
    assert main(["--config", cfg, "--out", str(tmp_path / "y"), "--threads", "2"]) == 0


def test_threads_do_not_change_bytes(tmp_path):
    a, b = tmp_path / "t1", tmp_path / "t4"
    args = ["ldp-scan", "--grid", "100,1000", "--intervals", "1.5:inf,0:1.5"]
    assert main(args + ["--threads", "1", "--out", str(a)]) == 0
    assert main(args + ["--threads", "4", "--out", str(b)]) == 0
    for name in ("ldp-scan.csv", "config-echo.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_sweep_exit_reflects_overall_flag(tmp_path, capsys):
    norms = tmp_path / "norms.txt"
    norms.write_text("2\n2\n2\n", encoding="utf-8")
    code = main(["sweep", "--system", f"beurling:{norms}",
                 "--grid", "10,100,1000,10000", "--out", str(tmp_path)])
    assert code == 2
    assert "overall=FAILED" in capsys.readouterr().out


def test_mgf_gap_past_exp_overflow_uses_log_space(tmp_path):
    code = main(["mgf-gap", "--grid", "100,1000", "--theta", "800",
                 "--format", "json", "--out", str(tmp_path)])
    assert code == 0
    rows = json.loads((tmp_path / "mgf-gap.json").read_text())["rows"]
    assert rows and all(r["log_space"] for r in rows)
    assert all(math.isfinite(r["gap"]) for r in rows)


@pytest.mark.parametrize("argv,statistic", [(["tail-mass", "--theta", "800"], "tail_mass"),
                                            (["sweep", "--theta-grid", "800"], "exp_moment")],
                         ids=["tail-mass", "sweep"])
def test_infinite_moment_is_a_runtime_error(tmp_path, capsys, argv, statistic):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    # the message names the statistic, theta and the y whose e^(theta*y) overflowed
    assert f"{statistic} is infinite at theta=800.0" in err
    assert "e^(theta*y) overflows at y=1.0" in err


def test_tail_mass_sum_overflow_names_the_sum(tmp_path, capsys):
    # every term e^(709.7) / p is finite; their sum over p <= 100 is not
    assert main(["tail-mass", "--theta", "709.7", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tail_mass is infinite at theta=709.7: the sum overflows")


@pytest.mark.parametrize("option,value,argv", [
    ("--grid", "-1,0,0.5", ["rate"]),
    ("--intervals", "-inf:1,1:inf", ["ldp-scan", "--grid", "100,1000"]),
], ids=["rate-grid", "ldp-scan-intervals"])
def test_dash_value_binds_like_equals_spelling(tmp_path, option, value, argv):
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert main(argv + [option, value, "--out", str(spaced)]) == 0
    assert main(argv + [f"{option}={value}", "--out", str(joined)]) == 0
    report = f"{argv[0]}.csv"
    for name in (report, "config-echo.json"):
        assert (spaced / name).read_bytes() == (joined / name).read_bytes()


def test_option_string_is_not_taken_as_a_value(tmp_path):
    assert main(["rate", "--grid", "--format", "json", "--out", str(tmp_path)]) == 64
    assert main(["rate", "--grid", "-h"]) == 64


@pytest.mark.parametrize("value, text", [
    (0, "0"), (-7, "-7"), (10**30, "1" + "0" * 30), ("abc", "abc"), (0.1, "0.1"),
    (1e300, "1e+300"), (5e-324, "4.94065645841e-324"), (-0.0, "-0"),
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
    (True, "true"), (False, "false"), (Fraction(-1, 3), "-1/3"),
    (np.int64(5), "5"), (np.uint32(7), "7"), (np.float64(0.1), "0.1"),
    (np.float64(-math.inf), "-inf"), (np.bool_(True), "True"),
])
def test_fmt_cells(value, text):
    # exact int, str and finite float take fmt's fast path; the rest do not
    assert fmt(value) == text

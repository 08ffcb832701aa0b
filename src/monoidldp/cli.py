"""Command-line front end.

Twelve subcommands, each writing <command>.csv or <command>.json plus a
config-echo.json into --out (default "reports"). The echo is self-contained:
measures are inlined as atoms and Beurling systems as their norm list, so

    monoidldp --config reports/config-echo.json --out replay

reproduces a run byte for byte. Only --out and --threads may accompany
--config; everything else must come from the echo. --threads is kept for
old scripts and changes nothing (below 1 it is a usage error). Echoes no
longer carry "seed"; older echoes that do still replay, to an echo without it.

Exit codes: 0 PASS, 1 WARN, 2 FAILED or runtime error, 64 usage error,
65 bad parameter or input file, 66 budget exceeded.

Every option of a subcommand is echoed, as is --format; only --out and
--threads are not.

Each subcommand is one COMMAND_TABLE entry (help, handler, options) that
drives the parser, the echo, the --config key check and dispatch. Handlers
only compute; _emit writes the Report they return as CSV or JSON.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .additive import (
    AdditiveFunction,
    DiscreteMeasure,
    NormResidue,
    Omega,
)
from .errors import (
    BudgetExceeded,
    MonoidLdpError,
    ParameterError,
    SourceError,
)
from .exact import domination_report, expect_Y, expect_Z, tail_mass
from .experiments import LDPRow, condition_sweep, ek_report, gap_sweep, ldp_scan
from .monoid import table_blocks
from .rate import rate_profile
from .reportio import Records, fmt, write_csv, write_echo, write_json
from .systems import (
    Beurling,
    Integers,
    PolyOverFq,
    PrimeSystem,
    QuadraticField,
    density_fit,
    list_primes,
    mertens_sum,
    prime_norms,
)


class UsageError(Exception):
    """Command-line misuse; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2)
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse takes a value such as "-1,0,0.5" or "-inf:1" for an option
        # of its own; bind it to the option before it, as "--grid=-1,0,0.5"
        # would, unless it is itself one of this parser's option strings
        if args is not None:
            actions, bound = self._option_string_actions, []
            for arg in args:
                prev = actions.get(bound[-1]) if bound else None
                if (prev is not None and prev.nargs is None and arg.startswith("-")
                        and arg not in actions):
                    bound[-1] += "=" + arg
                else:
                    bound.append(arg)
            args = bound
        return super().parse_known_args(args, namespace)


# ---------------------------------------------------------------------------
# argument value parsing (syntax errors -> ValueError -> argparse -> 64;
# domain errors surface later as ParameterError/SourceError -> 65)

def _system_arg(text: str) -> dict:
    if text == "integers":
        return {"kind": "integers"}
    kind, sep, rest = text.partition(":")
    if sep and rest:
        if kind == "poly":
            return {"kind": "poly", "q": int(rest)}
        if kind == "quad":
            return {"kind": "quad", "D": int(rest)}
        if kind == "beurling":
            b = Beurling.from_file(rest)
            return {"kind": "beurling", "source": b.source, "norms": list(b.norms)}
    raise ValueError(
        f"system must be integers, poly:Q, quad:D or beurling:PATH, got {text!r}"
    )


def _g_arg(text: str) -> dict:
    if text == "omega":
        return {"kind": "omega"}
    parts = text.split(":")
    if parts[0] == "residue" and len(parts) == 5:
        return {
            "kind": "residue",
            "modulus": int(parts[1]),
            "residues": [int(r) for r in parts[2].split(",")],
            "value_in": float(parts[3]),
            "value_out": float(parts[4]),
        }
    raise ValueError(f"g must be omega or residue:M:R1[,R2...]:VIN:VOUT, got {text!r}")


def _rho_arg(text: str) -> dict:
    if text == "delta1":
        measure = DiscreteMeasure.delta(1.0)
    else:
        try:
            payload = Path(text).read_text(encoding="utf-8")
        except OSError as e:
            raise SourceError(f"cannot read measure file {text}: {e}") from e
        measure = DiscreteMeasure.from_json(payload)
    return {"atoms": _atoms(measure)}


def _atoms(measure: DiscreteMeasure) -> list[dict]:
    return [{"y": y, "w": w} for y, w in measure.atoms]


def _geom_points(start: float, stop: float, steps: int) -> list[float]:
    if steps < 2:
        raise ValueError("geom grid needs steps >= 2")
    if not 0 < start < stop:
        raise ValueError("geom grid needs 0 < start < stop")
    ratio = stop / start
    return [start * ratio ** (i / (steps - 1)) for i in range(steps)]


def _grid_int_arg(text: str) -> list[int]:
    if text.startswith("geom:"):
        _, a, b, n = text.split(":")
        # the points ascend, so rounding can only repeat neighbours
        return sorted({round(v) for v in _geom_points(int(a), int(b), int(n))})
    return [int(v) for v in text.split(",")]


def _grid_float_arg(text: str) -> list[float]:
    if text.startswith("geom:"):
        _, a, b, n = text.split(":")
        return _geom_points(float(a), float(b), int(n))
    return [float(v) for v in text.split(",")]


def _intervals_arg(text: str) -> list[list[float]]:
    out = []
    for part in text.split(","):
        lo_s, hi_s = part.split(":")
        out.append([float(lo_s), float(hi_s)])
    return out


def _norms_arg(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


# argparse uses the type callable's __name__ in its error messages
for _fn, _label in (
    (_system_arg, "system"), (_g_arg, "g"), (_rho_arg, "measure"),
    (_grid_int_arg, "grid"), (_grid_float_arg, "grid"),
    (_intervals_arg, "intervals"), (_norms_arg, "norm list"),
):
    _fn.__name__ = _label


# ---------------------------------------------------------------------------
# rebuilding objects from a config dict (CLI parse and --config replay share
# this path, so the echo reproduces runs exactly)

def _kind(data: Any, what: str) -> Any:
    if not isinstance(data, dict):
        raise SourceError(f"{what} in config must be a JSON object, got {data!r}")
    return data.get("kind")


def _build_system(data: dict) -> PrimeSystem:
    kind = _kind(data, "system")
    if kind == "integers":
        return Integers()
    if kind == "poly":
        return PolyOverFq(int(data["q"]))
    if kind == "quad":
        return QuadraticField(int(data["D"]))
    if kind == "beurling":
        return Beurling(
            tuple(int(n) for n in data["norms"]), source=str(data["source"])
        )
    raise SourceError(f"unknown system kind {kind!r} in config")


def _build_g(data: dict) -> AdditiveFunction:
    kind = _kind(data, "g")
    if kind == "omega":
        return Omega()
    if kind == "residue":
        return NormResidue(
            modulus=int(data["modulus"]),
            residues=frozenset(int(r) for r in data["residues"]),
            value_in=float(data["value_in"]),
            value_out=float(data["value_out"]),
        )
    raise SourceError(f"unknown additive function kind {kind!r} in config")


def _build_rho(data: dict) -> DiscreteMeasure:
    return DiscreteMeasure.from_pairs(
        [(float(a["y"]), float(a["w"])) for a in data["atoms"]]
    )


_BUILDERS = {"system": _build_system, "g": _build_g, "rho": _build_rho}


# ---------------------------------------------------------------------------
# subcommand handlers: args -> Report, args being the config with
# system, g and rho built; main prints the summary after "<command>: ".

class Report(NamedTuple):
    code: int
    summary: str
    header: Sequence[str]
    blocks: Iterable[Sequence[Sequence[Any]]]  # the CSV body: blocks of columns
    body: dict  # the JSON report, less its "command" key


def _by_column(rows: Iterable[Sequence[Any]]) -> list[list[tuple]]:
    """A few rows turned into one block of columns; no rows give no
    columns."""
    return [list(zip(*rows))]


def _run_primes(a: dict) -> Report:
    system, X = a["system"], int(a["limit"])
    norms, labels = list_primes(system, X)
    header = ["norm", "label"]
    # one set of columns serves both formats
    columns = [norms, labels]
    return Report(
        0, f"{len(labels)} primes of norm <= {X} in {system.key}", header, [columns],
        {"system": system.key, "X": X, "count": len(labels),
         "primes": Records(header, columns)},
    )


def _run_count(a: dict) -> Report:
    system, g, X = a["system"], a["g"], int(a["limit"])
    # the rows are built, and sorted, only if the CSV writer reads them
    hist, blocks = table_blocks(system, X, g)
    count = int(hist.sum())
    mean_omega = float(hist @ np.arange(hist.size)) / count
    return Report(
        0, f"{count} elements of norm <= {X}, mean omega {fmt(mean_omega)}",
        ["norm", "omega", "gsum"], blocks,
        {"system": system.key, "X": X, "g": g.key,
         "count": count, "mean_omega": mean_omega,
         "omega_histogram": [int(c) for c in hist]},
    )


def _run_density(a: dict) -> Report:
    fit = density_fit(a["system"], [int(v) for v in a["grid"]])
    summary = (f"status={fit.status} a_hat={fmt(fit.a_hat)} "
               f"b_hat={fmt(fit.b_hat)} slope={fmt(fit.slope)}")
    if fit.unsupported:
        summary += f" unsupported={list(fit.unsupported)}"
    return Report(
        2 if fit.status == "FAILED" else 0, summary,
        ["X", "count", "a_hat", "b_hat", "slope", "residual", "status"],
        _by_column((X, c, fit.a_hat, fit.b_hat, fit.slope, r, fit.status)
                   for (X, c, (_, r)) in zip(fit.grid, fit.counts, fit.residuals)),
        {"system": a["system"].key, **dataclasses.asdict(fit)},
    )


def _run_mertens(a: dict) -> Report:
    grid = [int(v) for v in a["grid"]]
    if not grid:
        raise ParameterError("grid must be nonempty")
    # the whole grid is checked before the primes are built at its largest X
    if min(grid) < 3:
        raise ParameterError(f"mertens needs every X >= 3, got {min(grid)}")
    norms = prime_norms(a["system"], max(grid))
    rows = [(X, *mertens_sum(norms, X)) for X in grid]
    X, s, d = rows[-1]
    return Report(0, f"X={X} sum={fmt(s)} deviation={fmt(d)}",
                  ["X", "sum", "deviation"], _by_column(rows),
                  {"system": a["system"].key, "rows": rows})


def _run_expect(a: dict) -> Report:
    system, X = a["system"], int(a["limit"])
    norms = [int(n) for n in a["primes"]]
    # by prefix stability, the primes up to the largest norm asked suffice
    primes, names = list_primes(system, min(X, max([1, *norms])))
    # the columns are in (norm, label) order: the first unused prime of
    # norm n is the used[n]-th one from n's first
    used: dict[int, int] = {}
    chosen = []
    for n in norms:
        i = int(primes.searchsorted(n)) + used.get(n, 0)
        if i == len(primes) or primes[i] != n:
            raise ParameterError(f"no unused prime of norm {n} in {system.key} up to {X}")
        used[n] = used.get(n, 0) + 1
        chosen.append(names[i])
    # the membership check reads the same norm column
    z = expect_Z(system, X, norms, primes)
    y = expect_Y(norms)
    ratio = z / y
    labels = "*".join(chosen)
    return Report(
        0, f"Z={fmt(z)} Y={fmt(y)} ratio={fmt(ratio)} primes={labels}",
        ["X", "primes", "expect_Z", "expect_Y", "ratio"],
        _by_column([(X, labels, z, y, ratio)]),
        {"system": system.key, "X": X, "primes": chosen,
         "expect_Z": z, "expect_Z_float": float(z),
         "expect_Y": y, "expect_Y_float": float(y),
         "ratio": ratio, "ratio_float": float(ratio)},
    )


def _run_dominate(a: dict) -> Report:
    rep = domination_report(a["system"], int(a["limit"]), int(a["kmax"]))
    labels = "*".join(rep.witness)
    return Report(
        0, (f"M_observed={fmt(rep.M_observed)} witness={labels} "
            f"({rep.tuples_examined} tuples examined)"),
        ["X", "k_max", "M_observed", "witness"],
        _by_column([(rep.X, rep.k_max, rep.M_observed, labels)]),
        {"system": a["system"].key, "X": rep.X, "k_max": rep.k_max,
         "M_observed": rep.M_observed, "M_exact": rep.M_exact,
         "witness": list(rep.witness),
         "tuples_examined": rep.tuples_examined},
    )


def _run_mgf_gap(a: dict) -> Report:
    rep = gap_sweep(a["system"], a["g"], [int(v) for v in a["grid"]],
                    float(a["cap"]), float(a["theta"]))
    last = rep.rows[-1]
    return Report(
        0 if rep.trend == "PASS" else 1,
        f"trend={rep.trend} gap(X={last.X})={fmt(last.gap)}",
        ["X", "C", "theta", "mgf_Z", "mgf_Y", "gap"],
        _by_column((r.X, r.C, r.theta, r.mgf_Z, r.mgf_Y, r.gap) for r in rep.rows),
        {"system": a["system"].key, "g": a["g"].key, **dataclasses.asdict(rep)},
    )


def _run_tail_mass(a: dict) -> Report:
    X, C, theta = int(a["limit"]), float(a["cap"]), float(a["theta"])
    fields = {"X": X, "C": C, "theta": theta,
              "tail_mass": tail_mass(a["system"], a["g"], X, C, theta)}
    return Report(
        0, f"X={X} C={fmt(C)} theta={fmt(theta)} tail={fmt(fields['tail_mass'])}",
        list(fields), _by_column([fields.values()]),
        {"system": a["system"].key, "g": a["g"].key, **fields},
    )


def _run_rate(a: dict) -> Report:
    prof = rate_profile(a["rho"], [float(v) for v in a["grid"]])
    points = list(zip(prof.x_grid, prof.I_values, prof.theta_stars,
                      prof.solver_iters, prof.statuses))
    bad, n_conv = (prof.statuses.count(s) for s in ("no-convergence", "converged"))
    return Report(
        1 if bad else 0, f"{len(points)} points, {n_conv} converged, {bad} failed",
        ["x", "I", "theta_star", "iters", "status"],
        _by_column((x, I, math.nan if t is None else t, it, st)
                   for x, I, t, it, st in points),
        {"rho": _atoms(a["rho"]),
         "rows": Records(["x", "I", "theta_star", "iters", "status"],
                         [prof.x_grid, prof.I_values, prof.theta_stars,
                          prof.solver_iters, prof.statuses])},
    )


def _run_ek(a: dict) -> Report:
    rep = ek_report(a["system"], int(a["limit"]), min_norm=int(a["min_norm"]))
    fields = dataclasses.asdict(rep)
    return Report(
        0, (f"X={rep.X} ks_distance={fmt(rep.ks_distance)} "
            f"ks_two_sided={fmt(rep.ks_two_sided)} mean_omega={fmt(rep.mean_omega)}"),
        list(fields), _by_column([fields.values()]), {"system": a["system"].key, **fields},
    )


def _run_ldp_scan(a: dict) -> Report:
    grid = [int(v) for v in a["grid"]]
    intervals = [(float(lo), float(hi)) for lo, hi in a["intervals"]]
    rows = [dataclasses.asdict(r)
            for r in ldp_scan(a["system"], a["g"], grid, intervals, a["rho"])]
    return Report(
        0, f"{len(rows)} rows over {len(grid)} values of X",
        [f.name for f in dataclasses.fields(LDPRow)], _by_column(r.values() for r in rows),
        {"system": a["system"].key, "g": a["g"].key, "rho": _atoms(a["rho"]),
         "rows": rows},
    )


def _run_sweep(a: dict) -> Report:
    rep = condition_sweep(a["system"], a["g"], a["rho"], [int(v) for v in a["grid"]],
                          [float(v) for v in a["theta_grid"]])
    body = dataclasses.asdict(rep)
    sections = [(name, body[name]["flag"]) for name in body if name != "overall"]
    detail = " ".join(f"{name}={flag}" for name, flag in sections)
    return Report(
        {"PASS": 0, "WARN": 1}.get(rep.overall, 2),
        f"overall={rep.overall} {detail}",
        ["section", "flag"], _by_column(sections + [("overall", rep.overall)]),
        {"system": a["system"].key, "g": a["g"].key, **body},
    )


# ---------------------------------------------------------------------------
# the command table: an option is (key, type, default[, argparse extras]) for
# flag --key, "_" as "-"; every option is echoed and required on replay.

class Command(NamedTuple):
    help: str
    run: Callable[[dict], Report]
    options: tuple[tuple, ...]


_SYSTEM = ("system", _system_arg, "integers")
_G = ("g", _g_arg, "omega")
_RHO = ("rho", _rho_arg, "delta1")

COMMAND_TABLE: dict[str, Command] = {
    "primes": Command("list primes of the system up to a norm bound", _run_primes,
                      (_SYSTEM, ("limit", int, 100))),
    "count": Command("enumerate the monoid table (norm, omega, gsum)", _run_count,
                     (_SYSTEM, ("limit", int, 1000), _G)),
    "density": Command("fit count(X) = a X + O(X^b) over a grid", _run_density,
                       (_SYSTEM, ("grid", _grid_int_arg, "geom:100:100000:4"))),
    "mertens": Command("partial sums of 1/N(p) minus log log X", _run_mertens,
                       (_SYSTEM, ("grid", _grid_int_arg, "geom:100:1000000:5"))),
    "expect": Command(
        "exact E[prod Z_p] vs E[prod Y_p] for chosen primes", _run_expect,
        (_SYSTEM, ("limit", int, 100),
         ("primes", _norms_arg, None, {
             "required": True, "metavar": "N1,N2",
             "help": "prime norms; the first unused entry of each norm is taken"}))),
    "dominate": Command("max of expect_Z/expect_Y over distinct-prime tuples", _run_dominate,
                        (_SYSTEM, ("limit", int, 100), ("kmax", int, 3))),
    "mgf-gap": Command(
        "B-side MGF difference over an X grid", _run_mgf_gap,
        (_SYSTEM, _G, ("grid", _grid_int_arg, "geom:1000:1000000:4"),
         ("cap", float, 5.0, {"help": "truncation cap C"}), ("theta", float, 1.0))),
    "tail-mass": Command(
        "rho_X tail integral of e^(theta y) - 1 over y > C", _run_tail_mass,
        (_SYSTEM, _G, ("limit", int, 100), ("cap", float, 0.5), ("theta", float, 1.0))),
    "rate": Command(
        "Legendre transform I(x) over an x grid", _run_rate,
        ((*_RHO, {"help": "delta1 or a JSON measure file"}),
         ("grid", _grid_float_arg, "0,0.25,0.5,0.75,1,1.5,2,2.5,3"))),
    "ek": Command("normalized omega statistic against the standard normal", _run_ek,
                  (_SYSTEM, ("limit", int, 100000), ("min_norm", int, 3))),
    "ldp-scan": Command(
        "exact interval tail probabilities vs the rate bound", _run_ldp_scan,
        (_SYSTEM, _G, _RHO, ("grid", _grid_int_arg, "geom:100:100000:4"),
         ("intervals", _intervals_arg, "1.5:inf", {
             "metavar": "LO:HI[,LO:HI...]", "help": "half-open [lo, hi); inf allowed"}))),
    "sweep": Command(
        "axiom diagnostics bundle with PASS/WARN/FAILED flags", _run_sweep,
        (_SYSTEM, _G, _RHO, ("grid", _grid_int_arg, "geom:100:100000:4"),
         ("theta_grid", _grid_float_arg, "0.5,1"))),
}


def _keys(command: Command) -> list[str]:
    return [opt[0] for opt in command.options]


@functools.cache  # built at the first main call, once per process
def _build_parser() -> _Parser:
    parser = _Parser(prog="monoidldp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in COMMAND_TABLE.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("--out", default="reports", help="output directory")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; changes nothing")
        for key, kind, default, *extra in command.options:
            sp.add_argument("--" + key.replace("_", "-"), type=kind, default=default,
                            **(extra[0] if extra else {}))
    return parser


def _cfg_from_namespace(ns: argparse.Namespace) -> dict:
    """The echoed config of a parsed command line."""
    cfg = {"command": ns.command, "format": ns.format}
    cfg.update((key, getattr(ns, key)) for key in _keys(COMMAND_TABLE[ns.command]))
    return cfg


def _load_config(path: str) -> dict:
    try:
        payload = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise SourceError(f"cannot read config {path}: {e}") from e
    try:
        cfg = json.loads(payload)
    except ValueError as e:
        raise SourceError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise SourceError(f"config {path} must hold a JSON object")
    command = COMMAND_TABLE.get(cfg.get("command"))
    if command is None:
        raise SourceError(f"config {path} names unknown command {cfg.get('command')!r}")
    if cfg.get("format") not in ("csv", "json"):
        raise SourceError(f"config {path} needs format csv or json")
    for key in _keys(command):
        if key not in cfg:
            raise SourceError(f"config {path} is missing key {key!r}")
    # only the keys a fresh run would echo; older echoes also carry "seed"
    return {k: cfg[k] for k in ("command", "format", *_keys(command))}


def _emit(out: Path, cfg: dict, report: Report) -> None:
    """Write the report in the configured format, then cfg as the echo."""
    name, ext = cfg["command"], cfg["format"]
    path = out / f"{name}.{ext}"
    if ext == "csv":
        write_csv(path, report.header, report.blocks)
    else:
        write_json(path, {"command": name, **report.body})
    write_echo(out / "config-echo.json", cfg)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if any(a == "--config" or a.startswith("--config=") for a in argv):
            parser = _Parser(prog="monoidldp")
            parser.add_argument("--config", required=True)
            parser.add_argument("--out", default="reports")
            parser.add_argument("--threads", type=int, default=None)
            ns = parser.parse_args(argv)
            cfg = _load_config(ns.config)
        else:
            ns = _build_parser().parse_args(argv)
            cfg = _cfg_from_namespace(ns)
        if ns.threads is not None and ns.threads < 1:
            raise UsageError(f"--threads must be >= 1, got {ns.threads}")
        out = Path(ns.out)
        out.mkdir(parents=True, exist_ok=True)
        args = {k: _BUILDERS[k](v) if k in _BUILDERS else v for k, v in cfg.items()}
        report = COMMAND_TABLE[cfg["command"]].run(args)
        _emit(out, cfg, report)
        print(f"{cfg['command']}: {report.summary}")
        return report.code
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 64
    except SystemExit as e:  # argparse -h
        return int(e.code or 0)
    except (ParameterError, SourceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 65
    except BudgetExceeded as e:
        print(f"budget error: {e}", file=sys.stderr)
        return 66
    except (ValueError, TypeError, KeyError) as e:
        print(f"error: malformed configuration value: {e}", file=sys.stderr)
        return 65
    # OverflowError: a moment that is truly +inf at this theta
    except (MonoidLdpError, OSError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

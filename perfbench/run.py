"""Benchmark of monoidldp: fixed CLI sessions, timed end to end and traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are in workloads.py. One run is a closed loop with a single
caller: it runs sessions of the workload one after another, each in a fresh
interpreter (session.py), for about --seconds seconds. The first session of
a run uses --threads 1 and only serves as the reference for the determinism
check; the others use T = min(2, nproc) threads.

With --trace 0 the sessions are untraced and the run reports, as medians over
its sessions, the end-to-end metrics:

    session_s    first command's start to last command's return, without
                 the calibration kernel's passes between commands
    setup_s      session process spawn until monoidldp is imported and the
                 session's inputs are rendered
    peak_rss_mb  peak resident set of the session process

The speed of the host drifts by tens of percent over minutes, so the two
times are scaled to a fixed host speed (calibrate.py): each session times a
fixed kernel before its first command and after every command, and the
median wall times are multiplied by calibrate.REFERENCE_S / the median of
all kernel times of the sessions they come from. The unscaled medians and
the kernel's median are printed too.

With --trace 1 traced and untraced sessions alternate; the run reports the
per-layer metrics of tracer.py as medians over the traced sessions, and
trace.overhead_ratio = traced session_s / untraced session_s - 1.

Every command's report is checked (checks.py) after its session ends, and
the bytes of every report and config-echo.json must equal those of the first
session of the run (threads 1, untraced). A failed operation is a command
with an unexpected exit code, an exception, a failed check or different
bytes. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it print the
same metrics by name with unit and sample count.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import workloads
from tracer import CACHE_RATIO_LAYERS, ENTRY_POINTS, UNWRAPPED_HELPERS

HERE = Path(__file__).resolve().parent
SESSION_TIMEOUT_S = 90
END_TO_END = (("session_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for layer in ENTRY_POINTS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.rss_growth_mb"] = "MB"
    for layer in CACHE_RATIO_LAYERS:
        units[f"{layer}.cache_hit_ratio"] = "ratio"
    units.update({
        "monoid.elements": "count", "monoid.elements_per_s": "1/s",
        "monoid.enumerations": "count", "exact.tuples_examined": "count",
        "rate.solver_iters": "count", "rate.points": "count",
        "reportio.bytes_written": "B", "reportio.rows_written": "count",
        "reportio.mb_per_s": "MB/s",
    })
    for command in workloads.ALL_COMMANDS:
        units[f"cli.{command}_s"] = "s"
    units.update({"trace.session_s": "s", "trace.overhead_ratio": "ratio",
                  "trace.cli_coverage": "ratio",
                  "trace.missing_entry_points": "count"})
    return units


class Run:
    """The sessions of one benchmark run and their outcome."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.root, self.workload, self.seed, self.work = root, workload, seed, work
        self.threads = min(2, os.cpu_count() or 1)
        self.sessions: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list[dict[str, str]] | None = None

    def session(self, threads: int, traced: bool) -> dict | None:
        """Run one session, check its outputs; None if it produced no result."""
        k = len(self.sessions)
        out, result_file = self.work / f"s{k}", self.work / f"s{k}.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, str(HERE / "session.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--threads", str(threads),
               "--trace", str(int(traced)), "--out", str(out), "--result", str(result_file)]
        n_commands = len(workloads.render(self.workload, self.seed))
        t_spawn = time.monotonic()
        res = None
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=SESSION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            why = f"session timed out after {SESSION_TIMEOUT_S} s"
        else:
            try:
                res = json.loads(result_file.read_text(encoding="utf-8"))
            except (OSError, ValueError) as e:
                tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
                why = f"session exited {proc.returncode} without a result: {e} {tail}"
        self.attempted += n_commands
        if res is None:
            self.failed += n_commands
            self.problems.append(why)
            return None
        res["setup_s"] = res["t_ready"] - t_spawn
        res["threads"], res["traced"] = threads, traced
        self._check(res, out)
        shutil.rmtree(out, ignore_errors=True)
        self.sessions.append(res)
        return res

    def _check(self, res: dict, out: Path) -> None:
        facts, problems, dig = [], [], []
        for i, c in enumerate(res["commands"]):
            outdir = out / f"{i}-{c['argv'][0]}"
            f: dict = {}
            problems.append(checks.check_command(c["argv"], outdir, c["code"], f))
            facts.append(f)
            dig.append(checks.digests(outdir) if outdir.is_dir() else {})
        for i, ps in checks.check_session(facts).items():
            problems[i] += ps
        if self.reference is None:
            self.reference = dig
        for i, d in enumerate(dig):
            if d != self.reference[i]:
                problems[i].append("report or echo bytes differ from the run's first session")
        for c, ps in zip(res["commands"], problems):
            if ps:
                self.failed += 1
                label = "traced " if res["traced"] else ""
                self.problems.append(
                    f"{label}threads={res['threads']} {' '.join(c['argv'])}: {'; '.join(ps)}")

    def loop(self, seconds: float, trace: bool) -> None:
        """Sessions back to back until the next one would end after `seconds`."""
        deadline = time.monotonic() + seconds
        t = time.monotonic()
        if self.session(1, False) is None:
            return
        longest = time.monotonic() - t
        for traced in itertools.cycle((False, True) if trace else (False,)):
            have = {s["traced"] for s in self.sessions if s["threads"] == self.threads}
            enough = False in have and (True in have or not trace)
            if enough and time.monotonic() + longest > deadline:
                return
            t = time.monotonic()
            if self.session(self.threads, traced) is None:
                return
            longest = max(longest, time.monotonic() - t)

    def timed(self, traced: bool) -> list[dict]:
        return [s for s in self.sessions if s["threads"] == self.threads and s["traced"] == traced]


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return "no percentile above the median has 10 samples beyond it (n < 20)"
    k = n - 10
    return f"p{100 * k // n}={sorted(values)[k - 1]:.6g}"


def end_to_end(run: Run) -> dict[str, dict]:
    timed = run.timed(False)
    kernel = [k for s in timed for k in s["kernel_s"]]
    kernel_s = statistics.median(kernel) if kernel else calibrate.REFERENCE_S
    scale = calibrate.REFERENCE_S / kernel_s
    print(f"  {'kernel_s':<14} {kernel_s:>12.6g} s     median of n={len(kernel)} kernel passes; "
          f"times below scaled by {calibrate.REFERENCE_S} / {kernel_s:.6g} = {scale:.6g}")
    metrics = {}
    for name, unit in END_TO_END:
        values = [s[name] for s in timed]
        median = statistics.median(values) if values else 0.0
        metrics[name] = {"value": median * scale if unit == "s" else median, "unit": unit}
        unscaled = f"unscaled median {median:.6g}, " if unit == "s" else ""
        print(f"  {name:<14} {metrics[name]['value']:>12.6g} {unit:<5} "
              f"median of n={len(values)}; {_tail(values)}; {unscaled}samples "
              + " ".join(f"{v:.4g}" for v in values))
    return metrics


def per_layer(run: Run) -> dict[str, dict]:
    traced, plain = run.timed(True), run.timed(False)
    units = per_layer_units()
    metrics = {}
    for name, unit in units.items():
        values = [s["layers"].get(name, 0.0) for s in traced]
        metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    if traced and plain:
        ratio = (statistics.median(s["session_s"] for s in traced)
                 / statistics.median(s["session_s"] for s in plain)) - 1.0
        metrics["trace.overhead_ratio"]["value"] = ratio
    session_s = metrics["trace.session_s"]["value"]
    print(f"  traced sessions n={len(traced)}, untraced n={len(plain)}")
    print(f"  {'layer':<12} {'calls':>9} {'self_s':>9} {'share':>7} {'rss_mb':>8}")
    in_table = set()
    for layer in ENTRY_POINTS:
        calls, self_s, rss = (f"{layer}.{k}" for k in ("calls", "self_s", "rss_growth_mb"))
        in_table |= {calls, self_s, rss}
        share = metrics[self_s]["value"] / session_s if session_s else 0.0
        print(f"  {layer:<12} {metrics[calls]['value']:>9.0f} {metrics[self_s]['value']:>9.4f} "
              f"{share:>7.1%} {metrics[rss]['value']:>8.1f}")
    for name, m in metrics.items():
        if name not in in_table:
            print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    missing = sorted({m for s in traced for m in s.get("missing", [])})
    print(f"  entry points missing (skipped): {', '.join(missing) or 'none'}")
    print(f"  unwrapped per-item helpers, timed in their caller's layer: "
          f"{', '.join(UNWRAPPED_HELPERS)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="monoidldp benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "monoidldp" / "cli.py").is_file():
        print(f"no monoidldp sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = HERE / "out" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(root, args.workload, args.seed, work)
        run.loop(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: closed loop, "
          f"one caller, {len(run.sessions)} sessions in fresh interpreters "
          f"(first at threads=1 for the determinism check, then threads={run.threads})")
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")
    metrics = per_layer(run) if args.trace else end_to_end(run)
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'fail_ratio':<14} {ratio:>12.6g} ratio {run.failed} failed of "
          f"{run.attempted} attempted operations")
    correct = run.failed == 0 and bool(run.timed(bool(args.trace)))
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

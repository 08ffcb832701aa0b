"""Repeat benchmark runs over seeds; print spreads and record the baseline.

Usage, from the root of a checkout:

    python3 perfbench/record.py [--workloads a,b] [--seeds 1-10] [--traced-seeds 1-3]
                                [--write perfbench/baseline.json]

Runs run.py once per workload and seed with --trace 0 (and once per traced
seed with --trace 1), for BENCHMARK.json's run_seconds each. For every
end-to-end metric it prints the median, the quartiles of
statistics.quantiles(values, n=4), and their distance as a share of the
median next to the metric's bound. With --write it also records the
environment, the per-layer medians and each layer's share of traced
session_s.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",") if s]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    wall = time.monotonic() - t
    if result is None or not result["correct"]:
        print(proc.stdout, proc.stderr, file=sys.stderr)
    return {"seed": seed, "wall_s": wall, "result": result}


def _summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def _environment(seconds: int, seeds: list[int]) -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    model = next((line.split(":", 1)[1].strip() for line in
                  Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": model,
        "caches": caches,
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // (1 << 20),
        "program_commit": commit, "threads": min(2, os.cpu_count() or 1),
        "run_seconds": seconds, "seeds": seeds,
    }


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-seeds", default="")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--write", default=None)
    args = ap.parse_args()
    seeds, traced_seeds = _seeds(args.seeds), _seeds(args.traced_seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}

    record = {"environment": _environment(args.seconds, seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [_run(workload, s, args.seconds, 0) for s in seeds]
        entry = {"why": why[workload], "runs_wall_s": [round(r["wall_s"], 2) for r in runs],
                 "failed_runs": sum(1 for r in runs if not (r["result"] or {}).get("correct")),
                 "end_to_end": {}}
        ok = [r["result"] for r in runs if r["result"]]
        for name, bound in bounds.items():
            values = [res["metrics"][name]["value"] for res in ok]
            if len(values) < 2:
                continue
            s = _summary(values)
            entry["end_to_end"][name] = {**s, "values": values}
            print(f"{workload:<15} {name:<12} median {s['median']:.5g} {units[name]}  n={len(values)}"
                  f"  q1 {s['q1']:.5g}  "
                  f"q3 {s['q3']:.5g}  spread {s['spread']:.4f}  bound {bound}  "
                  f"{'ok' if s['spread'] < bound / 3 else 'WIDE'}", flush=True)
        attempted = sum(res["attempted"] for res in ok)
        failed = sum(res["failed"] for res in ok)
        entry["operations"] = {"attempted": attempted, "failed": failed}
        print(f"{workload:<15} fail_ratio {failed / max(attempted, 1):.4g} ratio "
              f"({failed} failed of {attempted} attempted operations in {len(ok)} runs)")
        print(f"{workload:<15} run walls {entry['runs_wall_s']}  failed runs "
              f"{entry['failed_runs']}", flush=True)
        traced = [_run(workload, s, args.seconds, 1) for s in traced_seeds]
        layers = [r["result"]["metrics"] for r in traced if r["result"]]
        if layers:
            per_layer = {name: statistics.median(m[name]["value"] for m in layers)
                         for name in layers[0]}
            session_s = per_layer["trace.session_s"]
            entry["per_layer"] = per_layer
            entry["layer_share_of_session_s"] = {
                name[:-len(".self_s")]: value / session_s
                for name, value in per_layer.items() if name.endswith(".self_s")}
            print(f"{workload:<15} layer shares " + ", ".join(
                f"{k} {v:.1%}" for k, v in entry["layer_share_of_session_s"].items()),
                flush=True)
        record["workloads"][workload] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

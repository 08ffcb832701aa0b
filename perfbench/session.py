"""One benchmark session, run by run.py in a fresh interpreter.

Usage: python3 perfbench/session.py --workload NAME --seed N --threads T
           --trace 0|1 --out DIR --result FILE

A fresh interpreter per session matters: list_primes, primes_upto,
count_by_enumeration, irreducible_indices and field are in-process caches,
so a second session in one process would measure warm caches.

The session imports monoidldp from ./src, renders its command lines, and
(with --trace 1) installs the tracer; that ends set-up. It then runs each
command in-process through monoidldp.cli.main(argv + ["--out", DIR/<i>-<cmd>,
"--threads", T]). Before the first command and after every command it times
one pass of the calibration kernel (calibrate.py), outside the commands'
time. It writes a JSON result: the monotonic time at which set-up ended,
session seconds (the sum of the commands' seconds: the first command's start
to the last command's return, without the kernel passes), per-command exit
codes and seconds, the kernel times, the process's peak RSS, and the
tracer's per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import monoidldp.cli
    src = (Path.cwd() / "src").resolve()
    if src not in Path(monoidldp.__file__).resolve().parents:
        print(f"monoidldp was imported from {monoidldp.__file__}, not {src}", file=sys.stderr)
        return 2
    import calibrate
    import workloads
    commands = workloads.render(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    t_ready = time.monotonic()

    out = Path(args.out)
    ran = []
    kernel_s = [calibrate.kernel_s()]
    for i, argv in enumerate(commands):
        t = time.perf_counter()
        try:
            code = monoidldp.cli.main(argv + ["--out", str(out / f"{i}-{argv[0]}"),
                                              "--threads", str(args.threads)])
        except Exception as e:  # recorded as a failed operation, the session goes on
            code = f"{type(e).__name__}: {e}"
        ran.append({"argv": argv, "code": code, "seconds": time.perf_counter() - t})
        kernel_s.append(calibrate.kernel_s())
    session_s = sum(c["seconds"] for c in ran)

    result = {
        "t_ready": t_ready,
        "session_s": session_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": ran,
        "kernel_s": kernel_s,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(session_s)
        result["missing"] = tracer.missing
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for one benchmark session, run outside its timed region.

Each check reads a command's report back from its output directory and
compares it with a value the benchmark computes on its own, or with an
identity the report must satisfy. A command fails when its exit code is not
the one its report implies, or when any check finds a problem.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

RATE_RTOL = 1e-9
MGF_RTOL = 1e-9


def opt(argv: list[str], flag: str) -> str | None:
    """Value of a --flag in an argv list, or None."""
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _system(argv: list[str]) -> str:
    return opt(argv, "--system") or "integers"


def _poly_q(system: str) -> int | None:
    return int(system.split(":")[1]) if system.startswith("poly:") else None


def _mobius(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def necklace(q: int, n: int) -> int:
    """Monic irreducibles of degree n over GF(q): (1/n) sum_{d|n} mu(d) q^(n/d)."""
    return sum(_mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def poly_count(q: int, X: int) -> int:
    """Monic polynomials over GF(q) of norm q^deg <= X."""
    total, norm = 0, 1
    while norm <= X:
        total += norm
        norm *= q
    return total


def _quad_minus4_norms(limit: float) -> list[int]:
    """Norms of the prime ideals of Q(i) up to limit: 2 ramifies, p = 1 (mod 4)
    splits into two primes of norm p, p = 3 (mod 4) stays inert with norm p^2."""
    out = []
    for p in range(2, int(limit) + 1):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            if p == 2:
                out.append(2)
            elif p % 4 == 1:
                out += [p, p]
            elif p * p <= limit:
                out.append(p * p)
    return sorted(out)


def _report(outdir: Path, argv: list[str]) -> Path:
    return outdir / f"{argv[0]}.{opt(argv, '--format') or 'csv'}"


def _read(outdir: Path, argv: list[str]):
    path = _report(outdir, argv)
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _check_primes(argv, rep, problems, facts):
    X = int(opt(argv, "--limit"))
    norms = ([int(p["norm"]) for p in rep["primes"]] if isinstance(rep, dict)
             else [int(r[0]) for r in rep[1:]])
    q = _poly_q(_system(argv))
    if q is None:
        return
    got = Counter(norms)
    want, d = {}, 1
    while q ** d <= X:
        want[q ** d] = necklace(q, d)
        d += 1
    if dict(got) != want:
        problems.append(f"per-degree prime counts {dict(got)} differ from necklace sums {want}")


def _check_count(argv, rep, problems, facts):
    X = int(opt(argv, "--limit"))
    if isinstance(rep, dict):
        n = int(rep["count"])
    else:
        if rep[0] != ["norm", "omega", "gsum"]:
            problems.append(f"unexpected CSV header {rep[0]}")
        n = len(rep) - 1
        if n and int(rep[-1][0]) > X:
            problems.append(f"last norm {rep[-1][0]} exceeds X={X}")
    facts["count"] = (X, n)
    q = _poly_q(_system(argv))
    if q is not None and n != poly_count(q, X):
        problems.append(f"count {n} != {poly_count(q, X)} monic polynomials of norm <= {X}")


def _check_density(argv, rep, problems, facts):
    counts = dict(zip(rep["grid"], rep["counts"]))
    facts["density"] = counts
    system = _system(argv)
    q = _poly_q(system)
    for X, c in counts.items():
        if q is not None and c != poly_count(q, X):
            problems.append(f"density count {c} at X={X} != {poly_count(q, X)}")
        if system == "integers" and c != X:
            problems.append(f"density count {c} at X={X} != X")
    # FAILED is the fit's verdict on the residuals (slope >= 1 or a residual
    # reaching half the main term), exit code 2. On quad:-4 the lattice-point
    # error makes it flip with the grid (17 of seeds 0-299 at this workload's
    # grid), so it is an expected outcome when the report supports it.
    resid = rep["residuals"]
    rel = max((abs(r) / (rep["a_hat"] * x) for x, r in resid), default=0.0)
    verdict = rep["slope"] >= 1.0 or rel >= 0.5
    if (rep["status"] == "FAILED") != verdict:
        problems.append(f"density status {rep['status']} does not match its residuals")
    facts["expected_code"] = 2 if rep["status"] == "FAILED" else 0


def _check_ek(argv, rep, problems, facts):
    if _system(argv) == "integers" and rep["samples"] != rep["X"]:
        problems.append(f"ek samples {rep['samples']} != X={rep['X']}")
    if not 0.0 <= rep["ks_distance"] <= 1.0:
        problems.append(f"ks_distance {rep['ks_distance']} outside [0, 1]")


def _check_ldp_scan(argv, rep, problems, facts):
    by_x: dict[int, list[dict]] = {}
    for row in rep["rows"]:
        by_x.setdefault(row["X"], []).append(row)
    if sorted(by_x) != sorted(_ints(opt(argv, "--grid"))):
        problems.append(f"ldp-scan rows cover X={sorted(by_x)}")
    for X, rows in by_x.items():
        total = rows[0]["total"]
        if sum(r["count"] for r in rows) != total:
            problems.append(f"interval counts at X={X} do not partition total={total}")
        if _system(argv) == "integers" and total != X:
            problems.append(f"total {total} at X={X} != X")


def _check_mertens(argv, rep, problems, facts):
    rows = rep["rows"]
    if [r[0] for r in rows] != _ints(opt(argv, "--grid")):
        problems.append("mertens rows do not follow the grid")
    if any(b[1] < a[1] for a, b in zip(rows, rows[1:])):
        problems.append("mertens sums decrease along the grid")


def _grid_points(text: str) -> list[float]:
    """The x values of a rate grid: a,b,c or geom:start:stop:steps."""
    if text.startswith("geom:"):
        _, a, b, n = text.split(":")
        start, stop, steps = float(a), float(b), int(n)
        return [start * (stop / start) ** (i / (steps - 1)) for i in range(steps)]
    return [float(v) for v in text.split(",")]


def _check_rate(argv, rep, problems, facts):
    # the reference uses the unrounded x: near x = 1, I is ~1e-5 and the
    # 12-digit x in the report would shift x log x - x + 1 by ~1e-9 relative
    xs = _grid_points(opt(argv, "--grid"))
    if len(xs) != len(rep["rows"]):
        problems.append(f"rate has {len(rep['rows'])} rows for {len(xs)} grid points")
    for x, row in zip(xs, rep["rows"]):
        I = row["I"]
        ref = x * math.log(x) - x + 1.0
        if not abs(row["x"] - x) <= 1e-11 * x:
            problems.append(f"rate row x={row['x']} where the grid has {x}")
        elif row["status"] != "converged":
            problems.append(f"rate at x={x} has status {row['status']}")
        elif not abs(I - ref) <= RATE_RTOL * abs(ref):
            problems.append(f"rate I({x})={I} differs from x log x - x + 1 = {ref}")


def _check_mgf_gap(argv, rep, problems, facts):
    rows = rep["rows"]
    decreasing = all(b["gap"] < a["gap"] for a, b in zip(rows, rows[1:]))
    if rep["trend"] != ("PASS" if decreasing else "WARN"):
        problems.append(f"trend {rep['trend']} does not match the gaps")
    facts["expected_code"] = 0 if rep["trend"] == "PASS" else 1
    if _system(argv) != "quad:-4" or rep["g"] != "omega":
        return
    theta = float(opt(argv, "--theta") or 1.0)
    for row in rows:
        B = _quad_minus4_norms(row["k_X"])
        ref = math.prod(1.0 + math.expm1(theta) / n for n in B)
        if row["B_size"] != len(B) or row["log_space"]:
            problems.append(f"B at X={row['X']} has {row['B_size']} primes, expected {len(B)}")
        elif not abs(row["mgf_Y"] - ref) <= MGF_RTOL * ref:
            problems.append(f"mgf_Y at X={row['X']} is {row['mgf_Y']}, expected {ref}")


def _check_sweep(argv, rep, problems, facts):
    overall = rep["overall"]
    if overall not in ("PASS", "WARN"):
        problems.append(f"sweep overall {overall}")
    facts["expected_code"] = 1 if overall == "WARN" else 0


def _check_tail_mass(argv, rep, problems, facts):
    if not (math.isfinite(rep["tail_mass"]) and rep["tail_mass"] >= 0.0):
        problems.append(f"tail mass {rep['tail_mass']} is not finite and >= 0")


def _check_dominate(argv, rep, problems, facts):
    if not (rep["tuples_examined"] > 0 and math.isfinite(rep["M_observed"])
            and rep["M_observed"] > 0):
        problems.append("dominate found no tuple or a non-finite maximum")


_CHECKS = {
    "primes": _check_primes, "count": _check_count, "density": _check_density,
    "ek": _check_ek, "ldp-scan": _check_ldp_scan, "mertens": _check_mertens,
    "rate": _check_rate, "mgf-gap": _check_mgf_gap, "sweep": _check_sweep,
    "tail-mass": _check_tail_mass, "dominate": _check_dominate,
}


def check_command(argv: list[str], outdir: Path, code, facts: dict) -> list[str]:
    """Problems with one command's exit code and report; fills `facts` for
    the cross-command checks."""
    problems: list[str] = []
    if not isinstance(code, int):
        return [f"raised {code}"]
    try:
        rep = _read(outdir, argv)
        echo = json.loads((outdir / "config-echo.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return [f"exit code {code}, report unreadable: {e}"]
    if echo.get("command") != argv[0]:
        problems.append(f"config-echo names command {echo.get('command')!r}")
    check = _CHECKS.get(argv[0])
    try:
        if check is not None:
            check(argv, rep, problems, facts)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        problems.append(f"report malformed: {type(e).__name__}: {e}")
    expected = facts.get("expected_code", 0)
    if code != expected:
        problems.append(f"exit code {code}, expected {expected}")
    return problems


def check_session(facts: list[dict]) -> dict[int, list[str]]:
    """Cross-command checks: command index -> problems."""
    out: dict[int, list[str]] = {}
    density = next((f["density"] for f in facts if "density" in f), None)
    for i, f in enumerate(facts):
        if "count" in f and density is not None:
            X, n = f["count"]
            if X in density and density[X] != n:
                out.setdefault(i, []).append(
                    f"count has {n} rows but density counts {density[X]} at X={X}")
    return out


def digests(outdir: Path) -> dict[str, str]:
    """sha256 of every file under outdir, keyed by relative path."""
    return {str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.rglob("*")) if p.is_file()}

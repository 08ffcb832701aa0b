"""The benchmark's workloads: fixed sessions of monoidldp commands.

Each workload is a list of command lines run one after another in one fresh
interpreter. `render(name, seed)` turns it into argv lists. Seed 0 gives the
argv written below. Any other seed changes only two things:

- the residue class R of the `residue:4:R:2:0.5` additive function (1 or 3);
- each X value that is not a power of q, moved by at most 1%. One base value
  maps to one moved value everywhere in the session, so cross-command checks
  and the X-keyed caches of the program line up as they do at seed 0.

The sizes keep one session near 3-5 s on a 2-core machine, so that a run of
the benchmark holds several sessions and reports their median.
"""
from __future__ import annotations

import random

JITTER = 0.01

WHY = {
    "integers-sieve": (
        "integer sieve path up to 3e6, per-prime g evaluation, KS and interval "
        "reductions and rho_X big-int sums; tiny JSON reports, no recursion or gfpoly"
    ),
    "quad-recursive": (
        "recursive enumeration that materializes tables (count, mgf-gap, ek) next to "
        "the count-only path (density, dominate), exact MGFs and one bulk CSV write"
    ),
    "poly-fq": (
        "irreducible sieve over F_q (pure-Python poly_mul for q != 2, numpy for q = 2) "
        "and label building; enumeration is small"
    ),
}


class Inputs:
    """Seeded choices shared by all commands of one session."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)
        self.residue = 1 if seed == 0 else self._rng.choice((1, 3))
        self._moved: dict[int, int] = {}

    def g(self) -> str:
        return f"residue:4:{self.residue}:2:0.5"

    def x(self, *values: int) -> str:
        """Comma-joined X values, each moved by at most JITTER for seed != 0."""
        out = []
        for v in values:
            if v not in self._moved:
                self._moved[v] = v if self.seed == 0 else round(
                    v * (1 + self._rng.uniform(-JITTER, JITTER)))
            out.append(str(self._moved[v]))
        return ",".join(out)


def _integers_sieve(v: Inputs) -> list[list[str]]:
    g = v.g()
    return [
        ["ek", "--limit", v.x(3_000_000), "--format", "json"],
        ["ldp-scan", "--g", g, "--grid", v.x(100_000, 1_000_000, 3_000_000),
         "--intervals", "0:1,1:1.5,1.5:2,2:inf", "--format", "json"],
        ["mertens", "--grid", v.x(1000, 10_000, 100_000, 1_000_000, 3_000_000),
         "--format", "json"],
        ["sweep", "--g", g, "--grid", v.x(1000, 10_000, 30_000, 100_000),
         "--theta-grid", "0.5,1", "--format", "json"],
        ["tail-mass", "--g", g, "--limit", v.x(100_000), "--cap", "1", "--theta", "1",
         "--format", "json"],
        ["rate", "--grid", "geom:0.01:20:400", "--format", "json"],
    ]


def _quad_recursive(v: Inputs) -> list[list[str]]:
    s = ["--system", "quad:-4"]
    return [
        ["count", *s, "--limit", v.x(300_000), "--format", "csv"],
        ["density", *s, "--grid", v.x(1000, 10_000, 100_000, 300_000), "--format", "json"],
        ["dominate", *s, "--limit", v.x(30_000), "--kmax", "3", "--format", "json"],
        ["mgf-gap", *s, "--grid", v.x(1000, 10_000, 100_000, 1_000_000), "--format", "json"],
        ["ek", *s, "--limit", v.x(1_000_000), "--format", "json"],
    ]


def _poly_fq(v: Inputs) -> list[list[str]]:
    return [
        ["primes", "--system", "poly:3", "--limit", "59049", "--format", "csv"],
        ["primes", "--system", "poly:2", "--limit", v.x(300_000), "--format", "json"],
        ["primes", "--system", "poly:9", "--limit", "59049", "--format", "csv"],
        ["primes", "--system", "poly:8", "--limit", "32768", "--format", "csv"],
        ["density", "--system", "poly:3", "--grid", "729,2187,6561,19683,59049",
         "--format", "json"],
        ["count", "--system", "poly:2", "--limit", v.x(100_000), "--format", "json"],
        ["mertens", "--system", "poly:3", "--grid", "81,243,729,2187,6561,19683,59049",
         "--format", "json"],
    ]


WORKLOADS = {
    "integers-sieve": _integers_sieve,
    "quad-recursive": _quad_recursive,
    "poly-fq": _poly_fq,
}

ALL_COMMANDS = sorted({argv[0] for make in WORKLOADS.values() for argv in make(Inputs(0))})


def render(name: str, seed: int) -> list[list[str]]:
    """The session's command lines for this workload and seed."""
    return WORKLOADS[name](Inputs(seed))

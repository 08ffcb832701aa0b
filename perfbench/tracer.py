"""Span tracer that measures monoidldp layer by layer from outside the program.

The layers are the package's modules. `Tracer.install()` rebinds each layer's
entry points, in every loaded `monoidldp.*` namespace that holds them, with a
wrapper that records one span per call: layer, entry point, start and end
(perf_counter), resident set at both ends, the span that was open when the
call began, and a few work counters read from the arguments or the result.
No source file changes; `uninstall()` restores the originals.

Self time of a span is its duration minus the part of it that its child
spans cover. RSS growth of a span is its RSS change minus that of its child
spans, so growth lands on the innermost open span. The package's thread pools
are rebound too, so a task submitted from inside a span runs with that span
as its parent on the pool thread.

Per-item helpers (fmt, round12, poly_mul, monic_coeffs, encode_low,
monic_label, kronecker_at_prime) are left unwrapped: they run up to millions
of times per command, and their time counts toward the calling layer. An
entry point that no longer exists is skipped and listed in `missing`.
"""
from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "gfpoly": ("irreducible_indices", "field", "necklace_count"),
    "systems": ("list_primes", "primes_upto", "count_elements", "density_fit",
                "mertens_sum", "prime_count_check"),
    "additive": ("rho_X", "check_convergence", "exp_moment"),
    "monoid": ("enumerate_monoid", "count_by_enumeration", "histogram"),
    "exact": ("truncation_sets", "gap_components", "mgf_Z", "log_mgf_Z", "mgf_Y",
              "log_mgf_Y", "expect_Z", "domination_report", "tail_mass"),
    "experiments": ("ek_report", "ldp_scan", "gap_sweep", "condition_sweep"),
    "rate": ("rate_profile", "rate"),
    "reportio": ("write_csv", "write_json"),
    "cli": ("main",),
}

UNWRAPPED_HELPERS = ("fmt", "round12", "poly_mul", "monic_coeffs", "encode_low",
                     "monic_label", "kronecker_at_prime")

# layers whose lru/functools caches feed a <layer>.cache_hit_ratio metric
CACHE_RATIO_LAYERS = ("gfpoly", "systems", "monoid")

_MB = float(1 << 20)


class _CountingRows:
    """Passes rows through unchanged and counts them."""

    def __init__(self, rows):
        self._rows = rows
        self.n = 0

    def __iter__(self):
        for row in self._rows:
            self.n += 1
            yield row


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _probe_write_csv(bound):
    counter = _CountingRows(bound.arguments["rows"])
    bound.arguments["rows"] = counter
    return lambda result: {"bytes_written": _file_size(bound.arguments["path"]),
                           "rows_written": counter.n}


def _probe_write_json(bound):
    return lambda result: {"bytes_written": _file_size(bound.arguments["path"])}


def _probe_main(bound):
    argv = bound.arguments.get("argv") or [""]
    return lambda result: {"command": str(argv[0])}


# (layer, entry point) -> probe(bound arguments) -> finish(result) -> counters
PROBES: dict[tuple[str, str], Callable] = {
    ("monoid", "enumerate_monoid"): lambda b: lambda r: {"elements": r.count},
    ("exact", "domination_report"): lambda b: lambda r: {"tuples_examined": r.tuples_examined},
    ("rate", "rate"): lambda b: lambda r: {"solver_iters": r.iters},
    ("reportio", "write_csv"): _probe_write_csv,
    ("reportio", "write_json"): _probe_write_json,
    ("cli", "main"): _probe_main,
}


class _RssReader:
    """Current resident set in bytes, read from /proc/self/statm (Linux)."""

    def __init__(self):
        self._page = os.sysconf("SC_PAGE_SIZE")
        try:
            self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        except OSError:
            self._fd = None

    def __call__(self) -> int:
        if self._fd is None:
            return 0
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class _ContextExecutor(ThreadPoolExecutor):
    """A thread pool whose tasks run in the submitter's context, so spans
    opened on a pool thread get the submitting span as their parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    t0: float
    t1: float
    rss0: int
    rss1: int
    counters: dict | None = None


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Records spans around a package's layer entry points.

    Use as a context manager, or call install() and uninstall().
    """

    def __init__(self, package: str = "monoidldp",
                 entry_points: dict[str, tuple[str, ...]] = ENTRY_POINTS,
                 probes: dict[tuple[str, str], Callable] = PROBES):
        self.package = package
        self.entry_points = entry_points
        self.probes = probes
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._originals: dict[tuple[str, str], Any] = {}
        self._rebound: list[tuple[Any, str, Any]] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
        self._ids = itertools.count(1)
        self._rss = _RssReader()
        self._cache_before: dict[tuple[str, str], tuple[int, int]] = {}

    # -- installation -----------------------------------------------------

    def _namespaces(self) -> list:
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def _rebind(self, original: Any, replacement: Any) -> None:
        for module in self._namespaces():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._rebound.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> "Tracer":
        for layer, names in self.entry_points.items():
            try:
                home = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                self.missing.extend(f"{layer}.{n}" for n in names)
                continue
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    self.missing.append(f"{layer}.{name}")
                    continue
                self._originals[(layer, name)] = original
                info = getattr(original, "cache_info", None)
                if info is not None:
                    ci = info()
                    self._cache_before[(layer, name)] = (ci.hits, ci.misses)
                self._rebind(original, self._wrap(layer, name, original))
        self._rebind(ThreadPoolExecutor, _ContextExecutor)
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()
        self._rss.close()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        current, ids, spans, rss, clock = (
            self._current, self._ids, self.spans, self._rss, time.perf_counter)
        probe = self.probes.get((layer, name))
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            finish = None
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                finish = probe(bound)
                args, kwargs = bound.args, bound.kwargs
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            rss0 = rss()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                rss1 = rss()
                current.reset(token)
                span = Span(sid, parent, layer, name, t0, t1, rss0, rss1)
                spans.append(span)
            if finish is not None:
                span.counters = finish(result)
            return result

        return traced

    # -- reading the record -----------------------------------------------

    def self_times(self) -> dict[int, tuple[float, int]]:
        """Span id -> (self seconds, self RSS growth in bytes)."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            kids = children.get(s.sid, [])
            covered = _covered(s.t0, s.t1, [(c.t0, c.t1) for c in kids])
            growth = (s.rss1 - s.rss0) - sum(c.rss1 - c.rss0 for c in kids)
            out[s.sid] = ((s.t1 - s.t0) - covered, growth)
        return out

    def cache_hit_ratios(self) -> dict[str, float]:
        """Hits / lookups over each layer's cached entry points during the trace."""
        hits: dict[str, int] = {}
        lookups: dict[str, int] = {}
        for (layer, name), (h0, m0) in self._cache_before.items():
            ci = self._originals[(layer, name)].cache_info()
            h, m = ci.hits - h0, ci.misses - m0
            hits[layer] = hits.get(layer, 0) + h
            lookups[layer] = lookups.get(layer, 0) + h + m
        return {layer: (hits[layer] / lookups[layer] if lookups[layer] else 0.0)
                for layer in lookups}

    def layer_metrics(self, session_s: float) -> dict[str, float]:
        """Per-layer metrics for one traced session of session_s seconds."""
        own = self.self_times()
        m: dict[str, float] = {}
        for layer in self.entry_points:
            m[f"{layer}.calls"] = 0
            m[f"{layer}.self_s"] = 0.0
            m[f"{layer}.rss_growth_mb"] = 0.0
        sums: dict[str, float] = {}
        enum_self = 0.0
        enumerations = rate_points = 0
        root_s = 0.0
        per_command: dict[str, float] = {}
        for s in self.spans:
            self_s, growth = own[s.sid]
            m[f"{s.layer}.calls"] += 1
            m[f"{s.layer}.self_s"] += self_s
            m[f"{s.layer}.rss_growth_mb"] += growth / _MB
            for key, value in (s.counters or {}).items():
                if key != "command":
                    sums[key] = sums.get(key, 0) + value
            if (s.layer, s.name) == ("monoid", "enumerate_monoid"):
                enumerations += 1
                enum_self += self_s
            elif (s.layer, s.name) == ("rate", "rate"):
                rate_points += 1
            elif (s.layer, s.name) == ("cli", "main") and s.parent is None:
                root_s += s.t1 - s.t0
                command = s.counters["command"] if s.counters else ""
                per_command[command] = per_command.get(command, 0.0) + (s.t1 - s.t0)
        elements = sums.get("elements", 0)
        m["monoid.elements"] = elements
        m["monoid.enumerations"] = enumerations
        m["monoid.elements_per_s"] = elements / enum_self if enum_self > 0 else 0.0
        m["exact.tuples_examined"] = sums.get("tuples_examined", 0)
        m["rate.solver_iters"] = sums.get("solver_iters", 0)
        m["rate.points"] = rate_points
        written = sums.get("bytes_written", 0)
        m["reportio.bytes_written"] = written
        m["reportio.rows_written"] = sums.get("rows_written", 0)
        io_s = m.get("reportio.self_s", 0.0)
        m["reportio.mb_per_s"] = written / 1e6 / io_s if io_s > 0 else 0.0
        ratios = self.cache_hit_ratios()
        for layer in CACHE_RATIO_LAYERS:
            m[f"{layer}.cache_hit_ratio"] = ratios.get(layer, 0.0)
        for command, seconds in per_command.items():
            m[f"cli.{command}_s"] = seconds
        m["trace.session_s"] = session_s
        m["trace.cli_coverage"] = root_s / session_s if session_s > 0 else 0.0
        m["trace.missing_entry_points"] = len(self.missing)
        return m

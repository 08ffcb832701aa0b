"""Report serialization: 12-significant-digit floats, CSV and JSON writers.

All floating output goes through fmt() so files are byte-stable across runs
and thread counts. JSON cannot carry inf/nan literals under strict parsing,
so non-finite floats are emitted as the strings "inf", "-inf", "nan".
"""
from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Sequence


def fmt(value: Any) -> str:
    """Canonical text form for one CSV cell."""
    # exact types first: bool and NumPy scalars take the isinstance chain
    kind = type(value)
    if kind is int or kind is str:
        return str(value)
    if kind is float and math.isfinite(value):
        return "%.12g" % value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return "%.12g" % value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])


def round12(obj: Any, exact: bool = False) -> Any:
    """Make obj strict-JSON ready, recursively.

    Fractions and non-finite floats become their fmt() strings. Finite
    floats become their 12-significant-digit reading, which keeps JSON
    numerically identical to the CSV view of the same report, or stay as
    they are when exact is set.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return fmt(obj)
        return obj if exact else float(fmt(obj))
    if isinstance(obj, Fraction):
        return fmt(obj)
    if isinstance(obj, dict):
        return {k: round12(v, exact) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v, exact) for v in obj]
    return obj


def write_json(path: Path, obj: Any) -> None:
    _dump_json(path, round12(obj))


def write_echo(path: Path, cfg: dict) -> None:
    """The config echo: JSON like a report, but with floats kept exact so a
    replay reads back the very values of the run."""
    _dump_json(path, round12(cfg, exact=True))


def _dump_json(path: Path, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

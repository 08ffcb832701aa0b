"""Report serialization: 12-significant-digit floats, CSV and JSON writers.

All floating output goes through fmt() so files are byte-stable across runs
and thread counts. JSON cannot carry inf/nan literals under strict parsing,
so non-finite floats are emitted as the strings "inf", "-inf", "nan".

CSV is written column by column. write_csv takes one sequence per column
and walks the rows in blocks of _BLOCK_ROWS, so the texts it holds at once
are one block's, whatever the row count. Within a block each NumPy column is
reduced to its distinct values with np.unique; float columns are keyed on
their bit pattern, because np.unique merges -0.0 with 0.0 and fmt() does
not. Only the distinct values go through fmt() and the quoting rule, and
their texts are gathered back by the inverse index. Lists are formatted cell
by cell. The quoting rule is csv's QUOTE_MINIMAL with "\\n" line ends: a cell
holding ",", '"' or "\\n" is wrapped in double quotes with each inner '"'
doubled (a lone "\\r" does not quote), and the empty cell of a one-column row
is written as "". So the bytes are those that csv.writer(lineterminator="\\n")
writes for fmt() of every cell.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

# rows per CSV block: bounds the writer's memory, whatever the row count
_BLOCK_ROWS = 1 << 16


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


def _quote(text: str) -> str:
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column: Any, lo: int, hi: int) -> list[str]:
    """The quoted fmt() texts of column[lo:hi]."""
    chunk = column[lo:hi]
    if isinstance(chunk, np.ndarray) and chunk.dtype.kind in "biuf":
        key = chunk.view(f"u{chunk.itemsize}") if chunk.dtype.kind == "f" else chunk
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        # tolist() gives the Python ints and floats that fmt() has always seen
        texts = np.array([_quote(fmt(v)) for v in chunk[first].tolist()], dtype=object)
        return texts[inverse].tolist()
    return [_quote(fmt(v)) for v in chunk]


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write header, then the body, given in rows as one sequence per column.

    The columns (NumPy arrays or lists) must be of equal length; no columns
    or empty columns give a header-only file. The parameter keeps the name
    rows because perfbench's tracer binds it by that name.
    """
    columns = list(rows)
    n = len(columns[0]) if columns else 0
    if any(len(c) != n for c in columns):
        raise ValueError("CSV columns differ in length")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_line([[_quote(h)] for h in header]))
        for lo in range(0, n, _BLOCK_ROWS):
            fh.write(_line([_cells(c, lo, lo + _BLOCK_ROWS) for c in columns]))


def _line(cols: list[list[str]]) -> str:
    """Rows of texts, one list per column, joined as CSV lines."""
    if len(cols) == 1:  # csv quotes a record that is one empty field
        cols = [[t or '""' for t in cols[0]]]
    return "\n".join(map(",".join, zip(*cols))) + "\n"


def round12(obj: Any, exact: bool = False) -> Any:
    """Make obj strict-JSON ready, recursively.

    Fractions and non-finite floats become their fmt() strings. Finite
    floats become their 12-significant-digit reading, which keeps JSON
    numerically identical to the CSV view of the same report, or stay as
    they are when exact is set.
    """
    # exact types first: NumPy scalars and subclasses take the isinstance chain
    kind = type(obj)
    if kind is int or kind is str or kind is bool or obj is None:
        return obj
    if kind is float and math.isfinite(obj):
        return obj if exact else float(fmt(obj))
    if kind is dict:
        return {k: round12(v, exact) for k, v in obj.items()}
    if kind is list:
        return [round12(v, exact) for v in obj]
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
    # json.dump streams the encoder's chunks; json.dumps would hold them all
    # and their join (+21 MB peak on a 300,000-prime report), for no speed
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

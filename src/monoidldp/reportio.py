"""Report serialization: 12-significant-digit floats, CSV and JSON writers.

All floating output goes through fmt() so files are byte-stable across runs
and thread counts. JSON cannot carry inf/nan literals under strict parsing,
so non-finite floats are emitted as the strings "inf", "-inf", "nan".

CSV is written column by column, as bytes. write_csv takes blocks of rows,
each one sequence per column, reads them one at a time and walks each in
blocks of _BLOCK_ROWS rows, so the bytes it holds at once are one block's,
whatever the row count. Within a block each column becomes a uint8 matrix,
one row per cell, with a mask of the bytes each cell keeps. Integer arrays
with no negative value get their decimal digits in NumPy (uint32
arithmetic when the largest is below 2^32). Float, bool and other integer
arrays are reduced to their distinct values with np.unique;
floats are keyed on their bit pattern, because np.unique merges -0.0 with
0.0 and fmt() does not. Only the distinct values go through fmt() and the
quoting rule, and their bytes are gathered back by the inverse index. Lists
are formatted cell by cell. The cells and their separators fill one
(rows x width) matrix, as wide as the block's widest cells, whose kept
bytes, row by row, are the block's lines.
The quoting rule is csv's QUOTE_MINIMAL with "\\n" line ends: a cell
holding ",", '"' or "\\n" is wrapped in double quotes with each inner '"'
doubled (a lone "\\r" does not quote), and the empty cell of a one-column row
is written as "". So the bytes are the UTF-8 of what
csv.writer(lineterminator="\\n") writes for fmt() of every cell.

JSON reports are the bytes of json.dump(round12(obj), indent=2,
sort_keys=True, allow_nan=False). A list of records (objects with the same
keys), such as the primes of a primes report, is given by column as a
Records value. write_json writes it in blocks of _BLOCK_ROWS rows too, each
row through one %-template of the indented object, so no per-row dict is
built and the texts held at once are one block's. Strings go through json's
encode_basestring_ascii and every other cell by round12's rules, so the
bytes are those json.dump writes for the rows as dicts.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

# rows per CSV or Records block: bounds the writer's memory, whatever the row count
_BLOCK_ROWS = 1 << 16

_JSON = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)


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


def _distinct(chunk: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct values of a NumPy column and the inverse index that
    gathers them back; the values are the Python ints, floats and bools
    that fmt() has always seen. Floats are keyed on their bit pattern,
    because np.unique merges -0.0 with 0.0 and fmt() does not."""
    key = chunk.view(f"u{chunk.itemsize}") if chunk.dtype.kind == "f" else chunk
    distinct, inverse = np.unique(key, return_inverse=True)
    return distinct.view(chunk.dtype).tolist(), inverse


def _texts(chunk: Any, text: Callable[[Any], str]) -> list[str]:
    """text() of every cell of chunk; a NumPy column's distinct values once each."""
    if isinstance(chunk, np.ndarray) and chunk.dtype.kind in "biuf":
        values, inverse = _distinct(chunk)
        return np.array([text(v) for v in values], dtype=object)[inverse].tolist()
    return list(map(text, chunk))


def write_csv(path: Path, header: Sequence[str],
              rows: Iterable[Sequence[Sequence[Any]]]) -> None:
    """Write header, then the body, given in rows as blocks of consecutive
    rows, each block one sequence per column.

    A block's columns (NumPy arrays or lists) must be of equal length; a
    block with no columns, or empty ones, adds no line. Blocks are read one
    at a time, so an iterator may build each as it is asked for. The
    parameter keeps the name rows because perfbench's tracer binds it by
    that name.
    """
    with open(path, "wb") as fh:
        fh.write(_csv_lines([[h] for h in header]))
        for columns in rows:
            n = len(columns[0]) if columns else 0
            if any(len(c) != n for c in columns):
                raise ValueError("CSV columns differ in length")
            for lo in range(0, n, _BLOCK_ROWS):
                fh.write(_csv_lines([c[lo:lo + _BLOCK_ROWS] for c in columns]))


def _csv_lines(chunks: list[Sequence[Any]]) -> np.ndarray:
    """The bytes of the CSV lines of a block of rows, given as one chunk
    per column, as a uint8 array.

    Each column's cells form a uint8 matrix with a mask of the bytes each
    cell keeps; the columns and their separators are laid side by side in
    one (rows x width) matrix, whose kept bytes, read row by row, are the
    lines. No chunks give one empty line.
    """
    n = len(chunks[0]) if chunks else 1
    cells = [_cells(c, len(chunks) == 1) for c in chunks]
    # every cell is followed by its separator: "," or, after the last, "\n"
    out = np.empty((n, sum(c.shape[1] + 1 for c, _ in cells) or 1), dtype=np.uint8)
    keep = np.ones(out.shape, dtype=bool)
    at = 0
    for c, k in cells:
        end = at + c.shape[1]
        out[:, at:end] = c
        keep[:, at:end] = k
        out[:, end] = ord(",")
        at = end + 1
    out[:, -1] = ord("\n")
    return out[keep]  # written as a buffer: no bytes copy


def _cells(chunk: Sequence[Any], lone: bool) -> tuple[np.ndarray, np.ndarray]:
    """The CSV cells of one column chunk: a uint8 matrix, a row per cell,
    and the mask of the bytes each row keeps. lone marks the only column
    of a file, whose empty cells are written as '""'."""
    if isinstance(chunk, np.ndarray) and chunk.dtype.kind in "iu" and chunk.min() >= 0:
        return _int_cells(chunk)
    if isinstance(chunk, np.ndarray) and chunk.dtype.kind in "biuf":
        values, inverse = _distinct(chunk)
        cells, keep = _text_cells(list(map(fmt, values)), lone)
        return cells[inverse], keep[inverse]
    return _text_cells(list(map(fmt, chunk)), lone)


def _int_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decimal texts of a non-empty array of non-negative integers,
    right-aligned."""
    top = int(values.max())
    mag = values.astype(np.uint32 if top < 1 << 32 else np.uint64, copy=False)
    width = len(str(top))
    length = 1 + np.searchsorted(10 ** np.arange(1, width, dtype=mag.dtype), mag, "right")
    # one row per digit place, so that each place is one contiguous store
    cells = np.empty((width, len(values)), dtype=np.uint8)
    for k in range(width - 1, -1, -1):
        rest = mag // 10  # np.divmod is far slower than // by a constant
        cells[k] = mag - rest * 10
        mag = rest
    cells += ord("0")
    return cells.T, _kept(width, length, right=True)


def _text_cells(texts: list[str], lone: bool) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of texts, each as the quoting rule writes it,
    left-aligned."""
    joined = "".join(texts)
    if "," in joined or '"' in joined or "\n" in joined:
        texts = list(map(_quote, texts))
    if lone:  # csv quotes a record that is one empty field
        texts = [t or '""' for t in texts]
    if not joined.isascii():  # quoting adds only ASCII
        texts = [t.encode() for t in texts]
    # NumPy pads each text with zero bytes and encodes a str as ASCII; the
    # lengths come from the texts, so a text's own trailing zero bytes stay
    cells = np.array(texts, dtype="S")
    length = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    width = cells.itemsize
    return cells.view(np.uint8).reshape(len(texts), width), _kept(width, length, right=False)


def _kept(width: int, length: np.ndarray, right: bool) -> np.ndarray:
    """The masks of cells of this width that keep length bytes each, at
    their right end or their left."""
    table = np.arange(width) < np.arange(width + 1)[:, None]  # row i: the first i bytes
    return (table[:, ::-1] if right else table).take(length, axis=0)


def round12(obj: Any, exact: bool = False) -> Any:
    """Make obj strict-JSON ready, recursively.

    Fractions and non-finite floats become their fmt() strings. Finite
    floats become their 12-significant-digit reading, which keeps JSON
    numerically identical to the CSV view of the same report, or stay as
    they are when exact is set.
    """
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


class Records:
    """A list of JSON objects given by column: row i is {key: column[i]}.

    One column (NumPy array or list) per key, all of equal length; no keys
    give the empty list. write_json writes it as round12 of the rows.
    """

    __slots__ = ("keys", "columns")

    def __init__(self, keys: Sequence[str], columns: Sequence[Sequence[Any]]):
        self.keys, self.columns = tuple(keys), list(columns)
        if len(self.columns) != len(self.keys) or len(set(self.keys)) != len(self.keys):
            raise ValueError("Records need distinct keys and one column per key")
        if any(len(c) != len(self) for c in self.columns):
            raise ValueError("Records columns differ in length")

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0


def write_json(path: Path, obj: Any) -> None:
    """Write obj as a JSON report; its dicts may hold Records at any depth."""
    _dump_json(path, _json_chunks(obj, 0))


def write_echo(path: Path, cfg: dict) -> None:
    """The config echo: JSON like a report, but with floats kept exact so a
    replay reads back the very values of the run."""
    _dump_json(path, _JSON.iterencode(round12(cfg, exact=True)))


def _dump_json(path: Path, chunks: Iterable[str]) -> None:
    # the chunks are streamed; one joined string would hold the whole report
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
        fh.write("\n")


def _holds_records(obj: Any) -> bool:
    return isinstance(obj, Records) or (
        type(obj) is dict and any(_holds_records(v) for v in obj.values()))


def _json_chunks(obj: Any, level: int) -> Iterator[str]:
    """The text json.dump writes for round12(obj) as a value at this depth."""
    if isinstance(obj, Records):
        yield from _records_chunks(obj, level)
    elif _holds_records(obj):
        pad = "\n" + "  " * (level + 1)
        sep = "{"
        for key in sorted(obj):
            yield f"{sep}{pad}{encode_basestring_ascii(key)}: "
            yield from _json_chunks(obj[key], level + 1)
            sep = ","
        yield "\n" + "  " * level + "}"
    else:
        # the encoder's own chunks, each line break indented to this depth
        pad = "\n" + "  " * level
        for chunk in _JSON.iterencode(round12(obj)):
            yield chunk.replace("\n", pad)


def _records_chunks(records: Records, level: int) -> Iterator[str]:
    n = len(records)
    if n == 0:
        yield "[]"
        return
    pad = "\n" + "  " * (level + 1)
    order = sorted(range(len(records.keys)), key=records.keys.__getitem__)
    fields = ",".join(
        f"{pad}  {encode_basestring_ascii(records.keys[i]).replace('%', '%%')}: %s"
        for i in order)
    template = f"{pad}{{{fields}{pad}}}"
    sep = "["
    for lo in range(0, n, _BLOCK_ROWS):
        texts = [_json_cells(records.columns[i][lo:lo + _BLOCK_ROWS], pad + "  ")
                 for i in order]
        # the block's row templates, joined, take its cells in row-major order
        cells = tuple(chain.from_iterable(zip(*texts)))
        del texts
        yield sep
        yield ",".join([template] * (len(cells) // len(order))) % cells
        sep = ","
    yield "\n" + "  " * level + "]"


def _json_cells(chunk: Any, pad: str) -> list[str]:
    """The JSON texts of round12() of each cell, a cell's line breaks
    indented by pad."""
    if not isinstance(chunk, np.ndarray):
        try:
            return list(map(encode_basestring_ascii, chunk))
        except TypeError:  # not all cells are strings
            pass
    return _texts(chunk, lambda value: _json_cell(value, pad))


def _json_cell(value: Any, pad: str) -> str:
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(float(fmt(value)))
    # bool, None, non-finite floats, Fraction, containers: as the encoder writes them
    return "".join(_JSON.iterencode(round12(value))).replace("\n", pad)

"""The columnar CSV and JSON writers against the row-by-row csv.writer and
json.dump they replaced."""
import ast
import csv
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from monoidldp import reportio
from monoidldp.cli import main
from monoidldp.reportio import Records, fmt, round12, write_csv, write_json

SRC = Path(reportio.__file__).parent


def _oracle_csv(path, header, columns):
    """The old writer: csv.writer with "\\n" line ends, fmt() on every cell
    of rows read off the columns as Python objects."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*cols):
            writer.writerow([fmt(cell) for cell in row])


_TEXT = st.text(alphabet=st.sampled_from(list('ab,"\r\n (2)é')), max_size=6)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, 1e300, 5e-324]),
)
_CELLS = st.one_of(
    st.integers(), st.integers(min_value=2**64, max_value=2**200), st.booleans(),
    _FLOATS, st.fractions(), _TEXT, st.none(),
)


_ARRAYS = {
    np.int64: st.integers(-2**63, 2**63 - 1),
    np.uint64: st.integers(0, 2**64 - 1),
    np.uint32: st.integers(0, 2**32 - 1),
    np.int32: st.integers(-2**31, 2**31 - 1),
    np.int8: st.integers(-2**7, 2**7 - 1),
    np.uint8: st.integers(0, 2**8 - 1),
    np.bool_: st.booleans(),
    np.float64: _FLOATS,
}

# the digit counts' edges, and the magnitudes where the digits leave uint32
_DIGIT_EDGES = [0, 9, 10, 99, 100, 10**18, 2**32 - 1, 2**32, 2**63 - 1]


def _column(kind, n):
    if kind is list:
        return st.lists(_CELLS, min_size=n, max_size=n)
    return st.lists(_ARRAYS[kind], min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=kind))


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 30))
    kinds = draw(st.lists(st.sampled_from([*_ARRAYS, list]), min_size=1, max_size=4))
    header = draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds)))
    return header, [draw(_column(kind, n)) for kind in kinds]


@pytest.mark.parametrize("block", [reportio._BLOCK_ROWS, 7])
@settings(max_examples=150, deadline=None)
@given(table=_tables())
@example(table=(["x", "y"], [np.array([0.0, -0.0, 0.0, -0.0, math.nan, -math.inf]),
                             [True, Fraction(1, 3), 10**40, "(2,r)", "", 'a"b\r\n']]))
@example(table=([""], [["", "x", ""]]))
@example(table=(["a,b", "c"], [np.zeros(0), []]))
@example(table=(["i", "u"], [np.array([*_DIGIT_EDGES, -2**63], dtype=np.int64),
                             np.array([*_DIGIT_EDGES, 2**64 - 1], dtype=np.uint64)]))
@example(table=(["i", "u"], [np.array([-(2**32 - 1), -10, -9, -1, 0, 9, 10], dtype=np.int64),
                             np.array([0, 9, 10, 99, 100, 2**32 - 1, 2**32], dtype=np.uint64)]))
@example(table=([""], [[""] * 20]))
def test_write_csv_matches_csv_writer(tmp_path_factory, block, table):
    header, columns = table
    tmp_path = tmp_path_factory.getbasetemp()
    with mock.patch.object(reportio, "_BLOCK_ROWS", block):
        write_csv(tmp_path / "new.csv", header, [columns])
        # the same rows in two blocks, given by a generator
        cut = len(columns[0]) // 2
        halves = ([c[:cut] for c in columns], [c[cut:] for c in columns])
        write_csv(tmp_path / "cut.csv", header, (half for half in halves))
    _oracle_csv(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "cut.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_without_columns_writes_the_header(tmp_path):
    for blocks in ([], [[]], [[[], []]]):
        write_csv(tmp_path / "h.csv", ["section", "flag"], blocks)
        assert (tmp_path / "h.csv").read_bytes() == b"section,flag\n"
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [[[1, 2], [3]]])


# multi-block reports of the main CLI paths, pinned as the row-by-row writer wrote them
PINNED = [
    pytest.param(["count", "--system", "quad:-4", "--limit", "300000"],
                 "9b82ff4ff1443513ce5e20e50a8f076ed84f106e8a6dd2290f3dfa3887c1db9e",
                 id="count-quad"),
    pytest.param(["count", "--system", "quad:-4", "--limit", "300000",
                  "--g", "residue:4:3:2:0.5"],
                 "24a7c6ad5e5f17cf2a4e1b9fd29dcb0b1066d611ec211bf2921d800c40667db5",
                 id="count-quad-residue"),
    pytest.param(["primes", "--system", "quad:-4", "--limit", "100000"],
                 "d44dc85498768da5d0a4e9a7db3cb8e739f0d42e99a9f2ec954a8b02e6242026",
                 id="primes-quad"),
    pytest.param(["primes", "--system", "poly:9", "--limit", "59049"],
                 "0dec709dbe3f0c4145915264e71f3f1113912db400328768cb8763628dd0f3d6",
                 id="primes-poly9"),
]


@pytest.mark.parametrize("block", [reportio._BLOCK_ROWS, 4099])
@pytest.mark.parametrize("argv,sha256", PINNED)
def test_multi_block_report_bytes_pinned(tmp_path, argv, sha256, block):
    with mock.patch.object(reportio, "_BLOCK_ROWS", block):
        assert main([*argv, "--format", "csv", "--out", str(tmp_path)]) == 0
    data = (tmp_path / f"{argv[0]}.csv").read_bytes()
    # the primes reports span one default block, so the smaller block splits them
    assert data.count(b"\n") > 2 * 4099
    assert hashlib.sha256(data).hexdigest() == sha256


def _write_peak(path, n):
    """tracemalloc peak of writing an n-row count-like table, inputs excluded."""
    norm = np.arange(1, n + 1, dtype=np.uint64)
    omega = (norm % 7).astype(np.uint32)
    gsum = omega * 0.5
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        write_csv(path, ["norm", "omega", "gsum"], [[norm, omega, gsum]])
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_write_csv_memory_does_not_grow_with_rows(tmp_path):
    small = _write_peak(tmp_path / "small.csv", 200_000)
    large = _write_peak(tmp_path / "large.csv", 1_000_000)
    assert large <= 2 * small


def test_src_has_one_csv_writer():
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "csv" in names:
                importers.append(path.name)
    assert importers == []


def _oracle_json(path, obj):
    """The old writer: json.dump of round12(obj), Records read as row dicts."""
    def rows(o):
        if isinstance(o, Records):
            cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in o.columns]
            return [dict(zip(o.keys, row)) for row in zip(*cols)]
        if type(o) is dict:
            return {k: rows(v) for k, v in o.items()}
        return o
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(round12(rows(obj)), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


_KEYS = st.text(alphabet=st.sampled_from(list('ab%s"\\\n\x01é✓')), max_size=4)
_JSON_CELLS = st.one_of(
    _CELLS, st.integers(-2**70, -2**62),
    st.sampled_from([-0.0, 1e16, 1e-7, 123456789012345.6]),
    st.text(alphabet=st.sampled_from(list('a"\\/\b\f\n\r\t\x00\x1féü✓\U0001F600')),
            max_size=5),
    st.lists(st.integers(0, 3), max_size=2),
)


def _json_column(kind, n):
    if kind is list:
        return st.lists(_JSON_CELLS, min_size=n, max_size=n)
    return _column(kind, n)


@st.composite
def _records(draw):
    n = draw(st.integers(0, 30))
    keys = draw(st.lists(_KEYS, max_size=4, unique=True))
    kinds = draw(st.lists(st.sampled_from([*_ARRAYS, list]),
                          min_size=len(keys), max_size=len(keys)))
    columns = [draw(_json_column(kind, n)) for kind in kinds]
    return Records(keys, columns)


@pytest.mark.parametrize("block", [reportio._BLOCK_ROWS, 7])
@settings(max_examples=150, deadline=None)
@given(records=_records(), depth=st.integers(0, 2))
@example(records=Records(["x"], [[]]), depth=1)
@example(records=Records([], []), depth=1)
@example(records=Records(["norm", "label"], [np.array([2, 3], dtype=np.int64),
                                             ["t", "t+1"]]), depth=1)
@example(records=Records(["v", "%s"], [[math.nan, -math.inf, math.inf, -0.0, 1e16, None,
                                         True, Fraction(-1, 3)], list("%s%\"\\\n\x7fé")]),
         depth=2)
def test_write_json_matches_json_dump(tmp_path_factory, block, records, depth):
    obj = records
    for _ in range(depth):
        obj = {"X": 10**30, "rows": obj, "note": [1.5, {"a": math.nan}], "z": None}
    tmp_path = tmp_path_factory.getbasetemp()
    with mock.patch.object(reportio, "_BLOCK_ROWS", block):
        write_json(tmp_path / "new.json", obj)
    _oracle_json(tmp_path / "old.json", obj)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_write_json_around_one_block(tmp_path, delta):
    n = reportio._BLOCK_ROWS + delta
    norm = np.arange(n, dtype=np.int64) * 7 - 10**12
    obj = {"command": "primes", "primes": Records(
        ["norm", "label", "gsum"], [norm, [f"({i},s1)" for i in range(n)], norm * 0.5])}
    write_json(tmp_path / "new.json", obj)
    _oracle_json(tmp_path / "old.json", obj)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


def test_records_reject_ragged_columns():
    with pytest.raises(ValueError):
        Records(["a", "b"], [[1, 2], [3]])
    with pytest.raises(ValueError):
        Records(["a", "a"], [[1], [2]])
    with pytest.raises(ValueError):
        Records(["a"], [])


# multi-block JSON reports of the labelled-prime path, pinned as json.dump wrote them
PINNED_JSON = [
    pytest.param(["primes", "--system", "poly:2", "--limit", "300000"],
                 "19dd5167617ff86811d000df0c7bb7c28513a27dee3c1d493bc3e6242628e604",
                 id="primes-poly2"),
    pytest.param(["primes", "--system", "poly:3", "--limit", "59049"],
                 "bc2b1bdb57848c7a18f0d89559555f26f62e2a09501b73a0dc9770b179bd0e03",
                 id="primes-poly3"),
    pytest.param(["primes", "--system", "quad:-4", "--limit", "100000"],
                 "c24f828442a65c614456c042fc76b026880d93b4ca11c26d54d82b47f1d08162",
                 id="primes-quad"),
]


@pytest.mark.parametrize("block", [reportio._BLOCK_ROWS, 4099])
@pytest.mark.parametrize("argv,sha256", PINNED_JSON)
def test_multi_block_json_report_bytes_pinned(tmp_path, argv, sha256, block):
    with mock.patch.object(reportio, "_BLOCK_ROWS", block):
        assert main([*argv, "--format", "json", "--out", str(tmp_path)]) == 0
    data = (tmp_path / "primes.json").read_bytes()
    assert json.loads(data)["count"] > 2 * 4099
    assert hashlib.sha256(data).hexdigest() == sha256


def _write_json_peak(path, n):
    """tracemalloc peak of writing an n-prime primes-like report, inputs excluded."""
    norm = np.arange(2, n + 2, dtype=np.int64)
    labels = [f"({i},s1)" for i in range(n)]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        write_json(path, {"command": "primes", "count": n,
                          "primes": Records(["norm", "label"], [norm, labels])})
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_write_json_memory_does_not_grow_with_rows(tmp_path):
    small = _write_json_peak(tmp_path / "small.json", 200_000)
    large = _write_json_peak(tmp_path / "large.json", 1_000_000)
    assert large <= 2 * small

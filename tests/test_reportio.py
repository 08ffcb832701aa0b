"""The columnar CSV writer against the row-by-row csv.writer it replaced."""
import ast
import csv
import hashlib
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
from monoidldp.reportio import fmt, write_csv

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
    np.uint32: st.integers(0, 3),
    np.float64: _FLOATS,
}


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
def test_write_csv_matches_csv_writer(tmp_path_factory, block, table):
    header, columns = table
    tmp_path = tmp_path_factory.getbasetemp()
    with mock.patch.object(reportio, "_BLOCK_ROWS", block):
        write_csv(tmp_path / "new.csv", header, columns)
    _oracle_csv(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_without_columns_writes_the_header(tmp_path):
    write_csv(tmp_path / "h.csv", ["section", "flag"], [])
    assert (tmp_path / "h.csv").read_bytes() == b"section,flag\n"
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [[1, 2], [3]])


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
        write_csv(path, ["norm", "omega", "gsum"], [norm, omega, gsum])
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

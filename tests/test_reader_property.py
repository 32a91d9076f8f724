"""load_csv and load_grid against the row scan on generated bodies: every
chunk size, every cut.

Bodies mix "\n", "\r\n" and bare-"\r" line ends, comment, blank and
whitespace-only lines, and cells that numpy and float() read differently or
not at all; the chunked parse must give the bits of the reference row scan,
or its error class, message and row. A grid's values are scanned with its
mask as the flags of the cells that must be finite.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import numpy as np

from infoflow import GridFormatError, load_csv, load_grid, series

from conftest import assert_no_child_left, outcome, row_scan, split_before_every_line

LINE_END = st.sampled_from(["\n", "\r\n", "\r"])
ODD_CELLS = ["nan", "1_0", "+5", "\t6", "", "abc", "١", '"7"']
NUMBER = st.one_of(
    st.integers(-99, 99).map(str), st.floats(allow_nan=False, allow_infinity=False).map(repr)
)
CELL = st.one_of(*[NUMBER] * 7, st.sampled_from(ODD_CELLS))  # one in eight odd
ROW = st.tuples(CELL, CELL).map(",".join)
# rows, lines that are not data, and rows of any width, 6 : 3 : 1
LINE = st.one_of(
    *[ROW] * 6,
    *[st.sampled_from(["# note", "  # indented", "", " \t "])] * 3,
    st.lists(CELL, min_size=1, max_size=3).map(",".join),
)


@st.composite
def bodies(draw):
    """Up to 12 generated lines, then three rows, so that a body the row scan
    reads whole makes a series; the last line may have no line end."""
    lines = draw(st.lists(LINE, max_size=12)) + ["1,2", "3,4", "5,6"]
    ends = [draw(LINE_END) for _ in lines[:-1]] + [draw(LINE_END | st.just(""))]
    return "".join(map(str.__add__, lines, ends))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(body=bodies(), header_end=LINE_END)
def test_load_csv_matches_row_scan(tmp_path_factory, body, header_end):
    path = tmp_path_factory.mktemp("reader") / "data.csv"
    path.write_bytes(("x1,x2" + header_end + body).encode())
    path = str(path)
    expected = outcome(lambda: row_scan(path, "x1", "x2"))
    for chars in (1, 7, 50, "ranges"):
        with pytest.MonkeyPatch.context() as patched:
            if chars == "ranges":
                split_before_every_line(patched, path)
            else:
                patched.setattr(series, "CHUNK_CHARS", chars)
            got = outcome(lambda: [s.values for s in load_csv(path, "x1", "x2", dt=1.0)])
        assert got == expected, chars
    assert_no_child_left()


NON_FINITE = st.sampled_from(["nan", "inf", "-inf", " NaN"])
NOT_DATA = st.sampled_from(["# note", "  # indented", "", " \t "])


@st.composite
def grids(draw):
    """(n_lat, n_lon, mask, values body): up to 12 generated lines, then three
    rows, as in bodies(). Lines are rows, lines that are not data, and rows
    of any width, 12 : 5 : 1; cells are numbers, nan or inf, and odd, 9 : 2 : 1."""
    n_lat, n_lon = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    n_cells = n_lat * n_lon
    mask = draw(st.lists(st.booleans(), min_size=n_cells, max_size=n_cells))
    cells = [*[NUMBER] * 9, NON_FINITE, NON_FINITE, st.sampled_from(ODD_CELLS)]
    any_width = st.lists(CELL, min_size=1, max_size=n_cells + 1).map(",".join)
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 17))
        if kind < 12:
            lines.append(",".join(draw(cells[draw(st.integers(0, 11))]) for _ in range(n_cells)))
        else:
            lines.append(draw(NOT_DATA if kind < 17 else any_width))
    lines += [",".join("1" * n_cells)] * 3
    ends = [draw(LINE_END) for _ in lines[:-1]] + [draw(LINE_END | st.just(""))]
    return n_lat, n_lon, mask, "".join(map(str.__add__, lines, ends))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(grid=grids(), extra_rows=st.sampled_from([0, 0, 0, 1]))
def test_load_grid_matches_row_scan(tmp_path_factory, grid, extra_rows):
    n_lat, n_lon, mask, body = grid
    directory = tmp_path_factory.mktemp("grid")
    values_path = str(directory / "v.csv")
    (directory / "v.csv").write_bytes(body.encode())
    flags = [str(int(flag)) for flag in mask]
    (directory / "mask.csv").write_text(
        "".join(",".join(flags[i : i + n_lon]) + "\n" for i in range(0, len(flags), n_lon))
    )
    with open(values_path, newline="", encoding="utf-8") as fh:
        n_time = len(list(series._data_lines(fh))) + extra_rows  # one row too many, or none
    manifest = directory / "m.csv"
    manifest.write_text(f"n_lat,{n_lat}\nn_lon,{n_lon}\nn_time,{n_time}\ndt,1.0\n"
                        "values_file,v.csv\nmask_file,mask.csv\n")

    def row_scan_grid():
        with open(values_path, newline="", encoding="utf-8") as fh:
            lines = series._data_lines(fh)
            table = series._scan_rows(values_path, None, n_lat * n_lon, np.array(mask), lines, 1)
        if len(table) != n_time:
            raise GridFormatError(f"{values_path}: expected {n_time} rows, found {len(table)}")
        return [table]

    expected = outcome(row_scan_grid)
    for chars in (1, 7, 50, "ranges"):
        with pytest.MonkeyPatch.context() as patched:
            if chars == "ranges":
                split_before_every_line(patched, values_path)
            else:
                patched.setattr(series, "CHUNK_CHARS", chars)
            got = outcome(lambda: [load_grid(str(manifest)).values])
        assert got == expected, chars
    assert_no_child_left()

"""load_csv against the row scan on generated bodies: every chunk size, every cut.

Bodies mix "\n", "\r\n" and bare-"\r" line ends, comment, blank and
whitespace-only lines, and cells that numpy and float() read differently or
not at all; the chunked parse must give the bits of the reference row scan,
or its error class, message and row.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from infoflow import load_csv, series

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

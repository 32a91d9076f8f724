from __future__ import annotations

import itertools
import os
import tracemalloc
import types

import numpy as np
import pytest

from infoflow import (
    EmptyFile,
    InputError,
    LengthMismatch,
    MissingColumn,
    NonFiniteValue,
    TimeSeries,
    TooShortAfterSubsample,
    WindowTooShort,
    align,
    covariances,
    flow,
    load_csv,
    star_window_from_times,
    subsample,
    window,
)
from infoflow import series
from infoflow.series import detrend_values

from conftest import assert_no_child_left, outcome, row_scan, split_before_every_line


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = write_csv(tmp_path, "x1,x2\n1,0\n2,0\n3,0\n")
        s1, s2 = load_csv(path, "x1", "x2", dt=1.0)
        assert np.array_equal(s1.values, [1, 2, 3])
        assert np.array_equal(s2.values, [0, 0, 0])
        assert s1.dt == 1.0 and s1.label == "x1"

    def test_comment_lines_ignored(self, tmp_path):
        path = write_csv(tmp_path, "# comment\nx1,x2\n1,4\n# mid\n2,5\n3,6\n")
        s1, s2 = load_csv(path, "x1", "x2", dt=0.5)
        assert len(s1) == 3 and s2.values[1] == 5

    def test_nan_rejected(self, tmp_path):
        path = write_csv(tmp_path, "x1,x2\n1,0\n2,NaN\n3,0\n")
        with pytest.raises(NonFiniteValue) as exc:
            load_csv(path, "x1", "x2", dt=1.0)
        assert exc.value.row == 2

    def test_inf_and_text_rejected(self, tmp_path):
        path = write_csv(tmp_path, "x1,x2\n1,0\nInf,0\n3,0\n")
        with pytest.raises(NonFiniteValue):
            load_csv(path, "x1", "x2", dt=1.0)
        path = write_csv(tmp_path, "x1,x2\n1,0\nfoo,0\n3,0\n", name="d2.csv")
        with pytest.raises(NonFiniteValue):
            load_csv(path, "x1", "x2", dt=1.0)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
        with pytest.raises(MissingColumn):
            load_csv(path, "x1", "b", dt=1.0)

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path, "x1,x2\n1,2\n3\n5,6\n")
        with pytest.raises(LengthMismatch):
            load_csv(path, "x1", "x2", dt=1.0)

    @pytest.mark.parametrize("row", [1, 4, 500])
    def test_row_with_extra_cells(self, tmp_path, row):
        # a decimal-comma row "1,5" would otherwise read as two cells of a wider row
        rows = [f"{i},{2 * i}\n" for i in range(600)]
        rows[row - 1] = "1,5,1\n"
        path = write_csv(tmp_path, "a,b\n" + "".join(rows))
        with pytest.raises(LengthMismatch, match=f"row {row}: expected 2 columns, found 3"):
            load_csv(path, "a", "b", dt=1.0)

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            load_csv(write_csv(tmp_path, ""), "x1", "x2", dt=1.0)
        with pytest.raises(EmptyFile):
            load_csv(write_csv(tmp_path, "x1,x2\n", name="d2.csv"), "x1", "x2", dt=1.0)

    @pytest.mark.parametrize("header, cpus, every", [
        pytest.param(header, cpus, every,
                     id=header + (", comments" if every else "") + (", one CPU" if cpus else ""))
        for every in (None, 3000) for cpus in (None, {0}) for header in ("t,x1,x2", "t,x1,x2,x3")
    ])
    def test_memory_holds_the_blocks_and_one_table(self, tmp_path, monkeypatch, header, cpus, every):
        # at the peak, the parsed blocks and the (2, n) table whose rows both
        # series keep: four columns of n, and at most one chunk of text; the
        # same when the last column is not read and each line's commas are
        # checked, when one CPU leaves the whole file to this process, and
        # when a comment line every `every` rows sends each chunk through the
        # line filter
        if cpus:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        n = 100_000
        path = str(tmp_path / "large.csv")
        table = np.random.default_rng(37).standard_normal((n, header.count(",") + 1))
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for start in range(0, n, every or n):
                if every:
                    fh.write(f"# rows from {start + 1}\n")
                series._write_rows(fh, table[start : start + (every or n)])
        load_csv(path, "x1", "x2", dt=1.0)  # warm-up: lazy imports
        tracemalloc.start()
        try:
            s1, s2 = load_csv(path, "x1", "x2", dt=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * 8 + series.CHUNK_CHARS
        assert s1.values.base is s2.values.base is not None and len(s1) == n

    def test_file_shorter_than_its_size_is_an_error(self, tmp_path, monkeypatch):
        # a file that shrinks while it is read fails at its new end, rather
        # than reading there forever
        path = write_csv(tmp_path, "x1,x2\n1,2\n3,4\n5,6\n")
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=fstat(fd).st_size + 9))
        with pytest.raises(InputError, match=f"^{path}: shorter than when it was opened$"):
            load_csv(path, "x1", "x2", dt=1.0)


def _planted(token, row, column="x2", n_rows=10):
    """Header plus n_rows rows of `t,x1,x2`, with `token` in `column` of data row `row`."""
    rows = [[f"{i}", f"{0.1 * i!r}", f"{-0.3 * i!r}"] for i in range(1, n_rows + 1)]
    rows[row - 1][("t", "x1", "x2").index(column)] = token
    return "t,x1,x2\n" + "".join(",".join(r) + "\n" for r in rows)


# The chunk sizes, in bytes, at which the chunked parse is compared with the
# row scan. At 1 a read takes one line. A read of 50 bytes takes the lines
# that end within them, so the ten data rows of _planted fall in chunks 1-2,
# 3, 4-5, 6, 7-8 and 9-10.
CHUNKINGS = (1, 50)

DIFFERENTIAL_BODIES = {
    "quoted cells": 'x1,x2\n1,2\n"3.5",4\n5,"6"\n7,8\n9,10\n',
    "quoted comma in another column": 't,x1,note,x2\n0,1,a,2\n1,3,"b,c",4\n2,5,d,6\n3,7,e,8\n',
    # numpy, which has no quoting, would read 7 and 8 as x1 and x2 of row 2
    "quoted commas before the columns": 't,note,x1,x2\n0,a,1,2\n1,"a,7,8,b",3,4\n2,c,5,6\n3,d,7,8\n',
    "quoted line break": 't,note,x1,x2\n0,a,1,2\n1,"two\n5,6 lines",3,4\n2,c,5,6\n3,d,n/a,8\n',
    "quote late in the file": 'x1,x2\n1,2\n3,4\n5,6\n7,8\n"9",10\n11,12\n13,14\n',
    "underscore digits": "x1,x2\n1,2\n3,4\n1_000,5\n6,7\n8,9\n",
    "non-ASCII digits": "x1,x2\n1,2\n3,4\n5,6\n\u0661\u0662,7\n8,9\n",
    "trailing comment rejected": "x1,x2\n1,2\n3,4\n5,6\n1.5 # note,7\n8,9\n",
    "blank, whitespace and CRLF lines": "x1,x2\r\n1,2\r\n   \r\n3,4\r\n\t\n5,6\r\n\r\n7,8\r\n9,10\r\n",
    "comment lines mid-file": "x1,x2\n1,2\n3,4\n# mid\n5,6\n  # indented\n7,8\n9,10\n",
    "ragged row": "x1,x2\n1,2\n3,4\n5,6\n7\n8,9\n",
    "extra cells": "x1,x2\n1,2,3\n4,5\n6,7,8,9\n10,11\n",
    "swapped header order": "x2,t,x1\n1,0,2\n3,1,4\n5,2,6\n7,3,8\n9,4,10\n",
    "padded cells": "x1,x2\n 1 ,\t2\n3 , 4\n\u00a05,6\u00a0\n7,8\n",
    "empty cell": "x1,x2\n1,2\n3,4\n5,6\n,8\n9,10\n",
    "many chunks": "x1,x2\n" + "".join(f"{i * 0.37!r},{i * -1.1e-7!r}\n" for i in range(50)),
    # rows 1-3 hold 9 commas, as three rows of four cells do
    "ragged rows that balance": "t,x1,x2,x3\n0,1,2,3,9\n1,3,4\n2,5,6,7\n3,7,8,9\n",
    # the last line has no newline; x3 is never read
    "no newline at the end": "x1,x2,x3\n1,2,3\n3,4,9\n5,6,7",
    "no newline at the end, a cell short": "x1,x2,x3\n1,2,3\n3,4,9\n5,6",
    "no newline at the end, a cell long": "x1,x2,x3\n1,2,3\n3,4,9\n5,6,7,8",
    # lines that end at "\r", "\n" and "\r\n", split by one rule on every route
    "bare-CR line ends": "x1,x2\r1,2\r3,4\r5,6\r7,8\r9,10\r",
    "mixed CR and LF line ends": "x1,x2\n1,2\r3,4\n5,6\r\n7,8\r9,10\n11,12\r",
    # a comment line and the bare-CR lines after it in its chunk are not one line
    "bare-CR comment line": "x1,x2\r# note\r1,2\r3,4\r5,6\r7,8\r",
    "bare-CR comment line among LF lines": "x1,x2\n# note\r1,2\r3,4\n5,6\n7,8\n",
    "indented bare-CR comment line": "x1,x2\n  # c\r1,2\n3,4\n5,6\n",
}
for _token in ("nan", "inf", "n/a"):
    for _where, _row in (("first chunk", 2), ("middle chunk", 5), ("last chunk", 10),
                         ("first row of a chunk", 7)):
        DIFFERENTIAL_BODIES[f"{_token} in {_where}"] = _planted(_token, _row)
DIFFERENTIAL_BODIES["-inf in x1 of the first row"] = _planted("-inf", 1, column="x1")


class TestChunkedIngest:
    @pytest.mark.parametrize("columns", [("x1", "x2"), ("x1", "x1")], ids=["x1,x2", "x1=x2"])
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_BODIES))
    def test_matches_row_scan(self, tmp_path, monkeypatch, name, columns):
        path = write_csv(tmp_path, DIFFERENTIAL_BODIES[name])
        x1, x2 = columns
        expected = outcome(lambda: row_scan(path, x1, x2))
        for chars in CHUNKINGS:
            monkeypatch.setattr(series, "CHUNK_CHARS", chars)
            chunked = outcome(lambda: [s.values for s in load_csv(path, x1, x2, dt=1.0)])
            assert chunked == expected, chars

    def test_planted_errors_name_their_row(self, tmp_path, monkeypatch):
        for chars, row in itertools.product(CHUNKINGS, (1, 4, 5, 10)):
            monkeypatch.setattr(series, "CHUNK_CHARS", chars)
            path = write_csv(tmp_path, _planted("n/a", row), name=f"r{row}.csv")
            with pytest.raises(NonFiniteValue, match=f"row {row}, column 'x2': 'n/a'") as exc:
                load_csv(path, "x1", "x2", dt=1.0)
            assert exc.value.row == row

    def test_clean_file_never_reaches_row_scan(self, tmp_path, monkeypatch, line_end="\n"):
        path = write_csv(tmp_path, DIFFERENTIAL_BODIES["comment lines mid-file"].replace("\n", line_end))

        def no_scan(*args):
            pytest.fail("a clean file fell back to the row scan")

        monkeypatch.setattr(series, "_scan_rows", no_scan)
        for chars in CHUNKINGS:
            monkeypatch.setattr(series, "CHUNK_CHARS", chars)
            s1, s2 = load_csv(path, "x1", "x2", dt=1.0)
            assert s1.values.tolist() == [1, 3, 5, 7, 9] and s2.values.tolist() == [2, 4, 6, 8, 10]

    def test_clean_bare_cr_file_never_reaches_row_scan(self, tmp_path, monkeypatch):
        self.test_clean_file_never_reaches_row_scan(tmp_path, monkeypatch, "\r")

    # Every kind of line at every position of a 12-row file, read in chunks
    # of one line or of at most 30 bytes (1-3 lines), so that each kind lands
    # inside a chunk and on both edges of one.
    ODD_LINES = {
        "comment": "# note\n",
        "comment, bare CR": "# note\r",
        "empty": "\n",
        "whitespace-only": " \t \n",
        "quoted cell": '"7.5",8\n',
        "bad cell": "7.5,n/a\n",
    }

    @pytest.mark.parametrize("chars", [1, 30], ids=["line", "chars"])
    @pytest.mark.parametrize("kind", sorted(ODD_LINES))
    def test_odd_line_anywhere_matches_row_scan(self, tmp_path, monkeypatch, kind, chars):
        monkeypatch.setattr(series, "CHUNK_CHARS", chars)
        rows = [f"{0.1 * i!r},{-0.3 * i!r}\n" for i in range(1, 13)]
        for at in range(len(rows) + 1):
            text = "x1,x2\n" + "".join(rows[:at]) + self.ODD_LINES[kind] + "".join(rows[at:])
            path = write_csv(tmp_path, text, name=f"{at}.csv")
            chunked = outcome(lambda: [s.values for s in load_csv(path, "x1", "x2", dt=1.0)])
            assert chunked == outcome(lambda: row_scan(path, "x1", "x2")), at

    def test_plain_chunks_skip_the_line_filter(self, tmp_path, monkeypatch):
        # only the header goes through _data_lines when no line is a comment
        # or blank; a chunk with a comment line is filtered, the others not
        monkeypatch.setattr(series, "CHUNK_CHARS", 15)  # up to four lines
        filtered = []
        data_lines = series._data_lines

        def counting(lines):
            filtered.append(None)
            return data_lines(lines)

        monkeypatch.setattr(series, "_data_lines", counting)
        rows = [f"{i},{2 * i}\n" for i in range(12)]
        load_csv(write_csv(tmp_path, "x1,x2\n" + "".join(rows)), "x1", "x2", dt=1.0)
        assert len(filtered) == 1
        rows.insert(5, "# note\n")
        s1, _ = load_csv(write_csv(tmp_path, "x1,x2\n" + "".join(rows)), "x1", "x2", dt=1.0)
        assert len(filtered) == 3 and s1.values.tolist() == list(range(12))

    def test_row_scan_seeks_past_non_ascii_text(self, tmp_path, monkeypatch):
        # in a file of one range, read a line at a time, the row scan starts
        # at the quoted row's byte offset, counted past a comment whose
        # characters take two UTF-8 bytes each
        monkeypatch.setattr(series, "CHUNK_CHARS", 1)
        path = tmp_path / "utf8.csv"
        path.write_bytes('x1,x2\n1,2\n# café µ\n3,4\n5,6\n"7",8\n9,10\n'.encode("utf-8"))
        with open(path, "rb") as raw:
            cols, width = series._header_columns(path, lines := series._Lines(raw), ("x1", "x2"))
            start = lines.at
            assert len(series._ranges(raw, start)) == 1
            got = series._read_rows(
                raw, start, cols, width, True, "F", lambda pieces: np.concatenate(list(pieces))
            )
        with open(path, newline="", encoding="utf-8") as fh:
            fh.seek(start)
            expected = series._scan_rows(path, cols, width, True, series._data_lines(fh), 1)
        assert got.tobytes() == expected.tobytes()
        assert got[:, 0].tolist() == [1, 3, 5, 7, 9]


class TestBadBytes:
    ROWS = [f"{0.1 * i!r},{-0.3 * i!r}\n".encode() for i in range(1, 13)]

    @pytest.mark.parametrize("bad_cell_first", [True, False], ids=["bad cell first", "bad byte first"])
    @pytest.mark.parametrize("chars", [*CHUNKINGS, "ranges"])
    def test_first_problem_in_file_order_is_reported(self, tmp_path, monkeypatch, bad_cell_first, chars):
        # a bad cell and a comment with a byte that is not UTF-8, four rows
        # apart: whichever comes first in the file is the error, at every
        # chunk size and with a range per line
        bad_cell, bad_byte = b"7.5,n/a\n", b"# caf\xe9\n"
        first, second = (bad_cell, bad_byte) if bad_cell_first else (bad_byte, bad_cell)
        body = b"x1,x2\n" + b"".join(self.ROWS[:4]) + first + b"".join(self.ROWS[4:8]) + second
        path = tmp_path / "data.csv"
        path.write_bytes(body + b"".join(self.ROWS[8:]))
        if chars == "ranges":
            split_before_every_line(monkeypatch, path)
        else:
            monkeypatch.setattr(series, "CHUNK_CHARS", chars)
        with pytest.raises(InputError) as exc:
            load_csv(str(path), "x1", "x2", dt=1.0)
        if bad_cell_first:
            assert type(exc.value) is NonFiniteValue and exc.value.row == 5
            assert str(exc.value) == f"{path}: row 5, column 'x2': 'n/a'"
        else:
            assert type(exc.value) is InputError
            assert str(exc.value) == f"{path}: byte 0xe9 at offset {body.index(0xE9)} is not UTF-8"
        assert_no_child_left()


class TestSplitIngest:
    @pytest.mark.parametrize("columns", [("x1", "x2"), ("x1", "x1")], ids=["x1,x2", "x1=x2"])
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_BODIES))
    def test_cut_before_every_line_matches_row_scan(self, tmp_path, monkeypatch, name, columns):
        path = write_csv(tmp_path, DIFFERENTIAL_BODIES[name])
        expected = outcome(lambda: row_scan(path, *columns))
        forked = split_before_every_line(monkeypatch, path)
        assert outcome(lambda: [s.values for s in load_csv(path, *columns, dt=1.0)]) == expected
        assert_no_child_left()
        # a worker for each line but the header and the line after it; a line
        # ends after a "\n", or after a "\r" that no "\n" follows
        with open(path, "rb") as fh:
            data = fh.read()
        starts = [i + 1 for i, byte in enumerate(data[:-1])
                  if byte == ord("\n") or (byte == ord("\r") and data[i + 1] != ord("\n"))]
        assert [start for start, _ in forked] == starts[1:]

    @pytest.mark.parametrize("kind", sorted(TestChunkedIngest.ODD_LINES))
    def test_odd_line_next_to_every_cut_matches_row_scan(self, tmp_path, monkeypatch, kind):
        rows = [f"{0.1 * i!r},{-0.3 * i!r}\n" for i in range(1, 13)]
        rows[3] = "\u0661\u0662,5\r\n"  # non-ASCII digits, a CRLF line end
        odd = TestChunkedIngest.ODD_LINES[kind]
        for at in range(len(rows) + 1):
            text = "x1,x2\n" + "".join(rows[:at]) + odd + "".join(rows[at:])
            path = write_csv(tmp_path, text, name=f"{at}.csv")
            expected = outcome(lambda: row_scan(path, "x1", "x2"))
            with monkeypatch.context() as patched:
                split_before_every_line(patched, path)
                got = outcome(lambda: [s.values for s in load_csv(path, "x1", "x2", dt=1.0)])
            assert got == expected, at
            assert_no_child_left()

    def test_quoted_line_break_across_a_cut(self, tmp_path, monkeypatch):
        # the second range starts inside the quoted cell; the first stops at its quote
        text = 't,note,x1,x2\n0,a,1,2\n1,"two\n5,6 lines",3,4\n2,c,5,6\n3,d,7,8\n'
        path = write_csv(tmp_path, text)
        forked = split_before_every_line(monkeypatch, path)
        s1, s2 = load_csv(path, "x1", "x2", dt=1.0)
        assert s1.values.tolist() == [1, 3, 5, 7] and s2.values.tolist() == [2, 4, 6, 8]
        assert text.encode().index(b"5,6 lines") in [start for start, _ in forked]

    @pytest.mark.parametrize("token, row", [(None, None), ("n/a", 2), ("n/a", 11)])
    def test_dead_child_gives_the_same_result(self, tmp_path, monkeypatch, token, row):
        text = _planted(token, row, n_rows=12) if token else _planted("0.5", 1, n_rows=12)
        path = write_csv(tmp_path, text)
        expected = outcome(lambda: row_scan(path, "x1", "x2"))
        split_before_every_line(monkeypatch, path)

        send = series._send

        def dies(fd, *args):
            os._exit(1)

        def dies_after(n):
            def child(fd, *args):  # sends the first n bytes of its reply
                read, write = os.pipe()
                send(write, *args)
                os.write(fd, os.read(read, n))
                os._exit(1)
            return child

        # the rows of a child that dies after its 16-byte header are parsed
        # here; one that dies inside it counts as stopped at its start
        fills = []
        fill = series._fill
        monkeypatch.setattr(series, "_fill", lambda pieces, out: fills.append(out) or fill(pieces, out))
        for child in (dies, dies_after(16), dies_after(5)):
            monkeypatch.setattr(series, "_send", child)
            assert outcome(lambda: [s.values for s in load_csv(path, "x1", "x2", dt=1.0)]) == expected
            assert_no_child_left()
        if token is None:  # one _fill per load, and one per child that died after its header
            assert len(fills) > 2

    def test_without_fork_one_range(self, tmp_path, monkeypatch):
        path = write_csv(tmp_path, DIFFERENTIAL_BODIES["many chunks"])
        expected = outcome(lambda: row_scan(path, "x1", "x2"))
        forked = split_before_every_line(monkeypatch, path)
        monkeypatch.delattr(os, "fork")
        assert outcome(lambda: [s.values for s in load_csv(path, "x1", "x2", dt=1.0)]) == expected
        assert forked == []

    def test_ranges_cut_after_line_breaks(self, tmp_path, monkeypatch):
        text = "x1,x2\r\n" + "".join(f"{i},{i}\r\n" for i in range(1000))
        path = write_csv(tmp_path, text)
        monkeypatch.setattr(series, "SPLIT_BYTES", 1000)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        with open(path, newline="") as fh:
            ranges = series._ranges(fh, 7)
        assert len(ranges) == 3 and ranges[0][0] == 7 and ranges[-1][1] == len(text)
        assert all(end == start for (_, end), (start, _) in zip(ranges, ranges[1:]))
        assert all(text[start - 2 : start] == "\r\n" for start, _ in ranges)
        assert min(end - start for start, end in ranges) >= 1000 - 20
        # too small for two ranges of SPLIT_BYTES, or one CPU: one range
        monkeypatch.setattr(series, "SPLIT_BYTES", len(text))
        with open(path, newline="") as fh:
            assert series._ranges(fh, 7) == [(7, len(text))]
        monkeypatch.setattr(series, "SPLIT_BYTES", 1000)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with open(path, newline="") as fh:
            assert series._ranges(fh, 7) == [(7, len(text))]

    @pytest.mark.parametrize("header", ["t,x1,x2", "t,x1,x2,x3"])
    def test_memory_with_ranges_forced(self, tmp_path, monkeypatch, header):
        monkeypatch.setattr(series, "SPLIT_BYTES", 1 << 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        TestLoadCsv().test_memory_holds_the_blocks_and_one_table(tmp_path, monkeypatch, header, None, None)
        assert_no_child_left()


class TestTimeSeries:
    def test_invariants(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0, 2.0, 3.0], dt=0.0)
        with pytest.raises(ValueError):
            TimeSeries([1.0, 2.0], dt=1.0)
        with pytest.raises(NonFiniteValue):
            TimeSeries([1.0, np.nan, 3.0], dt=1.0)

    def test_immutability(self):
        s = TimeSeries([1.0, 2.0, 3.0], dt=1.0)
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_time_axis(self):
        s = TimeSeries([1.0, 2.0, 3.0], dt=0.5, t0=2.0)
        assert s.t_end == 3.0

    @pytest.mark.parametrize("i0", [1, 3, 5, 8])
    def test_window_is_a_view_with_the_bits_of_a_copy(self, i0):
        # a window of a series is kept without a copy, at any offset into it,
        # and the pair pipeline gives it the bits of a copied window
        rng = np.random.default_rng(i0)
        x1 = TimeSeries(np.cumsum(rng.standard_normal(5000)), 0.5)
        x2 = TimeSeries(0.3 * x1.values + rng.standard_normal(5000), 0.5)
        w1, w2 = window(x1, i0 * 0.5, 2000.0), window(x2, i0 * 0.5, 2000.0)
        assert np.shares_memory(w1.values, x1.values)
        copied = align(TimeSeries(w1.values.copy(), 0.5), TimeSeries(w2.values.copy(), 0.5))
        assert covariances(align(w1, w2)) == covariances(copied)


    def test_star_window_must_lie_inside_the_series(self):
        s = TimeSeries(np.arange(31.0), dt=1.0, t0=10.0)  # times 10..40
        # ending at the last sample keeps the samples that have a difference
        star = star_window_from_times(s, 30.0, 40.0)
        assert (star.start_index, star.end_index) == (20, 30)
        # a star window that reaches past either end is refused, not clipped
        for t_start, t_end in ((30.0, 45.0), (30.0, 41.0), (5.0, 20.0)):
            with pytest.raises(WindowTooShort, match=r"inside the analyzed window \[10.0, 40.0\]"):
                star_window_from_times(s, t_start, t_end)


class TestSubsample:
    def test_every_second(self):
        s = TimeSeries([0, 1, 2, 3, 4, 5], dt=1.0)
        out = subsample(s, 2)
        assert np.array_equal(out.values, [0, 2, 4])
        assert out.dt == 2.0

    def test_identity(self):
        s = TimeSeries([3.0, 1.0, 2.0, 5.0], dt=0.1)
        out = subsample(s, 1)
        assert np.array_equal(out.values, s.values) and out.dt == s.dt

    def test_too_short(self):
        s = TimeSeries([0, 1, 2, 3, 4, 5], dt=1.0)
        with pytest.raises(TooShortAfterSubsample):
            subsample(s, 3)

    def test_long_series_bookkeeping(self):
        s = TimeSeries(np.arange(100_000, dtype=float), dt=0.001)
        out = subsample(s, 100)
        assert len(out) == 1000
        assert out.dt == pytest.approx(0.1)


class TestAlign:
    def test_forward_difference(self):
        pair = _pair([0.0, 1.0, 2.0], [5.0, 5.0, 5.0], dt=0.5)
        assert np.array_equal(pair.d1, [2.0, 2.0])
        assert np.array_equal(pair.d2, [0.0, 0.0])
        assert pair.m == 2

    def test_arithmetic(self):
        pair = _pair([1.0, 1.1, 0.9], [0.0, 0.0, 1.0], dt=0.1)
        assert np.allclose(pair.d1, [1.0, -2.0])

    def test_errors(self):
        from infoflow import DtMismatch

        a = TimeSeries([1.0, 2.0, 3.0], dt=1.0)
        b = TimeSeries([1.0, 2.0, 3.0, 4.0], dt=1.0)
        with pytest.raises(LengthMismatch):
            align(a, b)
        c = TimeSeries([1.0, 2.0, 3.0], dt=0.5)
        with pytest.raises(DtMismatch):
            align(a, c)

    def test_subsample_then_align_dt_bookkeeping(self):
        rng = np.random.default_rng(0)
        values = np.cumsum(rng.standard_normal(101))
        s = TimeSeries(values, dt=0.01)
        sub = subsample(s, 5)
        assert sub.dt == 0.01 * 5
        pair = align(sub, sub)
        # quotients against the effective step delta_n * dt, exactly
        expected = np.diff(values[::5]) / sub.dt
        assert np.array_equal(pair.d1, expected)


class TestDetrend:
    def test_exact_linear_trend(self):
        s = TimeSeries([0.0, 1.0, 2.0, 3.0], dt=1.0)
        assert np.allclose(detrend_values(s.values), 0.0, atol=1e-12)

    def test_constant(self):
        s = TimeSeries([4.0, 4.0, 4.0], dt=1.0)
        assert np.allclose(detrend_values(s.values), 0.0, atol=1e-12)

    def test_residual_orthogonality(self):
        # independent check via the normal equations: residuals of the fit
        # must be orthogonal to the index regressor
        s = TimeSeries([0.0, 1.0, 0.0, 1.0], dt=1.0)
        resid = detrend_values(s.values)
        index = np.arange(4.0)
        assert abs(resid @ index) < 1e-10
        assert abs(resid.mean()) < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        s = TimeSeries(rng.standard_normal(50) + 0.3 * np.arange(50), dt=1.0)
        once = detrend_values(s.values)
        twice = detrend_values(once)
        assert np.allclose(once, twice, atol=1e-10)


def test_metadata_does_not_enter_math():
    rng = np.random.default_rng(11)
    v1, v2 = rng.standard_normal(40), rng.standard_normal(40)
    base = flow(covariances(_pair(v1, v2, dt=0.25)))
    relabeled = flow(
        covariances(
            align(
                TimeSeries(v1, 0.25, t0=123.0, label="alpha"),
                TimeSeries(v2, 0.25, t0=123.0, label="beta"),
            )
        )
    )
    assert base == relabeled


def _pair(x1, x2, dt=1.0):
    return align(
        TimeSeries(np.asarray(x1, float), dt, label="x1"),
        TimeSeries(np.asarray(x2, float), dt, label="x2"),
    )

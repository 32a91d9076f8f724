"""Uniformly sampled time series: ingestion, alignment, differencing, subsampling.

All values are immutable after construction; every operation returns new
objects and is safe to share across concurrent tasks.
"""

from __future__ import annotations

import csv
import math
import os
import re
import signal
import stat
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .errors import (
    DtMismatch,
    EmptyFile,
    InputError,
    LengthMismatch,
    MissingColumn,
    NonFiniteValue,
    TooShortAfterSubsample,
    WindowOutOfRange,
    WindowTooShort,
)

_MIN_LENGTH = 3  # two aligned difference points + nondegenerate covariance

# slack for float time-to-index conversion in _time_span()
_TIME_EPS = 1e-9


def _freeze(values, dtype=float) -> np.ndarray:
    """values as a C-ordered array of dtype that nothing can write to.

    An array of dtype in C order that neither it nor any array it views can
    write to is kept without a copy; any other input is copied and the copy
    made unwritable, so a caller's writable array is never aliased. C order:
    a row of a stack then sums in the pairwise order of a 1-D series.
    """
    if type(values) is np.ndarray and values.dtype == dtype and values.flags.c_contiguous:
        base = values
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is None:
            return values
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def _check_dt(dt: float) -> None:
    """Raise ValueError unless dt, a sampling step, is a positive finite real."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be a positive finite real, got {dt}")


def _check_sampling(n: int, dt: float, what: str = "series", unit: str = "points") -> None:
    """Raise ValueError unless `what`, n `unit` long, has _MIN_LENGTH or more and dt is valid."""
    if n < _MIN_LENGTH:
        raise ValueError(f"{what} needs at least {_MIN_LENGTH} {unit}, got {n}")
    _check_dt(dt)


@dataclass(frozen=True)
class TimeSeries:
    """A uniformly sampled scalar series, or a (k, n) stack of k series.

    values are in user units, time on the last axis; dt is the sampling step
    in user time units and t0 the time of the first sample. t0 and label are
    carried for window selection and reporting only; no estimate depends on them.
    """

    values: np.ndarray
    dt: float
    t0: float = 0.0
    label: str = ""

    def __post_init__(self):
        arr = _freeze(self.values)
        if arr.ndim not in (1, 2):
            raise ValueError(f"series values must be 1-D or a 2-D stack, got shape {arr.shape}")
        _check_sampling(arr.shape[-1], self.dt)
        if not np.isfinite(arr).all():
            bad = int(np.nonzero(~np.isfinite(arr))[-1][0])
            raise NonFiniteValue(f"non-finite value at index {bad}", row=bad)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.shape[-1]

    @property
    def t_end(self) -> float:
        return self.t0 + (len(self) - 1) * self.dt


@dataclass(frozen=True)
class AlignedPair:
    """Two equal-grid series with their forward-difference series.

    d1/d2 hold (x[n+1] - x[n]) / dt for n = 0..N-2, so they have m = N-1
    entries. Every covariance downstream is computed on the same window
    0..N-2 of x1/x2, exposed as x1w/x2w. Either may be a stack: a pair per row.
    """

    x1: TimeSeries
    x2: TimeSeries
    d1: np.ndarray = field(repr=False)
    d2: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "d1", _freeze(self.d1))
        object.__setattr__(self, "d2", _freeze(self.d2))

    @property
    def m(self) -> int:
        return self.d1.shape[-1]

    @property
    def x1w(self) -> np.ndarray:
        return self.x1.values[..., : self.m]

    @property
    def x2w(self) -> np.ndarray:
        return self.x2.values[..., : self.m]

    @property
    def dt(self) -> float:
        return self.x1.dt


@dataclass(frozen=True)
class StationaryWindow:
    """Half-open index window [start_index, end_index) into the aligned sample.

    Selects the slab used for the starred covariances of the nonstationary
    flow variant.
    """

    start_index: int
    end_index: int

    def __post_init__(self):
        if self.start_index < 0:
            raise ValueError(f"start_index must be >= 0, got {self.start_index}")
        if self.end_index - self.start_index < _MIN_LENGTH:
            raise ValueError(
                f"window [{self.start_index}, {self.end_index}) has fewer than "
                f"{_MIN_LENGTH} points"
            )

    def __len__(self) -> int:
        return self.end_index - self.start_index


# Every input is read a chunk at a time (see _chunk): one os.pread of at most
# CHUNK_CHARS bytes, cut after its last line end, whether its lines are pair
# rows of tens of bytes or grid rows of tens of kilobytes. Tables are written
# in chunks of at most CHUNK_CHARS characters.
CHUNK_CHARS = 1 << 19

# a line end, bar a "\r" read last, which may start a "\r\n" (see _chunk)
_LINE_END = re.compile(rb"\n|\r(?=[^\n])")

# every byte but "," and "\n": what bytes.translate deletes in _cells_match
_NOT_COMMA_OR_NEWLINE = bytes(sorted(set(range(256)) - set(b",\n")))

# The data of a file is parsed as one byte range per available CPU, none
# shorter than SPLIT_BYTES, the ranges after the first in forked children
# (see _read_rows). On two vCPUs two ranges of a 1 MB file took 0.73-1.02
# times as long as one, and of a 2 MB file 0.69-0.72 times
# (benchmarks/split_crossover.py), so a file splits from 2 MiB of data.
SPLIT_BYTES = 1 << 20


def _data_lines(lines):
    """The data lines among `lines`: neither blank nor a whole-line '#' comment."""
    return (line for line in lines if (text := line.strip()) and text[0] != "#")


def _open_input(path):
    """The input file at path, open in binary mode: read at byte offsets of
    its descriptor (see _chunk), in forked children too, and as text by _Lines.

    Every input is opened here. It must be a regular file, since it is read
    at byte offsets and digested whole; that is checked before the open, so a
    FIFO with no writer cannot block. Any OSError is an InputError naming path.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise InputError(f"{path}: not a regular file")
        return open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _chunk(fh, at: int, end: int) -> bytes:
    """The bytes of fh from byte offset at, a line start, to its last line end
    within CHUNK_CHARS bytes, else to the end of a longer first line, read
    whole in reads that double it, or else to end. Lines end as newline=""
    ends them, at "\n", "\r\n" or "\r" but never inside a "\r\n", so a "\r"
    read last ends none yet. A file that ends before end is an InputError."""
    fd, size = fh.fileno(), end - at
    data = os.pread(fd, min(CHUNK_CHARS, size), at)
    cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1
    while not cut and len(data) < size:
        if not (more := os.pread(fd, min(len(data), size - len(data)), at + len(data))):
            raise InputError(f"{fh.name}: shorter than when it was opened")
        data += more
        cut = found.end() if (found := _LINE_END.search(data, len(data) - len(more) - 1)) else 0
    return data[:cut] if cut else data


class _Lines:
    """The lines of fh from byte offset at, a line start, to its end, as csv
    reads them: each chunk of _chunk split as newline="" splits it, each line
    decoded as UTF-8 with its line end. at is the offset of the next line. A
    byte that is not UTF-8 is an InputError naming the path and its offset."""

    def __init__(self, fh, at: int = 0):
        self.fh, self.at = fh, at

    def __iter__(self):
        size = os.fstat(self.fh.fileno()).st_size
        while self.at < size:
            for line in _chunk(self.fh, self.at, size).splitlines(keepends=True):
                try:
                    text = line.decode()
                except UnicodeDecodeError as exc:
                    raise InputError(f"{self.fh.name}: byte 0x{line[exc.start]:02x} at offset "
                                     f"{self.at + exc.start} is not UTF-8")
                self.at += len(line)
                yield text


def _open_output(path):
    """The file at path, open for writing; any OSError is an InputError naming path."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")


def _loadtxt(lines, usecols, ncols: int):
    """Convert lines with one np.loadtxt call, or None if numpy rejects them
    or its result is not one row of ncols values per line."""
    try:
        block = np.loadtxt(lines, delimiter=",", usecols=usecols, comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    return block if block.shape == (len(lines), ncols) else None


def _cells_match(data: bytes, width: int) -> bool:
    """Whether every line of data, each newline-ended but perhaps the last,
    holds width - 1 commas: one bytes pass over data."""
    cells = data.translate(None, _NOT_COMMA_OR_NEWLINE)
    rows = (b"," * (width - 1) + b"\n") * cells.count(b"\n")
    return cells == (rows if data.endswith(b"\n") else rows + b"," * (width - 1))


def _parse_chunk(fh, at: int, end: int, usecols, width: int, finite):
    """(the offset after the chunk of _chunk at at, the rows of its data
    lines, width cells each, as one float array of the columns usecols, all
    if None, or None if the chunk needs the row scan).

    A chunk that holds no '#' and no quote goes to np.loadtxt as it is, split
    on "\n". Numpy skips empty lines, rejects whitespace-only ones and a "\r"
    within a line, and the result must pass the shape check; if it does not,
    or for any other chunk, the chunk is split where _chunk ends lines and
    its data lines alone are converted. A chunk needs the row scan if it is
    not UTF-8, or if its data lines hold a quote (csv quoting: a quoted cell
    may hold a comma or a line break), a line that numpy rejects, a line that
    does not hold width - 1 commas (numpy reads usecols from a row with more
    cells, or fewer that hold them) or a non-finite value in a column that
    finite flags: True (every column), False (none) or one flag per column read.
    """
    ncols = width if usecols is None else len(usecols)
    data = _chunk(fh, at, end)
    at += len(data)
    plain = not (b"#" in data or b'"' in data or data.isspace())  # numpy warns on blanks alone
    plain = plain and (usecols is None or _cells_match(data, width))
    try:
        text, data = data.decode(), None  # the bytes are dropped before numpy converts
    except UnicodeDecodeError:
        return at, None
    if plain:
        block = _loadtxt(text.split("\n")[: -1 if text.endswith("\n") else None], usecols, ncols)
    if not plain or block is None:
        # a "\r" ends a line too; that of a "\r\n" leaves an empty line, not data
        lines, text = list(_data_lines(text.replace("\r", "\n").split("\n"))), None
        if not lines:
            return at, np.empty((0, ncols))
        joined = "\n".join(lines).encode()
        good = b'"' not in joined and (usecols is None or _cells_match(joined, width))
        joined = None  # the text is dropped before numpy converts
        block = _loadtxt(lines, usecols, ncols) if good else None
    return at, block if block is not None and np.isfinite(block).all(where=finite) else None


def _read_blocks(fh, start: int, end: int, usecols, width: int, finite):
    """Yield the rows of fh from byte offset start to byte offset end, both
    line starts, a block per chunk (see _parse_chunk), up to the first chunk
    that needs the row scan (see _pieces). No chunk's content raises here,
    and nothing of a chunk but its rows stays bound across the next read.

    Returns (stop, row): the byte offset of the chunk the read stopped at
    (None if it read the whole range) and the next row's number, from 1 at start.
    """
    row = 1
    while start < end:
        at, (start, block) = start, _parse_chunk(fh, start, end, usecols, width, finite)
        if block is None:
            return at, row
        row += len(block)
        yield block
    return None, row


def _cpus() -> int:
    """How many processes can run here at once: the CPUs this process may
    run on, on Linux with os.fork; else 1, and nothing is forked."""
    if hasattr(os, "fork") and os.uname().sysname == "Linux":
        return len(os.sched_getaffinity(0))
    return 1


def _ranges(fh, start: int) -> list[tuple[int, int]]:
    """Byte ranges [start, end) that cover fh from byte offset start, a line
    start, to the end of the file.

    There is one range per CPU that _cpus counts, none shorter than about
    SPLIT_BYTES, each cut just after a line end; in UTF-8 no character
    spans one.
    """
    size = os.fstat(fh.fileno()).st_size
    n = min((size - start) // SPLIT_BYTES, _cpus())
    if n < 2:
        return [(start, size)]
    cuts = [start]
    for i in range(1, n):
        # the first line end from the byte before the cut point on: data ends at
        # one, if it has any, which _LINE_END does not match if it is a "\r"
        at = start + (size - start) * i // n - 1
        data = _chunk(fh, at, size)
        cut = at + (found.end() if (found := _LINE_END.search(data)) else len(data))
        if cuts[-1] < cut < size:
            cuts.append(cut)
    return list(zip(cuts, cuts[1:] + [size]))


class _Child:
    """A forked child that runs send(fd), fd the write end of a pipe read
    here as the buffered file pipe, and then exits at once: no exit handler
    runs and no buffer of this process is flushed a second time.

    A child that raises or dies ends the pipe early, and one that cannot be
    forked leaves it empty, so whoever reads the pipe can tell a whole reply
    from a short one and do the child's work itself.
    """

    def __init__(self, send):
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            self.pid = None
        if self.pid == 0:
            try:
                os.close(read)
                send(write)
            finally:
                os._exit(0)  # no exit handlers, no flush of the parent's buffers
        os.close(write)
        self.pipe = open(read, "rb")

    def message(self):
        """Yield the bytes the child sent with _send_message, in pieces of at
        most CHUNK_CHARS bytes; raise EOFError where the pipe ends before
        their 8-byte length or before their last byte."""
        head = self.pipe.read(8)
        if len(head) < 8:
            raise EOFError
        left = int.from_bytes(head, "little")
        while left:
            if not (piece := self.pipe.read(min(left, CHUNK_CHARS))):
                raise EOFError
            left -= len(piece)
            yield piece

    def close(self) -> None:
        """End the child if it still runs, and reap it."""
        self.pipe.close()
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _send_message(fd: int, parts) -> None:
    """In a forked child: write the byte strings parts to fd as one message
    of _Child.message, their total length as 8 bytes and then each of them."""
    with open(fd, "wb") as out:
        out.write(sum(map(len, parts)).to_bytes(8, "little"))
        out.writelines(parts)


class _Worker(_Child):
    """A forked child that parses the byte range [start, end) of fh and
    sends its rows back through its pipe.

    The child writes two int64 values, the number of rows it parsed and the
    byte offset at which its read stopped (see _read_blocks; -1 if it read the
    whole range), then the rows: in C order, or with order "F" one column
    after another. A child that raises, dies or cannot be forked sends less:
    one that sends no whole header counts as stopped at start with no rows.
    The child calls no BLAS routine, so it needs none of the parent's threads.
    """

    def __init__(self, fh, start: int, end: int, fmt, order: str):
        self.fh, self.start, self.end, self.fmt, self.order = fh, start, end, fmt, order
        super().__init__(lambda fd: _send(fd, fh, start, end, fmt, order))

    def __len__(self) -> int:
        return self.rows

    def result(self) -> tuple[int, int | None]:
        """(rows, stop) as the child reports them, once it has parsed its range."""
        header = self.pipe.read(16)
        if len(header) < 16:
            return 0, self.start
        self.rows, stop = np.frombuffer(header, dtype=np.int64).tolist()
        return self.rows, None if stop < 0 else stop

    def fill(self, dest: np.ndarray) -> None:
        """Read the rows into dest; in C order dest may take fewer rows,
        and those after them are not read."""
        parts = dest.T if self.order == "F" else [dest]
        views = (part.reshape(-1).view(np.uint8) for part in parts)
        # readinto reads until the view is full or the pipe ends
        if not all(self.pipe.readinto(view) == view.size for view in views):
            # the child ended before it sent every row: parse them here
            _fill(_read_blocks(self.fh, self.start, self.end, *self.fmt), dest)


def _send(fd: int, fh, start: int, end: int, fmt, order: str) -> None:
    """In a forked child: parse [start, end) of fh, the descriptor it shares
    with the parent, and write what _Worker describes to fd."""
    reader, blocks = _read_blocks(fh, start, end, *fmt), []
    try:
        while True:
            blocks.append(next(reader))
    except StopIteration as done:
        stop = done.value[0]
    columns = zip(*(block.T for block in blocks))  # each column: its part in every block
    parts = (part.copy() for column in columns for part in column) if order == "F" else blocks
    with open(fd, "wb") as out:
        out.write(np.array([sum(map(len, blocks)), -1 if stop is None else stop], dtype=np.int64))
        out.writelines(parts)


def _fill(pieces, out: np.ndarray) -> int:
    """Write pieces in order into the rows of out, dropping the rows past
    its end; return the number of rows they hold."""
    n = 0
    for piece in pieces:
        dest = out[n : n + len(piece)]
        if isinstance(piece, _Worker):
            piece.fill(dest)
        else:
            dest[...] = piece[: len(dest)]
        n += len(piece)
    return n


def _pieces(fh, first, workers, cols, fmt):
    """The rows of _read_rows in file order: the first range parsed here,
    then each child's rows, up to the first range that stopped.

    From that stop on, the data lines to the end of the file go to
    _scan_rows: the reference row-by-row parser, which returns the rest of
    the table or raises the error for the first bad row. Both it and
    _read_blocks convert text with CPython's correctly rounded
    string-to-double, so they give the same bits.
    """
    stop, row = yield from _read_blocks(fh, *first, *fmt)
    for worker in workers:
        if stop is None:
            rows, stop = worker.result()
            if rows:
                yield worker
            row += rows
        else:
            worker.close()  # its range is parsed here, and it would take a CPU
    if stop is not None:
        _, width, finite = fmt
        yield _scan_rows(fh.name, cols, width, finite, _data_lines(_Lines(fh, stop)), row)


def _read_rows(fh, start: int, cols, width: int, finite, order: str, place):
    """Parse the data lines of the regular file fh from byte offset start,
    a line start, to the end of the file, and return place(pieces). Rows
    have width cells, of which the columns cols are read, finite where finite
    flags them: True (every column), False (none) or one flag per column read.

    pieces yields the table's rows in file order (see _pieces): arrays of
    rows, and _Worker pieces whose rows _fill reads from a child straight
    into place's array. The file is cut into byte ranges by _ranges; the
    first is parsed here while forked children parse the others, and a file
    of one range forks none. Every value, error and row number is that of
    one sequential read: the first range that stops, at a chunk that needs
    the row scan, is read on from there with the row scan, and the ranges
    after it are dropped. A quoted line break can span a cut only after a
    range has stopped at its quote. Every child has ended when this returns
    or raises.
    """
    fmt = (None if cols is None else list(cols.values()), width, finite)
    first, *rest = _ranges(fh, start)
    workers = []
    try:
        for range_start, range_end in rest:
            workers.append(_Worker(fh, range_start, range_end, fmt, order))
        return place(_pieces(fh, first, workers, cols, fmt))
    finally:
        for worker in workers:
            worker.close()


def _text(table, row: str, per_chunk: int):
    """The rows of table formatted by row, per_chunk rows to a string."""
    for start in range(0, len(table), per_chunk):
        chunk = table[start : start + per_chunk]
        yield (row * len(chunk)) % tuple(chunk.ravel().tolist())


def _write_text(out, texts, skip: int = 0) -> None:
    """Write the strings texts to out, bar their first skip characters."""
    for text in texts:
        if skip < len(text):
            out.write(text[skip:] if skip else text)
        skip = max(0, skip - len(text))


def _write_rows(out, table) -> None:
    """Write a 2-D table as one CSV row of "%.17g" values per table row.

    "%.17g" % v and f"{v:.17g}" are the same conversion, so the bytes are the
    per-value format's; a boolean goes out as 1.0 or 0.0, that is "1" or "0".
    Each write holds at most CHUNK_CHARS characters (or one longer row).

    A table is cut into one range of rows per CPU that _cpus counts, each
    of at least SPLIT_BYTES / 4 characters at 25 a value, at most what a
    value and its separator take. This process formats and writes the first
    range while a forked child formats each other range whole and sends its
    text back (see _Child); the text is then copied to out in row order. So
    a child holds its whole range's text, and this process one chunk. The
    range of a child that raises, dies or cannot be forked is formatted
    here, from its first character not yet written. The bytes are those of
    one range, and every child has ended when this returns or raises.
    """
    table = np.asarray(table, dtype=float)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    # a value takes at most 24 characters (-1.7976931348623157e+308) and a separator
    per_chunk = max(1, CHUNK_CHARS // (25 * max(1, table.shape[1])))
    # a quarter of the reader's range: on two vCPUs two ranges took 0.87-1.16
    # times as long as one at 0.12 MB of text, 0.75-0.78 at 0.25 MB and
    # 0.56-0.71 from 0.5 MB (benchmarks/split_crossover.py, two runs), where
    # a file needs 1-2 MB
    n = max(1, min(4 * 25 * table.size // SPLIT_BYTES, _cpus(), len(table)))
    cuts = [len(table) * i // n for i in range(n + 1)]
    (_, first), *rest = zip(cuts, cuts[1:])
    children = []
    try:
        for start, end in rest:
            children.append(_Child(lambda fd: _send_message(
                fd, [text.encode() for text in _text(table[start:end], row, per_chunk)])))
        _write_text(out, _text(table[:first], row, per_chunk))
        for child, (start, end) in zip(children, rest):
            written = 0
            try:
                for piece in child.message():
                    out.write(piece.decode())
                    written += len(piece)
            except EOFError:
                _write_text(out, _text(table[start:end], row, per_chunk), written)
    finally:
        for child in children:
            child.close()


def _header_columns(path, lines, names) -> tuple[dict[str, int], int]:
    """Read the header of a CSV file from its lines: each requested name's
    index and the cell count."""
    header = next(csv.reader(_data_lines(lines)), None)
    if header is None:
        raise EmptyFile(f"{path}: no header row")
    header = [h.strip() for h in header]
    cols = {}
    for name in names:
        if name not in header:
            raise MissingColumn(f"{path}: column {name!r} not in header {header}")
        cols[name] = header.index(name)
    return cols, len(header)


def _scan_rows(path, cols, width: int, finite, lines, first_row: int) -> np.ndarray:
    """Row-by-row reference parse of data rows `lines`, numbered from first_row.

    Every row must have width cells, and every value read must be a real,
    finite where finite flags its column: True (every column), False (none)
    or one flag per column read. Returns a column per entry of cols (name ->
    index), or per cell if cols is None, a cell then named by its index.
    """
    names, take = (range(width), None) if cols is None else (list(cols), list(cols.values()))
    flags = np.broadcast_to(finite, len(names)).tolist()
    out: list[float] = []
    for i, row in enumerate(csv.reader(lines), start=first_row):
        if len(row) != width:
            raise LengthMismatch(f"{path}: row {i}: expected {width} columns, found {len(row)}", row=i)
        cells = row if take is None else [row[j] for j in take]
        try:
            values = [float(cell) for cell in cells]
            good = all(map(math.isfinite, compress(values, flags)))
        except ValueError:
            good = False
        if not good:  # name the first bad cell
            for name, cell, flag in zip(names, cells, flags):
                try:
                    good = math.isfinite(float(cell)) or not flag
                except ValueError:
                    good = False
                if not good:
                    raise NonFiniteValue(f"{path}: row {i}, column {name!r}: {cell.strip()!r}", row=i)
        out.extend(values)
    return np.array(out, dtype=float).reshape(-1, len(names))


def load_csv(path, column_x1: str, column_x2: str, dt: float) -> tuple[TimeSeries, TimeSeries]:
    """Read two named columns from a headered CSV into TimeSeries.

    Lines starting with '#' are ignored. Every data row must have as many
    cells as the header, and every cell of the requested columns must parse
    as a finite real; absent columns are errors.
    The parsed blocks are written into one read-only (columns, rows) table
    whose rows both series keep as they are, so at its peak the load holds
    the blocks parsed in this process and the table: at most four columns of
    the file. Rows parsed in forked children are read into the table.
    """

    def collect(pieces):
        pieces = list(pieces)
        n = sum(map(len, pieces))
        if not n:
            raise EmptyFile(f"{path}: no data rows")
        table = np.empty((len(cols), n))
        _fill(pieces, table.T)
        return table

    with _open_input(path) as fh:
        cols, width = _header_columns(path, lines := _Lines(fh), (column_x1, column_x2))
        table = _read_rows(fh, lines.at, cols, width, True, "F", collect)
    table.setflags(write=False)
    names = list(cols)
    return tuple(TimeSeries(table[names.index(c)], dt, label=c) for c in (column_x1, column_x2))


def subsample(s: TimeSeries, delta_n: int) -> TimeSeries:
    """Keep every delta_n-th value starting at index 0; dt scales accordingly."""
    if delta_n < 1:
        raise ValueError(f"delta_n must be >= 1, got {delta_n}")
    values = s.values[..., ::delta_n]
    if values.shape[-1] < _MIN_LENGTH:
        raise TooShortAfterSubsample(
            f"subsampling by {delta_n} leaves {values.shape[-1]} points (need {_MIN_LENGTH})"
        )
    return TimeSeries(values, s.dt * delta_n, s.t0, s.label)


def _time_span(s: TimeSeries, t_start: float, t_end: float) -> tuple[int, int]:
    """Indices of the first and last sample inside user times [t_start, t_end]."""
    i0 = math.ceil((t_start - s.t0) / s.dt - _TIME_EPS)
    i1 = math.floor((t_end - s.t0) / s.dt + _TIME_EPS)
    return i0, i1


def window(series: TimeSeries, t_start: float, t_end: float) -> TimeSeries:
    """Contiguous slice covering user times [t_start, t_end]; t0 is updated."""
    if not t_start < t_end:
        raise WindowOutOfRange(f"empty window: t_start={t_start}, t_end={t_end}")
    i0, i1 = _time_span(series, t_start, t_end)
    if i0 < 0 or i1 > len(series) - 1:
        raise WindowOutOfRange(
            f"window [{t_start}, {t_end}] outside series extent "
            f"[{series.t0}, {series.t_end}]"
        )
    if i1 - i0 + 1 < _MIN_LENGTH:
        raise WindowOutOfRange(f"window [{t_start}, {t_end}] covers fewer than {_MIN_LENGTH} samples")
    return TimeSeries(
        series.values[..., i0 : i1 + 1], series.dt, series.t0 + i0 * series.dt, series.label
    )


def star_window_from_times(
    series: TimeSeries, t_start: float, t_end: float
) -> StationaryWindow:
    """Convert user times to a StationaryWindow over the aligned sample of series.

    The star window must lie inside the series' span and select at least 3
    aligned samples; a star window that ends at the series' last sample drops
    that sample, which has no forward difference.
    """
    start, last = _time_span(series, t_start, t_end)
    end = min(len(series) - 1, last + 1)
    if start < 0 or last > len(series) - 1 or end - start < _MIN_LENGTH:
        raise WindowTooShort(
            f"star window [{t_start}, {t_end}] does not select >= {_MIN_LENGTH} aligned samples "
            f"inside the analyzed window [{series.t0}, {series.t_end}]"
        )
    return StationaryWindow(start, end)


def align(x1: TimeSeries, x2: TimeSeries) -> AlignedPair:
    """Pair two series (or stacks) and attach their Euler-forward difference series."""
    if len(x1) != len(x2):
        raise LengthMismatch(f"series lengths differ: {len(x1)} vs {len(x2)}")
    if not math.isclose(x1.dt, x2.dt, rel_tol=1e-12, abs_tol=0.0):
        raise DtMismatch(f"series timesteps differ: {x1.dt} vs {x2.dt}")
    d1 = (x1.values[..., 1:] - x1.values[..., :-1]) / x1.dt
    d2 = (x2.values[..., 1:] - x2.values[..., :-1]) / x2.dt
    d1.setflags(write=False)  # fresh arrays: AlignedPair keeps them without a copy
    d2.setflags(write=False)
    return AlignedPair(x1=x1, x2=x2, d1=d1, d2=d2)


def _dot(a: np.ndarray, b: np.ndarray):
    """The sum of a * b over the last axis, in numpy's pairwise order on one thread.

    a @ b calls BLAS ddot, whose rounding depends on how many threads split
    the vectors; this sum gives the same bits for any BLAS thread count. A
    stack gives one sum per row, each in the order of the row alone.
    """
    return np.add.reduce(a * b, axis=-1)


def detrend_values(values: np.ndarray) -> np.ndarray:
    """Residuals of a least-squares linear fit in sample index, per row of a stack."""
    n = np.arange(values.shape[-1], dtype=float)
    nc = n - n.mean()
    slope = _dot(nc, values) / _dot(nc, nc)
    return values - (values.mean(axis=-1, keepdims=True) + np.expand_dims(slope, -1) * nc)

from __future__ import annotations

import os

import numpy as np
import pytest

from infoflow import (
    InputError,
    SimConfig,
    TimeSeries,
    align,
    reference_model,
    simulate,
)
from infoflow import series

# canonical fixture path: system-1 realization used across test modules
REFERENCE_SEED = 149


@pytest.fixture(scope="session")
def reference_path():
    """One full system-1 path (dt=1e-3, 100000 steps, x0=(1,2), seed 149)."""
    return simulate(SimConfig(reference_model(), (1.0, 2.0), 1e-3, 100_000, REFERENCE_SEED))


def make_pair(x1_values, x2_values, dt=1.0):
    """AlignedPair from raw arrays, for small hand-built cases."""
    return align(
        TimeSeries(np.asarray(x1_values, dtype=float), dt, label="x1"),
        TimeSeries(np.asarray(x2_values, dtype=float), dt, label="x2"),
    )


def random_walk_pair(rng, n=None, dt=0.5):
    """A generic, well-conditioned random pair for property tests."""
    if n is None:
        n = int(rng.integers(16, 64))
    x1 = np.cumsum(rng.standard_normal(n)) + rng.standard_normal(n)
    x2 = np.cumsum(rng.standard_normal(n)) + rng.standard_normal(n)
    return make_pair(x1, x2, dt=dt)


def split_before_every_line(monkeypatch, path):
    """Make the loaders cut path's data into one byte range per line; returns
    the list that records each forked worker's range."""
    monkeypatch.setattr(series, "SPLIT_BYTES", 1)
    cpus = set(range(os.path.getsize(path)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    forked = []

    class Recorded(series._Worker):
        def __init__(self, fh, start, end, *args):
            forked.append((start, end))
            super().__init__(fh, start, end, *args)

    monkeypatch.setattr(series, "_Worker", Recorded)
    return forked


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def row_scan(path, x1, x2):
    """The retained reference parse: every data row through series._scan_rows,
    the lines read by CPython's text layer."""
    with open(path, newline="", encoding="utf-8") as fh:
        cols, width = series._header_columns(path, fh, (x1, x2))
        table = series._scan_rows(path, cols, width, True, series._data_lines(fh), 1)
    names = list(cols)
    return table[:, names.index(x1)], table[:, names.index(x2)]


def outcome(load):
    """Bit patterns of the loaded arrays, or the class, message and row of the error."""
    try:
        return [np.asarray(a, dtype=float).tobytes() for a in load()]
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "row", None)

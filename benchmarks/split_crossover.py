#!/usr/bin/env python3
"""Time the reader and the writer on one range and on one range per CPU,
across text sizes.

Usage:
    PYTHONPATH=src python3 benchmarks/split_crossover.py [--repeats N]

For each text size from 32 KB to 4 MB, takes the first rows of a `t,x1,x2`
table (seed 1, about 59 bytes a row) and times, in alternating order:

- load_csv of a CSV of those rows, written into a temporary directory, with
  the file read as one range (SPLIT_BYTES above the file size) and cut into
  one range per available CPU (SPLIT_BYTES = 1);
- _write_rows of the same rows to the null device, with the table written as
  one range and cut into one range per available CPU, by the same two
  settings of SPLIT_BYTES.

It prints the median of each and their ratio. series.SPLIT_BYTES is chosen
from the sizes at which the ratios fall below 1: a file splits into ranges
of at least SPLIT_BYTES bytes, and a table into ranges of at least
SPLIT_BYTES / 4 characters at 25 a value.
"""

from __future__ import annotations

import argparse
import os
import statistics
import tempfile
import time

import numpy as np

from infoflow import load_csv, series
from infoflow.series import _write_rows


def alternate(run, repeats: int) -> tuple[float, float]:
    """Median seconds of run() with SPLIT_BYTES forcing one range and
    forcing one range per CPU, timed in alternating order."""
    saved, times = series.SPLIT_BYTES, {1: [], 1 << 40: []}
    try:
        for repeat in range(repeats):
            for split_bytes in sorted(times, reverse=bool(repeat % 2)):
                series.SPLIT_BYTES = split_bytes
                start = time.perf_counter()
                run()
                times[split_bytes].append(time.perf_counter() - start)
    finally:
        series.SPLIT_BYTES = saved
    return statistics.median(times[1 << 40]), statistics.median(times[1])


def report(what: str, size: int, one: float, split: float) -> None:
    print(
        f"{what} {size / 1e6:7.3f} MB  one range {one * 1e3:8.2f} ms"
        f"  split {split * 1e3:8.2f} ms  ratio {split / one:5.2f}"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()

    rng = np.random.default_rng(1)
    n = 1 << 17
    rows = np.column_stack(
        [np.arange(n) * 1e-3, np.cumsum(rng.standard_normal(n)), rng.standard_normal(n)]
    )
    print(f"{len(os.sched_getaffinity(0))} CPUs available")
    with tempfile.TemporaryDirectory() as work, open(os.devnull, "w") as null:
        for target in [1 << k for k in range(15, 23)]:
            table = rows[: target // 59]
            path = os.path.join(work, f"{target}.csv")
            with open(path, "w") as out:
                out.write("t,x1,x2\n")
                _write_rows(out, table)
            size = os.path.getsize(path)
            report("read ", size, *alternate(lambda: load_csv(path, "x1", "x2", 1.0), args.repeats))
            report("write", size, *alternate(lambda: _write_rows(null, table), args.repeats))


if __name__ == "__main__":
    main()

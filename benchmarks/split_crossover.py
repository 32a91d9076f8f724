#!/usr/bin/env python3
"""Time load_csv on one byte range and on one range per CPU, across file sizes.

Usage:
    PYTHONPATH=src python3 benchmarks/split_crossover.py [--repeats N]

For each data size from 32 KB to 4 MB, writes a `t,x1,x2` CSV of that size
(seed 1) into a temporary directory and times load_csv with the file read as
one range (SPLIT_BYTES above the file size) and cut into one range per
available CPU (SPLIT_BYTES = 1), in alternating order. It prints the median
of each and their ratio; series.SPLIT_BYTES is chosen above the size at which
the ratio falls below 1.
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
    with tempfile.TemporaryDirectory() as work:
        for target in [1 << k for k in range(15, 23)]:
            path = os.path.join(work, f"{target}.csv")
            with open(path, "w") as out:
                out.write("t,x1,x2\n")
                _write_rows(out, rows[: target // 59])  # about 59 bytes a row
            times = {1: [], 1 << 40: []}
            for repeat in range(args.repeats):
                for split_bytes in sorted(times, reverse=bool(repeat % 2)):
                    series.SPLIT_BYTES = split_bytes
                    start = time.perf_counter()
                    load_csv(path, "x1", "x2", 1.0)
                    times[split_bytes].append(time.perf_counter() - start)
            one, split = (statistics.median(times[k]) for k in (1 << 40, 1))
            print(
                f"{os.path.getsize(path) / 1e6:7.3f} MB  one range {one * 1e3:8.2f} ms"
                f"  split {split * 1e3:8.2f} ms  ratio {split / one:5.2f}"
            )


if __name__ == "__main__":
    main()

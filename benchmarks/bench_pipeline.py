#!/usr/bin/env python3
"""Time the stages of the infoflow pipeline and write BENCH_pipeline.json.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_pipeline.py [--out PATH]

Every stage runs on fixed sizes and seeds, so two runs time the same work, and
reports the best and the median wall time of REPEATS = 5 runs. The record also
holds the kernel backend, the numpy version, the CPU count and the git commit
(with a flag for uncommitted changes).

Stages:
    bootstrap_ci  moving-block bootstrap of the seed-149 reference path,
                  m = 100,000 aligned rows, n_boot = 1000, default block
                  length, seed 11
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import time

import numpy as np

from infoflow import SimConfig, align, bootstrap_ci, reference_model, simulate
from infoflow.kernels import BACKEND


def bootstrap_stage():
    x1, x2 = simulate(SimConfig(reference_model(), (1.0, 2.0), 1e-3, 100_000, 149))
    pair = align(x1, x2)
    params = {"m": pair.m, "n_boot": 1000, "seed": 11}
    return params, lambda: bootstrap_ci(pair, n_boot=1000, seed=11)


STAGES = {"bootstrap_ci": bootstrap_stage}
REPEATS = 5


def time_stage(run):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return {"best_s": min(times), "median_s": statistics.median(times), "runs_s": times}


def git_commit():
    """(HEAD commit, whether the tree has uncommitted changes), or (None, None)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, bool(status.strip())


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_pipeline.json")
    args = parser.parse_args()

    stages = {}
    for name, setup in STAGES.items():
        params, run = setup()
        run()  # warm-up: imports, first-touch allocations
        stages[name] = {**params, **time_stage(run)}
        best, median = stages[name]["best_s"], stages[name]["median_s"]
        print(f"{name:>14s}: best {best * 1e3:8.1f} ms  median {median * 1e3:8.1f} ms")

    sha, dirty = git_commit()
    record = {
        "stages": stages,
        "repeats": REPEATS,
        "backend": BACKEND,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": dirty,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

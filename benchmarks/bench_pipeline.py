#!/usr/bin/env python3
"""Time the stages of the infoflow pipeline and write BENCH_pipeline.json.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_pipeline.py [--out PATH]

Every stage runs on fixed sizes and seeds, so two runs time the same work, and
reports the best and the median wall time of REPEATS = 5 runs, the median CPU
time of the child processes it ended (children_cpu_s: the parsers of an input
cut into byte ranges, which tracemalloc and the process's own CPU time do not
see), and the ratio of its median to the median of the reference stage, a
fixed numpy workload that runs no infoflow code. On a shared machine whose speed drifts between
sessions, the ratios of two records compare where their times do not. The
record also holds the kernel backend, the numpy version, the CPU count, the
OPENBLAS_NUM_THREADS setting (null when unset) and the git commit (with a
flag for uncommitted changes).

Stages, all but reference, integrate_moments, map_flows and simulate_* on the
seed-149 reference path, m = 100,000 aligned rows:
    reference          np.sort of 2^21 standard normals drawn from seed 0
    load_csv           load_csv of the path's 100,001 rows (t, x1, x2),
                       written with `simulate`'s writer into a temporary
                       directory; also records the tracemalloc peak of one
                       untimed call after a warm-up (peak_mb, in units of
                       10^6 bytes)
    load_csv_wide      load_csv of x1 and x2 from the path's 100,001 rows in
                       perfbench's pair layout, t,x1,station,x2,x3: a text
                       column "S00".."S39" and a float column x3, both
                       drawn from seed 149 and never read, so that each
                       line's cell count is checked; also records peak_mb
    load_csv_500k      load_csv of a 500,001-row path of the same model and
                       seed, 500,000 steps, written the same way; also
                       records peak_mb
    load_csv_bare_cr   load_csv of the path's 100,001 rows written as for
                       load_csv but with a bare CR ending every line, which
                       the chunked parse splits by the same line-end rule;
                       also records peak_mb
    load_csv_crlf      the same with CRLF line ends; also records peak_mb
    load_csv_quoted    the same with LF line ends and the first data row's
                       t cell quoted, which sends the whole file to the
                       row-by-row parse; also records peak_mb
    align              align of the path's two series, which forms their
                       difference series; also records peak_mb
    analyze_core       covariances + fit_mle + fisher_ci, the estimator work
                       of one Fisher `analyze`; also records peak_mb, as
                       load_csv does
    bootstrap_ci       moving-block bootstrap from the path's covariances,
                       n_boot = 1000, default block length, seed 11; also
                       records peak_mb
    integrate_moments  RK4 moment trajectory of the reference model from
                       `theory`'s default initial state, t_end = 10, dt = 1e-3
    simulate_write     the `simulate` CSV writer on the path's 100,001 rows,
                       written to the null device
    map_flows          `map`'s estimator work: a random-walk index against a
                       40 x 40 x 2000 grid of random walks it drives, built
                       from seed 149 in memory, with a masked 5 x 5 block and
                       one constant cell
    write_grid         write_grid of that grid (about 61 MB of text) into
                       the temporary directory
    load_grid          load_grid of the files write_grid wrote; also records
                       peak_mb
    simulate_python    `simulate` of that reference path (reference_model(),
    simulate_compiled  100,000 steps, seed 149) on each kernel backend: the
                       pure-Python one always, the compiled one when it is
                       built. The model hands its coefficients over as numpy
                       scalars, as in every `simulate` and `validate` run.
                       Each also records peak_mb
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import tempfile
import time
import tracemalloc
from unittest import mock

import numpy as np

from infoflow import (
    GridField,
    MomentState,
    SimConfig,
    TimeSeries,
    align,
    bootstrap_ci,
    covariances,
    fisher_ci,
    fit_mle,
    integrate_moments,
    load_csv,
    load_grid,
    map_flows,
    reference_model,
    simulate,
    write_grid,
)
from infoflow import simulator
from infoflow.series import _write_rows
from infoflow.kernels import BACKEND, available_backends


def reference_pair():
    x1, x2 = simulate(SimConfig(reference_model(), (1.0, 2.0), 1e-3, 100_000, 149))
    return align(x1, x2)


def traced_peak_mb(run):
    run()  # warm-up: a first call also traces its lazy imports
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@functools.cache
def work_dir() -> tempfile.TemporaryDirectory:
    """The directory of the stages' files, removed when the process exits."""
    return tempfile.TemporaryDirectory()


def path_rows(pair):
    """The reference path as `simulate` writes it: columns t, x1, x2."""
    x1, x2 = pair.x1.values, pair.x2.values
    return np.column_stack([np.arange(len(x1)) * pair.x1.dt, x1, x2])


def reference_stage(pair):
    values = np.random.default_rng(0).standard_normal(1 << 21)
    return {"values": values.size}, lambda: np.sort(values)


def load_csv_stage(pair, name="path.csv", newline=None, quote_first=False):
    path = os.path.join(work_dir().name, name)
    rows = path_rows(pair)
    with open(path, "w", newline=newline) as out:
        out.write("t,x1,x2\n")
        if quote_first:
            out.write('"%.17g",%.17g,%.17g\n' % tuple(rows[0]))
        _write_rows(out, rows[1:] if quote_first else rows)

    def run():
        return load_csv(path, "x1", "x2", pair.dt)

    return {"rows": len(rows), "peak_mb": traced_peak_mb(run)}, run


def load_csv_wide_stage(pair):
    path = os.path.join(work_dir().name, "wide.csv")
    rng = np.random.default_rng(149)
    rows = path_rows(pair)
    station, x3 = rng.integers(0, 40, len(rows)).tolist(), rng.standard_normal(len(rows)).tolist()
    with open(path, "w") as out:
        out.write("t,x1,station,x2,x3\n")
        out.writelines("%.17g,%.17g,S%02d,%.17g,%.17g\n" % (t, x1, code, x2, other)
                       for (t, x1, x2), code, other in zip(rows.tolist(), station, x3))

    def run():
        return load_csv(path, "x1", "x2", pair.dt)

    return {"rows": len(rows), "peak_mb": traced_peak_mb(run)}, run


def load_csv_500k_stage(pair):
    x1, x2 = simulate(SimConfig(reference_model(), (1.0, 2.0), 1e-3, 500_000, 149))
    return load_csv_stage(align(x1, x2), "path_500k.csv")


def load_csv_bare_cr_stage(pair):
    return load_csv_stage(pair, "path_cr.csv", newline="\r")


def load_csv_crlf_stage(pair):
    return load_csv_stage(pair, "path_crlf.csv", newline="\r\n")


def load_csv_quoted_stage(pair):
    return load_csv_stage(pair, "path_quoted.csv", quote_first=True)


def align_stage(pair):
    def run():
        return align(pair.x1, pair.x2)

    return {"rows": len(pair.x1), "peak_mb": traced_peak_mb(run)}, run


def analyze_core_stage(pair):
    def run():
        cov = covariances(pair)
        return fisher_ci(pair, fit_mle(pair, cov), cov)

    return {"m": pair.m, "peak_mb": traced_peak_mb(run)}, run


def bootstrap_stage(pair):
    cov = covariances(pair)

    def run():
        return bootstrap_ci(pair, cov, n_boot=1000, seed=11)

    return {"m": pair.m, "n_boot": 1000, "seed": 11, "peak_mb": traced_peak_mb(run)}, run


def integrate_moments_stage(pair):
    model = reference_model()
    init = MomentState(mu=np.array([1.0, 2.0]), sigma=np.eye(2) * 0.1, t=0.0)
    params = {"t_end": 10.0, "dt": 1e-3}
    return params, lambda: integrate_moments(model, init, **params)


def simulate_write_stage(pair):
    def run():
        with open(os.devnull, "w") as out:
            _write_rows(out, path_rows(pair))

    return {"rows": len(pair.x1)}, run


@functools.cache
def bench_grid():
    """(index series, field, its sizes) of the map_flows, write_grid and load_grid stages."""
    rng = np.random.default_rng(149)
    n_time, n_lat, n_lon, dt = 2000, 40, 40, 0.1
    index = np.cumsum(rng.standard_normal(n_time))
    values = np.cumsum(rng.standard_normal((n_time, n_lat, n_lon)), axis=0)
    values += 0.5 * index[:, None, None]
    values[:, 20, 20] = 7.25
    mask = np.ones((n_lat, n_lon), dtype=bool)
    mask[:5, :5] = False
    field = GridField(values=values, dt=dt, mask=mask)
    return TimeSeries(index, dt), field, {"n_time": n_time, "n_lat": n_lat, "n_lon": n_lon}


def map_flows_stage(pair):
    index, field, params = bench_grid()
    return params, lambda: map_flows(index, field)


def write_grid_stage(pair):
    _, field, params = bench_grid()
    return params, lambda: write_grid(field, work_dir().name)


def load_grid_stage(pair):
    _, field, params = bench_grid()
    manifest = write_grid(field, work_dir().name)

    def run():
        return load_grid(manifest)

    return {**params, "peak_mb": traced_peak_mb(run)}, run


def simulate_stage(kernel):
    def setup(pair):
        cfg = SimConfig(reference_model(), (1.0, 2.0), 1e-3, 100_000, 149)

        def run():
            with mock.patch.object(simulator, "euler_path_2d", kernel):
                return simulate(cfg)

        return {"steps": cfg.n_steps, "seed": cfg.seed, "peak_mb": traced_peak_mb(run)}, run

    return setup


STAGES = {
    "reference": reference_stage,
    "load_csv": load_csv_stage,
    "load_csv_wide": load_csv_wide_stage,
    "load_csv_500k": load_csv_500k_stage,
    "load_csv_bare_cr": load_csv_bare_cr_stage,
    "load_csv_crlf": load_csv_crlf_stage,
    "load_csv_quoted": load_csv_quoted_stage,
    "align": align_stage,
    "analyze_core": analyze_core_stage,
    "bootstrap_ci": bootstrap_stage,
    "integrate_moments": integrate_moments_stage,
    "simulate_write": simulate_write_stage,
    "map_flows": map_flows_stage,
    "write_grid": write_grid_stage,
    "load_grid": load_grid_stage,
    **{f"simulate_{name}": simulate_stage(fn) for name, fn in available_backends().items()},
}
REPEATS = 5


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_stage(run):
    times, children = [], []
    for _ in range(REPEATS):
        start, cpu = time.perf_counter(), children_cpu_s()
        run()
        times.append(time.perf_counter() - start)
        children.append(children_cpu_s() - cpu)
    return {
        "best_s": min(times),
        "median_s": statistics.median(times),
        "runs_s": times,
        "children_cpu_s": statistics.median(children),
    }


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

    pair = reference_pair()
    stages = {}
    for name, setup in STAGES.items():
        params, run = setup(pair)
        run()  # warm-up: imports, first-touch allocations
        stages[name] = {**params, **time_stage(run)}
        best, median = stages[name]["best_s"], stages[name]["median_s"]
        ratio = stages[name]["ratio"] = median / stages["reference"]["median_s"]
        children = stages[name]["children_cpu_s"]
        print(
            f"{name:>17s}: best {best * 1e3:8.1f} ms  median {median * 1e3:8.1f} ms"
            f"  children {children * 1e3:8.1f} ms  ratio {ratio:8.3f}"
        )

    sha, dirty = git_commit()
    record = {
        "stages": stages,
        "repeats": REPEATS,
        "backend": BACKEND,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": sha,
        "git_dirty": dirty,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

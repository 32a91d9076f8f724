#!/usr/bin/env python3
"""Check that two checkouts of infoflow give byte-identical CLI results.

Usage:
    python3 benchmarks/compare_cli.py BASE_SRC [NEW_SRC]

BASE_SRC and NEW_SRC are `src` directories of two checkouts (NEW_SRC defaults
to this checkout's). Make the base one with, for example,
`git archive PARENT | tar -x -C DIR`, and build its kernel
(`python setup.py build_ext --inplace`) if this one's is built.

Each checkout runs the same sequence of `python -m infoflow.cli` commands in
a fresh working directory at one fixed path, so that absolute paths in
manifests agree. The sequence covers every subcommand: simulate (to a file
and to stdout, and from a config file), theory, analyze with Fisher, star
plus detrend and bootstrap intervals, an analyze that exits 2 and one that
exits 3, map, and validate. Four more analyze calls drive the CSV reader's
other routes: a file with a comment line and a quoted cell (the row scan),
one with a bad cell (exit 2, naming its row), a 2.4 MB simulate output, and
a 2.4 MB file with comment lines of multi-byte UTF-8 characters throughout
(both cut into byte ranges parsed in parallel where two CPUs are available).
Two more read inputs with non-ASCII names, which their manifests record: a
simulate config and a copy of the row-scan file. Three more map calls read
grids whose values file differs from the first map's in one row: a quoted
cell (the row scan), and a non-numeric cell and a NaN in an unmasked cell,
each of which exits 2 naming its row and column. One more analyze writes its
result under a directory that does not exist (exit 2, naming the output).
For each command the exit code, stdout and stderr are compared, and at the
end every file in the working directory. Prints one line per command and one per file that
differs, each difference followed by up to ten lines of its diff, and exits
1 if anything differs.
"""

from __future__ import annotations

import difflib
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

REF = ["--x1", "x1", "--x2", "x2", "--dt", "0.001"]
COMMANDS = {
    "simulate_file": ["simulate", "--steps", "20000", "--seed", "149", "--out", "path.csv"],
    "simulate_stdout": ["simulate", "--steps", "300", "--seed", "3"],
    "simulate_config": ["simulate", "--config", "sim.cfg", "--out", "config.csv"],
    "theory": ["theory", "--t-end", "2", "--dt", "0.01", "--out", "traj.csv"],
    "analyze_fisher": ["analyze", "--input", "path.csv", *REF, "--output", "fisher.json"],
    "analyze_star_detrend": [
        "analyze", "--input", "path.csv", *REF, "--window", "2:18", "--star-window", "5:10",
        "--detrend-star", "--output", "star.json",
    ],
    "analyze_bootstrap": [
        "analyze", "--input", "path.csv", *REF, "--ci", "bootstrap", "--n-boot", "200",
        "--seed", "11",
    ],
    "analyze_exit_2": ["analyze", "--input", "path.csv", "--x1", "nope", "--x2", "x2", "--dt", "1"],
    "analyze_exit_3": ["analyze", "--input", "collinear.csv", "--x1", "a", "--x2", "b", "--dt", "1"],
    "analyze_row_scan": ["analyze", "--input", "odd.csv", "--x1", "a", "--x2", "b", "--dt", "1"],
    "analyze_bad_cell": ["analyze", "--input", "bad.csv", "--x1", "a", "--x2", "b", "--dt", "1"],
    "simulate_long": ["simulate", "--steps", "40000", "--seed", "7", "--out", "long.csv"],
    "analyze_split": ["analyze", "--input", "long.csv", *REF, "--output", "split.json"],
    "analyze_utf8_split": ["analyze", "--input", "utf8.csv", "--x1", "a", "--x2", "b", "--dt", "1"],
    "simulate_config_utf8": ["simulate", "--config", "réglage.cfg", "--out", "config_utf8.csv"],
    "analyze_utf8_name": ["analyze", "--input", "données.csv", "--x1", "a", "--x2", "b", "--dt", "1"],
    "map": ["map", "--index", "index.csv", "--grid-manifest", "grid.csv", "--out-dir", "maps"],
    "map_row_scan": [
        "map", "--index", "index.csv", "--grid-manifest", "grid_quoted.csv", "--out-dir", "maps_quoted",
    ],
    "map_bad_cell": ["map", "--index", "index.csv", "--grid-manifest", "grid_bad.csv", "--out-dir", "bad"],
    "map_unmasked_nan": [
        "map", "--index", "index.csv", "--grid-manifest", "grid_nan.csv", "--out-dir", "nan",
    ],
    "analyze_unwritable_output": [
        "analyze", "--input", "odd.csv", "--x1", "a", "--x2", "b", "--dt", "1",
        "--output", "nodir/out.json",
    ],
    "validate": ["validate"],
}


def write_inputs(work: str) -> None:
    """The files the commands read besides those an earlier command writes."""
    with open(os.path.join(work, "sim.cfg"), "w") as fh:
        fh.write("dt=0.01\nsteps=400\nx0=0,0\nb=0.2,0.2\nseed=5\n")
    with open(os.path.join(work, "réglage.cfg"), "w") as fh:
        fh.write("dt=0.02\nsteps=300\nseed=6\n")
    with open(os.path.join(work, "collinear.csv"), "w") as fh:
        fh.write("a,b\n" + "".join(f"{v!r},{v!r}\n" for v in np.linspace(0, 1, 32).tolist()))
    walk = np.cumsum(np.random.default_rng(5).standard_normal((64, 2)), axis=0).tolist()
    rows = [f"{a!r},{b!r}\n" for a, b in walk]
    rows[40] = f'"{walk[40][0]!r}",{walk[40][1]!r}\n'  # a quoted cell
    rows.insert(20, "# a comment line\n")
    with open(os.path.join(work, "odd.csv"), "w") as fh:
        fh.write("a,b\n" + "".join(rows))
    shutil.copyfile(os.path.join(work, "odd.csv"), os.path.join(work, "données.csv"))
    rows[50] = "0.5,n/a\n"
    with open(os.path.join(work, "bad.csv"), "w") as fh:
        fh.write("a,b\n" + "".join(rows))
    walk = np.cumsum(np.random.default_rng(6).standard_normal((60000, 2)), axis=0).tolist()
    rows = [f"{a!r},{b!r}\n" for a, b in walk]
    for at in range(len(rows) - 1, 0, -25):
        rows.insert(at, f"# relevé {at}: température °C, µ ✓\n")
    with open(os.path.join(work, "utf8.csv"), "w", encoding="utf-8") as fh:
        fh.write("a,b\n" + "".join(rows))
    rng = np.random.default_rng(21)
    n_time, n_lat, n_lon = 400, 4, 5
    index = np.cumsum(rng.standard_normal(n_time))
    values = 0.5 * index[:, None] + np.cumsum(rng.standard_normal((n_time, n_lat * n_lon)), axis=0)
    values[:, 7] = 7.25  # a constant cell: missing in the maps
    with open(os.path.join(work, "index.csv"), "w") as fh:
        fh.write("t,index\n" + "".join(f"{i * 0.5!r},{v!r}\n" for i, v in enumerate(index.tolist())))
    with open(os.path.join(work, "mask.csv"), "w") as fh:
        fh.write("1,1,1,1,1\n1,1,1,1,1\n0,0,1,1,1\n1,1,1,1,1\n")
    rows = [",".join(map(repr, row)) + "\n" for row in values.tolist()]
    quoted, bad, nan = rows.copy(), rows.copy(), rows.copy()
    first, rest = rows[150].split(",", 1)
    quoted[150] = f'"{first}",{rest}'
    bad[250] = "n/a," + rows[250].split(",", 1)[1]
    cells = rows[300].split(",")
    cells[3] = "nan"  # an unmasked cell
    nan[300] = ",".join(cells)
    for suffix, body in (("", rows), ("_quoted", quoted), ("_bad", bad), ("_nan", nan)):
        with open(os.path.join(work, f"vals{suffix}.csv"), "w") as fh:
            fh.write("".join(body))
        with open(os.path.join(work, f"grid{suffix}.csv"), "w") as fh:
            fh.write(f"n_lat,{n_lat}\nn_lon,{n_lon}\nn_time,{n_time}\ndt,0.5\n")
            fh.write(f"values_file,vals{suffix}.csv\nmask_file,mask.csv\n")


def run_checkout(src: str, work: str) -> tuple[dict, dict]:
    """(command name -> (exit code, stdout, stderr), relative path -> bytes) for one checkout."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    write_inputs(work)
    env = {k: v for k, v in os.environ.items() if k != "INFOFLOW_SEED"}
    env.update(PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")
    results = {}
    for name, argv in COMMANDS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "infoflow.cli", *argv], cwd=work, env=env, capture_output=True
        )
        results[name] = (proc.returncode, proc.stdout, proc.stderr)
    files = {}
    for root, _, names in os.walk(work):
        for file_name in names:
            path = os.path.join(root, file_name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, work)] = fh.read()
    return results, files


def print_diff(name: str, base: bytes, new: bytes, limit: int = 10) -> None:
    """The first `limit` lines of a unified diff of two outputs, if they differ."""
    if base != new:
        lines = [text.decode("utf-8", "replace").splitlines() for text in (base, new)]
        diff = difflib.unified_diff(*lines, f"base {name}", f"new {name}", n=0, lineterm="")
        for line in list(diff)[:limit]:
            print(f"    {line}")


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    base_src = sys.argv[1]
    new_src = sys.argv[2] if len(sys.argv) == 3 else os.path.join(os.path.dirname(__file__), "..", "src")
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.join(tmp, "work")
        base, base_files = run_checkout(base_src, work)
        new, new_files = run_checkout(new_src, work)
    differ = 0
    for name in COMMANDS:
        same = base[name] == new[name]
        differ += not same
        print(f"{name:22s} exit {base[name][0]} -> {new[name][0]}  {'same' if same else 'DIFFERS'}")
        for i, stream in ((1, "stdout"), (2, "stderr")):
            print_diff(f"{name} {stream}", base[name][i], new[name][i])
    for path in sorted(set(base_files) | set(new_files)):
        if base_files.get(path) != new_files.get(path):
            differ += 1
            print(f"{path}: DIFFERS")
            print_diff(path, base_files.get(path, b""), new_files.get(path, b""))
    print(f"{len(COMMANDS)} commands, {len(base_files)} files: {differ} difference(s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

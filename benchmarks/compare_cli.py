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
Four more drive the reader's line ends and cell checks: a file whose last
line has no newline, a file with bare-CR line ends, a 2.4 MB file with
bare-CR line ends whose data starts with a comment line (cut into byte
ranges after bare CRs, the comment's chunk split by the same rule), and a
3.0 MB file in the layout t,x1,station,x2,x3 whose last column is not read
(cut into byte ranges, each line's commas checked).
Two more read inputs with non-ASCII names, which their manifests record: a
simulate config and a copy of the row-scan file. Three more map calls read
grids whose values file differs from the first map's in one row: a quoted
cell (the row scan), and a non-numeric cell and a NaN in an unmasked cell,
each of which exits 2 naming its row and column. One more analyze writes its
result under a directory that does not exist (exit 2, naming the output).
Two more run at the top of the float range: an analyze of a file scaled by
1e160, whose covariances overflow (exit 3, naming them), and a map whose
grid has one unmasked cell so scaled (exit 0, that cell missing).
Two more read a byte that is not UTF-8 (exit 2): an analyze of a 2.4 MB file
with one in a comment line of its second byte range (where two CPUs are
available, a child stops there and the row-by-row parse names the byte), and
a map whose mask file holds one.
Three more maps exit 2 on the grid's read order (manifest, mask, values): a
NaN in an unmasked cell before a non-numeric cell (the NaN is named), a mask
flag other than 0 or 1 beside the non-numeric values (the mask is named), and
a manifest that gives dt twice.
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
    "analyze_no_final_newline": [
        "analyze", "--input", "no_newline.csv", "--x1", "a", "--x2", "b", "--dt", "1",
    ],
    "analyze_bare_cr": ["analyze", "--input", "cr.csv", "--x1", "a", "--x2", "b", "--dt", "1"],
    "analyze_bare_cr_comment": [
        "analyze", "--input", "cr_comment.csv", "--x1", "a", "--x2", "b", "--dt", "1",
    ],
    "analyze_wide_split": [
        "analyze", "--input", "wide.csv", "--x1", "x1", "--x2", "x2", "--dt", "0.001",
        "--output", "wide.json",
    ],
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
    "analyze_overflow": ["analyze", "--input", "overflow.csv", "--x1", "a", "--x2", "b", "--dt", "1"],
    "map_overflow_cell": [
        "map", "--index", "index.csv", "--grid-manifest", "grid_overflow.csv", "--out-dir", "overflow",
    ],
    "analyze_not_utf8_split": [
        "analyze", "--input", "not_utf8.csv", "--x1", "a", "--x2", "b", "--dt", "1",
    ],
    "map_mask_not_utf8": [
        "map", "--index", "index.csv", "--grid-manifest", "grid_mask_not_utf8.csv", "--out-dir", "mask",
    ],
    "map_nan_before_bad_cell": [
        "map", "--index", "index.csv", "--grid-manifest", "grid_nan_first.csv", "--out-dir", "nan_first",
    ],
    "map_bad_mask_bad_values": [
        "map", "--index", "index.csv", "--grid-manifest", "grid_bad_mask.csv", "--out-dir", "bad_mask",
    ],
    "map_repeated_key": [
        "map", "--index", "index.csv", "--grid-manifest", "grid_repeated.csv", "--out-dir", "repeated",
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
    with open(os.path.join(work, "overflow.csv"), "w") as fh:
        fh.write("a,b\n" + "".join(f"{a * 1e160!r},{b * 1e160!r}\n" for a, b in walk))
    with open(os.path.join(work, "no_newline.csv"), "w") as fh:
        fh.write("a,b\n" + "\n".join(f"{a!r},{b!r}" for a, b in walk))
    with open(os.path.join(work, "cr.csv"), "w", newline="") as fh:
        fh.write("a,b\r" + "".join(f"{a!r},{b!r}\r" for a, b in walk))
    rows[50] = "0.5,n/a\n"
    with open(os.path.join(work, "bad.csv"), "w") as fh:
        fh.write("a,b\n" + "".join(rows))
    walk = np.cumsum(np.random.default_rng(9).standard_normal((60000, 2)), axis=0).tolist()
    with open(os.path.join(work, "cr_comment.csv"), "w", newline="") as fh:
        fh.write("a,b\r# every line ends with a bare CR\r" + "".join(f"{a!r},{b!r}\r" for a, b in walk))
    walk = np.cumsum(np.random.default_rng(6).standard_normal((60000, 2)), axis=0).tolist()
    rows = [f"{a!r},{b!r}\n" for a, b in walk]
    for at in range(len(rows) - 1, 0, -25):
        rows.insert(at, f"# relevé {at}: température °C, µ ✓\n")
    with open(os.path.join(work, "utf8.csv"), "w", encoding="utf-8") as fh:
        fh.write("a,b\n" + "".join(rows))
    rows.insert(len(rows) * 3 // 4, "# caf\udce9\n")  # the byte 0xe9 alone
    with open(os.path.join(work, "not_utf8.csv"), "w", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write("a,b\n" + "".join(rows))
    rng = np.random.default_rng(8)
    walk = np.cumsum(rng.standard_normal((40000, 2)), axis=0).tolist()
    with open(os.path.join(work, "wide.csv"), "w") as fh:
        fh.write("t,x1,station,x2,x3\n")
        fh.writelines("%.17g,%.17g,S%02d,%.17g,%.17g\n" % (i * 0.001, a, i % 40, b, i * 0.37)
                      for i, (a, b) in enumerate(walk))
    rng = np.random.default_rng(21)
    n_time, n_lat, n_lon = 400, 4, 5
    index = np.cumsum(rng.standard_normal(n_time))
    values = 0.5 * index[:, None] + np.cumsum(rng.standard_normal((n_time, n_lat * n_lon)), axis=0)
    values[:, 7] = 7.25  # a constant cell: missing in the maps
    with open(os.path.join(work, "index.csv"), "w") as fh:
        fh.write("t,index\n" + "".join(f"{i * 0.5!r},{v!r}\n" for i, v in enumerate(index.tolist())))
    with open(os.path.join(work, "mask.csv"), "w") as fh:
        fh.write("1,1,1,1,1\n1,1,1,1,1\n0,0,1,1,1\n1,1,1,1,1\n")
    with open(os.path.join(work, "mask_not_utf8.csv"), "wb") as fh:
        fh.write(b"1,1,1,1,1\n1,1,1,1,1\n# caf\xe9\n0,0,1,1,1\n1,1,1,1,1\n")
    with open(os.path.join(work, "mask_bad.csv"), "w") as fh:
        fh.write("1,1,1,1,1\n1,1,2,1,1\n0,0,1,1,1\n1,1,1,1,1\n")
    rows = [",".join(map(repr, row)) + "\n" for row in values.tolist()]
    quoted, bad, nan = rows.copy(), rows.copy(), rows.copy()
    scaled = values.copy()
    scaled[:, 4] *= 1e160  # an unmasked cell whose variance overflows: missing in the maps
    overflow = [",".join(map(repr, row)) + "\n" for row in scaled.tolist()]
    first, rest = rows[150].split(",", 1)
    quoted[150] = f'"{first}",{rest}'
    bad[250] = "n/a," + rows[250].split(",", 1)[1]
    cells = rows[300].split(",")
    cells[3] = "nan"  # an unmasked cell
    nan[300] = ",".join(cells)
    nan_first = bad.copy()
    nan_first[100] = nan[300]  # an unmasked NaN in row 101, before the bad cell of row 251
    for suffix, body in (("", rows), ("_quoted", quoted), ("_bad", bad), ("_nan", nan),
                         ("_nan_first", nan_first), ("_overflow", overflow)):
        with open(os.path.join(work, f"vals{suffix}.csv"), "w") as fh:
            fh.write("".join(body))
        with open(os.path.join(work, f"grid{suffix}.csv"), "w") as fh:
            fh.write(f"n_lat,{n_lat}\nn_lon,{n_lon}\nn_time,{n_time}\ndt,0.5\n")
            fh.write(f"values_file,vals{suffix}.csv\nmask_file,mask.csv\n")
    for name, values_file, mask_file, more in (
        ("grid_mask_not_utf8", "vals.csv", "mask_not_utf8.csv", ""),
        ("grid_bad_mask", "vals_bad.csv", "mask_bad.csv", ""),
        ("grid_repeated", "vals.csv", "mask.csv", "dt,0.25\n"),
    ):
        with open(os.path.join(work, f"{name}.csv"), "w") as fh:
            fh.write(f"n_lat,{n_lat}\nn_lon,{n_lon}\nn_time,{n_time}\ndt,0.5\n")
            fh.write(f"values_file,{values_file}\nmask_file,{mask_file}\n{more}")


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

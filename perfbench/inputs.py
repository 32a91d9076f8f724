#!/usr/bin/env python3
"""Seeded input files for the benchmark workloads.

Usage:
    python3 perfbench/inputs.py --workload NAME --seed N --out DIR

Writes the workload's input files into DIR, plus ``arrays.npz`` (the exact
float64 values written, for the reference computations) and ``sizes.json``
(rows, cells and bytes of every file). The benchmark runs this in a child
process so that its own peak memory reflects the program, not the generator.

Series come from the Euler discretisation of system 1 of the validation
harness (x2 drives x1, no feedback), generated with two ``lfilter`` passes;
``infoflow`` itself is not used. Every value is written with ``%.17g``, the
program's own output format, so the text round-trips to the same doubles.
"""

from __future__ import annotations

import argparse
import json
import math
import os

import numpy as np

PAIR_ROWS = 500_000
PAIR_DT = 1e-3
BOOT_ROWS = 100_000
GRID_LAT, GRID_LON, GRID_TIME = 40, 40, 2000
GRID_DT = 1.0
SIM_STEPS = 100_000
SIM_DT = 1e-3
SIM_X0 = (1.0, 2.0)

# System 1 of infoflow.validate: dX1 = (-X1 + 0.5 X2) dt + 0.1 dW1,
# dX2 = -X2 dt + 0.1 dW2.
REF_A = ((-1.0, 0.5), (0.0, -1.0))
REF_B = (0.1, 0.1)

# Data row (1-based, comment lines not counted) of the planted bad cell,
# counted back from the end of the file.
MALFORMED_FROM_END = 123
MALFORMED_CELL = "n/a"

# Masked block (lat, lon slices) and the planted constant cells of the grid.
MASK_BLOCK = (slice(28, 36), slice(4, 14))
CONSTANT_CELLS = ((0, 0), (5, 31), (17, 17), (39, 39), (22, 2))


def ar1(phi: float, drive: np.ndarray, x0) -> np.ndarray:
    """x[0] = x0, x[n+1] = phi * x[n] + drive[n], along axis 0."""
    # Imported here, not at module level: the benchmark process imports this
    # module for its constants, and scipy must not count in its peak memory.
    from scipy.signal import lfilter

    x0 = np.asarray(x0, dtype=float)
    zi = (phi * x0)[np.newaxis]
    tail, _ = lfilter([1.0], [1.0, -phi], drive, axis=0, zi=zi)
    return np.concatenate([x0[np.newaxis], tail])


def euler_pair(dw: np.ndarray, dt: float, x0) -> tuple[np.ndarray, np.ndarray]:
    """Euler path of system 1 driven by increments dw of shape (n, 2)."""
    (a11, a12), (_, a22) = REF_A
    b1, b2 = REF_B
    x2 = ar1(1.0 + a22 * dt, b2 * dw[:, 1], x0[1])
    x1 = ar1(1.0 + a11 * dt, a12 * dt * x2[:-1] + b1 * dw[:, 0], x0[0])
    return x1, x2


def reference_pair(rng: np.random.Generator, n_rows: int, dt: float):
    """A stationary-start sample path of system 1 with n_rows points."""
    dw = rng.standard_normal((n_rows - 1, 2)) * math.sqrt(dt)
    # stationary standard deviations of x1 and x2 (0.005625 and 0.005 variance)
    x0 = rng.standard_normal(2) * np.sqrt([0.005625, 0.005])
    return euler_pair(dw, dt, x0)


def _write(path: str, text: str) -> int:
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return os.path.getsize(path)


def pair_lines(rng: np.random.Generator, x1, x2, dt: float) -> list[str]:
    """Data lines `t,x1,station,x2,x3`: a text and a float distractor column."""
    n = x1.size
    station = (rng.integers(0, 40, size=n)).tolist()
    x3 = rng.standard_normal(n).tolist()
    t = (np.arange(n) * dt).tolist()
    return [
        "%.17g,%.17g,S%02d,%.17g,%.17g" % row
        for row in zip(t, x1.tolist(), station, x2.tolist(), x3)
    ]


def pair_text(lines: list[str], every: int = 50_000) -> str:
    """Header plus data lines, with '#' comment lines at the top and every `every` rows."""
    out = ["# synthetic one-way coupled pair (x2 drives x1)", "# columns: t,x1,station,x2,x3"]
    out.append("t,x1,station,x2,x3")
    for start in range(0, len(lines), every):
        out.append(f"# block starting at data row {start + 1}")
        out.extend(lines[start : start + every])
    return "\n".join(out) + "\n"


def gen_pair(rng, out_dir: str, n_rows: int, malformed: bool) -> dict:
    x1, x2 = reference_pair(rng, n_rows, PAIR_DT)
    lines = pair_lines(rng, x1, x2, PAIR_DT)
    sizes = {"pair.csv": {"rows": n_rows, "cells": 5 * n_rows}}
    sizes["pair.csv"]["bytes"] = _write(os.path.join(out_dir, "pair.csv"), pair_text(lines))
    arrays = {"x1": x1, "x2": x2}
    if malformed:
        row = n_rows - MALFORMED_FROM_END
        fields = lines[row - 1].split(",")
        fields[3] = MALFORMED_CELL
        lines[row - 1] = ",".join(fields)
        path = os.path.join(out_dir, "pair_malformed.csv")
        sizes["pair_malformed.csv"] = {
            "rows": n_rows,
            "cells": 5 * n_rows,
            "bytes": _write(path, pair_text(lines)),
        }
        arrays["malformed_row"] = np.array(row)
    return {"sizes": sizes, "arrays": arrays}


def grid_field(rng: np.random.Generator):
    """Index series and a [time][lat][lon] field it drives with a spatial pattern."""
    n, shape = GRID_TIME, (GRID_LAT, GRID_LON)
    phi = 0.8
    index = ar1(phi, rng.standard_normal(n - 1), rng.standard_normal() / math.sqrt(1 - phi**2))
    lat, lon = np.meshgrid(np.arange(GRID_LAT), np.arange(GRID_LON), indexing="ij")
    # coupling strength: a bump in the north-west, zero in the southern half
    beta = 0.6 * np.exp(-((lat - 10.0) ** 2 + (lon - 12.0) ** 2) / 120.0)
    beta[lat >= GRID_LAT // 2] = 0.0
    noise = rng.standard_normal((n - 1, GRID_LAT * GRID_LON))
    drive = beta.ravel()[np.newaxis, :] * index[:-1, np.newaxis] + noise
    cells = ar1(0.6, drive, rng.standard_normal(GRID_LAT * GRID_LON)).reshape(n, *shape)
    mask = np.ones(shape, dtype=bool)
    mask[MASK_BLOCK] = False
    cells[:, ~mask] = np.nan
    for lat_i, lon_i in CONSTANT_CELLS:
        cells[:, lat_i, lon_i] = 7.25
    return index, cells, mask


def gen_grid(rng, out_dir: str) -> dict:
    index, cells, mask = grid_field(rng)
    n_cells = GRID_LAT * GRID_LON
    row_fmt = ",".join(["%.17g"] * n_cells)
    values = "# synthetic field driven by the index\n" + "\n".join(
        row_fmt % tuple(row) for row in cells.reshape(GRID_TIME, n_cells).tolist()
    ) + "\n"
    mask_text = "\n".join(",".join("1" if v else "0" for v in row) for row in mask) + "\n"
    manifest = (
        "# grid manifest\n"
        f"n_lat,{GRID_LAT}\nn_lon,{GRID_LON}\nn_time,{GRID_TIME}\ndt,{GRID_DT:.17g}\n"
        "values_file,grid_values.csv\nmask_file,grid_mask.csv\n"
    )
    index_text = "t,index\n" + "".join(
        "%.17g,%.17g\n" % (i * GRID_DT, v) for i, v in enumerate(index.tolist())
    )
    sizes = {
        "grid_values.csv": {
            "rows": GRID_TIME,
            "cells": GRID_TIME * n_cells,
            "bytes": _write(os.path.join(out_dir, "grid_values.csv"), values),
        },
        "grid_mask.csv": {
            "rows": GRID_LAT,
            "cells": n_cells,
            "bytes": _write(os.path.join(out_dir, "grid_mask.csv"), mask_text),
        },
        "grid_manifest.csv": {
            "rows": 6,
            "cells": 12,
            "bytes": _write(os.path.join(out_dir, "grid_manifest.csv"), manifest),
        },
        "index.csv": {
            "rows": GRID_TIME,
            "cells": 2 * GRID_TIME,
            "bytes": _write(os.path.join(out_dir, "index.csv"), index_text),
        },
    }
    return {"sizes": sizes, "arrays": {"index": index, "cells": cells, "mask": mask}}


def gen_synth(seed: int) -> dict:
    """The path `infoflow simulate --seed SEED` must produce, from its documented recipe:
    increments sqrt(dt) * N(0, 1) drawn as one (steps, 2) block from PCG64(seed)."""
    dw = np.random.default_rng(seed).standard_normal((SIM_STEPS, 2)) * math.sqrt(SIM_DT)
    x1, x2 = euler_pair(dw, SIM_DT, SIM_X0)
    return {"sizes": {}, "arrays": {"x1": x1, "x2": x2}}


def generate(workload: str, seed: int, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    if workload == "pair_ingest":
        result = gen_pair(rng, out_dir, PAIR_ROWS, malformed=True)
    elif workload == "pair_bootstrap":
        result = gen_pair(rng, out_dir, BOOT_ROWS, malformed=False)
    elif workload == "field_map":
        result = gen_grid(rng, out_dir)
    elif workload == "synth":
        result = gen_synth(seed)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    np.savez(os.path.join(out_dir, "arrays.npz"), **result["arrays"])
    with open(os.path.join(out_dir, "sizes.json"), "w") as fh:
        json.dump(result["sizes"], fh, indent=2, sort_keys=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()

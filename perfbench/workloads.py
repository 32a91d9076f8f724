"""The four workloads: the CLI invocations of one pass and the oracle for each.

A workload is built from its work directory (where ``inputs.py`` wrote the
files), the seed and the generated arrays. ``timed`` invocations make up one
pass; ``once`` invocations run a single time before the passes, untimed, to
give a check something from the program to compare with. Each check returns
(errors, deviations): an empty error list means the output is correct, and
the deviations feed ``max_rel_dev``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import inputs
import oracle

# A flow deviation is taken relative to max(|reference|, its standard error),
# so that an estimate indistinguishable from zero is not judged by the digits
# of its noise. Deviations above TOL fail the check.
TOL = 1e-9
FLOW_KEYS = ("t21", "t12")
SE_KEYS = ("se21", "se12")
PAIR_ARGS = ["--x1", "x1", "--x2", "x2", "--dt", repr(inputs.PAIR_DT)]
MAP_FILES = (
    "flow_index_to_field",
    "flow_field_to_index",
    "significant_index_to_field",
    "significant_field_to_index",
)


@dataclass
class Result:
    rc: int
    stdout: str
    stderr: str


Check = Callable[[Result], "tuple[list[str], list[float]]"]


@dataclass
class Invocation:
    name: str
    argv: list[str]
    check: Check
    values: int  # input values parsed plus output values written
    outputs: list[str] = field(default_factory=list)


@dataclass
class Plan:
    timed: list[Invocation]
    once: list[Invocation] = field(default_factory=list)


def _flow_devs(payload: dict, ref: dict, keys=FLOW_KEYS + SE_KEYS) -> list[float]:
    devs = []
    for key in keys:
        if key in FLOW_KEYS:
            scale = max(abs(float(ref[key])), float(ref["se" + key[1:]]))
        else:
            scale = abs(float(ref[key]))
        devs.append(abs(payload[key] - float(ref[key])) / scale)
    return devs


def _exit_error(res: Result, expected: int = 0) -> list[str]:
    if res.rc == expected:
        return []
    tail = res.stderr.strip().splitlines()[-1:] or [""]
    return [f"exit code {res.rc}, expected {expected}: {tail[0][:200]}"]


def _analyze_check(path: str, ref: dict, variant: str) -> Check:
    def check(res: Result):
        errors = _exit_error(res)
        if errors:
            return errors, []
        with open(path) as fh:
            payload = json.load(fh)
        if payload["variant"] != variant:
            errors.append(f"variant {payload['variant']!r}, expected {variant!r}")
        if payload["m"] != ref["m"]:
            errors.append(f"m = {payload['m']}, expected {ref['m']}")
        devs = _flow_devs(payload, ref)
        if max(devs) > TOL:
            errors.append(f"flows deviate from the reference by {max(devs):.3g}")
        return errors, devs

    return check


def _malformed_check(row: int) -> Check:
    needle = f"row {row}, column 'x2'"

    def check(res: Result):
        errors = _exit_error(res, expected=2)
        if not errors and needle not in res.stderr:
            errors.append(f"error message does not name {needle!r}: {res.stderr.strip()[:200]}")
        return errors, []

    return check


def pair_ingest(work: str, seed: int, arrays) -> Plan:
    x1, x2 = arrays["x1"], arrays["x2"]
    n, dt = x1.size, inputs.PAIR_DT
    src = os.path.join(work, "pair.csv")
    i0, i1 = round(100 / dt), round(400 / dt)  # --window 100:400
    s0, s1 = round(100 / dt), round(200 / dt) + 1  # --star-window 200:300, relative to t=100
    row = int(arrays["malformed_row"])
    plans = [
        ("fisher", [], oracle.flows(x1, x2, dt), "stationary"),
        (
            "window_star",
            ["--window", "100:400", "--star-window", "200:300", "--detrend-star"],
            oracle.flows(x1[i0 : i1 + 1], x2[i0 : i1 + 1], dt, star=(s0, s1, True)),
            "nonstationary_star",
        ),
        ("subsample", ["--subsample", "10"], oracle.flows(x1[::10], x2[::10], dt * 10), "stationary"),
    ]
    timed = []
    for name, extra, ref, variant in plans:
        out = os.path.join(work, f"{name}.json")
        argv = ["analyze", "--input", src, *PAIR_ARGS, *extra, "--output", out]
        timed.append(Invocation(name, argv, _analyze_check(out, ref, variant), 2 * n, [out]))
    bad = os.path.join(work, "pair_malformed.csv")
    out = os.path.join(work, "malformed.json")
    argv = ["analyze", "--input", bad, *PAIR_ARGS, "--output", out]
    timed.append(Invocation("malformed", argv, _malformed_check(row), 2 * row - 1))
    return Plan(timed)


def pair_bootstrap(work: str, seed: int, arrays) -> Plan:
    x1, x2 = arrays["x1"], arrays["x2"]
    n, dt = x1.size, inputs.PAIR_DT
    src = os.path.join(work, "pair.csv")
    ref = oracle.flows(x1, x2, dt)
    fisher_out = os.path.join(work, "fisher.json")
    boot_out = os.path.join(work, "bootstrap.json")
    fisher = Invocation(
        "fisher",
        ["analyze", "--input", src, *PAIR_ARGS, "--output", fisher_out],
        _analyze_check(fisher_out, ref, "stationary"),
        2 * n,
        [fisher_out],
    )

    def check(res: Result):
        errors = _exit_error(res)
        if errors:
            return errors, []
        with open(boot_out) as fh:
            boot = json.load(fh)
        with open(fisher_out) as fh:
            fisher_t21 = json.load(fh)["t21"]
        if boot["t21"] != fisher_t21:
            errors.append(f"bootstrap t21 {boot['t21']!r} != fisher t21 {fisher_t21!r}")
        lo, hi = boot["ci21"]
        if not lo <= boot["t21"] <= hi:
            errors.append(f"t21 {boot['t21']} outside its own interval [{lo}, {hi}]")
        if not all(math.isfinite(boot[k]) and boot[k] > 0 for k in SE_KEYS):
            errors.append(f"bootstrap standard errors not positive: {boot['se21']}, {boot['se12']}")
        devs = _flow_devs(boot, ref, FLOW_KEYS)
        if max(devs) > TOL:
            errors.append(f"flows deviate from the reference by {max(devs):.3g}")
        return errors, devs

    argv = ["analyze", "--input", src, *PAIR_ARGS, "--ci", "bootstrap", "--n-boot", "1000"]
    argv += ["--seed", str(seed), "--output", boot_out]
    return Plan([Invocation("bootstrap", argv, check, 2 * n, [boot_out])], once=[fisher])


def _read_matrix(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def field_map(work: str, seed: int, arrays) -> Plan:
    index, cells, mask = arrays["index"], arrays["cells"], arrays["mask"]
    n_time, n_lat, n_lon = cells.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = oracle.flows(index, cells.reshape(n_time, -1), inputs.GRID_DT)
    ref = {k: v.reshape(n_lat, n_lon) for k, v in ref.items() if k != "m"}
    expect_nan = ~mask
    for cell in inputs.CONSTANT_CELLS:
        expect_nan[cell] = True
    z = oracle.z_quantile(0.05)
    out_dir = os.path.join(work, "maps")
    outputs = [os.path.join(out_dir, f"{name}.csv") for name in MAP_FILES]

    def check(res: Result):
        errors = _exit_error(res)
        if errors:
            return errors, []
        i2f, f2i, sig_i2f, sig_f2i = (_read_matrix(p) for p in outputs)
        for name, grid in zip(MAP_FILES, (i2f, f2i, sig_i2f, sig_f2i)):
            if grid.shape != mask.shape:
                return [f"{name}: shape {grid.shape}, expected {mask.shape}"], []
        devs = []
        ok = ~expect_nan
        for grid, sig, t, se in ((i2f, sig_i2f, "t12", "se12"), (f2i, sig_f2i, "t21", "se21")):
            if not np.array_equal(np.isnan(grid), expect_nan):
                errors.append(f"NaN cells {np.argwhere(np.isnan(grid) != expect_nan).tolist()[:5]} wrong")
                continue
            if sig[expect_nan].any():
                errors.append("a missing cell is flagged significant")
            # A cell almost uncorrelated with the index has a flow and a
            # standard error that both scale with c12 ~ 0, so its relative
            # error only measures rounding in c12; the map's median standard
            # error sets the floor instead.
            floor = np.median(ref[se][ok])
            scale = np.maximum(np.maximum(np.abs(ref[t][ok]), ref[se][ok]), floor)
            devs.append(float(np.max(np.abs(grid[ok] - ref[t][ok]) / scale)))
            margin = np.abs(ref[t]) - z * ref[se]
            decided = ok & (np.abs(margin) > 1e-9 * (np.abs(ref[t]) + z * ref[se]))
            if not np.array_equal(sig[decided] == 1, margin[decided] > 0):
                errors.append(f"significance flags of {t} differ from the reference")
        if devs and max(devs) > TOL:
            errors.append(f"cell flows deviate from the reference by {max(devs):.3g}")
        return errors, devs

    argv = ["map", "--index", os.path.join(work, "index.csv"), "--index-col", "index"]
    argv += ["--grid-manifest", os.path.join(work, "grid_manifest.csv"), "--out-dir", out_dir]
    values = n_time * n_lat * n_lon + 2 * n_time + len(MAP_FILES) * n_lat * n_lon
    return Plan([Invocation("map", argv, check, values, outputs)])


def _csv_body(path: str) -> tuple[str, np.ndarray]:
    """(manifest comment line, numeric rows) of a CSV written by simulate or theory."""
    with open(path) as fh:
        manifest = fh.readline()
    return manifest, np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)


def synth(work: str, seed: int, arrays) -> Plan:
    steps, dt = inputs.SIM_STEPS, inputs.SIM_DT
    a = np.array(inputs.REF_A)
    sim_out = os.path.join(work, "sim.csv")
    traj_out = os.path.join(work, "traj.csv")
    theory_dt, theory_t_end = 1e-3, 10.0  # theory defaults
    mu0, sigma0 = (1.0, 2.0), ((0.1, 0.0), (0.0, 0.1))  # theory defaults
    theory_rows = round(theory_t_end / theory_dt) + 1

    def check_simulate(res: Result):
        errors = _exit_error(res)
        if errors:
            return errors, []
        manifest, rows = _csv_body(sim_out)
        if json.loads(manifest.split(":", 1)[1])["parameters"]["seed"] != seed:
            errors.append("manifest does not record the seed")
        if rows.shape != (steps + 1, 3):
            return errors + [f"simulate wrote {rows.shape}, expected {(steps + 1, 3)}"], []
        if not np.array_equal(rows[:, 0], np.arange(steps + 1) * dt):
            errors.append("time column is not i * dt")
        devs = [oracle.scaled_path_dev(rows[:, 1], arrays["x1"]),
                oracle.scaled_path_dev(rows[:, 2], arrays["x2"])]
        if max(devs) > TOL:
            errors.append(f"path deviates from the Euler reference by {max(devs):.3g} sd")
        return errors, devs

    def check_theory(res: Result):
        errors = _exit_error(res)
        if errors:
            return errors, []
        summary = json.loads(res.stderr.strip().splitlines()[-1])
        s_inf = oracle.stationary_covariance(a, inputs.REF_B)
        t21_inf = s_inf[0, 1] / s_inf[0, 0] * a[0, 1]
        devs = [oracle.rel_dev(summary["stationary_sigma"], s_inf), oracle.rel_dev(summary["t21"], t21_inf)]
        if summary["t12"] != 0.0:
            errors.append(f"stationary t12 = {summary['t12']}, expected 0 (a21 = 0)")
        _, rows = _csv_body(traj_out)
        if rows.shape != (theory_rows, 8):
            return errors + [f"theory wrote {rows.shape}, expected {(theory_rows, 8)}"], devs
        mu, sigma = oracle.moment_trajectory(a, inputs.REF_B, mu0, sigma0, rows[:, 0])
        devs += [
            oracle.rel_dev(rows[:, 1:3], mu),
            oracle.rel_dev(rows[:, 3], sigma[:, 0, 0]),
            oracle.rel_dev(rows[:, 4], sigma[:, 0, 1]),
            oracle.rel_dev(rows[:, 5], sigma[:, 1, 1]),
            oracle.rel_dev(rows[:, 6], rows[:, 4] / rows[:, 3] * a[0, 1]),
        ]
        if np.any(rows[:, 7] != 0.0):
            errors.append("trajectory t12 is not 0 although a21 = 0")
        if max(devs) > TOL:
            errors.append(f"moments deviate from the exact solution by {max(devs):.3g}")
        return errors, devs

    def check_validate(res: Result):
        errors = _exit_error(res)
        if not errors and "FAIL" in res.stdout:
            errors.append("a validation band failed")
        return errors, []

    return Plan(
        [
            Invocation(
                "simulate",
                ["simulate", "--steps", str(steps), "--seed", str(seed), "--out", sim_out],
                check_simulate,
                3 * (steps + 1),
                [sim_out],
            ),
            Invocation("theory", ["theory", "--out", traj_out], check_theory, 8 * theory_rows, [traj_out]),
            Invocation("validate", ["validate"], check_validate, 0),
        ]
    )


WORKLOADS = {
    "pair_ingest": pair_ingest,
    "pair_bootstrap": pair_bootstrap,
    "field_map": field_map,
    "synth": synth,
}

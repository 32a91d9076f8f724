from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

import infoflow
from infoflow import (
    MomentState,
    SimConfig,
    analytic_flows,
    cli,
    estimator,
    fieldmap,
    integrate_moments,
    load_csv,
    reference_model,
    simulate,
    validate,
)
from infoflow.cli import main
from infoflow.errors import NonFiniteState
from infoflow.validate import FIXTURE_SEEDS, CheckRow

from conftest import assert_no_child_left, forked_writes

REF_ARGS = ["--x1", "x1", "--x2", "x2", "--dt", "0.001"]


@pytest.fixture(scope="session")
def path_csv(tmp_path_factory):
    """Reference sample path written through the CLI itself (seed 149)."""
    out = tmp_path_factory.mktemp("cli") / "path.csv"
    rc = main(["simulate", "--seed", "149", "--out", str(out)])
    assert rc == 0
    return str(out)


@pytest.fixture(scope="session")
def schema():
    ref = resources.files("infoflow.schemas") / "flow_estimate.schema.json"
    return json.loads(ref.read_text())


def run_analyze(capsys, path, *extra):
    rc = main(["analyze", "--input", path, *REF_ARGS, *extra])
    captured = capsys.readouterr()
    return rc, captured


class TestAnalyze:
    def test_reference_window_estimate(self, capsys, path_csv, schema):
        rc, captured = run_analyze(capsys, path_csv, "--window", "5:100")
        assert rc == 0
        payload = json.loads(captured.out)
        jsonschema.validate(payload, schema)
        assert 0.08 <= payload["t21"] <= 0.14
        assert abs(payload["t12"]) <= 0.02
        assert payload["variant"] == "stationary"
        assert payload["m"] == 95_000
        assert payload["n_discarded"] == 0
        assert payload["manifest"]["command"] == "analyze"
        assert payload["manifest"]["parameters"]["block_len"] is None
        assert "->" in captured.err  # human summary with direction arrows

    def test_star_window_variant(self, capsys, path_csv, schema):
        rc, captured = run_analyze(
            capsys, path_csv, "--window", "0:10", "--star-window", "5:10"
        )
        assert rc == 0
        payload = json.loads(captured.out)
        jsonschema.validate(payload, schema)
        assert payload["variant"] == "nonstationary_star"
        assert 0.10 <= payload["t21"] <= 0.55

    def test_bootstrap_deterministic(self, capsys, path_csv):
        args = ["--window", "10:12", "--ci", "bootstrap", "--n-boot", "150", "--seed", "7"]
        rc1, cap1 = run_analyze(capsys, path_csv, *args)
        rc2, cap2 = run_analyze(capsys, path_csv, *args)
        assert rc1 == rc2 == 0
        assert cap1.out == cap2.out

    def test_bootstrap_payload_matches_schema(self, capsys, path_csv, schema):
        args = ["--window", "10:12", "--ci", "bootstrap", "--n-boot", "150", "--seed", "7"]
        for extra, block_len in (([], 13), (["--block-len", "5"], 5)):
            rc, captured = run_analyze(capsys, path_csv, *args, *extra)
            assert rc == 0
            payload = json.loads(captured.out)
            jsonschema.validate(payload, schema)
            assert payload["m"] == 2000  # default block length ceil(2000 ** (1/3)) == 13
            assert payload["n_discarded"] == 0
            assert payload["manifest"]["parameters"]["block_len"] == block_len

    def test_detrend_star_without_star_window_rejected(self, capsys, path_csv):
        # --detrend-star acts only on a star slab; alone it must not pass as
        # a stationary run whose manifest claims detrending
        rc, captured = run_analyze(capsys, path_csv, "--window", "0:10", "--detrend-star")
        assert rc == 2
        assert captured.out == ""
        assert "InputError" in captured.err and "--star-window" in captured.err

    def test_bootstrap_takes_covariances_once(self, capsys, path_csv, monkeypatch):
        # bootstrap_ci reuses the covariances that fit_mle was given
        calls = []
        core = estimator._covariances
        monkeypatch.setattr(estimator, "_covariances", lambda *a: calls.append(1) or core(*a))
        args = ["--window", "10:12", "--ci", "bootstrap", "--n-boot", "150", "--seed", "7"]
        rc, _ = run_analyze(capsys, path_csv, *args)
        assert rc == 0
        assert len(calls) == 1

    def test_output_independent_of_blas_threads(self, path_csv, tmp_path):
        # 100k rows: long enough for a threaded BLAS dot to split the vectors
        src = os.path.dirname(os.path.dirname(infoflow.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for ci in ("fisher", "bootstrap"):
            outputs = []
            for threads in ("1", "2"):
                out = tmp_path / f"{ci}_{threads}.json"
                argv = ["analyze", "--input", path_csv, *REF_ARGS, "--ci", ci, "--n-boot", "100",
                        "--seed", "3", "--output", str(out)]
                env["OPENBLAS_NUM_THREADS"] = threads
                subprocess.run([sys.executable, "-m", "infoflow.cli", *argv], env=env, check=True,
                               capture_output=True)
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]

    def test_noiseless_path_is_singular_for_fisher_only(self, capsys, tmp_path, schema):
        # an Euler path without noise: both residual sums are below the floor
        path = tmp_path / "noiseless.csv"
        rc = main(["simulate", "--b", "0,0", "--steps", "2000", "--out", str(path)])
        assert rc == 0
        capsys.readouterr()
        rc, captured = run_analyze(capsys, str(path), "--ci", "fisher")
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("SingularFisher: residual noise estimate b=0.0")
        rc, captured = run_analyze(capsys, str(path), "--ci", "bootstrap", "--n-boot", "100")
        assert rc == 0
        payload = json.loads(captured.out)
        jsonschema.validate(payload, schema)
        assert payload["b_hat"] == [0.0, 0.0]
        assert all(np.copysign(1.0, b) == 1.0 for b in payload["b_hat"])

    def test_output_file(self, capsys, path_csv, tmp_path, schema):
        out = tmp_path / "result.json"
        rc = main(
            ["analyze", "--input", path_csv, *REF_ARGS, "--window", "20:40",
             "--output", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, schema)
        capsys.readouterr()

    def test_env_seed_default(self, capsys, path_csv, monkeypatch):
        monkeypatch.setenv("INFOFLOW_SEED", "11")
        args = ["--window", "10:12", "--ci", "bootstrap", "--n-boot", "150"]
        rc1, cap1 = run_analyze(capsys, path_csv, *args)
        rc2, cap2 = run_analyze(capsys, path_csv, *args)
        assert rc1 == rc2 == 0
        assert json.loads(cap1.out)["manifest"]["parameters"]["seed"] == 11
        assert cap1.out == cap2.out


class TestSimulate:
    def test_defaults_span_zero_to_hundred(self, path_csv):
        x1, x2 = load_csv(path_csv, "x1", "x2", dt=0.001)
        assert len(x1) == 100_001
        assert x1.t_end == pytest.approx(100.0)
        # spin-down from (1, 2) toward the small stationary band
        assert x1.values[0] == 1.0 and x2.values[0] == 2.0
        assert abs(x2.values[-1]) < 0.5

    def test_manifest_header_and_reproducibility(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            rc = main(["simulate", "--steps", "500", "--seed", "3", "--out", str(out)])
            assert rc == 0
        assert a.read_text() == b.read_text()
        first = a.read_text().splitlines()[0]
        assert first.startswith("# manifest: ")
        manifest = json.loads(first.removeprefix("# manifest: "))
        assert manifest["command"] == "simulate"
        assert manifest["parameters"]["seed"] == 3

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("dt=0.01\nsteps=400\nx0=0,0\nb=0.2,0.2\nseed=5\n")
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--config", str(cfg), "--steps", "600", "--out", str(out)])
        assert rc == 0
        x1, _ = load_csv(str(out), "x1", "x2", dt=0.01)
        assert len(x1) == 601  # flag wins over config

    def test_body_bytes_match_per_row_format(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--steps", "500", "--seed", "4", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        dt = 0.001
        x1, x2 = simulate(SimConfig(reference_model(), (1.0, 2.0), dt, 500, 4))
        x1, x2 = x1.values, x2.values
        expected = "".join(f"{i * dt:.17g},{x1[i]:.17g},{x2[i]:.17g}\n" for i in range(501))
        body = out.read_text().split("\n", 2)[2]
        assert body == expected


class TestSplitWrite:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--steps", "3000", "--seed", "8"],
        ["theory", "--t-end", "3", "--dt", "0.01"],
    ], ids=["simulate", "theory"])
    @pytest.mark.parametrize("to", ["stdout", "file"])
    def test_forced_split_gives_the_same_bytes(self, capsys, tmp_path, monkeypatch, argv, to):
        # a table cut into a range per CPU, on three CPUs, written to stdout
        # or to a file: the bytes of one range
        def output():
            out = tmp_path / "out.csv"
            assert main([*argv, "--out", str(out) if to == "file" else "-"]) == 0
            return out.read_text() if to == "file" else capsys.readouterr().out

        one_range = output()
        forked = forked_writes(monkeypatch)
        assert output() == one_range
        assert len(forked) == 2
        assert_no_child_left()


class TestTheory:
    def test_reference_summary_and_trajectory(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["theory", "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["t21"] == pytest.approx(0.1111, abs=1e-4)
        assert summary["t12"] == 0.0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "t,mu1,mu2,s11,s12,s22,t21,t12"
        assert len(lines) == 1 + 10_001  # header + t = 0..10 at dt = 1e-3
        last = [float(v) for v in lines[-1].split(",")]
        assert last[3] == pytest.approx(0.005625, abs=1e-4)  # s11 near stationary

    def test_diagonal_stable_model_has_zero_flows(self, capsys):
        rc = main(["theory", "--a=-1,0,0,-2", "--out", "-"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["t21"] == 0.0 and summary["t12"] == 0.0

    def test_columns_match_trajectory_and_analytic_flows_bitwise(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["theory", "--t-end", "2", "--dt", "0.01", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()[2:]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines])
        model = reference_model()
        init = MomentState(mu=np.array([1.0, 2.0]), sigma=np.eye(2) * 0.1, t=0.0)
        trajectory = integrate_moments(model, init, 2.0, 0.01)
        assert np.array_equal(rows[:, 0], np.arange(201) * 0.01)
        assert np.array_equal(rows[:, 1:3], trajectory.mu)
        assert np.array_equal(rows[:, 3:6], trajectory.sigma[:, [0, 0, 1], [0, 1, 1]])
        for row, sigma in zip(rows, trajectory.sigma):
            t21, t12 = analytic_flows(model, sigma)
            assert row[6] == t21 and row[7] == t12

class TestMap:
    def _write_single_cell_grid(self, tmp_path, values, dt):
        (tmp_path / "vals.csv").write_text("\n".join(f"{v:.17g}" for v in values) + "\n")
        (tmp_path / "mask.csv").write_text("1\n")
        manifest = tmp_path / "grid.csv"
        manifest.write_text(
            f"n_lat,1\nn_lon,1\nn_time,{len(values)}\ndt,{dt}\n"
            "values_file,vals.csv\nmask_file,mask.csv\n"
        )
        return str(manifest)

    def test_single_cell_matches_analyze(self, capsys, tmp_path):
        rng = np.random.default_rng(21)
        n = 500
        index = np.cumsum(rng.standard_normal(n)) * 0.1
        cell = 0.5 * index + rng.standard_normal(n)
        csv_path = tmp_path / "pair.csv"
        csv_path.write_text(
            "index,cell\n" + "\n".join(f"{a:.17g},{b:.17g}" for a, b in zip(index, cell)) + "\n"
        )
        rc = main(
            ["analyze", "--input", str(csv_path), "--x1", "index", "--x2", "cell", "--dt", "0.5"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)

        manifest = self._write_single_cell_grid(tmp_path, cell, 0.5)
        out_dir = tmp_path / "maps"
        rc = main(
            ["map", "--index", str(csv_path), "--index-col", "index",
             "--grid-manifest", manifest, "--out-dir", str(out_dir)]
        )
        assert rc == 0
        capsys.readouterr()

        def read_value(name):
            rows = [
                ln for ln in (out_dir / f"{name}.csv").read_text().splitlines()
                if not ln.startswith("#")
            ]
            return rows[0]

        assert float(read_value("flow_index_to_field")) == payload["t12"]
        assert float(read_value("flow_field_to_index")) == payload["t21"]

    def test_summary_counts_missing_cells(self, capsys, tmp_path):
        rng = np.random.default_rng(22)
        index = np.cumsum(rng.standard_normal(300))
        values = np.stack([index + rng.standard_normal(300), np.full(300, 7.25)], axis=1)
        grid = infoflow.GridField(values=values.reshape(300, 1, 2), dt=0.5, mask=np.ones((1, 2)))
        manifest = infoflow.write_grid(grid, tmp_path)
        (tmp_path / "index.csv").write_text("index\n" + "\n".join(f"{v:.17g}" for v in index))
        rc = main(["map", "--index", str(tmp_path / "index.csv"), "--grid-manifest", manifest,
                   "--out-dir", str(tmp_path / "maps")])
        assert rc == 0
        summary = capsys.readouterr().err.splitlines()[0]
        assert summary.startswith("2 unmasked cells; ") and "; 1 missing; " in summary

    def test_manifest_digests_every_grid_file(self, capsys, tmp_path):
        n = 50
        manifest = self._write_single_cell_grid(tmp_path, np.sin(np.arange(n)), 1.0)
        index_csv = tmp_path / "index.csv"
        index_csv.write_text("index\n" + "\n".join(f"{np.cos(i):.17g}" for i in range(n)) + "\n")
        argv = ["map", "--index", str(index_csv), "--grid-manifest", manifest, "--out-dir"]

        def manifest_line(out_dir):
            assert main(argv + [str(tmp_path / out_dir)]) == 0
            capsys.readouterr()
            return (tmp_path / out_dir / "flow_index_to_field.csv").read_text().splitlines()[0]

        before = manifest_line("a")
        digests = json.loads(before.removeprefix("# manifest: "))["input_digests"]
        grid_files = [str(tmp_path / name) for name in ("vals.csv", "mask.csv")]
        assert sorted(digests) == sorted([manifest, str(index_csv), *grid_files])
        # one grid value changed: the values file's digest, and so the manifest line, changes
        rows = (tmp_path / "vals.csv").read_text().splitlines()
        rows[3] = "0.25"
        (tmp_path / "vals.csv").write_text("\n".join(rows) + "\n")
        after = manifest_line("b")
        assert after != before
        changed = json.loads(after.removeprefix("# manifest: "))["input_digests"]
        assert [path for path in digests if digests[path] != changed[path]] == [grid_files[0]]

    def test_grid_manifest_is_parsed_once(self, capsys, tmp_path, monkeypatch):
        # the files map digests are those load_grid read, not a second parse's
        manifest = self._write_single_cell_grid(tmp_path, np.sin(np.arange(50)), 1.0)
        index_csv = tmp_path / "index.csv"
        index_csv.write_text("index\n" + "".join(f"{np.cos(i):.17g}\n" for i in range(50)))
        parsed = []
        csv_rows = fieldmap._csv_rows
        monkeypatch.setattr(fieldmap, "_csv_rows", lambda path: parsed.append(path) or csv_rows(path))
        argv = ["map", "--index", str(index_csv), "--grid-manifest", manifest, "--out-dir",
                str(tmp_path / "maps")]
        assert main(argv) == 0
        capsys.readouterr()
        assert parsed.count(manifest) == 1

    def test_grid_paths_are_recorded_as_the_manifest_path_gives_them(self, capsys, tmp_path, monkeypatch):
        # the grid files are joined onto a relative manifest path as given, so
        # the same command in two directories that hold the same files writes
        # the same bytes
        written = []
        for name in ("a", "b"):
            (tmp_path / name / "grid").mkdir(parents=True)
            self._write_single_cell_grid(tmp_path / name / "grid", np.sin(np.arange(50)), 1.0)
            (tmp_path / name / "index.csv").write_text(
                "index\n" + "".join(f"{np.cos(i):.17g}\n" for i in range(50))
            )
            monkeypatch.chdir(tmp_path / name)
            manifest = os.path.join("grid", "grid.csv")
            files = infoflow.load_grid(manifest).files
            assert files == (manifest, os.path.join("grid", "vals.csv"), os.path.join("grid", "mask.csv"))
            argv = ["map", "--index", "index.csv", "--grid-manifest", manifest, "--out-dir", "maps"]
            assert main(argv) == 0
            capsys.readouterr()
            written.append({path.name: path.read_bytes() for path in (tmp_path / name / "maps").iterdir()})
        assert len(written[0]) == 4 and written[0] == written[1]


def _rows(values) -> str:
    """One CSV line per row of values, each value as %.17g."""
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in np.atleast_2d(values))


def _walk(n: int, seed: int) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).standard_normal((n, 2)), axis=0)


def _noiseless_path(steps: int = 2000, dt: float = 0.001) -> np.ndarray:
    """An Euler path of the reference drift from (1, 2) without noise."""
    a = np.array([[-1.0, 0.5], [0.0, -1.0]])
    path = [np.array([1.0, 2.0])]
    for _ in range(steps):
        path.append(path[-1] + dt * (a @ path[-1]))
    return np.array(path)


def _give_up_body(first: float) -> str:
    # x1 varies only on its first row: 976 of the 1000 draws allowed for 100
    # resamples are degenerate
    x2 = np.cumsum(np.random.default_rng(24).standard_normal(101))
    return "x1,x2\n" + _rows(np.column_stack([np.r_[first, np.zeros(100)], x2]))


# 60 samples at dt = 1, so user times 0..59
PAIR = "x1,x2\n" + _rows(_walk(60, 31))
PAIR_ROWS = PAIR.splitlines(keepends=True)
GRID_FILES = {
    "index.csv": "index\n" + _rows(_walk(10, 32)[:, :1]),
    "grid.csv": "n_lat,1\nn_lon,2\nn_time,10\ndt,1.0\nvalues_file,vals.csv\nmask_file,mask.csv\n",
    "vals.csv": "".join(f"{i}.0,{i}.5\n" for i in range(10)),
    "mask.csv": "1,1\n",
}
VALS_ROWS = GRID_FILES["vals.csv"].splitlines(keepends=True)

ANALYZE = ["analyze", "--input", "pair.csv", "--x1", "x1", "--x2", "x2", "--dt", "1",
           "--output", "out.json"]
ABSENT = ["analyze", "--input", "absent.csv", *REF_ARGS, "--output", "out.json"]
BOOT = [*ANALYZE, "--ci", "bootstrap"]
SIMULATE = ["simulate", "--steps", "400", "--out", "out.csv"]
THEORY = ["theory", "--out", "out.csv"]
MAP = ["map", "--index", "index.csv", "--grid-manifest", "grid.csv", "--out-dir", "out"]


def _error(case_id, argv, code, prefix, files=None, env=None):
    """One row of ERRORS: argv run in a directory holding only files (name ->
    text, or bytes as they are), with env set; the exit code and the start
    of stderr."""
    return pytest.param(argv, files or {}, env or {}, code, prefix, id=case_id)


def _not_utf8(name, body: bytes) -> str:
    """The message for the one byte 0xe9 of body, the file name, not being UTF-8."""
    return f"InputError: {name}: byte 0xe9 at offset {body.index(0xE9)} is not UTF-8"


# a bad byte in a comment line at each place an input is decoded: the header,
# a data chunk past the first 2^19 bytes, the row scan after a quoted cell,
# a grid values row, the mask and the simulate config
NOT_UTF8 = {
    "index.csv": b"# caf\xe9\n" + GRID_FILES["index.csv"].encode(),
    "pair.csv": b"x1,x2\n# caf\xe9\n" + "".join(PAIR_ROWS[1:]).encode(),
    "long.csv": "".join(PAIR_ROWS[:1] + PAIR_ROWS[1:] * 300).encode() + b"# caf\xe9\n"
    + "".join(PAIR_ROWS[1:]).encode(),
    "quoted.csv": "".join(PAIR_ROWS[:3] + ['"0.5",0.5\n'] + PAIR_ROWS[3:20]).encode()
    + b"# caf\xe9\n" + "".join(PAIR_ROWS[20:]).encode(),
    "vals.csv": "".join(VALS_ROWS[:6]).encode() + b"6.0,\xe9\n" + "".join(VALS_ROWS[7:]).encode(),
    "mask.csv": b"# caf\xe9\n1,1\n",
    "sim.cfg": b"# r\xe9glage\nsteps=400\n",
}
assert NOT_UTF8["long.csv"].index(0xE9) > 1 << 19


ERRORS = [
    # flags are checked before any input is read: the input here is absent
    *(_error(f"analyze_subsample_{n}", [*ABSENT, "--subsample", n], 2,
             f"InputError: --subsample must be >= 1, got {n}") for n in ("0", "-3")),
    *(_error(f"analyze_alpha_{a}", [*ABSENT, f"--alpha={a}"], 2,
             f"InputError: --alpha must be in (0, 1), got {float(a)}")
      for a in ("0", "1", "-0.5", "nan")),
    *(_error(f"analyze_dt_{dt}", [*ABSENT, f"--dt={dt}"], 2,
             f"InputError: --dt must be a positive finite real, got {float(dt)}")
      for dt in ("0", "-1", "nan", "inf")),
    _error("analyze_dt_times_subsample_overflows", [*ABSENT, "--dt", "1e308", "--subsample", "10"], 2,
           "InputError: --dt times --subsample overflowed: 1e+308 * 10 is not a finite real"),
    _error("analyze_n_boot", [*ABSENT, "--ci", "bootstrap", "--n-boot", "99"], 2,
           "InputError: --n-boot must be >= 100, got 99"),
    _error("analyze_block_len_0", [*ABSENT, "--ci", "bootstrap", "--block-len", "0"], 2,
           "InputError: --block-len must be >= 1, got 0"),
    _error("analyze_detrend_without_star", [*ABSENT, "--detrend-star"], 2,
           "InputError: --detrend-star needs --star-window"),
    _error("analyze_star_bootstrap", [*ABSENT, "--star-window", "5:10", "--ci", "bootstrap"], 2,
           "InputError: bootstrap intervals are not defined for the star variant"),
    _error("analyze_window_malformed", [*ABSENT, "--window", "5-10"], 2,
           "InputError: --window must look like T_START:T_END, got '5-10'"),
    _error("analyze_star_window_malformed", [*ABSENT, "--star-window", "5-10"], 2,
           "InputError: --star-window must look like T_START:T_END, got '5-10'"),
    _error("analyze_window_not_a_number", [*ABSENT, "--window", "5:ten"], 2,
           "InputError: --window: cannot parse '5:ten'"),
    _error("map_alpha", [*MAP, "--alpha", "1.5"], 2, "InputError: --alpha must be in (0, 1), got 1.5"),
    # every input is opened the same way: absent, or not a regular file
    _error("analyze_absent_input", ABSENT, 2,
           "InputError: cannot read absent.csv: [Errno 2] No such file or directory: 'absent.csv'"),
    _error("analyze_input_directory", ["analyze", "--input", ".", *REF_ARGS, "--output", "out.json"],
           2, "InputError: .: not a regular file"),
    # a seed names its source
    _error("analyze_seed", [*BOOT, "--seed", "-5"], 2, "InputError: --seed must be >= 0, got -5",
           {"pair.csv": PAIR}),
    _error("simulate_seed", [*SIMULATE, "--seed", "-5"], 2, "InputError: --seed must be >= 0, got -5"),
    _error("validate_seed", ["validate", "--seed", "-5"], 2, "InputError: --seed must be >= 0, got -5"),
    _error("analyze_env_seed", BOOT, 2, "InputError: INFOFLOW_SEED must be >= 0, got -5",
           {"pair.csv": PAIR}, {"INFOFLOW_SEED": "-5"}),
    _error("simulate_env_seed", SIMULATE, 2, "InputError: INFOFLOW_SEED must be >= 0, got -5",
           env={"INFOFLOW_SEED": "-5"}),
    _error("validate_env_seed", ["validate"], 2, "InputError: INFOFLOW_SEED must be >= 0, got -5",
           env={"INFOFLOW_SEED": "-5"}),
    _error("analyze_env_seed_not_integer", BOOT, 2,
           "InputError: INFOFLOW_SEED must be an integer, got 'abc'",
           {"pair.csv": PAIR}, {"INFOFLOW_SEED": "abc"}),
    _error("simulate_config_seed", [*SIMULATE, "--config", "sim.cfg"], 2,
           "InputError: sim.cfg: seed must be >= 0, got -5", {"sim.cfg": "steps=400\nseed=-5\n"}),
    _error("simulate_config_seed_not_integer", [*SIMULATE, "--config", "sim.cfg"], 2,
           "InputError: sim.cfg: seed must be an integer, got 'abc'",
           {"sim.cfg": "steps=400\nseed=abc\n"}),
    # simulate: lists of reals name their flag, or their config key
    _error("simulate_a_count", [*SIMULATE, "--a", "1,2,3"], 2,
           "InputError: a needs 4 comma-separated reals"),
    _error("simulate_x0_not_a_number", [*SIMULATE, "--x0", "1,two"], 2,
           "InputError: x0: cannot parse '1,two' as reals"),
    _error("simulate_x0_empty_entries", [*SIMULATE, "--x0", "1,,2,"], 2,
           "InputError: x0 has an empty entry in '1,,2,'"),
    _error("simulate_x0_trailing_comma", [*SIMULATE, "--x0", "1,2,"], 2,
           "InputError: x0 has an empty entry"),
    _error("simulate_a_semicolons", [*SIMULATE, "--a=-1;0.5;;0;-1"], 2,
           "InputError: a has an empty entry"),
    _error("simulate_b_blank_entry", [*SIMULATE, "--b", "0.1, "], 2, "InputError: b has an empty entry"),
    _error("simulate_b_negative", [*SIMULATE, "--b=-0.1,0.1"], 2,
           "InputError: b entries must be >= 0, got [-0.1, 0.1]"),
    _error("simulate_a_nan", [*SIMULATE, "--a=nan,0,0,-1"], 2,
           "ValueError: model coefficient a must be finite, got [[nan, 0.0], [0.0, -1.0]]"),
    _error("simulate_f_inf", [*SIMULATE, "--f", "inf,0"], 2,
           "ValueError: model coefficient f must be finite, got [inf, 0.0]"),
    _error("simulate_one_step", ["simulate", "--steps", "1", "--out", "out.csv"], 2,
           "InputError: n_steps must be >= 2, got 1"),
    _error("simulate_config_steps", ["simulate", "--config", "sim.cfg", "--out", "out.csv"], 2,
           "InputError: bad simulate configuration: invalid literal for int() with base 10: 'many'",
           {"sim.cfg": "steps=many\n"}),
    _error("simulate_config_unknown_key", [*SIMULATE, "--config", "sim.cfg"], 2,
           "InputError: sim.cfg: line 1: unknown config key 'z'", {"sim.cfg": "z=1\n"}),
    _error("simulate_config_repeated_key", [*SIMULATE, "--config", "sim.cfg"], 2,
           "InputError: sim.cfg: line 3: repeated config key 'dt'",
           {"sim.cfg": "dt=0.001\nsteps=10\ndt=0.5\n"}),
    _error("simulate_config_no_equals", [*SIMULATE, "--config", "sim.cfg"], 2,
           "InputError: sim.cfg: line 2: expected key=value, got 'steps 400'",
           {"sim.cfg": "# a comment\nsteps 400\n"}),
    _error("simulate_config_absent", [*SIMULATE, "--config", "absent.cfg"], 2,
           "InputError: cannot read absent.cfg: [Errno 2] No such file or directory: 'absent.cfg'"),
    _error("simulate_config_directory", [*SIMULATE, "--config", "."], 2,
           "InputError: .: not a regular file"),
    _error("simulate_config_not_utf8", [*SIMULATE, "--config", "sim.cfg"], 2,
           _not_utf8("sim.cfg", NOT_UTF8["sim.cfg"]), {"sim.cfg": NOT_UTF8["sim.cfg"]}),
    _error("simulate_blows_up", ["simulate", "--a=1000,0,0,1000", "--dt", "1", "--steps", "200",
                                 "--out", "out.csv"], 3,
           "NonFiniteState: path left the finite range at step 103"),
    # analyze: what is known only once the input is read
    _error("analyze_block_len_above_m",
           ["analyze", "--input", "short.csv", *REF_ARGS, "--ci", "bootstrap", "--block-len", "500",
            "--output", "out.json"], 2,
           "InputError: --block-len must be at most m = 199, the aligned length, got 500",
           {"short.csv": "x1,x2\n" + "".join(f"{i % 7},{i % 5}\n" for i in range(200))}),
    _error("analyze_missing_column", ["analyze", "--input", "bad.csv", *REF_ARGS], 2,
           "MissingColumn: bad.csv: column 'x1' not in header ['a', 'b']",
           {"bad.csv": "a,b\n1,2\n3,4\n5,6\n"}),
    _error("analyze_empty_file", ANALYZE, 2, "EmptyFile: pair.csv: no header row", {"pair.csv": ""}),
    _error("analyze_no_data_rows", ANALYZE, 2, "EmptyFile: pair.csv: no data rows",
           {"pair.csv": "# only a header\nx1,x2\n"}),
    _error("analyze_two_rows", ANALYZE, 2, "ValueError: series needs at least 3 points, got 2",
           {"pair.csv": "".join(PAIR_ROWS[:3])}),
    _error("analyze_nan_cell", ANALYZE, 2, "NonFiniteValue: pair.csv: row 3, column 'x2': 'nan'",
           {"pair.csv": "".join(PAIR_ROWS[:3]) + "0.5,nan\n" + "".join(PAIR_ROWS[4:])}),
    _error("analyze_text_cell", ANALYZE, 2, "NonFiniteValue: pair.csv: row 3, column 'x1': 'n/a'",
           {"pair.csv": "".join(PAIR_ROWS[:3]) + "n/a,0.5\n" + "".join(PAIR_ROWS[4:])}),
    _error("analyze_ragged_row", ANALYZE, 2,
           "LengthMismatch: pair.csv: row 3: expected 2 columns, found 3",
           {"pair.csv": "".join(PAIR_ROWS[:3]) + "0.5,0.5,0.5\n" + "".join(PAIR_ROWS[4:])}),
    _error("analyze_not_utf8", ANALYZE, 2, _not_utf8("pair.csv", NOT_UTF8["pair.csv"]),
           {"pair.csv": NOT_UTF8["pair.csv"]}),
    *(_error(f"analyze_not_utf8_{route}", [*ANALYZE[:2], name, *ANALYZE[3:]], 2,
             _not_utf8(name, NOT_UTF8[name]), {name: NOT_UTF8[name]})
      for route, name in (("past_first_chunk", "long.csv"), ("row_scan_after_quote", "quoted.csv"))),
    _error("analyze_subsample_too_coarse", [*ANALYZE, "--subsample", "30"], 2,
           "TooShortAfterSubsample: subsampling by 30 leaves 2 points (need 3)", {"pair.csv": PAIR}),
    _error("analyze_window_outside", [*ANALYZE, "--window", "0:100"], 2,
           "WindowOutOfRange: window [0.0, 100.0] outside series extent [0.0, 59.0]",
           {"pair.csv": PAIR}),
    _error("analyze_window_empty", [*ANALYZE, "--window", "5:5"], 2,
           "WindowOutOfRange: empty window: t_start=5.0, t_end=5.0", {"pair.csv": PAIR}),
    _error("analyze_window_two_samples", [*ANALYZE, "--window", "5:6"], 2,
           "WindowOutOfRange: window [5.0, 6.0] covers fewer than 3 samples", {"pair.csv": PAIR}),
    _error("analyze_star_window_before_window", [*ANALYZE, "--window", "10:40", "--star-window", "5:20"],
           2, "WindowTooShort: star window [5.0, 20.0] does not select >= 3 aligned samples inside "
           "the analyzed window [10.0, 40.0]", {"pair.csv": PAIR}),
    _error("analyze_star_window_after_window", [*ANALYZE, "--window", "0:20", "--star-window", "20:30"],
           2, "WindowTooShort: star window [20.0, 30.0]", {"pair.csv": PAIR}),
    _error("analyze_star_window_constant", [*ANALYZE, "--star-window", "20:30"], 3,
           "DegenerateSeries: star window: degenerate variance: c11=0.0,",
           {"pair.csv": "".join(PAIR_ROWS[:21]) + "".join("5," + row.split(",")[1] for row in PAIR_ROWS[21:41])
            + "".join(PAIR_ROWS[41:])}),
    _error("analyze_star_window_past_window", [*ANALYZE, "--window", "10:40", "--star-window", "30:45"],
           2, "WindowTooShort: star window [30.0, 45.0] does not select >= 3 aligned samples inside "
           "the analyzed window [10.0, 40.0]", {"pair.csv": PAIR}),
    *(_error(f"analyze_constant_column_{ci}", [*ANALYZE, "--ci", ci], 3, "DegenerateSeries: ",
             {"pair.csv": "x1,x2\n" + _rows(np.column_stack(
                 [np.full(51, 0.1), np.cumsum(np.random.default_rng(26).standard_normal(51))]))})
      for ci in ("fisher", "bootstrap")),
    _error("analyze_collinear", ANALYZE, 3, "CollinearSeries: ",
           {"pair.csv": "x1,x2\n" + _rows(np.repeat(np.linspace(0, 1, 32)[:, None], 2, axis=1))}),
    *(_error(f"analyze_bootstrap_gives_up_{first}",
             [*BOOT, "--n-boot", "100", "--block-len", "50", "--seed", "1"], 3,
             "CollinearSeries: 976 of 1000 bootstrap resamples were collinear; giving up",
             {"pair.csv": _give_up_body(first)}) for first in (1.0, 5.0)),
    _error("analyze_noiseless", [*ANALYZE, "--dt", "0.001"], 3,
           "SingularFisher: residual noise estimate b=0.0",
           {"pair.csv": "x1,x2\n" + _rows(_noiseless_path())}),
    # units at the ends of the float range: a covariance that is not finite is named
    *(_error(f"analyze_overflow_{cols}_{ci}", [*ANALYZE, "--ci", ci], 3,
             f"DegenerateSeries: covariances not finite: c11=inf, {named}",
             {"pair.csv": "x1,x2\n" + _rows(_walk(60, 31) * scale)})
      for cols, scale, named in (("x1", [1e160, 1.0], "c1d1=nan, c_d1d1=inf, det=nan"),
                                 ("both", 1e160, "c12=nan, c22=inf"))
      for ci in ("fisher", "bootstrap")),
    # dt * (m-1) * det underflows to 0.0: the standard errors are not finite
    _error("analyze_se_underflow", [*ANALYZE, "--dt", "1e-150"], 3,
           "DegenerateSeries: standard errors not finite: se21=inf, se12=inf",
           {"pair.csv": "x1,x2\n" + _rows(_walk(200, 33) * 1e-60)}),
    _error("analyze_dt_underflow", [*ANALYZE, "--dt", "1e-320"], 3,
           "DegenerateSeries: covariances not finite: c1d1=nan, c2d1=nan, c1d2=nan, c2d2=nan, "
           "c_d1d1=nan, c_d2d2=nan", {"pair.csv": PAIR}),
    # theory
    _error("theory_t_end_inf", [*THEORY, "--t-end", "inf"], 2,
           "ValueError: t_end and dt must be finite and dt positive, got inf, 0.001"),
    _error("theory_mu0_nan", [*THEORY, "--mu0", "nan,1"], 2,
           "ValueError: moments and time must be finite, got [nan, 1.0], [[0.1, 0.0], [0.0, 0.1]], "
           "t=0.0"),
    _error("theory_sigma0_not_psd", [*THEORY, "--sigma0", "0.1,0.5,0.1"], 2,
           "ValueError: sigma must be symmetric positive semidefinite, got [[0.1, 0.5], [0.5, 0.1]]"),
    _error("theory_sigma0_negative_variance", [*THEORY, "--sigma0=-0.1,0,0.1"], 2,
           "ValueError: sigma must be symmetric positive semidefinite, got [[-0.1, 0.0], [0.0, 0.1]]"),
    _error("theory_no_step", [*THEORY, "--dt", "0.02", "--t-end", "0.01"], 2,
           "ValueError: no step of dt=0.02 fits from the initial time 0.0 to 0.01"),
    _error("theory_mu0_trailing_comma", [*THEORY, "--mu0", "1,2,"], 2,
           "InputError: --mu0 has an empty entry in '1,2,'"),
    _error("theory_a_empty_entry", [*THEORY, "--a=-1,0.5,,0,-1"], 2,
           "InputError: --a has an empty entry"),
    _error("theory_sigma0_empty_entry", [*THEORY, "--sigma0", "0.1,,0,0.1"], 2,
           "InputError: --sigma0 has an empty entry"),
    _error("theory_b_negative", [*THEORY, "--b=-0.1,0.1"], 2,
           "InputError: --b entries must be >= 0, got [-0.1, 0.1]"),
    _error("theory_f_nan", [*THEORY, "--f", "nan,0"], 2,
           "ValueError: model coefficient f must be finite, got [nan, 0.0]"),
    _error("theory_not_hurwitz", [*THEORY, "--a", "1,0,0,-1"], 3,
           "NotHurwitz: drift matrix [[1.0, 0.0], [0.0, -1.0]] is not Hurwitz; no stationary state"),
    # a step far too coarse for RK4: the moments overflow to inf and then NaN
    _error("theory_blows_up", [*THEORY, "--a=-100,0,0,-100", "--dt", "1", "--t-end", "400"], 3,
           "NonFiniteState: moments are not finite from t="),
    # a coarse step on a rotating model: a variance goes negative first
    _error("theory_negative_variance", [*THEORY, "--a=-1,5,-5,-1", "--dt", "0.5", "--t-end", "400"], 3,
           "NonPositiveVariance: variance went negative at t=7.5: "),
    _error("theory_zero_initial_variance", [*THEORY, "--sigma0", "0,0,0"], 3,
           "DegenerateVariance: variances must be positive, got s11=0.0, s22=0.0"),
    # map
    _error("map_grid_manifest_absent", MAP, 2,
           "InputError: cannot read grid.csv: [Errno 2] No such file or directory: 'grid.csv'",
           {k: v for k, v in GRID_FILES.items() if k != "grid.csv"}),
    _error("map_grid_manifest_directory", [*MAP[:3], "--grid-manifest", ".", *MAP[5:]], 2,
           "InputError: .: not a regular file", GRID_FILES),
    _error("map_values_absent", MAP, 2, "InputError: cannot read vals.csv: [Errno 2] "
           "No such file or directory: 'vals.csv'",
           {k: v for k, v in GRID_FILES.items() if k != "vals.csv"}),
    _error("map_values_directory", MAP, 2, "InputError: .: not a regular file",
           {**GRID_FILES, "grid.csv": GRID_FILES["grid.csv"].replace("vals.csv", ".")}),
    _error("map_mask_absent", MAP, 2, "InputError: cannot read mask.csv: [Errno 2] "
           "No such file or directory: 'mask.csv'",
           {k: v for k, v in GRID_FILES.items() if k != "mask.csv"}),
    _error("map_mask_directory", MAP, 2, "InputError: .: not a regular file",
           {**GRID_FILES, "grid.csv": GRID_FILES["grid.csv"].replace("mask.csv", ".")}),
    _error("map_index_absent", MAP, 2,
           "InputError: cannot read index.csv: [Errno 2] No such file or directory: 'index.csv'",
           {k: v for k, v in GRID_FILES.items() if k != "index.csv"}),
    _error("map_index_directory", ["map", "--index", ".", *MAP[3:]], 2,
           "InputError: .: not a regular file", GRID_FILES),
    _error("map_manifest_missing_key", MAP, 2, "GridFormatError: grid.csv: manifest is missing key 'dt'",
           {**GRID_FILES, "grid.csv": GRID_FILES["grid.csv"].replace("dt,1.0\n", "")}),
    _error("map_manifest_bad_value", MAP, 2,
           "GridFormatError: grid.csv: bad manifest value: invalid literal for int() with base 10: 'x'",
           {**GRID_FILES, "grid.csv": GRID_FILES["grid.csv"].replace("n_lat,1", "n_lat,x")}),
    _error("map_manifest_malformed_row", MAP, 2,
           "GridFormatError: grid.csv: malformed manifest row ['n_lat']",
           {**GRID_FILES, "grid.csv": "n_lat\n" + GRID_FILES["grid.csv"]}),
    _error("map_manifest_row_too_long", MAP, 2,
           "GridFormatError: grid.csv: malformed manifest row ['n_lat', '1', 'junk']",
           {**GRID_FILES, "grid.csv": GRID_FILES["grid.csv"].replace("n_lat,1", "n_lat,1,junk")}),
    _error("map_manifest_repeated_key", MAP, 2, "GridFormatError: grid.csv: repeated manifest key 'dt'",
           {**GRID_FILES, "grid.csv": GRID_FILES["grid.csv"] + "dt,2.0\n"}),
    _error("map_manifest_unknown_key", MAP, 2,
           "GridFormatError: grid.csv: unknown manifest key 'bogus_key'",
           {**GRID_FILES, "grid.csv": GRID_FILES["grid.csv"] + "bogus_key,1\n"}),
    # grid sizes, n_time and dt are checked before the mask is read
    _error("map_manifest_dt_negative", MAP, 2,
           "GridFormatError: grid.csv: bad manifest value: dt must be a positive finite real, got -1.0",
           {**GRID_FILES, "grid.csv": GRID_FILES["grid.csv"].replace("dt,1.0", "dt,-1")}),
    _error("map_manifest_n_time_2", MAP, 2,
           "GridFormatError: grid.csv: bad manifest value: field needs at least 3 time steps, got 2",
           {**GRID_FILES, "grid.csv": GRID_FILES["grid.csv"].replace("n_time,10", "n_time,2"),
            "vals.csv": "".join(VALS_ROWS[:2])}),
    *(_error(f"map_manifest_size_{case_id}", MAP, 2,
             f"GridFormatError: grid.csv: bad manifest value: n_lat and n_lon must be >= 1, got {got}",
             {**GRID_FILES, "grid.csv": GRID_FILES["grid.csv"].replace("n_lat,1\nn_lon,2", sizes)})
      for case_id, sizes, got in (("negative_lat", "n_lat,-1\nn_lon,2", "-1 and 2"),
                                  ("both_negative", "n_lat,-1\nn_lon,-2", "-1 and -2"),
                                  ("zero_lon", "n_lat,1\nn_lon,0", "1 and 0"))),
    _error("map_values_text_cell", MAP, 2, "NonFiniteValue: vals.csv: row 7, column 1: 'abc'",
           {**GRID_FILES, "vals.csv": "".join(VALS_ROWS[:6]) + "6.0,abc\n" + "".join(VALS_ROWS[7:])}),
    _error("map_values_short_row", MAP, 2,
           "LengthMismatch: vals.csv: row 7: expected 2 columns, found 1",
           {**GRID_FILES, "vals.csv": "".join(VALS_ROWS[:6]) + "6.0\n" + "".join(VALS_ROWS[7:])}),
    _error("map_values_row_count", MAP, 2, "GridFormatError: vals.csv: expected 10 rows, found 9",
           {**GRID_FILES, "vals.csv": "".join(VALS_ROWS[:9])}),
    _error("map_values_unmasked_nan", MAP, 2, "NonFiniteValue: vals.csv: row 7, column 1: 'nan'",
           {**GRID_FILES, "vals.csv": "".join(VALS_ROWS[:6]) + "6.0,nan\n" + "".join(VALS_ROWS[7:])}),
    _error("map_mask_flag", MAP, 2,
           "GridFormatError: mask.csv: mask row 1: flag '2' is not 0 or 1",
           {**GRID_FILES, "mask.csv": "1,2\n"}),
    # the first problem in file order: an unmasked nan in row 3 before a text cell
    _error("map_values_unmasked_nan_first", MAP, 2, "NonFiniteValue: vals.csv: row 3, column 1: 'nan'",
           {**GRID_FILES, "vals.csv": "".join(VALS_ROWS[:2]) + "2.0,nan\n" + "".join(VALS_ROWS[3:7])
            + "7.0,abc\n" + "".join(VALS_ROWS[8:])}),
    # the mask is read before the values
    _error("map_mask_flag_before_bad_values", MAP, 2,
           "GridFormatError: mask.csv: mask row 1: flag '2' is not 0 or 1",
           {**GRID_FILES, "mask.csv": "1,2\n", "vals.csv": "abc\n"}),
    _error("map_mask_shape", MAP, 2, "GridFormatError: mask.csv: mask file must be 1 rows of 2 flags",
           {**GRID_FILES, "mask.csv": "1\n"}),
    _error("map_index_column", [*MAP, "--index-col", "dmi"], 2,
           "MissingColumn: index.csv: column 'dmi' not in header ['index']", GRID_FILES),
    _error("map_index_nan", MAP, 2, "NonFiniteValue: index.csv: row 2, column 'index': 'nan'",
           {**GRID_FILES, "index.csv": "index\n1.0\nnan\n" + "".join(f"{i}.25\n" for i in range(8))}),
    _error("map_index_length", MAP, 2, "LengthMismatch: series lengths differ: 9 vs 10",
           {**GRID_FILES, "index.csv": "".join(GRID_FILES["index.csv"].splitlines(keepends=True)[:10])}),
    *(_error(f"map_{name.split('.')[0]}_not_utf8", MAP, 2,
             _not_utf8(name, NOT_UTF8[name]),
             {**GRID_FILES, name: NOT_UTF8[name]}) for name in ("index.csv", "vals.csv", "mask.csv")),
    # an output that cannot be written is named, as an input that cannot be read is
    _error("analyze_output_unwritable", [*ANALYZE, "--output", "nodir/out.json"], 2,
           "InputError: cannot write nodir/out.json: [Errno 2] No such file or directory: "
           "'nodir/out.json'", {"pair.csv": PAIR}),
    _error("simulate_out_unwritable", [*SIMULATE, "--out", "nodir/out.csv"], 2,
           "InputError: cannot write nodir/out.csv: [Errno 2] No such file or directory: "
           "'nodir/out.csv'"),
    _error("theory_out_unwritable", [*THEORY, "--out", "nodir/out.csv"], 2,
           "InputError: cannot write nodir/out.csv: [Errno 2] No such file or directory: "
           "'nodir/out.csv'"),
    _error("map_out_dir_under_file", [*MAP, "--out-dir", "index.csv/out"], 2,
           "InputError: cannot write index.csv/out: [Errno 20] Not a directory: 'index.csv/out'",
           GRID_FILES),
    # and found before any input is read: here every input is absent
    _error("analyze_absent_input_unwritable_output", [*ABSENT, "--output", "nodir/out.json"], 2,
           "InputError: cannot write nodir/out.json: [Errno 2] No such file or directory: "
           "'nodir/out.json'"),
    _error("simulate_absent_config_unwritable_out",
           [*SIMULATE, "--config", "absent.cfg", "--out", "blocker/out.csv"], 2,
           "InputError: cannot write blocker/out.csv: [Errno 20] Not a directory: 'blocker/out.csv'",
           {"blocker": "a regular file"}),
    _error("map_absent_inputs_out_dir_under_file", [*MAP, "--out-dir", "blocker/a/b"], 2,
           "InputError: cannot write blocker/a/b: [Errno 20] Not a directory: 'blocker/a/b'",
           {"blocker": "a regular file"}),
]


class TestErrors:
    """Each way a command fails: its exit code and message, nothing on stdout
    and no output written.

    Every error class in infoflow.errors that the CLI can raise has a row,
    bar DtMismatch: analyze gives both series --dt, and map gives the index
    the grid's dt.
    """

    @pytest.mark.parametrize("argv, files, env, code, prefix", ERRORS)
    def test_exit_code_and_message(self, capsys, tmp_path, monkeypatch, argv, files, env, code, prefix):
        for name, body in files.items():
            (tmp_path / name).write_bytes(body if isinstance(body, bytes) else body.encode("utf-8"))
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("INFOFLOW_SEED", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(prefix), captured.err
        assert len(captured.err.splitlines()) == 1, captured.err
        assert captured.out == ""
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)


@contextlib.contextmanager
def piped(text):
    """A /dev/fd path to the read end of a pipe that holds text and whose
    write end is closed, so that no read of it can block."""
    read, write = os.pipe()
    try:
        with open(write, "w") as fh:  # text fits in the pipe's buffer
            fh.write(text)
        yield f"/dev/fd/{read}"
    finally:
        os.close(read)


def _cli(argv, cwd, env=None, **kwargs):
    """Run `python -m infoflow.cli argv` on this checkout's package in cwd."""
    src = os.path.dirname(os.path.dirname(infoflow.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-m", "infoflow.cli", *argv], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path, **(env or {})},
                          capture_output=True, **kwargs)


class TestPipedInput:
    """A pipe given as an input exits 2 before any output is written: it
    cannot be read in byte ranges, and its digest would be that of whatever
    the first read left in it."""

    # each kind of input, the one file of (argv, name) that is a named FIFO
    FIFOS = {
        "analyze_input": (ANALYZE, "pair.csv"),
        "map_index": (MAP, "index.csv"),
        "map_grid_manifest": (MAP, "grid.csv"),
        "map_values": (MAP, "vals.csv"),
        "map_mask": (MAP, "mask.csv"),
        "simulate_config": ([*SIMULATE, "--config", "sim.cfg"], "sim.cfg"),
    }

    @pytest.mark.parametrize("kind", sorted(FIFOS))
    def test_named_fifo_without_writer(self, tmp_path, kind):
        # an open() of the FIFO would wait for a writer: the timeout fails the test
        argv, name = self.FIFOS[kind]
        inputs = {**GRID_FILES, "pair.csv": PAIR, "sim.cfg": "steps=400\n"}
        for file_name, text in inputs.items():
            if file_name != name:
                (tmp_path / file_name).write_text(text)
        os.mkfifo(tmp_path / name)
        proc = _cli(argv, tmp_path, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"InputError: {name}: not a regular file\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(inputs)

    def test_analyze_input(self, capsys, tmp_path):
        out = tmp_path / "flow.json"
        body = "x1,x2\n" + "".join(f"{np.sin(i):.17g},{np.cos(3 * i):.17g}\n" for i in range(50))
        with piped(body) as path:
            rc = main(["analyze", "--input", path, *REF_ARGS, "--output", str(out)])
        assert rc == 2
        assert f"InputError: {path}: not a regular file" in capsys.readouterr().err
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("which", ["index", "manifest", "mask"])
    def test_map_inputs(self, capsys, tmp_path, which):
        manifest = TestMap()._write_single_cell_grid(tmp_path, np.sin(np.arange(50)), 1.0)
        index_csv = tmp_path / "index.csv"
        index_csv.write_text("index\n" + "".join(f"{np.cos(i):.17g}\n" for i in range(50)))
        grid_csv = tmp_path / "grid.csv"
        body = {"index": index_csv.read_text(), "manifest": grid_csv.read_text(), "mask": "1\n"}
        out_dir = tmp_path / "maps"
        with piped(body[which]) as path:
            if which == "mask":
                grid_csv.write_text(body["manifest"].replace("mask.csv", path))
            rc = main(["map", "--index", path if which == "index" else str(index_csv),
                       "--grid-manifest", path if which == "manifest" else manifest,
                       "--out-dir", str(out_dir)])
        assert rc == 2
        assert f"InputError: {path}: not a regular file" in capsys.readouterr().err
        assert not out_dir.exists()
        assert_no_child_left()

    def test_simulate_config(self, capsys, tmp_path):
        out = tmp_path / "path.csv"
        with piped("dt=0.01\nsteps=400\nseed=5\n") as path:
            rc = main(["simulate", "--config", path, "--out", str(out)])
        assert rc == 2
        assert f"InputError: {path}: not a regular file" in capsys.readouterr().err
        assert not out.exists()
        assert_no_child_left()


# A C locale with neither UTF-8 mode nor locale coercion: there, Python's
# default text encoding is ASCII.
C_LOCALE = {"PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}


class TestLocale:
    """Every input is read as UTF-8, so the locale changes no output byte."""

    # the commands' inputs, each with a comment line of non-ASCII characters
    INPUTS = {
        "pair.csv": "x1,x2\n# café µ\n"
                    + "".join(f"{np.sin(i):.17g},{np.cos(3 * i):.17g}\n" for i in range(200)),
        "sim.cfg": "# réglage °C\ndt=0.01\nsteps=400\nseed=5\n",
        "index.csv": "index\n" + "".join(f"{np.cos(i):.17g}\n" for i in range(50)),
        "grid.csv": "# grille µ\nn_lat,1\nn_lon,2\nn_time,50\ndt,1.0\n"
                    "values_file,vals.csv\nmask_file,mask.csv\n",
        "vals.csv": "# température\n" + "".join(f"{np.sin(i):.17g},{i % 7}\n" for i in range(50)),
        "mask.csv": "# masque é\n1,1\n",
    }
    # inputs with non-ASCII names, which the manifests record; the output
    # paths stay ASCII, since stderr echoes them
    INPUTS["données.csv"] = INPUTS["pair.csv"]
    # steps in full-width digits, which int() reads and the C locale cannot encode
    INPUTS["réglage.cfg"] = INPUTS["sim.cfg"].replace("steps=400", "steps=４００")
    INPUTS["índice.csv"] = INPUTS["index.csv"]
    COMMANDS = {
        "analyze": ["analyze", "--input", "pair.csv", *REF_ARGS, "--output", "out/flow.json"],
        "map": ["map", "--index", "index.csv", "--grid-manifest", "grid.csv", "--out-dir", "out"],
        "simulate_config": ["simulate", "--config", "sim.cfg", "--out", "out/path.csv"],
        "analyze_utf8_name": ["analyze", "--input", "données.csv", *REF_ARGS,
                              "--output", "out/flow.json"],
        "map_utf8_name": ["map", "--index", "índice.csv", "--grid-manifest", "grid.csv",
                          "--out-dir", "out"],
        "simulate_config_utf8_name": ["simulate", "--config", "réglage.cfg", "--out", "out/path.csv"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_output_bytes_do_not_depend_on_the_locale(self, tmp_path, command):
        for name, text in self.INPUTS.items():
            (tmp_path / name).write_bytes(text.encode("utf-8"))
        runs = []
        for extra in ({}, C_LOCALE):
            out = tmp_path / "out"
            out.mkdir()
            proc = _cli(self.COMMANDS[command], tmp_path, extra)
            written = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            runs.append((proc.returncode, proc.stdout, proc.stderr, written))
            shutil.rmtree(out)
        assert runs[0][0] == 0 and runs[0][3], runs[0][2]
        assert runs[1] == runs[0]


class TestValidate:
    def test_default_seed_passes_all_bands(self, capsys):
        rc = main(["validate"])
        captured = capsys.readouterr()
        assert rc == 0, captured.out
        assert "all bands pass" in captured.err
        assert captured.out.splitlines()[0].startswith("# manifest: ")

    def test_failed_band_exits_1(self, capsys, monkeypatch):
        rows = [
            CheckRow("inside", 0.5, 0.5, 0.0, 1.0, True),
            CheckRow("outside", 2.0, 0.5, 0.0, 1.0, False),
            CheckRow("informational", 0.3),
        ]
        monkeypatch.setattr(cli, "run_validation", lambda seed: rows)
        rc = main(["validate"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "1 band(s) failed: outside" in captured.err

    def test_band_scale_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--band-scale", "0"])
        assert exc.value.code == 2
        assert "--band-scale" in capsys.readouterr().err

    def test_second_fixture_seed_passes(self, capsys):
        rc = main(["validate", "--seed", "248"])
        capsys.readouterr()
        assert rc == 0

    def test_rows_do_not_depend_on_the_fork(self, monkeypatch):
        # the second system in a forked child, here on one CPU, here without
        # os.fork, here when the fork fails, and here when the child dies
        # before or while it sends: the same rows, of the same types
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        seed = FIXTURE_SEEDS[1]
        expected = repr(validate.run_table1(seed) + validate.run_second_system(seed))
        assert repr(validate.run_validation(seed)) == expected
        send = validate._send_message

        def dies_while_sending(fd, parts):
            read, write = os.pipe()
            send(write, parts)  # a few hundred bytes: they fit in the pipe's buffer
            os.write(fd, os.read(read, 20))
            os._exit(1)

        def fork_fails():
            raise OSError("no fork")

        for patch in (
            lambda p: p.setattr(os, "sched_getaffinity", lambda pid: {0}),
            lambda p: p.delattr(os, "fork"),
            lambda p: p.setattr(os, "fork", fork_fails),
            lambda p: p.setattr(validate, "_send_message", lambda fd, parts: os._exit(1)),
            lambda p: p.setattr(validate, "_send_message", dies_while_sending),
        ):
            with monkeypatch.context() as patched:
                patch(patched)
                assert repr(validate.run_validation(seed)) == expected
            assert_no_child_left()

    def test_error_of_the_second_system_is_raised_here(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pids = []

        def second_system(seed):
            pids.append(os.getpid())
            raise NonFiniteState("path left the finite range at step 7", step=7)

        monkeypatch.setattr(validate, "run_second_system", second_system)
        with pytest.raises(NonFiniteState, match="step 7"):
            validate.run_validation(FIXTURE_SEEDS[0])
        assert pids == [os.getpid()]  # the child's call is not seen here
        assert_no_child_left()
        # a matrix that raises ends the child as well
        monkeypatch.setattr(validate, "run_table1", second_system)
        with pytest.raises(NonFiniteState):
            validate.run_validation(FIXTURE_SEEDS[0])
        assert_no_child_left()


def subcommands() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser, as build_parser declares it."""
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def parser_destinations(command: str) -> set[str]:
    """The destinations of a subcommand's flags, as build_parser declares them."""
    return {a.dest for a in subcommands()[command]._actions if a.dest != "help"}


class TestManifestParameters:
    """Each manifest records every flag its command parses, bar the output path,
    so a flag added to the parser cannot be left out of the record."""

    def test_keys_are_the_parsed_flags(self, capsys, path_csv, tmp_path, monkeypatch):
        manifests = {}
        assert main(["analyze", "--input", path_csv, *REF_ARGS, "--window", "1:3"]) == 0
        manifests["analyze"] = json.loads(capsys.readouterr().out)["manifest"]
        assert main(["theory", "--t-end", "0.1", "--out", "-"]) == 0
        manifests["theory"] = json.loads(capsys.readouterr().err.splitlines()[-1])["manifest"]
        grid = TestMap()._write_single_cell_grid(tmp_path, np.sin(np.arange(50)), 1.0)
        index_csv = tmp_path / "index.csv"
        index_csv.write_text("index\n" + "\n".join(f"{np.cos(i):.17g}" for i in range(50)) + "\n")
        argv = ["map", "--index", str(index_csv), "--grid-manifest", grid, "--out-dir"]
        assert main([*argv, str(tmp_path / "maps")]) == 0
        capsys.readouterr()
        first = (tmp_path / "maps" / "flow_index_to_field.csv").read_text().splitlines()[0]
        manifests["map"] = json.loads(first.removeprefix("# manifest: "))
        monkeypatch.setattr(cli, "run_validation", lambda seed: [])
        assert main(["validate"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        manifests["validate"] = json.loads(first.removeprefix("# manifest: "))
        assert main(["simulate", "--steps", "10", "--out", "-"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        manifests["simulate"] = json.loads(first.removeprefix("# manifest: "))

        outputs = {"analyze": {"output"}, "theory": {"out"}, "map": {"out_dir"}, "validate": set(),
                   "simulate": {"out"}}
        assert sorted(manifests) == sorted(subcommands())
        for command, manifest in manifests.items():
            assert manifest["command"] == command
            assert set(manifest["parameters"]) == parser_destinations(command) - outputs[command]

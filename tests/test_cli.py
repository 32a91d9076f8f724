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
    integrate_moments,
    load_csv,
    reference_model,
    simulate,
)
from infoflow.cli import main
from infoflow.validate import CheckRow

from conftest import assert_no_child_left

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

    def test_star_window_not_covered_is_input_error(self, capsys, path_csv):
        rc, captured = run_analyze(
            capsys, path_csv, "--window", "0:5", "--star-window", "5:10"
        )
        assert rc == 2
        assert "WindowTooShort" in captured.err

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

    @pytest.mark.parametrize("first", [1.0, 5.0])
    def test_bootstrap_give_up_exit_code(self, capsys, tmp_path, first):
        # x1 varies only on its first row: 976 of the 1000 draws allowed for
        # 100 resamples are degenerate
        rng = np.random.default_rng(24)
        x2 = np.cumsum(rng.standard_normal(101))
        path = tmp_path / "degenerate.csv"
        rows = "\n".join(f"{first if i == 0 else 0.0},{v:.17g}" for i, v in enumerate(x2))
        path.write_text("x1,x2\n" + rows + "\n")
        extra = ["--ci", "bootstrap", "--n-boot", "100", "--block-len", "50", "--seed", "1"]
        rc, captured = run_analyze(capsys, str(path), *extra)
        assert rc == 3
        assert captured.out == ""
        assert "CollinearSeries" in captured.err
        assert "976 of 1000 bootstrap resamples were collinear" in captured.err

    def test_bootstrap_with_star_rejected(self, capsys, path_csv):
        rc, captured = run_analyze(
            capsys, path_csv, "--window", "0:10", "--star-window", "5:10", "--ci", "bootstrap"
        )
        assert rc == 2
        assert "bootstrap" in captured.err

    def test_detrend_star_without_star_window_rejected(self, capsys, path_csv, tmp_path):
        # --detrend-star acts only on a star slab; alone it must not pass as
        # a stationary run whose manifest claims detrending
        rc, captured = run_analyze(capsys, path_csv, "--window", "0:10", "--detrend-star")
        assert rc == 2
        assert captured.out == ""
        assert "InputError" in captured.err and "--star-window" in captured.err
        # flag conflicts and malformed windows are reported before the input
        # file is read
        absent = str(tmp_path / "absent.csv")
        for extra, word in (
            (["--detrend-star"], "--detrend-star"),
            (["--star-window", "5:10", "--ci", "bootstrap"], "bootstrap"),
            (["--window", "5-10"], "--window"),
            (["--star-window", "5-10"], "--star-window"),
        ):
            rc, captured = run_analyze(capsys, absent, *extra)
            assert rc == 2
            assert word in captured.err and "FileNotFoundError" not in captured.err

    @pytest.mark.parametrize("ci", ["fisher", "bootstrap"])
    def test_constant_column_exit_code(self, capsys, tmp_path, ci):
        rng = np.random.default_rng(26)
        x2 = np.cumsum(rng.standard_normal(51))
        path = tmp_path / "constant.csv"
        path.write_text("x1,x2\n" + "\n".join(f"0.1,{v:.17g}" for v in x2) + "\n")
        rc, captured = run_analyze(capsys, str(path), "--ci", ci)
        assert rc == 3
        assert captured.out == ""
        assert "DegenerateSeries" in captured.err

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

    def test_collinear_input_exit_code(self, capsys, tmp_path):
        path = tmp_path / "collinear.csv"
        rows = "\n".join(f"{v},{v}" for v in np.linspace(0, 1, 32))
        path.write_text("x1,x2\n" + rows + "\n")
        rc, captured = run_analyze(capsys, str(path))
        assert rc == 3
        assert "CollinearSeries" in captured.err

    def test_missing_column_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        rc, captured = run_analyze(capsys, str(path))
        assert rc == 2

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

    def test_bad_flag_exit_code(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        cases = [
            (["--a", "1,2,3"], "InputError: a needs 4 comma-separated reals"),
            (["--x0", "1,,2,"], "InputError: x0 has an empty entry in '1,,2,'"),
            (["--x0", "1,2,"], "InputError: x0 has an empty entry"),
            (["--a=-1;0.5;;0;-1"], "InputError: a has an empty entry"),
            (["--b", "0.1, "], "InputError: b has an empty entry"),
            (["--b=-0.1,0.1"], "InputError: b entries must be >= 0, got [-0.1, 0.1]"),
            (
                ["--a=nan,0,0,-1"],
                "ValueError: model coefficient a must be finite, got [[nan, 0.0], [0.0, -1.0]]",
            ),
            (["--f", "inf,0"], "ValueError: model coefficient f must be finite, got [inf, 0.0]"),
        ]
        cases = [(["simulate", *flags, "--out", str(out)], message) for flags, message in cases]
        # analyze and map reject a bad flag before they read their input, so
        # the flag's error wins over the absent file's
        absent = str(tmp_path / "absent.csv")
        analyze = ["analyze", "--input", absent, *REF_ARGS, "--output", str(out)]
        boot = [*analyze, "--ci", "bootstrap"]
        cases += [
            ([*analyze, "--subsample", n], f"InputError: --subsample must be >= 1, got {n}")
            for n in ("0", "-3")
        ]
        cases += [
            ([*analyze, "--alpha", a], f"InputError: --alpha must be in (0, 1), got {float(a)}")
            for a in ("0", "1", "-0.5", "nan")
        ]
        cases += [
            ([*boot, "--n-boot", "99"], "InputError: --n-boot must be >= 100, got 99"),
            ([*boot, "--block-len", "0"], "InputError: --block-len must be >= 1, got 0"),
            (
                ["map", "--index", absent, "--grid-manifest", absent, "--out-dir", str(out),
                 "--alpha", "1.5"],
                "InputError: --alpha must be in (0, 1), got 1.5",
            ),
        ]
        # a block longer than the aligned sample is known only once it is read
        short = tmp_path / "short.csv"
        short.write_text("x1,x2\n" + "".join(f"{i % 7},{i % 5}\n" for i in range(200)))
        cases.append(
            (
                ["analyze", "--input", str(short), *REF_ARGS, "--ci", "bootstrap",
                 "--block-len", "500", "--output", str(out)],
                "InputError: --block-len must be at most m = 199, the aligned length, got 500",
            )
        )
        for argv, message in cases:
            rc = main(argv)
            assert rc == 2
            assert capsys.readouterr().err.startswith(message)
            assert not out.exists()

    def test_negative_seed_names_its_source(self, tmp_path, capsys, path_csv, monkeypatch):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("steps=400\nseed=-5\n")
        out = tmp_path / "out.csv"
        boot = ["analyze", "--input", path_csv, *REF_ARGS, "--ci", "bootstrap", "--output", str(out)]
        simulate = ["simulate", "--steps", "400", "--out", str(out)]
        cases = [
            (None, [*boot, "--seed", "-5"], "InputError: --seed must be >= 0, got -5"),
            (None, [*simulate, "--seed", "-5"], "InputError: --seed must be >= 0, got -5"),
            (None, ["validate", "--seed", "-5"], "InputError: --seed must be >= 0, got -5"),
            ("-5", boot, "InputError: INFOFLOW_SEED must be >= 0, got -5"),
            ("-5", simulate, "InputError: INFOFLOW_SEED must be >= 0, got -5"),
            ("-5", ["validate"], "InputError: INFOFLOW_SEED must be >= 0, got -5"),
            (None, [*simulate, "--config", str(cfg)], f"InputError: {cfg}: seed must be >= 0, got -5"),
        ]
        for env, argv, message in cases:
            if env is None:
                monkeypatch.delenv("INFOFLOW_SEED", raising=False)
            else:
                monkeypatch.setenv("INFOFLOW_SEED", env)
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(message), argv
            assert captured.out == "" and not out.exists()

    def test_bad_config_seed_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("steps=400\nseed=abc\n")
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"InputError: {cfg}: seed must be an integer, got 'abc'")
        assert not out.exists()

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

    def test_unstable_model_exit_code(self, capsys):
        rc = main(["theory", "--a", "1,0,0,-1"])
        assert rc == 3
        assert "NotHurwitz" in capsys.readouterr().err

    def test_blown_up_integration_exit_code(self, capsys, tmp_path):
        # a stable model whose step is far too coarse for RK4: the moments
        # overflow to inf and then NaN
        out = tmp_path / "traj.csv"
        rc = main(["theory", "--a=-100,0,0,-100", "--dt", "1", "--t-end", "400", "--out", str(out)])
        assert rc == 3
        assert "NonFiniteState: moments are not finite from t=" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--t-end", "inf"], "ValueError"),
            (["--mu0", "nan,1"], "ValueError"),
            (["--sigma0", "0.1,0.5,0.1"], "ValueError"),
            (["--sigma0=-0.1,0,0.1"], "ValueError"),
            (["--dt", "0.02", "--t-end", "0.01"], "ValueError"),
            (["--mu0", "1,2,"], "InputError: --mu0 has an empty entry"),
            (["--a=-1,0.5,,0,-1"], "InputError: --a has an empty entry"),
            (["--sigma0", "0.1,,0,0.1"], "InputError: --sigma0 has an empty entry"),
            (["--b=-0.1,0.1"], "InputError: --b entries must be >= 0, got [-0.1, 0.1]"),
            (["--f", "nan,0"], "ValueError: model coefficient f must be finite, got [nan, 0.0]"),
        ],
        ids=[
            "t_end_inf",
            "mu0_nan",
            "sigma0_not_psd",
            "sigma0_negative_variance",
            "no_step",
            "mu0_trailing_comma",
            "a_empty_entry",
            "sigma0_empty_entry",
            "b_negative",
            "f_nan",
        ],
    )
    def test_bad_input_exit_code(self, capsys, tmp_path, flags, error):
        out = tmp_path / "traj.csv"
        rc = main(["theory", *flags, "--out", str(out)])
        assert rc == 2
        assert error in capsys.readouterr().err
        assert not out.exists()


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

    def test_missing_mask_file_exit_code(self, capsys, tmp_path):
        manifest = self._write_single_cell_grid(tmp_path, np.arange(10.0), 1.0)
        (tmp_path / "mask.csv").unlink()
        index_csv = tmp_path / "index.csv"
        index_csv.write_text("index\n" + "\n".join(str(float(i)) for i in range(10)) + "\n")
        argv = ["map", "--index", str(index_csv), "--index-col", "index",
                "--grid-manifest", manifest, "--out-dir", str(tmp_path / "o")]
        rc = main(argv)
        assert rc == 2
        capsys.readouterr()

        # malformed values files exit 2 as well, with the loader's message
        (tmp_path / "grid.csv").write_text(
            "n_lat,1\nn_lon,2\nn_time,10\ndt,1.0\nvalues_file,vals.csv\n"
        )
        good = [f"{i}.0,{i}.5" for i in range(10)]
        broken = {
            "row 7: non-numeric cell: could not convert string to float: 'abc'":
                good[:6] + ["6.0,abc"] + good[7:],
            "row 7: expected 2 columns, found 1": good[:6] + ["6.0"] + good[7:],
            "expected 10 rows, found 9": good[:9],
        }
        for message, rows in broken.items():
            (tmp_path / "vals.csv").write_text("\n".join(rows) + "\n")
            assert main(argv) == 2
            assert f"GridFormatError: {tmp_path / 'vals.csv'}: {message}" in capsys.readouterr().err


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


class TestPipedInput:
    """A pipe given as an input exits 2 before any output is written: it
    cannot be read in byte ranges, and its digest would be that of whatever
    the first read left in it."""

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
    COMMANDS = {
        "analyze": ["analyze", "--input", "pair.csv", *REF_ARGS, "--output", "out/flow.json"],
        "map": ["map", "--index", "index.csv", "--grid-manifest", "grid.csv", "--out-dir", "out"],
        "simulate_config": ["simulate", "--config", "sim.cfg", "--out", "out/path.csv"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_output_bytes_do_not_depend_on_the_locale(self, tmp_path, command):
        for name, text in self.INPUTS.items():
            (tmp_path / name).write_bytes(text.encode("utf-8"))
        src = os.path.dirname(os.path.dirname(infoflow.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        runs = []
        for extra in ({}, C_LOCALE):
            out = tmp_path / "out"
            out.mkdir()
            proc = subprocess.run([sys.executable, "-m", "infoflow.cli", *self.COMMANDS[command]],
                                  cwd=tmp_path, env={**env, **extra}, capture_output=True)
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


def parser_destinations(command: str) -> set[str]:
    """The destinations of a subcommand's flags, as build_parser declares them."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


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

        outputs = {"analyze": {"output"}, "theory": {"out"}, "map": {"out_dir"}, "validate": set()}
        for command, manifest in manifests.items():
            assert manifest["command"] == command
            assert set(manifest["parameters"]) == parser_destinations(command) - outputs[command]

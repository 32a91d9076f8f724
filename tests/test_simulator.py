from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from infoflow import (
    LinearModel2D,
    NonFiniteState,
    SimConfig,
    TimeSeries,
    WindowOutOfRange,
    reference_model,
    simulate,
    stationary_covariance,
    window,
)
from infoflow import simulator
from infoflow.kernels import available_backends
from oracles import euler_path


class TestSimulate:
    def test_deterministic(self):
        cfg = SimConfig(reference_model(), (1.0, 2.0), 1e-3, 5000, seed=11)
        a1, a2 = simulate(cfg)
        b1, b2 = simulate(cfg)
        assert np.array_equal(a1.values, b1.values)
        assert np.array_equal(a2.values, b2.values)

    def test_output_length_and_grid(self):
        cfg = SimConfig(reference_model(), (1.0, 2.0), 1e-3, 1000, seed=0)
        x1, x2 = simulate(cfg)
        assert len(x1) == len(x2) == 1001
        assert x1.t0 == 0.0 and x1.dt == 1e-3

    @pytest.mark.parametrize(
        "model, n_steps, chunk",
        [
            pytest.param(model, n_steps, chunk, id=name + suffix)
            for name, model in [
                ("reference", reference_model()),
                (
                    "forced-two-way",
                    LinearModel2D(f=[0.3, -0.2], a=[[-1.0, 0.5], [0.4, -2.0]], b1=0.1, b2=0.25),
                ),
            ]
            for suffix, n_steps, chunk in [
                ("", 20_000, None),
                ("-one_chunk", simulator.CHUNK_STEPS, None),
                ("-chunk_plus_one", simulator.CHUNK_STEPS + 1, None),
                ("-chunks_of_3", 1000, 3),
            ]
        ],
    )
    def test_path_is_the_float_recursion(self, model, n_steps, chunk, monkeypatch):
        # bitwise, with whichever kernel is built: the coefficients reach the
        # kernel as numpy scalars from the model's arrays, and the chunked
        # draws and kernel calls give the path of one full draw
        if chunk is not None:
            monkeypatch.setattr(simulator, "CHUNK_STEPS", chunk)
        cfg = SimConfig(model, (1.0, 2.0), 1e-3, n_steps, seed=149)
        x1, x2 = simulate(cfg)
        dw = np.random.default_rng(cfg.seed).standard_normal((cfg.n_steps, 2)) * math.sqrt(cfg.dt)
        p1, p2 = euler_path(model, cfg.x0, cfg.dt, dw)
        assert x1.values.tobytes() == np.array(p1).tobytes()
        assert x2.values.tobytes() == np.array(p2).tobytes()

    def test_no_dynamics_constant_path(self):
        model = LinearModel2D(f=np.zeros(2), a=np.zeros((2, 2)), b1=0.0, b2=0.0)
        x1, x2 = simulate(SimConfig(model, (1.0, 2.0), 0.1, 100, seed=5))
        assert np.all(x1.values == 1.0)
        assert np.all(x2.values == 2.0)

    def test_noiseless_decay_tracks_exponential(self):
        model = LinearModel2D(f=np.zeros(2), a=np.asarray(reference_model().a), b1=0.0, b2=0.0)
        dt = 1e-3
        x1, x2 = simulate(SimConfig(model, (1.0, 2.0), dt, 5000, seed=0))
        t = x2.t0 + dt * np.arange(len(x2))
        # x2 is a scalar linear ODE; Euler error is O(dt)
        assert np.abs(x2.values - 2.0 * np.exp(-t)).max() < 10 * dt

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_explosive_path_reports_step(self, monkeypatch):
        # the first non-finite step of the full recursion, also when it lies
        # past the first chunk
        model = LinearModel2D(f=np.zeros(2), a=np.array([[500.0, 0.0], [0.0, 500.0]]), b1=0.0, b2=0.0)
        cfg = SimConfig(model, (1e300, 1e300), 1.0, 2000, seed=0)
        dw = np.random.default_rng(cfg.seed).standard_normal((cfg.n_steps, 2))
        p1, p2 = euler_path(model, cfg.x0, cfg.dt, dw)
        expected = int(np.flatnonzero(~(np.isfinite(p1) & np.isfinite(p2)))[0])
        for chunk in (simulator.CHUNK_STEPS, 3):
            monkeypatch.setattr(simulator, "CHUNK_STEPS", chunk)
            with pytest.raises(NonFiniteState) as exc:
                simulate(cfg)
            assert exc.value.step == expected

    @pytest.mark.parametrize("kernel", sorted(available_backends()))
    def test_memory_stays_within_three_columns(self, kernel):
        # the two result columns, which TimeSeries keeps without a copy, and
        # one chunk of noise and kernel work: at most three float64 columns of
        # the path, where one (n, 2) draw took about 6 on the compiled kernel
        # and, with the pure-Python kernel's four lists of n floats, 22
        cfg = SimConfig(reference_model(), (1.0, 2.0), 1e-3, 200_000, seed=1)
        with mock.patch.object(simulator, "euler_path_2d", available_backends()[kernel]):
            simulate(SimConfig(reference_model(), (1.0, 2.0), 1e-3, 10, seed=1))  # warm-up
            tracemalloc.start()
            try:
                simulate(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 3 * 8 * (cfg.n_steps + 1)

    def test_weak_moment_check(self):
        # sample variance of x2 over the stationary span vs sigma22 = 0.005;
        # per-seed estimates carry ~12% sampling noise at this span, so the
        # 15% band applies to the 20-seed ensemble mean
        target = stationary_covariance(reference_model())[1, 1]
        variances = []
        for seed in range(20):
            _, x2 = simulate(SimConfig(reference_model(), (1.0, 2.0), 1e-3, 100_000, seed))
            w = window(x2, 5.0, 100.0)
            variances.append(np.var(w.values, ddof=1))
            assert 0.5 * target < variances[-1] < 2.0 * target
        assert np.mean(variances) == pytest.approx(target, rel=0.15)

    def test_mean_reversion(self, reference_path):
        # stationary sample mean within 3 standard errors of 0 for the f=0
        # fixture; the se accounts for the ~1-unit correlation time
        _, x2 = reference_path
        w = window(x2, 5.0, 100.0)
        n_eff = (w.t_end - w.t0) / 2.0  # span / (2 * correlation time)
        se = float(np.std(w.values, ddof=1)) / np.sqrt(n_eff)
        assert abs(float(w.values.mean())) < 3 * se

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(reference_model(), (1.0, 2.0), 0.0, 100, seed=0)
        with pytest.raises(ValueError):
            SimConfig(reference_model(), (1.0, 2.0), 0.1, 1, seed=0)
        with pytest.raises(ValueError):
            SimConfig(reference_model(), (np.inf, 2.0), 0.1, 100, seed=0)


class TestWindow:
    def test_full_span_slice(self, reference_path):
        x1, _ = reference_path
        w = window(x1, 5.0, 100.0)
        assert len(w) == 95_001
        assert w.t0 == pytest.approx(5.0)

    def test_middle_slice(self, reference_path):
        x1, _ = reference_path
        w = window(x1, 10.0, 20.0)
        assert len(w) == 10_001
        assert w.t0 == pytest.approx(10.0)

    def test_empty_window(self):
        s = TimeSeries(np.arange(10.0), dt=1.0)
        with pytest.raises(WindowOutOfRange):
            window(s, 3.0, 3.0)

    def test_out_of_extent(self):
        s = TimeSeries(np.arange(10.0), dt=1.0)
        with pytest.raises(WindowOutOfRange):
            window(s, -1.0, 5.0)
        with pytest.raises(WindowOutOfRange):
            window(s, 5.0, 20.0)

    def test_window_values_are_the_slice(self):
        s = TimeSeries(np.arange(10.0), dt=1.0, t0=0.0)
        w = window(s, 2.0, 5.0)
        assert np.array_equal(w.values, [2.0, 3.0, 4.0, 5.0])
        assert w.t0 == 2.0

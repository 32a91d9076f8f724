from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from infoflow import (
    AlignedPair,
    CollinearSeries,
    DegenerateSeries,
    LinearModel2D,
    NumericalError,
    SimConfig,
    SingularFisher,
    StationaryWindow,
    TimeSeries,
    WindowTooShort,
    align,
    bootstrap_ci,
    covariances,
    fisher_ci,
    fit_mle,
    flow,
    reference_model,
    simulate,
    subsample,
    window,
)
from infoflow import estimator
from infoflow.estimator import (
    RESIDUAL_FLOOR,
    Variant,
    _covariances,
    default_block_len,
    z_quantile,
)

from conftest import make_pair, random_walk_pair
from oracles import covariances_four_arrays, fit_mle_whole_residuals, observed_information


def brute_force_covariance(a, b):
    """Two-pass covariance by explicit loops: the direct-definition oracle."""
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    acc = 0.0
    for i in range(n):
        acc += (a[i] - ma) * (b[i] - mb)
    return acc / (n - 1)


class TestCovariances:
    def test_identical_series(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(20)
        cov = covariances(make_pair(v, v))
        assert cov.c11 == cov.c22 == cov.c12

    def test_antisymmetric_pair(self):
        cov = covariances(make_pair([1, 2, 3, 4], [4, 3, 2, 1]))
        assert cov.c12 == pytest.approx(-cov.c11, rel=1e-15)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        x1 = rng.standard_normal(10)
        x2 = rng.standard_normal(10)
        pair = make_pair(x1, x2, dt=0.5)
        cov = covariances(pair)
        w1, w2 = list(pair.x1w), list(pair.x2w)
        d1, d2 = list(pair.d1), list(pair.d2)
        for got, pa, pb in [
            (cov.c11, w1, w1),
            (cov.c12, w1, w2),
            (cov.c22, w2, w2),
            (cov.c1d1, w1, d1),
            (cov.c2d1, w2, d1),
            (cov.c1d2, w1, d2),
            (cov.c2d2, w2, d2),
        ]:
            want = brute_force_covariance(pa, pb)
            assert got == pytest.approx(want, rel=1e-12)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            cov = covariances(random_walk_pair(rng))
            assert cov.c12**2 <= cov.c11 * cov.c22 * (1 + 1e-12)

    def test_constant_series_is_degenerate(self):
        from infoflow import DegenerateSeries

        rng = np.random.default_rng(6)
        pair = make_pair(np.full(12, 3.5), rng.standard_normal(12))
        with pytest.raises(DegenerateSeries):
            covariances(pair)

    @pytest.mark.parametrize("value", [0.1, 0.3, 0.7, 0.0])
    def test_constant_series_off_its_mean_is_degenerate(self, value):
        # 0.1 is not its own computed mean: the constant column centres to
        # rounding noise (c11 = 7.9e-34 for 0.1), which the floor must catch
        from infoflow import DegenerateSeries

        rng = np.random.default_rng(25)
        walk = np.cumsum(rng.standard_normal(51))
        for x1, x2 in ((np.full(51, value), walk), (walk, np.full(51, value))):
            with pytest.raises(DegenerateSeries):
                covariances(make_pair(x1, x2))


class TestFitMle:
    def test_noiseless_exact_recovery(self):
        # x_{n+1} = x_n + (f + A x_n) dt: zero-residual regression
        f = np.array([0.3, -0.1])
        a = np.array([[-1.0, 0.5], [0.2, -2.0]])
        dt = 0.01
        x = np.empty((500, 2))
        x[0] = (1.0, 2.0)
        for n in range(499):
            x[n + 1] = x[n] + (f + a @ x[n]) * dt
        pair = make_pair(x[:, 0], x[:, 1], dt=dt)
        model = fit_mle(pair, covariances(pair))
        assert model.a11_hat == pytest.approx(a[0, 0], rel=1e-9)
        assert model.a12_hat == pytest.approx(a[0, 1], rel=1e-9)
        assert model.a21_hat == pytest.approx(a[1, 0], rel=1e-9)
        assert model.a22_hat == pytest.approx(a[1, 1], rel=1e-9)
        assert model.f1_hat == pytest.approx(f[0], rel=1e-9)
        assert model.f2_hat == pytest.approx(f[1], rel=1e-9)
        assert model.b1_hat < 1e-9 and model.b2_hat < 1e-9

    def test_recovers_generator_coefficients(self):
        # frozen realization whose window statistics sit near the generator
        # values (the estimates scatter with sd ~0.15 at this span)
        x1, x2 = simulate(SimConfig(reference_model(), (1.0, 2.0), 1e-3, 100_000, seed=30))
        pair = align(window(x1, 5.0, 100.0), window(x2, 5.0, 100.0))
        model = fit_mle(pair, covariances(pair))
        assert model.a12_hat == pytest.approx(0.5, abs=0.05)
        assert abs(model.a21_hat) < 0.05
        assert model.b1_hat == pytest.approx(0.1, rel=0.10)
        assert model.b2_hat == pytest.approx(0.1, rel=0.10)

    def test_collinear(self):
        v = np.arange(10.0)
        pair = make_pair(v, v)
        with pytest.raises(CollinearSeries):
            fit_mle(pair, covariances(pair))

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(9)
        pair = random_walk_pair(rng, n=200)
        cov = covariances(pair)
        model = fit_mle(pair, cov)
        resid = pair.d1 - (model.f1_hat + model.a11_hat * pair.x1w + model.a12_hat * pair.x2w)
        scale = float(np.abs(pair.d1).sum())
        assert abs(resid.sum()) / scale < 1e-8
        assert abs(resid @ pair.x1w) / (scale * np.abs(pair.x1w).max()) < 1e-8
        assert abs(resid @ pair.x2w) / (scale * np.abs(pair.x2w).max()) < 1e-8


class TestWorkArrays:
    """covariances() forms its products in two work arrays; fit_mle() forms none."""

    PAIRS = ["pair", "stacked", "index-stack", "stack-index"]

    def pair(self, name, n=301, k=6):
        rng = np.random.default_rng(35)
        index = TimeSeries(np.cumsum(rng.standard_normal(n)), 0.1)
        rows = np.cumsum(rng.standard_normal((k, n)), axis=1) + 0.4 * index.values
        rows[1] = 0.3  # degenerate: a NaN row in every field
        stack = TimeSeries(rows, 0.1)
        x1, x2 = {
            "pair": (TimeSeries(rows[0], 0.1), TimeSeries(rows[3] + 1e3, 0.1)),
            "stacked": (stack, TimeSeries(rows[::-1] + 1e3, 0.1)),
            "index-stack": (index, stack),
            "stack-index": (stack, index),
        }[name]
        return align(x1, x2)

    @staticmethod
    def assert_same_bits(got, want):
        for field in dataclasses.fields(want):
            np.testing.assert_array_equal(
                getattr(got, field.name), getattr(want, field.name), strict=True
            )

    @pytest.mark.parametrize("name", PAIRS)
    def test_bits_equal_the_four_array_reference(self, name):
        pair = self.pair(name)
        cov = covariances(pair)
        want = covariances_four_arrays(pair.x1w, pair.x2w, pair.d1, pair.d2)
        self.assert_same_bits(cov, want)
        got, ref = fit_mle(pair, cov), fit_mle_whole_residuals(pair, want)
        # b_hat from the closed-form residual sums: within 4 eps of the two-pass
        # sums, not bitwise; f_hat and a_hat keep their bits
        for b in ("b1_hat", "b2_hat"):
            np.testing.assert_allclose(
                getattr(got, b), getattr(ref, b), rtol=4 * np.finfo(float).eps, atol=0, strict=True
            )
        self.assert_same_bits(dataclasses.replace(got, b1_hat=ref.b1_hat, b2_hat=ref.b2_hat), ref)
        # a star slab: strided views of a stack
        slab = [a[..., 50:250] for a in (pair.x1w, pair.x2w, pair.d1, pair.d2)]
        self.assert_same_bits(_covariances(*slab), covariances_four_arrays(*slab))

    @pytest.mark.parametrize("name", ["pair", "index-stack"])
    def test_memory_stays_within_two_columns(self, name):
        # covariances: the two work arrays, each of the largest input (m = 100k
        # values in all: one pair, or 10 rows of 10k against a 1-D index), and
        # 64 KiB; fit_mle: no column at all, 64 KiB
        pair = self.pair(name, *((100_001, 6) if name == "pair" else (10_001, 10)))
        cov = covariances(pair)
        size = math.prod(np.broadcast_shapes(pair.x1w.shape, pair.x2w.shape))
        assert size == 100_000
        for run, bound in (
            (lambda: covariances(pair), 2 * 8 * size + 64 * 1024),
            (lambda: fit_mle(pair, cov), 64 * 1024),
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound


class TestDriftDominated:
    """b_hat's closed form where drift dominates noise, down to RESIDUAL_FLOOR."""

    NOISE = [10.0**-e for e in range(1, 10)]

    @staticmethod
    def paths(delta_n):
        """(x1, x2) of one model at each noise level: 20k steps, subsampled."""
        for b in TestDriftDominated.NOISE:
            model = LinearModel2D(f=np.zeros(2), a=np.array([[-1.0, 0.5], [0.0, -1.0]]), b1=b, b2=b)
            x1, x2 = simulate(SimConfig(model, (1.0, 2.0), 1e-3, 20_000, seed=149))
            yield subsample(x1, delta_n), subsample(x2, delta_n)

    @pytest.mark.parametrize("delta_n", [1, 100])
    def test_floor_splits_accurate_from_singular(self, delta_n):
        regimes = set()
        for x1, x2 in self.paths(delta_n):
            pair = align(x1, x2)
            cov = covariances(pair)
            model, ref = fit_mle(pair, cov), fit_mle_whole_residuals(pair, cov)
            below = False
            for b, b_ref, c_dd in (
                (model.b1_hat, ref.b1_hat, cov.c_d1d1),
                (model.b2_hat, ref.b2_hat, cov.c_d2d2),
            ):
                # the two-pass residual sum against the floor, clear of it
                ratio = b_ref**2 * pair.m / pair.dt / (RESIDUAL_FLOOR * (pair.m - 1) * c_dd)
                assert abs(ratio - 1) > 1e-3
                if ratio > 1:
                    assert b == pytest.approx(b_ref, rel=1e-6, abs=0)
                else:
                    assert b == 0.0 and math.copysign(1.0, b) == 1.0
                    below = True
                regimes.add(ratio > 1)
            if below:
                with pytest.raises(SingularFisher):
                    fisher_ci(pair, model, cov)
        assert regimes == {True, False}

    @pytest.mark.parametrize("delta_n", [1, 100])
    def test_singular_rows_of_a_stack_are_nan(self, delta_n):
        x1s, x2s = zip(*self.paths(delta_n))
        dt = x1s[0].dt
        stack = align(*(TimeSeries(np.stack([x.values for x in xs]), dt) for xs in (x1s, x2s)))
        cov = covariances(stack)
        model = fit_mle(stack, cov)
        est = fisher_ci(stack, model, cov)
        singular = 0
        for k, (x1, x2) in enumerate(zip(x1s, x2s)):
            pair = align(x1, x2)
            cov_k = covariances(pair)
            model_k = fit_mle(pair, cov_k)
            for field in dataclasses.fields(model_k):
                assert getattr(model, field.name)[k] == getattr(model_k, field.name)
            if model_k.b1_hat == 0.0 or model_k.b2_hat == 0.0:
                singular += 1
                assert np.isnan([est.t21[k], est.t12[k], est.se21[k], est.ci12[1][k]]).all()
                continue
            est_k = fisher_ci(pair, model_k, cov_k)
            for name in ("t21", "t12", "se21", "se12"):
                assert getattr(est, name)[k] == getattr(est_k, name)
            assert (est.ci21[0][k], est.ci12[1][k]) == (est_k.ci21[0], est_k.ci12[1])
        assert 0 < singular < len(self.NOISE)


class TestFlow:
    def test_zero_when_uncorrelated_and_no_coupling(self):
        # c12 = 0 and c2d1 = 0 make both factors of t21 vanish
        from infoflow.estimator import CovarianceStats

        cov = CovarianceStats(
            c11=2.0, c12=0.0, c22=3.0, c1d1=0.5, c2d1=0.0, c1d2=0.1, c2d2=0.2, m=10,
        )
        t21, _ = flow(cov)
        assert t21 == 0.0

    def test_composition_identity_bitwise(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pair = random_walk_pair(rng)
            cov = covariances(pair)
            t21, t12 = flow(cov)
            model = fit_mle(pair, cov)
            assert t21 == (cov.c12 / cov.c11) * model.a12_hat
            assert t12 == (cov.c12 / cov.c22) * model.a21_hat

    def test_collinear_detection(self):
        v = np.linspace(0.0, 1.0, 16)
        pair = make_pair(v, 2.0 * v + 1.0)
        with pytest.raises(CollinearSeries):
            flow(covariances(pair))

    def test_overflowing_determinant_raises(self):
        # at 1e80 the covariances are about 1e160, finite, and c11 * c22 overflows:
        # det = inf - inf is NaN, which must fail its floor and be named
        rng = np.random.default_rng(20)
        pair = make_pair(*1e80 * np.cumsum(rng.standard_normal((2, 500)), axis=1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateSeries, match=r"^covariances not finite: det=nan$"):
                flow(covariances(pair))


class TestFlowNonstationary:
    @staticmethod
    def star_ci(pair, star, detrend_star=False):
        cov = covariances(pair)
        model = fit_mle(pair, cov)
        return fisher_ci(pair, model, cov, star_window=star, detrend_star=detrend_star)

    def test_full_window_reduces_to_flow(self, reference_path):
        x1, x2 = reference_path
        pair = align(window(x1, 0.0, 10.0), window(x2, 0.0, 10.0))
        star = StationaryWindow(0, pair.m)
        est = self.star_ci(pair, star)
        assert (est.t21, est.t12) == flow(covariances(pair))

    def test_star_window_shrinks_transient_inflation(self, reference_path):
        # the spin-down from (1, 2) inflates the plain ratio; the starred
        # variant pulls the estimate back toward the stationary value
        x1, x2 = reference_path
        pair = align(window(x1, 0.0, 10.0), window(x2, 0.0, 10.0))
        t21_plain, _ = flow(covariances(pair))
        t21_star = self.star_ci(pair, StationaryWindow(5000, pair.m)).t21
        assert abs(t21_star - 0.1111) < abs(t21_plain - 0.1111)

    def test_detrend_star_uses_detrended_slab_ratio(self, reference_path):
        # oracle: starred ratios recomputed by hand from the detrended slab
        from infoflow.series import detrend_values

        x1, x2 = reference_path
        pair = align(window(x1, 0.0, 10.0), window(x2, 0.0, 10.0))
        star = StationaryWindow(5000, pair.m)
        model = fit_mle(pair, covariances(pair))
        s1 = detrend_values(pair.x1w[star.start_index : star.end_index])
        s2 = detrend_values(pair.x2w[star.start_index : star.end_index])
        c11 = float(np.var(s1, ddof=1))
        c22 = float(np.var(s2, ddof=1))
        c12 = float(((s1 - s1.mean()) * (s2 - s2.mean())).sum()) / (len(s1) - 1)
        est = self.star_ci(pair, star, detrend_star=True)
        assert est.t21 == pytest.approx(c12 / c11 * model.a12_hat, rel=1e-12)
        assert est.t12 == pytest.approx(c12 / c22 * model.a21_hat, rel=1e-12)

    def test_detrend_star_ignores_linear_ramps(self, reference_path):
        # detrending is a projection: a linear-in-index ramp added to the
        # slab must not change the detrended starred ratios
        from infoflow.estimator import _star_ratios

        x1, x2 = reference_path
        w1, w2 = window(x1, 10.0, 20.0), window(x2, 10.0, 20.0)
        pair = align(w1, w2)
        star = StationaryWindow(1000, 9000)
        ramp = 5.0 * np.linspace(0.0, 1.0, len(w1))
        from infoflow import TimeSeries

        ramped = align(
            TimeSeries(w1.values + ramp, w1.dt, w1.t0),
            TimeSeries(w2.values - 2.0 * ramp, w2.dt, w2.t0),
        )
        base = _star_ratios(pair, star, detrend_star=True)
        with_ramp = _star_ratios(ramped, star, detrend_star=True)
        assert with_ramp[0] == pytest.approx(base[0], rel=1e-6)
        assert with_ramp[1] == pytest.approx(base[1], rel=1e-6)
        plain = _star_ratios(ramped, star, detrend_star=False)
        assert abs(plain[0] - base[0]) > 10 * abs(with_ramp[0] - base[0])

    def test_window_too_short_when_outside_pair(self):
        rng = np.random.default_rng(4)
        pair = random_walk_pair(rng, n=20)
        with pytest.raises(WindowTooShort):
            self.star_ci(pair, StationaryWindow(0, pair.m + 5))

    def test_window_must_have_three_points(self):
        with pytest.raises(ValueError):
            StationaryWindow(4, 6)


class TestFisherCi:
    def test_information_block_is_scaled_gram(self):
        rng = np.random.default_rng(12)
        pair = random_walk_pair(rng, n=400, dt=0.1)
        cov = covariances(pair)
        model = fit_mle(pair, cov)
        ni = observed_information(pair, model, component=1)
        design = np.column_stack([np.ones(pair.m), pair.x1w, pair.x2w])
        gram = design.T @ design
        expected = pair.dt / model.b1_hat**2 * gram
        assert np.allclose(ni[:3, :3], expected, rtol=1e-8)

    def test_closed_form_se_is_inverse_information(self):
        # the Schur-form SEs equal the cross-drift entries of the inverted
        # observed information, the matrix criterion 6 checks against an
        # FD Hessian of the log-likelihood
        rng = np.random.default_rng(31)
        for _ in range(50):
            pair = random_walk_pair(rng)
            cov = covariances(pair)
            model = fit_mle(pair, cov)
            est = fisher_ci(pair, model, cov)
            inv1 = np.linalg.inv(observed_information(pair, model, component=1))
            inv2 = np.linalg.inv(observed_information(pair, model, component=2))
            se21 = abs(cov.c12 / cov.c11) * np.sqrt(inv1[2, 2])
            se12 = abs(cov.c12 / cov.c22) * np.sqrt(inv2[1, 1])
            assert est.se21 == pytest.approx(se21, rel=1e-12)
            assert est.se12 == pytest.approx(se12, rel=1e-12)

    def test_interval_width_invariant(self):
        rng = np.random.default_rng(13)
        pair = random_walk_pair(rng, n=300)
        cov = covariances(pair)
        est = fisher_ci(pair, fit_mle(pair, cov), cov, alpha=0.05)
        z = z_quantile(0.05)
        assert est.ci21[1] - est.ci21[0] == pytest.approx(2 * z * est.se21, rel=1e-12)
        assert est.ci12[1] - est.ci12[0] == pytest.approx(2 * z * est.se12, rel=1e-12)
        assert est.ci21[0] <= est.ci21[1] and est.ci12[0] <= est.ci12[1]
        assert est.variant is Variant.STATIONARY

    def test_z_quantile_value(self):
        assert z_quantile(0.05) == pytest.approx(1.959964, abs=1e-6)

    def test_sigma_scales_with_noise_level(self):
        # replacing d1 by fit + k * residual leaves the coefficients fixed,
        # multiplies b1 by k, and must multiply sigma_a12 by k
        rng = np.random.default_rng(14)
        pair = random_walk_pair(rng, n=250)
        cov = covariances(pair)
        model = fit_mle(pair, cov)
        est = fisher_ci(pair, model, cov)
        k = 3.0
        fitted = model.f1_hat + model.a11_hat * pair.x1w + model.a12_hat * pair.x2w
        d1_scaled = fitted + k * (pair.d1 - fitted)
        scaled = AlignedPair(x1=pair.x1, x2=pair.x2, d1=d1_scaled, d2=pair.d2)
        assert scaled.m == pair.m == 249  # the window is d1's length
        cov_s = covariances(scaled)
        model_s = fit_mle(scaled, cov_s)
        assert model_s.a12_hat == pytest.approx(model.a12_hat, rel=1e-9)
        assert model_s.b1_hat == pytest.approx(k * model.b1_hat, rel=1e-9)
        est_s = fisher_ci(scaled, model_s, cov_s)
        sigma = est.se21 / abs(cov.c12 / cov.c11)
        sigma_s = est_s.se21 / abs(cov_s.c12 / cov_s.c11)
        assert sigma_s == pytest.approx(k * sigma, rel=1e-6)

    def test_reference_segment_significance(self):
        # frozen realization of the short stationary segment t=10-20: the
        # driven direction is significant, the null direction is not, and
        # the interval half-widths sit within a factor 1.5 of the reference
        # values 0.54 / 0.47
        x1, x2 = simulate(SimConfig(reference_model(), (1.0, 2.0), 1e-3, 100_000, seed=248))
        pair = align(window(x1, 10.0, 20.0), window(x2, 10.0, 20.0))
        cov = covariances(pair)
        est = fisher_ci(pair, fit_mle(pair, cov), cov, alpha=0.05)
        assert est.significant21()
        assert not est.significant12()
        z = z_quantile(0.05)
        assert 0.54 / 1.5 <= z * est.se21 <= 0.54 * 1.5
        assert 0.47 / 1.5 <= z * est.se12 <= 0.47 * 1.5

    def test_exactly_zero_noise_is_singular(self):
        # a linear ramp has bitwise-constant differences, so the component-1
        # residuals and b1_hat are exactly zero
        rng = np.random.default_rng(30)
        x1 = 0.5 * np.arange(50.0)
        x2 = rng.standard_normal(50)
        pair = make_pair(x1, x2, dt=0.5)
        cov = covariances(pair)
        model = fit_mle(pair, cov)
        assert model.b1_hat == 0.0
        with pytest.raises(SingularFisher):
            fisher_ci(pair, model, cov)

    def test_near_zero_noise_gives_tiny_intervals(self):
        dt = 0.01

        def pair(a, n, b):
            rng = np.random.default_rng(36)
            noise = b * math.sqrt(dt) * rng.standard_normal((n, 2))
            x = np.empty((n, 2))
            x[0] = (1.0, 2.0)
            for k in range(n - 1):
                x[k + 1] = x[k] + (a @ x[k]) * dt + noise[k]
            return make_pair(x[:, 0], x[:, 1], dt=dt)

        # a noiseless path: its residuals are rounding noise, below the floor
        noiseless = pair(np.array([[-1.0, 0.5], [0.2, -2.0]]), 200, 0.0)
        cov = covariances(noiseless)
        with pytest.raises(SingularFisher):
            fisher_ci(noiseless, fit_mle(noiseless, cov), cov)
        # a damped oscillator with noise 1e-4, about 450 times above the floor
        noisy = pair(np.array([[-0.01, 1.0], [-1.0, -0.01]]), 2000, 1e-4)
        cov = covariances(noisy)
        model = fit_mle(noisy, cov)
        est = fisher_ci(noisy, model, cov)
        assert 0 < est.se21 < 1e-6 and 0 < est.se12 < 1e-6

    def test_standard_errors_that_are_not_finite_fail_a_floor(self):
        # at dt = 1e-150 a walk scaled by 1e-60 has dt * (m-1) * det == 0.0,
        # so its standard errors would be inf: its pair raises and its row of
        # a stack is NaN; the other rows keep the bits of their own pairs
        rng = np.random.default_rng(41)
        dt, scales = 1e-150, (1e-20, 1e-60, 1e-30)
        walks = [np.cumsum(rng.standard_normal((2, 200)), axis=1) * s for s in scales]
        stack = align(*(TimeSeries(np.stack([w[i] for w in walks]), dt) for i in (0, 1)))
        cov = covariances(stack)
        est = fisher_ci(stack, fit_mle(stack, cov), cov)
        for k, walk in enumerate(walks):
            pair = align(TimeSeries(walk[0], dt), TimeSeries(walk[1], dt))
            cov_k = covariances(pair)
            model_k = fit_mle(pair, cov_k)
            if k == 1:
                with pytest.raises(DegenerateSeries, match="standard errors not finite: se21=inf, se12=inf"):
                    fisher_ci(pair, model_k, cov_k)
                assert np.isnan([est.t21[k], est.t12[k], est.se21[k], est.se12[k],
                                 *(bound[k] for bound in (*est.ci21, *est.ci12))]).all()
                assert not (est.significant21()[k] or est.significant12()[k])
                continue
            est_k = fisher_ci(pair, model_k, cov_k)
            for name in ("t21", "t12", "se21", "se12"):
                assert getattr(est, name)[k] == getattr(est_k, name)
            assert [bound[k] for bound in (*est.ci21, *est.ci12)] == [*est_k.ci21, *est_k.ci12]

    def test_alpha_validation(self):
        rng = np.random.default_rng(15)
        pair = random_walk_pair(rng)
        cov = covariances(pair)
        model = fit_mle(pair, cov)
        with pytest.raises(ValueError):
            fisher_ci(pair, model, cov, alpha=1.5)
        for alpha in (0.0, 1.5):
            with pytest.raises(ValueError, match=f"alpha must be in \\(0, 1\\), got {alpha}"):
                bootstrap_ci(pair, cov, alpha=alpha)


def direct_bootstrap(pair, alpha=0.05, n_boot=100, block_len=None, seed=0):
    """Reference moving-block bootstrap: gather each resample's rows and run
    the scalar covariances and flow on them, with bootstrap_ci's draws."""
    m = pair.m
    block_len = default_block_len(m) if block_len is None else block_len
    n_blocks = -(-m // block_len)
    rng = np.random.default_rng(seed)
    t21s, t12s = [], []
    n_discarded = 0
    while len(t21s) < n_boot:
        starts = rng.integers(0, m - block_len + 1, size=n_blocks)
        idx = (starts[:, None] + np.arange(block_len)).ravel()[:m]
        rows = (np.take(a, idx) for a in (pair.x1w, pair.x2w, pair.d1, pair.d2))
        try:
            t21, t12 = flow(_covariances(*rows))
        except NumericalError:
            n_discarded += 1
            continue
        t21s.append(t21)
        t12s.append(t12)
    q = [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)]
    return {
        "ci21": np.percentile(t21s, q),
        "ci12": np.percentile(t12s, q),
        "se21": np.std(t21s, ddof=1),
        "se12": np.std(t12s, ddof=1),
        "n_discarded": n_discarded,
    }


def collinear_pair():
    """A pair whose bootstrap discards about two of every three resamples of block_len 4."""
    rng = np.random.default_rng(18)
    steps = rng.standard_normal(8).cumsum()
    x1 = np.concatenate([steps, [steps[-1] + 1.0]])
    x2 = x1.copy()
    x2[-2] += 0.7  # only the last aligned row distinguishes the series
    return make_pair(x1, x2)


class TestBootstrap:
    @pytest.mark.parametrize("gather_elems", [None, 1])
    def test_matches_direct_resample_loop(self, monkeypatch, gather_elems):
        # block sums from prefix sums give the direct loop's draws, discards
        # and intervals; gather_elems=1 cuts every call into many chunks
        if gather_elems is not None:
            monkeypatch.setattr(estimator, "_GATHER_ELEMS", gather_elems)
        rng = np.random.default_rng(23)
        for m in (17, 18, 64, int(rng.integers(100, 5000)), 5000):
            v1 = np.cumsum(rng.standard_normal(m + 1)) + rng.standard_normal(m + 1)
            v2 = np.cumsum(rng.standard_normal(m + 1)) + rng.standard_normal(m + 1)
            for offset in (0.0, 1e3, 1e6):
                pair = make_pair(v1 + offset, v2 + offset, dt=0.5)
                for block_len in (1, 2, 3, None, m - 1):
                    seed = int(rng.integers(1000))
                    cov = covariances(pair)
                    est = bootstrap_ci(pair, cov, n_boot=100, block_len=block_len, seed=seed)
                    ref = direct_bootstrap(pair, n_boot=100, block_len=block_len, seed=seed)
                    assert est.n_discarded == ref["n_discarded"]
                    for ci, se, key in ((est.ci21, est.se21, "21"), (est.ci12, est.se12, "12")):
                        tol = 1e-9 * ref["se" + key]
                        assert np.abs(np.subtract(ci, ref["ci" + key])).max() <= tol
                        assert abs(se - ref["se" + key]) <= tol

    @pytest.mark.parametrize(
        "pair, n_boot, block_len, seed",
        [
            # discards and redraws cross chunk boundaries
            (collinear_pair(), 100, 4, 3),
            # the default chunk and gather slice cut these into several each
            (random_walk_pair(np.random.default_rng(25), n=5001), 300, 1, 4),
            (random_walk_pair(np.random.default_rng(26), n=20001), 1000, None, 5),
        ],
        ids=["collinear", "m5000-L1", "m20000"],
    )
    def test_chunking_changes_no_bit(self, monkeypatch, pair, n_boot, block_len, seed):
        default = estimator._chunk_rows
        cases = [
            lambda m, n_blocks: (1, 1, n_blocks),  # one resample per chunk
            lambda m, n_blocks: (default(m, n_blocks)[0], 1, n_blocks),  # gather slices of one row
            default,
            lambda m, n_blocks: (n_boot, *default(m, n_blocks)[1:]),  # one chunk for all
            # gather slices of 999 blocks of one row: five to a row at m5000-L1
            lambda m, n_blocks: (default(m, n_blocks)[0], 1, min(n_blocks, 999)),
        ]
        cov = covariances(pair)
        results = []
        for chunk_rows in cases:
            monkeypatch.setattr(estimator, "_chunk_rows", chunk_rows)
            results.append(bootstrap_ci(pair, cov, n_boot=n_boot, block_len=block_len, seed=seed))
        assert all(est == results[0] for est in results)

    def test_starts_hold_every_index(self):
        # a start plus the last block's length reaches m
        assert estimator._index_dtype(2**31 - 1) is np.int32
        assert estimator._index_dtype(2**31) is np.int64

    def test_memory_stays_within_eight_columns(self):
        # the chunk's starts, its prefix and block buffers and the gather
        # slices: at most 8 * m float64 values, 6.4 MB, at m = 100k; at
        # block lengths 1 and 2 one row of starts outgrows a gather slice
        pair = random_walk_pair(np.random.default_rng(27), n=100_001)
        cov = covariances(pair)
        for block_len in (None, 1, 2):
            tracemalloc.start()
            try:
                bootstrap_ci(pair, cov, n_boot=1000, block_len=block_len, seed=11)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * pair.m * 8, block_len

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(16)
        pair = random_walk_pair(rng, n=120)
        cov = covariances(pair)
        a = bootstrap_ci(pair, cov, n_boot=200, seed=7)
        b = bootstrap_ci(pair, cov, n_boot=200, seed=7)
        assert a == b

    def test_full_block_gives_zero_width_interval(self):
        rng = np.random.default_rng(17)
        pair = random_walk_pair(rng, n=60)
        cov = covariances(pair)
        est = bootstrap_ci(pair, cov, n_boot=100, block_len=pair.m, seed=1)
        t21, t12 = flow(cov)
        assert est.ci21 == (t21, t21)
        assert est.ci12 == (t12, t12)
        # identical resamples up to summation rounding in the sd
        assert est.se21 <= 1e-12 * max(1.0, abs(t21))
        assert est.se12 <= 1e-12 * max(1.0, abs(t12))

    def test_interval_contains_reference_truth(self, reference_path):
        # stationary span, default block length: the percentile interval
        # straddles the analytic values 0.1111 and 0
        x1, x2 = reference_path
        pair = align(window(x1, 5.0, 100.0), window(x2, 5.0, 100.0))
        est = bootstrap_ci(pair, covariances(pair), alpha=0.05, n_boot=1000, seed=7)
        assert est.ci21[0] <= 0.1111 <= est.ci21[1]
        assert est.ci12[0] <= 0.0 <= est.ci12[1]

    def test_collinear_resamples_are_redrawn(self):
        pair = collinear_pair()
        est = bootstrap_ci(pair, covariances(pair), n_boot=100, block_len=4, seed=3)
        assert est.n_discarded == 191
        assert np.isfinite(est.ci21).all() and np.isfinite(est.ci12).all()
        assert est.n_discarded == direct_bootstrap(pair, block_len=4, seed=3)["n_discarded"]

    @pytest.mark.parametrize("first, rest", [(1.0, 0.0), (5.0, 0.0), (3.0, 0.1)])
    def test_gives_up_after_ten_draws_per_resample(self, first, rest):
        # x1 varies only through row 0, so only the resamples that hold row 0
        # are not degenerate; 24 of the 10 * n_boot draws are too few. The
        # constant resamples come out of the prefix sums as rounding noise,
        # above _PREFIX_FLOOR for first=5 and rest=0.1, and must still be
        # discarded
        rng = np.random.default_rng(24)
        x1 = np.r_[first, np.full(100, rest)]
        pair = make_pair(x1, np.cumsum(rng.standard_normal(101)))
        assert pair.m == 100
        with pytest.raises(CollinearSeries, match="976 of 1000 bootstrap resamples were collinear"):
            bootstrap_ci(pair, covariances(pair), n_boot=100, block_len=50, seed=1)

    def test_parameter_validation(self):
        rng = np.random.default_rng(19)
        pair = random_walk_pair(rng)
        cov = covariances(pair)
        with pytest.raises(ValueError):
            bootstrap_ci(pair, cov, n_boot=50)
        with pytest.raises(ValueError):
            bootstrap_ci(pair, cov, n_boot=100, block_len=0)


class TestStackedPair:
    """A (k, n) stack is k pairs: each row has the bits of its pair alone."""

    def fixture(self):
        rng = np.random.default_rng(33)
        x1 = np.cumsum(rng.standard_normal(400))
        rows = np.cumsum(rng.standard_normal((5, 400)), axis=1) + 0.4 * x1
        rows[1] = 0.3  # constant, off its computed mean: DegenerateSeries as a pair
        rows[2] = 2.0 * x1 + 1.0  # CollinearSeries as a pair
        index = TimeSeries(x1, 0.1)
        # a Fortran-ordered stack: its rows must still sum in a 1-D series' order
        return index, rows, align(index, TimeSeries(np.asfortranarray(rows), 0.1))

    def estimates(self, pair, star=None, b1_hat=None):
        cov = covariances(pair)
        model = fit_mle(pair, cov)
        if b1_hat is not None:
            model = dataclasses.replace(model, b1_hat=b1_hat)
        star_window = StationaryWindow(100, 300) if star else None
        est = fisher_ci(pair, model, cov, star_window=star_window, detrend_star=star == "detrend")
        return cov, model, est

    def assert_row_equals_pair(self, stacked, k, single):
        def row(value):
            return tuple(map(row, value)) if isinstance(value, tuple) else value[k]

        for whole, one in zip(stacked, single):
            for field in dataclasses.fields(one):
                value, got = getattr(one, field.name), getattr(whole, field.name)
                assert (row(got) if np.ndim(got) or isinstance(got, tuple) else got) == value

    @pytest.mark.parametrize("star", [None, "plain", "detrend"])
    def test_rows_equal_pairs_and_failing_rows_are_nan(self, star):
        index, rows, stack = self.fixture()
        stacked = self.estimates(stack, star)
        est = stacked[2]
        for k in (0, 3, 4):
            single = self.estimates(align(index, TimeSeries(rows[k], 0.1)), star)
            self.assert_row_equals_pair(stacked, k, single)
            assert est.significant21()[k] == single[2].significant21()
        for k, error in ((1, DegenerateSeries), (2, CollinearSeries)):
            with pytest.raises(error):
                self.estimates(align(index, TimeSeries(rows[k], 0.1)), star)
            for value in (est.t21, est.t12, est.se21, est.se12, *est.ci21, *est.ci12):
                assert np.isnan(value[k])
            assert not est.significant21()[k] and not est.significant12()[k]

    def test_many_rows_keep_their_bits(self):
        # enough rows, correlated enough with the index that c12**2 sets det's
        # last bits, that squaring c12 by numpy's multiplication would show:
        # it rounds apart from a float's pow about once in 1200 squares
        rng = np.random.default_rng(34)
        index = TimeSeries(rng.standard_normal(16), 0.5)
        rows = index.values + 0.1 * rng.standard_normal((16, 3000)).T
        t21s, t12s = flow(covariances(align(index, TimeSeries(rows, 0.5))))
        for t21, t12, row in zip(t21s, t12s, rows):
            assert (t21, t12) == flow(covariances(align(index, TimeSeries(row, 0.5))))

    def test_singular_fisher_row_is_nan(self):
        index, rows, stack = self.fixture()
        b1_hat = fit_mle(stack, covariances(stack)).b1_hat.copy()
        b1_hat[3] = 0.0
        est = self.estimates(stack, b1_hat=b1_hat)[2]
        assert np.isnan([est.t21[3], est.t12[3], est.se21[3], est.ci12[0][3]]).all()
        assert not est.significant21()[3] and not est.significant12()[3]
        assert est.t21[0] == self.estimates(stack)[2].t21[0]
        pair = align(index, TimeSeries(rows[3], 0.1))
        with pytest.raises(SingularFisher, match="residual noise estimate b=0.0"):
            self.estimates(pair, b1_hat=0.0)


class TestProperties:
    def test_index_swap_antisymmetry_exact(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            n = int(rng.integers(16, 64))
            v1 = np.cumsum(rng.standard_normal(n))
            v2 = np.cumsum(rng.standard_normal(n))
            t21, t12 = flow(covariances(make_pair(v1, v2, dt=0.5)))
            s21, s12 = flow(covariances(make_pair(v2, v1, dt=0.5)))
            assert (s21, s12) == (t12, t21)

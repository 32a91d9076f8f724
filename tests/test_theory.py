from __future__ import annotations

import numpy as np
import pytest
from scipy import linalg

from infoflow import (
    DegenerateVariance,
    LinearModel2D,
    MomentState,
    MomentTrajectory,
    NotHurwitz,
    analytic_flows,
    integrate_moments,
    noise_dominated_model,
    reference_model,
    stationary_covariance,
)
from infoflow import theory

from oracles import exact_moments

# hand-solved stationary covariance of the reference system:
#   s22 = b2^2 / 2 = 0.005
#   s12 = 0.5 * s22 / 2 = 0.00125
#   s11 = (2 * 0.5 * s12 + b1^2) / 2 = 0.005625
REFERENCE_SIGMA = (0.005625, 0.00125, 0.005)


def scipy_stationary(model):
    bbt = np.diag([model.b1**2, model.b2**2])
    return linalg.solve_continuous_lyapunov(np.asarray(model.a), -bbt)


class TestStationaryCovariance:
    def test_reference_system(self):
        sigma = stationary_covariance(reference_model())
        s11, s12, s22 = REFERENCE_SIGMA
        assert sigma[0, 0] == pytest.approx(s11, rel=1e-12)
        assert sigma[0, 1] == pytest.approx(s12, rel=1e-12)
        assert sigma[1, 1] == pytest.approx(s22, rel=1e-12)

    def test_residual(self):
        for model in (reference_model(), noise_dominated_model()):
            sigma = stationary_covariance(model)
            a = np.asarray(model.a)
            bbt = np.diag([model.b1**2, model.b2**2])
            residual = np.abs(a @ sigma + sigma @ a.T + bbt).max()
            assert residual < 1e-12 * max(1.0, bbt.max())

    def test_matches_scipy_lyapunov_solver(self):
        rng = np.random.default_rng(23)
        found = 0
        while found < 20:
            a = rng.uniform(-2, 2, size=(2, 2))
            if not (np.trace(a) < 0 and np.linalg.det(a) > 0):
                continue
            found += 1
            model = LinearModel2D(f=np.zeros(2), a=a, b1=rng.uniform(0.1, 3), b2=rng.uniform(0.1, 3))
            sigma = stationary_covariance(model)
            assert np.allclose(sigma, scipy_stationary(model), rtol=1e-10, atol=1e-12)

    def test_decoupled_ou(self):
        model = LinearModel2D(
            f=np.zeros(2), a=np.array([[-2.0, 0.0], [0.0, -0.5]]), b1=0.4, b2=0.2
        )
        sigma = stationary_covariance(model)
        assert sigma[0, 0] == pytest.approx(0.4**2 / (2 * 2.0), rel=1e-12)
        assert sigma[1, 1] == pytest.approx(0.2**2 / (2 * 0.5), rel=1e-12)
        assert sigma[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_not_hurwitz(self):
        model = LinearModel2D(f=np.zeros(2), a=np.array([[1.0, 0.0], [0.0, -1.0]]), b1=1.0, b2=1.0)
        with pytest.raises(NotHurwitz):
            stationary_covariance(model)


class TestAnalyticFlows:
    def test_reference_values(self):
        model = reference_model()
        t21, t12 = analytic_flows(model, stationary_covariance(model))
        assert t21 == pytest.approx(0.1111, abs=1e-4)
        assert t12 == 0.0

    def test_noise_dominated_values(self):
        # Lyapunov solve gives sigma = (519.048, 59.524, 71.429), hence
        # t21 = 59.524 / 519.048 = 0.11468
        model = noise_dominated_model()
        sigma = stationary_covariance(model)
        assert sigma[0, 0] == pytest.approx(519.047619047619, rel=1e-12)
        assert sigma[0, 1] == pytest.approx(59.523809523809526, rel=1e-12)
        assert sigma[1, 1] == pytest.approx(71.42857142857143, rel=1e-12)
        t21, t12 = analytic_flows(model, sigma)
        assert t21 == pytest.approx(0.11467889908256881, rel=1e-12)
        assert t12 == 0.0

    def test_zero_coupling_gives_zero_flow(self):
        rng = np.random.default_rng(31)
        model = LinearModel2D(f=np.zeros(2), a=np.array([[-1.0, 0.0], [0.3, -2.0]]), b1=1, b2=1)
        for _ in range(20):
            s12 = rng.uniform(-0.5, 0.5)
            sigma = np.array([[1.0, s12], [s12, 2.0]])
            t21, _ = analytic_flows(model, sigma)
            assert t21 == 0.0

    def test_sign_matches_coupling_times_covariance(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            a12, a21 = rng.uniform(-2, 2, size=2)
            model = LinearModel2D(
                f=np.zeros(2), a=np.array([[-1.0, a12], [a21, -1.0]]), b1=1, b2=1
            )
            s12 = rng.uniform(-0.9, 0.9)
            sigma = np.array([[1.0, s12], [s12, 1.0]])
            t21, t12 = analytic_flows(model, sigma)
            assert np.sign(t21) == np.sign(s12 * a12)
            assert np.sign(t12) == np.sign(s12 * a21)

    def test_time_rescaling_scales_flows(self):
        base = noise_dominated_model()
        k = 2.5
        fast = LinearModel2D(
            f=np.zeros(2), a=k * np.asarray(base.a), b1=np.sqrt(k) * base.b1, b2=np.sqrt(k) * base.b2
        )
        t_base = analytic_flows(base, stationary_covariance(base))
        t_fast = analytic_flows(fast, stationary_covariance(fast))
        assert t_fast[0] == pytest.approx(k * t_base[0], rel=1e-10)
        assert t_fast[1] == pytest.approx(k * t_base[1], abs=1e-15)

    @pytest.mark.parametrize("s11", [0.0, np.nan])
    def test_degenerate_variance(self, s11):
        with pytest.raises(DegenerateVariance, match=f"s11={s11}, s22=1.0"):
            analytic_flows(reference_model(), np.array([[s11, 0.0], [0.0, 1.0]]))

    def test_stack_matches_single_covariances_bitwise(self):
        rng = np.random.default_rng(33)
        model = LinearModel2D(f=np.zeros(2), a=np.array([[-1.0, 0.7], [-0.3, -2.0]]), b1=1, b2=1)
        s11, s22 = rng.uniform(0.1, 2.0, size=(2, 40))
        s12 = rng.uniform(-0.5, 0.5, size=40) * np.sqrt(s11 * s22)
        stack = np.stack([np.stack([s11, s12], axis=1), np.stack([s12, s22], axis=1)], axis=1)
        t21, t12 = analytic_flows(model, stack)
        for k, sigma in enumerate(stack):
            assert (t21[k], t12[k]) == analytic_flows(model, sigma)

    @pytest.mark.parametrize("s22", [-0.0, np.nan])
    def test_stack_with_one_degenerate_covariance(self, s22):
        stack = np.array([np.eye(2), [[1.0, 0.0], [0.0, s22]], np.eye(2)])
        with pytest.raises(DegenerateVariance, match=f"s11=1.0, s22={s22}"):
            analytic_flows(reference_model(), stack)


class TestIntegrateMoments:
    def test_reference_trajectory_reaches_stationary_values(self):
        model = reference_model()
        init = MomentState(
            mu=np.array([1.0, 2.0]), sigma=np.array([[0.1, 0.0], [0.0, 0.1]]), t=0.0
        )
        trajectory = integrate_moments(model, init, t_end=10.0, dt=1e-3)
        final = trajectory.sigma[-1]
        target = stationary_covariance(model)
        assert np.abs(final - target).max() < 1e-3
        assert np.abs(trajectory.mu[-1]).max() < 1e-3

    def test_flow_trajectory_approaches_analytic_value(self):
        model = reference_model()
        init = MomentState(
            mu=np.zeros(2), sigma=np.array([[0.1, 0.0], [0.0, 0.1]]), t=0.0
        )
        trajectory = integrate_moments(model, init, t_end=10.0, dt=1e-3)
        t21_final, t12_final = analytic_flows(model, trajectory.sigma[-1])
        assert t21_final == pytest.approx(0.1111, abs=2e-4)
        assert t12_final == 0.0

    def test_no_dynamics_keeps_sigma_and_drifts_mean(self):
        model = LinearModel2D(f=np.array([0.5, -1.0]), a=np.zeros((2, 2)), b1=0.0, b2=0.0)
        init = MomentState(mu=np.zeros(2), sigma=np.array([[0.3, 0.1], [0.1, 0.2]]), t=0.0)
        trajectory = integrate_moments(model, init, t_end=2.0, dt=1e-2)
        assert np.allclose(trajectory.sigma[-1], init.sigma, atol=1e-12)
        assert np.allclose(trajectory.mu[-1], [1.0, -2.0], atol=1e-9)

    def test_contraction_without_forcing(self):
        model = LinearModel2D(f=np.zeros(2), a=np.array([[-1.0, 0.5], [0.0, -1.0]]), b1=0.0, b2=0.0)
        init = MomentState(mu=np.zeros(2), sigma=np.array([[0.1, 0.0], [0.0, 0.1]]), t=0.0)
        trajectory = integrate_moments(model, init, t_end=8.0, dt=1e-3)
        assert np.abs(trajectory.sigma[-1]).max() < 1e-5

    def test_trajectory_time_grid(self):
        model = reference_model()
        init = MomentState(mu=np.zeros(2), sigma=np.eye(2) * 0.1, t=1.0)
        trajectory = integrate_moments(model, init, t_end=2.0, dt=0.25)
        assert trajectory.t.tolist() == pytest.approx([1.0, 1.25, 1.5, 1.75, 2.0])

    def test_matches_exact_solution(self):
        # the reference drift is -I plus a nilpotent part, so the exact moments
        # are in closed form; RK4 at dt = 1e-3 reaches about 6.4e-13 relative
        model = reference_model()
        mu0, sigma0 = [1.0, 2.0], [[0.1, 0.0], [0.0, 0.1]]
        init = MomentState(mu=np.array(mu0), sigma=np.array(sigma0), t=0.0)
        trajectory = integrate_moments(model, init, t_end=10.0, dt=1e-3)
        mu, sigma = exact_moments(model, mu0, sigma0, trajectory.t)
        for got, want in ((trajectory.mu, mu), (trajectory.sigma, sigma)):
            scale = np.where(want == 0.0, 1.0, np.abs(want))
            assert (np.abs(got - want) / scale).max() < 1e-11

    def test_trajectory_arrays(self):
        model = reference_model()
        init = MomentState(mu=np.array([1.0, 2.0]), sigma=np.eye(2) * 0.1, t=0.5)
        trajectory = integrate_moments(model, init, t_end=3.0, dt=1e-2)
        assert isinstance(trajectory, MomentTrajectory)
        assert len(trajectory) == 251
        assert trajectory.mu.shape == (251, 2) and trajectory.sigma.shape == (251, 2, 2)
        assert np.array_equal(trajectory.t, 0.5 + np.arange(251) * 1e-2)
        assert np.array_equal(trajectory.mu[0], init.mu)
        assert np.array_equal(trajectory.sigma[0], init.sigma)
        assert np.array_equal(trajectory.sigma[:, 0, 1], trajectory.sigma[:, 1, 0])
        for arr in (trajectory.t, trajectory.mu, trajectory.sigma):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_trajectory_arrays_are_not_copied(self, monkeypatch):
        # integrate_moments hands over fresh read-only arrays, kept as they are
        model = reference_model()
        init = MomentState(mu=np.array([1.0, 2.0]), sigma=np.eye(2) * 0.1, t=0.0)
        freeze, kept = theory._freeze, []

        def spy(values, dtype=float):
            frozen = freeze(values, dtype)
            kept.append(frozen is values)
            return frozen

        monkeypatch.setattr(theory, "_freeze", spy)
        integrate_moments(model, init, t_end=1.0, dt=1e-2)
        assert kept == [True, True, True]

    def test_argument_validation(self):
        model = reference_model()
        init = MomentState(mu=np.zeros(2), sigma=np.eye(2), t=0.0)
        with pytest.raises(ValueError):
            integrate_moments(model, init, t_end=0.0)
        with pytest.raises(ValueError):
            integrate_moments(model, init, t_end=1.0, dt=-0.1)
        # non-finite grids, a step count that overflows, and a grid with no step
        bad = [(np.inf, 1e-3), (np.nan, 1e-3), (1.0, 0.0), (1.0, np.nan), (1.0, 1e-320), (0.01, 0.02)]
        for t_end, dt in bad:
            with pytest.raises(ValueError):
                integrate_moments(model, init, t_end=t_end, dt=dt)

    @pytest.mark.parametrize(
        "f, a, b, message",
        [
            (np.zeros(3), np.zeros((2, 2)), (0.0, 0.0), "f must be a 2-vector and a 2x2"),
            (np.zeros(2), np.zeros(4), (0.0, 0.0), "f must be a 2-vector and a 2x2"),
            (np.zeros(2), np.zeros((2, 2)), (-0.1, 0.0), "diffusion coefficients must be >= 0"),
            (np.zeros(2), np.zeros((2, 2)), (0.0, -0.1), "diffusion coefficients must be >= 0"),
        ],
    )
    def test_model_must_be_two_dimensional_with_nonnegative_diffusion(self, f, a, b, message):
        with pytest.raises(ValueError, match=message):
            LinearModel2D(f=f, a=a, b1=b[0], b2=b[1])

    @pytest.mark.parametrize(
        "mu, sigma",
        [
            ([np.nan, 1.0], np.eye(2)),
            ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]]),
            ([0.0, 0.0], [[-0.1, 0.0], [0.0, 0.1]]),
            ([0.0, 0.0], [[0.1, 0.5], [0.5, 0.1]]),
            ([0.0, 0.0], [[0.1, 0.01], [0.0, 0.1]]),
            ([0.0, 0.0, 0.0], np.eye(2)),
            ([0.0, 0.0], np.eye(3)),
        ],
    )
    def test_initial_state_must_be_a_finite_covariance(self, mu, sigma):
        with pytest.raises(ValueError):
            MomentState(mu=np.array(mu), sigma=np.array(sigma), t=0.0)

    def test_initial_state_accepts_singular_covariance(self):
        state = MomentState(mu=np.zeros(2), sigma=np.array([[0.1, 0.1], [0.1, 0.1]]), t=0.0)
        assert state.sigma[0, 1] == 0.1

    def test_unstable_step_size_reports_negative_variance(self):
        # fast rotation integrated far beyond the stable step: the covariance
        # modes oscillate and overshoot below zero
        from infoflow import NonPositiveVariance

        stiff = LinearModel2D(
            f=np.zeros(2), a=np.array([[-1.0, 10.0], [-10.0, -1.0]]), b1=0.1, b2=0.1
        )
        init = MomentState(mu=np.zeros(2), sigma=np.array([[0.2, 0.05], [0.05, 0.1]]), t=0.0)
        with pytest.raises(NonPositiveVariance):
            integrate_moments(stiff, init, t_end=20.0, dt=0.2)

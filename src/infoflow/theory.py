"""Ground-truth engine for 2-D linear SDEs dX = (f + A X) dt + diag(b1, b2) dW.

Under a Gaussian initial state the density stays Gaussian; its mean and
covariance obey

    dmu/dt    = f + A mu
    dSigma/dt = A Sigma + Sigma A^T + B B^T

and the analytic flow rates are t21 = (s12 / s11) a12, t12 = (s12 / s22) a21.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, NonFiniteState, NonPositiveVariance, NotHurwitz
from .series import _freeze


@dataclass(frozen=True)
class LinearModel2D:
    """Coefficients (f, A, b1, b2) of the 2-D linear SDE."""

    f: np.ndarray
    a: np.ndarray
    b1: float
    b2: float

    def __post_init__(self):
        f, a = _freeze(self.f), _freeze(self.a)
        if f.shape != (2,) or a.shape != (2, 2):
            raise ValueError(f"f must be a 2-vector and a 2x2, got shapes {f.shape}, {a.shape}")
        for name, value in (("f", f), ("a", a), ("b1", self.b1), ("b2", self.b2)):
            if not np.isfinite(value).all():
                raise ValueError(
                    f"model coefficient {name} must be finite, got {np.asarray(value).tolist()}"
                )
        if self.b1 < 0 or self.b2 < 0:
            raise ValueError(f"diffusion coefficients must be >= 0, got {self.b1}, {self.b2}")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class MomentState:
    """Mean vector and symmetric covariance of the Gaussian state at time t."""

    mu: np.ndarray
    sigma: np.ndarray
    t: float

    def __post_init__(self):
        mu, sigma = _freeze(self.mu), _freeze(self.sigma)
        if mu.shape != (2,) or sigma.shape != (2, 2):
            raise ValueError("mu must be a 2-vector and sigma a 2x2 matrix")
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all() and math.isfinite(self.t)):
            raise ValueError(
                f"moments and time must be finite, got {mu.tolist()}, {sigma.tolist()}, t={self.t}"
            )
        s11, s12, s22 = sigma[0, 0], sigma[0, 1], sigma[1, 1]
        if s11 < 0 or s22 < 0 or s12 * s12 > s11 * s22 or sigma[1, 0] != s12:
            raise ValueError(f"sigma must be symmetric positive semidefinite, got {sigma.tolist()}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class MomentTrajectory:
    """Moments on a time grid: mu[k] (2,) and sigma[k] (2, 2) at time t[k]."""

    t: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        for name in ("t", "mu", "sigma"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    def __len__(self) -> int:
        return len(self.t)


def _moment_generator(model: LinearModel2D) -> np.ndarray:
    """H with d/dt (y, 1) = H (y, 1), y = (mu1, mu2, s11, s12, s22); forcing in column 5."""
    (a11, a12), (a21, a22) = model.a
    h = np.zeros((6, 6))
    h[:2, :2] = model.a
    h[2:5, 2:5] = [[2.0 * a11, 2.0 * a12, 0.0], [a21, a11 + a22, a12], [0.0, 2.0 * a21, 2.0 * a22]]
    h[:5, 5] = model.f[0], model.f[1], model.b1**2, 0.0, model.b2**2
    return h


def integrate_moments(
    model: LinearModel2D, init: MomentState, t_end: float, dt: float = 1e-3
) -> MomentTrajectory:
    """Fixed-step fourth-order Runge-Kutta integration of the moment equations.

    The equations are linear, so one RK4 step is an affine map y -> M y + c:
    the stages run once on the identity of (y, 1), column j < 5 giving column
    j of M (from e_j, unforced) and column 5 giving c (from zero, forced). H
    does not couple mean and covariance, so M is iterated block by block on
    plain floats; the covariance is carried as (s11, s12, s22), so it stays symmetric.
    A step too coarse for RK4 can blow the moments up: that raises NonFiniteState.
    """
    if not (dt > 0 and math.isfinite((t_end - init.t) / dt)):
        raise ValueError(f"t_end and dt must be finite and dt positive, got {t_end}, {dt}")
    n_steps = int(round((t_end - init.t) / dt))
    if n_steps < 1:
        raise ValueError(f"no step of dt={dt} fits from the initial time {init.t} to {t_end}")
    h, eye = _moment_generator(model), np.eye(6)
    k2 = h @ (eye + 0.5 * dt * h)
    k3 = h @ (eye + 0.5 * dt * k2)
    k4 = h @ (eye + dt * k3)
    step = (eye + (dt / 6.0) * (h + 2.0 * k2 + 2.0 * k3 + k4)).tolist()
    (p11, p12, *_, c1), (p21, p22, *_, c2) = step[:2]
    (*_, q11, q12, q13, d1), (*_, q21, q22, q23, d2), (*_, q31, q32, q33, d3) = step[2:5]
    flat = [*init.mu.tolist(), *init.sigma[0].tolist(), float(init.sigma[1, 1])]
    mu1, mu2, s11, s12, s22 = flat
    for k in range(1, n_steps + 1):
        mu1, mu2 = p11 * mu1 + p12 * mu2 + c1, p21 * mu1 + p22 * mu2 + c2
        s11, s12, s22 = (
            q11 * s11 + q12 * s12 + q13 * s22 + d1,
            q21 * s11 + q22 * s12 + q23 * s22 + d2,
            q31 * s11 + q32 * s12 + q33 * s22 + d3,
        )
        if s11 < -1e-12 or s22 < -1e-12:
            raise NonPositiveVariance(
                f"variance went negative at t={init.t + k * dt}: s11={s11}, s22={s22}"
            )
        flat.extend((mu1, mu2, s11, s12, s22))
    ys = np.array(flat).reshape(-1, 5)
    t = init.t + np.arange(n_steps + 1) * dt
    bad = np.flatnonzero(~np.isfinite(ys).all(axis=1))
    if bad.size:
        raise NonFiniteState(f"moments are not finite from t={t[bad[0]]}", step=int(bad[0]))
    # fresh C-ordered arrays, made read-only: MomentTrajectory keeps them without a copy
    mu, sigma = np.take(ys, [0, 1], axis=1), np.take(ys, [[2, 3], [3, 4]], axis=1)
    for a in (t, mu, sigma):
        a.setflags(write=False)
    return MomentTrajectory(t=t, mu=mu, sigma=sigma)


def stationary_covariance(model: LinearModel2D) -> np.ndarray:
    """Stationary covariance: the exact solve of A S + S A^T + B B^T = 0.

    Solved as the 3x3 covariance block of the moment equations in (s11, s12,
    s22); the residual of the returned matrix is checked against a scaled 1e-12 floor.
    """
    a = model.a
    (a11, a12), (a21, a22) = a
    if not (a11 + a22 < 0 and a11 * a22 - a12 * a21 > 0):  # 2-D Hurwitz: trace < 0, det > 0
        raise NotHurwitz(f"drift matrix {a.tolist()} is not Hurwitz; no stationary state")
    h = _moment_generator(model)
    s11, s12, s22 = np.linalg.solve(h[2:5, 2:5], -h[2:5, 5])
    sigma = np.array([[s11, s12], [s12, s22]])
    bbt = np.diag(h[2:5:2, 5])
    residual = np.abs(a @ sigma + sigma @ a.T + bbt).max()
    scale = max(1.0, float(np.abs(bbt).max()))
    if residual > 1e-12 * scale:
        raise NotHurwitz(f"stationary solve residual {residual} exceeds tolerance")
    return sigma


def analytic_flows(model: LinearModel2D, sigma: np.ndarray) -> tuple:
    """Analytic flow rates (t21, t12) for a covariance, or per covariance of a (n, 2, 2) stack."""
    sigma = np.asarray(sigma, dtype=float)
    s11, s12, s22 = sigma[..., 0, 0], sigma[..., 0, 1], sigma[..., 1, 1]
    positive = (s11 > 0) & (s22 > 0)  # which a NaN fails
    if not positive.all():
        first = np.argmin(positive)  # the first covariance that fails
        s11, s22 = np.ravel(s11)[first], np.ravel(s22)[first]
        raise DegenerateVariance(f"variances must be positive, got s11={s11}, s22={s22}")
    return s12 / s11 * model.a[0, 1], s12 / s22 * model.a[1, 0]

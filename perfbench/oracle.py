"""Independent numpy reference for the numbers the benchmark checks.

Flows use the closed form of the paper,

    t21 = (c12 / c11) * (c11 * c2d1 - c12 * c1d1) / (c11 * c22 - c12**2),

and standard errors the Schur-complement form of the Fisher interval,

    se21 = |c12 / c11| * b1_hat * sqrt(c11 / (dt * (m - 1) * det)),

with b1_hat the residual scale of the d1 regression, also taken from the
covariances. Nothing here calls infoflow. All functions broadcast over a
trailing cell axis, so one call covers a pair (shape (n,)) or a whole field
(shape (n, cells)) against one index series.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np


def z_quantile(alpha: float) -> float:
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def _cov(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Centred sample covariance along axis 0, divisor (rows - 1)."""
    ca = a - a.mean(axis=0)
    cb = b - b.mean(axis=0)
    return (ca * cb).sum(axis=0) / (a.shape[0] - 1)


def _slab_ratios(s1: np.ndarray, s2: np.ndarray, detrend: bool) -> tuple[float, float]:
    if detrend:
        n = np.arange(s1.size, dtype=float)
        s1 = s1 - np.polyval(np.polyfit(n, s1, 1), n)
        s2 = s2 - np.polyval(np.polyfit(n, s2, 1), n)
    c11, c12, c22 = _cov(s1, s1), _cov(s1, s2), _cov(s2, s2)
    return c12 / c11, c12 / c22


def flows(x1: np.ndarray, x2: np.ndarray, dt: float, star=None) -> dict:
    """Reference t21, t12, se21, se12 for x1 (target) and x2 (source).

    x1 has shape (n,) and x2 shape (n,) or (n, cells). star is None or
    (start, end, detrend): the half-open slab of the aligned sample that
    supplies the leading covariance ratios of the nonstationary variant.
    """
    if x2.ndim == 2:
        x1 = x1[:, np.newaxis]
    m = x1.shape[0] - 1
    w1, w2 = x1[:m], x2[:m]
    d1 = (x1[1:] - x1[:-1]) / dt
    d2 = (x2[1:] - x2[:-1]) / dt
    c11, c12, c22 = _cov(w1, w1), _cov(w1, w2), _cov(w2, w2)
    c1d1, c2d1, c1d2, c2d2 = _cov(w1, d1), _cov(w2, d1), _cov(w1, d2), _cov(w2, d2)
    det = c11 * c22 - c12**2
    a12 = (c11 * c2d1 - c12 * c1d1) / det
    a21 = (c22 * c1d2 - c12 * c2d2) / det
    # residual sums of squares of the d_i regressions on (1, x1, x2)
    q1 = (m - 1) * (_cov(d1, d1) - (c22 * c1d1**2 - 2 * c12 * c1d1 * c2d1 + c11 * c2d1**2) / det)
    q2 = (m - 1) * (_cov(d2, d2) - (c22 * c1d2**2 - 2 * c12 * c1d2 * c2d2 + c11 * c2d2**2) / det)
    b1, b2 = np.sqrt(q1 * dt / m), np.sqrt(q2 * dt / m)
    sigma_a12 = b1 * np.sqrt(c11 / (dt * (m - 1) * det))
    sigma_a21 = b2 * np.sqrt(c22 / (dt * (m - 1) * det))
    if star is None:
        r21, r12 = c12 / c11, c12 / c22
    else:
        start, end, detrend = star
        r21, r12 = _slab_ratios(w1[start:end], w2[start:end], detrend)
    return {
        "t21": r21 * a12,
        "t12": r12 * a21,
        "se21": np.abs(r21) * sigma_a12,
        "se12": np.abs(r12) * sigma_a21,
        "m": m,
    }


def rel_dev(value, reference) -> float:
    """Largest |value - reference| / |reference| (absolute where the reference is 0)."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = np.where(reference == 0.0, 1.0, np.abs(reference))
    return float(np.max(np.abs(value - reference) / scale))


def stationary_covariance(a: np.ndarray, b: tuple[float, float]) -> np.ndarray:
    """Solve A S + S A^T + diag(b)^2 = 0 as a 4x4 Kronecker system."""
    eye = np.eye(2)
    lhs = np.kron(eye, a) + np.kron(a, eye)
    rhs = -np.diag(np.square(b)).ravel(order="F")
    return np.linalg.solve(lhs, rhs).reshape(2, 2, order="F")


def moment_trajectory(a: np.ndarray, b, mu0, sigma0, times: np.ndarray):
    """Exact mean and covariance of dX = A X dt + diag(b) dW at the given times.

    A must have one repeated eigenvalue l with a nilpotent remainder N, as the
    reference model does, so that e^{At} = e^{lt} (I + N t) in closed form.
    Returns mu (len(times), 2) and sigma (len(times), 2, 2).
    """
    lam = np.trace(a) / 2.0
    nil = a - lam * np.eye(2)
    if not np.allclose(nil @ nil, 0.0, atol=1e-14):
        raise ValueError("moment_trajectory needs a drift matrix with one repeated eigenvalue")
    expm = np.exp(lam * times)[:, None, None] * (np.eye(2) + nil * times[:, None, None])
    s_inf = stationary_covariance(a, b)
    mu = expm @ np.asarray(mu0, dtype=float)
    sigma = expm @ (np.asarray(sigma0, dtype=float) - s_inf) @ expm.transpose(0, 2, 1) + s_inf
    return mu, sigma


def scaled_path_dev(path: np.ndarray, reference: np.ndarray) -> float:
    """Largest |path - reference| in units of the reference's standard deviation."""
    return float(np.max(np.abs(path - reference)) / np.std(reference))

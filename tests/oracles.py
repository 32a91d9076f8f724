"""Reference computations that the estimator's closed forms are checked against."""

from __future__ import annotations

import functools

import numpy as np
from scipy import linalg

from infoflow.estimator import (
    CovarianceStats,
    ModelEstimate,
    _checked,
    _checked_drift,
    _checked_noise,
)
from infoflow.series import _dot


def covariances_four_arrays(x1, x2, d1, d2) -> CovarianceStats:
    """The centred covariances with x1 and x2 centred, one difference series
    centred at a time and the products alive at once: the reference for the
    two work arrays of estimator._covariances, which must give its bits."""
    m = x1.shape[-1]
    w1, w2 = (x - x.mean(axis=-1, keepdims=True) for x in (x1, x2))
    sums = [_dot(w1, w1), _dot(w1, w2), _dot(w2, w2)]
    squares = []
    for d in (d1, d2):
        dc = d - d.mean(axis=-1, keepdims=True)
        sums += [_dot(w1, dc), _dot(w2, dc)]
        squares.append(_dot(dc, dc))
    c11, c12, c22, c1d1, c2d1, c1d2, c2d2, c_d1d1, c_d2d2 = (
        s / (m - 1) for s in sums + squares
    )
    cov = CovarianceStats(c11, c12, c22, c1d1, c2d1, c1d2, c2d2, m, c_d1d1, c_d2d2)
    return _checked(cov, x1, x2)


def fit_mle_whole_residuals(pair, cov) -> ModelEstimate:
    """fit_mle with b_hat from the sums of squares of both residual series:
    the two-pass reference for the closed-form residual sums of
    estimator.fit_mle, with f_hat and a_hat its bits and no residual floor."""
    _, a11, a12, a21, a22 = _checked_drift(cov)
    mean_x1, mean_x2 = pair.x1w.mean(axis=-1), pair.x2w.mean(axis=-1)
    f1 = pair.d1.mean(axis=-1) - a11 * mean_x1 - a12 * mean_x2
    f2 = pair.d2.mean(axis=-1) - a21 * mean_x1 - a22 * mean_x2
    col = functools.partial(np.expand_dims, axis=-1)
    r1 = pair.d1 - (col(f1) + col(a11) * pair.x1w + col(a12) * pair.x2w)
    r2 = pair.d2 - (col(f2) + col(a21) * pair.x1w + col(a22) * pair.x2w)
    q1, q2 = _dot(r1, r1), _dot(r2, r2)
    return ModelEstimate(
        f1, f2, a11, a12, a21, a22, np.sqrt(q1 * pair.dt / pair.m), np.sqrt(q2 * pair.dt / pair.m)
    )


def observed_information(pair, model, component: int = 1) -> np.ndarray:
    """Observed information over theta = (f_i, a_i1, a_i2, b_i) at the MLE.

    The 4x4 matrix of negated second derivatives of the summed per-step log
    transition density, assembled analytically. Its (f, a_i1, a_i2) block is
    (dt / b_i**2) times the Gram matrix of (1, x1, x2); the b-row couplings
    involve the residual sums and vanish up to rounding at the MLE. It is the
    reference for the closed-form standard errors of fisher_ci, which are its
    inverse's cross-drift entries.
    """
    if component == 1:
        b, f, ai1, ai2, di = model.b1_hat, model.f1_hat, model.a11_hat, model.a12_hat, pair.d1
    else:
        b, f, ai1, ai2, di = model.b2_hat, model.f2_hat, model.a21_hat, model.a22_hat, pair.d2
    _checked_noise(b)
    resid = di - (f + ai1 * pair.x1w + ai2 * pair.x2w)
    m, dt = pair.m, pair.dt
    w1, w2 = pair.x1w, pair.x2w
    c = dt / b**2
    d = 2.0 * dt / b**3
    ni = np.empty((4, 4))
    ni[0, 0] = m * c
    ni[0, 1] = c * float(w1.sum())
    ni[0, 2] = c * float(w2.sum())
    ni[1, 1] = c * float(w1 @ w1)
    ni[1, 2] = c * float(w1 @ w2)
    ni[2, 2] = c * float(w2 @ w2)
    ni[0, 3] = d * float(resid.sum())
    ni[1, 3] = d * float(resid @ w1)
    ni[2, 3] = d * float(resid @ w2)
    ni[3, 3] = 3.0 * dt / b**4 * float(resid @ resid) - m / b**2
    idx = np.tril_indices(4, -1)
    ni[idx] = ni.T[idx]
    return ni


def exact_moments(model, mu0, sigma0, times: np.ndarray):
    """Exact mean and covariance of an unforced model whose drift has one repeated eigenvalue.

    With A = lam I + N and N nilpotent, e^{At} = e^{lam t} (I + N t) in closed
    form, so mu(t) = e^{At} mu0 and Sigma(t) = e^{At} (Sigma0 - S) e^{A^T t} + S,
    where S is the stationary covariance from scipy's Lyapunov solver. The
    reference model (a = [[-1, 0.5], [0, -1]], f = 0) has this form. Returns
    mu (len(times), 2) and sigma (len(times), 2, 2).
    """
    a = np.asarray(model.a)
    lam = np.trace(a) / 2.0
    nil = a - lam * np.eye(2)
    if np.any(model.f != 0) or np.any(nil @ nil != 0):
        raise ValueError("exact_moments needs f = 0 and a drift with one repeated eigenvalue")
    expm = np.exp(lam * times)[:, None, None] * (np.eye(2) + nil * times[:, None, None])
    s_inf = linalg.solve_continuous_lyapunov(a, -np.diag([model.b1**2, model.b2**2]))
    mu = expm @ np.asarray(mu0, dtype=float)
    sigma = expm @ (np.asarray(sigma0, dtype=float) - s_inf) @ expm.transpose(0, 2, 1) + s_inf
    return mu, sigma


def euler_path(model, x0, dt: float, dw: np.ndarray) -> tuple[list[float], list[float]]:
    """The forward-Euler path of model from x0 over increments dw (n, 2), on Python floats.

    X[n+1] = X[n] + (f + A X[n]) dt + diag(b1, b2) dW[n], evaluated term by
    term in the kernels' order with every coefficient a plain float, so a
    kernel that follows the rule gives these bits exactly. Returns the two
    coordinates' n + 1 values.
    """
    f1, f2 = model.f.tolist()
    (a11, a12), (a21, a22) = model.a.tolist()
    b1, b2 = float(model.b1), float(model.b2)
    x1, x2 = float(x0[0]), float(x0[1])
    path1, path2 = [x1], [x2]
    for w1, w2 in dw.tolist():
        x1, x2 = (
            x1 + (f1 + a11 * x1 + a12 * x2) * dt + b1 * w1,
            x2 + (f2 + a21 * x1 + a22 * x2) * dt + b2 * w2,
        )
        path1.append(x1)
        path2.append(x2)
    return path1, path2

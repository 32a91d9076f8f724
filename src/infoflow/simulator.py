"""Sample-path generation for 2-D linear SDEs (forward Euler with Gaussian
increments of variance dt)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState
from .kernels import euler_path_2d
from .series import TimeSeries
from .theory import LinearModel2D

__all__ = ["SimConfig", "simulate"]


@dataclass(frozen=True)
class SimConfig:
    """One path-generation experiment: model, start point, grid, seed."""

    model: LinearModel2D
    x0: tuple[float, float]
    dt: float
    n_steps: int
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be a positive finite real, got {self.dt}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        if not all(math.isfinite(v) for v in self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")


def simulate(cfg: SimConfig) -> tuple[TimeSeries, TimeSeries]:
    """Generate one sample path of length n_steps + 1 starting at t = 0.

    X[n+1] = X[n] + (f + A X[n]) dt + diag(b1, b2) dW[n], with dW drawn as
    sqrt(dt) times standard normals from a PCG64 generator seeded with
    cfg.seed; identical configs give bit-identical paths.
    """
    rng = np.random.default_rng(cfg.seed)
    dw = rng.standard_normal((cfg.n_steps, 2)) * math.sqrt(cfg.dt)
    out1 = np.empty(cfg.n_steps + 1)
    out2 = np.empty(cfg.n_steps + 1)
    (a11, a12), (a21, a22) = cfg.model.a
    euler_path_2d(
        out1,
        out2,
        np.ascontiguousarray(dw[:, 0]),
        np.ascontiguousarray(dw[:, 1]),
        cfg.model.f[0],
        cfg.model.f[1],
        a11,
        a12,
        a21,
        a22,
        cfg.model.b1,
        cfg.model.b2,
        cfg.dt,
        cfg.x0[0],
        cfg.x0[1],
    )
    finite = np.isfinite(out1) & np.isfinite(out2)
    if not finite.all():
        step = int(np.flatnonzero(~finite)[0])
        raise NonFiniteState(f"path left the finite range at step {step}", step=step)
    return (
        TimeSeries(out1, cfg.dt, 0.0, "x1"),
        TimeSeries(out2, cfg.dt, 0.0, "x2"),
    )


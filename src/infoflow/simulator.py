"""Sample-path generation for 2-D linear SDEs (forward Euler with Gaussian
increments of variance dt)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState
from .kernels import euler_path_2d
from .series import TimeSeries, _check_dt
from .theory import LinearModel2D

__all__ = ["SimConfig", "simulate"]

# Steps per noise draw and kernel call in simulate.
CHUNK_STEPS = 8192


@dataclass(frozen=True)
class SimConfig:
    """One path-generation experiment: model, start point, grid, seed."""

    model: LinearModel2D
    x0: tuple[float, float]
    dt: float
    n_steps: int
    seed: int

    def __post_init__(self):
        _check_dt(self.dt)
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        if not all(math.isfinite(v) for v in self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")


def simulate(cfg: SimConfig) -> tuple[TimeSeries, TimeSeries]:
    """Generate one sample path of length n_steps + 1 starting at t = 0.

    X[n+1] = X[n] + (f + A X[n]) dt + diag(b1, b2) dW[n], with dW drawn as
    sqrt(dt) times standard normals from a PCG64 generator seeded with
    cfg.seed; identical configs give bit-identical paths.

    The noise is drawn and the kernel run CHUNK_STEPS steps at a time, each
    chunk starting from the last state of the one before, so the working
    memory beyond the result is one chunk's on either kernel. Successive
    draws continue the one (n_steps, 2) stream and the state crosses each
    boundary as an exact float64, so the path has the bits of a single call.
    The two result columns go to TimeSeries without a copy. Integration
    stops at the first chunk that leaves the finite range.
    """
    rng = np.random.default_rng(cfg.seed)
    sqrt_dt = math.sqrt(cfg.dt)
    n = cfg.n_steps
    out1 = np.empty(n + 1)
    out2 = np.empty(n + 1)
    out1[0], out2[0] = cfg.x0
    (f1, f2), ((a11, a12), (a21, a22)) = cfg.model.f, cfg.model.a
    for start in range(0, n, CHUNK_STEPS):
        k = min(CHUNK_STEPS, n - start)
        dw = rng.standard_normal((k, 2)) * sqrt_dt
        p1 = out1[start : start + k + 1]
        p2 = out2[start : start + k + 1]
        euler_path_2d(
            p1,
            p2,
            np.ascontiguousarray(dw[:, 0]),
            np.ascontiguousarray(dw[:, 1]),
            f1,
            f2,
            a11,
            a12,
            a21,
            a22,
            cfg.model.b1,
            cfg.model.b2,
            cfg.dt,
            p1[0],
            p2[0],
        )
        finite = np.isfinite(p1) & np.isfinite(p2)
        if not finite.all():
            step = start + int(np.flatnonzero(~finite)[0])
            raise NonFiniteState(f"path left the finite range at step {step}", step=step)
    out1.setflags(write=False)  # fresh arrays: TimeSeries keeps them without a copy
    out2.setflags(write=False)
    return (
        TimeSeries(out1, cfg.dt, 0.0, "x1"),
        TimeSeries(out2, cfg.dt, 0.0, "x2"),
    )

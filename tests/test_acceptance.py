"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from infoflow import (
    CollinearSeries,
    GridField,
    SimConfig,
    TimeSeries,
    align,
    analytic_flows,
    covariances,
    fisher_ci,
    fit_mle,
    flow,
    map_flows,
    reference_model,
    simulate,
    stationary_covariance,
    window,
)
from infoflow.validate import FIXTURE_SEEDS, run_second_system, run_table1

from conftest import make_pair
from oracles import observed_information
from test_fieldmap import DT as FIELD_DT
from test_fieldmap import coupled_fixture

# Second-system runs are statistically stable at span 2000; plain consecutive
# seeds suffice.
SECOND_SYSTEM_SEEDS = tuple(range(10))


@contextmanager
def criterion(number: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({name}): FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.1f}s]", flush=True)


def test_criterion_1_analytic_ground_truth():
    with criterion(1, "analytic ground truth"):
        model = reference_model()
        t21, t12 = analytic_flows(model, stationary_covariance(model))
        assert abs(t21 - 0.1111) <= 1e-4
        assert t12 == 0.0


def test_criterion_2_table1_reproduction():
    with criterion(2, "coupled-system band matrix, 10 fixture seeds"):
        started = time.perf_counter()
        passes: dict[str, int] = {}
        totals: dict[str, int] = {}
        for seed in FIXTURE_SEEDS:
            for row in run_table1(seed):
                if row.passed is None:
                    continue
                totals[row.name] = totals.get(row.name, 0) + 1
                passes[row.name] = passes.get(row.name, 0) + int(row.passed)
        assert totals and all(total == len(FIXTURE_SEEDS) for total in totals.values())
        for name, total in totals.items():
            assert passes[name] >= 9, f"band {name!r}: {passes[name]}/{total} seeds"
        assert time.perf_counter() - started < 60.0


def test_criterion_3_noise_dominated_system():
    with criterion(3, "noise-dominated system, 10 seeds"):
        started = time.perf_counter()
        passes: dict[str, int] = {}
        for seed in SECOND_SYSTEM_SEEDS:
            for row in run_second_system(seed):
                passes[row.name] = passes.get(row.name, 0) + int(bool(row.passed))
        for name, count in passes.items():
            assert count >= 9, f"{name!r}: {count}/10 seeds"
        assert time.perf_counter() - started < 60.0


def _brute_force_covariance(a, b):
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    acc = 0.0
    for x, y in zip(a, b):
        acc += (x - ma) * (y - mb)
    return acc / (n - 1)


def _random_series(rng, n):
    kind = rng.integers(0, 3)
    if kind == 0:
        return rng.standard_normal(n)
    if kind == 1:
        return np.cumsum(rng.standard_normal(n))
    return np.cumsum(rng.standard_normal(n)) + 3.0 * rng.standard_normal(n)


def test_criterion_4_oracle_equivalence():
    with criterion(4, "oracle equivalence on 1000 random series"):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(8, 41))
            pair = make_pair(
                _random_series(rng, n), _random_series(rng, n), dt=float(rng.uniform(0.05, 2.0))
            )
            try:
                cov = covariances(pair)
                t21, t12 = flow(cov)
                model = fit_mle(pair, cov)
            except CollinearSeries:
                continue
            checked += 1
            lhs21 = (cov.c12 / cov.c11) * model.a12_hat
            lhs12 = (cov.c12 / cov.c22) * model.a21_hat
            assert abs(t21 - lhs21) <= 1e-12 * max(1.0, abs(t21))
            assert abs(t12 - lhs12) <= 1e-12 * max(1.0, abs(t12))
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
                want = _brute_force_covariance(pa, pb)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(got), abs(want))


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def test_criterion_5_invariance_suite():
    with criterion(5, "scale/shift/swap invariances, 750 cases"):
        rng = np.random.default_rng(77)
        mismatch = lambda p, q: not (_close(p[0], q[0], 1e-10) and _close(p[1], q[1], 1e-10))
        for _ in range(250):
            n = int(rng.integers(16, 64))
            v1 = np.cumsum(rng.standard_normal(n))
            v2 = np.cumsum(rng.standard_normal(n))
            dt = float(rng.uniform(0.05, 2.0))
            base = flow(covariances(make_pair(v1, v2, dt=dt)))

            alpha = float(rng.choice([-1, 1]) * rng.uniform(0.1, 10.0))
            beta = float(rng.choice([-1, 1]) * rng.uniform(0.1, 10.0))
            scaled = flow(covariances(make_pair(alpha * v1, beta * v2, dt=dt)))
            assert not mismatch(base, scaled), f"scale invariance: {base} vs {scaled}"

            c1, c2 = rng.uniform(-100.0, 100.0, size=2)
            shifted = flow(covariances(make_pair(v1 + c1, v2 + c2, dt=dt)))
            assert not mismatch(base, shifted), f"shift invariance: {base} vs {shifted}"

            swapped = flow(covariances(make_pair(v2, v1, dt=dt)))
            assert swapped == (base[1], base[0])


def test_criterion_5_fisher_se_invariance(reference_path):
    # The Fisher standard errors, like the flows, must not see a constant
    # offset or a change of units. At offset 1e7 the input itself is rounded
    # to ~1e-9, which moves t21 by a few 1e-9 relative; 1e-7 leaves a margin
    # over that and over the ~1e-15 of the unshifted arithmetic.
    with criterion(5, "Fisher SE offset/unit invariance, seed-149 t=10-20"):
        x1, x2 = reference_path
        w1, w2 = window(x1, 10.0, 20.0), window(x2, 10.0, 20.0)

        def estimate(v1, v2):
            pair = make_pair(v1, v2, dt=w1.dt)
            cov = covariances(pair)
            return fisher_ci(pair, fit_mle(pair, cov), cov)

        base = estimate(w1.values, w2.values)
        variants = {f"offset {c:g}": (w1.values + c, w2.values + c) for c in (1e3, 1e6, 1e7)}
        variants["units x1*1e3, x2*-1e-2"] = (1e3 * w1.values, -1e-2 * w2.values)
        for name, (v1, v2) in variants.items():
            est = estimate(v1, v2)
            for key in ("t21", "t12", "se21", "se12"):
                assert getattr(est, key) == pytest.approx(getattr(base, key), rel=1e-7), (name, key)


def _log_likelihood_component1(pair, theta):
    """Independent restatement of the summed per-step log transition density
    for component 1 (theta-independent constants dropped)."""
    f, a1, a2, b = theta
    resid = pair.d1 - (f + a1 * pair.x1w + a2 * pair.x2w)
    return -pair.m * np.log(b) - pair.dt / (2.0 * b**2) * float(resid @ resid)


def _fd_hessian(fn, theta, steps):
    k = len(theta)
    h = np.asarray(steps)
    out = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            if i == j:
                tp = theta.copy()
                tm = theta.copy()
                tp[i] += h[i]
                tm[i] -= h[i]
                out[i, i] = (fn(tp) - 2.0 * fn(theta) + fn(tm)) / h[i] ** 2
            else:
                tpp = theta.copy()
                tpm = theta.copy()
                tmp = theta.copy()
                tmm = theta.copy()
                tpp[[i, j]] += [h[i], h[j]]
                tpm[i] += h[i]
                tpm[j] -= h[j]
                tmp[i] -= h[i]
                tmp[j] += h[j]
                tmm[[i, j]] -= [h[i], h[j]]
                out[i, j] = out[j, i] = (fn(tpp) - fn(tpm) - fn(tmp) + fn(tmm)) / (
                    4.0 * h[i] * h[j]
                )
    return out


def test_criterion_6_fisher_block_identity():
    with criterion(6, "information-matrix block identity + FD Hessian"):
        x1, x2 = simulate(SimConfig(reference_model(), (1.0, 2.0), 0.01, 2000, seed=42))
        pair = align(x1, x2)
        cov = covariances(pair)
        model = fit_mle(pair, cov)
        ni = observed_information(pair, model, component=1)

        design = np.column_stack([np.ones(pair.m), pair.x1w, pair.x2w])
        gram = design.T @ design
        expected_block = pair.dt / model.b1_hat**2 * gram
        assert np.allclose(ni[:3, :3], expected_block, rtol=1e-8)

        theta = np.array([model.f1_hat, model.a11_hat, model.a12_hat, model.b1_hat])
        steps = 1e-4 * np.maximum(np.abs(theta), [1.0, 1.0, 1.0, model.b1_hat])
        fd = -_fd_hessian(lambda t: _log_likelihood_component1(pair, t), theta, steps)
        norm = np.linalg.norm(ni)
        assert np.linalg.norm(fd - ni) <= 1e-5 * norm


def test_criterion_7_null_causality():
    with criterion(7, "null flow toward the driver, 50 runs"):
        model = reference_model()
        quiet = 0
        for seed in range(50):
            x1, x2 = simulate(SimConfig(model, (1.0, 2.0), 1e-3, 200_000, seed))
            pair = align(window(x1, 5.0, 200.0), window(x2, 5.0, 200.0))
            cov = covariances(pair)
            est = fisher_ci(pair, fit_mle(pair, cov), cov, alpha=0.05)
            if not est.significant12():
                quiet += 1
        assert quiet >= 45, f"flow toward the driver significant too often: {50 - quiet}/50"


def test_criterion_8_field_map():
    with criterion(8, "field map: coupling pattern + single-cell reduction"):
        index, field, coupled = coupled_fixture(seed=0)
        fm = map_flows(index, field, alpha=0.05)
        unmasked = field.mask
        assert np.all(fm.t_index_to_field[coupled & unmasked] > 0)
        assert np.all(fm.significant_index_to_field[coupled & unmasked])
        n_cells = int(unmasked.sum())
        quiet = int((~fm.significant_field_to_index[unmasked]).sum())
        assert quiet >= 0.9 * n_cells

        cell = field.values[:, 0:1, 0:1]
        single = GridField(values=cell, dt=FIELD_DT, mask=np.ones((1, 1), dtype=bool))
        fm_single = map_flows(index, single, alpha=0.05)
        pair = align(index, TimeSeries(cell[:, 0, 0], FIELD_DT))
        cov = covariances(pair)
        est = fisher_ci(pair, fit_mle(pair, cov), cov, alpha=0.05)
        assert fm_single.t_index_to_field[0, 0] == est.t12
        assert fm_single.t_field_to_index[0, 0] == est.t21
        assert bool(fm_single.significant_index_to_field[0, 0]) == est.significant12()
        assert bool(fm_single.significant_field_to_index[0, 0]) == est.significant21()

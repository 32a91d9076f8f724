"""Covariance statistics, linear-model MLE, information-flow rates, and CIs.

The flow rate from x2 to x1 is

    t21 = (C12 / C11) * (-C12 * C1d1 + C11 * C2d1) / (C11 * C22 - C12**2)

in nats per unit time, where Cij are the sample covariances of the two series
on the aligned window and Cidj their covariances with the forward-difference
series. The second factor is exactly the least-squares estimate of the
cross-drift coefficient a12 of the underlying 2-D linear SDE, so t21 equals
(C12 / C11) * a12_hat bitwise. t12 is the same construction with the series
roles switched.

The Fisher standard error is likewise a closed form in the same centred
covariances,

    se21 = |C12 / C11| * b1_hat * sqrt(C11 / (dt * (m-1) * (C11 * C22 - C12**2)))

with b1_hat the residual noise level of the x1 equation, so it does not depend
on a constant offset of either series. b1_hat comes from the same statistic:
by the normal equations the residual sum of squares of the x1 equation is

    q1 = (m-1) * (Cd1d1 - (a11_hat * C1d1 + a12_hat * C2d1))

with Cd1d1 the variance of the difference series d1 (q2 likewise), so no
estimate reads the data past covariances() and the means. The subtraction
cancels when drift dominates noise: q1 carries a rounding error of about
5 * eps * (m-1) * Cd1d1, and at or below RESIDUAL_FLOOR times that sum q1 is
taken as exactly zero (SingularFisher in fisher_ci). The pair pipeline, the
field map and the validation harness go through covariances() and the one
drift closed form in _drift(), with the floors in _checked(), _varied(),
_independent() and _residual_sum().

covariances(), fit_mle() and fisher_ci() also take a stacked pair (see _floor):
each result field then holds one entry per row, with the bits of that row's
pair alone. Each square is a product c * c, as in the pair, and each floor a
condition that must hold, which a NaN or a covariance that is not finite fails.

The moving-block bootstrap takes each resample's covariances from prefix sums
of the centred series and their products, in O(m/L) per resample for block
length L (see bootstrap_ci); _varied() with the prefix sums' rounding
floor, _independent() and _drift() then act elementwise on arrays of resamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist

import numpy as np

from .errors import (
    CollinearSeries,
    DegenerateSeries,
    SingularFisher,
    WindowTooShort,
)
from .series import AlignedPair, StationaryWindow, detrend_values

# Relative determinant floor: below det <= DET_FLOOR * c11 * c22 the two
# series are treated as collinear instead of producing an unstable flow.
DET_FLOOR = 1e-12

# Relative residual floor: a residual sum of squares q_i at or below
# RESIDUAL_FLOOR * (m-1) * c_didi is rounding noise of its closed form (whose
# error is about 5 * eps * (m-1) * c_didi) and is taken as exactly zero.
# Above it, b_hat keeps about six significant digits or more.
RESIDUAL_FLOOR = 1e-9

_EPS = np.finfo(float).eps

# A bootstrap resample's variance, taken from prefix sums of squares that reach
# (m-1) times the full-sample variance, carries a rounding error of up to about
# m * eps times that variance. At or below _PREFIX_FLOOR * m times it, a resample
# variance is rounding noise around zero (see _varied).
_PREFIX_FLOOR = 4 * _EPS


class Variant(str, Enum):
    STATIONARY = "stationary"
    NONSTATIONARY_STAR = "nonstationary_star"


@dataclass(frozen=True)
class CovarianceStats:
    """The centred sample covariances on the aligned window (divisor m-1).

    c11, c12 and c22 are those of the series x1 and x2; cidj is that of xi
    with the difference series dj, and c_djdj the variance of dj, which only
    fit_mle() reads. The bootstrap fills the fields with arrays, one entry
    per resample, and leaves c_d1d1 and c_d2d2 None; a stacked pair has one
    entry per row.
    """

    c11: float
    c12: float
    c22: float
    c1d1: float
    c2d1: float
    c1d2: float
    c2d2: float
    m: int
    c_d1d1: float | None = None
    c_d2d2: float | None = None

    @property
    def det(self) -> float:
        return self.c11 * self.c22 - self.c12 * self.c12


@dataclass(frozen=True)
class ModelEstimate:
    """MLE of the linear SDE dX = (f + A X) dt + diag(b1, b2) dW."""

    f1_hat: float
    f2_hat: float
    a11_hat: float
    a12_hat: float
    a21_hat: float
    a22_hat: float
    b1_hat: float
    b2_hat: float


@dataclass(frozen=True)
class FlowEstimate:
    """Both flow rates with standard errors and confidence intervals.

    Fisher intervals are symmetric t +- z(alpha) * se; bootstrap intervals are
    percentile intervals and se is the bootstrap standard deviation.
    n_discarded counts bootstrap resamples redrawn as degenerate or collinear,
    and block_len is the bootstrap's block length (None for Fisher).
    """

    t21: float
    t12: float
    se21: float
    se12: float
    ci21: tuple[float, float]
    ci12: tuple[float, float]
    alpha: float
    variant: Variant
    m: int
    dt: float
    n_discarded: int = 0
    block_len: int | None = None

    def significant21(self) -> bool:
        return (self.ci21[0] > 0) | (self.ci21[1] < 0)

    def significant12(self) -> bool:
        return (self.ci12[0] > 0) | (self.ci12[1] < 0)


def covariances(pair: AlignedPair) -> CovarianceStats:
    """Centered two-pass sample covariances on the aligned window."""
    return _covariances(pair.x1w, pair.x2w, pair.d1, pair.d2)


def _covariances(x1, x2, d1, d2) -> CovarianceStats:
    """covariances() of the series x1, x2 and their differences d1, d2.

    The inputs are not modified. Each of the nine products centres its two
    series into two work arrays, each the size of the largest input, and is
    formed in place in the one of them that has the product's broadcast
    shape, so the products of a map block's 1-D index stay 1-D. The two work
    arrays are all this allocates.
    """
    m = x1.shape[-1]
    terms = [(x, x.mean(axis=-1, keepdims=True)) for x in (x1, x2, d1, d2)]
    work = np.empty((2, max(x.size for x, _ in terms)))

    def centred(t, w):
        x, mean = terms[t]
        return np.subtract(x, mean, out=work[w, : x.size].reshape(x.shape))

    def total(s, t):
        a = centred(s, 0)
        b = a if s == t else centred(t, 1)
        out = a if a.shape == np.broadcast_shapes(a.shape, b.shape) else b
        return np.add.reduce(np.multiply(a, b, out=out), axis=-1) / (m - 1)

    pairs = ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 2), (3, 3))
    c = [total(s, t) for s, t in pairs]
    return _checked(CovarianceStats(*c[:7], m, *c[7:]), x1, x2)


def _checked(cov: CovarianceStats, x1, x2) -> CovarianceStats:
    """cov, the covariances of x1 and x2, if each of them and det is finite and
    c11, c22 are above _mean_rounding_floor: else DegenerateSeries, or NaN rows (_floor)."""
    keep = _finite("covariances", dict(vars(cov), det=cov.det))  # and m, which is finite
    floors = (_mean_rounding_floor(x) for x in (x1, x2))
    keep = keep * _floor(_varied(cov.c11, cov.c22, *floors), DegenerateSeries,
                         lambda: f"degenerate variance: c11={cov.c11}, c22={cov.c22}")
    return CovarianceStats(**{k: v * keep for k, v in vars(cov).items() if k != "m"}, m=cov.m)


def _finite(what: str, values: dict):
    """The factor of _floor() for values (name -> value), each of which must be finite."""
    finite = np.logical_and.reduce(np.broadcast_arrays(*map(np.isfinite, values.values())))
    return _floor(finite, DegenerateSeries, lambda: f"{what} not finite: " + ", ".join(
        f"{k}={v}" for k, v in values.items() if not np.isfinite(v)))


def _mean_rounding_floor(x: np.ndarray):
    """(m * eps * max|x|)**2: the variance of a constant series x, at most.

    The computed mean of x is off from the true one by at most about
    m * eps * max|x|, so a constant series centres to values no larger and
    its variance comes out no larger than the square. One floor per row.
    """
    error = x.shape[-1] * _EPS * np.maximum(x.max(axis=-1), -x.min(axis=-1))
    return error * error


def _floor(ok, error, message):
    """1.0 where a numerical floor holds (ok); NaN in the rows of a stack that fail it.

    One pair that fails raises error(message()) instead. A failing row of a
    stack stays NaN through every later step, so its significance flags are False.
    """
    if np.ndim(ok):
        return np.where(ok, 1.0, np.nan)
    if not ok:
        raise error(message())
    return 1.0


def _varied(c11, c22, floor11, floor22):
    """Whether both variances are above their floors (elementwise over a batch).

    The floors are the rounding error of the path that computed c11, c22: for
    covariances() that of the centring (_mean_rounding_floor), for bootstrap
    resamples _PREFIX_FLOOR * m times the full-sample variance, that of
    their prefix sums. A constant series need not give an exactly zero
    variance on either path.
    """
    return (c11 > floor11) & (c22 > floor22)


def _independent(cov: CovarianceStats):
    """Whether det is above the collinearity floor (elementwise over a batch)."""
    return cov.det > DET_FLOOR * cov.c11 * cov.c22


def _checked_drift(cov: CovarianceStats) -> tuple[float, float, float, float, float]:
    """_drift() under the collinearity floor and finite: CollinearSeries or
    DegenerateSeries, or NaN rows (_floor)."""
    keep = _floor(_independent(cov), CollinearSeries,
                  lambda: f"covariance determinant {cov.det} below the collinearity floor")
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = _drift(cov)
    keep = keep * _finite("drift", dict(zip(("det", "a11", "a12", "a21", "a22"), drift)))
    return tuple(v * keep for v in drift)


def _drift(cov: CovarianceStats) -> tuple[float, float, float, float, float]:
    """(det, a11, a12, a21, a22): the drift-matrix closed forms.

    flow(), fit_mle(), fisher_ci() and the bootstrap all take the drift from
    here, so that t21 == (c12/c11) * a12_hat holds bitwise. It is elementwise
    over a batch of covariances; collinear entries must be excluded first
    (_checked_drift for a pair, a mask for bootstrap resamples).
    """
    det = cov.det
    a11 = (cov.c22 * cov.c1d1 - cov.c12 * cov.c2d1) / det
    a12 = (-cov.c12 * cov.c1d1 + cov.c11 * cov.c2d1) / det
    a21 = (-cov.c12 * cov.c2d2 + cov.c22 * cov.c1d2) / det
    a22 = (cov.c11 * cov.c2d2 - cov.c12 * cov.c1d2) / det
    return det, a11, a12, a21, a22


def fit_mle(pair: AlignedPair, cov: CovarianceStats) -> ModelEstimate:
    """Closed-form MLE of (f, A, B) from the decoupled normal equations.

    The intercepts take the pair's means; everything else comes from cov.
    Each residual sum of squares q_i is its closed form in cov
    (_residual_sum), so no array of m is formed. Its relative rounding error
    is about 5 * eps * (m-1) * c_didi / q_i: at most about 1e-6 just above
    RESIDUAL_FLOOR, at or below which b_hat is exactly 0.0. On both systems
    of validate.py (seeds 149 and 7, subsample 1 to 1000, offsets up to 1e7)
    b_hat was within 3e-15 of a long-double sum of the squared residuals,
    where the sum of the float residual series was off by up to 7e-10 at the
    largest offset.
    """
    _, a11, a12, a21, a22 = _checked_drift(cov)
    mean_x1, mean_x2 = pair.x1w.mean(axis=-1), pair.x2w.mean(axis=-1)
    f1 = pair.d1.mean(axis=-1) - a11 * mean_x1 - a12 * mean_x2
    f2 = pair.d2.mean(axis=-1) - a21 * mean_x1 - a22 * mean_x2
    q1 = _residual_sum(cov.c_d1d1, a11 * cov.c1d1 + a12 * cov.c2d1, cov.m)
    q2 = _residual_sum(cov.c_d2d2, a21 * cov.c1d2 + a22 * cov.c2d2, cov.m)
    dt = pair.dt
    return ModelEstimate(f1, f2, a11, a12, a21, a22,
                         np.sqrt(q1 * dt / pair.m), np.sqrt(q2 * dt / pair.m))


def _residual_sum(c_dd, explained, m):
    """The residual sum of squares (m-1) * (c_dd - explained) under RESIDUAL_FLOOR.

    c_dd is the variance of a difference series and explained the part of it
    the drift row fits (a_i1 * c1di + a_i2 * c2di, by the normal equations).
    At or below RESIDUAL_FLOOR * (m-1) * c_dd the result is 0.0, never -0.0;
    a NaN row of a stack stays NaN.
    """
    q = (m - 1) * (c_dd - explained)
    return np.where(q <= RESIDUAL_FLOOR * (m - 1) * c_dd, 0.0, q)


def flow(cov: CovarianceStats) -> tuple[float, float]:
    """Information-flow rates (t21, t12) in nats per unit time."""
    _, _, a12, a21, _ = _checked_drift(cov)
    return (cov.c12 / cov.c11) * a12, (cov.c12 / cov.c22) * a21


def _star_ratios(
    pair: AlignedPair, star_window: StationaryWindow, detrend_star: bool
) -> tuple[float, float]:
    """(c12*/c11*, c12*/c22*) computed on the stationary slab only."""
    if star_window.end_index > pair.m:
        raise WindowTooShort(
            f"star window [{star_window.start_index}, {star_window.end_index}) "
            f"exceeds the aligned sample of {pair.m} points"
        )
    slab = slice(star_window.start_index, star_window.end_index)
    w1, w2, d1, d2 = (a[..., slab] for a in (pair.x1w, pair.x2w, pair.d1, pair.d2))
    if detrend_star:
        w1, w2 = detrend_values(w1), detrend_values(w2)
    try:
        cov = _covariances(w1, w2, d1, d2)
    except DegenerateSeries as exc:
        raise DegenerateSeries(f"star window: {exc}") from None
    return cov.c12 / cov.c11, cov.c12 / cov.c22


def z_quantile(alpha: float) -> float:
    """Two-sided standard-normal quantile (1.959964 at alpha=0.05)."""
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def _checked_noise(b):
    """The factor of _floor() for a residual noise level b, which must be positive and finite."""
    return _floor((b > 0) & (b < np.inf), SingularFisher,
                  lambda: f"residual noise estimate b={b}; no likelihood curvature scale")


def fisher_ci(
    pair: AlignedPair,
    model: ModelEstimate,
    cov: CovarianceStats,
    alpha: float = 0.05,
    star_window: StationaryWindow | None = None,
    detrend_star: bool = False,
) -> FlowEstimate:
    """Flow rates with standard errors from the observed information.

    The standard deviations of the cross-drift coefficients are the Schur
    complement of the observed information in closed form,

        sigma_a12 = b1_hat * sqrt(c11 / (dt * (m-1) * det))
        sigma_a21 = b2_hat * sqrt(c22 / (dt * (m-1) * det)),

    built from centred covariances only, so they do not depend on a constant
    offset of either series. se21 = |c12/c11| * sigma_a12 and
    se12 = |c12/c22| * sigma_a21. A standard error that is not finite fails a
    floor (_finite): DegenerateSeries for a pair, a NaN row of a stack.

    These standard errors treat the ratios c12/c11 and c12/c22 as fixed, so
    they miss the ratios' sampling noise. On the reference system of
    validate.py (true t21 = 0.1111) the nominal 95% interval covered the true
    t21 in 58 of 100 uncurated seeds (10000-10099) at span 95 and in 60 of
    100 at span 195; the default-block bootstrap covered it in 62-63 of 100.

    With a star_window the nonstationary variant is used: the point estimates
    and the leading ratios in the standard errors come from the slab,
    while the coefficient uncertainty still reflects the full window.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    drift = _checked_drift(cov)
    keep = _checked_noise(model.b1_hat) * _checked_noise(model.b2_hat)
    det, _, a12, a21, _ = (v * keep for v in drift)
    # dt * (m-1) * det can underflow to 0 at the ends of the float range
    denom = pair.dt * (cov.m - 1) * det
    with np.errstate(divide="ignore"):
        sigma_a12 = model.b1_hat * np.sqrt(cov.c11 / denom)
        sigma_a21 = model.b2_hat * np.sqrt(cov.c22 / denom)
    if star_window is None:
        r21 = cov.c12 / cov.c11
        r12 = cov.c12 / cov.c22
        variant = Variant.STATIONARY
    else:
        r21, r12 = _star_ratios(pair, star_window, detrend_star)
        variant = Variant.NONSTATIONARY_STAR
    se21 = abs(r21) * sigma_a12
    se12 = abs(r12) * sigma_a21
    keep = _finite("standard errors", {"se21": se21, "se12": se12})
    t21, t12, se21, se12 = r21 * a12 * keep, r12 * a21 * keep, se21 * keep, se12 * keep
    z = z_quantile(alpha)
    return FlowEstimate(
        t21=t21,
        t12=t12,
        se21=se21,
        se12=se12,
        ci21=(t21 - z * se21, t21 + z * se21),
        ci12=(t12 - z * se12, t12 + z * se12),
        alpha=alpha,
        variant=variant,
        m=pair.m,
        dt=pair.dt,
    )


def default_block_len(m: int) -> int:
    """Moving-block default: ceil(m ** (1/3)) to respect temporal dependence."""
    return max(1, math.ceil(m ** (1.0 / 3.0)))


def bootstrap_ci(
    pair: AlignedPair,
    cov: CovarianceStats,
    alpha: float = 0.05,
    n_boot: int = 1000,
    block_len: int | None = None,
    seed: int = 0,
) -> FlowEstimate:
    """Moving-block bootstrap percentile intervals for both flow rates.

    cov is covariances(pair), as for fisher_ci(); the point flows t21 and
    t12 are flow(cov). Rows (x1, x2, d1, d2) are resampled jointly in
    contiguous blocks of block_len aligned indices; a resample is
    n_blocks = ceil(m / block_len) blocks with uniformly drawn starts, the
    last one cut to the m-th row. Resamples with a degenerate variance or
    collinear series are discarded and redrawn; the count is reported in
    n_discarded, and the block length used in block_len. A resample variance
    is degenerate at or below _PREFIX_FLOOR * m times the full-sample one,
    the rounding error of the prefix sums it comes from (see _varied).
    Deterministic for a fixed seed.

    A resample's covariances need only its sums S_a of the four series,
    centred on the full-sample means, and Q_ab of their seven products:
    c_ab = (Q_ab - S_a * S_b / m) / (m - 1). Each sum is a sum of n_blocks
    block sums, and each block sum a difference of two prefix sums, so a
    resample costs O(m / block_len) instead of O(m). Resamples go in chunks
    of about 8 * max(m, _GATHER_ELEMS) block starts (see _chunk_rows), each
    chunk building its eleven prefix columns once in O(m):
    O(m + n_boot * m / block_len) in all. Memory is O(m) whatever n_boot:
    the chunk's starts, held as int32, take as much as four float64 columns
    of m, and block sums are gathered a slice of rows, or of one row's
    blocks when a row is longer than a slice, at a time. The
    covariances then go through that floor, the collinearity floor and the
    drift closed form of flow(), elementwise. The random draws are those of
    one rng.integers(0, m - block_len + 1, size=n_blocks) call per resample,
    in order, and only as many are drawn as resamples are still missing.
    Neither the chunk nor the slice size changes a bit of the result. With
    block_len == m every resample is the sample itself.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if n_boot < 100:
        raise ValueError(f"n_boot must be >= 100, got {n_boot}")
    m = pair.m
    if block_len is None:
        block_len = default_block_len(m)
    if not 1 <= block_len <= m:
        raise ValueError(f"block_len must be in [1, {m}], got {block_len}")

    t21, t12 = flow(cov)

    t21s, t12s = np.empty(n_boot), np.empty(n_boot)
    n_discarded = 0
    n_blocks = -(-m // block_len)
    if n_blocks == 1:
        # block_len == m: every resample is the sample itself
        t21s[:] = t21
        t12s[:] = t12
    else:
        chunk, rows, cols = _chunk_rows(m, n_blocks)
        sums = _BlockSums(pair, block_len, n_blocks, min(chunk, n_boot), rows, cols)
        floors = (_PREFIX_FLOOR * m * cov.c11, _PREFIX_FLOOR * m * cov.c22)
        rng = np.random.default_rng(seed)
        max_draws = 10 * n_boot
        draws = 0
        i = 0
        while i < n_boot:
            if draws >= max_draws:
                raise CollinearSeries(
                    f"{n_discarded} of {draws} bootstrap resamples were collinear; giving up"
                )
            # draw only the deficit
            k = min(n_boot - i, max_draws - draws, chunk)
            starts = sums.draw(rng, k)
            draws += k
            boot = sums.covariances(starts)
            with np.errstate(divide="ignore", invalid="ignore"):
                b21, b12 = flow(boot)  # NaN where a floor of _checked_drift fails
            keep = _varied(boot.c11, boot.c22, *floors) & np.isfinite(b21) & np.isfinite(b12)
            n_keep = int(keep.sum())
            t21s[i : i + n_keep] = b21[keep]
            t12s[i : i + n_keep] = b12[keep]
            n_discarded += k - n_keep
            i += n_keep

    lo = 100.0 * alpha / 2.0
    hi = 100.0 * (1.0 - alpha / 2.0)
    ci21 = tuple(float(v) for v in np.percentile(t21s, [lo, hi]))
    ci12 = tuple(float(v) for v in np.percentile(t12s, [lo, hi]))
    return FlowEstimate(
        t21=t21,
        t12=t12,
        se21=float(t21s.std(ddof=1)),
        se12=float(t12s.std(ddof=1)),
        ci21=ci21,
        ci12=ci12,
        alpha=alpha,
        variant=Variant.STATIONARY,
        m=m,
        dt=pair.dt,
        n_discarded=n_discarded,
        block_len=block_len,
    )


# A chunk of resamples draws about 8 * max(m, _GATHER_ELEMS) block starts, so
# that building its eleven prefix columns, O(m) each, costs an eighth of its
# gathers; its block sums are gathered a quarter of max(m, _GATHER_ELEMS) at a
# time. Memory stays a few columns of m, independent of n_boot.
_GATHER_ELEMS = 1 << 16


def _chunk_rows(m: int, n_blocks: int) -> tuple[int, int, int]:
    """Resamples per bootstrap chunk and per gather slice, and blocks per slice of a row.

    A slice holds whole rows of n_blocks blocks or, when one row is longer
    than a slice, a slice of one row's blocks.
    """
    elems = max(m, _GATHER_ELEMS)
    return (
        max(1, 8 * elems // n_blocks),
        max(1, elems // (4 * n_blocks)),
        min(n_blocks, max(1, elems // 4)),
    )


def _index_dtype(n: int):
    """int32 if it holds every index up to n, else int64."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


class _BlockSums:
    """Covariances of moving-block resamples from prefix sums of per-row terms.

    A block of L rows starting at s sums a term to P[s + L] - P[s], with P
    the term's prefix sums; the last block of a resample is cut to `tail`
    rows. One prefix column is built at a time, into buffers allocated once;
    the block starts of up to `chunk` resamples are held in `starts`, and
    their block sums gathered `rows` resamples at a time, `cols` blocks of
    a row at a time.
    """

    def __init__(self, pair, block_len, n_blocks, chunk, rows, cols):
        m = self.m = pair.m
        self.series = [(x, x.mean()) for x in (pair.x1w, pair.x2w, pair.d1, pair.d2)]
        self.block_len = block_len
        self.tail = m - (n_blocks - 1) * block_len
        self.prefix = np.zeros(m + 1)
        rows = min(rows, chunk)
        self.work = np.empty(max(m, rows * n_blocks))
        # _totals gathers into work, whose centred series it no longer needs
        self.gathered = self.work[: rows * n_blocks].reshape(rows, n_blocks)
        self.cols = cols
        self.blocks = np.empty(m - block_len + 1)
        # a start plus `tail` indexes prefix up to m
        self.starts = np.empty((chunk, n_blocks), dtype=_index_dtype(m))

    def _slices(self, k):
        """(rows, column slices) of the starts of k resamples, a gather slice of rows at a time."""
        rows, n_blocks = self.gathered.shape
        cols = [slice(c, c + self.cols) for c in range(0, n_blocks, self.cols)]
        return ((slice(r, r + rows), cols) for r in range(0, k, rows))

    def draw(self, rng, k):
        """Block starts of the next k resamples.

        Drawn a slice at a time, straight in the dtype of starts, they are
        the stream of one rng.integers(0, n_starts, size=(k, n_blocks)) call.
        """
        starts = self.starts[:k]
        for rows, cols in self._slices(k):
            for c in cols:
                part = starts[rows, c]
                part[...] = rng.integers(0, self.blocks.size, size=part.shape, dtype=part.dtype)
        return starts

    def _centred(self, a, out):
        x, mean = self.series[a]
        return np.subtract(x, mean, out=out)

    def _totals(self, starts):
        """Sums over each resample's blocks of the term in prefix[1:].

        Turns prefix into the term's prefix sums (prefix[0] stays 0). Each
        row of gathered block sums is summed alone and whole, so the slicing
        changes no bit.
        """
        prefix, blocks, n = self.prefix, self.blocks, self.blocks.size
        np.cumsum(prefix[1:], out=prefix[1:])
        np.subtract(prefix[self.block_len : self.block_len + n], prefix[:n], out=blocks)
        totals = np.empty(len(starts))
        for rows, cols in self._slices(len(starts)):
            part_starts = starts[rows]
            gathered = self.gathered[: len(part_starts)]
            for c in cols:
                # starts are in range, so "clip" changes no index; "raise" would buffer out
                np.take(blocks, part_starts[:, c], out=gathered[:, c], mode="clip")
            last = part_starts[:, -1]
            gathered[:, -1] = prefix[last + self.tail] - prefix[last]
            gathered.sum(axis=1, out=totals[rows])
        return totals

    def covariances(self, starts) -> CovarianceStats:
        """CovarianceStats of the resamples with block starts (k, n_blocks)."""
        m = self.m
        term = self.prefix[1:]
        sums = []
        for a in range(4):
            self._centred(a, term)
            sums.append(self._totals(starts))

        def cov(a, b):
            np.multiply(self._centred(a, term), self._centred(b, self.work[:m]), out=term)
            return (self._totals(starts) - sums[a] * sums[b] / m) / (m - 1)

        return CovarianceStats(
            c11=cov(0, 0),
            c12=cov(0, 1),
            c22=cov(1, 1),
            c1d1=cov(0, 2),
            c2d1=cov(1, 2),
            c1d2=cov(0, 3),
            c2d2=cov(1, 3),
            m=m,
        )

"""Causality between two time series as a rate of information flow.

The flow rate from series x2 to series x1 (nats per unit time) is computed
in closed form from sample covariances; it is the plug-in estimate of the
entropy exchange within the best-fit 2-D linear SDE. Positive flow means the
source makes the target more uncertain, negative means it is stabilizing,
zero means not causal.

Typical use:

    from infoflow import align, covariances, fit_mle, fisher_ci

    pair = align(x1, x2)            # TimeSeries in, aligned sample out
    cov = covariances(pair)
    est = fisher_ci(pair, fit_mle(pair, cov), cov, alpha=0.05)
    est.t21, est.ci21               # flow x2 -> x1 with its 95% interval
"""

from .errors import (
    CollinearSeries,
    DegenerateSeries,
    DegenerateVariance,
    DtMismatch,
    EmptyFile,
    GridFormatError,
    InfoflowError,
    InputError,
    LengthMismatch,
    MissingColumn,
    NonFiniteState,
    NonFiniteValue,
    NotHurwitz,
    NonPositiveVariance,
    NumericalError,
    SingularFisher,
    TooShortAfterSubsample,
    WindowOutOfRange,
    WindowTooShort,
)
from .estimator import (
    CovarianceStats,
    FlowEstimate,
    ModelEstimate,
    Variant,
    bootstrap_ci,
    covariances,
    fisher_ci,
    fit_mle,
    flow,
)
from .fieldmap import FlowMap, GridField, load_grid, map_flows, write_flow_maps, write_grid
from .series import (
    AlignedPair,
    StationaryWindow,
    TimeSeries,
    align,
    load_csv,
    star_window_from_times,
    subsample,
    window,
)
from .simulator import SimConfig, simulate
from .theory import (
    LinearModel2D,
    MomentState,
    MomentTrajectory,
    analytic_flows,
    integrate_moments,
    stationary_covariance,
)
from .validate import (
    FIXTURE_SEEDS,
    noise_dominated_model,
    reference_model,
    run_validation,
)

__version__ = "0.1.0"

__all__ = [
    "AlignedPair",
    "CollinearSeries",
    "CovarianceStats",
    "DegenerateSeries",
    "DegenerateVariance",
    "DtMismatch",
    "EmptyFile",
    "FIXTURE_SEEDS",
    "FlowEstimate",
    "FlowMap",
    "GridField",
    "GridFormatError",
    "InfoflowError",
    "InputError",
    "LengthMismatch",
    "LinearModel2D",
    "MissingColumn",
    "ModelEstimate",
    "MomentState",
    "MomentTrajectory",
    "NonFiniteState",
    "NonFiniteValue",
    "NonPositiveVariance",
    "NotHurwitz",
    "NumericalError",
    "SimConfig",
    "SingularFisher",
    "StationaryWindow",
    "TimeSeries",
    "TooShortAfterSubsample",
    "Variant",
    "WindowOutOfRange",
    "WindowTooShort",
    "align",
    "analytic_flows",
    "bootstrap_ci",
    "covariances",
    "fisher_ci",
    "fit_mle",
    "flow",
    "integrate_moments",
    "load_csv",
    "load_grid",
    "map_flows",
    "noise_dominated_model",
    "reference_model",
    "run_validation",
    "simulate",
    "star_window_from_times",
    "stationary_covariance",
    "subsample",
    "window",
    "write_flow_maps",
    "write_grid",
]

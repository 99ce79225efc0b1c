"""Spatial diagnostics and fit metrics.

Local Moran's I classifies each unit by the signs of its own deviation and
of the spatially lagged deviation (High-High, Low-Low, High-Low, Low-High);
a unit with no neighbours has no lag to classify and is labelled
Neighborless, as in GeoDa's LISA maps. The per-unit statistics I_i sum to
S0 times the global Moran's I, sum_i I_i = S0 * I, where S0 is the total
weight of W (`SpatialWeights.total`). Fit metrics support trimming of the
largest squared residuals; the mean squared error is reported per retained
observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDataError, ValidationError
from .weights import SpatialWeights

QUADRANTS = ("High-High", "Low-Low", "High-Low", "Low-High")


@dataclass(frozen=True, eq=False)
class MoranReport:
    local_i: np.ndarray
    deviation: np.ndarray        # standardized response deviations
    spatial_lag: np.ndarray      # lag of the standardized deviations
    quadrant: tuple
    global_moran: float


def local_morans_i(Y, weights: SpatialWeights) -> MoranReport:
    """Per-unit Moran's I with cluster-quadrant labels (Neighborless for
    the units `weights.isolated` flags), and the global Moran's I, their
    sum over the total weight S0 of W."""
    y = np.asarray(Y, dtype=float).ravel()
    if weights.n != y.size:
        raise ValidationError("weights size must match response length")
    dev = y - y.mean()
    ss = float(dev @ dev)
    if ss <= 0:
        raise DegenerateDataError("response is constant; Moran's I undefined")
    s0 = weights.total()
    if s0 <= 0:
        raise ValidationError("weight matrix has zero total weight")
    n = y.size
    lag = weights.matvec(dev)
    local = n * dev * lag / ss
    sd = np.sqrt(ss / n)
    quad = tuple(
        "Neighborless" if alone
        else ("High" if d >= 0 else "Low") + "-" + ("High" if l >= 0 else "Low")
        for d, l, alone in zip(dev, lag, weights.isolated)
    )
    return MoranReport(
        local_i=local,
        deviation=dev / sd,
        spatial_lag=lag / sd,
        quadrant=quad,
        global_moran=float(local.sum() / s0),
    )


def global_moran(Y, weights: SpatialWeights) -> float:
    """Textbook global Moran: (n / S0) * sum_ij w_ij d_i d_j / sum_i d_i^2,
    as `local_morans_i` reports it."""
    return local_morans_i(Y, weights).global_moran


@dataclass(frozen=True, eq=False)
class MetricsReport:
    mse: float
    r2: float
    trim_fraction: float
    trimmed_indices: tuple
    n_used: int


def fit_metrics(Y, Y_hat, trim_fraction: float = 0.0) -> MetricsReport:
    """MSE and R^2 after discarding the largest squared residuals.

    trim_fraction iota in [0, 0.5) removes floor(iota * n) observations with
    the largest (Y - Y_hat)^2; both metrics are computed on the remainder,
    MSE as a mean over the retained observations.
    """
    y = np.asarray(Y, dtype=float).ravel()
    yh = np.asarray(Y_hat, dtype=float).ravel()
    if y.size != yh.size:
        raise ValidationError("Y and Y_hat must have equal length")
    if not 0.0 <= trim_fraction < 0.5:
        raise ValidationError("trim fraction must be in [0, 0.5)")
    n = y.size
    sq = (y - yh) ** 2
    n_trim = int(np.floor(trim_fraction * n))
    if n_trim > 0:
        drop = np.argsort(sq, kind="stable")[n - n_trim:]
    else:
        drop = np.array([], dtype=int)
    keep = np.setdiff1d(np.arange(n), drop)
    y_k, sq_k = y[keep], sq[keep]
    mse = float(sq_k.mean())
    denom = float(((y_k - y_k.mean()) ** 2).sum())
    r2 = 1.0 - float(sq_k.sum()) / denom if denom > 0 else np.nan
    return MetricsReport(
        mse=mse, r2=r2, trim_fraction=trim_fraction,
        trimmed_indices=tuple(int(i) for i in np.sort(drop)),
        n_used=int(keep.size),
    )

"""Partial least squares components for scalar-on-function regression,
classical and case-reweighted robust.

The functional problem reduces to multivariate PLS of Y on D = C G, where C
is the centered coefficient matrix and G the Gram square root. The robust
variant alternates weighted PLS with Hampel case weights built from scaled
residuals and score leverage, shrinking the influence of vertical outliers
and outlying curves. Spatial structure never enters the extraction: the
components are computed from (Y, D) alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, ValidationError
from .fpca import Decomposition, _check_k, _finish
from .functional import BasisSystem, CoefficientMatrix
from .mscale import DEFAULT_MSCALE, MScaleConfig, m_scale_info

_ZERO_COV_RTOL = 1e-12
# rfpls reweighting: iteration cap, and the relative change of the
# coefficient function below which it stops
_REWEIGHT_MAX_ITER = 50
_REWEIGHT_TOL = 1e-6


@dataclass(frozen=True)
class HampelConfig:
    """Three-part redescending weight cutoffs 0 < a < b < q; by default the
    standard normal quantiles at 0.95, 0.975 and 0.999."""

    a: float = 1.6448536269514722
    b: float = 1.959963984540054
    q: float = 3.090232306167813

    def __post_init__(self):
        if not 0 < self.a < self.b < self.q:
            raise ValidationError("Hampel cutoffs must satisfy 0 < a < b < q")


def hampel_weight(x, config: HampelConfig = HampelConfig()):
    """Hampel weight: 1, then a/|x|, then a/|x| * (q-|x|)/(q-b), then 0."""
    ax = np.abs(np.asarray(x, dtype=float))
    a, b, q = config.a, config.b, config.q
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(
            ax <= a, 1.0,
            np.where(
                ax <= b, a / ax,
                np.where(ax <= q, (a / ax) * (q - ax) / (q - b), 0.0),
            ),
        )
    return w if w.ndim else float(w)


@dataclass
class PlsState:
    """Internal PLS quantities kept for prediction and diagnostics."""

    directions: np.ndarray       # M x K weight vectors (orthonormal)
    components: np.ndarray       # n x K deflation-orthogonal components
    loadings_q: np.ndarray       # K response loadings
    weights: np.ndarray          # n case weights in [0, 1]
    y_center: float
    iterations: int = 1
    converged: bool = True
    residual_scale: float = np.nan


def _nipals(d: np.ndarray, y: np.ndarray, K: int):
    """PLS1 NIPALS with deflation of both the predictor block and y.

    Returns directions, components, response loadings, and the per-step
    covariance with the working response. Stops early if the working
    covariance vanishes before K components. The covariance |d^T y| is
    tested against |d| |y| at the start, and the component t = d w
    (|w| = 1) against |d|, so the stop does not depend on the units of the
    curves or of the response.
    """
    n = d.shape[0]
    d_norm = np.linalg.norm(d)
    scale0 = d_norm * np.linalg.norm(y)
    ws, ts, qs, covs = [], [], [], []
    truncated = False
    for _h in range(K):
        v = d.T @ y
        nv = np.linalg.norm(v)
        if nv <= _ZERO_COV_RTOL * scale0:
            truncated = True
            break
        w = v / nv
        t = d @ w
        tt = float(t @ t)
        if tt <= (_ZERO_COV_RTOL * d_norm) ** 2:
            truncated = True
            break
        covs.append(float(y @ t) / max(n - 1, 1))
        p = d.T @ t / tt
        q = float(y @ t) / tt
        d = d - np.outer(t, p)
        y = y - q * t
        ws.append(w)
        ts.append(t)
        qs.append(q)
    if not ws:
        raise NumericalError("response has no covariance with the curves")
    return (
        np.column_stack(ws), np.column_stack(ts), np.array(qs), np.array(covs),
        truncated,
    )


def fpls(coeff_matrix: CoefficientMatrix, basis: BasisSystem, Y, K: int) -> Decomposition:
    """Classical PLS components between the response and the curves."""
    a = coeff_matrix.coeffs
    y = np.asarray(Y, dtype=float).ravel()
    n, M = a.shape
    if y.size != n:
        raise ValidationError("response length must match coefficient rows")
    _check_k(K, n, M)
    center = a.mean(axis=0)
    y_center = float(y.mean())
    d = (a - center) @ basis.gram_sqrt
    W, T, q, covs, truncated = _nipals(d, y - y_center, K)
    state = PlsState(W, T, q, weights=np.ones(n), y_center=y_center)
    return _finish(W, covs**2, a, center, basis, "FPLS", state, truncated=truncated)


def _case_weights(e, scores, sigma, config: HampelConfig):
    """Residual weight times leverage weight, each from the Hampel curve."""
    if sigma <= 0:
        w_res = np.ones_like(e)
    else:
        w_res = hampel_weight(e / sigma, config)
    med = np.median(scores, axis=0)
    dist = np.linalg.norm(scores - med, axis=1)
    denom = float(np.median(dist))
    if denom <= 0:
        w_lev = np.ones_like(dist)
    else:
        w_lev = hampel_weight(dist / denom, config)
    return w_res * w_lev


def rfpls(
    coeff_matrix: CoefficientMatrix,
    basis: BasisSystem,
    Y,
    K: int,
    hampel_config: HampelConfig = HampelConfig(),
    m_scale_config: MScaleConfig = DEFAULT_MSCALE,
) -> Decomposition:
    """Robust PLS with iteratively reweighted cases.

    Alternates (1) weighted PLS on sqrt(r)-scaled data, (2) weighted
    regression of the response on the scores with an M-scale of the
    residuals, (3) Hampel updates of residual and leverage weights, until
    the coefficient function stabilizes.
    """
    a = coeff_matrix.coeffs
    y = np.asarray(Y, dtype=float).ravel()
    n, M = a.shape
    if y.size != n:
        raise ValidationError("response length must match coefficient rows")
    _check_k(K, n, M)

    # The reweighting runs on the units in one canonical order, their
    # (coefficients, response) rows sorted lexicographically, so the fit
    # depends on the set of units and not on their order. Where the Hampel
    # weights do not settle (they can cycle) the iterates amplify rounding,
    # and sums taken in another order would end elsewhere. Units tied on
    # every key are identical, so their order cannot matter.
    order = np.lexsort(np.vstack([a.T, y]))
    a, y = a[order], y[order]

    e0 = y - np.median(y)
    res0 = m_scale_info(e0, m_scale_config)
    if res0.degenerate or res0.sigma <= 0:
        r = np.ones(n)
    else:
        r = hampel_weight(e0 / res0.sigma, hampel_config)

    beta_prev = None
    out = None
    converged = False
    it = 0
    sigma = np.nan
    for it in range(1, _REWEIGHT_MAX_ITER + 1):
        wsum = r.sum()
        if wsum <= 0:
            raise NumericalError("all case weights vanished")
        center = (r @ a) / wsum
        y_center = float(r @ y / wsum)
        d = (a - center) @ basis.gram_sqrt
        yc = y - y_center
        s = np.sqrt(r)
        W, T, q, covs, truncated = _nipals(s[:, None] * d, s * yc, K)
        scores = d @ W

        # weighted regression of the response on the scores
        sw = scores * r[:, None]
        try:
            gamma = np.linalg.solve(scores.T @ sw, sw.T @ yc)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular component Gram matrix") from exc
        e = yc - scores @ gamma
        res = m_scale_info(e, m_scale_config)
        sigma = res.sigma if not res.degenerate else 0.0
        r = _case_weights(e, scores, sigma, hampel_config)

        beta = basis.gram_inv_sqrt @ W @ gamma
        out = (W, T, q, covs, truncated, center, y_center)
        if beta_prev is not None and beta_prev.shape == beta.shape:
            denom = max(float(np.abs(beta_prev).max()), 1e-300)
            if float(np.abs(beta - beta_prev).max()) / denom < _REWEIGHT_TOL:
                converged = True
                break
        beta_prev = beta

    W, T_sorted, q, covs, truncated, center, y_center = out
    T = np.empty_like(T_sorted)
    T[order] = T_sorted
    weights = np.empty_like(r)
    weights[order] = r
    state = PlsState(W, T, q, weights=weights, y_center=y_center, iterations=it,
                     converged=converged, residual_scale=sigma)
    events = () if converged else (f"rfpls stopped at the {it}-iteration cap",)
    return _finish(W, covs**2, coeff_matrix.coeffs, center, basis, "RFPLS", state,
                   truncated=truncated, events=events)


def pls_regression_coefficients(decomposition: Decomposition, Y):
    """Regression through the PLS scores, mapped back to basis coefficients.

    Returns (gamma, beta_coeffs): gamma from (weighted) least squares of the
    centered response on the scores, and the coefficient function expressed
    in the data basis.
    """
    if decomposition.pls_state is None:
        raise ValidationError("decomposition does not carry PLS state")
    state = decomposition.pls_state
    y = np.asarray(Y, dtype=float).ravel()
    scores = decomposition.scores
    if y.size != scores.shape[0]:
        raise ValidationError("response length mismatch")
    yc = y - state.y_center
    r = state.weights
    sw = scores * r[:, None]
    gram = scores.T @ sw
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError("singular component Gram matrix")
    gamma = np.linalg.solve(gram, sw.T @ yc)
    return gamma, decomposition.phi @ gamma

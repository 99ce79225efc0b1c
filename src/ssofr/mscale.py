"""M-scale estimation with the Tukey biweight loss.

The raw biweight loss saturates at c^2/6, which is below the usual target
delta = 0.5, so the estimating equation is solved with the loss normalized
to supremum 1. With delta = 0.5 this gives the 50% breakdown point.

One solver serves the single-sample and the column-wise estimators: safeguarded
Newton steps on the closed-form derivative of the clipped-polynomial loss,
falling back to the multiplicative fixed-point step when a Newton step would
leave (sigma/2, 2 sigma).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import NonConvergenceError, ValidationError

# median absolute deviation consistency factor: 1 / Phi^{-1}(3/4)
MAD_SCALE = 1.4826022185056018


def _biweight(t):
    """Normalized biweight loss 3t - 3t^2 + t^3 of t = min((u/c)^2, 1).

    It is exactly 0 at t = 0 and exactly 1 from the cutoff t = 1 on.
    """
    return t * (3.0 - t * (3.0 - t))


def tukey_loss(u, c: float = 1.56):
    """Tukey biweight loss: u^2/2 (1 - u^2/c^2 + u^4/(3 c^4)) for |u| <= c,
    exactly c^2/6 beyond the cutoff."""
    return tukey_loss_norm(u, c) * (c**2 / 6.0)


def tukey_loss_norm(u, c: float = 1.56):
    """Biweight loss rescaled to supremum 1."""
    if c <= 0:
        raise ValidationError("tuning constant c must be positive")
    val = _biweight(np.minimum((np.asarray(u, dtype=float) / c) ** 2, 1.0))
    return val if val.ndim else float(val)


def tukey_weight(u, c: float = 1.56):
    """Biweight psi(u)/u weight: (1 - (u/c)^2)^2 inside, 0 outside."""
    u = np.asarray(u, dtype=float)
    t = np.clip(1.0 - (u / c) ** 2, 0.0, None)
    w = t * t
    return w if w.ndim else float(w)


def m_location(x, c: float = 4.685, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Bisquare M-location via IRLS, scale fixed at the normalized MAD."""
    x = np.asarray(x, dtype=float)
    mu = float(np.median(x))
    s = MAD_SCALE * float(np.median(np.abs(x - mu)))
    if s == 0.0:
        return mu
    for _ in range(max_iter):
        w = tukey_weight((x - mu) / s, c)
        if w.sum() == 0.0:
            return mu
        mu_new = float(np.sum(w * x) / np.sum(w))
        if abs(mu_new - mu) <= tol * max(1.0, abs(mu)):
            return mu_new
        mu = mu_new
    return mu


@dataclass(frozen=True)
class MScaleConfig:
    c: float = 1.56
    delta: float = 0.5
    max_iter: int = 200
    tol: float = 1e-10
    location: str = "median"

    def __post_init__(self):
        if self.c <= 0:
            raise ValidationError("c must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError("delta must be in (0, 1)")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be positive")
        if self.location not in ("median", "m_location"):
            raise ValidationError("location must be 'median' or 'm_location'")


@dataclass
class MScaleResult:
    sigma: float
    location: float
    degenerate: bool
    converged: bool
    iterations: int
    history: list = field(default_factory=list)


DEFAULT_MSCALE = MScaleConfig()


def _start(x: np.ndarray, cfg: MScaleConfig) -> tuple:
    """Location, residuals, degenerate flags and start scales of the columns
    of x.

    A column is degenerate when more than (1 - delta) n of its values
    coincide with the location estimate. The start scale is the normalized
    MAD, or the root mean square where the MAD collapses on a column that is
    not degenerate, whose equation is still solvable.
    """
    n = x.shape[0]
    if cfg.location == "median":
        mu = np.median(x, axis=0)
    else:
        mu = np.array([m_location(col) for col in x.T])
    resid = x - mu
    degenerate = np.sum(resid == 0.0, axis=0) > (1.0 - cfg.delta) * n
    sigma = MAD_SCALE * np.median(np.abs(resid), axis=0)
    rms = np.sqrt(np.mean(resid**2, axis=0))
    sigma = np.where(sigma == 0.0, rms, sigma)
    return mu, resid, degenerate, sigma


def _solve(resid: np.ndarray, sigma: np.ndarray, cfg: MScaleConfig,
           history: list | None = None) -> tuple:
    """Solve mean_i rho_norm(resid[i, j] / sigma_j) = delta for every column.

    With t = min((r/(c sigma))^2, 1), f(sigma) = mean rho_norm - delta has
    the closed-form derivative f'(sigma) = -mean 6 t (1 - t)^2 / sigma. A
    Newton step is taken when that derivative is nonzero and the step lands
    in (sigma/2, 2 sigma); otherwise the multiplicative fixed-point step
    sigma * sqrt(mean rho_norm / delta), which keeps every iterate positive
    and converges from any start. A column stops once |step| <= tol sigma.
    Returns (sigma, iterations); history, if given, receives every iterate.
    """
    n = resid.shape[0]
    r2 = (resid / cfg.c) ** 2
    sigma = np.array(sigma, dtype=float)
    cols = np.arange(sigma.size)
    if history is not None:
        history.append(sigma.copy())
    for it in range(1, cfg.max_iter + 1):
        s = sigma[cols]
        t = np.minimum(r2 / (s * s), 1.0)
        mean_rho = _biweight(t).sum(axis=0) / n
        slope = 6.0 / n * (t * (1.0 - t) ** 2).sum(axis=0)  # -sigma f'(sigma)
        gap = mean_rho - cfg.delta
        # the Newton iterate s (1 + gap / slope) must lie in (s/2, 2s)
        newton = (-0.5 * slope < gap) & (gap < slope)
        ratio = np.divide(gap, slope, out=np.zeros_like(gap), where=newton)
        new = np.where(newton, s * (1.0 + ratio),
                       s * np.sqrt(mean_rho / cfg.delta))
        sigma[cols] = new
        if history is not None:
            history.append(sigma.copy())
        going = np.abs(new - s) > cfg.tol * s
        if not going.any():
            return sigma, it
        if not going.all():
            cols = cols[going]
            r2 = r2[:, going]
    raise NonConvergenceError(f"m_scale did not converge in {cfg.max_iter} iterations")


def m_scale_info(x, config: MScaleConfig = DEFAULT_MSCALE) -> MScaleResult:
    """Solve (1/n) sum rho_norm((x_i - mu)/sigma) = delta by safeguarded Newton.

    Newton steps on the closed-form derivative, with the multiplicative
    fixed-point step sigma^2 * (n delta)^{-1} sum rho_norm(u) as fallback,
    start from the normalized MAD and keep every iterate positive. Samples
    where more than (1 - delta) n values coincide with the location estimate
    are degenerate and return sigma = 0.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 2:
        raise ValidationError("m_scale needs at least 2 observations")
    mu, resid, degenerate, sigma = _start(x[:, None], config)
    mu = float(mu[0])
    if degenerate[0]:
        return MScaleResult(0.0, mu, True, True, 0, [0.0])
    history = []
    sigma, iterations = _solve(resid, sigma, config, history)
    return MScaleResult(
        float(sigma[0]), mu, False, True, iterations,
        [float(h[0]) for h in history],
    )


def m_scale(x, config: MScaleConfig = DEFAULT_MSCALE) -> float:
    return m_scale_info(x, config).sigma


def m_scale_columns(x: np.ndarray, config: MScaleConfig = DEFAULT_MSCALE) -> np.ndarray:
    """Column-wise M-scales of a 2-D array.

    Same estimator and solver as m_scale applied to each column; used where
    many candidate projections must be scored at once. Degenerate columns
    get 0.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValidationError("m_scale_columns needs an (n >= 2) x m array")
    _, resid, degenerate, sigma = _start(x, config)
    out = np.zeros(x.shape[1])
    keep = ~degenerate
    if keep.any():
        out[keep], _ = _solve(resid[:, keep], sigma[keep], config)
    return out

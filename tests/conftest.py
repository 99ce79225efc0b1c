import numpy as np
import pytest

from ssofr.exceptions import NonConvergenceError
from ssofr.mscale import _MAX_ITER, _NEWTON_TOL, _TOL, DEFAULT_MSCALE, MAD_SCALE


def subspace_angle_deg(u, v, gram):
    """Angle in degrees between coefficient vectors under the Gram inner product."""
    cu = u / np.sqrt(u @ gram @ u)
    cv = v / np.sqrt(v @ gram @ v)
    c = abs(cu @ gram @ cv)
    return np.degrees(np.arccos(min(c, 1.0)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240101)


@pytest.fixture()
def eig_calls(monkeypatch):
    """Names of the eigensolvers called while the test runs, in order: a
    machine-independent count of the eigendecompositions of W."""
    import scipy.linalg

    calls = []
    for lib in (np.linalg, scipy.linalg):
        for name in ("eig", "eigvals", "eigh", "eigvalsh"):
            def counted(*args, _name=name, _real=getattr(lib, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(lib, name, counted)
    return calls


def oracle_start(x, cfg):
    """Column-layout M-scale start (one sample per column): residuals from
    the median, degenerate flags and the normalized-MAD or RMS start
    scales."""
    n = x.shape[0]
    resid = x - np.median(x, axis=0)
    degenerate = np.sum(resid == 0.0, axis=0) > (1.0 - cfg.delta) * n
    sigma = MAD_SCALE * np.median(np.abs(resid), axis=0)
    rms = np.sqrt(np.mean(resid**2, axis=0))
    sigma = np.where(sigma == 0.0, rms, sigma)
    return resid, degenerate, sigma


def oracle_solve(resid, sigma, cfg):
    """Column-layout safeguarded Newton solve of mean rho_norm(r / sigma) =
    delta, the loss, slope and curvature summed term by term down each
    column. A column stops after a Newton step whose modelled error
    sigma^2 |f''| d^2 / (2 sigma |f'|) is at most _NEWTON_TOL, or once the
    step is at most _TOL sigma. Returns (sigma, iterations)."""
    n = resid.shape[0]
    r2 = (resid / cfg.c) ** 2
    sigma = np.array(sigma, dtype=float)
    cols = np.arange(sigma.size)
    for it in range(1, _MAX_ITER + 1):
        s = sigma[cols]
        t = np.minimum(r2 / (s * s), 1.0)
        mean_rho = (t * (3.0 - t * (3.0 - t))).sum(axis=0) / n
        slope = 6.0 / n * (t * (1.0 - t) ** 2).sum(axis=0)
        curv = 6.0 / n * (t * (1.0 - t) * (3.0 - 7.0 * t)).sum(axis=0)
        gap = mean_rho - cfg.delta
        newton = (-0.5 * slope < gap) & (gap < slope)
        ratio = np.divide(gap, slope, out=np.zeros_like(gap), where=newton)
        new = np.where(newton, s * (1.0 + ratio), s * np.sqrt(mean_rho / cfg.delta))
        sigma[cols] = new
        model = np.divide(np.abs(curv) * ratio**2, 2.0 * slope,
                          out=np.full_like(gap, np.inf), where=newton)
        going = (np.abs(new - s) > _TOL * s) & (model > _NEWTON_TOL)
        if not going.any():
            return sigma, it
        if not going.all():
            cols = cols[going]
            r2 = r2[:, going]
    raise NonConvergenceError(f"m_scale did not converge in {_MAX_ITER} iterations")


def oracle_m_scale_columns(x, config=DEFAULT_MSCALE):
    """Column-wise M-scales from the column-layout oracle; degenerate columns
    get 0."""
    x = np.asarray(x, dtype=float)
    resid, degenerate, sigma = oracle_start(x, config)
    out = np.zeros(x.shape[1])
    keep = ~degenerate
    if keep.any():
        out[keep], _ = oracle_solve(resid[:, keep], sigma[keep], config)
    return out


def oracle_m_scale_info(x, config):
    """(sigma, iterations, degenerate) of one sample from the column-layout
    oracle."""
    resid, degenerate, sigma = oracle_start(np.asarray(x, dtype=float)[:, None], config)
    if degenerate[0]:
        return 0.0, 0, True
    sigma, iterations = oracle_solve(resid, sigma, config)
    return float(sigma[0]), iterations, False

"""Estimation for the finite-dimensional spatial autoregressive model

    Y = rho W Y + Z theta + eps,   eps ~ N(0, sigma^2 I),

with Z = [1_n, A] built from decomposition scores. Provides the exact
Gaussian log-likelihood with profile maximization over rho, the robust
estimating equations with Huber-transformed standardized residuals, and the
iterative M-estimator (weighted least squares for theta, a multiplicative
scale update, and a rho step: the bracketed Brent root of the rho block;
golden-section on its square only when the bracket has no sign change).

Every function of the spectrum of W comes from the `SpatialWeights` the
design carries: log|det(I - rho W)| and tr W (I - rho W)^{-1} from its
eigenvalues, and the eigenbasis in which one evaluator, vectorized over rho,
computes the rho block (Ord 1975) for the estimating equations and for every
rho step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from .exceptions import ValidationError
from .weights import SpatialWeights, check_rho

_SIGMA_FLOOR = 1e-300
_RSS_FLOOR = 1e-300
_RHO_MARGIN = 1e-8
_RIDGE_EPS = 1e-8


def huber_psi(u, c: float):
    """Huber function: identity inside [-c, c], clipped at +-c outside."""
    if c <= 0:
        raise ValidationError("Huber cutoff c must be positive")
    u = np.asarray(u, dtype=float)
    out = np.clip(u, -c, c)
    return out if out.ndim else float(out)


def huber_weight(u, c: float):
    """psi_c(u)/u with the convention weight(0) = 1."""
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(au <= c, 1.0, c / au)
    return w if w.ndim else float(w)


def rho_tilde(c: float) -> float:
    """E[psi_c(U)^2] for U standard normal, in closed form."""
    if c <= 0:
        raise ValidationError("cutoff c must be positive")
    phi_c = np.exp(-0.5 * c * c) / np.sqrt(2.0 * np.pi)
    Pi_c = float(ndtr(c))
    return 2.0 * c * c * (1.0 - Pi_c) - 2.0 * c * phi_c - 1.0 + 2.0 * Pi_c


@dataclass(frozen=True, eq=False)
class SarDesign:
    """Response, design matrix [1_n, A], and spatial weights."""

    Y: np.ndarray
    Z: np.ndarray
    weights: SpatialWeights

    def __post_init__(self):
        Y = np.asarray(self.Y, dtype=float).ravel()
        Z = np.asarray(self.Z, dtype=float)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "Z", Z)
        n = Y.size
        if Z.ndim != 2 or Z.shape[0] != n:
            raise ValidationError("Z must be n x (K+1)")
        if self.weights.n != n:
            raise ValidationError("weight matrix size must match response")
        if not np.allclose(Z[:, 0], 1.0):
            raise ValidationError("first column of Z must be the intercept 1_n")
        s = np.linalg.svd(Z, compute_uv=False)
        if s[-1] < 1e-10 * max(s[0], 1.0):
            raise ValidationError("Z is numerically rank deficient")

    @property
    def n(self) -> int:
        return self.Y.size

    @property
    def k(self) -> int:
        return self.Z.shape[1]


@dataclass(frozen=True, eq=False)
class SarParams:
    """Parameter block (theta, sigma, rho)."""

    theta: np.ndarray
    sigma: float
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float).ravel())
        if self.sigma <= 0:
            raise ValidationError("sigma must be positive")

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.theta, [self.sigma, self.rho]])


@dataclass(frozen=True)
class MTuning:
    c1: float = 1.4
    c2: float = 2.4
    c3: float = 1.65
    eps_conv: float = 1e-6
    max_iter: int = 100
    ridge_eps: float = 0.0

    def __post_init__(self):
        if min(self.c1, self.c2, self.c3) <= 0:
            raise ValidationError("Huber cutoffs must be positive")
        if self.eps_conv <= 0 or self.max_iter < 1:
            raise ValidationError("bad convergence settings")


def log_likelihood(params: SarParams, design: SarDesign) -> float:
    """Exact Gaussian log-likelihood; log|det(I - rho W)| from the spectrum
    of W that the weights carry."""
    weights = design.weights
    check_rho(params.rho, weights)
    n = design.n
    r = design.Y - params.rho * (weights.w @ design.Y) - design.Z @ params.theta
    s = params.sigma
    return float(
        -0.5 * n * np.log(2.0 * np.pi)
        - n * np.log(s)
        + weights.logdet(params.rho)
        - 0.5 * (r @ r) / (s * s)
    )


def eta_ml(params: SarParams, design: SarDesign) -> np.ndarray:
    """Score of the log-likelihood: blocks for theta, sigma, rho."""
    wy = design.weights.w @ design.Y
    r = design.Y - params.rho * wy - design.Z @ params.theta
    s, n = params.sigma, design.n
    b_theta = design.Z.T @ r / s**2
    b_sigma = (r @ r) / s**3 - n / s
    b_rho = (wy @ r) / s**2 - design.weights.trace_g(params.rho)
    return np.concatenate([b_theta, [b_sigma, b_rho]])


def _rho_block(weights, rhos, y, wy, zt, sigma, tuning, a=None, events=None) -> np.ndarray:
    """Rho block of the robust estimating equations at each rho of `rhos`:

        b(rho) = psi3' G (Z theta / sigma + psi3) - rho_tilde(c3) tr G,

    with psi3 = psi_{c3}((Y - rho W Y - Z theta) / sigma) and
    G = W ((1 + ridge) I - rho W)^{-1}. Through the eigenbasis W V = V Lambda,

        b(rho) = sum_k q_k (a_k / sigma + p_k) / d_k - rho_tilde(c3) sum_k lambda_k / d_k

    with (lambda, V, V^{-1}) = `weights.eigenbasis`, a = V^{-1} Z theta (pass
    it in to compute it once per theta), p = V^{-1} psi3,
    q = lambda * (V' psi3) and d = 1 + ridge - rho lambda: two n^2 matvecs per
    rho. Without an eigenbasis each rho takes one dense LU solve. Where
    |1 - rho lambda| < 1e-12 for some eigenvalue, the ridge is
    max(ridge_eps, 1e-8); each such rho adds a line to `events` when given.
    """
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    rt3 = rho_tilde(tuning.c3)
    psi3 = np.clip(((y - zt)[:, None] - np.outer(wy, rhos)) / sigma, -tuning.c3, tuning.c3)
    ridge = np.full(rhos.size, float(tuning.ridge_eps))
    near = np.abs(1.0 - np.outer(rhos, weights.eigvals)).min(axis=1) < 1e-12
    if near.any():
        ridge[near] = max(tuning.ridge_eps, _RIDGE_EPS)
        if events is not None:
            events.extend(f"ridge applied at rho={r:.6g}" for r in rhos[near])
    basis = weights.eigenbasis
    if basis is not None:
        lam, V, Vinv = basis
        lam = lam[:, None]
        d = (1.0 + ridge) - lam * rhos
        if a is None:
            a = Vinv @ zt
        p = Vinv @ psi3
        q = lam * (V.T @ psi3)
        b = np.sum(q * (a[:, None] / sigma + p) / d, axis=0) - rt3 * np.sum(lam / d, axis=0)
        return b.real
    w = weights.w
    b = np.empty(rhos.size)
    for j, rho in enumerate(rhos):
        g = w @ np.linalg.solve(
            np.eye(weights.n) * (1.0 + ridge[j]) - rho * w, np.column_stack([zt, psi3[:, j]])
        )
        b[j] = psi3[:, j] @ (g[:, 0] / sigma + g[:, 1]) - rt3 * weights.trace_g(rho, ridge[j])
    return b


def eta_robust(
    params: SarParams,
    design: SarDesign,
    tuning: MTuning = MTuning(),
) -> np.ndarray:
    """Robust estimating equations with Huber-transformed residuals."""
    wy = design.weights.w @ design.Y
    zt = design.Z @ params.theta
    s = params.sigma
    eps = (design.Y - params.rho * wy - zt) / s
    n = design.n

    psi1 = huber_psi(eps, tuning.c1)
    block1 = design.Z.T @ psi1

    psi2 = huber_psi(eps, tuning.c2)
    block2 = float(psi2 @ psi2 - n * rho_tilde(tuning.c2))

    block3 = float(_rho_block(design.weights, params.rho, design.Y, wy, zt, s, tuning)[0])
    return np.concatenate([block1, [block2, block3]])


@dataclass
class SarFit:
    """Fit result: parameter block plus diagnostics of the optimizer run."""

    params: SarParams
    method: str
    converged: bool
    iterations: int
    boundary: bool = False
    eta_norm: float = np.nan
    loglik: float = np.nan
    events: list = field(default_factory=list)
    history: list = field(default_factory=list)

    @property
    def theta(self) -> np.ndarray:
        return self.params.theta

    @property
    def sigma(self) -> float:
        return self.params.sigma

    @property
    def rho(self) -> float:
        return self.params.rho


def _golden_max(f, lo: float, hi: float, tol: float, max_iter: int = 200):
    """Golden-section maximization on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while (b - a) > tol and it < max_iter:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        it += 1
    return (c, fc) if fc >= fd else (d, fd)


def ml_fit(design: SarDesign) -> SarFit:
    """Maximum likelihood via the concentrated (profile) likelihood in rho.

    For fixed rho, theta is the least-squares fit of (I - rho W) Y on Z and
    sigma^2 the mean squared residual; the profile is maximized by a coarse
    grid bracket followed by golden-section refinement.
    """
    n = design.n
    Y, Z = design.Y, design.Z
    wy = design.weights.w @ Y

    theta_y, *_ = np.linalg.lstsq(Z, Y, rcond=None)
    theta_w, *_ = np.linalg.lstsq(Z, wy, rcond=None)
    e0 = Y - Z @ theta_y
    e1 = wy - Z @ theta_w
    qa, qb, qc = float(e0 @ e0), float(e0 @ e1), float(e1 @ e1)

    def rss(rho: float) -> float:
        return max(qa - 2.0 * rho * qb + rho * rho * qc, _RSS_FLOOR)

    def profile(rho: float) -> float:
        return -0.5 * n * np.log(rss(rho) / n) + design.weights.logdet(rho)

    lo, hi = design.weights.rho_bounds
    width = hi - lo
    glo, ghi = lo + _RHO_MARGIN * width, hi - _RHO_MARGIN * width
    grid = np.linspace(glo, ghi, 201)
    vals = np.array([profile(r) for r in grid])
    i = int(np.argmax(vals))
    blo = grid[max(i - 1, 0)]
    bhi = grid[min(i + 1, grid.size - 1)]
    rho_hat, _ = _golden_max(profile, blo, bhi, tol=1e-12 * width)

    theta_hat = theta_y - rho_hat * theta_w
    sigma_hat = max(float(np.sqrt(rss(rho_hat) / n)), _SIGMA_FLOOR)
    params = SarParams(theta=theta_hat, sigma=sigma_hat, rho=float(rho_hat))
    boundary = (rho_hat - lo) < 1e-6 * width or (hi - rho_hat) < 1e-6 * width
    fit = SarFit(
        params=params, method="ML", converged=True, iterations=1,
        boundary=boundary,
        loglik=float(
            -0.5 * n * np.log(2.0 * np.pi) - 0.5 * n + profile(rho_hat)
        ),
    )
    if sigma_hat > 1e-100:
        fit.eta_norm = float(np.linalg.norm(eta_ml(params, design)))
    else:
        fit.events.append("degenerate zero-residual fit; score norm skipped")
    if boundary:
        fit.events.append("rho at interval boundary")
    return fit


def _known_or_block(rho, known, block) -> float:
    """b(rho) for brentq, reusing the values known at the bracket ends.

    brentq keeps the function it is given in a reference cycle, so the data
    comes in through `args`: a closure would keep the design and its weights
    alive until the next garbage collection.
    """
    return known[rho] if rho in known else block(rho)[0]


def _rho_step(design, sigma, tuning, wy, zt, prev_rho=None):
    """Root of the rho block of the robust equations inside the bounds.

    The bracket comes from a 65-point scan of |b| in one vectorized
    evaluation on the first pass; afterwards a window around the previous rho
    is widened until |b| at its centre is below |b| at both ends. Returns the
    bracketed Brent root of the rho block; golden-section on its square only
    when the bracket has no sign change (Brent to 1e-12, golden-section to an
    interval of 1e-8).
    """
    lo, hi = design.weights.rho_bounds
    width = hi - lo
    glo, ghi = lo + _RHO_MARGIN * width, hi - _RHO_MARGIN * width
    events = []
    weights = design.weights
    basis = weights.eigenbasis
    a = None if basis is None else basis[2] @ zt

    def block(rhos) -> np.ndarray:
        return _rho_block(weights, rhos, design.Y, wy, zt, sigma, tuning, a=a, events=events)

    blo = bhi = None
    if prev_rho is not None:
        # expand a bracket around the previous iterate before refining
        h = 1e-3 * width
        center = min(max(prev_rho, glo), ghi)
        b_c = block(center)[0]
        while h < width:
            a_end, b_end = max(center - h, glo), min(center + h, ghi)
            b_a, b_b = block([a_end, b_end])
            if b_c * b_c <= b_a * b_a and b_c * b_c <= b_b * b_b:
                blo, b_lo, bhi, b_hi = a_end, b_a, b_end, b_b
                break
            if b_a * b_a < b_c * b_c:
                center, b_c = a_end, b_a
            else:
                center, b_c = b_end, b_b
            h *= 3.0
    if blo is None:
        grid = np.linspace(glo, ghi, 65)
        vals = block(grid)
        i = int(np.argmin(vals * vals))
        i_lo, i_hi = max(i - 1, 0), min(i + 1, grid.size - 1)
        blo, b_lo, bhi, b_hi = grid[i_lo], vals[i_lo], grid[i_hi], vals[i_hi]
    if b_lo * b_hi <= 0.0:
        known = {blo: b_lo, bhi: b_hi}
        rho_new = brentq(_known_or_block, blo, bhi, args=(known, block), xtol=1e-12)
    else:
        # |b| has a minimum in the bracket that is not a root
        rho_new, _ = _golden_max(lambda r: -block(r)[0] ** 2, blo, bhi, tol=1e-8)
    return float(rho_new), events


def m_fit(
    design: SarDesign,
    tuning: MTuning = MTuning(),
    init: SarParams | None = None,
) -> SarFit:
    """Iterative robust M-estimator.

    Each iteration updates theta by Huber-weighted least squares, rescales
    sigma multiplicatively so the scale block of the estimating equations is
    solved at the fixed point, and updates rho to the bracketed Brent root of
    the rho block; golden-section on its square only when the bracket has no
    sign change (see `_rho_step`). Stops when the Euclidean norm of the step
    [d theta / sigma, d sigma / sigma, d rho], with the new sigma, falls below
    eps_conv: theta and sigma are measured in units of the response's scale,
    so the rule, and with it the iteration path, does not change when Y is
    rescaled.
    """
    if init is None:
        init = ml_fit(design).params
    theta = np.asarray(init.theta, dtype=float).copy()
    sigma = float(init.sigma)
    rho = float(init.rho)

    Y, Z = design.Y, design.Z
    n = design.n
    wy = design.weights.w @ Y
    rt2 = rho_tilde(tuning.c2)
    events: list = []
    history: list = []
    converged = False

    for it in range(1, tuning.max_iter + 1):
        prev = np.concatenate([theta, [sigma, rho]])

        # theta: weighted least squares with psi_{c1}(eps)/eps weights
        eps = (Y - rho * wy - Z @ theta) / sigma
        w = huber_weight(eps, tuning.c1)
        zw = Z * w[:, None]
        try:
            theta = np.linalg.solve(Z.T @ zw, zw.T @ (Y - rho * wy))
        except np.linalg.LinAlgError:
            theta, *_ = np.linalg.lstsq(zw, w * (Y - rho * wy), rcond=None)
            events.append(f"iteration {it}: singular weighted normal equations")

        # sigma: multiplicative update solving the scale block at fixed point
        eps = (Y - rho * wy - Z @ theta) / sigma
        psi2 = huber_psi(eps, tuning.c2)
        sigma = max(sigma * float(np.sqrt((psi2 @ psi2) / (n * rt2))), _SIGMA_FLOOR)

        # rho: root of the rho block. The scan is global on the first pass;
        # afterwards the bracket tracks the previous iterate, which keeps the
        # iteration on one root when the rho equation has several.
        zt = Z @ theta
        warm = rho if it > 1 else None
        rho, ev = _rho_step(design, sigma, tuning, wy, zt, prev_rho=warm)
        events.extend(ev)

        cur = np.concatenate([theta, [sigma, rho]])
        history.append(cur)
        step = cur - prev
        step[:-1] /= sigma
        if float(np.linalg.norm(step)) < tuning.eps_conv:
            converged = True
            break

    params = SarParams(theta=theta, sigma=sigma, rho=rho)
    fit = SarFit(
        params=params, method="M", converged=converged,
        iterations=len(history), events=events, history=history,
    )
    fit.eta_norm = float(np.linalg.norm(eta_robust(params, design, tuning)))
    if not converged:
        fit.events.append(f"no convergence within {tuning.max_iter} iterations")
    return fit

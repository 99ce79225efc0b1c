"""Estimation for the finite-dimensional spatial autoregressive model

    Y = rho W Y + Z theta + eps,   eps ~ N(0, sigma^2 I),

with Z = [1_n, A] built from decomposition scores. Provides the exact
Gaussian log-likelihood with profile maximization over rho, the robust
estimating equations with Huber-transformed standardized residuals, and the
M-estimator profiled over rho: for fixed rho, Newton steps on the inlier
sets of the Huber functions solve the first two blocks, and rho is the
bracketed Brent root of the rho block that remains. The ML estimate is the
Brent root of the profile score.

Everything about W comes from the `SpatialWeights` the design carries:
log|det(I - rho W)| and tr W (I - rho W)^{-1} from its eigenvalues (Ord
1975), and the one resolvent solve per rho with which one evaluator computes
the rho block for the estimating equations and for the profiled
M-estimator: conjugate gradients on the symmetrized system, or dense LU.
These need rho inside the admissible interval of W, where I - rho W is
regular: the likelihood and both sets of estimating equations refuse any
other rho with `NumericalError` (`check_rho`), and the fits search only
inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NonConvergenceError, NumericalError, ValidationError
from .weights import SpatialWeights, check_rho

_SIGMA_FLOOR = 1e-300
_RSS_FLOOR = 1e-300
_RHO_MARGIN = 1e-8
_STEP_TOL = 1e-10  # theta/sigma step, in units of sigma, that stops the inner solve
_STEP_CAP = 100  # Newton steps of the inner solve at one rho
_G_TINY = 5e-324  # the smallest positive double
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)  # the rtol of scipy's brentq
_BRENT_MAX_ITER = 100


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
    Pi_c = 0.5 * math.erfc(-c / math.sqrt(2.0))
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
    """Huber cutoffs of the theta (c1), sigma (c2) and rho (c3) blocks of the
    robust equations."""

    c1: float = 1.4
    c2: float = 2.4
    c3: float = 1.65

    def __post_init__(self):
        if min(self.c1, self.c2, self.c3) <= 0:
            raise ValidationError("Huber cutoffs must be positive")


def log_likelihood(params: SarParams, design: SarDesign) -> float:
    """Exact Gaussian log-likelihood; log|det(I - rho W)| from the spectrum
    of W that the weights carry."""
    weights = design.weights
    check_rho(params.rho, weights)
    n = design.n
    r = design.Y - params.rho * weights.matvec(design.Y) - design.Z @ params.theta
    s = params.sigma
    return float(
        -0.5 * n * np.log(2.0 * np.pi)
        - n * np.log(s)
        + weights.logdet(params.rho)
        - 0.5 * (r @ r) / (s * s)
    )


def eta_ml(params: SarParams, design: SarDesign) -> np.ndarray:
    """Score of the log-likelihood: blocks for theta, sigma, rho.
    NumericalError for rho outside the admissible interval (`check_rho`)."""
    check_rho(params.rho, design.weights)
    wy = design.weights.matvec(design.Y)
    r = design.Y - params.rho * wy - design.Z @ params.theta
    s, n = params.sigma, design.n
    b_theta = design.Z.T @ r / s**2
    b_sigma = (r @ r) / s**3 - n / s
    b_rho = (wy @ r) / s**2 - design.weights.trace_g(params.rho)
    return np.concatenate([b_theta, [b_sigma, b_rho]])


def _rho_block(weights, rho, y, wy, zt, sigma, tuning, events=None) -> float:
    """Rho block of the robust estimating equations at rho:

        b(rho) = psi3' W x - rho_tilde(c3) tr G,   x = A^{-1} (Z theta / sigma + psi3),

    with psi3 = psi_{c3}((Y - rho W Y - Z theta) / sigma), A = I - rho W and
    G = W A^{-1}: one `weights.solve` and one matvec, and the trace from the
    eigenvalues (Ord 1975). rho must lie inside `rho_bounds`, where A is
    regular; the callers see to that. A solve that falls back from conjugate
    gradients to dense LU adds a line to `events` when given.
    """
    psi3 = np.clip(((y - zt) - rho * wy) / sigma, -tuning.c3, tuning.c3)
    x = weights.solve(rho, zt / sigma + psi3, events)
    return float(psi3 @ weights.matvec(x) - rho_tilde(tuning.c3) * weights.trace_g(rho))


def eta_robust(
    params: SarParams,
    design: SarDesign,
    tuning: MTuning = MTuning(),
) -> np.ndarray:
    """Robust estimating equations with Huber-transformed residuals.
    NumericalError for rho outside the admissible interval (`check_rho`)."""
    check_rho(params.rho, design.weights)
    wy = design.weights.matvec(design.Y)
    zt = design.Z @ params.theta
    s = params.sigma
    eps = (design.Y - params.rho * wy - zt) / s
    n = design.n

    psi1 = huber_psi(eps, tuning.c1)
    block1 = design.Z.T @ psi1

    psi2 = huber_psi(eps, tuning.c2)
    block2 = float(psi2 @ psi2 - n * rho_tilde(tuning.c2))

    block3 = _rho_block(design.weights, params.rho, design.Y, wy, zt, s, tuning)
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

    @property
    def theta(self) -> np.ndarray:
        return self.params.theta

    @property
    def sigma(self) -> float:
        return self.params.sigma

    @property
    def rho(self) -> float:
        return self.params.rho


def _rss(rho, qa: float, qb: float, qc: float):
    """Residual sum of squares of the least-squares fit of (I - rho W) Y on Z,
    at rho or at each rho of an array."""
    return np.maximum(qa - 2.0 * rho * qb + rho * rho * qc, _RSS_FLOOR)


def _brent(f, a: float, b: float, xtol: float) -> float:
    """A root of f between a and b, where f changes sign, by
    Brent's method (Brent 1973, ch. 4): interpolation (secant or inverse
    quadratic) where it shrinks the bracket fast enough, bisection where it
    does not. A port of scipy's `brentq.c`, step for step and with its
    relative tolerance of 4 eps, so it evaluates f at the same points, f(a)
    first and then f(b), and returns the same root. It stops when f is
    exactly 0 or half the bracket is below (xtol + 4 eps |x|) / 2.
    ValueError when f(a) and f(b) have the same sign, NumericalError when f
    is NaN, NonConvergenceError after `_BRENT_MAX_ITER` steps."""

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericalError(f"Brent's method: f is NaN at x={x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf  # IEEE division gives an infinite or NaN step: bisect
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NonConvergenceError(
        f"Brent's method did not converge in {_BRENT_MAX_ITER} steps (x={xcur!r})"
    )


def ml_fit(design: SarDesign) -> SarFit:
    """Maximum likelihood via the concentrated (profile) likelihood in rho.

    For fixed rho, theta is the least-squares fit of (I - rho W) Y on Z and
    sigma^2 the mean squared residual. A 201-point grid brackets the maximum
    of the profile, and rho is the Brent root of the profile score inside
    that bracket; the grid's profile is one array expression over the
    eigenvalues of W. Where the score has no sign change across the bracket (the
    maximum lies at an end of the grid), rho is the best grid point.
    """
    n = design.n
    Y, Z = design.Y, design.Z
    weights = design.weights
    wy = weights.matvec(Y)

    theta_y, *_ = np.linalg.lstsq(Z, Y, rcond=None)
    theta_w, *_ = np.linalg.lstsq(Z, wy, rcond=None)
    e0 = Y - Z @ theta_y
    e1 = wy - Z @ theta_w
    q = (float(e0 @ e0), float(e0 @ e1), float(e1 @ e1))

    def profile(rho):
        return -0.5 * n * np.log(_rss(rho, *q) / n) + weights.logdet(rho)

    def score(rho):
        """d/d rho of the profile: n (q_b - rho q_c) / rss(rho) - tr W (I - rho W)^{-1}."""
        return n * (q[1] - rho * q[2]) / _rss(rho, *q) - weights.trace_g(rho)

    lo, hi = weights.rho_bounds
    width = hi - lo
    grid = np.linspace(lo + _RHO_MARGIN * width, hi - _RHO_MARGIN * width, 201)
    i = int(np.argmax(profile(grid)))
    blo = grid[max(i - 1, 0)]
    bhi = grid[min(i + 1, grid.size - 1)]
    if score(blo) >= 0.0 >= score(bhi):
        # to rounding: a bracket of a few eps of the interval, never 0, so
        # a root at rho = 0 still ends
        rho_hat = _brent(score, blo, bhi, _BRENT_RTOL * width)
    else:
        rho_hat = float(grid[i])

    theta_hat = theta_y - rho_hat * theta_w
    sigma_hat = max(float(np.sqrt(_rss(rho_hat, *q) / n)), _SIGMA_FLOOR)
    params = SarParams(theta=theta_hat, sigma=sigma_hat, rho=rho_hat)
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


def _theta_sigma(yr, Z, theta, sigma, tuning, rt2):
    """Solve the theta and sigma blocks of the robust equations at fixed rho
    (yr = Y - rho W Y) from the given start,

        F(theta, sigma) = [Z' psi_{c1}(u), sum psi_{c2}(u)^2 / (n rho_tilde(c2)) - 1] = 0,

    u = (yr - Z theta) / sigma, by Newton steps. psi is piecewise linear, so
    the Jacobian comes from the inlier sets |u| <= c1 and |u| <= c2 (Huber
    1981, proposal 2). Where the Jacobian is singular, the step is not
    finite, or sigma would fall below half its value, the step is instead one
    Huber-weighted least-squares solve for theta followed by the
    multiplicative sigma update. The loop stops when the step
    [d theta, d sigma] / sigma is below `_STEP_TOL`, at most `_STEP_CAP` times.
    Returns (theta, sigma, steps, converged, singular), where singular tells
    that a least-squares solve replaced singular weighted normal equations."""
    n, k = Z.shape
    nrt2 = n * rt2
    singular = False
    for steps in range(1, _STEP_CAP + 1):
        u = (yr - Z @ theta) / sigma
        in1 = np.abs(u) <= tuning.c1
        in2 = np.abs(u) <= tuning.c2
        psi2 = np.clip(u, -tuning.c2, tuning.c2)
        z1, u2 = Z[in1], u * in2
        jac = np.empty((k + 1, k + 1))
        jac[:k, :k] = z1.T @ z1
        jac[:k, k] = z1.T @ u[in1]
        jac[k, :k] = (2.0 / nrt2) * (Z.T @ u2)
        jac[k, k] = (2.0 / nrt2) * (u2 @ u2)
        f = np.append(Z.T @ np.clip(u, -tuning.c1, tuning.c1), (psi2 @ psi2) / nrt2 - 1.0)
        try:
            delta = sigma * np.linalg.solve(jac, f)
            newton = np.all(np.isfinite(delta)) and delta[-1] >= -0.5 * sigma
        except np.linalg.LinAlgError:
            newton = False
        if newton:
            new_theta, new_sigma = theta + delta[:-1], max(sigma + delta[-1], _SIGMA_FLOOR)
        else:
            w = huber_weight(u, tuning.c1)
            zw = Z * w[:, None]
            try:
                new_theta = np.linalg.solve(Z.T @ zw, zw.T @ yr)
            except np.linalg.LinAlgError:
                new_theta, *_ = np.linalg.lstsq(zw, w * yr, rcond=None)
                singular = True
            psi2 = huber_psi((yr - Z @ new_theta) / sigma, tuning.c2)
            new_sigma = max(sigma * float(np.sqrt((psi2 @ psi2) / nrt2)), _SIGMA_FLOOR)
        step = np.append(new_theta - theta, new_sigma - sigma) / new_sigma
        theta, sigma = new_theta, new_sigma
        if float(np.linalg.norm(step)) < _STEP_TOL:
            return theta, sigma, steps, True, singular
    return theta, sigma, _STEP_CAP, False, singular


@dataclass(eq=False)
class _Profile:
    """The M-estimator profiled over rho: its data, the theta and sigma of
    the last inner solve (the start of the next), the values of g at the
    ends of the bracket, and what the solves reported."""

    design: SarDesign
    wy: np.ndarray
    tuning: MTuning
    theta: np.ndarray
    sigma: float
    known: dict = field(default_factory=dict)
    evals: int = 0
    converged: bool = True
    events: list = field(default_factory=list)

    def solve(self, rho: float) -> None:
        self.theta, self.sigma, _, converged, singular = _theta_sigma(
            self.design.Y - rho * self.wy, self.design.Z, self.theta, self.sigma,
            self.tuning, rho_tilde(self.tuning.c2),
        )
        if singular:
            self.events.append(f"singular weighted normal equations at rho={rho:.6g}")
        if not converged:
            self.converged = False
            self.events.append(f"theta/sigma solve not converged at rho={rho:.6g}")


def _profiled_block(rho, prof: _Profile) -> float:
    """g(rho): the rho block at the theta and sigma that solve the other two
    blocks at this rho. The bracket ends return the values that put them in
    the bracket: solved again from another start, g near a root could change
    sign there. An exact 0.0 is returned as the smallest positive double:
    near the root g is rounding noise, and Brent's method would stop on a
    zero a step before its bracket is narrow enough, so the evaluation count
    would depend on the order of the sums (and of the units)."""
    if rho in prof.known:
        return prof.known[rho]
    prof.solve(rho)
    prof.evals += 1
    d = prof.design
    g = _rho_block(
        d.weights, rho, d.Y, prof.wy, d.Z @ prof.theta, prof.sigma, prof.tuning,
        events=prof.events,
    )
    return g or _G_TINY


def m_fit(
    design: SarDesign,
    tuning: MTuning = MTuning(),
    init: SarParams | None = None,
) -> SarFit:
    """Robust M-estimator, profiled over rho.

    `_theta_sigma` solves the theta and sigma blocks at fixed rho, which
    leaves the rho block a scalar function g(rho). The bracket grows from
    the initial rho (the ML estimate by default) toward the root that g
    points to: points at distance 0.02, 0.04, 0.08, ..., clipped to the
    bounds, are evaluated on one side until g changes sign between two
    neighbouring points. The first side is above the start when g > 0 there
    and below it when g < 0, as for a g that falls through its root; if the
    first point on that side shows |g| growing, g rises through the root it
    points to and the other side goes first. A side is left only at its
    bound without a sign change, so g is evaluated at most once on the side
    away from the root. rho is the Brent root in the first bracket found;
    where g has several roots, that is the nearest one in its direction.
    Without a sign change on either side, rho is the bound with the smaller
    |g| and the fit is not converged; nor is it when an inner solve did not
    converge. `iterations` counts the evaluations of g. The inner stop rule
    is in units of sigma, so a rescaled Y takes the same path.
    """
    if init is None:
        init = ml_fit(design).params
    lo, hi = design.weights.rho_bounds
    width = hi - lo
    glo, ghi = lo + _RHO_MARGIN * width, hi - _RHO_MARGIN * width
    prof = _Profile(design, design.weights.matvec(design.Y), tuning,
                    np.asarray(init.theta, dtype=float), float(init.sigma))

    rho0 = min(max(float(init.rho), glo), ghi)
    g0 = _profiled_block(rho0, prof)
    bound = {-1.0: glo, 1.0: ghi}
    outer = {-1.0: (rho0, g0), 1.0: (rho0, g0)}  # outermost point on each side
    h = {-1.0: 0.02, 1.0: 0.02}
    bracket = None

    def grow(side):
        """Evaluate the next point on `side`; the bracket, if g changed sign."""
        near, g_near = outer[side]
        r = min(max(rho0 + side * h[side], glo), ghi)
        h[side] *= 2.0
        g = _profiled_block(r, prof)
        outer[side] = (r, g)
        if np.sign(g) != np.sign(g_near):
            prof.known = {near: g_near, r: g}
            return sorted(prof.known)
        return None

    first = 1.0 if g0 > 0.0 else -1.0
    if rho0 != bound[first]:
        bracket = grow(first)
    if bracket is None and abs(outer[first][1]) > abs(g0):
        first = -first
    for side in (first, -first):
        while bracket is None and outer[side][0] != bound[side]:
            bracket = grow(side)
    if bracket is not None:
        rho = _brent(lambda r: _profiled_block(r, prof), *bracket, 1e-12)
    else:
        rho = min(outer.values(), key=lambda p: abs(p[1]))[0]
        prof.converged = False
        prof.events.append("rho block has no root inside the bounds")
    prof.solve(rho)

    params = SarParams(theta=prof.theta, sigma=prof.sigma, rho=rho)
    fit = SarFit(
        params=params, method="M", converged=prof.converged,
        iterations=prof.evals, boundary=bracket is None, events=prof.events,
    )
    fit.eta_norm = float(np.linalg.norm(eta_robust(params, design, tuning)))
    return fit

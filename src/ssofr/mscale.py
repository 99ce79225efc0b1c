"""M-scale estimation with the Tukey biweight loss.

The raw biweight loss saturates at c^2/6, which is below the usual target
delta = 0.5, so the estimating equation is solved with the loss normalized
to supremum 1. With delta = 0.5 this gives the 50% breakdown point.

One solver serves the single-sample and the column-wise estimators. It works
on rows, one sample per row: each sample is sorted once, which gives its
median, and its absolute residuals once more, which gives the MAD start.
Safeguarded Newton steps then run on the closed-form derivative of the
clipped-polynomial loss; with t = min((r / (c sigma))^2, 1) the loss and its
slope are combinations of the three power sums of t, so one Newton step takes
three sums over the row. A step that would leave (sigma/2, 2 sigma) is
replaced by the multiplicative fixed-point step. A row stops right after a
Newton step whose error model already puts the new iterate within 5e-13 of
the root: near a simple root the relative error of a Newton iterate is
sigma |f''| d^2 / (2 |f'|), d the relative step, and sigma^2 f'' is another
combination of the same three power sums, so the estimate costs nothing
and no step is spent only to confirm convergence. The loss is C^2 at the
cutoff (f'' is continuous there), so the model holds across it. The
location is the median and the sums run over sorted residuals, so the
M-scale is exactly invariant to the order of the units.

Each iteration splits in two. The three power sums are array reductions
over all active rows at once: they are the only work that grows with the
sample size. The rest of a row's step (mean loss, slope, the choice between
Newton and fixed-point step, the new iterate, its error model and the stop
tests) is a few scalar operations per row, done on Python floats. Robust
FPCA scores about ten candidate directions per call, and on arrays that
short each NumPy operation costs more in call overhead than in arithmetic.
Python floats round as float64 arrays do, so the split changes no bit of
any iterate.

Every step works row by row, so a sample's M-scale does not depend on the
samples that share its call, bit for bit. `m_scale_columns` therefore solves
a wide batch in fixed blocks of rows, and a caller that needs only the
samples whose M-scale may exceed a bound can rule the others out first:
`m_scale_columns_below` evaluates the estimating equation once at that
bound, which the mean loss, non-increasing in sigma, turns into an exact
test up to stated margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NonConvergenceError, ValidationError

# median absolute deviation consistency factor: 1 / Phi^{-1}(3/4)
MAD_SCALE = 1.4826022185056018
# iteration cap and relative step tolerance of the scale solve
_MAX_ITER = 200
_TOL = 1e-10
# a row stops after a Newton step whose modelled relative error is at most
# this: half of 1e-12, leaving the other half to the rounding noise of the
# mean loss near the root, up to a few 1e-14 relative on samples with few
# inliers
_NEWTON_TOL = 0.5e-12
# rows per block of `m_scale_columns`: a block's temporaries (two sorted
# copies, q, t and its powers) stay small where one whole n x n candidate
# batch of rfpc would allocate each at full size. On the 2500 x 2500 batch
# of a queen 50 x 50 draw (one BLAS thread) one call took 0.33-0.39 s and
# blocks of 64 rows 0.17-0.19 s (16 rows 0.15 s, 128 rows 0.25-0.28 s); on
# a 400 x 400 batch 11-13 ms against 7.4-10 ms (16 to 128 rows alike); and
# rfpc's peak RSS at n = 2500 fell from 320 to 97 MB. One size for every n,
# so that the arithmetic does not depend on it; not a knob.
_BLOCK = 64


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


@dataclass(frozen=True)
class MScaleConfig:
    """Biweight tuning constant c and target delta of the M-scale equation;
    the location is the median."""

    c: float = 1.56
    delta: float = 0.5

    def __post_init__(self):
        if self.c <= 0:
            raise ValidationError("c must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError("delta must be in (0, 1)")


@dataclass
class MScaleResult:
    sigma: float
    location: float
    degenerate: bool
    converged: bool
    iterations: int
    history: list = field(default_factory=list)


DEFAULT_MSCALE = MScaleConfig()


def _middle(s: np.ndarray) -> np.ndarray:
    """Median of each row of a row-sorted array, as np.median computes it."""
    n = s.shape[1]
    if n % 2:
        return s[:, n // 2]
    return (s[:, n // 2 - 1] + s[:, n // 2]) / 2.0


# margins of `m_scale_columns_below`, which certifies f(s) < 0 at
# s = bound (1 - _BELOW_MARGIN) by a computed f below -_BELOW_SLACK.
# _BELOW_MARGIN is relative in sigma and must exceed the solver's worst
# stopping error: a row stops within 5e-13 of the root by the Newton error
# model, or after a relative step of at most 1e-10 (_TOL), and the rounding
# noise of the mean loss moves the root by a few 1e-14 on samples with few
# inliers. 1e-8 is a hundred times the largest of these.
_BELOW_MARGIN = 1e-8
# _BELOW_SLACK is absolute in the mean loss and must exceed the rounding
# error of the computed f. Each term rho_norm(t) lies in [0, 1] and is off
# its exact value by at most about 32 units of 2^-53 (residual, scaling and
# square put t within 7 units relative, the loss's slope is at most 3, and
# its evaluation adds a few more). The test compares the sum of the n terms
# with n (delta - slack): in mean units the sum is off by at most
# (n + 32) 2^-53 in any summation order, and the threshold by 2 more.
# 1e-9 covers every n below 9e6, far more units than an n x n candidate
# batch of rfpc can hold.
_BELOW_SLACK = 1e-9


def m_scale_columns_below(x: np.ndarray, bound: float,
                          config: MScaleConfig = DEFAULT_MSCALE) -> np.ndarray:
    """Mask of the columns of x whose `m_scale_columns` value is certainly
    below bound, decided without solving; all False when bound <= 0.

    The mean biweight loss of a sample is non-increasing in sigma, so the
    M-scale of a column lies below s when f(s) = mean rho_norm((x - mu) /
    (c s)) - delta < 0, mu the median as `_start` computes it (one sort
    of each column, `_middle`'s bits). A column is certified where the
    computed f at s = bound (1 - _BELOW_MARGIN) is below -_BELOW_SLACK: the
    slack covers the rounding of f, and the margin the solver's stopping
    error, so the value the solver would return is below bound. Like
    `m_scale_columns`, each column's answer depends on that column alone.
    """
    x = np.asarray(x, dtype=float)
    if not bound > 0.0:
        return np.zeros(x.shape[1], dtype=bool)
    s = np.sort(x.T, axis=1)
    t = np.abs(s - _middle(s)[:, None])
    t /= config.c * (bound * (1.0 - _BELOW_MARGIN))
    np.minimum(t, 1.0, out=t)
    t *= t
    return _biweight(t).sum(axis=1) < (config.delta - _BELOW_SLACK) * t.shape[1]


def _start(x: np.ndarray, cfg: MScaleConfig) -> tuple:
    """Location, sorted squared scaled residuals, degenerate flags and start
    scales of the rows of x, one sample per row.

    Each sample is sorted once for its median and once more, as absolute
    residuals, for its MAD. A row is degenerate when more than (1 - delta) n
    of its values coincide with the location estimate, that is when the
    sorted absolute residual at index floor((1 - delta) n) is still 0. The
    start scale is the normalized MAD, or the root mean square where the MAD
    collapses on a row that is not degenerate, whose equation is still
    solvable.

    A row with exactly delta n nonzero residuals, k = (1 - delta) n zeros
    and (n - k) / n == delta in floating point, is not degenerate, but its
    mean loss is at most delta and equals it on the whole interval
    (0, sigma*], sigma* = a[k] / c the smallest nonzero |r| / c. Iterates
    from above creep toward sigma* by ever smaller steps and never meet the
    stop rule, so such a row starts at sigma*: there every t is exactly 1
    (sigma*^2 rounds to q[k]), the mean loss is delta to the bit, and the
    solver's first step returns sigma* unchanged.

    The returned q = (|x - mu| / c)^2 is sorted along each row, so
    everything computed from it depends on the order of the units only
    through mu, and the median does not.
    """
    n = x.shape[1]
    mu = _middle(np.sort(x, axis=1))
    a = np.sort(np.abs(x - mu[:, None]), axis=1)
    # floor((1 - delta) n) <= n - 1 for delta > 0, but (1 - delta) n rounds
    # to n once delta is below about 1e-16
    k = min(int(np.floor((1.0 - cfg.delta) * n)), n - 1)
    degenerate = a[:, k] == 0.0
    sigma = MAD_SCALE * _middle(a)
    collapsed = sigma == 0.0
    if collapsed.any():
        sigma[collapsed] = np.sqrt(np.mean(a[collapsed] ** 2, axis=1))
    # a Python scan of one column: cheaper than a reduction on the short
    # batches of rfpc, which call this thousands of times per fit
    if k and (n - k) / n == cfg.delta and 0.0 in a[:, k - 1].tolist():
        edge = (a[:, k - 1] == 0.0) & ~degenerate
        sigma[edge] = a[edge, k] / cfg.c
    return mu, (a / cfg.c) ** 2, degenerate, sigma


def _solve(q: np.ndarray, sigma: np.ndarray, cfg: MScaleConfig,
           history: list | None = None) -> tuple:
    """Solve mean_i rho_norm(r_i / sigma) = delta for every row of
    q = (|r| / c)^2.

    With t = min(q / sigma^2, 1) and the power sums S_k = sum_i t_i^k, the
    mean loss is (3 (S_1 - S_2) + S_3) / n and f(sigma) = mean rho_norm -
    delta has the closed-form derivative
    f'(sigma) = -6 (S_1 - 2 S_2 + S_3) / (n sigma). A Newton step is taken
    when that derivative is nonzero and the step lands in (sigma/2, 2 sigma);
    otherwise the multiplicative fixed-point step
    sigma * sqrt(mean rho_norm / delta), which keeps every iterate positive
    and converges from any start.

    A row stops right after a Newton step of relative size d when the Newton
    error model |f''| d^2 sigma / (2 |f'|) puts the new iterate within
    5e-13 sigma of the root, with
    sigma^2 f''(sigma) = 6 (3 S_1 - 10 S_2 + 7 S_3) / n from the same sums;
    the step test |step| <= 1e-10 sigma stays as the fallback, and is the
    only test after a fixed-point step.

    Each iteration takes S_1, S_2 and S_3 as array reductions over the
    active rows, then each row's step on Python floats: on the ten or so
    rows of an rfpc batch, the step as array operations would cost a NumPy
    call per operation, most of the iteration's time. The scalar step keeps
    the expression tree of the array form, and Python floats and math.sqrt
    round as float64 arrays and np.sqrt do, so every iterate, iteration
    count and history entry has the same bits in either form.
    The sums run over each row as given; over sorted rows (as `_start`
    returns them) the result does not depend on the order of the units.
    Returns (sigma, iterations); history, if given, receives every iterate.
    """
    n = q.shape[1]
    delta = cfg.delta
    sigma = np.array(sigma, dtype=float)
    rows = np.arange(sigma.size)
    if history is not None:
        history.append(sigma.copy())
    for it in range(1, _MAX_ITER + 1):
        s = sigma[rows]
        t = q / (s * s)[:, None]
        np.minimum(t, 1.0, out=t)
        s1 = t.sum(axis=1)
        tk = t * t
        s2 = tk.sum(axis=1)
        tk *= t
        s3 = tk.sum(axis=1)
        new, going = [], []
        for row, (si, a1, a2, a3) in enumerate(
                zip(s.tolist(), s1.tolist(), s2.tolist(), s3.tolist())):
            mean_rho = (3.0 * (a1 - a2) + a3) / n
            slope = 6.0 / n * (a1 - 2.0 * a2 + a3)  # -sigma f'(sigma)
            gap = mean_rho - delta
            # the Newton iterate si (1 + gap / slope) must lie in (si/2, 2 si)
            if -0.5 * slope < gap < slope:
                ratio = gap / slope
                s_new = si * (1.0 + ratio)
                # sigma^2 f''(sigma); the error model is |curv| ratio^2 / (2 slope)
                curv = 6.0 / n * (3.0 * a1 - 10.0 * a2 + 7.0 * a3)
                settled = abs(curv) * ratio * ratio <= 2.0 * _NEWTON_TOL * slope
            else:
                s_new = si * math.sqrt(mean_rho / delta)
                settled = False
            new.append(s_new)
            if abs(s_new - si) > _TOL * si and not settled:
                going.append(row)
        sigma[rows] = new
        if history is not None:
            history.append(sigma.copy())
        if not going:
            return sigma, it
        if len(going) < len(new):
            rows = rows[going]
            q = q[going]
    raise NonConvergenceError(f"m_scale did not converge in {_MAX_ITER} iterations")


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
    mu, q, degenerate, sigma = _start(x[None, :], config)
    mu = float(mu[0])
    if degenerate[0]:
        return MScaleResult(0.0, mu, True, True, 0, [0.0])
    history = []
    sigma, iterations = _solve(q, sigma, config, history)
    return MScaleResult(
        float(sigma[0]), mu, False, True, iterations,
        [float(h[0]) for h in history],
    )


def m_scale(x, config: MScaleConfig = DEFAULT_MSCALE) -> float:
    return m_scale_info(x, config).sigma


def m_scale_columns(x: np.ndarray, config: MScaleConfig = DEFAULT_MSCALE) -> np.ndarray:
    """Column-wise M-scales of a 2-D array.

    Same estimator and solver as m_scale applied to each column; used where
    many candidate projections must be scored at once. The solver works on
    one sample per row, so x is transposed once: passing the transpose of a
    C-contiguous (m x n) array makes that a view. Degenerate columns get 0.
    Each column's value depends on that column alone, bit for bit: every
    step of `_start` and `_solve` works row by row. So the columns are
    solved in blocks of `_BLOCK`, which bounds the temporaries of a wide
    batch and changes no value.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValidationError("m_scale_columns needs an (n >= 2) x m array")
    rows = x.T
    # one block at least, so that an array with no columns returns an empty one
    return np.concatenate([
        _row_scales(rows[i:i + _BLOCK], config)
        for i in range(0, max(rows.shape[0], 1), _BLOCK)
    ])


def _row_scales(x: np.ndarray, config: MScaleConfig) -> np.ndarray:
    """M-scales of the rows of x, one sample per row; degenerate rows get 0."""
    _, q, degenerate, sigma = _start(x, config)
    if not degenerate.any():
        return _solve(q, sigma, config)[0]
    out = np.zeros(x.shape[0])
    keep = ~degenerate
    if keep.any():
        out[keep], _ = _solve(q[keep], sigma[keep], config)
    return out

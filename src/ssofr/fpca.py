"""Functional principal components, classical and robust.

Both variants work in the finite-dimensional space B = (coeffs - center) G,
where G is the symmetric square root of the basis Gram matrix: unit vectors
there correspond to unit-norm functions, so the classical basis comes from an
eigendecomposition of the covariance of B, and the robust basis from
projection pursuit maximizing an M-scale of the projections, with deflation
enforcing orthogonality.

The pursuit starts each component from the best normalized observation and
rotates it, plane by plane, towards the principal axes of the deflated data
(the eigenvectors of its classical scatter, one eigendecomposition per
component), then along the sweep's net displacement, a pattern move in the
manner of Hooke and Jeeves. In each plane a zoomed angle grid picks the
rotation; it reuses the values it already has, so no angle is scored twice.
Each batch of angles, and each component's batch of candidate starts, needs
only its first maximum, so it goes to `m_scale_columns` with a floor (the
best value so far, or -inf), and the M-scale kernel solves only the columns
that may reach that maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DegenerateDataError, ValidationError
from .functional import BasisSystem, CoefficientMatrix
from .mscale import DEFAULT_MSCALE, MScaleConfig, m_scale_columns

_REFINE_TOL = 1e-8
_REFINE_SWEEPS = 100
_GRID = 13  # angles per zoom grid of `_rotate`, both ends included
_ZOOMS = 6
# grid points `_rotate` scores: at zoom 0 all but the centre (u itself) and
# the last end (the first one up to sign); later, all but the centre and ends
_SCORED_FIRST = np.r_[0:_GRID // 2, _GRID // 2 + 1:_GRID - 1]
_SCORED_ZOOM = np.r_[1:_GRID // 2, _GRID // 2 + 1:_GRID - 1]
_GRID_STEPS = np.arange(_GRID, dtype=float)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """K component functions with criterion values and training scores.

    phi holds one M-vector of basis coefficients per component (columns), so
    component k evaluates as eval @ phi[:, k]. scores[i, k] is the inner
    product of curve i (centered) with component k. For rfpc, sweeps[k] is
    the number of projection-pursuit sweeps component k took. events names
    each iterative stage that stopped at its cap (an rfpc component at the
    sweep cap, the rfpls reweighting at the iteration cap); `fit` passes
    them on to `fit_info.events`.
    """

    phi: np.ndarray
    lambdas: np.ndarray
    scores: np.ndarray
    method: str
    center: np.ndarray
    basis: BasisSystem
    truncated: bool = False
    pls_state: object = None
    sweeps: tuple = ()
    events: tuple = ()

    @property
    def K(self) -> int:
        return self.phi.shape[1]


def _scores(coeffs, center, basis: BasisSystem, phi) -> np.ndarray:
    """Inner products of the centered curves with the component functions."""
    return (coeffs - center) @ basis.gram @ phi


def _finish(u, lambdas, coeffs, center, basis, method, pls_state=None, **fields):
    """The decomposition of the unit directions u (columns) found in the
    Gram-sqrt space, as every method ends.

    Each column is flipped so that its largest-magnitude entry is positive,
    mapped to basis coefficients through the inverse Gram square root, and
    the curves are scored against it. A PLS state takes the same signs: its
    directions are the signed u, and its components and response loadings
    pair with u's columns. `fields` are further `Decomposition` fields.
    """
    signs = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    u = u * signs
    if pls_state is not None:
        pls_state = replace(
            pls_state, directions=u, components=pls_state.components * signs,
            loadings_q=pls_state.loadings_q * signs,
        )
    phi = basis.gram_inv_sqrt @ u
    return Decomposition(
        phi=phi, lambdas=lambdas, scores=_scores(coeffs, center, basis, phi),
        method=method, center=center, basis=basis, pls_state=pls_state,
        **fields,
    )


def _check_k(K: int, n: int, M: int) -> None:
    if K < 1:
        raise ValidationError("K must be >= 1")
    if K > min(n - 1, M):
        raise ValidationError(f"K={K} exceeds min(n-1, M)={min(n - 1, M)}")


def fpc(coeff_matrix: CoefficientMatrix, basis: BasisSystem, K: int) -> Decomposition:
    """Classical functional principal components.

    Eigendecomposition of the sample covariance (ddof=1) of the Gram-sqrt
    transformed coefficients, mapped back through the inverse square root.
    """
    a = coeff_matrix.coeffs
    n, M = a.shape
    _check_k(K, n, M)
    center = a.mean(axis=0)
    b = (a - center) @ basis.gram_sqrt
    cov = b.T @ b / (n - 1)
    vals, vecs = np.linalg.eigh(cov)
    if vals[-1] <= 0:
        raise DegenerateDataError("curves carry no variance")
    order = np.argsort(vals)[::-1][:K]
    lambdas = np.maximum(vals[order], 0.0)
    return _finish(vecs[:, order], lambdas, a, center, basis, "FPC")


def _grid(lo: float, hi: float) -> np.ndarray:
    """np.linspace(lo, hi, _GRID), bit for bit, by numpy's own formula
    without its per-call checks, which cost more than the grid itself.
    The step (hi - lo) / (_GRID - 1) is never 0 here."""
    grid = _GRID_STEPS * ((hi - lo) / (_GRID - 1)) + lo
    grid[-1] = hi
    return grid


def _rotate(b: np.ndarray, u: np.ndarray, v: np.ndarray, crit: float,
            config: MScaleConfig) -> tuple:
    """Best rotation of the unit direction u in the plane of u and v.

    Searches the angle theta of cos(theta) u + sin(theta) v_perp, v_perp the
    unit part of v orthogonal to u, on a 13-point grid over [-pi/2, pi/2]
    zoomed 6 times onto the best point and its two neighbours. No angle is
    scored twice. At zoom 0, theta = 0 is u, whose value is crit, and -pi/2
    stands for both ends, which are one direction up to sign. Each later
    grid is centred on the best point so far, whose value is known, and ends
    at that point's neighbours on the grid before, which did not beat it.
    So a plane considers 11 + 5 x 10 = 61 angles. The first maximum of the
    scored angles, in grid order, moves u only if it strictly improves on
    crit, so each batch goes to `m_scale_columns` with the best value so
    far as its floor: a column that cannot beat it comes back -inf,
    unsolved, and the maximum and the values it is compared with keep their
    bits. A batch is built in row layout, one candidate direction per row,
    so its projections (candidates x units) reach `m_scale_columns` as the
    transpose of a C-contiguous array, a view in its row layout. Returns
    (u, crit); a plane where |v_perp| < 1e-12 is skipped.
    """
    v = v - (u @ v) * u
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        return u, crit
    v = v / norm
    thetas = _grid(-np.pi / 2, np.pi / 2)
    scored = _SCORED_FIRST
    best_theta, best_val = 0.0, crit
    for _zoom in range(_ZOOMS):
        t = thetas[scored]
        cand = np.cos(t)[:, None] * u + np.sin(t)[:, None] * v
        vals = m_scale_columns((cand @ b.T).T, config, best_val)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_theta, best_val = float(t[i]), float(vals[i])
        step = thetas[1] - thetas[0]
        thetas = _grid(best_theta - step, best_theta + step)
        scored = _SCORED_ZOOM
    if best_val > crit:
        u = np.cos(best_theta) * u + np.sin(best_theta) * v
        u = u / np.linalg.norm(u)
    return u, best_val


def _sphere_refine(b: np.ndarray, u: np.ndarray, config: MScaleConfig) -> tuple:
    """Projection pursuit on the unit sphere for the M-scale criterion.

    Each sweep rotates u (`_rotate`) in the planes of u and the principal
    axes of the deflated data b, the eigenvectors of b^T b in order of
    decreasing eigenvalue; axes with eigenvalue <= 1e-12 times the largest
    are directions deflated away or never spanned by the data, and are left
    out. A pattern move then
    rotates u in the plane of u and the sweep's net displacement
    u - u_start. Stops when a sweep improves the criterion by less than a
    relative 1e-8, or after 100 sweeps. Returns (u, crit, sweeps).
    """
    crit = float(m_scale_columns((b @ u)[:, None], config)[0])
    evals, evecs = np.linalg.eigh(b.T @ b)
    axes = evecs[:, evals > 1e-12 * evals[-1]][:, ::-1].T
    for sweep in range(1, _REFINE_SWEEPS + 1):
        u_start, crit_at_sweep_start = u, crit
        for v in axes:
            u, crit = _rotate(b, u, v, crit, config)
        u, crit = _rotate(b, u, u - u_start, crit, config)
        if crit - crit_at_sweep_start <= _REFINE_TOL * max(crit, 1e-300):
            break
    return u, crit, sweep


def rfpc(
    coeff_matrix: CoefficientMatrix,
    basis: BasisSystem,
    K: int,
    m_scale_config: MScaleConfig = DEFAULT_MSCALE,
) -> Decomposition:
    """Robust functional principal components by projection pursuit.

    Sequentially maximizes the M-scale of projections over unit directions in
    the orthogonal complement of the components already found. Candidates are
    the normalized centered observations (deflated); the best one, with ties
    broken toward the lowest observation index, is refined by
    `_sphere_refine`. The candidates are scored by one `m_scale_columns`
    call with floor -inf, which solves only those that may be the first
    maximum. Each component's sweep count is kept in `sweeps`;
    `events` names each component that stopped at the sweep cap.
    """
    a = coeff_matrix.coeffs
    n, M = a.shape
    _check_k(K, n, M)
    if n < 4:
        raise ValidationError("robust components need n >= 4")
    center = np.median(a, axis=0)
    b = (a - center) @ basis.gram_sqrt
    us, lambdas, sweeps = [], [], []
    for _k in range(K):
        norms = np.linalg.norm(b, axis=1)
        keep = norms > 1e-12 * norms.max()
        if not keep.any():
            raise DegenerateDataError(
                "all candidate directions vanish after deflation"
            )
        cand = b[keep] / norms[keep, None]  # n_cand x M
        crit = m_scale_columns((cand @ b.T).T, m_scale_config, -np.inf)
        best = int(np.argmax(crit))  # first max wins: lowest index tie-break
        u = cand[best]
        u, _, n_sweeps = _sphere_refine(b, u, m_scale_config)
        sweeps.append(n_sweeps)
        # re-orthogonalize against previous directions for numerical hygiene
        for prev in us:
            u -= (u @ prev) * prev
        u /= np.linalg.norm(u)
        lam = float(m_scale_columns((b @ u)[:, None], m_scale_config)[0])
        us.append(u)
        lambdas.append(lam * lam)
        b = b - np.outer(b @ u, u)

    events = tuple(
        f"rfpc component {k} stopped at the {_REFINE_SWEEPS}-sweep cap"
        for k, n_sweeps in enumerate(sweeps, start=1) if n_sweeps >= _REFINE_SWEEPS
    )
    return _finish(
        np.column_stack(us), np.array(lambdas), a, center, basis, "RFPC",
        sweeps=tuple(sweeps), events=events,
    )


def scores_for(
    decomposition: Decomposition,
    new_coeff_matrix: CoefficientMatrix,
    basis: BasisSystem,
) -> np.ndarray:
    """Score new curves against a fitted decomposition."""
    if not decomposition.basis.same_as(basis):
        raise ValidationError("basis differs from the one used at fit time")
    a = new_coeff_matrix.coeffs
    if a.shape[1] != decomposition.center.size:
        raise ValidationError("coefficient dimension mismatch")
    return _scores(a, decomposition.center, basis, decomposition.phi)

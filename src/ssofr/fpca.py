"""Functional principal components, classical and robust.

Both variants work in the finite-dimensional space B = (coeffs - center) G,
where G is the symmetric square root of the basis Gram matrix: unit vectors
there correspond to unit-norm functions, so the classical basis comes from an
eigendecomposition of the covariance of B, and the robust basis from
projection pursuit maximizing an M-scale of the projections, with deflation
enforcing orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDataError, ValidationError
from .functional import BasisSystem, CoefficientMatrix
from .mscale import DEFAULT_MSCALE, MScaleConfig, m_scale_columns

_REFINE_TOL = 1e-8
_REFINE_SWEEPS = 100


@dataclass(frozen=True, eq=False)
class Decomposition:
    """K component functions with criterion values and training scores.

    phi holds one M-vector of basis coefficients per component (columns), so
    component k evaluates as eval @ phi[:, k]. scores[i, k] is the inner
    product of curve i (centered) with component k.
    """

    phi: np.ndarray
    lambdas: np.ndarray
    scores: np.ndarray
    method: str
    center: np.ndarray
    basis: BasisSystem
    truncated: bool = False
    pls_state: object = None

    @property
    def K(self) -> int:
        return self.phi.shape[1]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude entry is positive."""
    v = vectors.copy()
    idx = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[idx, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    return v * signs


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
    u = _fix_signs(vecs[:, order])
    phi = basis.gram_inv_sqrt @ u
    scores = (a - center) @ basis.gram @ phi
    return Decomposition(
        phi=phi, lambdas=lambdas, scores=scores, method="FPC",
        center=center, basis=basis,
    )


def _sphere_refine(b: np.ndarray, u: np.ndarray, config: MScaleConfig) -> tuple:
    """Coordinate ascent on the unit sphere for the M-scale criterion.

    For each coordinate axis, searches rotations in the plane spanned by the
    current direction and that axis, scoring batches of angles at once.
    A batch is built in row layout, one candidate direction per row. Its
    projections (candidates x units) reach `m_scale_columns` as the
    transpose of a C-contiguous array, which that function turns back into
    one sample per row without a copy.
    Stops when a full sweep improves the criterion by less than a relative
    1e-8, or after 100 sweeps.
    """
    M = u.size
    crit = float(m_scale_columns((b @ u)[:, None], config)[0])
    angles0 = np.linspace(-np.pi / 2, np.pi / 2, 13)
    for _ in range(_REFINE_SWEEPS):
        crit_at_sweep_start = crit
        for j in range(M):
            e = np.zeros(M)
            e[j] = 1.0
            e_perp = e - (u @ e) * u
            norm = np.linalg.norm(e_perp)
            if norm < 1e-12:
                continue
            e_perp /= norm
            lo_a, hi_a = angles0[0], angles0[-1]
            best_theta, best_val = 0.0, crit
            for _zoom in range(6):
                thetas = np.linspace(lo_a, hi_a, 13)
                cand = np.outer(np.cos(thetas), u) + np.outer(np.sin(thetas), e_perp)
                vals = m_scale_columns((cand @ b.T).T, config)
                i = int(np.argmax(vals))
                if vals[i] > best_val:
                    best_val = float(vals[i])
                    best_theta = float(thetas[i])
                step = thetas[1] - thetas[0]
                lo_a, hi_a = best_theta - step, best_theta + step
            if best_val > crit:
                u = np.cos(best_theta) * u + np.sin(best_theta) * e_perp
                u /= np.linalg.norm(u)
                crit = best_val
        if crit - crit_at_sweep_start <= _REFINE_TOL * max(crit, 1e-300):
            break
    return u, crit


def rfpc(
    coeff_matrix: CoefficientMatrix,
    basis: BasisSystem,
    K: int,
    m_scale_config: MScaleConfig = DEFAULT_MSCALE,
) -> Decomposition:
    """Robust functional principal components by projection pursuit.

    Sequentially maximizes the M-scale of projections over unit directions in
    the orthogonal complement of the components already found. Candidates are
    the normalized centered observations (deflated), refined by spherical
    coordinate ascent; ties break toward the lowest observation index.
    """
    a = coeff_matrix.coeffs
    n, M = a.shape
    _check_k(K, n, M)
    if n < 4:
        raise ValidationError("robust components need n >= 4")
    center = np.median(a, axis=0)
    b_full = (a - center) @ basis.gram_sqrt

    b = b_full.copy()
    us = []
    lambdas = []
    for _k in range(K):
        norms = np.linalg.norm(b, axis=1)
        keep = norms > 1e-12 * max(norms.max(), 1.0)
        if not keep.any():
            raise DegenerateDataError(
                "all candidate directions vanish after deflation"
            )
        cand = b[keep] / norms[keep, None]  # n_cand x M
        crit = m_scale_columns((cand @ b.T).T, m_scale_config)
        best = int(np.argmax(crit))  # first max wins: lowest index tie-break
        u = cand[best]
        u, _ = _sphere_refine(b, u, m_scale_config)
        # re-orthogonalize against previous directions for numerical hygiene
        for prev in us:
            u -= (u @ prev) * prev
        u /= np.linalg.norm(u)
        lam = float(m_scale_columns((b @ u)[:, None], m_scale_config)[0])
        us.append(u)
        lambdas.append(lam * lam)
        b = b - np.outer(b @ u, u)

    u_mat = _fix_signs(np.column_stack(us))
    phi = basis.gram_inv_sqrt @ u_mat
    scores = (a - center) @ basis.gram @ phi
    return Decomposition(
        phi=phi, lambdas=np.array(lambdas), scores=scores, method="RFPC",
        center=center, basis=basis,
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
    return (a - decomposition.center) @ basis.gram @ decomposition.phi

"""Discretized functional data: datasets, basis systems, projection.

Curves are stored as rows of an n x p matrix sampled on a shared strictly
increasing grid. A basis system carries the p x M evaluation matrix, the
Gram matrix of pairwise basis inner products and its symmetric square root,
which reduce the functional regression problems to finite-dimensional ones,
and builds on first use its least-squares projector, the M x p pseudo-inverse
of the evaluation matrix, so that projecting curves is one matrix product.
All inner products are trapezoidal quadrature on the observation grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_trapz = getattr(np, "trapezoid", None) or np.trapz

from .exceptions import SingularGramError, RankDeficiencyError, ValidationError

GRAM_SQRT_RTOL = 1e-10
GRAM_EIG_FLOOR = 1e-12


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Trapezoidal quadrature weights for a strictly increasing grid."""
    grid = np.asarray(grid, dtype=float)
    w = np.zeros_like(grid)
    d = np.diff(grid)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def inner_product(f_on_grid, g_on_grid, grid) -> float:
    """Trapezoidal approximation of the L2 inner product of f and g."""
    f = np.asarray(f_on_grid, dtype=float)
    g = np.asarray(g_on_grid, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if f.shape != g.shape or f.shape != grid.shape:
        raise ValidationError(
            f"inner_product shape mismatch: {f.shape}, {g.shape}, {grid.shape}"
        )
    return float(_trapz(f * g, grid))


def _validate_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("grid must be a 1-D array with at least 2 points")
    if not np.all(np.isfinite(grid)):
        raise ValidationError("grid contains non-finite values")
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("grid must be strictly increasing")
    return grid


@dataclass(frozen=True, eq=False)
class FunctionalDataset:
    """n discretized curves on a shared grid plus the n scalar responses."""

    grid: np.ndarray
    curves: np.ndarray
    response: np.ndarray
    ids: tuple = ()

    def __post_init__(self):
        grid = _validate_grid(self.grid)
        curves = np.asarray(self.curves, dtype=float)
        response = np.asarray(self.response, dtype=float)
        if curves.ndim != 2 or curves.shape[1] != grid.size:
            raise ValidationError(
                f"curves must be n x {grid.size}, got {curves.shape}"
            )
        if not np.all(np.isfinite(curves)):
            raise ValidationError("curves contain non-finite values")
        if response.ndim != 1 or response.size != curves.shape[0]:
            raise ValidationError("response length must equal curve count")
        if not np.all(np.isfinite(response)):
            raise ValidationError("response contains non-finite values")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "response", response)
        if self.ids and len(self.ids) != curves.shape[0]:
            raise ValidationError("ids length must equal curve count")

    @property
    def n(self) -> int:
        return self.curves.shape[0]

    @property
    def p(self) -> int:
        return self.grid.size


@dataclass(frozen=True, eq=False)
class BasisSystem:
    """M basis functions evaluated on a grid with Gram-matrix machinery.

    gram is the matrix of pairwise basis inner products under trapezoidal
    quadrature; gram_sqrt is its symmetric positive-definite square root and
    gram_inv_sqrt the inverse of that square root.
    """

    kind: str
    M: int
    grid: np.ndarray
    eval: np.ndarray
    gram: np.ndarray
    gram_sqrt: np.ndarray
    gram_inv_sqrt: np.ndarray
    degree: int | None = None
    knots: np.ndarray | None = field(default=None, repr=False)

    def same_as(self, other: "BasisSystem") -> bool:
        """True when two systems are interchangeable for scoring."""
        return (
            self.kind == other.kind
            and self.M == other.M
            and self.grid.shape == other.grid.shape
            and np.array_equal(self.grid, other.grid)
            and np.array_equal(self.eval, other.eval)
        )

    @cached_property
    def projector(self) -> np.ndarray:
        """The M x p pseudo-inverse of `eval`, from one thin SVD."""
        u, s, vt = np.linalg.svd(self.eval, full_matrices=False)
        if s[0] <= 0 or s[-1] < 1e-12 * s[0]:
            raise RankDeficiencyError(
                "basis evaluation matrix is rank deficient on this grid"
            )
        return (vt.T / s) @ u.T


def _fourier_eval(grid: np.ndarray, M: int) -> np.ndarray:
    """Orthonormal Fourier basis on [grid[0], grid[-1]]: constant, then
    sin/cos pairs of increasing integer frequency."""
    a, b = grid[0], grid[-1]
    L = b - a
    u = (grid - a) / L
    cols = [np.full_like(grid, 1.0 / np.sqrt(L))]
    j = 1
    while len(cols) < M:
        cols.append(np.sqrt(2.0 / L) * np.sin(2.0 * np.pi * j * u))
        if len(cols) < M:
            cols.append(np.sqrt(2.0 / L) * np.cos(2.0 * np.pi * j * u))
        j += 1
    return np.column_stack(cols)


def _bspline_eval(grid: np.ndarray, M: int, degree: int):
    """The p x M design matrix of the clamped B-spline basis with uniform
    interior knots on [grid[0], grid[-1]], and its knots.

    Each row holds the degree + 1 basis functions that are nonzero on the
    knot interval t[l] <= x < t[l+1] of its grid point, l in [k, M - 1] (the
    right end of the grid takes the last interval). They come from the
    Cox-de Boor recursion (de Boor 1978) as scipy's `_deBoor_D` runs it,
    with each step over all grid points and all the step's terms at once:
    step j splits each value h_i over the span (t[l+i+1-j], t[l+i+1]) into
    a part for h_i and one for h_{i+1}. The products and sums are scipy's,
    so the matrix is scipy's to the bit. A zero-length span contributes 0."""
    a, b = grid[0], grid[-1]
    k = degree
    interior = np.linspace(a, b, M - k + 1)[1:-1]
    knots = np.concatenate([np.full(k + 1, a), interior, np.full(k + 1, b)])
    ell = np.clip(np.searchsorted(knots, grid, "right") - 1, k, M - 1)
    t = knots[ell[:, None] + np.arange(1 - k, k + 1)]  # t[l + i], i = 1 - k, ..., k
    x = grid[:, None]
    h = np.ones((grid.size, 1))
    for j in range(1, k + 1):
        xa, xb = t[:, k - j:k], t[:, k:k + j]
        span = xb - xa
        w = np.divide(h, span, out=np.zeros_like(span), where=span != 0.0)
        h = np.zeros((grid.size, j + 1))
        h[:, :j] = w * (xb - x)
        h[:, 1:] += w * (x - xa)
    design = np.zeros((grid.size, M))
    design[np.arange(grid.size)[:, None], ell[:, None] - k + np.arange(k + 1)] = h
    return design, knots


def build_basis(kind: str, M: int, grid, degree: int = 3) -> BasisSystem:
    """Construct a B-spline or Fourier basis system on the grid.

    The Gram matrix is computed by trapezoidal quadrature and its symmetric
    square root by eigendecomposition; a Gram matrix with an eigenvalue below
    1e-12 times the largest is rejected as singular.
    """
    grid = _validate_grid(grid)
    if M < 2 and kind != "fourier":
        raise ValidationError("M must be >= 2")
    if M < 1:
        raise ValidationError("M must be >= 1")
    if grid.size < M:
        raise ValidationError(
            f"grid has {grid.size} points but basis needs at least M={M}"
        )
    if kind == "fourier":
        ev = _fourier_eval(grid, M)
        knots = None
        deg = None
    elif kind == "bspline":
        if degree < 1:
            raise ValidationError("bspline degree must be >= 1")
        if M < degree + 1:
            raise ValidationError(f"bspline needs M >= degree+1 = {degree + 1}")
        ev, knots = _bspline_eval(grid, M, degree)
        deg = degree
    else:
        raise ValidationError(f"unknown basis kind {kind!r}")

    q = trapezoid_weights(grid)
    gram = ev.T @ (q[:, None] * ev)
    gram = 0.5 * (gram + gram.T)

    vals, vecs = np.linalg.eigh(gram)
    floor = GRAM_EIG_FLOOR * vals[-1]
    if vals[-1] <= 0 or np.any(vals < floor):
        raise SingularGramError(
            "basis Gram matrix is numerically singular "
            f"(eigenvalue range [{vals[0]:.3e}, {vals[-1]:.3e}])"
        )
    vals = np.maximum(vals, floor)
    gram_sqrt = (vecs * np.sqrt(vals)) @ vecs.T
    gram_inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    gram_sqrt = 0.5 * (gram_sqrt + gram_sqrt.T)
    gram_inv_sqrt = 0.5 * (gram_inv_sqrt + gram_inv_sqrt.T)

    err = np.abs(gram_sqrt @ gram_sqrt - gram).max()
    if err > GRAM_SQRT_RTOL * max(1.0, np.abs(gram).max()):
        raise SingularGramError(
            f"Gram square root inaccurate: residual {err:.3e}"
        )
    return BasisSystem(
        kind=kind, M=M, grid=grid, eval=ev, gram=gram,
        gram_sqrt=gram_sqrt, gram_inv_sqrt=gram_inv_sqrt,
        degree=deg, knots=knots,
    )


@dataclass(frozen=True, eq=False)
class CoefficientMatrix:
    """n x M basis-expansion coefficients of a set of curves."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 2:
            raise ValidationError("coeffs must be 2-D")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @property
    def M(self) -> int:
        return self.coeffs.shape[1]


def project_curves(dataset: FunctionalDataset, basis: BasisSystem) -> CoefficientMatrix:
    """Least-squares projection of every curve onto the basis span."""
    if dataset.grid.shape != basis.grid.shape or not np.array_equal(
        dataset.grid, basis.grid
    ):
        raise ValidationError("dataset and basis must share the same grid")
    return CoefficientMatrix(coeffs=dataset.curves @ basis.projector.T)


def reconstruct_curves(coeffs: CoefficientMatrix, basis: BasisSystem) -> np.ndarray:
    """Evaluate the basis expansions back on the grid (n x p)."""
    if coeffs.M != basis.M:
        raise ValidationError("coefficient/basis dimension mismatch")
    return coeffs.coeffs @ basis.eval.T

"""Spatial weight matrices: great-circle distances, inverse-distance and
grid-contiguity schemes, row normalization, and the spectrum of W.

`SpatialWeights` owns the spectrum of its matrix. The eigenvalues are
computed on their first read, not when the object is built, and then kept;
`dataclasses.replace` reads them and passes them on to the copy. They give
the admissible interval for rho, log|det(I - rho W)| and
tr W (I - rho W)^{-1} in O(n) per rho (Ord 1975). The resolvent solve
(I - rho W)^{-1} b (`solve`), which the M-estimator's rho block and the
reduced form use, needs no spectrum, and `check_rho` admits rho
from the largest absolute row sum of W while the spectrum is still unknown
(see there): prediction decomposes nothing.

The spectrum and the solve take their route from W itself; nothing else
chooses it. Every built-in scheme, and most custom matrices, are
W = D^{-1} A with symmetric A: W is then similar to the symmetric
S = D^{1/2} W D^{-1/2} (LeSage & Pace 2009, ch. 4). `_symmetrizer` finds
such a diagonal D when one exists, for row-normalized and unnormalized
matrices alike, and `solve` then runs conjugate gradients on the symmetric
positive definite I - rho S, falling back to dense LU near a bound. The same
breadth-first search of the pattern of W that finds D also 2-colours the
pattern when it can, once per `SpatialWeights`. The eigenvalues (real and
sorted) then take one of two routes. When the nonzero pattern of W is
bipartite, as rook contiguity on a rectangular grid and any tree are,
ordering the units by colour gives S = [[0, B], [B^T, 0]], whose eigenvalues
are +-sigma_i(B) and ||P| - |Q|| zeros (Golub & Kahan 1965): one SVD of the
half-size block B. Any other pattern takes one symmetric
`eigvalsh(S)`. A W with no symmetrizer takes the general nonsymmetric
`eigvals`, and `solve` is a dense LU solve.

Lattice W have at most 8 neighbours per unit, so the same search also keeps
W in CSR form (`_Csr`) when at most n^2 / 16 of its entries are nonzero
(`_CSR_FILL`, sized by the measured crossover of the two matvecs): the
contiguity grids of 20 x 20 to 50 x 50 units fill 0.4-1.9% of W, an
inverse-distance W 99.8%. With it the value check behind D, each CG step
and the W x of the estimators (`SpatialWeights.matvec`) cost O(nnz) rather
than O(n^2).
Only the rows that hold an entry are reduced, so the empty row of an
isolated unit stays 0 (see `_matvec`). A dense pattern keeps the BLAS
matvec and the dense value check.

The admissible interval for rho is (-1/|lambda_min|, 1/lambda_max), where
lambda_min and lambda_max are the smallest and largest real eigenvalues of W.
Asymmetric matrices can have complex eigenvalues; only the (numerically)
real ones are used. lambda_min falls back to -1 when none is negative, and
the upper end is 1 unless lambda_max exceeds 1, as it can for a matrix that
is not row-normalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exceptions import NumericalError, ValidationError

EARTH_RADIUS_KM = 6371.0
_REAL_EIG_TOL = 1e-9
_SYM_RTOL = 1e-12
_SYM_BLOCK = 1 << 15  # entries per row block of the dense symmetry check
# W is kept in CSR form (`_Csr`) when at most this share of its entries is
# nonzero. On lattice patterns (units within a fixed distance on a square
# grid), a CSR matvec beat the dense BLAS one up to about 6-7% fill at
# n = 400 and 15% at n = 900, and took 0.46 of its time at 5.9% fill at
# n = 2500 (one thread, min of 5 runs); at n = 400 either costs about
# 20 us. Contiguity grids fill 0.4-1.9%, an inverse-distance W 99.8%.
_CSR_FILL = 1.0 / 16.0
_CG_TOL = 1e-13  # relative residual at which CG stops
_CG_ITER_CAP = 200  # CG steps before the dense LU solve takes over


class _Csr(NamedTuple):
    """The nonzero entries of W in row order, for `_matvec`: data[k] is
    W[i, cols[k]] for the row i that entry k belongs to. heads are the rows
    that hold an entry, in order, and starts[m] is the offset of the first
    entry of row heads[m]; heads is None when every row holds one, and
    then starts has one offset per row."""

    data: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    heads: np.ndarray | None


def _matvec(csr: _Csr, x: np.ndarray) -> np.ndarray:
    """W x for a vector x from the CSR form of W, in O(nnz).

    `np.add.reduceat` sums each segment of the products that starts at an
    offset and ends at the next one, but gives the product at an offset
    itself where the next offset is no larger: for an empty row it would
    return the next row's first product. So only the rows with entries are
    reduced, and the others stay 0 (all of them when W has no entry)."""
    prod = csr.data * x[csr.cols]
    if csr.heads is None:
        return np.add.reduceat(prod, csr.starts)
    out = np.zeros(x.shape[0])
    if prod.size:
        out[csr.heads] = np.add.reduceat(prod, csr.starts)
    return out


def _to_csr(w: np.ndarray, pattern: np.ndarray) -> tuple:
    """(csr, rows): the CSR form of W (`_Csr`) from its nonzero pattern, and
    the row of each entry."""
    flat = np.flatnonzero(pattern)
    rows, cols = np.divmod(flat, w.shape[0])
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    heads = rows[starts]
    csr = _Csr(w.ravel()[flat], cols, starts,
               None if heads.size == w.shape[0] else heads)
    return csr, rows


def _mismatch(entry: np.ndarray, mirror: np.ndarray) -> bool:
    """Whether some |mirror - entry| exceeds `_SYM_RTOL` |entry|, elementwise;
    both arrays are overwritten."""
    mirror -= entry
    np.abs(mirror, out=mirror)
    np.abs(entry, out=entry)
    entry *= _SYM_RTOL
    return bool(np.any(mirror > entry))


def _symmetrizer(w: np.ndarray):
    """(d, classes, csr) for W, or None when W has no symmetrizer.

    d is positive with D^{1/2} W D^{-1/2} symmetric. Such a d exists exactly
    when d_i W_ij = d_j W_ji for every i, j; for W = D^{-1} A with symmetric
    A, d is the row sums of A up to one factor per connected component. One
    breadth-first forest of the pattern gives it: each level is built from
    the dense rows of the one before, the first unseen unit of each component
    (an isolated unit is one) is a root with d = 1, and d_j = d_i W_ij / W_ji
    from a parent i on the level before (exactly 1 for an exactly symmetric
    W). d is accepted only when it is finite and positive (a tree edge whose
    mirror is 0 makes it infinite) and every entry of D W matches its mirror
    to 1e-12 relative (`_mismatch`), which every other entry whose mirror is
    0 fails: no separate test of the pattern's symmetry is needed.

    classes is (P, Q), the units of each colour of a 2-colouring of the
    pattern, or None when the pattern has an odd cycle. The same search
    colours each unit by the parity of its level, the roots in P. Every edge
    joins two units on one level or on adjacent ones, so the colouring is
    proper exactly when no edge joins two units on one level, which is tested
    on the rows each level is built from. A W with no edges has every unit
    in P.

    csr is the CSR form of W (`_Csr`) when the pattern is sparse, at most
    n^2 / 16 nonzeros (`_CSR_FILL`), and None otherwise. With it the value
    check compares each nonzero d_i W_ij with its mirror d_j W_ji, in
    O(nnz); the entries it skips are 0 on both sides. A dense pattern is
    checked in row blocks of D W against column blocks.
    """
    n = w.shape[0]
    pattern = w != 0.0
    csr = None
    if np.count_nonzero(pattern) <= _CSR_FILL * n * n:
        csr, nz_i = _to_csr(w, pattern)
    d = np.ones(n)
    in_q = np.zeros(n, dtype=bool)
    odd = False
    unseen = np.ones(n, dtype=bool)
    for root in range(n):
        if not unseen[root]:
            continue
        unseen[root] = False
        frontier = np.array([root])
        while True:
            rows = pattern[frontier]
            odd = odd or rows[:, frontier].any()
            new = np.flatnonzero(rows.any(axis=0) & unseen)
            if not new.size:
                break
            unseen[new] = False
            in_q[new] = not in_q[frontier[0]]
            parent = frontier[rows[:, new].argmax(axis=0)]
            with np.errstate(divide="ignore"):
                d[new] = d[parent] * (w[parent, new] / w[new, parent])
            frontier = new
    del pattern
    if not np.all(np.isfinite(d) & (d > 0.0)):
        return None
    classes = None if odd else (np.flatnonzero(~in_q), np.flatnonzero(in_q))
    if csr is not None:
        mirror = d[csr.cols] * w.ravel()[csr.cols * n + nz_i]
        return None if _mismatch(d[nz_i] * csr.data, mirror) else (d, classes, csr)
    step = max(1, _SYM_BLOCK // n)
    for i0 in range(0, n, step):
        mirror = np.multiply(w[:, i0:i0 + step].T, d, order="C")
        if _mismatch(d[i0:i0 + step, None] * w[i0:i0 + step], mirror):
            return None
    return d, classes, csr


def _symmetric_spectrum(w: np.ndarray, d: np.ndarray, classes) -> np.ndarray:
    """Eigenvalues of S = D^{1/2} W D^{-1/2}, real and sorted, from d and the
    colour classes of `_symmetrizer`.

    When the pattern of W is bipartite, ordering the units by colour gives
    S = [[0, B], [B^T, 0]] with B = S[P, Q], whose eigenvalues are
    +-sigma_i(B) and ||P| - |Q|| zeros (Golub & Kahan 1965): the singular
    values of the |P| x |Q| block B cost about a quarter of the flops of the
    n x n `eigvalsh`, and S itself is never built. Any other pattern takes
    `eigvalsh` of S.
    """
    s = np.sqrt(d)
    if classes is None:
        sym = w * s[:, None]
        sym /= s
        # syevd reads one triangle, and S is symmetric only up to rounding;
        # its lower triangle of S^T is the upper triangle of S
        return np.linalg.eigvalsh(sym.T)
    p, q = classes
    if not q.size:
        return np.zeros(w.shape[0])
    block = w[np.ix_(p, q)]
    block *= s[p, None]
    block /= s[q]
    sigma = np.linalg.svd(block, compute_uv=False)  # in decreasing order
    return np.concatenate((-sigma, np.zeros(abs(p.size - q.size)), sigma[::-1]))


def _cg(matvec, s, rho, b):
    """x = (I - rho W)^{-1} b by conjugate gradients on the symmetric
    I - rho S in the scaled variable z = s x, with S p = s (W (p / s)) and
    W x = matvec(x); None when CG stops short (see `SpatialWeights.solve`)."""
    rhs = s * b
    z = np.zeros_like(rhs)
    r = rhs.copy()
    p = rhs.copy()
    rr = float(r @ r)
    stop = rr * _CG_TOL**2
    for _ in range(_CG_ITER_CAP):
        if rr <= stop:
            x = z / s
            r = rhs - (z - rho * s * matvec(x))
            return x if float(r @ r) <= stop else None
        ap = p - rho * s * matvec(p / s)
        curv = float(p @ ap)
        if not curv > 0.0:
            return None
        alpha = rr / curv
        z += alpha * p
        r -= alpha * ap
        rr, rr_old = float(r @ r), rr
        p *= rr / rr_old
        p += r
    return None


def haversine_distance(lat1, lon1, lat2, lon2, radius_km: float = EARTH_RADIUS_KM):
    """Great-circle distance in km between points given in degrees."""
    lat1, lon1, lat2, lon2 = (np.asarray(v, dtype=float) for v in (lat1, lon1, lat2, lon2))
    for lat in (lat1, lat2):
        if np.any(np.abs(lat) > 90.0):
            raise ValidationError("latitude outside [-90, 90]")
    for lon in (lon1, lon2):
        if np.any(np.abs(lon) > 180.0):
            raise ValidationError("longitude outside [-180, 180]")
    u1, u2 = np.radians(lat1), np.radians(lat2)
    dv = np.radians(lon2) - np.radians(lon1)
    du = u2 - u1
    a = np.sin(du / 2.0) ** 2 + np.cos(u1) * np.cos(u2) * np.sin(dv / 2.0) ** 2
    a = np.clip(a, 0.0, 1.0)
    c = 2.0 * np.arctan2(np.sqrt(a), np.sqrt(1.0 - a))
    d = radius_km * c
    return d if d.ndim else float(d)


class _Spectral:
    """Data descriptor for the fields of `SpatialWeights` that come from the
    spectrum of W. A field left at its default is unknown; its first read
    computes the spectrum (`SpatialWeights._read_spectrum`) and keeps it in
    the instance."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        if self.name not in obj.__dict__:
            obj._read_spectrum()
        return obj.__dict__[self.name]

    def __set__(self, obj, value):
        if value is not self and value is not None:
            obj.__dict__[self.name] = value


@dataclass(frozen=True, eq=False)
class SpatialWeights:
    """n x n spatial weight matrix with zero diagonal, its spectrum, and
    the resolvent solve (I - rho W)^{-1} b (`solve`).

    `eigvals` is computed on its first read unless it is given; so are
    `lambda_min` and `rho_bounds`, which are derived from it (at once when
    `eigvals` is given). `dataclasses.replace` reads `eigvals` and passes it
    on to the copy. The pattern of W is searched at most once per object,
    by `_symmetrizer` on the first `solve`, `matvec` or spectrum read, which
    finds the symmetrizer d, the colour classes and, for a sparse pattern,
    the CSR form of W together; `matvec` computes W x from that CSR form,
    and with the dense product otherwise. When W has a symmetrizer,
    `eigvals` is real and sorted: +-sigma(B) from one SVD of the
    off-diagonal block B of S when the pattern of W is bipartite, one
    symmetric `eigvalsh` otherwise (`_symmetric_spectrum`). Without a
    symmetrizer it is the complex array of the general `eigvals`.
    """

    w: np.ndarray
    scheme: str
    isolated: np.ndarray = field(default=None, repr=False)
    eigvals: np.ndarray = field(default=_Spectral(), repr=False)
    lambda_min: float = field(default=_Spectral(), init=False, repr=False)
    rho_bounds: tuple = field(default=_Spectral(), init=False, repr=False)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def __post_init__(self):
        if self.isolated is None:
            object.__setattr__(
                self, "isolated", np.zeros(self.w.shape[0], dtype=bool)
            )
        if "eigvals" in self.__dict__:
            self._read_spectrum()

    def _read_spectrum(self) -> None:
        """Compute `eigvals` unless it is known, and derive `lambda_min` and
        `rho_bounds` from it.

        Three routes, chosen from W: with a symmetrizer and a bipartite
        pattern, the singular values of the off-diagonal block of S, whose
        eigenvalues are exactly +-sigma(B) plus zeros (Golub & Kahan 1965);
        with a symmetrizer otherwise, `eigvalsh(S)`; without one, `eigvals(W)`.
        The colour classes behind the first route come from the search that
        found the symmetrizer (`_scaling`), which `solve` may already have
        run."""
        eigs = self.__dict__.get("eigvals")
        if eigs is None:
            if self._scaling is None:
                eigs = np.linalg.eigvals(self.w)
            else:
                eigs = _symmetric_spectrum(self.w, *self._scaling[:2])
        scale = max(1.0, float(np.abs(eigs).max()))
        real = eigs[np.abs(eigs.imag) <= _REAL_EIG_TOL * scale].real
        lam_min = float(real.min()) if real.size and real.min() < 0.0 else -1.0
        lam_max = float(real.max()) if real.size else 1.0
        upper = 1.0 / lam_max if lam_max > 1.0 + _REAL_EIG_TOL else 1.0
        self.__dict__.update(
            eigvals=eigs, lambda_min=lam_min,
            rho_bounds=(-1.0 / abs(lam_min), upper),
        )

    @cached_property
    def _scaling(self):
        """(d, classes, csr) of `_symmetrizer(w)`, or None: the route that
        the spectrum, `solve` and `matvec` take, from the one search of W's
        pattern."""
        return _symmetrizer(self.w)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """W x for a vector x: from the CSR form of W when `_symmetrizer`
        kept one (a sparse pattern), in O(nnz), else the dense BLAS product.
        The CSR sums each row's products in column order, so its result can
        differ from BLAS's in the last bits."""
        scaling = self._scaling
        if scaling is None or scaling[2] is None:
            return self.w @ x
        return _matvec(scaling[2], x)

    def logdet(self, rho):
        """log |det(I - rho W)| at rho, or at each rho of a 1-D array."""
        mag = np.abs(1.0 - np.multiply.outer(rho, self.eigvals))
        if np.any(mag <= 0.0):
            raise NumericalError("I - rho W singular at this rho")
        out = np.log(mag).sum(axis=-1)
        return out if out.ndim else float(out)

    def trace_g(self, rho: float) -> float:
        """trace[W (I - rho W)^{-1}]."""
        return float(np.sum(self.eigvals / (1.0 - rho * self.eigvals)).real)

    def solve(self, rho: float, b: np.ndarray, events=None) -> np.ndarray:
        """(I - rho W)^{-1} b for a vector b.

        With a symmetrizer d, I - rho W = D^{-1/2} A D^{1/2} with
        A = I - rho S, and conjugate gradients solve A z = D^{1/2} b for
        z = D^{1/2} x (LeSage & Pace 2009, ch. 4): A is symmetric positive
        definite for every rho inside `rho_bounds`, and S p = s (W (p / s))
        with s = sqrt(d) needs no n x n copy: W (p / s) is one `matvec`, in
        O(nnz) on a sparse pattern. CG stops when its residual falls to
        `_CG_TOL` of |D^{1/2} b|, and its solution is kept when the
        residual recomputed from it does too. When that check fails (A is
        near singular, close to a bound), CG reaches `_CG_ITER_CAP` steps,
        or it meets a direction of nonpositive curvature (rho outside the
        interval), the dense LU solve takes over and, when `events` is
        given, a line is added to it. A W with no symmetrizer always takes
        the dense LU solve.
        """
        if self._scaling is not None:
            x = _cg(self.matvec, np.sqrt(self._scaling[0]), rho, b)
            if x is not None:
                return x
            if events is not None:
                events.append(f"dense solve at rho={rho:.6g}")
        return np.linalg.solve(np.eye(self.n) - rho * self.w, b)

    def reduced_form(self, rho: float, mu: np.ndarray) -> np.ndarray:
        """(I - rho W)^{-1} mu."""
        if rho == 0.0:
            return mu
        return self.solve(rho, mu)


def from_matrix(raw: np.ndarray, scheme: str = "custom", normalize: bool = True) -> SpatialWeights:
    """Build SpatialWeights from a raw nonnegative matrix.

    The diagonal is zeroed; with normalize=True each nonzero row is scaled to
    sum 1 and all-zero rows are kept and flagged as isolated units.
    """
    w = np.array(raw, dtype=float, order="C")
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValidationError("weight matrix must be square")
    if w.shape[0] < 2:
        raise ValidationError("weight matrix needs at least 2 units")
    # a non-finite entry makes its row sum non-finite, so the entries are
    # checked only when a sum is; the diagonal, zeroed first, on its own
    finite = bool(np.isfinite(w.diagonal()).all())
    np.fill_diagonal(w, 0.0)
    sums = w.sum(axis=1)
    if not (finite and (np.isfinite(sums).all() or np.isfinite(w).all())):
        raise ValidationError("weight matrix contains non-finite values")
    if w.min() < 0.0:
        i, j = np.argwhere(w < 0.0)[0]
        raise ValidationError(f"weight matrix has a negative weight at ({i}, {j})")
    isolated = sums == 0.0
    if normalize:
        w /= np.where(isolated, 1.0, sums)[:, None]
    return SpatialWeights(w=w, scheme=scheme, isolated=isolated)


def row_normalize(raw: np.ndarray, scheme: str = "custom") -> SpatialWeights:
    """Zero the diagonal, normalize rows to sum 1, flag isolated units."""
    return from_matrix(raw, scheme=scheme, normalize=True)


def inverse_distance_weights(lat, lon) -> SpatialWeights:
    """Row-normalized inverse great-circle-distance weights."""
    lat = np.asarray(lat, dtype=float).ravel()
    lon = np.asarray(lon, dtype=float).ravel()
    if lat.size != lon.size:
        raise ValidationError("lat and lon must have equal length")
    if lat.size < 2:
        raise ValidationError("need at least 2 coordinates")
    d = haversine_distance(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
    np.fill_diagonal(d, np.inf)  # 1 / inf = 0 on the diagonal
    duplicate = d == 0.0
    if duplicate.any():
        i, j = np.argwhere(duplicate)[0]
        raise ValidationError(f"duplicate coordinates for units {i} and {j}")
    return row_normalize(1.0 / d, scheme="inverse_distance")


def grid_contiguity(rows: int, cols: int, kind: str = "rook") -> SpatialWeights:
    """Rook (edges) or queen (edges + corners) contiguity on a rows x cols grid."""
    if kind not in ("rook", "queen"):
        raise ValidationError("kind must be 'rook' or 'queen'")
    n = rows * cols
    if rows < 1 or cols < 1 or n < 2:
        raise ValidationError("grid must contain at least 2 cells")
    raw = np.zeros((n, n))
    steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    if kind == "queen":
        steps += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            for dr, dc in steps:
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    raw[i, rr * cols + cc] = 1.0
    return row_normalize(raw, scheme=kind)


def check_rho(rho: float, weights: SpatialWeights) -> None:
    """Raise NumericalError unless rho lies inside `weights.rho_bounds`.

    While the spectrum of W is unknown, the largest absolute row sum s of W
    decides without it wherever it can: every eigenvalue has |lambda| <= s
    (Gershgorin), so |rho| max(1, s) < 1 puts rho inside the interval. The
    test asks for a margin of 1e-9 to cover rounding in the eigenvalues that
    the interval would be computed from; any other rho is compared with
    `rho_bounds`, which computes the spectrum.
    """
    if "eigvals" not in weights.__dict__:
        s = float(np.abs(weights.w).sum(axis=1).max())
        if abs(rho) * max(1.0, s) <= 1.0 - _REAL_EIG_TOL:
            return
    lo, hi = weights.rho_bounds
    if not lo < rho < hi:
        raise NumericalError(
            f"rho={rho} outside the admissible open interval ({lo}, {hi})"
        )

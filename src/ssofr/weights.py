"""Spatial weight matrices: great-circle distances, inverse-distance and
grid-contiguity schemes, row normalization, and the spectrum of W.

Where W lives. A W with at most n^2 / 16 nonzero entries (`_CSR_FILL`) is
held in CSR form (`_Csr`), a fuller one as a dense n x n array: the
contiguity grids of 20 x 20 to 50 x 50 units fill 0.4-1.9% of W, an
inverse-distance W 99.8%. `grid_contiguity` and `from_triplets` (the
`i,j,w` files of the CLI) build the CSR form directly, with no n x n array;
a W given dense (`from_matrix`, `inverse_distance_weights`,
`SpatialWeights(w=...)`) derives its CSR form on first use when it is
sparse enough. The dense `SpatialWeights.w` of a W built sparse is filled
in on its first read (`_densify`), and only the general nonsymmetric
`eigvals`, the dense LU fallback of `solve`, the writers and explicit reads
of `w` make one. The row sums of `check_rho`, the search for a
symmetrizer, the spectrum of a symmetrizable W, `matvec`, the total weight
(`total`, Moran's S0) and the block of W among some units (`among`, the cv
folds) read the CSR form, in O(nnz), when there is one. Only this module
knows which form a W has.

`SpatialWeights` owns the spectrum of its matrix. The eigenvalues are
computed on their first read and then kept; `dataclasses.replace` reads
them and passes them on to the copy. They give the admissible interval for
rho, log|det(I - rho W)| and tr W (I - rho W)^{-1} in O(n) per rho
(Ord 1975). The resolvent solve (I - rho W)^{-1} b (`solve`) needs no
spectrum, and `check_rho` admits rho from the largest absolute row sum of
W while the spectrum is still unknown: prediction decomposes nothing.

The spectrum and the solve take their route from W itself. Every built-in
scheme, and most custom matrices, are W = D^{-1} A with symmetric A: W is
then similar to the symmetric S = D^{1/2} W D^{-1/2} (LeSage & Pace 2009,
ch. 4). One breadth-first search of the pattern of W (`_search`) gives the
candidate diagonal d and the parity of each unit's level, and `solve` runs
conjugate gradients on I - rho S with that d at once: CG keeps an answer
only when its residual, recomputed in W, is small, so the solve needs no
proof that d symmetrizes W. That proof is for the spectrum
(`_symmetrizer`), in one read of W: D W must match its transpose to 1e-12
relative, and the same read looks for an edge with two ends of one parity,
which tells whether the levels 2-colour the pattern. When they do, as for
rook contiguity on a rectangular grid and any tree, ordering the units by
colour gives S = [[0, B], [B^T, 0]], whose eigenvalues are +-sigma_i(B) and
||P| - |Q|| zeros (Golub & Kahan 1965): one SVD of the half-size block B.
Any other pattern takes one symmetric `eigvalsh(S)`. A W with no
symmetrizer takes the general nonsymmetric `eigvals`; its solves take the
dense LU once the spectrum is read or a CG solve has failed on it.

The admissible interval for rho is (-1/|lambda_min|, 1/lambda_max), where
lambda_min and lambda_max are the smallest and largest real eigenvalues of W.
Asymmetric matrices can have complex eigenvalues; only the (numerically)
real ones are used. lambda_min falls back to -1 when none is negative, and
the upper end is 1 unless lambda_max exceeds 1, as it can for a matrix that
is not row-normalized.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exceptions import NumericalError, ValidationError

EARTH_RADIUS_KM = 6371.0
_REAL_EIG_TOL = 1e-9
_SYM_RTOL = 1e-12
_SYM_BLOCK = 1 << 15  # entries per row block of the dense symmetry check and distances
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
    """The nonzero entries of W sorted by row, then column:
    data[k] = W[rows[k], cols[k]]. heads are the rows that hold an entry,
    in order, and starts[m] is the offset of the first entry of row
    heads[m]; heads is None when every row holds one, and then starts has
    one offset per row."""

    data: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    heads: np.ndarray | None


def _csr_of(n: int, rows: np.ndarray, cols: np.ndarray, data: np.ndarray) -> _Csr:
    """The `_Csr` of an n x n W from its nonzero entries, sorted by row,
    then column."""
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    heads = rows[starts]
    return _Csr(data, rows, cols, starts, None if heads.size == n else heads)


def _to_csr(w: np.ndarray, pattern: np.ndarray) -> _Csr:
    """The `_Csr` of a dense W from its nonzero pattern."""
    n = w.shape[0]
    flat = np.flatnonzero(pattern)
    rows, cols = np.divmod(flat, n)
    return _csr_of(n, rows, cols, w.ravel()[flat])


def _densify(csr: _Csr, n: int) -> np.ndarray:
    """The dense n x n W of its CSR form."""
    w = np.zeros((n, n))
    w[csr.rows, csr.cols] = csr.data
    return w


def _row_sums(csr: _Csr, values: np.ndarray, n: int) -> np.ndarray:
    """The sum over each row of W of `values`, one per entry of csr, in
    column order, in O(nnz).

    `np.add.reduceat` sums each segment of the values that starts at an
    offset and ends at the next one, but gives the value at an offset
    itself where the next offset is no larger: for an empty row it would
    return the next row's first value. So only the rows with entries are
    reduced, and the others stay 0 (all of them when W has no entry)."""
    if csr.heads is None:
        return np.add.reduceat(values, csr.starts)
    out = np.zeros(n)
    if values.size:
        out[csr.heads] = np.add.reduceat(values, csr.starts)
    return out


def _matvec(csr: _Csr, x: np.ndarray) -> np.ndarray:
    """W x for a vector x from the CSR form of W, in O(nnz)."""
    return _row_sums(csr, csr.data * x[csr.cols], x.shape[0])


def _mirrors(csr: _Csr):
    """W[cols[k], rows[k]] for each entry k of csr, or None when one of
    them is 0, that is when the pattern of W is not symmetric. The entries
    sorted by column, then row (a stable sort by column), are the mirrors
    of the entries in row order exactly when the pattern is symmetric."""
    by_col = np.argsort(csr.cols, kind="stable")
    if not (np.array_equal(csr.rows[by_col], csr.cols)
            and np.array_equal(csr.cols[by_col], csr.rows)):
        return None
    mirror = np.empty_like(csr.data)
    mirror[by_col] = csr.data
    return mirror


def _mismatch(entry: np.ndarray, mirror: np.ndarray) -> bool:
    """Whether some |mirror - entry| exceeds `_SYM_RTOL` |entry|, elementwise;
    both arrays are overwritten."""
    mirror -= entry
    np.abs(mirror, out=mirror)
    np.abs(entry, out=entry)
    entry *= _SYM_RTOL
    return bool(np.any(mirror > entry))


def _dense_step(w: np.ndarray):
    """The step of `_search` that lists the neighbours of a frontier from
    the dense rows of W (see `_csr_step`); each row is read once, when its
    unit is on the frontier."""

    def step(frontier, unseen):
        rows = w[frontier] != 0.0
        new = np.flatnonzero(rows.any(axis=0) & unseen[:-1])
        parent = frontier[rows[:, new].argmax(axis=0)]
        with np.errstate(divide="ignore"):
            ratio = w[parent, new] / w[new, parent]
        return new, parent, ratio

    return step


def _csr_step(csr: _Csr, n: int, mirror: np.ndarray):
    """The step of `_search` that lists the neighbours of a frontier from
    the CSR entries of W: step(frontier, unseen) gives the unseen columns
    of the frontier's rows in increasing order (new), for each the first
    frontier row that holds it (parent), and W[parent, new] /
    W[new, parent].

    The entries of each row are gathered from a table with one row per
    unit, padded with an entry in column n (which `unseen` never holds):
    n times the largest row count, at most n^2 entries, the size of the
    dense W."""
    rows, nnz = csr.rows, csr.data.size
    counts = np.bincount(rows, minlength=n)
    slot = np.arange(counts.max(initial=0))
    table = np.where(slot < counts[:, None], (np.cumsum(counts) - counts)[:, None] + slot, nnz)
    cols = np.append(csr.cols, n)
    ratio = csr.data / mirror
    # first[j]: the first entry, in row order, in column j of the rows of
    # the frontier that reached j; nnz until then. An unseen unit is
    # reached only by the frontier that it joins, so its value is that
    # frontier's.
    first = np.full(n + 1, nnz)

    def step(frontier, unseen):
        e = table[frontier].ravel()
        np.minimum.at(first, cols[e], e)
        new = np.flatnonzero((first < nnz) & unseen)
        e = first[new]
        return new, rows[e], ratio[e]

    return step


class _Forest(NamedTuple):
    """The breadth-first forest of the pattern of W (`_search`): the
    candidate symmetrizer d, whether each unit lies on an odd level
    (in_q), and, when W has a CSR form, the mirror W_ji of each entry."""

    d: np.ndarray
    in_q: np.ndarray
    mirror: np.ndarray | None


def _search(weights: SpatialWeights):
    """The `_Forest` of W, or None when W has no symmetrizer because the
    search's d is not finite and positive or, with a CSR form, because the
    pattern of W is not symmetric.

    Each level is the unseen neighbours of the one before; the first unseen
    unit of each component (an isolated unit is one) is a root with d = 1
    on level 0, and d_j = d_i W_ij / W_ji from the first parent i on the
    level before (exactly 1 for an exactly symmetric W). A tree edge whose
    mirror is 0 makes d infinite. The search stops once every unit is seen,
    so the last level's rows are never read.

    The loop is the same for both forms of W; only the step that lists a
    frontier's neighbours differs: the CSR entries (`_csr_step`) when W has
    a CSR form, its dense rows (`_dense_step`) otherwise. With a CSR form,
    the mirror of each entry comes from one stable sort of the entries by
    column (`_mirrors`), which finds an entry whose mirror is 0 before the
    search.
    """
    n = weights.n
    csr = weights._csr
    mirror = None
    if csr is None:
        step = _dense_step(weights.w)
    else:
        mirror = _mirrors(csr)
        if mirror is None:
            return None
        step = _csr_step(csr, n, mirror)
    d = np.ones(n)
    in_q = np.zeros(n, dtype=bool)
    # slot n stands for the padding of `_csr_step`'s table, never unseen
    unseen = np.ones(n + 1, dtype=bool)
    unseen[n] = False
    left = n
    while left:
        root = int(unseen.argmax())
        unseen[root] = False
        left -= 1
        frontier = np.array([root])
        while left:
            new, parent, ratio = step(frontier, unseen)
            if not new.size:
                break
            unseen[new] = False
            left -= new.size
            in_q[new] = not in_q[frontier[0]]
            d[new] = d[parent] * ratio
            frontier = new
    if not np.all(np.isfinite(d) & (d > 0.0)):
        return None
    return _Forest(d, in_q, mirror)


def _symmetrizer(weights: SpatialWeights):
    """(d, classes) for W, or None when W has no symmetrizer; W is read
    once.

    d is positive with D^{1/2} W D^{-1/2} symmetric. Such a d exists exactly
    when d_i W_ij = d_j W_ji for every i, j; for W = D^{-1} A with symmetric
    A, d is the row sums of A up to one factor per connected component. It
    is the d of the breadth-first search of W's pattern
    (`SpatialWeights._forest`, `_search`), accepted only when every entry
    of D W matches its mirror to `_SYM_RTOL` relative (`_mismatch`), which
    every entry whose mirror is 0 fails.

    classes is (P, Q), the units on the even and on the odd levels of the
    search, or None when a nonzero entry of W joins two units of one
    parity. For a W with a symmetric pattern every edge joins two units on
    one level or on adjacent ones, so the parity is a proper 2-colouring
    exactly when no edge joins two units on one level, and the pattern then
    has no odd cycle. A W with no edges has every unit in P.

    With a CSR form each nonzero d_i W_ij is compared with d_j W_ji in
    O(nnz), the entries it skips being 0 on both sides, and then the parity
    of the ends of each entry. A dense W is read in row blocks, each
    compared with the column block of D W and, until an edge within one
    parity is found, tested for such an edge.

    `solve` needs only the search: its CG certifies each answer by the
    residual recomputed in W, and the checks here run on the first spectrum
    read, or once on an object whose first CG solve fails.
    """
    forest = weights._forest
    if forest is None:
        return None
    d, in_q = forest.d, forest.in_q
    csr = weights._csr
    if csr is not None:
        if _mismatch(d[csr.rows] * csr.data, d[csr.cols] * forest.mirror):
            return None
        odd = bool(np.any(in_q[csr.rows] == in_q[csr.cols]))
    else:
        w, n = weights.w, weights.n
        block = max(1, _SYM_BLOCK // n)
        odd = False
        for i0 in range(0, n, block):
            rows = w[i0:i0 + block]
            mirror = np.multiply(w[:, i0:i0 + block].T, d, order="C")
            if _mismatch(d[i0:i0 + block, None] * rows, mirror):
                return None
            odd = odd or bool(np.any((rows != 0.0) & (in_q[i0:i0 + block, None] == in_q)))
    return d, None if odd else (np.flatnonzero(~in_q), np.flatnonzero(in_q))


def _symmetric_spectrum(weights: SpatialWeights, d: np.ndarray, classes) -> np.ndarray:
    """Eigenvalues of S = D^{1/2} W D^{-1/2}, real and sorted, from d and the
    colour classes of `_symmetrizer`; S, or its block B, is scattered from
    the CSR entries of W when W has a CSR form.

    When the pattern of W is bipartite, ordering the units by colour gives
    S = [[0, B], [B^T, 0]] with B = S[P, Q], whose eigenvalues are
    +-sigma_i(B) and ||P| - |Q|| zeros (Golub & Kahan 1965): the singular
    values of the |P| x |Q| block B cost about a quarter of the flops of the
    n x n `eigvalsh`, and S itself is never built. Any other pattern takes
    `eigvalsh` of S.
    """
    n = weights.n
    s = np.sqrt(d)
    csr = weights._csr
    if csr is not None:
        entries = csr.data * s[csr.rows]
        entries /= s[csr.cols]
    if classes is None:
        if csr is None:
            sym = weights.w * s[:, None]
            sym /= s
        else:
            sym = np.zeros((n, n))
            sym[csr.rows, csr.cols] = entries
        # syevd reads one triangle, and S is symmetric only up to rounding;
        # its lower triangle of S^T is the upper triangle of S
        return np.linalg.eigvalsh(sym.T)
    p, q = classes
    if not q.size:
        return np.zeros(n)
    if csr is None:
        block = weights.w[np.ix_(p, q)]
        block *= s[p, None]
        block /= s[q]
    else:
        at = np.empty(n, dtype=np.intp)
        at[p] = np.arange(p.size)
        at[q] = np.arange(q.size)
        top = np.zeros(n, dtype=bool)
        top[p] = True
        k = top[csr.rows]
        block = np.zeros((p.size, q.size))
        block[at[csr.rows[k]], at[csr.cols[k]]] = entries[k]
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
    _check_degrees((lat1, lat2), (lon1, lon2))
    d = _haversine(lat1, lon1, lat2, lon2, radius_km)
    return d if d.ndim else float(d)


def _check_degrees(lats, lons) -> None:
    """Raise unless every latitude in `lats` lies in [-90, 90] and every
    longitude in `lons` in [-180, 180]. The comparisons are written so
    that NaN fails them: every comparison with NaN is false."""
    if not all(np.all(np.abs(lat) <= 90.0) for lat in lats):
        raise ValidationError("latitude outside [-90, 90] or not a number")
    if not all(np.all(np.abs(lon) <= 180.0) for lon in lons):
        raise ValidationError("longitude outside [-180, 180] or not a number")


def _haversine(lat1, lon1, lat2, lon2, radius_km: float = EARTH_RADIUS_KM):
    """`haversine_distance` of checked float arrays, as an array."""
    u1, u2 = np.radians(lat1), np.radians(lat2)
    dv = np.radians(lon2) - np.radians(lon1)
    du = u2 - u1
    a = np.sin(du / 2.0) ** 2 + np.cos(u1) * np.cos(u2) * np.sin(dv / 2.0) ** 2
    a = np.clip(a, 0.0, 1.0)
    c = 2.0 * np.arctan2(np.sqrt(a), np.sqrt(1.0 - a))
    return radius_km * c


class _Lazy:
    """Data descriptor for a field of `SpatialWeights` that may be unknown
    until its first read, which calls the method named `fill` to store it
    in the instance. A field left at its default, or given None, is
    unknown. A `required` field has no default (dataclasses take none from
    a descriptor whose class-level read raises AttributeError)."""

    def __init__(self, fill: str, required: bool = False):
        self.fill = fill
        self.required = required

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            if self.required:
                raise AttributeError(self.name)
            return self
        if self.name not in obj.__dict__:
            getattr(obj, self.fill)()
        return obj.__dict__[self.name]

    def __set__(self, obj, value):
        if value is not self and value is not None:
            obj.__dict__[self.name] = value


@dataclass(frozen=True, eq=False)
class SpatialWeights:
    """n x n spatial weight matrix with zero diagonal, its spectrum, and
    the resolvent solve (I - rho W)^{-1} b (`solve`).

    `w` is the dense W. A W built sparse (`grid_contiguity`,
    `from_triplets`) holds its CSR form instead and fills `w` in on its
    first read; one given dense derives its CSR form (`_csr`) on first use
    when at most `_CSR_FILL` of it is nonzero. `matvec`, `total` (the sum
    of W's entries) and `among` (W among a subset of the units) read the
    CSR form when there is one, so callers never ask which form W has.

    `eigvals` is computed on its first read unless it is given; so are
    `lambda_min` and `rho_bounds`, which are derived from it (at once when
    `eigvals` is given). `dataclasses.replace` reads `eigvals` and passes it
    on to the copy. The pattern of W is searched at most once per object
    (`_forest`), on the first `solve` or spectrum read; `matvec` computes
    W x from the CSR form when there is one, and with the dense product
    otherwise. `solve` runs CG on the d of that search; the checks that
    the search's d symmetrizes W and that its levels 2-colour the pattern
    (`_scaling`, `_symmetrizer`, in one read of W) run on the first
    spectrum read, or once after the first failed CG solve. When W has a
    symmetrizer, `eigvals` is real and sorted: +-sigma(B) from one SVD of
    the off-diagonal block B of S when the pattern of W is bipartite, one
    symmetric `eigvalsh` otherwise (`_symmetric_spectrum`). Without a
    symmetrizer it is the complex array of the general `eigvals`. The
    search, its checks and the CSR form are derived state, which
    `dataclasses.replace` does not carry.
    """

    w: np.ndarray = _Lazy("_read_dense", required=True)
    scheme: str
    isolated: np.ndarray = field(default=None, repr=False)
    eigvals: np.ndarray = field(default=_Lazy("_read_spectrum"), repr=False)
    lambda_min: float = field(default=_Lazy("_read_spectrum"), init=False, repr=False)
    rho_bounds: tuple = field(default=_Lazy("_read_spectrum"), init=False, repr=False)

    @property
    def n(self) -> int:
        return self.isolated.size

    def __post_init__(self):
        if self.isolated is None:
            object.__setattr__(
                self, "isolated", np.zeros(self.w.shape[0], dtype=bool)
            )
        if "eigvals" in self.__dict__:
            self._read_spectrum()

    @classmethod
    def _sparse(cls, csr: _Csr, n: int, scheme: str, isolated: np.ndarray) -> SpatialWeights:
        """W from its CSR form: held so when at most `_CSR_FILL` of it is
        nonzero, else as the dense matrix."""
        if csr.data.size > _CSR_FILL * n * n:
            return cls(w=_densify(csr, n), scheme=scheme, isolated=isolated)
        weights = object.__new__(cls)
        weights.__dict__.update(scheme=scheme, isolated=isolated, _csr=csr)
        return weights

    def __repr__(self) -> str:
        # the dataclass repr would print `w`, and so build the dense W of a
        # W held in CSR form (50 MB at n = 2500)
        held = "dense" if "w" in self.__dict__ else "csr"
        return f"SpatialWeights(n={self.n}, scheme={self.scheme!r}, held={held!r})"

    def _read_dense(self) -> None:
        if "_csr" not in self.__dict__:  # neither form of W was given
            raise ValidationError("SpatialWeights needs the matrix w")
        self.__dict__["w"] = _densify(self._csr, self.n)

    @cached_property
    def _csr(self):
        """The CSR form of W (`_Csr`) when at most `_CSR_FILL` of its entries
        are nonzero, else None; derived from the dense W unless W was built
        sparse."""
        w = self.w
        pattern = w != 0.0
        if np.count_nonzero(pattern) > _CSR_FILL * w.shape[0] ** 2:
            return None
        return _to_csr(w, pattern)

    def _read_spectrum(self) -> None:
        """Compute `eigvals` unless it is known, and derive `lambda_min` and
        `rho_bounds` from it.

        Three routes, chosen from W: with a symmetrizer and a bipartite
        pattern, the singular values of the off-diagonal block of S, whose
        eigenvalues are exactly +-sigma(B) plus zeros (Golub & Kahan 1965);
        with a symmetrizer otherwise, `eigvalsh(S)`; without one, `eigvals(W)`.
        The symmetrizer and the colour classes behind the first two routes
        come from `_scaling`, the checks of the one search of the pattern,
        which `solve` may already have run."""
        eigs = self.__dict__.get("eigvals")
        if eigs is None:
            if self._scaling is None:
                eigs = np.linalg.eigvals(self.w)
            else:
                eigs = _symmetric_spectrum(self, *self._scaling)
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
    def _forest(self):
        """The `_Forest` of `_search`, or None: the one breadth-first
        search of W's pattern, whose d `solve` runs CG on."""
        return _search(self)

    @cached_property
    def _scaling(self):
        """(d, classes) of `_symmetrizer`, or None: the search and the
        checks of its d and its colour classes, which decide the route of
        the spectrum and of `solve` once CG has failed on this object."""
        return _symmetrizer(self)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """W x for a vector x: from the CSR form of W when it has one (a
        sparse pattern), in O(nnz), else the dense BLAS product. The CSR
        sums each row's products in column order, so its result can differ
        from BLAS's in the last bits."""
        csr = self._csr
        return self.w @ x if csr is None else _matvec(csr, x)

    def total(self) -> float:
        """S0, the sum of the entries of W: of its CSR entries when it has a
        CSR form, else of the dense W."""
        csr = self._csr
        return float(self.w.sum() if csr is None else csr.data.sum())

    def among(self, units: np.ndarray) -> SpatialWeights:
        """W among the units of a boolean mask: row-normalized when every
        non-isolated row of W sums to 1 (to 1e-12), as it does for a
        row-normalized W, and the raw block of W otherwise, so a subset of
        the units is weighted as the whole sample is.

        A W with a CSR form gives its row sums and the block's entries from
        that form (`from_triplets`), with no dense n x n W; a renormalized
        block then sums each row over its nonzero entries in column order,
        and can differ in the last bits from the dense block's pairwise sums
        (`from_matrix`)."""
        csr = self._csr
        sums = self.w.sum(axis=1) if csr is None else _row_sums(csr, csr.data, self.n)
        normalized = bool(np.all(np.abs(sums[sums != 0.0] - 1.0) <= 1e-12))
        if csr is None:
            return from_matrix(self.w[np.ix_(units, units)], self.scheme, normalized)
        at = np.cumsum(units) - 1
        keep = units[csr.rows] & units[csr.cols]
        return from_triplets(
            np.count_nonzero(units), at[csr.rows[keep]], at[csr.cols[keep]], csr.data[keep],
            self.scheme, normalized,
        )

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
        `_CG_TOL` of |D^{1/2} b|, and its solution is kept only when the
        residual recomputed from it in W does too, so any positive d gives a
        certified x.

        CG runs on the d of the pattern search (`_forest`) whenever that d
        is finite and positive, before anything checks that it symmetrizes
        W. When CG fails (the recomputed residual is too large, A is near
        singular close to a bound, CG reaches `_CG_ITER_CAP` steps, or it
        meets a direction of nonpositive curvature), the dense LU solve
        takes over, and the first failure on an object decides the route
        (`_scaling`, whose value check then runs once): a W with a
        symmetrizer keeps trying CG and, when `events` is given, adds a line
        to it on each LU solve; a W without one takes LU from then on, as
        does a W whose search gives no d. On a W without a symmetrizer a CG
        answer that passes the residual test is kept, and it can differ
        from LU's within that tolerance.
        """
        # the checked route once it is known, the search's d until then
        scaling = self.__dict__.get("_scaling", self._forest)
        if scaling is not None:
            x = _cg(self.matvec, np.sqrt(scaling[0]), rho, b)
            if x is not None:
                return x
            if self._scaling is not None and events is not None:
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


def from_triplets(n: int, rows, cols, values, scheme: str = "custom",
                  normalize: bool = True) -> SpatialWeights:
    """Build SpatialWeights from the entries W[rows[k], cols[k]] = values[k]
    of a raw nonnegative n x n matrix, each (row, col) pair given at most
    once; the other entries are 0.

    As `from_matrix` does with the dense matrix, and with its errors in the
    same order: diagonal entries are dropped, a non-finite value anywhere
    and then the first negative off-diagonal one in row order are errors,
    and with normalize=True each nonzero row is scaled to sum 1. W is held
    in CSR form when it is sparse (`SpatialWeights._sparse`), with no
    n x n array. A row sum is taken over the row's nonzero entries in
    column order, so a row-normalized W of non-integer weights can differ
    in the last bits from `from_matrix`'s, whose numpy sums run pairwise
    over the whole row; sums of integer weights are exact either way.
    """
    if n < 2:
        raise ValidationError("weight matrix needs at least 2 units")
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
        raise ValidationError(f"weight matrix entry outside the {n} units")
    keys = rows * n + cols
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    repeat = np.flatnonzero(keys[1:] == keys[:-1])
    if repeat.size:
        i, j = divmod(int(keys[repeat[0]]), n)
        raise ValidationError(f"weight matrix has more than one entry at ({i}, {j})")
    if not np.isfinite(values).all():
        raise ValidationError("weight matrix contains non-finite values")
    rows, cols = np.divmod(keys, n)
    keep = (rows != cols) & (values != 0.0)
    rows, cols, values = rows[keep], cols[keep], values[keep]
    if values.size and values.min() < 0.0:
        k = int(np.argmax(values < 0.0))
        raise ValidationError(
            f"weight matrix has a negative weight at ({rows[k]}, {cols[k]})"
        )
    csr = _csr_of(n, rows, cols, values)
    sums = _row_sums(csr, values, n)
    if normalize:
        csr = csr._replace(data=values / sums[rows])
    return SpatialWeights._sparse(csr, n, scheme, sums == 0.0)


def row_normalize(raw: np.ndarray, scheme: str = "custom") -> SpatialWeights:
    """Zero the diagonal, normalize rows to sum 1, flag isolated units."""
    return from_matrix(raw, scheme=scheme, normalize=True)


def inverse_distance_weights(lat, lon) -> SpatialWeights:
    """Row-normalized inverse great-circle-distance weights.

    Two units at one place are an error, also when the place is written
    two ways: longitude -180 is 180, and every longitude is one place at a
    pole. The distances fill one n x n array in row blocks over the upper
    triangle: block i0:i1 takes rows i0:i1 against units i0 onward and is
    written to d[i0:i1, i0:] and, transposed, to d[i0:, i0:i1], so each
    block's temporaries stay about `_SYM_BLOCK` entries and each distance
    is computed once. Every entry is the same elementwise expression as in
    one broadcast over all n^2 pairs, and that broadcast is exactly
    symmetric (swapping i and j only negates the differences of latitude
    and longitude, whose sines are squared, and cos(u_i) cos(u_j)
    commutes), so W keeps the broadcast's bits.
    """
    lat = np.asarray(lat, dtype=float).ravel()
    lon = np.asarray(lon, dtype=float).ravel()
    if lat.size != lon.size:
        raise ValidationError("lat and lon must have equal length")
    n = lat.size
    if n < 2:
        raise ValidationError("need at least 2 coordinates")
    _check_degrees((lat,), (lon,))
    canon_lon = np.where(np.abs(lat) == 90.0, 0.0, np.where(lon == -180.0, 180.0, lon))
    order = np.lexsort((canon_lon, lat))  # stable: equal places in unit order
    same = ((lat[order[1:]] == lat[order[:-1]])
            & (canon_lon[order[1:]] == canon_lon[order[:-1]]))
    if same.any():
        # each unit starts at most one adjacent pair, so the smallest first
        # unit names the first duplicate pair in row-major order
        k = np.flatnonzero(same)[np.argmin(order[:-1][same])]
        raise ValidationError(f"duplicate coordinates for units {order[k]} and {order[k + 1]}")
    d = np.empty((n, n))
    rows = max(1, _SYM_BLOCK // n)
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        block = _haversine(lat[i0:i1, None], lon[i0:i1, None], lat[None, i0:], lon[None, i0:])
        d[i0:i1, i0:] = block
        d[i0:, i0:i1] = block.T
    np.fill_diagonal(d, np.inf)  # 1 / inf = 0 on the diagonal
    if not d.all():
        i, j = np.argwhere(d == 0.0)[0]
        raise ValidationError(f"duplicate coordinates for units {i} and {j}")
    return row_normalize(np.divide(1.0, d, out=d), scheme="inverse_distance")


def grid_contiguity(rows: int, cols: int, kind: str = "rook") -> SpatialWeights:
    """Row-normalized rook (edges) or queen (edges + corners) contiguity on
    a rows x cols grid, units numbered row by row, built in CSR form."""
    if kind not in ("rook", "queen"):
        raise ValidationError("kind must be 'rook' or 'queen'")
    try:
        rows, cols = operator.index(rows), operator.index(cols)
    except TypeError:
        raise ValidationError("grid rows and cols must be integers") from None
    n = rows * cols
    if rows < 1 or cols < 1 or n < 2:
        raise ValidationError("grid must contain at least 2 cells")
    # neighbour offsets in row-major order, so each unit's neighbours come
    # in increasing order of their number
    dr, dc = np.array([(-1, 0), (0, -1), (0, 1), (1, 0)] if kind == "rook" else
                      [(r, c) for r in (-1, 0, 1) for c in (-1, 0, 1) if r or c]).T
    r, c = np.divmod(np.arange(n), cols)
    nr, nc = r[:, None] + dr, c[:, None] + dc
    inside = (nr >= 0) & (nr < rows) & (nc >= 0) & (nc < cols)
    unit = np.repeat(np.arange(n), inside.sum(axis=1))
    return from_triplets(n, unit, (nr * cols + nc)[inside], np.ones(unit.size), scheme=kind)


def check_rho(rho: float, weights: SpatialWeights) -> None:
    """Raise NumericalError unless rho lies inside `weights.rho_bounds`.

    While the spectrum of W is unknown, the largest absolute row sum s of W
    (from its CSR form when it has one) decides without it wherever it can:
    every eigenvalue has |lambda| <= s (Gershgorin), so |rho| max(1, s) < 1
    puts rho inside the interval. The test asks for a margin of 1e-9 to
    cover rounding in the eigenvalues that the interval would be computed
    from; any other rho is compared with `rho_bounds`, which computes the
    spectrum.
    """
    if "eigvals" not in weights.__dict__:
        csr = weights._csr
        sums = (np.abs(weights.w).sum(axis=1) if csr is None
                else _row_sums(csr, np.abs(csr.data), weights.n))
        if abs(rho) * max(1.0, float(sums.max())) <= 1.0 - _REAL_EIG_TOL:
            return
    lo, hi = weights.rho_bounds
    if not lo < rho < hi:
        raise NumericalError(
            f"rho={rho} outside the admissible open interval ({lo}, {hi})"
        )

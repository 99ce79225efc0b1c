import sys

import numpy as np
import pytest

from ssofr.exceptions import NonConvergenceError, ValidationError
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
    machine-independent count of the eigendecompositions of W. `svd` counts
    only the calls from `ssofr.weights`, the spectrum of a bipartite W; the
    rank checks elsewhere also call it."""
    import scipy.linalg

    calls = []
    for lib in (np.linalg, scipy.linalg):
        for name in ("eig", "eigvals", "eigh", "eigvalsh"):
            def counted(*args, _name=name, _real=getattr(lib, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(lib, name, counted)

    def svd(*args, _real=np.linalg.svd, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "ssofr.weights":
            calls.append("svd")
        return _real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return calls


@pytest.fixture()
def dense_builds(monkeypatch):
    """Orders n of the dense W that `SpatialWeights` built in CSR form fill
    in while the test runs (`ssofr.weights._densify`): a machine-independent
    count of the n x n arrays made for W."""
    import ssofr.weights

    builds = []

    def counted(csr, n, _real=ssofr.weights._densify):
        builds.append(n)
        return _real(csr, n)

    monkeypatch.setattr(ssofr.weights, "_densify", counted)
    return builds


def reference_grid(rows, cols, kind):
    """Binary rook or queen contiguity on a rows x cols grid, filled cell by
    cell into a dense matrix, as `grid_contiguity` built it before it built
    the CSR form directly."""
    n = rows * cols
    raw = np.zeros((n, n))
    steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    if kind == "queen":
        steps += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    for r in range(rows):
        for c in range(cols):
            for dr, dc in steps:
                if 0 <= r + dr < rows and 0 <= c + dc < cols:
                    raw[r * cols + c, (r + dr) * cols + c + dc] = 1.0
    return raw


@pytest.fixture()
def linalg_calls(monkeypatch):
    """Names of the `numpy.linalg` factorizations (`svd`, `lstsq` and the
    eigensolvers) called while the test runs, in order, from any caller."""
    calls = []
    for name in ("svd", "lstsq", "eig", "eigvals", "eigh", "eigvalsh"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
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


def vectorized_solve(q, sigma, cfg, history=None):
    """The row-layout solver as it was before its per-row step moved to
    Python floats: every step operation on arrays of the active rows. The
    scalar step must reproduce its iterates, iteration counts and history
    bit for bit."""
    n = q.shape[1]
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
        mean_rho = (3.0 * (s1 - s2) + s3) / n
        slope = 6.0 / n * (s1 - 2.0 * s2 + s3)
        gap = mean_rho - cfg.delta
        newton = (-0.5 * slope < gap) & (gap < slope)
        ratio = np.divide(gap, slope, out=np.zeros_like(gap), where=newton)
        new = np.where(newton, s * (1.0 + ratio),
                       s * np.sqrt(mean_rho / cfg.delta))
        sigma[rows] = new
        if history is not None:
            history.append(sigma.copy())
        curv = 6.0 / n * (3.0 * s1 - 10.0 * s2 + 7.0 * s3)
        settled = newton & (np.abs(curv) * ratio * ratio <= 2.0 * _NEWTON_TOL * slope)
        going = (np.abs(new - s) > _TOL * s) & ~settled
        if not going.any():
            return sigma, it
        if not going.all():
            rows = rows[going]
            q = q[going]
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


# Row-based reference readers: each file goes through csv.reader and is
# handled row by row. The columnar readers of `ssofr.io` must return the same
# ids, bit-identical arrays and the same errors on every table.

def _ref_rows(path):
    import csv
    import os

    if not os.path.exists(path):
        raise ValidationError(f"file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(filter(None, csv.reader(fh)))
    if not rows:
        raise ValidationError(f"empty file: {path}")
    return rows


def _ref_float(token, path):
    try:
        return float(token)
    except ValueError as exc:
        raise ValidationError(f"{path}: cannot parse {token!r} as a number") from exc


def _ref_row(tokens, path):
    return [_ref_float(token, path) for token in tokens]


def _ref_body(rows, width, path):
    body = rows[1:]
    for row in body:
        if len(row) < width:
            raise ValidationError(f"{path}: short row {row!r}")
    return body


def reference_read_curves_long(path):
    rows = _ref_rows(path)
    header = [h.strip().lower() for h in rows[0]]
    if header[:3] != ["id", "t", "value"]:
        raise ValidationError(f"{path}: expected header id,t,value")
    body = _ref_body(rows, 3, path)
    codes = {}
    unit = np.array([codes.setdefault(row[0].strip(), len(codes)) for row in body], dtype=np.intp)
    t, v = np.array([_ref_row(row[1:3], path) for row in body]).reshape(-1, 2).T
    grid, t_code = np.unique(t, return_inverse=True)
    n, p = len(codes), grid.size
    flat = unit * p + t_code
    if n == 0 or flat.size != n * p or not np.bincount(flat, minlength=n * p).all():
        seen = set()
        for row, f in zip(body, flat.tolist()):
            if f in seen:
                raise ValidationError(
                    f"{path}: pair ({row[0].strip()}, {row[1].strip()}) is given more than once"
                )
            seen.add(f)
        raise ValidationError(f"{path}: curves observed on different grids")
    curves = np.empty(n * p)
    curves[flat] = v
    return list(codes), grid, curves.reshape(n, p)


def reference_read_curves_wide(path):
    rows = _ref_rows(path)
    header = rows[0]
    if header[0].strip().lower() != "id":
        raise ValidationError(f"{path}: first header column must be 'id'")
    grid = np.array([_ref_float(h, path) for h in header[1:]])
    ids, curves = [], []
    for row in rows[1:]:
        if len(row) != len(header):
            raise ValidationError(f"{path}: row length does not match header")
        ids.append(row[0].strip())
        curves.append(_ref_row(row[1:], path))
    return ids, grid, np.array(curves)


def reference_read_response(path):
    rows = _ref_rows(path)
    header = [h.strip().lower() for h in rows[0]]
    if header[:2] != ["id", "y"]:
        raise ValidationError(f"{path}: expected header id,y")
    ids, vals = [], []
    for row in _ref_body(rows, 2, path):
        ids.append(row[0].strip())
        vals.append(_ref_float(row[1], path))
    return ids, np.array(vals)


def reference_read_coords(path):
    rows = _ref_rows(path)
    header = [h.strip().lower() for h in rows[0]]
    if header[:3] != ["id", "lat", "lon"]:
        raise ValidationError(f"{path}: expected header id,lat,lon")
    ids, lat, lon = [], [], []
    for row in _ref_body(rows, 3, path):
        ids.append(row[0].strip())
        lat.append(_ref_float(row[1], path))
        lon.append(_ref_float(row[2], path))
    return ids, np.array(lat), np.array(lon)


def reference_read_weights_matrix(path):
    rows = _ref_rows(path)
    header = [h.strip().lower() for h in rows[0]]
    if header[:3] == ["i", "j", "w"]:
        entries = [(r[0].strip(), r[1].strip(), _ref_float(r[2], path))
                   for r in _ref_body(rows, 3, path)]
        ids = []
        for i, j, _ in entries:
            for u in (i, j):
                if u not in ids:
                    ids.append(u)
        w = np.zeros((len(ids), len(ids)))
        given = set()
        for i, j, v in entries:
            if (i, j) in given:
                raise ValidationError(f"{path}: pair ({i}, {j}) is given more than once")
            given.add((i, j))
            w[ids.index(i), ids.index(j)] = v
        return ids, w
    if header[0] != "id":
        raise ValidationError(f"{path}: expected dense header starting with 'id' or triplet i,j,w")
    ids = [h.strip() for h in rows[0][1:]]
    mat, row_ids = [], []
    for row in rows[1:]:
        if len(row) != len(ids) + 1:
            raise ValidationError(f"{path}: dense row length mismatch")
        row_ids.append(row[0].strip())
        mat.append(_ref_row(row[1:], path))
    if row_ids != ids:
        raise ValidationError(f"{path}: dense matrix row ids must match header ids")
    return ids, np.array(mat)


def reference_symmetrizer(w):
    """(d, classes) or None, as `ssofr.weights._symmetrizer` computed them
    before it kept a CSR form of W: the same breadth-first search of the
    dense pattern, and the value check in row blocks of D W against column
    blocks, for every W that is not exactly symmetric. The CSR value check
    must decide alike, with the same bits of d and the same classes."""
    n = w.shape[0]
    exact = np.array_equal(w[0], w[:, 0]) and np.array_equal(w, w.T)
    pattern = w != 0.0
    if not exact and not np.array_equal(pattern, pattern.T):
        return None
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
            if not exact:
                parent = frontier[rows[:, new].argmax(axis=0)]
                d[new] = d[parent] * (w[parent, new] / w[new, parent])
            frontier = new
    classes = None if odd else (np.flatnonzero(~in_q), np.flatnonzero(in_q))
    if exact:
        return d, classes
    if not np.all(np.isfinite(d) & (d > 0.0)):
        return None
    step = max(1, (1 << 15) // n)
    for i0 in range(0, n, step):
        rows = d[i0:i0 + step, None] * w[i0:i0 + step]
        mirror = np.multiply(w[:, i0:i0 + step].T, d, order="C")
        mirror -= rows
        np.abs(mirror, out=mirror)
        np.abs(rows, out=rows)
        rows *= 1e-12
        if np.any(mirror > rows):
            return None
    return d, classes


def reference_from_matrix(raw, normalize=True):
    """(w, isolated) as `ssofr.weights.from_matrix` computed them with a
    copy, a full finiteness check and a full negativity mask; the one-copy
    version must give the same bits and raise the same errors."""
    w = np.asarray(raw, dtype=float).copy()
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValidationError("weight matrix must be square")
    if w.shape[0] < 2:
        raise ValidationError("weight matrix needs at least 2 units")
    if not np.all(np.isfinite(w)):
        raise ValidationError("weight matrix contains non-finite values")
    np.fill_diagonal(w, 0.0)
    if np.any(w < 0.0):
        i, j = np.argwhere(w < 0.0)[0]
        raise ValidationError(f"weight matrix has a negative weight at ({i}, {j})")
    sums = w.sum(axis=1)
    isolated = sums == 0.0
    if normalize:
        safe = np.where(isolated, 1.0, sums)
        w = w / safe[:, None]
    return w, isolated

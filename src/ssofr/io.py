"""CSV and JSON file formats for the command-line surface.

All files are UTF-8 comma-separated with a mandatory header row. Floats are
written with repr so values round-trip exactly. Curves travel in long format
(id, t, value) by default; wide format has one row per curve with the grid
in the header. Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import csv
import io as _io
import os
from collections import Counter

import numpy as np

from .exceptions import ValidationError


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_all(values) -> list:
    """`_fmt` of each entry of a 1-D sequence, formatted from Python floats."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _read_rows(path: str):
    if not os.path.exists(path):
        raise ValidationError(f"file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(filter(None, csv.reader(fh)))
    if not rows:
        raise ValidationError(f"empty file: {path}")
    return rows


def _parse_float(token: str, path: str):
    try:
        return float(token)
    except ValueError as exc:
        raise ValidationError(f"{path}: cannot parse {token!r} as a number") from exc


def _parse_row(tokens, path: str) -> list:
    """Floats of a row of tokens; a token that is not a number is named by
    `_parse_float`."""
    try:
        return list(map(float, tokens))
    except ValueError:
        for token in tokens:
            _parse_float(token, path)
        raise


def _body(rows, width: int, path: str):
    """The rows after the header, each with at least `width` fields."""
    body = rows[1:]
    for row in body:
        if len(row) < width:
            raise ValidationError(f"{path}: short row {row!r}")
    return body


def read_curves_long(path: str):
    """Long-format curves (id, t, value) -> (ids, grid, curves).

    Units are numbered in order of first appearance and the grid is the
    sorted set of t; each row then has one flat index into the n x p curves,
    which must be hit exactly once.
    """
    rows = _read_rows(path)
    header = [h.strip().lower() for h in rows[0]]
    if header[:3] != ["id", "t", "value"]:
        raise ValidationError(f"{path}: expected header id,t,value")
    body = _body(rows, 3, path)
    codes: dict = {}
    unit = np.array([codes.setdefault(row[0].strip(), len(codes)) for row in body], dtype=np.intp)
    t_tokens = [row[1] for row in body]
    try:
        # a grid has few distinct t tokens: parse each once
        t_of = {token: float(token) for token in set(t_tokens)}
        t = np.array([t_of[token] for token in t_tokens])
        v = np.array(list(map(float, [row[2] for row in body])))
    except ValueError:
        for row in body:
            _parse_float(row[1], path)
            _parse_float(row[2], path)
        raise
    grid, t_code = np.unique(t, return_inverse=True)
    n, p = len(codes), grid.size
    flat = unit * p + t_code
    if n == 0 or flat.size != n * p or not np.bincount(flat, minlength=n * p).all():
        _, first = np.unique(flat, return_index=True)
        if first.size < flat.size:
            repeated = np.ones(flat.size, dtype=bool)
            repeated[first] = False
            row = body[int(np.argmax(repeated))]
            raise ValidationError(
                f"{path}: pair ({row[0].strip()}, {row[1].strip()}) is given more than once"
            )
        raise ValidationError(f"{path}: curves observed on different grids")
    curves = np.empty(n * p)
    curves[flat] = v
    return list(codes), grid, curves.reshape(n, p)


def read_curves_wide(path: str):
    """Wide-format curves (id, t1, t2, ...) -> (ids, grid, curves)."""
    rows = _read_rows(path)
    header = rows[0]
    if header[0].strip().lower() != "id":
        raise ValidationError(f"{path}: first header column must be 'id'")
    grid = np.array([_parse_float(h, path) for h in header[1:]])
    ids, curves = [], []
    for row in rows[1:]:
        if len(row) != len(header):
            raise ValidationError(f"{path}: row length does not match header")
        ids.append(row[0].strip())
        curves.append(_parse_row(row[1:], path))
    return ids, grid, np.array(curves)


def read_response(path: str):
    """Response file (id, y) -> (ids, values)."""
    rows = _read_rows(path)
    header = [h.strip().lower() for h in rows[0]]
    if header[:2] != ["id", "y"]:
        raise ValidationError(f"{path}: expected header id,y")
    ids, vals = [], []
    for row in _body(rows, 2, path):
        ids.append(row[0].strip())
        vals.append(_parse_float(row[1], path))
    return ids, np.array(vals)


def read_coords(path: str):
    """Coordinates file (id, lat, lon) -> (ids, lat, lon)."""
    rows = _read_rows(path)
    header = [h.strip().lower() for h in rows[0]]
    if header[:3] != ["id", "lat", "lon"]:
        raise ValidationError(f"{path}: expected header id,lat,lon")
    ids, lat, lon = [], [], []
    for row in _body(rows, 3, path):
        ids.append(row[0].strip())
        lat.append(_parse_float(row[1], path))
        lon.append(_parse_float(row[2], path))
    return ids, np.array(lat), np.array(lon)


def read_weights_matrix(path: str):
    """Dense (header = id,<ids...>) or triplet (i,j,w) weight matrix."""
    rows = _read_rows(path)
    header = [h.strip().lower() for h in rows[0]]
    if header[:3] == ["i", "j", "w"]:
        entries = [(r[0].strip(), r[1].strip(), _parse_float(r[2], path)) for r in _body(rows, 3, path)]
        ids = []
        seen = set()
        for i, j, _ in entries:
            for u in (i, j):
                if u not in seen:
                    seen.add(u)
                    ids.append(u)
        index = {u: k for k, u in enumerate(ids)}
        w = np.zeros((len(ids), len(ids)))
        given = set()
        for i, j, v in entries:
            if (i, j) in given:
                raise ValidationError(f"{path}: pair ({i}, {j}) is given more than once")
            given.add((i, j))
            w[index[i], index[j]] = v
        return ids, w
    if header[0] != "id":
        raise ValidationError(f"{path}: expected dense header starting with 'id' or triplet i,j,w")
    ids = [h.strip() for h in rows[0][1:]]
    mat = []
    row_ids = []
    for row in rows[1:]:
        if len(row) != len(ids) + 1:
            raise ValidationError(f"{path}: dense row length mismatch")
        row_ids.append(row[0].strip())
        mat.append(_parse_row(row[1:], path))
    if row_ids != ids:
        raise ValidationError(f"{path}: dense matrix row ids must match header ids")
    return ids, np.array(mat)


def align_to(ids_ref, ids_other, values: np.ndarray, what: str) -> np.ndarray:
    """Reorder values (indexed by ids_other) into the order of ids_ref. Each
    id must appear once in each list."""
    for ids, where in ((ids_other, what), (ids_ref, f"units aligned with {what}")):
        repeated = [u for u, count in Counter(ids).items() if count > 1]
        if repeated:
            raise ValidationError(f"{where}: id {repeated[0]!r} is given more than once")
    if sorted(ids_ref) != sorted(ids_other):
        raise ValidationError(f"{what}: ids do not match the curves file")
    index = {u: k for k, u in enumerate(ids_other)}
    sel = [index[u] for u in ids_ref]
    return values[sel] if values.ndim == 1 else values[np.ix_(sel, sel)]


def write_csv(path: str, header, rows) -> None:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_curves_long(path: str, ids, grid, curves) -> None:
    t_tokens = _fmt_all(grid)
    rows = (
        (cid, t, v)
        for cid, curve in zip(ids, np.asarray(curves, dtype=float))
        for t, v in zip(t_tokens, _fmt_all(curve))
    )
    write_csv(path, ("id", "t", "value"), rows)


def write_response(path: str, ids, values) -> None:
    write_csv(path, ("id", "y"), zip(ids, _fmt_all(values)))


def write_coords(path: str, ids, lat, lon) -> None:
    write_csv(path, ("id", "lat", "lon"), zip(ids, _fmt_all(lat), _fmt_all(lon)))


def write_weights_matrix(path: str, ids, w: np.ndarray) -> None:
    rows = ([cid, *_fmt_all(row)] for cid, row in zip(ids, np.asarray(w, dtype=float)))
    write_csv(path, ["id"] + list(ids), rows)

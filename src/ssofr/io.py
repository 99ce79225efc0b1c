"""CSV and JSON file formats for the command-line surface.

All files are UTF-8 comma-separated with a mandatory header row. Floats are
written with repr so values round-trip exactly. Curves travel in long format
(id, t, value) by default; wide format has one row per curve with the grid
in the header. Writes are atomic (temp file + rename).

Each input file is read once and decoded once as UTF-8; a file that cannot
be read or decoded is a `ValidationError` naming its path. It is then
handled as columns. The body is split on commas and newlines in one call
when the file has a header line and a body, its text holds no quote,
carriage return or NUL, no blank line and no field longer than the csv
module's field limit, and every body line holds the number of commas its
reader expects (counted in numpy on the bytes): on such text these are
exactly the fields `csv.reader` returns. Any other file (quoted fields, CRLF
line ends, blank lines, extra columns or short rows) goes through
`csv.reader` on the decoded text, which parses quoting and gives the same
values and the same errors. Writers join the repr tokens into one text;
each id is quoted as `csv.writer` quotes it, and one holding a carriage
return is quoted too, so that every id reads back.
"""

from __future__ import annotations

import csv
import os
from collections import Counter
from io import StringIO
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .exceptions import ValidationError

_COMMA, _NEWLINE = ord(","), ord("\n")
_NOT_BULK = (b'"', b"\r", b"\0", b"\n\n")


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


def _read_rows(text: str, path: str):
    """The non-empty rows of a file's decoded text, parsed by `csv.reader`."""
    rows = list(filter(None, csv.reader(StringIO(text, newline=""))))
    if not rows:
        raise ValidationError(f"empty file: {path}")
    return rows


def _parse_float(token: str, path: str):
    try:
        return float(token)
    except ValueError as exc:
        raise ValidationError(f"{path}: cannot parse {token!r} as a number") from exc


def _name_bad_token(columns, path: str) -> None:
    """Raise `_parse_float`'s error for the first token, in row order, of
    equal-length token columns that is not a number."""
    for row in zip(*columns):
        for token in row:
            _parse_float(token, path)


def _floats(columns, path: str) -> list:
    """A float array per token column, parsed by `float`; a token that is
    not a number is named by `_name_bad_token`."""
    try:
        return [np.fromiter(map(float, column), dtype=float, count=len(column))
                for column in columns]
    except ValueError:
        _name_bad_token(columns, path)
        raise


def _strip_all(tokens) -> list:
    return list(map(str.strip, tokens))


def _first_repeat(flat: np.ndarray):
    """Position of the first entry of `flat` equal to an earlier one, or None."""
    _, first = np.unique(flat, return_index=True)
    if first.size == flat.size:
        return None
    repeated = np.ones(flat.size, dtype=bool)
    repeated[first] = False
    return int(np.argmax(repeated))


def _body(rows, width: int, path: str, mismatch=None):
    """The rows after the header, each with at least `width` fields.

    With `mismatch`, for a table of an id column and number columns, each
    row must have exactly `width` fields. At the first that has not, the
    first field of an earlier row that is not a number is named, as a reader
    going row by row meets it; failing that, `mismatch` is the error.
    """
    body = rows[1:]
    for r, row in enumerate(body):
        if mismatch is not None and len(row) != width:
            _name_bad_token([[token for before in body[:r] for token in before[1:]]], path)
            raise ValidationError(mismatch)
        if len(row) < width:
            raise ValidationError(f"{path}: short row {row!r}")
    return body


class _Table:
    """A CSV file read once: its header fields, then its body's fields."""

    def __init__(self, path: str):
        if not os.path.exists(path):
            raise ValidationError(f"file not found: {path}")
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            self._text = data.decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from None
        self.path = path
        self._rows = None
        head = data.find(b"\n")
        if 0 < head < len(data) - 1 and not any(c in data for c in _NOT_BULK):
            b = np.frombuffer(data, dtype=np.uint8)
            at = np.flatnonzero((b == _COMMA) | (b == _NEWLINE))
            longest = int(np.diff(at, prepend=-1, append=b.size).max()) - 1
            if longest <= csv.field_size_limit():
                seps = b[at]
                # the body's separators, each line ended by a newline
                self._seps = seps[np.argmax(seps == _NEWLINE) + 1:]
                if data[-1] != _NEWLINE:
                    self._seps = np.append(self._seps, _NEWLINE)
                self.header = self._text[:self._text.index("\n")].split(",")
                return
        self._rows = _read_rows(self._text, path)
        self.header = self._rows[0]

    def fields(self, width=None, mismatch=None) -> list:
        """The first `width` fields of each body row (by default as many as
        the header has), as one list of str in row order; field k of each
        row is `fields[k::width]`. A row with fewer fields raises the
        short-row error; with `mismatch`, so does a row with more, with that
        error."""
        width = len(self.header) if width is None else width
        if self._rows is None:
            # every line holds width - 1 commas: every width-th separator,
            # and only those, is a newline
            ends = self._seps == _NEWLINE
            if np.array_equal(ends, np.arange(ends.size) % width == width - 1):
                body = self._text[self._text.index("\n") + 1:].removesuffix("\n")
                return body.replace("\n", ",").split(",")
            self._rows = _read_rows(self._text, self.path)
        body = _body(self._rows, width, self.path, mismatch)
        return [field for row in body for field in row[:width]]

    def expect(self, names: tuple) -> None:
        """Require the header to start with `names`, up to case and spaces."""
        if [h.strip().lower() for h in self.header[:len(names)]] != list(names):
            raise ValidationError(f"{self.path}: expected header {','.join(names)}")


def read_curves_long(path: str):
    """Long-format curves (id, t, value) -> (ids, grid, curves).

    Units are numbered in order of first appearance and the grid is the
    sorted set of t; each row then has one flat index into the n x p curves,
    which must be hit exactly once.
    """
    table = _Table(path)
    table.expect(("id", "t", "value"))
    tokens = table.fields(3)
    ids, t_tokens, v_tokens = _strip_all(tokens[0::3]), tokens[1::3], tokens[2::3]
    codes = {u: k for k, u in enumerate(dict.fromkeys(ids))}
    unit = np.fromiter(map(codes.__getitem__, ids), dtype=np.intp, count=len(ids))
    try:
        # a grid has few distinct t tokens: parse each once
        t_of = {token: float(token) for token in set(t_tokens)}
        t = np.fromiter(map(t_of.__getitem__, t_tokens), dtype=float, count=len(t_tokens))
        v = np.fromiter(map(float, v_tokens), dtype=float, count=len(v_tokens))
    except ValueError:
        _name_bad_token((t_tokens, v_tokens), path)
        raise
    grid, t_code = np.unique(t, return_inverse=True)
    n, p = len(codes), grid.size
    flat = unit * p + t_code
    if n == 0 or flat.size != n * p or not np.bincount(flat, minlength=n * p).all():
        r = _first_repeat(flat)
        if r is not None:
            raise ValidationError(
                f"{path}: pair ({ids[r]}, {t_tokens[r].strip()}) is given more than once"
            )
        raise ValidationError(f"{path}: curves observed on different grids")
    curves = np.empty(n * p)
    curves[flat] = v
    return list(codes), grid, curves.reshape(n, p)


def _dense(table: _Table, mismatch: str):
    """(ids, values) of a table whose first column holds ids and whose other
    columns all hold numbers, one row per header field."""
    tokens = table.fields(mismatch=mismatch)
    width = len(table.header)
    ids = _strip_all(tokens[0::width])
    del tokens[0::width]
    (values,) = _floats([tokens], table.path)
    return ids, values.reshape(len(ids), width - 1) if ids else values


def read_curves_wide(path: str):
    """Wide-format curves (id, t1, t2, ...) -> (ids, grid, curves)."""
    table = _Table(path)
    header = table.header
    if header[0].strip().lower() != "id":
        raise ValidationError(f"{path}: first header column must be 'id'")
    grid = np.array([_parse_float(h, path) for h in header[1:]])
    ids, curves = _dense(table, f"{path}: row length does not match header")
    return ids, grid, curves


def read_response(path: str):
    """Response file (id, y) -> (ids, values)."""
    table = _Table(path)
    table.expect(("id", "y"))
    tokens = table.fields(2)
    (y,) = _floats([tokens[1::2]], path)
    return _strip_all(tokens[0::2]), y


def read_coords(path: str):
    """Coordinates file (id, lat, lon) -> (ids, lat, lon)."""
    table = _Table(path)
    table.expect(("id", "lat", "lon"))
    tokens = table.fields(3)
    lat, lon = _floats([tokens[1::3], tokens[2::3]], path)
    return _strip_all(tokens[0::3]), lat, lon


class Triplets(NamedTuple):
    """The entries of an `i,j,w` weights file in file order:
    W[rows[k], cols[k]] = values[k], rows and cols indexing its ids."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def read_weights(path: str):
    """Dense (header = id,<ids...>) or triplet (i,j,w) weight matrix ->
    (ids, W): the n x n array of a dense file, the `Triplets` of a triplet
    file, whose ids are numbered in order of first appearance and which may
    give each (i, j) pair once."""
    table = _Table(path)
    header = [h.strip().lower() for h in table.header]
    if header[:3] == ["i", "j", "w"]:
        tokens = table.fields(3)
        (values,) = _floats([tokens[2::3]], path)
        i_ids, j_ids = _strip_all(tokens[0::3]), _strip_all(tokens[1::3])
        ids = list(dict.fromkeys(u for pair in zip(i_ids, j_ids) for u in pair))
        index = {u: k for k, u in enumerate(ids)}
        rows = np.fromiter(map(index.__getitem__, i_ids), dtype=np.intp, count=len(i_ids))
        cols = np.fromiter(map(index.__getitem__, j_ids), dtype=np.intp, count=len(j_ids))
        r = _first_repeat(rows * len(ids) + cols)
        if r is not None:
            raise ValidationError(f"{path}: pair ({i_ids[r]}, {j_ids[r]}) is given more than once")
        return ids, Triplets(rows, cols, values)
    if header[0] != "id":
        raise ValidationError(f"{path}: expected dense header starting with 'id' or triplet i,j,w")
    ids = _strip_all(table.header[1:])
    row_ids, w = _dense(table, f"{path}: dense row length mismatch")
    if row_ids != ids:
        raise ValidationError(f"{path}: dense matrix row ids must match header ids")
    return ids, w


def read_weights_matrix(path: str):
    """Dense (header = id,<ids...>) or triplet (i,j,w) weight matrix ->
    (ids, dense W)."""
    ids, w = read_weights(path)
    if isinstance(w, Triplets):
        dense = np.zeros((len(ids), len(ids)))
        dense[w.rows, w.cols] = w.values
        return ids, dense
    return ids, w


def align_to(ids_ref, ids_other, values, what: str):
    """Reorder values (indexed by ids_other) into the order of ids_ref: a
    1-D array, both axes of a 2-D one, or the indices of `Triplets`. Each
    id must appear once in each list. Values already in that order are
    returned as they are, not copied."""
    for ids, where in ((ids_other, what), (ids_ref, f"units aligned with {what}")):
        repeated = [u for u, count in Counter(ids).items() if count > 1]
        if repeated:
            raise ValidationError(f"{where}: id {repeated[0]!r} is given more than once")
    if ids_other == ids_ref:
        return values
    if sorted(ids_ref) != sorted(ids_other):
        raise ValidationError(f"{what}: ids do not match the curves file")
    index = {u: k for k, u in enumerate(ids_other)}
    sel = [index[u] for u in ids_ref]
    if isinstance(values, Triplets):
        at = np.empty(len(sel), dtype=np.intp)
        at[sel] = np.arange(len(sel))
        return Triplets(at[values.rows], at[values.cols], values.values)
    return values[sel] if values.ndim == 1 else values[np.ix_(sel, sel)]


def _lines(rows) -> list:
    """Each row as `csv.writer` writes it, without its line end. Fields are
    quoted as under a "\\r\\n" line end: one holding a carriage return is
    quoted as one holding a newline is, since `csv.reader` would end the row
    at a bare one."""
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerows(rows)
    return [line[:-2] for line in lines]


def write_csv(path: str, header, rows) -> None:
    atomic_write_text(path, "\n".join(_lines([header, *rows])) + "\n")


def _quoted(ids) -> list:
    """Each id as `write_csv` writes it in a row of two or more fields."""
    return [line[:-1] for line in _lines((cid, "") for cid in ids)]


def write_curves_long(path: str, ids, grid, curves) -> None:
    curves = np.asarray(curves, dtype=float)
    n, p = curves.shape[0], len(grid)
    tokens = [None] * (4 * n * p)
    id_cells = [f"{cid}," for cid in _quoted(ids)]
    tokens[0::4] = [cell for cell in id_cells for _ in range(p)]
    tokens[1::4] = [f"{t}," for t in _fmt_all(grid)] * n
    tokens[2::4] = _fmt_all(curves.ravel())
    tokens[3::4] = ["\n"] * (n * p)
    atomic_write_text(path, "id,t,value\n" + "".join(tokens))


def write_response(path: str, ids, values) -> None:
    write_csv(path, ("id", "y"), zip(ids, _fmt_all(values)))


def write_coords(path: str, ids, lat, lon) -> None:
    write_csv(path, ("id", "lat", "lon"), zip(ids, _fmt_all(lat), _fmt_all(lon)))


def write_weights_matrix(path: str, ids, w: np.ndarray) -> None:
    quoted = _quoted(ids)
    lines = [",".join(["id", *quoted])]
    lines += [
        f"{cid},{','.join(_fmt_all(row))}" for cid, row in zip(quoted, np.asarray(w, dtype=float))
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")

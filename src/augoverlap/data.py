"""Data model and text file I/O for embeddings, labels, multi-view sets and positive pairs,
plus the row operations every module shares: normalize, squared distances and class means.

File formats (UTF-8, LF line endings):

* EMB:   ``EMB v1`` / ``n=<N> dim=<m>`` / N rows of m space-separated floats.
* VIEWS: ``VIEWS v1`` / ``n=<N> c=<C> dim=<m>`` / N*C rows, anchor-major.
* LAB:   ``LAB v1`` / ``n=<N> k=<K>`` / N rows of one integer in [0, K).
* PAIRS: two EMB files of identical shape, passed as a pair of paths.

Floats are serialized with 9 significant digits, so canonical files round-trip
byte-identically. Loaders never normalize; call :func:`normalize` explicitly.

Loaders convert the data rows a block at a time (at most ``_BLOCK_VALUES``
values, so the temporary str tokens stay at a few MB): one ``np.array`` call
over the block's split lines, accepted when it has the declared shape and every
value is finite (LAB: in [0, K)). numpy's str cast calls Python's ``float`` and
``int``, so the block path accepts exactly the tokens the per-row parse does.
Any other block falls back to the per-row parse, which raises a ParseError
naming the file and the first bad line.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, ParseError

_FLOAT_FMT = "%.9g"
_BLOCK_VALUES = 1 << 16  # values per parsed block: its str tokens stay at a few MB
TILE_VALUES = 1 << 15  # values per row tile of the array kernels: a 256 KB float64 tile stays in cache


def _checked_matrix(v: np.ndarray, name: str, normalized: bool) -> np.ndarray:
    """A finite, read-only float64 copy of ``v``; unit-norm rows when ``normalized``."""
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} matrix contains non-finite values")
    v = np.ascontiguousarray(v, dtype=np.float64)
    v.flags.writeable = False
    if normalized and not np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-6):
        raise ValueError("normalized flag set but rows are not unit-norm")
    return v


@dataclass(frozen=True)
class EmbeddingSet:
    """An n x m matrix of feature vectors, one sample per row."""

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"embedding matrix must be 2-D and non-empty, got shape {v.shape}")
        object.__setattr__(self, "values", _checked_matrix(v, "embedding", self.normalized))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabelSet:
    """Integer class labels in [0, k) for n samples."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        if lab.ndim != 1 or lab.shape[0] < 1:
            raise ValueError("labels must be a non-empty 1-D array")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if lab.min() < 0 or lab.max() >= self.k:
            bad = int(lab[(lab < 0) | (lab >= self.k)][0])
            raise ValueError(f"label {bad} out of range [0, {self.k})")
        lab.flags.writeable = False
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class ViewSet:
    """n anchors x c views x m dims, stored as an (n*c) x m matrix, anchor-major."""

    values: np.ndarray
    n: int
    c: int
    normalized: bool = False

    def __post_init__(self):
        v = self.values
        if self.c < 1 or self.n < 1:
            raise ValueError("n and c must be >= 1")
        if v.ndim != 2 or v.shape[0] != self.n * self.c:
            raise ValueError(f"expected {self.n * self.c} rows, got {v.shape[0]}")
        object.__setattr__(self, "values", _checked_matrix(v, "view", self.normalized))

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def stacked(self) -> np.ndarray:
        """The views as an (n, c, m) array."""
        return self.values.reshape(self.n, self.c, self.m)

    def views_of(self, i: int) -> np.ndarray:
        return self.values[i * self.c : (i + 1) * self.c]


@dataclass(frozen=True)
class PositivePairs:
    """Row-aligned positive pairs (x_i, x_i+), optionally labeled per side."""

    left: EmbeddingSet
    right: EmbeddingSet
    left_labels: LabelSet | None = None
    right_labels: LabelSet | None = None

    def __post_init__(self):
        if self.left.values.shape != self.right.values.shape:
            raise ValueError(
                f"pair sides have mismatched shapes {self.left.values.shape} "
                f"vs {self.right.values.shape}"
            )
        for side, lab in (("left", self.left_labels), ("right", self.right_labels)):
            if lab is not None and lab.n != self.left.n:
                raise ValueError(f"{side} labels have n={lab.n}, pairs have n={self.left.n}")

    @property
    def n(self) -> int:
        return self.left.n

    @property
    def labeled(self) -> bool:
        return self.left_labels is not None and self.right_labels is not None


def normalize(x: EmbeddingSet | ViewSet) -> EmbeddingSet | ViewSet:
    """Project every row of an EmbeddingSet or ViewSet onto the unit sphere.
    Returns the same set type; idempotent; rejects zero rows."""
    norms = np.linalg.norm(x.values, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateInputError(f"row {zero[0]} has zero norm and cannot be normalized")
    return dataclasses.replace(x, values=x.values / norms[:, None], normalized=True)


def row_tiles(rows: int, width: int):
    """(lo, hi) bounds of the tiles of ``rows`` rows of ``width`` values each: at most
    ``TILE_VALUES`` values, and at least one row, per tile."""
    step = max(1, TILE_VALUES // max(width, 1))
    return ((lo, min(lo + step, rows)) for lo in range(0, rows, step))


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """``np.sum(x**2, axis=1)`` a row tile at a time; each row sums alone, so the bits match."""
    out = np.empty(x.shape[0])
    for lo, hi in row_tiles(*x.shape):
        np.sum(np.square(x[lo:hi]), axis=1, out=out[lo:hi])
    return out


def sq_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Squared euclidean distances between the rows of ``a`` and ``b`` (default ``a``).

    Width <= 3 sums one coordinate at a time, so a pair's bits do not depend on the
    call shape; wider rows use the BLAS expansion |a|^2 + |b|^2 - 2 a.b clipped at 0.
    The square form is exactly symmetric for every width. Beyond the result, the
    work runs in place one row tile at a time (``TILE_VALUES`` values), so the only
    temporaries are one tile buffer and the row norms. The bits are those of the
    one-shot expressions, since t - 2g == t + (-2g) and 0.0 + s == s for the
    first column's square s."""
    b = a if b is None else b
    narrow = 0 < a.shape[1] <= 3  # zero-width rows take the product, which is all zeros
    out = np.empty((a.shape[0], b.shape[0])) if narrow else a @ b.T  # a @ a.T runs as one symmetric product
    tiles = list(row_tiles(*out.shape))
    buf = np.empty((tiles[0][1] if tiles else 0, out.shape[1]))
    if not narrow:
        sa = _sq_norms(a)
        sb = sa if b is a else _sq_norms(b)
        for lo, hi in tiles:
            o, t = out[lo:hi], buf[: hi - lo]
            np.add(sa[lo:hi, None], sb[None, :], out=t)
            o *= -2.0
            o += t
            np.maximum(o, 0.0, out=o)
        return out
    for lo, hi in tiles:
        o, t = out[lo:hi], buf[: hi - lo]
        np.square(np.subtract(a[lo:hi, 0, None], b[None, :, 0], out=o), out=o)
        for k in range(1, a.shape[1]):
            o += np.square(np.subtract(a[lo:hi, k, None], b[None, :, k], out=t), out=t)
    return out


def class_means(values: np.ndarray, labels: LabelSet) -> np.ndarray:
    """Per-class mean rows, a (k, m) array; every class must have a member."""
    if labels.n != values.shape[0]:
        raise ValueError(f"labels have n={labels.n}, features have n={values.shape[0]}")
    means = np.empty((labels.k, values.shape[1]))
    for k in range(labels.k):
        mask = labels.labels == k
        if not mask.any():
            raise DegenerateInputError(f"class {k} is empty")
        means[k] = values[mask].mean(axis=0)
    return means


# ---------------------------------------------------------------------------
# parsing helpers


def _read_file(path, magic: str, fields: str) -> tuple[list[str], tuple[int, ...]]:
    """The lines of a file whose line 1 is ``magic`` and whose line 2 holds
    ``name=<int>`` for each name in ``fields``, and those integers."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != magic:
        raise ParseError(f"{path}: line 1: expected '{magic}' header")
    header = lines[1] if len(lines) > 1 else ""
    m = re.fullmatch(" ".join(rf"{name}=(\d+)" for name in fields.split()), header)
    if m is None:
        raise ParseError(f"{path}: line 2: malformed header {header!r}")
    return lines, tuple(int(v) for v in m.groups())


def _parse_rows(lines: list[str], cols: int, dtype, valid, parse_row, path) -> np.ndarray:
    """The data rows ``lines[2:]`` as a (rows, cols) array, a block at a time. A
    block that fails to convert, has another shape or fails ``valid`` is parsed
    again by ``parse_row(line, where)``, which raises at its first bad line."""
    rows = len(lines) - 2
    out = np.empty((rows, cols), dtype=dtype)
    step = max(1, _BLOCK_VALUES // max(cols, 1))
    for lo in range(0, rows, step):
        block = lines[2 + lo : 2 + lo + step]
        try:
            values = np.array([line.split() for line in block], dtype=dtype)
        except (ValueError, OverflowError):  # a bad token or a ragged block
            values = None
        if values is not None and values.shape == (len(block), cols) and valid(values):
            out[lo : lo + len(block)] = values
            continue
        for r, line in enumerate(block, lo):
            out[r] = parse_row(line, f"{path}: line {r + 3}")
    return out


def _parse_matrix(lines: list[str], rows: int, cols: int, path) -> np.ndarray:
    if len(lines) - 2 < rows:
        raise ParseError(f"{path}: line {len(lines) + 1}: expected {rows} data rows, found {len(lines) - 2}")
    if len(lines) - 2 > rows:
        raise ParseError(f"{path}: line {rows + 3}: trailing data beyond declared {rows} rows")

    def float_row(line: str, where: str) -> np.ndarray:
        fields = line.split()
        if len(fields) != cols:
            raise ParseError(f"{where}: expected {cols} values, found {len(fields)}")
        try:
            row = np.array([float(f) for f in fields])
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from None
        if not np.all(np.isfinite(row)):
            raise ParseError(f"{where}: non-finite value")
        return row

    return _parse_rows(lines, cols, np.float64, lambda v: np.isfinite(v).all(), float_row, path)


def load_embeddings(path) -> EmbeddingSet:
    lines, (n, m) = _read_file(path, "EMB v1", "n dim")
    return EmbeddingSet(_parse_matrix(lines, n, m, path), normalized=False)


def load_views(path) -> ViewSet:
    lines, (n, c, m) = _read_file(path, "VIEWS v1", "n c dim")
    return ViewSet(_parse_matrix(lines, n * c, m, path), n=n, c=c)


def load_labels(path) -> LabelSet:
    lines, (n, k) = _read_file(path, "LAB v1", "n k")
    if len(lines) - 2 != n:
        raise ParseError(f"{path}: line {len(lines) + 1}: expected {n} label rows, found {len(lines) - 2}")

    def label_row(line: str, where: str) -> int:
        field = line.strip()
        try:
            label = int(field)
        except ValueError:
            raise ParseError(f"{where}: expected an integer, got {field!r}") from None
        if not 0 <= label < k:  # a Python int, so a label beyond int64 is out of range too
            raise ParseError(f"{where}: label {label} out of range [0, {k})")
        return label

    labels = _parse_rows(lines, 1, np.int64, lambda v: ((v >= 0) & (v < k)).all(), label_row, path)
    return LabelSet(labels[:, 0], k=k)


def load_pairs(path_left, path_right, labels_left=None, labels_right=None) -> PositivePairs:
    left = load_embeddings(path_left)
    right = load_embeddings(path_right)
    ll = load_labels(labels_left) if labels_left is not None else None
    rl = load_labels(labels_right) if labels_right is not None else None
    return PositivePairs(left, right, ll, rl)


# ---------------------------------------------------------------------------
# writers


def _format_matrix(values: np.ndarray) -> str:
    row_fmt = " ".join([_FLOAT_FMT] * values.shape[1])
    return "\n".join(row_fmt % tuple(row.tolist()) for row in values)


def save_embeddings(e: EmbeddingSet, path) -> None:
    body = f"EMB v1\nn={e.n} dim={e.m}\n{_format_matrix(e.values)}\n"
    Path(path).write_text(body, encoding="utf-8", newline="\n")


def save_views(v: ViewSet, path) -> None:
    body = f"VIEWS v1\nn={v.n} c={v.c} dim={v.m}\n{_format_matrix(v.values)}\n"
    Path(path).write_text(body, encoding="utf-8", newline="\n")


def save_labels(lab: LabelSet, path) -> None:
    body = f"LAB v1\nn={lab.n} k={lab.k}\n" + "\n".join(str(x) for x in lab.labels) + "\n"
    Path(path).write_text(body, encoding="utf-8", newline="\n")

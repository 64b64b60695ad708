"""Data model and text file I/O for embeddings, labels, multi-view sets and positive pairs,
plus the row operations every module shares: sq_norms, unit_rows, squared distances and class means.

File formats (UTF-8, LF line endings):

* EMB:   ``EMB v1`` / ``n=<N> dim=<m>`` / N rows of m space-separated floats.
* VIEWS: ``VIEWS v1`` / ``n=<N> c=<C> dim=<m>`` / N*C rows, anchor-major.
* LAB:   ``LAB v1`` / ``n=<N> k=<K>`` / N rows of one integer in [0, K).
* PAIRS: two EMB files of identical shape, passed as a pair of paths.

Floats are serialized with 9 significant digits, so canonical files round-trip
byte-identically. Loaders never normalize; call :func:`normalize` explicitly.

Writers produce the bytes of ``"%.9g" % v`` for every value, and build the file
as ASCII bytes a block of whole rows at a time (at most ``_FORMAT_VALUES``
values, so the temporaries stay near 2 MB). A finite value printed in
fixed notation takes the fast path: its 9-digit significand is ``rint(|v| *
10**k)`` for the k that puts it in [1e8, 1e9), and its text is looked up as
words of ASCII bytes (sign and ``0.`` prefix, then three 3-digit groups with the
point and the stripped trailing zeros) whose null padding is deleted. Zeros,
subnormals, values printed in scientific notation (below 1e-4 or from 1e9 once
rounded) and values within 2**-20 of a rounding tie fall back to ``%``.

Loaders convert all data rows with one ``np.loadtxt`` call, accepted when it has
the declared shape and every value is finite (LAB: in [0, K)). numpy's parser
splits on Python's whitespace and accepts a subset of Python's spellings, so any
file it rejects takes the per-row parse with ``float`` and ``int``, which loads
it or raises a ParseError naming the file and the first bad line.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, ParseError

_FLOAT_FMT = b"%.9g"
_FORMAT_VALUES = 1 << 14  # values per formatted block: about 130 bytes of temporaries per value
TILE_VALUES = 1 << 15  # values per row tile of the array kernels: a 256 KB float64 tile stays in cache


def checked_matrix(v: np.ndarray, name: str, normalized: bool) -> np.ndarray:
    """``v`` as a finite, read-only, C-contiguous float64 matrix, with unit-norm rows
    when ``normalized``; ``name`` names it in the errors. A C-contiguous float64 ``v``
    is not copied: it comes back itself, now read-only (``normalize`` holds one output
    because of it). Beyond a copy, the checks hold one row tile and O(rows) values."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    for lo, hi in row_tiles(*v.shape):
        if not np.isfinite(v[lo:hi]).all():
            raise ValueError(f"{name} matrix contains non-finite values")
    v.flags.writeable = False
    if normalized:
        norms = sq_norms(v)
        bad = np.flatnonzero(~np.isclose(np.sqrt(norms, out=norms), 1.0, atol=1e-6))
        if bad.size:
            raise ValueError(f"{name} rows must be unit vectors: row {bad[0]} has norm {norms[bad[0]]:.9g}, not unit-norm")
    return v


def require_normalized(*sets: EmbeddingSet | ViewSet) -> None:
    """Raise unless every set was built with ``normalized=True`` (unit-norm rows)."""
    for s in sets:
        if not s.normalized:
            raise ValueError(f"{type(s).__name__} must be normalized first (see data.normalize)")


def require_labels(pairs: PositivePairs) -> None:
    """Raise unless both sides of ``pairs`` carry labels."""
    if not pairs.labeled:
        raise ValueError("positive pairs must carry labels on both sides")


def require_nonnegative(**values: float) -> None:
    """Raise a ValueError naming the first of ``values`` that is not finite and >= 0."""
    for name, value in values.items():
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be >= 0 and finite, got {value}")


@dataclass(frozen=True)
class EmbeddingSet:
    """An n x m matrix of feature vectors, one sample per row."""

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"embedding matrix must be 2-D and non-empty, got shape {v.shape}")
        object.__setattr__(self, "values", checked_matrix(v, "embedding", self.normalized))

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
        object.__setattr__(self, "values", checked_matrix(v, "view", self.normalized))

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
    return dataclasses.replace(x, values=unit_rows(x.values), normalized=True)


def row_tiles(rows: int, width: int):
    """(lo, hi) bounds of the tiles of ``rows`` rows of ``width`` values each: at most
    ``TILE_VALUES`` values, and at least one row, per tile."""
    step = max(1, TILE_VALUES // max(width, 1))
    return ((lo, min(lo + step, rows)) for lo in range(0, rows, step))


def sq_norms(x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """Squared row norms with the bits of ``np.add.reduce(x * x, axis=1)``, the sum in
    numpy's norm, a row tile at a time. numpy sums a row pairwise when its values are
    adjacent, and column by column when ``x`` is column-major with over one row; the
    tiles keep that order (a one-row tile alone would sum pairwise). A row-major
    tile's squares go to the flat ``scratch`` (one tile of values) if given. ``out``
    (rows,) receives the result; None allocates it."""
    rows, width = x.shape
    out = np.empty(rows) if out is None else out
    column_major = rows > 1 and width > 1 and abs(x.strides[0]) < abs(x.strides[1])
    for lo, hi in row_tiles(rows, width):
        if column_major:
            o = np.square(x[lo:hi, 0], out=out[lo:hi])
            for k in range(1, width):
                o += np.square(x[lo:hi, k])
        else:  # a fresh tile stays unnamed, so it is freed before the next
            tile = None if scratch is None else scratch[: (hi - lo) * width].reshape(hi - lo, width)
            np.add.reduce(np.square(x[lo:hi], out=tile), axis=1, out=out[lo:hi])
    return out


def unit_rows(x: np.ndarray) -> np.ndarray:
    """``x`` divided by its row norms, in ``x``'s layout, with the bits of numpy's
    ``x / norm(x, axis=1, keepdims=True)`` where that norm is finite; a row whose
    squares overflow is first divided by its largest magnitude. Rejects zero rows."""
    with np.errstate(over="ignore"):
        norms = sq_norms(x)
    np.sqrt(norms, out=norms)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateInputError(f"row {zero[0]} has zero norm and cannot be normalized")
    out = x / norms[:, None]
    huge = np.flatnonzero(np.isinf(norms))
    if huge.size:
        out[huge] = unit_rows(x[huge] / np.abs(x[huge]).max(axis=1, keepdims=True))
    return out


def sq_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Squared euclidean distances between the rows of ``a`` and ``b`` (default ``a``).

    Width <= 3 sums one coordinate at a time, so a pair's bits do not depend on the
    call shape; wider rows use the BLAS expansion |a|^2 + |b|^2 - 2 a.b clipped at 0,
    unless the largest squared norms of ``a`` and ``b`` sum beyond float range (the
    expansion would give inf - inf): such inputs take the column sum too, where a
    squared distance beyond float range is inf. The square form is exactly symmetric
    for every width. Beyond the result, the work runs in place one row tile at a time
    (``TILE_VALUES`` values), so the only temporaries are one tile buffer and the row
    norms. The bits are those of the one-shot expressions, since t - 2g == t + (-2g)
    and 0.0 + s == s for the first column's square s."""
    b = a if b is None else b
    with np.errstate(over="ignore"):  # a squared distance beyond float range is inf
        by_column = 0 < a.shape[1] <= 3  # zero-width rows take the product, which is all zeros
        if not by_column:
            sa = sq_norms(a)
            sb = sa if b is a else sq_norms(b)
            by_column = not np.isfinite(sa.max(initial=0.0) + sb.max(initial=0.0))
        out = np.empty((a.shape[0], b.shape[0])) if by_column else a @ b.T  # a @ a.T runs as one symmetric product
        tiles = list(row_tiles(*out.shape))
        buf = np.empty((tiles[0][1] if tiles else 0, out.shape[1]))
        for lo, hi in tiles:
            o, t = out[lo:hi], buf[: hi - lo]
            if by_column:
                np.square(np.subtract(a[lo:hi, 0, None], b[None, :, 0], out=o), out=o)
                for k in range(1, a.shape[1]):
                    o += np.square(np.subtract(a[lo:hi, k, None], b[None, :, k], out=t), out=t)
            else:
                np.add(sa[lo:hi, None], sb[None, :], out=t)
                o *= -2.0
                o += t
                np.maximum(o, 0.0, out=o)
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


def _read_file(path, magic: str, fields: str, zero_ok: str = "") -> tuple[list[str], tuple[int, ...]]:
    """The lines of a file whose line 1 is ``magic`` and whose line 2 holds
    ``name=<int>`` for each name in ``fields``, and those integers, each >= 1
    unless its name is in ``zero_ok``."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != magic:
        raise ParseError(f"{path}: line 1: expected '{magic}' header")
    header = lines[1] if len(lines) > 1 else ""
    m = re.fullmatch(" ".join(rf"{name}=(\d+)" for name in fields.split()), header)
    if m is None:
        raise ParseError(f"{path}: line 2: malformed header {header!r}")
    values = tuple(int(v) for v in m.groups())
    for name, value in zip(fields.split(), values):
        if value == 0 and name not in zero_ok.split():
            raise ParseError(f"{path}: line 2: {name} must be >= 1, got 0")
    return lines, values


def _parse_rows(lines: list[str], cols: int, dtype, valid, parse_row, path) -> np.ndarray:
    """The data rows ``lines[2:]`` (at least one) as a (rows, cols) array from one
    ``np.loadtxt`` call. If it fails, skips a blank row, has another shape or fails
    ``valid``, each row is parsed by ``parse_row(line, where)``, which raises at the
    first bad line. loadtxt warns when it finds no data, so zero-column rows and a
    blank first row take the per-row parse directly."""
    rows = len(lines) - 2
    try:
        values = np.loadtxt(lines[2:], dtype=dtype, comments=None, ndmin=2) if cols and lines[2].strip() else None
    except ValueError:  # a bad token, a ragged row or a carriage return inside a row
        values = None
    if values is not None and values.shape == (rows, cols) and valid(values):
        return values
    out = np.empty((rows, cols), dtype=dtype)
    for r in range(rows):
        out[r] = parse_row(lines[r + 2], f"{path}: line {r + 3}")
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
    lines, (n, c, m) = _read_file(path, "VIEWS v1", "n c dim", zero_ok="dim")  # zero-column views round-trip
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


def _group_words() -> np.ndarray:
    """The ASCII text of a 3-digit group of a significand, as a uint32 word padded
    with null bytes, at index ``(offset * 2 + strip) * 1000 + group``. ``offset`` is
    the number of the group's digits before the decimal point, capped to [0, 4]:
    0 puts the whole group after the point, 1-3 insert the point after that digit
    and 4 puts the whole group before it. ``strip`` (every later group is zero)
    drops the trailing zeros after the point, and the point when nothing follows it."""
    g = np.arange(1000)
    digits = (np.stack([g // 100, g // 10 % 10, g % 10], axis=1) + ord("0")).astype(np.uint8)
    zero_tail = np.flip(np.cumprod(np.flip(digits == ord("0"), 1), 1), 1).astype(bool)
    words = np.zeros((5, 2, 1000, 4), np.uint8)
    for offset in range(5):
        for strip in (0, 1):
            w = words[offset, strip]
            if offset in (0, 4):
                w[:, :3] = digits
                if strip and offset == 0:
                    w[:, :3][zero_tail] = 0
                continue
            w[:, :offset] = digits[:, :offset]
            w[:, offset] = ord(".")
            w[:, offset + 1 :] = digits[:, offset:]
            if strip:
                w[:, offset + 1 :][zero_tail[:, offset:]] = 0
                w[zero_tail[:, offset] if offset < 3 else slice(None), offset] = 0
    return words.view(np.uint32).reshape(-1)


def _head_words() -> tuple[np.ndarray, np.ndarray]:
    """The text before a value's significand (separator, sign, ``0.`` and the zeros
    after the point) as two uint32 words, at index ``neg * 10 + newline * 5 + zeros``
    with ``zeros`` = 0 for no ``0.`` prefix and 1-4 for ``0.`` plus zeros - 1 zeros."""
    heads = np.zeros((2, 2, 5, 8), np.uint8)
    for neg in (0, 1):
        for newline in (0, 1):
            for zeros in range(5):
                text = (b"\n" if newline else b" ") + (b"-" if neg else b"")
                text += b"0." + b"0" * (zeros - 1) if zeros else b""
                heads[neg, newline, zeros, : len(text)] = list(text)
    words = heads.reshape(-1, 2, 4).view(np.uint32)[..., 0]
    return words[:, 0].copy(), words[:, 1].copy()


def _scale_tables() -> tuple[np.ndarray, np.ndarray]:
    """By biased binary exponent: the k that puts a value of that octave below the
    threshold into [1e8, 1e9) when scaled by 10**k, and the threshold (the octave's
    power of ten, if any), above which k is one less. k stays in [0, 14]."""
    f = np.floor((np.arange(2048) - 1023) * np.log10(2.0))
    k = np.clip(8 - f, 0, 14).astype(np.intp)
    return k, np.where(k > 0, 10.0 ** np.clip(f + 1, -20, 20), np.inf)


_GROUP_WORDS = _group_words()
_HEAD_WORDS = _head_words()
_SCALE_K, _SCALE_STEP = _scale_tables()
_POW10 = np.array([float(10**k) for k in range(15)])  # exact
# indexed by d = 3 + the number of significand digits before the decimal point,
# which fixed notation keeps in [-3, 9] (negative: zeros after the point): the base
# in _GROUP_WORDS of each group's offset (the last group always strips) and the
# head's ``zeros``
_GROUP_BASE = [(np.clip(np.arange(13) - 3 - 3 * i, 0, 4) * 2000 + 1000 * (i == 2)).astype(float) for i in range(3)]
_HEAD_ZEROS = np.clip(4 - np.arange(13), 0, 4)


def _fill_records(x: np.ndarray, newline: np.ndarray, rec: np.ndarray) -> None:
    """Write into the (x.size, 5) uint32 array ``rec`` the values ``x`` as ``%.9g``
    text padded with null bytes, each preceded by a space or, where ``newline`` is 5,
    a newline.

    A finite v != 0 whose text is fixed notation takes the table path: with k from
    the binary exponent, y = |v| * 10**k lies in [1e8, 1e9) and is within 2**-24 of
    the exact product, so away from a half-way case rint(y) is the 9-digit
    significand D that Python's correctly rounded formatting gives. Each value gets
    a 20-byte record (two head words and a word per 3-digit group of D) whose null
    bytes are deleted. Zeros, subnormals, scientific notation and near-ties are
    formatted by ``%`` into their record instead."""
    a = np.abs(x)
    exp = a.view(np.int64) >> 52
    k = _SCALE_K[exp]
    k -= a >= _SCALE_STEP[exp]
    y = a * _POW10[k]
    sig = np.rint(y)
    carry = sig == 1e9  # rounds up to 1e8 with the point one place later
    d = 12 - k + carry
    fast = (y >= 1e8) & (y < 1e9) & (np.abs(y - sig) < 0.5 - 2.0**-20) & (d >= 0) & (d <= 12)
    slow = np.flatnonzero(~fast)
    sig[carry] = 1e8
    sig[slow] = 1e8  # any in-range index; the record is overwritten below
    d[slow] = 0
    g0 = np.floor(sig / 1e6)
    rest = sig - g0 * 1e6
    g1 = np.floor(rest / 1e3)
    g2 = rest - g1 * 1e3
    rec[:, 2] = _GROUP_WORDS[(g0 + (rest == 0) * 1000.0 + _GROUP_BASE[0][d]).astype(np.intp)]
    rec[:, 3] = _GROUP_WORDS[(g1 + (g2 == 0) * 1000.0 + _GROUP_BASE[1][d]).astype(np.intp)]
    rec[:, 4] = _GROUP_WORDS[(g2 + _GROUP_BASE[2][d]).astype(np.intp)]
    head = newline + _HEAD_ZEROS[d] + np.signbit(x) * 10
    rec[:, 0] = _HEAD_WORDS[0][head]
    rec[:, 1] = _HEAD_WORDS[1][head]
    if slow.size:  # at most 16 bytes of text after the separator
        text = b"".join([(_FLOAT_FMT % v).ljust(19, b"\0") for v in x[slow].tolist()])
        rec.view(np.uint8).reshape(-1, 20)[slow, 1:] = np.frombuffer(text, np.uint8).reshape(-1, 19)


def _format_matrix(header: str, values: np.ndarray) -> bytearray:
    """The file text: ``header`` (without its final newline), then each row of
    ``values`` on its own line as space-separated ``%.9g`` values, the bytes of
    ``"\\n".join(" ".join("%.9g" % v for v in row) for row in values)``. Rows are
    formatted a block of at most ``_FORMAT_VALUES`` values (at least one row) at a time."""
    rows, cols = values.shape
    out = bytearray(header.encode("ascii"))
    if cols == 0:
        out += b"\n" * (rows + 1)
        return out
    step = max(1, _FORMAT_VALUES // cols)
    newline = np.zeros((min(step, rows), cols), np.intp)
    newline[:, 0] = 5
    newline = newline.reshape(-1)
    buf = bytearray(20 * newline.size)  # the records, reused by every block
    rec = np.frombuffer(buf, np.uint32).reshape(-1, 5)
    for lo in range(0, rows, step):
        block = values[lo : lo + step].reshape(-1)
        _fill_records(block, newline[: block.size], rec[: block.size])
        out += (buf if block.size == newline.size else buf[: 20 * block.size]).translate(None, b"\0")
    out += b"\n"
    return out


def save_embeddings(e: EmbeddingSet, path) -> None:
    Path(path).write_bytes(_format_matrix(f"EMB v1\nn={e.n} dim={e.m}", e.values))


def save_views(v: ViewSet, path) -> None:
    Path(path).write_bytes(_format_matrix(f"VIEWS v1\nn={v.n} c={v.c} dim={v.m}", v.values))


def save_labels(lab: LabelSet, path) -> None:
    body = f"LAB v1\nn={lab.n} k={lab.k}\n" + "\n".join(map(str, lab.labels.tolist())) + "\n"
    Path(path).write_text(body, encoding="utf-8", newline="\n")

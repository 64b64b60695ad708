"""File formats, dataclass invariants, normalization and the shared row kernels."""

import ast
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from augoverlap import data
from augoverlap.data import (
    EmbeddingSet,
    LabelSet,
    PositivePairs,
    ViewSet,
    load_embeddings,
    load_labels,
    load_views,
    normalize,
    save_embeddings,
    save_labels,
    save_views,
    sq_distances,
    sq_norms,
    unit_rows,
)
from augoverlap.errors import DegenerateInputError, ParseError


class TestEmbeddingSet:
    def test_basic_properties(self):
        e = EmbeddingSet(np.ones((3, 2)))
        assert (e.n, e.m) == (3, 2)
        assert not e.normalized

    def test_values_frozen(self):
        e = EmbeddingSet(np.ones((2, 2)))
        with pytest.raises(ValueError):
            e.values[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((0, 2)), np.ones((2, 0))])
    def test_bad_shapes(self, bad):
        with pytest.raises(ValueError):
            EmbeddingSet(bad)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingSet(np.array([[1.0, np.nan]]))

    def test_normalized_flag_checked(self):
        with pytest.raises(ValueError, match="unit-norm"):
            EmbeddingSet(np.array([[2.0, 0.0]]), normalized=True)


class TestLabelSet:
    def test_basic(self):
        lab = LabelSet(np.array([0, 1, 2]), k=3)
        assert lab.n == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            LabelSet(np.array([0, 3]), k=3)
        with pytest.raises(ValueError, match="out of range"):
            LabelSet(np.array([-1]), k=3)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            LabelSet(np.array([0]), k=0)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            LabelSet(np.array([[0, 1]]), k=2)

    @pytest.mark.parametrize(
        "labels, text",
        [([0.5, 1.7], "label 0.5 at index 0"), ([1.0, np.nan], "label nan at index 1"), ([0, -np.inf], "label -inf at index 1")],
    )
    def test_non_integer_label_named(self, labels, text):
        """A label that is not an integer is named, not truncated or cast with a warning."""
        with pytest.raises(ValueError) as exc:
            LabelSet(np.array(labels), k=2)
        assert str(exc.value) == f"{text} is not an integer"

    @pytest.mark.parametrize("labels", [np.array([1.0, 0.0]), np.array([True, False])])
    def test_integer_valued_labels_accepted(self, labels):
        lab = LabelSet(labels, k=2)
        assert lab.labels.dtype == np.int64 and lab.labels.tolist() == [1, 0]


class TestViewSet:
    def test_views_of(self):
        v = ViewSet(np.arange(12.0).reshape(6, 2), n=3, c=2)
        assert np.array_equal(v.views_of(1), v.values[2:4])
        assert np.array_equal(v.views_of(2), v.values[4:6])
        for i in (3, 5, -1):  # once an empty (0, 2) slice
            with pytest.raises(IndexError, match=f"^anchor index {i} out of range for n=3$"):
                v.views_of(i)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="expected 6 rows"):
            ViewSet(np.ones((5, 2)), n=3, c=2)

    @pytest.mark.parametrize("n, c", [(0, 2), (2, 0)])
    def test_needs_an_anchor_and_a_view(self, n, c):
        with pytest.raises(ValueError, match=f"^{'n' if n == 0 else 'c'} must be >= 1, got 0$"):
            ViewSet(np.ones((0, 2)), n=n, c=c)


class TestPositivePairs:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatched shapes"):
            PositivePairs(EmbeddingSet(np.ones((2, 2))), EmbeddingSet(np.ones((3, 2))))

    def test_label_count_mismatch(self):
        left = EmbeddingSet(np.ones((2, 2)))
        with pytest.raises(ValueError, match="labels have n=3"):
            PositivePairs(left, left, LabelSet(np.array([0, 0, 0]), k=1), None)

    def test_labeled_property(self):
        left = EmbeddingSet(np.ones((2, 2)))
        lab = LabelSet(np.array([0, 1]), k=2)
        assert not PositivePairs(left, left).labeled
        assert not PositivePairs(left, left, lab, None).labeled
        assert PositivePairs(left, left, lab, lab).labeled


class TestNormalize:
    def test_normalize(self):
        e = normalize(EmbeddingSet(np.array([[3.0, 4.0]])))
        assert e.normalized
        np.testing.assert_allclose(e.values, [[0.6, 0.8]])

    def test_idempotent(self):
        e = normalize(EmbeddingSet(np.array([[3.0, 4.0]])))
        np.testing.assert_array_equal(normalize(e).values, e.values)

    def test_zero_row(self):
        with pytest.raises(DegenerateInputError, match="row 1"):
            normalize(EmbeddingSet(np.array([[1.0, 0.0], [0.0, 0.0]])))

    def test_normalize_views(self):
        v = normalize(ViewSet(np.array([[3.0, 4.0], [0.0, 2.0]]), n=2, c=1))
        assert isinstance(v, ViewSet) and (v.n, v.c) == (2, 1)
        assert v.normalized
        np.testing.assert_allclose(np.linalg.norm(v.values, axis=1), 1.0)


@settings(max_examples=200, deadline=None)
@given(
    rows_a=st.integers(1, 30),
    rows_b=st.integers(1, 30),
    dim=st.integers(1, 8),
    log_scale=st.floats(-3.0, 3.0),
    square=st.booleans(),
    shared=st.integers(0, 30),
    seed=st.integers(0, 2**31),
)
def test_sq_distances_match_cdist(rows_a, rows_b, dim, log_scale, square, shared, seed):
    rng = np.random.default_rng(seed)
    a = 10.0**log_scale * rng.standard_normal((rows_a, dim))
    b = 10.0**log_scale * rng.standard_normal((rows_b, dim))
    shared = min(shared, rows_a, rows_b)
    b[:shared] = a[:shared]  # coincident rows, whose expansion can round below 0
    other = a if square else b
    d2 = sq_distances(a) if square else sq_distances(a, b)
    assert d2.shape == (rows_a, other.shape[0])
    assert (d2 >= 0.0).all()
    tol = 1e-9 * (1.0 + np.sum(a**2, axis=1)[:, None] + np.sum(other**2, axis=1)[None, :])
    assert (np.abs(d2 - cdist(a, other, "sqeuclidean")) <= tol).all()


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 40),
    dim=st.integers(1, 3),
    log_scale=st.floats(-3.0, 3.0),
    decimals=st.sampled_from([None, 0, 1]),
    cut=st.integers(0, 40),
    seed=st.integers(0, 2**31),
)
def test_sq_distances_bits_do_not_depend_on_call_shape(rows, dim, log_scale, decimals, cut, seed):
    """Below the width cutoff a pair's value is the same in square,
    rectangular, single-row and row-slice calls, and symmetric."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, dim))
    if decimals is not None:
        a = np.round(a, decimals)  # ties and duplicate rows
    a *= 10.0**log_scale
    cut = min(cut, rows)
    full = sq_distances(a)
    assert np.array_equal(full, full.T)
    assert np.array_equal(sq_distances(a[:cut], a), full[:cut])
    assert np.array_equal(sq_distances(a, a[cut:]), full[:, cut:])
    assert np.array_equal(sq_distances(a[cut:], a[:cut]), full[cut:, :cut])
    assert np.array_equal(sq_distances(a[::2], a[1::3]), full[::2, 1::3])
    for i in range(rows):
        assert np.array_equal(sq_distances(a[i : i + 1], a), full[i : i + 1])



@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(193, 320),
    dim=st.integers(4, 64),
    log_scale=st.floats(-3.0, 3.0),
    decimals=st.sampled_from([None, 0, 1]),
    seed=st.integers(0, 2**31),
)
def test_sq_distances_square_form_is_symmetric(rows, dim, log_scale, decimals, seed):
    """Above the width cutoff the square form is exactly symmetric too; acr and
    gacr rely on it. A general product (2a) @ a.T rounds the two triangles
    differently once BLAS splits the rows into blocks (from 193 rows with
    OpenBLAS 0.3.31), hence the row range."""
    a = np.random.default_rng(seed).standard_normal((rows, dim))
    if decimals is not None:
        a = np.round(a, decimals)
    d2 = sq_distances(a * 10.0**log_scale)
    assert np.array_equal(d2, d2.T)


def _one_shot_sq_distances(a, b=None):
    """The kernel as one expression over the whole result, before row tiles."""
    b = a if b is None else b
    if a.shape[1] > 3:
        return np.maximum(np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :] - 2.0 * (a @ b.T), 0.0)
    out = np.zeros((a.shape[0], b.shape[0]))
    diff = np.empty_like(out)
    for k in range(a.shape[1]):
        out += np.square(np.subtract(a[:, k, None], b[None, :, k], out=diff), out=diff)
    return out


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 3, 4, 5, 64, 300]),
    square=st.booleans(),
    log_scale=st.floats(-3.0, 3.0),
    decimals=st.sampled_from([None, 0, 1]),
    seed=st.integers(0, 2**31),
)
def test_sq_distances_row_tiles_match_one_shot(dim, square, log_scale, decimals, seed):
    """Across row-tile boundaries the tiled kernel gives the one-shot bits, for
    both paths, both forms, rounded ties and duplicate rows."""
    rng = np.random.default_rng(seed)
    rows_a, rows_b = (400, 400) if square else (100, 1000)
    assert -(-rows_a // (data.TILE_VALUES // rows_b)) >= 3  # the call spans at least 3 row tiles
    a = rng.standard_normal((rows_a, dim))
    b = rng.standard_normal((rows_b, dim))
    if decimals is not None:
        a, b = np.round(a, decimals), np.round(b, decimals)
    a[rows_a // 2 :][:40] = a[:40]  # duplicate rows within a, in other tiles
    b[:40] = a[:40]
    a, b = a * 10.0**log_scale, b * 10.0**log_scale
    args = (a,) if square else (a, b)
    assert sq_distances(*args).tobytes() == _one_shot_sq_distances(*args).tobytes()


@pytest.mark.parametrize("rows, dim", [(2000, 3), (1000, 256)])
def test_sq_distances_memory_is_one_tile_beyond_the_result(rows, dim):
    """Beyond its result the kernel holds at most two tiles (the tile buffer and
    one tile of squared coordinates for the row norms) and O(rows) values; the
    one-shot expression held a second full-size array."""
    a = np.random.default_rng(0).standard_normal((rows, dim))
    tracemalloc.start()
    try:
        d2 = sq_distances(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= d2.nbytes + 2 * 8 * data.TILE_VALUES + 32 * rows, (peak, d2.nbytes)


@settings(max_examples=60, deadline=None)
@given(
    width=st.one_of(st.integers(1, 12), st.integers(13, 300)),
    tiles=st.integers(0, 3),
    last=st.one_of(st.integers(1, 2), st.integers(1, data.TILE_VALUES)),
    layout=st.sampled_from("CF"),
    log_scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**31),
)
@example(width=300, tiles=2, last=1, layout="F", log_scale=0.0, seed=0)  # the last tile holds one row
@example(width=300, tiles=0, last=1, layout="F", log_scale=0.0, seed=0)  # one row
def test_row_norm_kernel_matches_numpy_norm(width, tiles, last, layout, log_scale, seed):
    """sq_norms has the bits of numpy's norm reduction and unit_rows those of the
    division by numpy's norm, in C and F layouts, across row tiles, with and
    without scratch. numpy sums an F-ordered row one column at a time and a
    C-ordered row pairwise, which differ from width 8 on."""
    step = max(1, data.TILE_VALUES // width)  # rows per tile
    rows = tiles * step + min(last, step)
    x = np.asarray(10.0**log_scale * np.random.default_rng(seed).standard_normal((rows, width)), order=layout)
    expected = np.add.reduce(x * x, axis=1)  # what np.linalg.norm takes the root of
    assert np.array_equal(np.sqrt(expected), np.linalg.norm(x, axis=1))
    assert np.array_equal(sq_norms(x), expected)
    unit = unit_rows(x)
    assert np.array_equal(unit, x / np.linalg.norm(x, axis=1, keepdims=True))
    assert unit.flags.f_contiguous == x.flags.f_contiguous
    if layout == "C":
        out, scratch = np.empty(rows), np.empty(max(data.TILE_VALUES, width))
        assert sq_norms(x, out=out, scratch=scratch) is out
        assert np.array_equal(out, expected)


@pytest.mark.parametrize("layout", "CF")
def test_unit_rows_names_the_zero_row(layout):
    x = np.asarray(np.random.default_rng(0).standard_normal((5000, 16)), order=layout)
    x[4321] = 0.0  # in the third row tile
    with pytest.raises(DegenerateInputError, match="row 4321 has zero norm"):
        unit_rows(x)


@pytest.mark.parametrize("layout", "CF")
def test_unit_rows_scales_a_row_whose_squares_overflow(layout):
    """A finite row whose squared norm overflows is divided by its largest magnitude
    first, so it comes back unit-norm, not zero; other rows keep numpy's bits."""
    x = np.asarray(np.random.default_rng(0).standard_normal((5000, 16)), order=layout)
    x[4321] *= 1e200
    unit = unit_rows(x)
    with np.errstate(over="ignore"):  # numpy's norm of that row is inf
        expected = x / np.linalg.norm(x, axis=1, keepdims=True)
    rest = np.arange(5000) != 4321
    assert np.array_equal(unit[rest], expected[rest]) and not expected[4321].any()
    scaled = x[4321] / 1e200
    np.testing.assert_allclose(unit[4321], scaled / np.linalg.norm(scaled), rtol=1e-15, atol=0)


def test_narrow_sq_distances_saturate_at_inf():
    """Width <= 3: a squared distance beyond float range is inf, without a warning."""
    a = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1.0]])
    d2 = sq_distances(a)
    assert d2[0, 1] == d2[1, 0] == np.inf and d2[0, 2] == d2[2, 0] == np.inf
    assert d2[0, 0] == 0.0 and d2[2, 2] == 0.0


def test_wide_sq_distances_with_overflowing_norms_take_the_column_sum():
    """Width > 3 rows whose squared norms overflow give the width-3 result of the same
    rows padded with a zero column (inf and 0, never the expansion's NaN), with no
    warning; two huge rows 1 apart are exactly 1 apart squared."""
    a = np.array([[1e200, 0, 0, 0.0], [0, 1e200, 0, 0], [1.0, 0, 0, 0]])
    assert sq_distances(a).tobytes() == sq_distances(a[:, :3]).tobytes()
    assert sq_distances(a[:2], a).tobytes() == sq_distances(a[:2, :3], a[:, :3]).tobytes()
    huge = np.array([[1e200, 0, 0, 0.0], [1e200, 1, 0, 0]])
    assert sq_distances(huge).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def _peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rows, dim", [(20000, 64), (2000, 256)])
def test_normalize_memory_is_the_output_and_two_tiles(rows, dim):
    """normalize and the unit-norm check of its result hold the output, at most two
    tiles of squares, O(rows) norms and the finite check's boolean mask (one byte
    a value); a whole-matrix x * x would add 8 bytes a value."""
    e = EmbeddingSet(np.random.default_rng(0).standard_normal((rows, dim)))
    limit = e.values.size + 2 * 8 * data.TILE_VALUES + 32 * rows
    unit, peak = _peak_bytes(lambda: normalize(e))
    assert peak <= unit.values.nbytes + limit, (peak, unit.values.nbytes)
    values = unit.values.copy()
    _, peak = _peak_bytes(lambda: EmbeddingSet(values, normalized=True))
    assert peak <= limit, peak


def test_unit_norm_check_memory_is_two_tiles():
    """The normalized=True check holds at most two tiles and O(rows) values: the
    finite check runs a row tile at a time, with no n x m mask."""
    for rows, dim in [(20000, 64), (2000, 256)]:
        values = normalize(EmbeddingSet(np.random.default_rng(0).standard_normal((rows, dim)))).values.copy()
        _, peak = _peak_bytes(lambda: EmbeddingSet(values, normalized=True))
        assert peak <= 2 * 8 * data.TILE_VALUES + 32 * rows, (rows, dim, peak)


def test_checked_matrix_freezes_a_c_contiguous_float64_input():
    """A C-contiguous float64 matrix is taken as it is, not copied, and the
    caller's array becomes read-only; any other layout or dtype is copied."""
    x = np.ones((3, 2))
    e = EmbeddingSet(x)
    assert np.shares_memory(e.values, x) and not x.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        x[0, 0] = 2.0
    for other in (np.asfortranarray(np.ones((3, 2))), np.ones((3, 2), dtype=np.float32)):
        got = data.checked_matrix(other, "test", normalized=False)
        assert not np.shares_memory(got, other) and got.flags.c_contiguous and other.flags.writeable


def test_checked_matrix_names_the_input():
    with pytest.raises(ValueError, match="^view matrix contains non-finite values$"):
        ViewSet(np.array([[0.0], [np.inf]]), n=2, c=1)
    with pytest.raises(ValueError, match="^class center rows must be unit vectors: row 1 has norm 2, not unit-norm$"):
        data.checked_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]), "class center", normalized=True)


def test_library_has_one_row_norm():
    """Every row norm goes through data.sq_norms, so no module calls numpy's norm."""
    for path in sorted(Path(data.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                assert not ast.unparse(node).endswith("linalg.norm"), f"{path.name}:{node.lineno}"
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                assert "norm" not in [alias.name for alias in node.names], f"{path.name}:{node.lineno}"


def test_library_has_one_check_per_invariant():
    """Only data reads the ``normalized`` and ``labeled`` flags; every other module
    calls data.require_normalized and data.require_labels."""
    for path in sorted(Path(data.__file__).parent.glob("*.py")):
        if path.name == "data.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("normalized", "labeled"):
                assert not isinstance(node.ctx, ast.Load), f"{path.name}:{node.lineno} reads .{node.attr}"


def test_writer_matches_per_value_format(tmp_path):
    values = np.array(
        [
            [-0.0, 0.0, 1e-300, 5e-324, -5e-324],
            [1.0 / 3.0, -2.5e10, 123456789.123, 1e-5, -1.7976931348623157e308],
        ]
    )
    body = "\n".join(" ".join("%.9g" % v for v in row) for row in values)
    save_embeddings(EmbeddingSet(values), tmp_path / "e.emb")
    text = (tmp_path / "e.emb").read_text(encoding="utf-8")
    assert text == f"EMB v1\nn=2 dim=5\n{body}\n"
    assert text.split("\n")[2].split() == ["-0", "0", "1e-300", "4.94065646e-324", "-4.94065646e-324"]


def _per_value_text(values):
    """Reference for the EMB and VIEWS data rows: one ``%`` call per value."""
    return "\n".join(" ".join("%.9g" % v for v in row) for row in values)


_FINITE_BITS = st.integers(0, 2**64 - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF)
_SIGNIFICANDS = st.integers(10**8, 10**9 - 1)
_ELEMENTS = st.one_of(
    _FINITE_BITS.map(lambda b: float(np.uint64(b).view(np.float64))),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda d, j, s: s * d / 10.0**j, _SIGNIFICANDS, st.integers(-2, 14), st.sampled_from([1, -1])),
    # the double nearest a decimal tie at the 9th digit
    st.builds(lambda d, j, s: s * (10 * d + 5) / 10.0**j, _SIGNIFICANDS, st.integers(-1, 15), st.sampled_from([1, -1])),
)


@st.composite
def _writer_inputs(draw):
    c = draw(st.sampled_from([None, 1, 3]))  # None writes EMB, else VIEWS with c views
    rows = draw(st.integers(1, 6)) * (c or 1)
    cols = draw(st.integers(1, 6))
    values = np.array(draw(st.lists(_ELEMENTS, min_size=rows * cols, max_size=rows * cols)), dtype=np.float64)
    return values.reshape(rows, cols), c


@settings(max_examples=300, deadline=None)
@given(inputs=_writer_inputs(), block=st.sampled_from([1, 2, 5, 1 << 14]))
@example(inputs=(np.array([[123456789.5, 12345678.25, 1234567.125, 0.0001220703125, -98765432.5]]), None), block=1 << 14)
@example(inputs=(np.array([[9.9999999995, 999999999.5, 999999999.75, 0.000099999999995, -99999.99999999]]), None), block=1 << 14)
@example(inputs=(np.array([[-0.0, 0.0, 5e-324, -2.225073858507201e-308, 2.2250738585072014e-308]]), None), block=1 << 14)
@example(inputs=(np.array([[1.0 / 3.0]]), None), block=1 << 14)
# one row past the first block
@example(inputs=(np.random.default_rng(0).standard_normal(((1 << 14) // 256 + 1, 256)), None), block=1 << 14)
def test_writers_match_per_value_reference(tmp_path_factory, inputs, block):
    """save_embeddings and save_views write the bytes of one ``%.9g`` per value
    (ties at the 9th digit, carries into a new digit, signed zeros, subnormals,
    scientific notation) for any block size."""
    values, c = inputs
    path = tmp_path_factory.mktemp("write") / "x.txt"
    with mock.patch.object(data, "_FORMAT_VALUES", block):
        if c is None:
            save_embeddings(EmbeddingSet(values), path)
            header = f"EMB v1\nn={values.shape[0]} dim={values.shape[1]}"
        else:
            save_views(ViewSet(values, n=values.shape[0] // c, c=c), path)
            header = f"VIEWS v1\nn={values.shape[0] // c} c={c} dim={values.shape[1]}"
    assert path.read_bytes() == f"{header}\n{_per_value_text(values)}\n".encode("ascii")


def test_writer_memory_is_one_block_beyond_the_output():
    """Beyond its output the formatter holds one block's temporaries (the 20-byte
    records, the block's text and about a dozen 8-byte arrays per value), not a
    temporary per value of the whole matrix."""
    values = np.random.default_rng(0).standard_normal((2000, 256))
    tracemalloc.start()
    try:
        out = data._format_matrix("EMB v1\nn=2000 dim=256", values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sys.getsizeof(out) + 200 * data._FORMAT_VALUES, (peak, sys.getsizeof(out))


class TestRoundTrip:
    def test_embeddings(self, tmp_path, rng):
        e = EmbeddingSet(rng.standard_normal((5, 3)))
        p = tmp_path / "a.emb"
        save_embeddings(e, p)
        loaded = load_embeddings(p)
        np.testing.assert_allclose(loaded.values, e.values, rtol=1e-8)

    def test_canonical_files_bitstable(self, tmp_path, rng):
        e = EmbeddingSet(rng.standard_normal((4, 2)))
        p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
        save_embeddings(e, p1)
        save_embeddings(load_embeddings(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_views(self, tmp_path, rng):
        v = ViewSet(rng.standard_normal((6, 2)), n=3, c=2)
        p = tmp_path / "a.views"
        save_views(v, p)
        loaded = load_views(p)
        assert (loaded.n, loaded.c, loaded.m) == (3, 2, 2)
        np.testing.assert_allclose(loaded.values, v.values, rtol=1e-8)

    def test_labels(self, tmp_path):
        lab = LabelSet(np.array([0, 2, 1]), k=3)
        p = tmp_path / "a.lab"
        save_labels(lab, p)
        loaded = load_labels(p)
        assert loaded.k == 3
        np.testing.assert_array_equal(loaded.labels, lab.labels)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=64), min_size=2, max_size=2),
            min_size=1,
            max_size=5,
        )
    )
    def test_roundtrip_property(self, tmp_path_factory, rows):
        e = EmbeddingSet(np.array(rows))
        p = tmp_path_factory.mktemp("rt") / "x.emb"
        save_embeddings(e, p)
        np.testing.assert_allclose(load_embeddings(p).values, e.values, rtol=1e-8, atol=1e-12)


class TestParseErrors:
    def _write(self, tmp_path, text):
        p = tmp_path / "bad.emb"
        p.write_text(text, encoding="utf-8")
        return p

    def test_missing_magic(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            load_embeddings(self._write(tmp_path, "WRONG\nn=1 dim=1\n0\n"))

    def test_malformed_header(self, tmp_path):
        with pytest.raises(ParseError, match="malformed header"):
            load_embeddings(self._write(tmp_path, "EMB v1\nn=x dim=1\n0\n"))

    def test_too_few_rows(self, tmp_path):
        with pytest.raises(ParseError, match="expected 2 data rows"):
            load_embeddings(self._write(tmp_path, "EMB v1\nn=2 dim=1\n0\n"))

    def test_trailing_rows(self, tmp_path):
        with pytest.raises(ParseError, match="trailing data"):
            load_embeddings(self._write(tmp_path, "EMB v1\nn=1 dim=1\n0\n1\n"))

    def test_wrong_column_count(self, tmp_path):
        with pytest.raises(ParseError, match="expected 2 values"):
            load_embeddings(self._write(tmp_path, "EMB v1\nn=1 dim=2\n0\n"))

    def test_bad_float(self, tmp_path):
        with pytest.raises(ParseError, match="line 3"):
            load_embeddings(self._write(tmp_path, "EMB v1\nn=1 dim=1\nabc\n"))

    def test_non_finite_value(self, tmp_path):
        with pytest.raises(ParseError, match="non-finite"):
            load_embeddings(self._write(tmp_path, "EMB v1\nn=1 dim=1\nnan\n"))

    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "bad.lab"
        p.write_text("LAB v1\nn=1 k=2\n2\n", encoding="utf-8")
        with pytest.raises(ParseError, match="out of range"):
            load_labels(p)

    def test_label_beyond_int64(self, tmp_path):
        p = tmp_path / "bad.lab"
        p.write_text("LAB v1\nn=3 k=3\n0\n99999999999999999999\n1\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_labels(p)
        assert str(exc.value) == f"{p}: line 4: label 99999999999999999999 out of range [0, 3)"

    def test_malformed_header_names_file(self, tmp_path):
        p = self._write(tmp_path, "EMB v1\nn=1\n0\n")
        with pytest.raises(ParseError) as exc:
            load_embeddings(p)
        assert str(exc.value) == f"{p}: line 2: malformed header 'n=1'"

    def test_label_not_integer(self, tmp_path):
        p = tmp_path / "bad.lab"
        p.write_text("LAB v1\nn=1 k=2\n1.5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="expected an integer"):
            load_labels(p)

    def test_views_header(self, tmp_path):
        p = tmp_path / "bad.views"
        p.write_text("VIEWS v1\nn=2 dim=1\n0\n0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="malformed header"):
            load_views(p)

    @pytest.mark.parametrize(
        "name, text, field",
        [
            ("x.emb", "EMB v1\nn=0 dim=3\n", "n"),
            ("x.emb", "EMB v1\nn=1 dim=0\n\n", "dim"),
            ("x.views", "VIEWS v1\nn=0 c=2 dim=3\n", "n"),
            ("x.views", "VIEWS v1\nn=2 c=0 dim=3\n", "c"),
            ("x.views", "VIEWS v1\nn=1 c=2 dim=0\n\n\n", "dim"),
            ("x.lab", "LAB v1\nn=0 k=2\n", "n"),
        ],
    )
    def test_empty_header_names_the_file(self, tmp_path, name, text, field):
        """A header that declares no rows or no columns is a ParseError naming the
        file and line 2, not a constructor error."""
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        loader = {".emb": load_embeddings, ".views": load_views, ".lab": load_labels}[p.suffix]
        with pytest.raises(ParseError) as exc:
            loader(p)
        assert str(exc.value) == f"{p}: line 2: {field} must be >= 1, got 0"

    def test_parse_error_is_value_error(self):
        assert issubclass(ParseError, ValueError)


def _per_row_matrix(lines, rows, cols, path):
    """Reference for EMB and VIEWS rows: the per-value parser that loadtxt replaced."""
    if len(lines) - 2 < rows:
        raise ParseError(f"{path}: line {len(lines) + 1}: expected {rows} data rows, found {len(lines) - 2}")
    if len(lines) - 2 > rows:
        raise ParseError(f"{path}: line {rows + 3}: trailing data beyond declared {rows} rows")
    out = np.empty((rows, cols), dtype=np.float64)
    for r in range(rows):
        lineno = r + 3
        fields = lines[r + 2].split()
        if len(fields) != cols:
            raise ParseError(f"{path}: line {lineno}: expected {cols} values, found {len(fields)}")
        try:
            row = np.array([float(f) for f in fields])
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        if not np.all(np.isfinite(row)):
            raise ParseError(f"{path}: line {lineno}: non-finite value")
        out[r] = row
    return out


def _per_row_labels(lines, n, k, path):
    """Reference for LAB rows: the per-label loop, comparing as a Python int so
    that a label beyond int64 is out of range."""
    if len(lines) - 2 != n:
        raise ParseError(f"{path}: line {len(lines) + 1}: expected {n} label rows, found {len(lines) - 2}")
    labels = np.empty(n, dtype=np.int64)
    for r in range(n):
        lineno = r + 3
        field = lines[r + 2].strip()
        try:
            label = int(field)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: expected an integer, got {field!r}") from None
        if not 0 <= label < k:
            raise ParseError(f"{path}: line {lineno}: label {label} out of range [0, {k})")
        labels[r] = label
    return labels


def _reference_load(kind, path):
    if kind == "lab":
        lines, (n, k) = data._read_file(path, "LAB v1", "n k")
        return _per_row_labels(lines, n, k, path)
    if kind == "emb":
        lines, (n, m) = data._read_file(path, "EMB v1", "n dim")
        return _per_row_matrix(lines, n, m, path)
    lines, (n, c, m) = data._read_file(path, "VIEWS v1", "n c dim")
    return _per_row_matrix(lines, n * c, m, path)


LOADERS = {
    "emb": lambda p: load_embeddings(p).values,
    "views": lambda p: load_views(p).values,
    "lab": lambda p: load_labels(p).labels,
}
# tokens a mutation writes over one value: malformed, non-finite, valid in
# spellings a writer never emits, and labels that are not integers or out of range
TOKENS = [
    *["abc", "1.2.3", "0x1p3", "--1", "1__0", "_1", "1_", "1e", ".", "1,5", "\u00b9", "1.5"],
    *["nan", "inf", "-inf", "1e999", "-Infinity", "NaN"],
    *["1_0", "+.5", "5.", "1e-400", "4.9e-324", "\u0661", "-0", "00", "1.0000000000000002"],
    *["-1", "3", "99999999999999999999", "-99999999999999999999", "1e3"],
]
MUTATIONS = ["drop", "extra", "replace", "missing", "trailing", "spaces", "crlf", "separator"]
# characters that join a row's fields: Python's whitespace beyond the space, which
# str.split splits on, and lookalikes that it does not split on
SEPARATORS = [
    *["\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2000", "\u2028", "\u3000"],
    *["\u200b", "\ufeff"],
]


def _mutate(lines, op, row, field, token, separator):
    """Apply one mutation to the data rows (lines[2:]) of a file."""
    if len(lines) == 2:
        return
    r = 2 + row % (len(lines) - 2)
    fields = lines[r].split(" ")
    f = field % len(fields)
    if op == "drop":
        del fields[f]
    elif op == "extra":
        fields.insert(f, token)
    elif op == "replace":
        fields[f] = token
    elif op == "missing":
        del lines[r]
        return
    elif op == "trailing":
        lines.append(lines[r])
        return
    elif op == "spaces":
        fields[-1] += "  "
    elif op == "crlf":
        fields[-1] += "\r"
    lines[r] = (separator if op == "separator" else " ").join(fields)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(LOADERS)),
    n=st.integers(1, 12),
    c=st.integers(1, 3),
    m=st.integers(1, 5),
    k=st.integers(1, 4),
    special=st.floats(allow_nan=False, allow_infinity=False),
    mutations=st.lists(
        st.tuples(
            st.sampled_from(MUTATIONS),
            st.integers(0, 40),
            st.integers(0, 5),
            st.sampled_from(TOKENS),
            st.sampled_from(SEPARATORS),
        ),
        max_size=3,
    ),
    crlf_file=st.booleans(),
    seed=st.integers(0, 2**31),
)
# every data row blank, which loadtxt would warn about
@example(kind="lab", n=1, c=1, m=1, k=2, special=0.0, mutations=[("drop", 0, 0, "1", " ")], crlf_file=False, seed=0)
@example(kind="views", n=1, c=1, m=1, k=1, special=0.0, mutations=[("drop", 0, 0, "1", " "), ("spaces", 0, 0, "1", " ")], crlf_file=True, seed=0)
def test_block_parse_matches_per_row_reference(tmp_path_factory, kind, n, c, m, k, special, mutations, crlf_file, seed):
    """On canonical and mutated files, fields joined by any whitespace or lookalike
    included, the loaders return the per-row reference's bits or raise its
    ParseError text."""
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("parse") / f"x.{kind}"
    if kind == "lab":
        save_labels(LabelSet(rng.integers(0, k, size=n), k=k), path)
    else:
        values = rng.standard_normal((n * c, m)) * 10.0 ** rng.integers(-300, 300, size=(n * c, m))
        values.flat[rng.integers(values.size)] = special
        values.flat[rng.integers(values.size)] = -0.0
        if kind == "emb":
            save_embeddings(EmbeddingSet(values), path)
        else:
            save_views(ViewSet(values, n=n, c=c), path)
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    for mutation in mutations:
        _mutate(lines, *mutation)
    path.write_bytes(("\r\n" if crlf_file else "\n").join([*lines, ""]).encode("utf-8"))
    _assert_loads_like_reference(kind, path)


@pytest.mark.parametrize("separator", SEPARATORS)
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_each_separator_matches_per_row_reference(tmp_path, kind, separator):
    """The middle row's fields joined by each separator (a LAB row gets a second
    field): the loaders give the per-row reference's bits or its ParseError text."""
    path = tmp_path / f"x.{kind}"
    values = np.random.default_rng(0).standard_normal((3, 4))
    if kind == "lab":
        save_labels(LabelSet(np.array([0, 1, 1]), k=2), path)
    elif kind == "emb":
        save_embeddings(EmbeddingSet(values), path)
    else:
        save_views(ViewSet(values, n=1, c=3), path)
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    if kind == "lab":
        _mutate(lines, "extra", 1, 0, "1", separator)
    _mutate(lines, "separator", 1, 0, "1", separator)
    path.write_text("\n".join([*lines, ""]), encoding="utf-8")
    _assert_loads_like_reference(kind, path)


def _assert_loads_like_reference(kind, path):
    try:
        expected = _reference_load(kind, path)
    except ParseError as exc:
        expected = exc
    if isinstance(expected, ParseError):
        with pytest.raises(ParseError) as exc:
            LOADERS[kind](path)
        assert str(exc.value) == str(expected)
    else:
        got = LOADERS[kind](path)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_loader_memory_is_bounded(tmp_path):
    """A large EMB file loads within a small multiple of its text plus the
    output array: tokens are converted a bounded block at a time."""
    path = tmp_path / "big.emb"
    save_embeddings(EmbeddingSet(np.random.default_rng(0).standard_normal((3000, 256))), path)
    text_bytes = path.stat().st_size
    tracemalloc.start()
    try:
        values = load_embeddings(path).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (values.nbytes + text_bytes), (peak, values.nbytes, text_bytes)

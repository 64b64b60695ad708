"""Confusion ratios, relative variants, Pearson correlation and the CI-ratio."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from augoverlap import metrics, synth
from augoverlap.data import TILE_VALUES, ViewSet, sq_distances, sq_norms
from augoverlap.errors import UndefinedMetricError
from augoverlap.metrics import STATS, MetricConfig, acr, arc, ci_ratio, confusion_ratios, gacr, garc, pearson


def _views(arr, n, c):
    return ViewSet(np.asarray(arr, dtype=float), n=n, c=c)


def _gacr_loop(views, cfg):
    """Per-view reference for gacr: one sibling statistic, one foreign
    statistic per other anchor and one partition per view."""
    n, c = views.n, views.c
    stat1, stat2 = STATS[cfg.a1], STATS[cfg.a2]
    d2 = sq_distances(views.values).reshape(n, c, n, c)
    confused = 0
    for i in range(n):
        for j in range(c):
            d_in = stat1(np.delete(d2[i, j, i], j))
            per_anchor = stat2(np.delete(d2[i, j], i, axis=0), axis=1)
            kth = np.partition(per_anchor, cfg.k - 1)[cfg.k - 1]
            confused += kth <= d_in
    return confused / (n * c)


def _acr_full_matrix(views):
    """Full-matrix reference for acr: unsquared distances with the own anchor's
    block masked out of the foreign minimum and into the sibling maximum."""
    n, c = views.n, views.c
    dist = np.sqrt(sq_distances(views.values))
    anchor_of = np.repeat(np.arange(n), c)
    same = anchor_of[:, None] == anchor_of[None, :]
    d_in = np.where(same, dist, -np.inf).max(axis=1)
    d_out = np.where(same, np.inf, dist).min(axis=1)
    return float(np.mean(d_out <= d_in))


def _confusions_full_matrix(views, cfgs):
    """The untiled confusion core, kept as the reference: the whole (n, c, n, c)
    distance matrix from one square call and an (n, n, c) reduction of it per a2."""
    n, c = views.n, views.c
    d4 = sq_distances(views.values).reshape(n, c, n, c)
    anchors = np.arange(n)
    siblings = d4[anchors, :, anchors][:, ~np.eye(c, dtype=bool)].reshape(n, c, c - 1)
    out = [None] * len(cfgs)
    for a2 in dict.fromkeys(cfg.a2 for cfg in cfgs):
        foreign = STATS[a2](d4, axis=1)  # (n_j, n_i, c)
        foreign[anchors, anchors] = np.inf
        for i, cfg in enumerate(cfgs):
            if cfg.a2 == a2:
                kth = foreign.min(axis=0) if cfg.k == 1 else np.partition(foreign, cfg.k - 1, axis=0)[cfg.k - 1]
                out[i] = kth, STATS[cfg.a1](siblings, axis=-1)
    return out


def _all_configs(n):
    return [MetricConfig(a1, a2, k) for a1 in STATS for a2 in STATS for k in sorted({1, min(2, n - 1), n - 1})]


# values per tile that force one anchor per tile, a few anchors per tile, and the module's own
SMALL_TILES = [1, 16, 100, TILE_VALUES]

# A tile pair off the diagonal is a general product and the diagonal tile a smaller
# symmetric one, so on rows wider than 3 a squared distance may move by a few ulp
# of the squared norms from the whole matrix's symmetric product; the tolerance,
# relative to the largest squared row norm, allows 2^9 ulp of it.
RELATIVE_ATOL = 2.0**-43


class TestMetricConfig:
    def test_defaults(self):
        cfg = MetricConfig()
        assert (cfg.a1, cfg.a2, cfg.k) == ("max", "min", 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="statistics"):
            MetricConfig(a1="sum")
        with pytest.raises(ValueError, match="k must be"):
            MetricConfig(k=0)


class TestAcr:
    def test_no_confusion(self, small_views):
        assert acr(small_views) == 0.0

    def test_full_confusion(self):
        # foreign views closer than the sibling: every view is confused
        v = _views([[0.0, 0.0], [10.0, 0.0], [0.1, 0.0], [10.1, 0.0]], n=2, c=2)
        assert acr(v) == 1.0

    def test_tie_counts_as_confused(self):
        # the two middle views are exactly as far from their sibling as from the
        # nearest foreign view; the tie counts, so they are confused
        v = _views([[0.0], [1.0], [2.0], [3.0]], n=2, c=2)
        assert acr(v) == pytest.approx(0.5)

    def test_partial(self):
        # anchor 1's second view sits near anchor 0's views: it and anchor 0's
        # second view are confused, the two outer views are not
        v = _views([[0.0], [0.1], [5.0], [0.2]], n=2, c=2)
        assert acr(v) == pytest.approx(0.5)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 9),
        c=st.integers(2, 6),
        m=st.integers(1, 16),
        decimals=st.sampled_from([None, 0, 1]),
        seed=st.integers(0, 2**31),
    )
    def test_matches_full_matrix_reference(self, n, c, m, decimals, seed):
        # rounding to a grid makes many distances tie exactly
        values = np.random.default_rng(seed).standard_normal((n * c, m)) * 2.0
        if decimals is not None:
            values = np.round(values, decimals)
        v = ViewSet(values, n=n, c=c)
        assert acr(v) == _acr_full_matrix(v)

    def test_validation(self):
        with pytest.raises(ValueError, match="2 anchors"):
            acr(_views([[0.0], [1.0]], n=1, c=2))
        with pytest.raises(ValueError, match="2 views"):
            acr(_views([[0.0], [1.0]], n=2, c=1))


class TestConfusionTiles:
    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(2, 12),
        c=st.integers(2, 10),
        m=st.integers(1, 40),
        tile_values=st.sampled_from(SMALL_TILES),
        seed=st.integers(0, 2**31),
    )
    @example(n=5, c=9, m=2, tile_values=1, seed=0)  # a mean over 8 siblings and 9 foreign views, 1-anchor tiles
    @example(n=12, c=3, m=64, tile_values=16, seed=1)  # wide integer rows, 2-anchor tiles
    def test_tiles_match_full_matrix_bits(self, n, c, m, tile_values, seed):
        """Width <= 3 sums each distance one coordinate at a time, and integer-valued
        rows have exact products in any order, so there every tile layout gives the
        full matrix's bits for every (a1, a2, k)."""
        values = np.random.default_rng(seed).standard_normal((n * c, m)) * 3.0
        if m > 3:
            values = np.round(values)
        v = ViewSet(values, n=n, c=c)
        cfgs = _all_configs(n)
        with mock.patch.object(metrics, "TILE_VALUES", tile_values):
            got = metrics._confusions(v, cfgs)
        for cfg, (kth, d_in), (ref_kth, ref_d_in) in zip(cfgs, got, _confusions_full_matrix(v, cfgs)):
            np.testing.assert_array_equal(kth, ref_kth, err_msg=str(cfg))
            np.testing.assert_array_equal(d_in, ref_d_in, err_msg=str(cfg))

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 12),
        c=st.integers(2, 8),
        m=st.integers(4, 64),
        unit=st.booleans(),
        tile_values=st.sampled_from(SMALL_TILES),
        seed=st.integers(0, 2**31),
    )
    def test_wide_float_tiles_within_tolerance(self, n, c, m, unit, tile_values, seed):
        """On wide float rows each statistic stays within the stated tolerance of the
        full matrix's, so a view's confusion can only flip where its two statistics
        lie within twice the tolerance of each other, in ACR and in GACR alike."""
        values = np.random.default_rng(seed).standard_normal((n * c, m))
        if unit:
            values /= np.sqrt(sq_norms(values))[:, None]
        v = ViewSet(values, n=n, c=c)
        atol = RELATIVE_ATOL * float(sq_norms(values).max())
        cfgs = _all_configs(n)
        with mock.patch.object(metrics, "TILE_VALUES", tile_values):
            got = metrics._confusions(v, cfgs)
        for cfg, (kth, d_in), (ref_kth, ref_d_in) in zip(cfgs, got, _confusions_full_matrix(v, cfgs)):
            np.testing.assert_allclose(kth, ref_kth, rtol=0, atol=atol, err_msg=str(cfg))
            np.testing.assert_allclose(d_in, ref_d_in, rtol=0, atol=atol, err_msg=str(cfg))
            near_tie = np.abs(ref_kth - ref_d_in) <= 2 * atol
            assert not np.any(((kth <= d_in) != (ref_kth <= ref_d_in)) & ~near_tie), cfg
            flipped = (np.sqrt(kth) <= np.sqrt(d_in)) != (np.sqrt(ref_kth) <= np.sqrt(ref_d_in))
            assert not np.any(flipped & ~near_tie), cfg

    def test_each_distance_computed_once(self, monkeypatch):
        """With one anchor per tile, the n (n + 1) / 2 tile pairs' calls together
        cover every pair of views exactly once: the square calls their upper
        triangle and the rectangular calls every entry."""
        n, c = 7, 3
        v = ViewSet(np.random.default_rng(0).standard_normal((n * c, 5)), n=n, c=c)
        covered = np.zeros((n * c, n * c), dtype=int)
        calls = []

        def first_row(x):
            return (x.ctypes.data - v.values.ctypes.data) // v.values.strides[0]

        def counting(a, b=None):
            calls.append(b is None)
            ra = np.arange(len(a)) + first_row(a)
            if b is None:
                covered[np.ix_(ra, ra)] += np.triu(np.ones((len(a), len(a)), dtype=int))
            else:
                covered[np.ix_(ra, np.arange(len(b)) + first_row(b))] += 1
            return sq_distances(a, b)

        monkeypatch.setattr(metrics, "TILE_VALUES", 1)
        monkeypatch.setattr(metrics, "sq_distances", counting)
        metrics.confusion_ratios(v, _all_configs(n))
        assert len(calls) == n * (n + 1) // 2 and sum(calls) == n
        np.testing.assert_array_equal(covered, np.triu(np.ones_like(covered)))

    def test_peak_memory_is_bounded_by_the_tiles(self):
        """acr on 1000 anchors of 5 wide views holds tiles of about 1 MB, where the
        whole (n c)^2 matrix and its (n, n, c) reduction held about 240 MB."""
        v = ViewSet(np.random.default_rng(0).standard_normal((5000, 256)), n=1000, c=5)
        tracemalloc.start()
        try:
            acr(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak


class TestArc:
    def test_formula(self):
        assert arc(0.2, 0.6) == pytest.approx(2.0)
        assert arc(0.6, 0.2) == pytest.approx(0.5)

    def test_undefined_at_full_initial_confusion(self):
        with pytest.raises(UndefinedMetricError):
            arc(0.5, 1.0)


class TestGacr:
    def test_equals_acr_exhaustively(self, rng):
        for n in (2, 3, 4):
            for c in (2, 3):
                for m in (1, 2, 3):
                    for _ in range(5):
                        v = ViewSet(rng.standard_normal((n * c, m)), n=n, c=c)
                        assert gacr(v, MetricConfig("max", "min", 1)) == pytest.approx(acr(v))

    def test_min_min_is_most_lenient(self, rng):
        v = ViewSet(rng.standard_normal((12, 2)), n=4, c=3)
        strict = gacr(v, MetricConfig("max", "min", 1))
        lenient = gacr(v, MetricConfig("min", "min", 1))
        assert lenient <= strict

    def test_larger_k_reduces_confusion(self, rng):
        v = ViewSet(rng.standard_normal((20, 2)), n=5, c=4)
        assert gacr(v, MetricConfig("max", "min", 3)) <= gacr(v, MetricConfig("max", "min", 1))

    def test_k_bound_checked(self):
        v = _views([[0.0], [1.0], [2.0], [3.0]], n=2, c=2)
        with pytest.raises(ValueError, match="k=2 exceeds"):
            gacr(v, MetricConfig("max", "min", 2))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 7),
        c=st.integers(2, 5),
        m=st.integers(1, 16),
        decimals=st.sampled_from([None, 0, 1]),
        seed=st.integers(0, 2**31),
    )
    def test_matches_loop_reference(self, n, c, m, decimals, seed):
        # rounding to a grid makes many distances tie exactly
        values = np.random.default_rng(seed).standard_normal((n * c, m)) * 2.0
        if decimals is not None:
            values = np.round(values, decimals)
        v = ViewSet(values, n=n, c=c)
        for a1 in STATS:
            for a2 in STATS:
                for k in sorted({1, min(2, n - 1), n - 1}):
                    cfg = MetricConfig(a1, a2, k)
                    assert gacr(v, cfg) == _gacr_loop(v, cfg), cfg

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 7),
        c=st.integers(2, 5),
        m=st.integers(1, 16),
        decimals=st.sampled_from([None, 0, 1]),
        seed=st.integers(0, 2**31),
    )
    def test_confusion_ratios_match_single_calls(self, n, c, m, decimals, seed):
        """One matrix reduced for every config gives the bits of separate calls."""
        values = np.random.default_rng(seed).standard_normal((n * c, m))
        if decimals is not None:
            values = np.round(values, decimals)
        v = ViewSet(values, n=n, c=c)
        cfgs = [MetricConfig(a1, a2, k) for a1 in STATS for a2 in STATS for k in sorted({1, n - 1})]
        acr_value, gacr_values = confusion_ratios(v, cfgs)
        assert acr_value == acr(v)
        assert gacr_values == [gacr(v, cfg) for cfg in cfgs]

    def test_median_statistic(self, rng):
        v = ViewSet(rng.standard_normal((12, 2)), n=3, c=4)
        value = gacr(v, MetricConfig("median", "median", 1))
        assert 0.0 <= value <= 1.0


class TestGarc:
    def test_matches_arc_for_default_config(self, rng):
        # clustered views keep the initial confusion below 1 so ARC is defined
        centers = np.repeat(np.arange(4.0)[:, None] * 10.0, 3, axis=0) + np.zeros((12, 2))
        final = ViewSet(centers + 0.1 * rng.standard_normal((12, 2)), n=4, c=3)
        init = ViewSet(centers + 3.0 * rng.standard_normal((12, 2)), n=4, c=3)
        expected = arc(acr(final), acr(init))
        assert garc(final, init, MetricConfig("max", "min", 1)) == pytest.approx(expected)

    def test_undefined_when_init_saturated(self):
        confused = _views([[0.0], [10.0], [0.1], [10.1]], n=2, c=2)
        clean = _views([[0.0], [0.1], [10.0], [10.1]], n=2, c=2)
        with pytest.raises(UndefinedMetricError):
            garc(clean, confused)


class TestPearson:
    def test_exact_correlations(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2.0, 4.0, 6.0, 8.0]) == pytest.approx(1.0)
        assert pearson(x, [8.0, 6.0, 4.0, 2.0]) == pytest.approx(-1.0)

    def test_zero_variance(self):
        with pytest.raises(UndefinedMetricError):
            pearson([1.0, 1.0], [1.0, 2.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pearson([1.0], [1.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=10),
        st.integers(0, 2**31),
    )
    def test_bounded(self, xs, seed):
        rng = np.random.default_rng(seed)
        ys = rng.standard_normal(len(xs))
        x = np.asarray(xs)
        try:
            value = pearson(x, ys)
        except UndefinedMetricError:
            return  # constant (or denormal-only) input, nothing to bound
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


class TestCiRatio:
    def test_ci_pairs_near_one(self):
        ratio = ci_ratio(synth.ci_pairs(600, 3, 16, seed=0))
        assert 0.9 < ratio < 1.1

    def test_dependent_pairs_large(self):
        ratio = ci_ratio(synth.dependent_pairs(600, 3, 16, seed=0))
        assert ratio > 1.5

    def test_requires_labels(self):
        pairs = synth.ci_pairs(60, 3, 8, seed=0)
        from augoverlap.data import PositivePairs

        unlabeled = PositivePairs(pairs.left, pairs.right)
        with pytest.raises(ValueError, match="labels"):
            ci_ratio(unlabeled)

    def test_requires_normalized(self):
        from augoverlap.data import EmbeddingSet, LabelSet, PositivePairs

        raw = EmbeddingSet(np.ones((4, 2)))
        lab = LabelSet(np.array([0, 0, 1, 1]), k=2)
        with pytest.raises(ValueError, match="normalized"):
            ci_ratio(PositivePairs(raw, raw, lab, lab))

    def test_class_too_small(self):
        from augoverlap.data import EmbeddingSet, LabelSet, PositivePairs

        e = EmbeddingSet(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]), normalized=True)
        lab = LabelSet(np.array([0, 1, 1]), k=2)
        with pytest.raises(UndefinedMetricError, match="fewer than 2"):
            ci_ratio(PositivePairs(e, e, lab, lab))

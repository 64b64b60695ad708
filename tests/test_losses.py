"""Adjusted InfoNCE / mean-CE losses and their supporting statistics."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from augoverlap import losses, synth
from augoverlap.data import TILE_VALUES, EmbeddingSet, LabelSet, PositivePairs, class_means, normalize
from augoverlap.errors import DegenerateInputError
from augoverlap.losses import (
    LossValue,
    alignment_uniformity,
    class_stats,
    infonce_adjusted,
    label_consistency_alpha,
    mc_negative_term,
    mce_adjusted,
    mce_negative_term,
)


def _tiny_pairs():
    left = EmbeddingSet(np.array([[1.0, 0.0], [0.0, 1.0]]), normalized=True)
    right = EmbeddingSet(np.array([[0.0, 1.0], [1.0, 0.0]]), normalized=True)
    lab = LabelSet(np.array([0, 1]), k=2)
    return PositivePairs(left, right, lab, lab)


class TestLossValue:
    def test_decomposition_checked(self):
        LossValue(3.0, components=(1.0, 2.0))
        with pytest.raises(ValueError, match="decomposition"):
            LossValue(3.0, components=(1.0, 1.0))


def test_class_stats_variance_must_be_finite():
    with pytest.raises(ValueError, match="^cond_variance must be >= 0 and finite, got nan$"):
        losses.ClassStats(np.zeros((1, 2)), math.nan)


class TestInfonceAdjusted:
    def test_needs_two_pairs(self):
        one = EmbeddingSet(np.array([[1.0, 0.0]]), normalized=True)
        with pytest.raises(ValueError, match="need at least 2 pairs"):
            losses.infonce_adjusted(PositivePairs(one, one), m_negatives=1)

    def test_names_the_unnormalized_set(self):
        raw = EmbeddingSet(np.ones((2, 2)))
        with pytest.raises(ValueError, match=r"^EmbeddingSet must be normalized first \(see data.normalize\)$"):
            losses.class_stats(raw, LabelSet(np.array([0, 1]), k=2))

    def test_exact_enumeration_tiny(self):
        pairs = _tiny_pairs()
        # pool = 4 unit vectors; scores of anchor i against the pool
        anchors = pairs.left.values
        pool = np.vstack([pairs.left.values, pairs.right.values])
        scores = anchors @ pool.T
        pos = -np.mean(np.sum(pairs.left.values * pairs.right.values, axis=1))
        neg = np.mean([np.mean(np.log(np.exp(scores[:, [j]]).mean(axis=1))) for j in range(4)])
        got = infonce_adjusted(pairs, m_negatives=1)
        assert got.value == pytest.approx(pos + neg, abs=1e-12)

    def test_enumeration_matches_monte_carlo(self):
        rng = np.random.default_rng(3)
        left = normalize(EmbeddingSet(rng.standard_normal((3, 4))))
        right = normalize(EmbeddingSet(rng.standard_normal((3, 4))))
        pairs = PositivePairs(left, right)
        exact = infonce_adjusted(pairs, m_negatives=2).value  # 6**2 = 36 <= limit, enumerated
        with mock.patch.object(losses, "ENUMERATION_LIMIT", 0):
            mc = infonce_adjusted(pairs, m_negatives=2, trials=4000, seed=1).value
        assert mc != exact  # the Monte Carlo branch ran
        assert mc == pytest.approx(exact, abs=0.01)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        m_negatives=st.integers(1, 6),
        dim=st.integers(1, 8),
        decimals=st.sampled_from([None, 1]),
        seed=st.integers(0, 2**31),
    )
    @example(n=2000, m_negatives=1, dim=8, decimals=None, seed=0)  # a pool of 4000 in 250 chunks
    def test_enumeration_matches_loop_reference(self, n, m_negatives, dim, decimals, seed):
        """The chunked exact branch gives the bits of one loop iteration per
        combination, summed in itertools.product order."""
        while (2 * n) ** m_negatives > losses.ENUMERATION_LIMIT:
            n -= 1
        pool_size = 2 * n
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((2, n, dim)) + 0.05
        if decimals is not None:
            raw = np.round(raw, decimals) + 0.05  # ties, and no zero rows
        pairs = PositivePairs(normalize(EmbeddingSet(raw[0])), normalize(EmbeddingSet(raw[1])))
        scores = pairs.left.values @ np.vstack([pairs.left.values, pairs.right.values]).T
        total = 0.0
        for combo in itertools.product(range(pool_size), repeat=m_negatives):
            total += float(np.mean(np.log(np.mean(np.exp(scores[:, combo]), axis=1))))
        assert infonce_adjusted(pairs, m_negatives).components[1] == total / pool_size**m_negatives

    def test_monte_carlo_seeded(self):
        pairs = synth.ci_pairs(100, 2, 8, seed=0)
        a = infonce_adjusted(pairs, m_negatives=3, trials=5, seed=7).value
        b = infonce_adjusted(pairs, m_negatives=3, trials=5, seed=7).value
        assert a == b

    def test_components_sum(self):
        got = infonce_adjusted(_tiny_pairs(), m_negatives=1)
        pos, neg = got.components
        assert got.value == pytest.approx(pos + neg)

    def test_validation(self):
        pairs = _tiny_pairs()
        with pytest.raises(ValueError):
            infonce_adjusted(pairs, m_negatives=0)
        with pytest.raises(ValueError):
            infonce_adjusted(pairs, m_negatives=1, trials=0)
        raw = PositivePairs(EmbeddingSet(np.ones((2, 2))), EmbeddingSet(np.ones((2, 2))))
        with pytest.raises(ValueError, match="normalized"):
            infonce_adjusted(raw, m_negatives=1)


def _mc_reference(scores, m_negatives, trials, seed):
    """The per-trial Monte Carlo loop over the whole score matrix that the streamed
    core replaced: one (n, M) draw per trial, gathered from ``scores``."""
    n, columns = scores.shape
    rng = np.random.default_rng(seed)
    acc = 0.0
    for _ in range(trials):
        idx = rng.integers(0, columns, size=(n, m_negatives))
        drawn = np.take_along_axis(scores, idx, axis=1)
        acc += float(np.mean(np.log(np.mean(np.exp(drawn), axis=1))))
    return acc / trials


def _mc_case(estimator, n, k, dim, seed):
    """Unit-norm inputs of one estimator, and its (anchors, pool) score factors."""
    rng = np.random.default_rng(seed)
    left = normalize(EmbeddingSet(rng.standard_normal((n, dim)) + 0.05))
    if estimator == "infonce":
        right = normalize(EmbeddingSet(rng.standard_normal((n, dim)) + 0.05))
        return PositivePairs(left, right), left.values, np.vstack([left.values, right.values])
    labels = LabelSet(rng.permutation(np.arange(n) % k), k=k)  # every class non-empty
    return (left, labels), left.values, class_means(left.values, labels)


def _estimate(estimator, args, m_negatives, trials, seed):
    if estimator == "infonce":
        return infonce_adjusted(args, m_negatives, trials=trials, seed=seed).components[1]
    return mc_negative_term(*args, m_negatives, trials=trials, seed=seed)


# (SCORE_TILE_VALUES, DRAW_CHUNK_VALUES, TILE_VALUES): the module's caps, and small
# ones that split a few anchors into several tiles, chunks and gather groups
REAL_CAPS = (losses.SCORE_TILE_VALUES, losses.DRAW_CHUNK_VALUES, TILE_VALUES)


class TestMonteCarloStreaming:
    @settings(max_examples=80, deadline=None)
    @given(
        estimator=st.sampled_from(["infonce", "mc"]),
        n=st.integers(2, 70),
        k=st.integers(1, 6),
        dim=st.integers(1, 40),
        m_negatives=st.integers(1, 20),
        trials=st.integers(1, 6),
        seed=st.integers(0, 2**31),
        caps=st.sampled_from([REAL_CAPS, (1, 1, 1), (40, 60, 17), (300, 500, 64), (1, 10**6, 1)]),
    )
    # more than one trial chunk: chunks of 2, 2 and 1 trials
    @example(estimator="infonce", n=30, k=1, dim=8, m_negatives=4, trials=5, seed=1, caps=(10**6, 250, 10**6))
    # a 1-row tail: tiles of 3 rows over 7 anchors end (3, 7), not (6, 7)
    @example(estimator="infonce", n=7, k=1, dim=3, m_negatives=5, trials=3, seed=2, caps=(42, 10**6, 10**6))
    @example(estimator="mc", n=7, k=2, dim=3, m_negatives=5, trials=3, seed=3, caps=(6, 10**6, 4))
    @example(estimator="mc", n=9, k=1, dim=4, m_negatives=3, trials=4, seed=4, caps=(1, 1, 1))
    @example(estimator="mc", n=40, k=2, dim=16, m_negatives=7, trials=2, seed=5, caps=REAL_CAPS)
    def test_matches_loop_reference(self, estimator, n, k, dim, m_negatives, trials, seed, caps):
        """Both estimators give the per-trial loop's bits whenever every score tile's
        product has the bits of the same rows of the whole product; otherwise they
        move by at most the largest score change (plus rounding)."""
        k = min(k, n)
        args, anchors, pool = _mc_case(estimator, n, k, dim, seed)
        scores = anchors @ pool.T
        caps = dict(zip(["SCORE_TILE_VALUES", "DRAW_CHUNK_VALUES", "TILE_VALUES"], caps))
        with mock.patch.multiple(losses, ENUMERATION_LIMIT=0, **caps):
            got = _estimate(estimator, args, m_negatives, trials, seed)
            tiles = losses._score_tiles(n, len(pool))
        assert tiles[0][0] == 0 and tiles[-1][1] == n
        assert all(hi - lo >= min(2, n) and hi == nxt for (lo, hi), (nxt, _) in zip(tiles, tiles[1:] + [(n, 0)]))
        change = max(float(np.max(np.abs(anchors[lo:hi] @ pool.T - scores[lo:hi]))) for lo, hi in tiles)
        expected = _mc_reference(scores, m_negatives, trials, seed)
        if change == 0.0:
            assert got == expected
        else:
            assert abs(got - expected) <= change + 1e-14

    @pytest.mark.parametrize(
        "estimator, n, m_negatives, trials",
        [
            # the train-bounds ladder: infonce_adjusted at M=16, mc_negative_term at M 1, 16, 64
            *[("infonce", n, 16, 50) for n in (500, 1000, 2000)],
            *[("mc", n, m, 1) for n in (500, 1000, 2000) for m in (1, 16, 64)],
            # criterion 2 (M=1 is enumerated at n=2000), criterion 1 and repro lemma42's defaults
            *[("infonce", 2000, m, 100) for m in (4, 16, 64, 256)],
            *[("mc", 2000, m, 1) for m in (1, 4, 16, 64, 256)],
        ],
    )
    def test_repository_shapes_are_bit_identical(self, estimator, n, m_negatives, trials):
        pairs = synth.ci_pairs(n, 10, 32, spread=0.3, seed=n + m_negatives)
        if estimator == "infonce":
            args, anchors = pairs, pairs.left.values
            pool = np.vstack([pairs.left.values, pairs.right.values])
        else:
            args, anchors = (pairs.left, pairs.left_labels), pairs.left.values
            pool = class_means(anchors, pairs.left_labels)
        for seed in (0, 1) if trials == 1 else (3,):
            expected = _mc_reference(anchors @ pool.T, m_negatives, trials, seed)
            assert _estimate(estimator, args, m_negatives, trials, seed) == expected

    @pytest.mark.parametrize("trials, n, m_negatives, splits", [(7, 5, 3, (1, 2, 4)), (6, 33, 7, (1, 2, 3)), (4, 8, 1, (3, 1))])
    def test_draws_equal_per_trial_draws(self, trials, n, m_negatives, splits):
        """One (T, n, M) draw equals T per-trial draws and whole-trial chunks of any
        size, and int32 draws equal int64 draws: the core's seed semantics."""
        whole = np.random.default_rng(9).integers(0, 1000, size=(trials, n, m_negatives))
        rng = np.random.default_rng(9)
        per_trial = np.stack([rng.integers(0, 1000, size=(n, m_negatives)) for _ in range(trials)])
        rng = np.random.default_rng(9)
        sizes = [*splits, trials - sum(splits)]
        chunks = np.concatenate([rng.integers(0, 1000, size=(t, n, m_negatives), dtype=np.int32) for t in sizes])
        assert np.array_equal(whole, per_trial) and np.array_equal(whole, chunks)

    @pytest.mark.parametrize("n, m_negatives, trials", [(2000, 16, 50), (2000, 256, 100), (100, 256, 100)])
    def test_memory_is_one_chunk_and_one_tile(self, n, m_negatives, trials):
        """The Monte Carlo branch holds the draw chunk, one score tile, the gather
        buffers, the chunk's (trials, n) log-mean-exps and the pool. At n=2000 (a
        pool of 4000) the n x pool score matrix (64 MB) never exists; at n=100 the
        one tile is gathered a few trials at a time, not the whole 81-trial chunk."""
        dim = 32
        pairs = synth.ci_pairs(n, 10, dim, spread=0.3, seed=0)
        pool = 2 * n
        tile_rows = min(n, max(2, losses.SCORE_TILE_VALUES // pool) + 1)  # a merged 1-row tail adds a row
        chunk_trials = min(trials, max(1, losses.DRAW_CHUNK_VALUES // (n * m_negatives)))
        bound = (
            4 * losses.DRAW_CHUNK_VALUES
            + 8 * tile_rows * pool
            + 16 * max(TILE_VALUES, tile_rows * m_negatives)
            + 8 * chunk_trials * n
            + 8 * pool * dim
            + 64 * 1024
        )
        tracemalloc.start()
        try:
            infonce_adjusted(pairs, m_negatives, trials=trials, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)
        if n == 2000:
            assert bound < 8 * n * pool


class TestMceAdjusted:
    def test_hand_computed(self):
        e = EmbeddingSet(np.array([[1.0, 0.0], [0.0, 1.0]]), normalized=True)
        lab = LabelSet(np.array([0, 1]), k=2)
        # class means are the points themselves; scores = identity matrix
        expected = -1.0 + math.log((math.e + 1.0) / 2.0)
        assert mce_adjusted(e, lab).value == pytest.approx(expected, abs=1e-12)

    def test_negative_term_alone(self):
        e = EmbeddingSet(np.array([[1.0, 0.0], [0.0, 1.0]]), normalized=True)
        lab = LabelSet(np.array([0, 1]), k=2)
        assert mce_negative_term(e, lab) == pytest.approx(math.log((math.e + 1.0) / 2.0))

    def test_empty_class(self):
        e = EmbeddingSet(np.array([[1.0, 0.0], [0.0, 1.0]]), normalized=True)
        lab = LabelSet(np.array([0, 0]), k=2)
        with pytest.raises(DegenerateInputError, match="class 1 is empty"):
            mce_adjusted(e, lab)

    def test_label_count_mismatch(self):
        e = EmbeddingSet(np.array([[1.0, 0.0]]), normalized=True)
        lab = LabelSet(np.array([0, 0]), k=1)
        with pytest.raises(ValueError, match="labels have n=2"):
            mce_adjusted(e, lab)


class TestMcNegativeTerm:
    def test_error_shrinks_with_m(self):
        pairs = synth.ci_pairs(500, 5, 16, seed=0)
        e, lab = pairs.left, pairs.left_labels
        exact = mce_negative_term(e, lab)
        err_small = abs(mc_negative_term(e, lab, 4, seed=1) - exact)
        err_large = abs(mc_negative_term(e, lab, 256, seed=1) - exact)
        assert err_large < err_small
        assert err_large <= math.e / math.sqrt(256)

    def test_validation(self):
        pairs = synth.ci_pairs(20, 2, 4, seed=0)
        with pytest.raises(ValueError):
            mc_negative_term(pairs.left, pairs.left_labels, 0)
        for trials in (0, -3):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                mc_negative_term(pairs.left, pairs.left_labels, 4, trials=trials)


class TestClassStats:
    def test_zero_variance(self):
        e = EmbeddingSet(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), normalized=True)
        lab = LabelSet(np.array([0, 0, 1]), k=2)
        stats = class_stats(e, lab)
        assert stats.cond_variance == pytest.approx(0.0)
        np.testing.assert_allclose(stats.means, [[1.0, 0.0], [0.0, 1.0]])

    def test_known_variance(self):
        e = EmbeddingSet(np.array([[1.0, 0.0], [-1.0, 0.0]]), normalized=True)
        lab = LabelSet(np.array([0, 0]), k=1)
        # mean is the origin, each point at squared distance 1
        assert class_stats(e, lab).cond_variance == pytest.approx(1.0)


class TestAlignmentUniformity:
    def test_perfectly_aligned(self):
        e = EmbeddingSet(np.eye(3), normalized=True)
        mean_d, max_d = alignment_uniformity(PositivePairs(e, e))
        assert mean_d == 0.0 and max_d == 0.0

    def test_known_distance(self):
        left = EmbeddingSet(np.array([[1.0, 0.0]]), normalized=True)
        right = EmbeddingSet(np.array([[0.0, 1.0]]), normalized=True)
        mean_d, max_d = alignment_uniformity(PositivePairs(left, right))
        assert max_d == pytest.approx(math.sqrt(2.0))

    def test_sample_budget_seeded(self):
        pairs = synth.ci_pairs(100, 2, 8, seed=0)
        a = alignment_uniformity(pairs, sample_budget=10, seed=3)
        assert a == alignment_uniformity(pairs, sample_budget=10, seed=3)


class TestLabelConsistencyAlpha:
    def test_values(self):
        left = EmbeddingSet(np.ones((4, 2)))
        lab_l = LabelSet(np.array([0, 0, 1, 1]), k=2)
        lab_r = LabelSet(np.array([0, 1, 1, 1]), k=2)
        pairs = PositivePairs(left, left, lab_l, lab_r)
        assert label_consistency_alpha(pairs) == pytest.approx(0.25)

    def test_requires_labels(self):
        left = EmbeddingSet(np.ones((2, 2)))
        with pytest.raises(ValueError, match="labels"):
            label_consistency_alpha(PositivePairs(left, left))

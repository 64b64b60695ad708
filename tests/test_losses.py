"""Adjusted InfoNCE / mean-CE losses and their supporting statistics."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from augoverlap import data, losses, synth
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
        for value, components in [(math.nan, (1.0, 2.0)), (3.0, (math.nan, 2.0)), (3.0, (1.0, math.nan))]:
            with pytest.raises(ValueError, match="decomposition"):  # abs(nan - x) > 1e-9 is False
                LossValue(value, components=components)


def test_class_stats_variance_must_be_finite():
    with pytest.raises(ValueError, match="^cond_variance must be >= 0 and finite, got nan$"):
        losses.ClassStats(np.zeros((1, 2)), math.nan)


def _enumeration_case(n, m_negatives, dim, decimals, seed):
    """Pairs whose pool**M is within the enumeration limit (n shrinks until it is),
    and their exact negative term as one loop iteration per combination, summed in
    itertools.product order."""
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
    return pairs, total / pool_size**m_negatives


class TestInfonceAdjusted:
    def test_needs_two_pairs(self):
        one = EmbeddingSet(np.array([[1.0, 0.0]]), normalized=True)
        with pytest.raises(ValueError, match="^n must be >= 2, got 1$"):
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
        m_negatives=st.integers(2, 6),
        dim=st.integers(1, 8),
        decimals=st.sampled_from([None, 1]),
        seed=st.integers(0, 2**31),
    )
    @example(n=32, m_negatives=2, dim=8, decimals=None, seed=0)  # the largest enumeration: 4096 combinations in one chunk
    def test_enumeration_matches_loop_reference(self, n, m_negatives, dim, decimals, seed):
        """At M >= 2 the exact branch, every combination once as one trial of the
        Monte Carlo core, gives the bits of one loop iteration per combination,
        summed in itertools.product order."""
        pairs, expected = _enumeration_case(n, m_negatives, dim, decimals, seed)
        assert infonce_adjusted(pairs, m_negatives).components[1] == expected

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 40), dim=st.integers(1, 8), decimals=st.sampled_from([None, 1]), seed=st.integers(0, 2**31))
    @example(n=2000, dim=8, decimals=None, seed=0)  # a pool of 4000
    def test_closed_form_matches_loop_reference(self, n, dim, decimals, seed):
        """At M = 1 the exact term is mean(anchors) . mean(pool), the mean of the
        scores, within 1e-15 of the per-combination loop (measured at most 8e-17)."""
        pairs, expected = _enumeration_case(n, 1, dim, decimals, seed)
        assert abs(infonce_adjusted(pairs, 1).components[1] - expected) <= 1e-15

    def test_closed_form_holds_no_score_matrix(self):
        """At n=2000, M=1 (a pool of 4000 rows of width 32) the exact term peaks
        below 4 MB; the n x pool score matrix alone would take 64 MB."""
        pairs = synth.ci_pairs(2000, 10, 32, spread=0.3, seed=0)
        tracemalloc.start()
        try:
            infonce_adjusted(pairs, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak

    @pytest.mark.parametrize("n, m_negatives", [(6, 2), (5, 3), (20, 1)])
    def test_monte_carlo_mean_matches_enumeration(self, n, m_negatives):
        """Statistical oracle: 2000 single-trial Monte Carlo estimates (seeds 0..1999)
        average within 4.5 standard errors of exact enumeration. An unbiased estimator
        fails this z-test with probability about 7e-6. Anchors cluster around one
        direction and positives spread, so pool rows differ: a draw range that misses
        the last row, or a mean that drops an anchor, fails some case with |z| > 6."""
        rng = np.random.default_rng(100 * n + m_negatives + 2000)
        left = normalize(EmbeddingSet(0.6 * rng.standard_normal((n, 3)) + [1.0, 0.0, 0.0]))
        pairs = PositivePairs(left, normalize(EmbeddingSet(rng.standard_normal((n, 3)))))
        assert (2 * n) ** m_negatives <= losses.ENUMERATION_LIMIT
        exact = infonce_adjusted(pairs, m_negatives).components[1]
        with mock.patch.object(losses, "ENUMERATION_LIMIT", 0):
            draws = np.array([infonce_adjusted(pairs, m_negatives, trials=1, seed=s).components[1] for s in range(2000)])
        z = (draws.mean() - exact) / (draws.std(ddof=1) / math.sqrt(draws.size))
        assert abs(z) <= 4.5, z

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
    """The per-block, per-trial Monte Carlo loop over the whole score matrix: block
    b draws one (rows, M) set per trial from ``SeedSequence(seed).spawn(blocks)[b]``,
    gathered from its rows of ``scores``; returns the estimate and its standard error."""
    n, columns = scores.shape
    blocks = losses._anchor_blocks(n)
    sums = np.zeros(trials)
    for child, (lo, hi) in zip(np.random.SeedSequence(seed).spawn(len(blocks)), blocks):
        rng = np.random.default_rng(child)
        for t in range(trials):
            idx = rng.integers(0, columns, size=(hi - lo, m_negatives))
            drawn = np.take_along_axis(scores[lo:hi], idx, axis=1)
            sums[t] += np.sum(np.log(np.mean(np.exp(drawn), axis=1)))
    means = sums / n
    acc = 0.0
    for value in means.tolist():
        acc += value
    return acc / trials, (float(np.std(means, ddof=1) / np.sqrt(trials)) if trials > 1 else None)


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
    """The estimate and its standard error (None from mc_negative_term, which
    reports none)."""
    if estimator == "infonce":
        got = infonce_adjusted(args, m_negatives, trials=trials, seed=seed)
        return got.components[1], got.stderr
    return mc_negative_term(*args, m_negatives, trials=trials, seed=seed), None


# (BLOCK_ROWS, TILE_VALUES): the module's sizes, and small ones that split a few
# anchors into several blocks and gather groups
REAL_SIZES = (losses.BLOCK_ROWS, TILE_VALUES)


def _counted_streams(draws):
    """``losses._block_streams`` whose draw functions record each (block, start, k) call in ``draws``."""
    real = losses._block_streams

    def streams(*args):
        draw = real(*args)
        return lambda b, start, k: draws.append((b, start, k)) or draw(b, start, k)

    return mock.patch.object(losses, "_block_streams", streams)


def _gather_groups(blocks, m_negatives, trials, tile_values):
    """The (block, start, k) draws of trial groups of at most ``tile_values`` gathered
    values (or one trial) over the tallest block, block by block."""
    height = max(hi - lo for lo, hi in blocks)
    per_group = min(trials, max(1, tile_values // (height * m_negatives)))
    return [(b, start, min(per_group, trials - start)) for b in range(len(blocks)) for start in range(0, trials, per_group)]


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
        sizes=st.sampled_from([REAL_SIZES, (2, 1), (3, 17), (7, 64), (5, 10**6)]),
    )
    # several gather groups in one block: groups of 2, 2 and 1 trials
    @example(estimator="infonce", n=30, k=1, dim=8, m_negatives=4, trials=5, seed=1, sizes=(64, 250))
    # a 1-row tail: blocks of 3 rows over 7 anchors end (3, 7), not (6, 7)
    @example(estimator="infonce", n=7, k=1, dim=3, m_negatives=5, trials=3, seed=2, sizes=(3, 10**6))
    @example(estimator="mc", n=7, k=2, dim=3, m_negatives=5, trials=3, seed=3, sizes=(3, 4))
    @example(estimator="mc", n=9, k=1, dim=4, m_negatives=3, trials=4, seed=4, sizes=(2, 1))
    @example(estimator="mc", n=40, k=2, dim=16, m_negatives=7, trials=2, seed=5, sizes=REAL_SIZES)
    def test_matches_loop_reference(self, estimator, n, k, dim, m_negatives, trials, seed, sizes):
        """Both estimators, and infonce_adjusted's standard error, give the per-block
        loop's bits whenever every block's product has the bits of the same rows of the
        whole product; otherwise they move by at most the largest score change (plus
        rounding)."""
        k = min(k, n)
        args, anchors, pool = _mc_case(estimator, n, k, dim, seed)
        scores = anchors @ pool.T
        draws = []
        with mock.patch.multiple(losses, ENUMERATION_LIMIT=0, BLOCK_ROWS=sizes[0]), mock.patch.object(data, "TILE_VALUES", sizes[1]):
            with _counted_streams(draws):
                got, stderr = _estimate(estimator, args, m_negatives, trials, seed)
            blocks = losses._anchor_blocks(n)
            expected, expected_stderr = _mc_reference(scores, m_negatives, trials, seed)
        assert draws == _gather_groups(blocks, m_negatives, trials, sizes[1])
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(hi - lo >= min(2, n) and hi == nxt for (lo, hi), (nxt, _) in zip(blocks, blocks[1:] + [(n, 0)]))
        change = max(float(np.max(np.abs(anchors[lo:hi] @ pool.T - scores[lo:hi]))) for lo, hi in blocks)
        if change == 0.0:
            assert got == expected
            assert estimator == "mc" or stderr == expected_stderr
        else:
            assert abs(got - expected) <= change + 1e-14

    @pytest.mark.parametrize(
        "estimator, n, m_negatives, trials",
        [
            # the train-bounds ladder: infonce_adjusted at M=16, mc_negative_term at M 1, 16, 64
            *[("infonce", n, 16, 50) for n in (500, 1000, 2000)],
            *[("mc", n, m, 1) for n in (500, 1000, 2000) for m in (1, 16, 64)],
            # criterion 2 (its M=1 is the closed form at n=2000), criterion 1 and repro lemma42's defaults
            *[("infonce", 2000, m, 100) for m in (4, 16, 64, 256)],
            *[("mc", 2000, m, 1) for m in (1, 4, 16, 64, 256)],
        ],
    )
    def test_repository_shapes_are_bit_identical(self, estimator, n, m_negatives, trials):
        """infonce_adjusted's pools (1000-4000 rows) give block products with the bits
        of the whole product, so the estimate and its error have the reference's bits.
        mc_negative_term's pool is K = 10 class means, whose 64-row block products
        OpenBLAS rounds differently from the whole product: there the reference runs
        on the block products' rows, and within the largest score change of the
        whole matrix's reference."""
        pairs = synth.ci_pairs(n, 10, 32, spread=0.3, seed=n + m_negatives)
        if estimator == "infonce":
            args, anchors = pairs, pairs.left.values
            pool = np.vstack([pairs.left.values, pairs.right.values])
        else:
            args, anchors = (pairs.left, pairs.left_labels), pairs.left.values
            pool = class_means(anchors, pairs.left_labels)
        scores = anchors @ pool.T
        blocked = np.vstack([anchors[lo:hi] @ pool.T for lo, hi in losses._anchor_blocks(n)])
        assert estimator == "mc" or np.array_equal(blocked, scores)
        change = float(np.max(np.abs(blocked - scores)))
        for seed in (0, 1) if trials == 1 else (3,):
            expected, expected_stderr = _mc_reference(blocked, m_negatives, trials, seed)
            got, stderr = _estimate(estimator, args, m_negatives, trials, seed)
            assert got == expected
            if estimator == "infonce":
                assert stderr == expected_stderr
            else:
                assert abs(got - _mc_reference(scores, m_negatives, trials, seed)[0]) <= change + 1e-14

    def test_gather_groups_do_not_move_the_bits(self):
        """At train-bounds' largest shape the estimate and its standard error keep
        their bits whatever the gather group: one trial of a block, a few, or all."""
        pairs = synth.ci_pairs(2000, 10, 32, spread=0.3, seed=7)
        results = set()
        for tile_values, groups in ((1, 50), (5000, 13), (TILE_VALUES, 2), (10**7, 1)):
            draws = []
            with mock.patch.object(data, "TILE_VALUES", tile_values), _counted_streams(draws):
                got = infonce_adjusted(pairs, 16, trials=50, seed=7)
            assert len(draws) == 32 * groups  # 32 blocks of at most 64 rows, 1024 draws per trial of a block
            results.add((got.value, got.stderr))
        assert len(results) == 1

    @pytest.mark.parametrize("trials, n, m_negatives, splits", [(7, 5, 3, (1, 2, 4)), (6, 33, 7, (1, 2, 3)), (4, 8, 1, (3, 1))])
    def test_draws_equal_per_trial_draws(self, trials, n, m_negatives, splits):
        """Each block's int32 draws, in groups of any size, equal its per-trial int64
        draws from ``default_rng(SeedSequence(seed).spawn(blocks)[b])``: the core's
        seed semantics. Blocks of 3 rows split every n into several."""
        with mock.patch.object(losses, "BLOCK_ROWS", 3):
            blocks = losses._anchor_blocks(n)
            whole, grouped = losses._block_streams(9, n, 1000, m_negatives), losses._block_streams(9, n, 1000, m_negatives)
        assert len(blocks) > 1
        per_trial = [np.random.default_rng(child) for child in np.random.SeedSequence(9).spawn(len(blocks))]
        sizes = [*splits, trials - sum(splits)]
        starts = np.cumsum([0, *sizes[:-1]]).tolist()
        for b, (lo, hi) in enumerate(blocks):
            expected = np.stack([per_trial[b].integers(0, 1000, size=(hi - lo, m_negatives)) for _ in range(trials)])
            groups = np.concatenate([grouped(b, start, size) for start, size in zip(starts, sizes)])
            assert groups.dtype == np.int32
            assert np.array_equal(whole(b, 0, trials), expected) and np.array_equal(groups, expected)

    @pytest.mark.parametrize("n, m_negatives, trials", [(2000, 16, 50), (2000, 256, 100), (100, 256, 100)])
    def test_memory_is_one_chunk_and_one_tile(self, n, m_negatives, trials):
        """The Monte Carlo branch holds one block's score tile, one gather group of
        draws (its int32 draws, flat indices, gathered scores and log-mean-exps), the
        pool, the per-block streams and the (trials,) accumulator. At n=2000 (a pool
        of 4000) the n x pool score matrix (64 MB) never exists, nor any n x trials x
        M draw; at n=100 the one tile is gathered a few trials at a time."""
        dim = 32
        pairs = synth.ci_pairs(n, 10, dim, spread=0.3, seed=0)
        pool = 2 * n
        rows = min(n, losses.BLOCK_ROWS + 1)  # a merged 1-row tail adds a row
        bound = (
            8 * rows * pool
            + 28 * max(TILE_VALUES, rows * m_negatives)
            + 8 * pool * dim
            + 2048 * len(losses._anchor_blocks(n))
            + 48 * trials
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
            assert bound < 4 * n * trials * m_negatives  # one int32 draw of every anchor's trials


class TestStandardError:
    def test_exact_branches_and_one_trial(self):
        pairs = synth.ci_pairs(20, 2, 4, seed=0)
        assert infonce_adjusted(pairs, 1).stderr == 0.0  # closed form
        assert infonce_adjusted(_tiny_pairs(), 2).stderr == 0.0  # enumeration
        assert infonce_adjusted(pairs, 4, trials=1).stderr is None
        assert infonce_adjusted(pairs, 4, trials=2).stderr > 0.0
        assert mce_adjusted(pairs.left, pairs.left_labels).stderr == 0.0

    @staticmethod
    def _calibration_z(values, stderrs):
        """z of var(values) - mean(stderr^2) over independent seeds, whose expectation
        is 0 when the error is calibrated. The sd of the sample variance comes from
        the sample's own fourth central moment, sqrt((m4 - s^4) / S), so the check
        holds for non-normal estimates; the mean's sd is added in quadrature."""
        values, variances = np.asarray(values), np.asarray(stderrs) ** 2
        centered = values - values.mean()
        var = float(np.mean(centered**2)) * values.size / (values.size - 1)
        sd = math.sqrt((float(np.mean(centered**4)) - var**2 + float(np.var(variances, ddof=1))) / values.size)
        return (var - float(variances.mean())) / sd

    def test_calibrated_across_seeds(self):
        """Calibration: over 1000 seeds of a 20-trial estimate, the variance of the
        estimates matches the mean squared reported error. Over 200 independent sets
        of 1000 seeds this z had mean -0.22, sd 1.10 and largest |z| 3.86, so |z| <= 5
        fails a calibrated error with probability about 5e-6. Reporting sd/trials in
        place of sd/sqrt(trials), a planted bias, gave z >= 18 in every set, and
        0.8 times the error z >= 5.1."""
        pairs = synth.ci_pairs(40, 4, 6, spread=0.5, seed=3)
        got = [infonce_adjusted(pairs, 4, trials=20, seed=seed) for seed in range(1000)]
        values, stderrs = [g.value for g in got], [g.stderr for g in got]
        assert abs(self._calibration_z(values, stderrs)) <= 5.0
        planted = [e / math.sqrt(20) for e in stderrs]  # sd / trials
        assert self._calibration_z(values, planted) > 5.0


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

    @pytest.mark.parametrize("k, m_negatives", [(3, 2), (2, 3)])
    def test_single_trials_average_to_the_exact_expectation(self, k, m_negatives):
        """The mean of 2000 single-trial estimates lies within 4.5 standard errors of
        the estimator's exact expectation, the mean over anchors and over all K^M
        equally likely class tuples of the log-mean-exp. mce_negative_term is not
        the reference: the log of a mean over M draws sits below it by a Jensen
        gap of order 1/M."""
        rng = np.random.default_rng(11)
        n = 12
        lab = LabelSet(np.arange(n) % k, k=k)
        centers = np.eye(3)[:k] * np.linspace(0.5, 4.0, k)[:, None]  # the last class is the tightest
        e = normalize(EmbeddingSet(centers[lab.labels] + rng.standard_normal((n, 3))))
        scores = e.values @ class_means(e.values, lab).T  # (n, k)
        tuples = np.array(list(itertools.product(range(k), repeat=m_negatives)))  # (K^M, M)
        expected = float(np.mean(np.log(np.mean(np.exp(scores[:, tuples]), axis=-1))))
        samples = np.array([mc_negative_term(e, lab, m_negatives, seed=seed) for seed in range(2000)])
        z = (samples.mean() - expected) / (samples.std(ddof=1) / np.sqrt(samples.size))
        assert abs(z) <= 4.5, (z, samples.mean(), expected)

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

"""Adjusted InfoNCE / mean-CE losses and their supporting statistics."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from augoverlap import losses, synth
from augoverlap.data import EmbeddingSet, LabelSet, PositivePairs, normalize
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


class TestInfonceAdjusted:
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
        mc = infonce_adjusted(pairs, m_negatives=2, trials=4000, seed=1).value
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

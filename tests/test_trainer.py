"""Manual-backprop encoder: forward/backward, the batch loss, training and evaluation."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from augoverlap.data import EmbeddingSet, LabelSet
from augoverlap.errors import DegenerateInputError
from augoverlap.geomsim import GeomConfig, sample_caps
from augoverlap.trainer import (
    EncoderParams,
    TrainConfig,
    backward,
    counterexample_prop53,
    forward,
    infonce_batch_loss,
    init_params,
    linear_eval,
    mean_classifier_accuracy,
    train_contrastive,
)

NORTH_SOUTH = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(noise_r=-1.0)


class TestForward:
    def test_unit_norm_outputs(self, rng):
        params = init_params(3, 8, 4, seed=0)
        f, _ = forward(params, rng.standard_normal((10, 3)))
        np.testing.assert_allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-12)

    def test_init_deterministic(self):
        a = init_params(3, 8, 4, seed=5)
        b = init_params(3, 8, 4, seed=5)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)


class TestInfonceBatchLoss:
    def test_hand_computed_two_rows(self):
        f1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        f2 = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _, _ = infonce_batch_loss(f1, f2)
        # positive score 1, single negative score 0 per anchor; mean denominator of 1 element
        expected = -1.0 + math.log(math.exp(0.0) / 1.0)
        assert loss == pytest.approx(expected)

    def test_batch_too_small(self):
        with pytest.raises(ValueError, match="batch size"):
            infonce_batch_loss(np.ones((1, 2)), np.ones((1, 2)))

    def test_m_negatives_needs_rng(self):
        f = np.eye(3)
        with pytest.raises(ValueError, match="rng"):
            infonce_batch_loss(f, f, m_negatives=1)

    def test_m_negatives_subsetting(self, rng):
        f = np.eye(4)
        loss, g1, g2 = infonce_batch_loss(f, f, m_negatives=2, rng=rng)
        assert math.isfinite(loss)
        assert g1.shape == f.shape and g2.shape == f.shape

    def test_m_negatives_are_uniform_subsets(self):
        """With f1 = f2 = I the gradient w.r.t. f1 is the score weights, positive
        exactly on the kept negatives: every row keeps m distinct off-diagonal
        columns, and each m-subset of a row's b - 1 candidates is equally likely."""
        b, m, draws = 6, 2, 3000
        eye = np.eye(b)
        rng = np.random.default_rng(3)
        counts = Counter()
        for _ in range(draws):
            kept = infonce_batch_loss(eye, eye, m_negatives=m, rng=rng)[1] > 0
            assert (kept.sum(axis=1) == m).all() and not kept.diagonal().any()
            counts.update((i, tuple(np.flatnonzero(row))) for i, row in enumerate(kept))
        cells = [(i, s) for i in range(b) for s in itertools.combinations([j for j in range(b) if j != i], m)]
        assert set(counts) == set(cells)
        assert chisquare([counts[cell] for cell in cells]).pvalue > 1e-3

    def test_m_negatives_must_be_positive(self, rng):
        with pytest.raises(ValueError, match="m_negatives must be >= 1"):
            infonce_batch_loss(np.eye(4), np.eye(4), m_negatives=0, rng=rng)

    def test_gradient_matches_finite_differences(self, rng):
        # the full-parameter version is acceptance criterion 10; this is a feature-level check
        f1 = rng.standard_normal((4, 3))
        f2 = rng.standard_normal((4, 3))
        n1 = f1 / np.linalg.norm(f1, axis=1, keepdims=True)
        n2 = f2 / np.linalg.norm(f2, axis=1, keepdims=True)
        _, g1, g2 = infonce_batch_loss(n1, n2)
        eps = 1e-6
        for idx in [(0, 0), (1, 2), (3, 1)]:
            p = n1.copy()
            p[idx] += eps
            m = n1.copy()
            m[idx] -= eps
            num = (infonce_batch_loss(p, n2)[0] - infonce_batch_loss(m, n2)[0]) / (2 * eps)
            assert g1[idx] == pytest.approx(num, abs=1e-6)


class TestBackward:
    def test_shapes(self, rng):
        params = init_params(3, 8, 4, seed=0)
        x = rng.standard_normal((5, 3))
        f, cache = forward(params, x)
        grads = backward(params, cache, rng.standard_normal(f.shape))
        for g, p in zip(grads, (params.w1, params.b1, params.w2, params.b2)):
            assert g.shape == p.shape

    def test_projection_kills_radial_component(self, rng):
        # gradient along f itself contributes nothing through the unit-norm projection
        params = init_params(3, 8, 4, seed=0)
        x = rng.standard_normal((5, 3))
        f, cache = forward(params, x)
        grads = backward(params, cache, f.copy())
        for g in grads:
            np.testing.assert_allclose(g, 0.0, atol=1e-12)


class TestTrainContrastive:
    @pytest.fixture
    def two_cap_data(self):
        cfg = GeomConfig(d=3, n=300, area=1.0, class_centers=NORTH_SOUTH, seed=0)
        return sample_caps(cfg)

    def test_deterministic(self, two_cap_data):
        emb, _ = two_cap_data
        cfg = TrainConfig(epochs=2, batch_size=64, hidden_size=8, out_dim=4, seed=1)
        a = train_contrastive(emb, cfg)
        b = train_contrastive(emb, cfg)
        np.testing.assert_array_equal(a.params.w1, b.params.w1)
        assert a.loss_trace == b.loss_trace

    def test_loss_decreases(self, two_cap_data):
        emb, _ = two_cap_data
        cfg = TrainConfig(epochs=15, batch_size=64, learning_rate=0.05, noise_r=0.3, hidden_size=16, out_dim=8, seed=0)
        result = train_contrastive(emb, cfg)
        assert result.loss_trace[-1] < result.loss_trace[0]
        assert len(result.loss_trace) == 15

    def test_epoch1_checkpoint_kept(self, two_cap_data):
        emb, _ = two_cap_data
        cfg = TrainConfig(epochs=3, batch_size=64, hidden_size=8, out_dim=4, seed=0)
        result = train_contrastive(emb, cfg)
        assert result.params_epoch1 is not None
        assert not np.array_equal(result.params_epoch1.w1, result.params.w1)

    def test_learns_separable_task(self, two_cap_data):
        emb, lab = two_cap_data
        cfg = TrainConfig(epochs=10, batch_size=64, learning_rate=0.05, noise_r=0.3, hidden_size=16, out_dim=8, seed=0)
        result = train_contrastive(emb, cfg)
        acc = linear_eval(result.params, emb, lab, emb, lab)
        assert acc >= 0.95


class TestMeanClassifier:
    def test_hand_case(self):
        train_f = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        lab = LabelSet(np.array([0, 0, 1, 1]), k=2)
        test_f = np.array([[1.0, 0.0], [0.0, 1.0]])
        test_lab = LabelSet(np.array([0, 1]), k=2)
        assert mean_classifier_accuracy(train_f, lab, test_f, test_lab) == 1.0

    def test_tie_goes_to_lowest_class(self):
        train_f = np.array([[1.0, 0.0], [1.0, 0.0]])
        lab = LabelSet(np.array([0, 1]), k=2)  # identical class means
        test_f = np.array([[1.0, 0.0]])
        assert mean_classifier_accuracy(train_f, lab, test_f, LabelSet(np.array([0]), k=2)) == 1.0
        assert mean_classifier_accuracy(train_f, lab, test_f, LabelSet(np.array([1]), k=2)) == 0.0

    def test_empty_class(self):
        train_f = np.ones((2, 2))
        lab = LabelSet(np.array([0, 0]), k=2)
        with pytest.raises(DegenerateInputError, match="class 1"):
            mean_classifier_accuracy(train_f, lab, train_f, lab)

    def test_label_count_mismatch(self):
        f = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.1], [0.1, 1.0]])
        lab = LabelSet(np.array([0, 1, 0, 1]), k=2)
        one = LabelSet(np.array([0]), k=2)
        with pytest.raises(ValueError, match="test labels have n=1, test features have n=4"):
            mean_classifier_accuracy(f, lab, f, one)
        with pytest.raises(ValueError, match="labels have n=1, features have n=4"):
            mean_classifier_accuracy(f, one, f, lab)


class TestCounterexample:
    def test_perfect_alignment_at_chance(self):
        pairs, labels, acc = counterexample_prop53(4000, 2, 4, seed=0)
        # the two sides are the same embeddings: alignment is exact
        np.testing.assert_array_equal(pairs.left.values, pairs.right.values)
        assert abs(acc - 0.5) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            counterexample_prop53(1, 2, 4)
        with pytest.raises(ValueError):
            counterexample_prop53(10, 1, 4)

"""Synthetic labeled pair constructions."""

import numpy as np
import pytest

from augoverlap.synth import balanced_labels, ci_pairs, class_centers, dependent_pairs


class TestClassCenters:
    def test_orthonormal_when_k_le_m(self):
        centers = class_centers(4, 8, seed=0)
        np.testing.assert_allclose(centers @ centers.T, np.eye(4), atol=1e-10)

    def test_unit_norm_when_k_gt_m(self):
        centers = class_centers(10, 3, seed=0)
        np.testing.assert_allclose(np.linalg.norm(centers, axis=1), 1.0, atol=1e-12)

    def test_seeded(self):
        np.testing.assert_array_equal(class_centers(3, 5, seed=2), class_centers(3, 5, seed=2))

    def test_validation(self):
        with pytest.raises(ValueError):
            class_centers(0, 4)
        with pytest.raises(ValueError):
            class_centers(2, 1)


class TestBalancedLabels:
    def test_counts(self):
        lab = balanced_labels(10, 3, np.random.default_rng(0))
        counts = np.bincount(lab.labels, minlength=3)
        assert counts.max() - counts.min() <= 1
        assert lab.k == 3 and lab.n == 10


class TestCiPairs:
    def test_structure(self):
        pairs = ci_pairs(100, 5, 8, seed=0)
        assert pairs.n == 100 and pairs.labeled
        assert pairs.left.normalized and pairs.right.normalized
        np.testing.assert_array_equal(pairs.left_labels.labels, pairs.right_labels.labels)

    def test_sides_are_independent_draws(self):
        pairs = ci_pairs(100, 5, 8, seed=0)
        assert not np.allclose(pairs.left.values, pairs.right.values)

    def test_zero_spread_collapses_to_centers(self):
        pairs = ci_pairs(20, 2, 4, spread=0.0, seed=0)
        np.testing.assert_allclose(pairs.left.values, pairs.right.values, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="2 pairs per class"):
            ci_pairs(3, 2, 4)
        with pytest.raises(ValueError, match="spread"):
            ci_pairs(10, 2, 4, spread=-0.1)

    def test_non_finite_spread(self):
        with pytest.raises(ValueError, match="^spread must be >= 0 and finite, got nan$"):
            ci_pairs(10, 2, 4, spread=float("nan"))


class TestDependentPairs:
    def test_right_is_tight_perturbation(self):
        pairs = dependent_pairs(100, 5, 8, perturb=0.02, seed=0)
        dists = np.linalg.norm(pairs.left.values - pairs.right.values, axis=1)
        assert dists.max() < 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            dependent_pairs(3, 2, 4)
        with pytest.raises(ValueError, match="perturb"):
            dependent_pairs(10, 2, 4, perturb=-0.1)

    @pytest.mark.parametrize("field, value", [("spread", float("inf")), ("perturb", float("nan"))])
    def test_non_finite_strength(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0 and finite, got {value}$"):
            dependent_pairs(10, 2, 4, **{field: value})

    def test_pair_count_is_checked_before_the_strengths(self):
        with pytest.raises(ValueError, match="2 pairs per class"):
            dependent_pairs(3, 2, 4, perturb=-1.0)

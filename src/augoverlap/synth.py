"""Synthetic labeled sphere data with controllable pair dependence.

Two pair constructions share the same class-conditional distribution
(normalize(center + spread * gaussian) on the unit sphere):

* :func:`ci_pairs` draws the two sides of every positive pair independently
  from the class conditional, so x and x+ are conditionally independent given
  the label by construction;
* :func:`dependent_pairs` makes the positive a tiny perturbation of its
  anchor, the strongest possible violation of conditional independence.
"""

from __future__ import annotations

import functools

import numpy as np

from .data import EmbeddingSet, LabelSet, PositivePairs, require_nonnegative, unit_rows


def class_centers(k: int, m: int, seed: int = 0) -> np.ndarray:
    """k well-separated unit vectors in R^m (orthonormalized when k <= m)."""
    if k < 1 or m < 2:
        raise ValueError("need k >= 1 and m >= 2")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, k))
    if k <= m:
        q, _ = np.linalg.qr(g)
        return np.ascontiguousarray(q[:, :k].T)
    return unit_rows(g.T)


def balanced_labels(n: int, k: int, rng: np.random.Generator) -> LabelSet:
    labels = np.tile(np.arange(k), n // k + 1)[:n]
    rng.shuffle(labels)
    return LabelSet(labels, k=k)


def _class_conditional(centers: np.ndarray, labels: np.ndarray, spread: float, rng) -> np.ndarray:
    return unit_rows(centers[labels] + spread * rng.standard_normal((labels.shape[0], centers.shape[1])))


def _pairs(n: int, k: int, m: int, seed: int, positive, **strengths: float) -> PositivePairs:
    """Labelled pairs after the checks of both constructions (the pair count, then
    ``strengths``): anchors ``left`` from the class conditional ``conditional(spread,
    rng)``, then positives ``positive(left, conditional, rng)``, drawn in that order."""
    if n < 2 * k:
        raise ValueError(f"need at least 2 pairs per class, got n={n} for k={k}")
    require_nonnegative(**strengths)
    rng = np.random.default_rng(seed)
    centers = class_centers(k, m, seed=seed)
    labels = balanced_labels(n, k, rng)
    conditional = functools.partial(_class_conditional, centers, labels.labels)
    left = conditional(strengths["spread"], rng)
    right = positive(left, conditional, rng)
    return PositivePairs(EmbeddingSet(left, normalized=True), EmbeddingSet(right, normalized=True), labels, labels)


def ci_pairs(n: int, k: int, m: int, spread: float = 0.3, seed: int = 0) -> PositivePairs:
    """Positive pairs with exact conditional independence given the label."""
    return _pairs(n, k, m, seed, lambda left, conditional, rng: conditional(spread, rng), spread=spread)


def dependent_pairs(
    n: int, k: int, m: int, spread: float = 0.5, perturb: float = 0.02, seed: int = 0
) -> PositivePairs:
    """Positive pairs that are tight perturbations of their anchors.

    The wide class conditional keeps each class center norm well below 1, so
    the conditional-independence ratio of these pairs sits clearly above 1.
    """

    def perturbed(left, conditional, rng):
        return unit_rows(left + perturb * rng.standard_normal(left.shape))

    return _pairs(n, k, m, seed, perturbed, spread=spread, perturb=perturb)

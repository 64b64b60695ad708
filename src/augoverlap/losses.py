"""Adjusted InfoNCE / mean-CE losses and the statistics feeding the bound formulas.

Both losses use mean-denominator ("adjusted") form, so their values are
comparable regardless of the number of negatives M or classes K. Temperature
is fixed at 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EmbeddingSet, LabelSet, PositivePairs, class_means, row_tiles

# Exact enumeration of the negative draw replaces Monte Carlo whenever the
# outcome space pool_size**M is at most this many tuples.
ENUMERATION_LIMIT = 4096


@dataclass(frozen=True)
class LossValue:
    value: float
    components: tuple[float, float] | None = None

    def __post_init__(self):
        if self.components is not None:
            pos, neg = self.components
            if abs(self.value - (pos + neg)) > 1e-9:
                raise ValueError("loss value does not match its positive+negative decomposition")


@dataclass(frozen=True)
class ClassStats:
    means: np.ndarray  # (K, m) class centers
    cond_variance: float

    def __post_init__(self):
        if self.cond_variance < 0:
            raise ValueError("conditional variance must be nonnegative")


def _require_normalized(*sets: EmbeddingSet) -> None:
    for e in sets:
        if not e.normalized:
            raise ValueError("embeddings must be normalized first (see data.normalize)")


def _check_pair_labels(pairs: PositivePairs) -> None:
    if not pairs.labeled:
        raise ValueError("pairs must carry labels on both sides")


def _check_draws(m_negatives: int, trials: int) -> None:
    if m_negatives < 1:
        raise ValueError("m_negatives must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")


def _log_mean_exp(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    # Scores are bounded in [-1, 1] for unit-norm features, exp never overflows.
    return np.log(np.mean(np.exp(scores), axis=axis))


def _mc_log_mean_exp(scores: np.ndarray, m_negatives: int, trials: int, seed: int) -> float:
    """Seeded Monte Carlo mean over anchors of log-mean-exp over M columns of
    ``scores`` drawn uniformly with replacement, averaged over ``trials`` draws."""
    n, columns = scores.shape
    rng = np.random.default_rng(seed)
    acc = 0.0
    for _ in range(trials):
        idx = rng.integers(0, columns, size=(n, m_negatives))
        drawn = np.take_along_axis(scores, idx, axis=1)
        acc += float(np.mean(_log_mean_exp(drawn, axis=1)))
    return acc / trials


def infonce_adjusted(pairs: PositivePairs, m_negatives: int, trials: int = 100, seed: int = 0) -> LossValue:
    """Empirical adjusted InfoNCE with M negatives per anchor.

    Negatives are drawn with replacement from the pooled empirical marginal of
    both pair sides (false negatives included, anchors not excluded). The
    expectation over anchors is exact; the expectation over negative draws is
    seeded Monte Carlo averaged over ``trials`` resamplings, or exact
    enumeration when the outcome space is small.
    """
    _check_draws(m_negatives, trials)
    if pairs.n < 2:
        raise ValueError("need at least 2 pairs")
    _require_normalized(pairs.left, pairs.right)

    anchors = pairs.left.values
    pool = np.vstack([pairs.left.values, pairs.right.values])
    scores = anchors @ pool.T  # (n, pool)
    pool_size = scores.shape[1]

    pos_term = -float(np.mean(np.sum(pairs.left.values * pairs.right.values, axis=1)))

    count = pool_size**m_negatives
    if count <= ENUMERATION_LIMIT:
        # Exact expectation over all equiprobable draws, k combinations at a time in
        # itertools.product order. The draws are gathered (n, k, M), reading each score
        # row once per chunk; the log-mean-exp over M and, after a transpose to (k, n),
        # the mean over anchors both reduce a contiguous last axis, and the k means are
        # added one by one: the bits of a loop over the combinations.
        total = 0.0
        for lo, hi in row_tiles(count, pairs.n * m_negatives):
            combos = np.stack(np.unravel_index(np.arange(lo, hi), (pool_size,) * m_negatives), axis=-1)
            per_anchor = np.ascontiguousarray(_log_mean_exp(scores[:, combos]).T)  # (k, n)
            for value in np.mean(per_anchor, axis=-1).tolist():
                total += value
        neg_term = total / count
    else:
        neg_term = _mc_log_mean_exp(scores, m_negatives, trials, seed)

    return LossValue(pos_term + neg_term, components=(pos_term, neg_term))


def mce_adjusted(e: EmbeddingSet, labels: LabelSet) -> LossValue:
    """Adjusted mean-CE loss with empirical class means as classifier weights. Exact."""
    _require_normalized(e)
    means = class_means(e.values, labels)
    scores = e.values @ means.T  # (n, K)
    pos_term = -float(np.mean(scores[np.arange(e.n), labels.labels]))
    neg_term = float(np.mean(_log_mean_exp(scores, axis=1)))
    return LossValue(pos_term + neg_term, components=(pos_term, neg_term))


def mce_negative_term(e: EmbeddingSet, labels: LabelSet) -> float:
    """The negative component of the adjusted mean-CE loss, on its own."""
    return mce_adjusted(e, labels).components[1]


def mc_negative_term(e: EmbeddingSet, labels: LabelSet, m_negatives: int, trials: int = 1, seed: int = 0) -> float:
    """Monte-Carlo estimate of the mean-CE negative term using M uniform class draws.

    For each anchor, M class indices are drawn uniformly and the log of the mean
    exponentiated score against those class centers is taken; this is the
    estimator whose error against :func:`mce_negative_term` shrinks as
    O(M^-1/2) with an explicit e/sqrt(M) cap.
    """
    _check_draws(m_negatives, trials)
    _require_normalized(e)
    scores = e.values @ class_means(e.values, labels).T  # (n, K)
    return _mc_log_mean_exp(scores, m_negatives, trials, seed)


def class_stats(e: EmbeddingSet, labels: LabelSet) -> ClassStats:
    """Per-class mean vectors and the conditional variance E||f(x) - mu_y||^2."""
    _require_normalized(e)
    means = class_means(e.values, labels)
    diffs = e.values - means[labels.labels]
    cond_var = float(np.mean(np.sum(diffs**2, axis=1)))
    return ClassStats(means=means, cond_variance=cond_var)


def alignment_uniformity(pairs: PositivePairs, sample_budget: int = 0, seed: int = 0) -> tuple[float, float]:
    """Mean and max positive-pair feature distance (the empirical epsilon)."""
    _require_normalized(pairs.left, pairs.right)
    left, right = pairs.left.values, pairs.right.values
    if sample_budget and pairs.n > sample_budget:
        rng = np.random.default_rng(seed)
        idx = rng.choice(pairs.n, size=sample_budget, replace=False)
        left, right = left[idx], right[idx]
    dists = np.linalg.norm(left - right, axis=1)
    return float(dists.mean()), float(dists.max())


def label_consistency_alpha(pairs: PositivePairs) -> float:
    """Fraction of positive pairs whose two sides carry different labels."""
    _check_pair_labels(pairs)
    return float(np.mean(pairs.left_labels.labels != pairs.right_labels.labels))

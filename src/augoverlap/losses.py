"""Adjusted InfoNCE / mean-CE losses and the statistics feeding the bound formulas.

Both losses use mean-denominator ("adjusted") form, so their values are
comparable regardless of the number of negatives M or classes K. Temperature
is fixed at 1.

The Monte Carlo estimators (``infonce_adjusted`` above ``ENUMERATION_LIMIT``
and ``mc_negative_term``) stream their scores. They draw the negatives whole
trials at a time, at most ``DRAW_CHUNK_VALUES`` int32 values per chunk, and for
each chunk compute ``anchors @ pool.T`` one row tile at a time (about
``SCORE_TILE_VALUES`` values, at least 2 rows) and gather the chunk's draws from
that tile. They hold the draw chunk, one score tile, one gather block and the
chunk's (trials, n) log-mean-exps, never the n x pool score matrix. A seed
fixes the draws: trial t takes the values ``rng.integers(0, pool, (n, M))``
would give, in trial order, from one generator seeded with ``seed`` (int32
chunks of whole trials give the same values). The per-trial means are
added in trial order, so the result has the bits of a loop over the trials on
the whole score matrix wherever each tile's product has the bits of the same
rows of the whole product. numpy computes a 1-row product with gemv, so tiles
have at least 2 rows, and a product that fits in one tile (every
``mc_negative_term`` call with n*K <= 2^17) is computed whole. OpenBLAS row
tiles of a larger product are not always bit-equal to it. On the repository's
shapes (pools of 1000, 2000 and 4000 rows of width 32) they are, and
tests/test_losses.py compares those estimates with ``==``; elsewhere a score
can move by an ulp, and an estimate by at most the largest score change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TILE_VALUES, EmbeddingSet, LabelSet, PositivePairs, class_means, require_count, require_labels, require_nonnegative, require_normalized, row_tiles, sq_norms

# Exact enumeration of the negative draw replaces Monte Carlo whenever the
# outcome space pool_size**M is at most this many tuples.
ENUMERATION_LIMIT = 4096
# The Monte Carlo estimators draw at most this many negatives (int32) per chunk of
# whole trials, and compute scores in row tiles of about this many values.
DRAW_CHUNK_VALUES = 1 << 21
SCORE_TILE_VALUES = 1 << 17


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
        require_nonnegative(cond_variance=self.cond_variance)


def _log_mean_exp(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    # Scores are bounded in [-1, 1] for unit-norm features, exp never overflows.
    return np.log(np.mean(np.exp(scores), axis=axis))


def _score_tiles(n: int, cols: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of the anchor row tiles of an (n, cols) score matrix: about
    ``SCORE_TILE_VALUES`` values and at least 2 rows each, so a 1-row tail joins the
    tile before it (numpy sends a 1-row product to gemv, whose bits differ)."""
    bounds = list(range(0, n, max(2, SCORE_TILE_VALUES // max(cols, 1))))
    if len(bounds) > 1 and n - bounds[-1] == 1:
        bounds.pop()
    return list(zip(bounds, bounds[1:] + [n]))


def _mc_log_mean_exp(anchors: np.ndarray, pool: np.ndarray, m_negatives: int, trials: int, seed: int) -> float:
    """Seeded Monte Carlo mean over anchors of log-mean-exp over M scores
    ``anchors @ pool.T`` against pool rows drawn uniformly with replacement,
    averaged over ``trials`` draws; streamed as the module docstring describes.

    Within a score tile the draws are gathered a few trials at a time (at most
    ``TILE_VALUES`` values, or one trial of the tile), through flat indices into
    the tile. The log-mean-exp reduces the contiguous M axis and the mean over
    anchors a contiguous row of the (trials, n) chunk, so each reduction has the
    bits of the same reduction in a per-trial loop over the whole matrix."""
    n, cols = anchors.shape[0], pool.shape[0]
    tiles = _score_tiles(n, cols)
    height = max(hi - lo for lo, hi in tiles)
    per_chunk = min(trials, max(1, DRAW_CHUNK_VALUES // (n * m_negatives)))
    per_group = min(per_chunk, max(1, TILE_VALUES // (height * m_negatives)))
    tile_buf = np.empty(height * cols)
    offsets = np.arange(height)[:, None] * cols
    index_buf = np.empty(per_group * height * m_negatives, dtype=np.intp)
    gather_buf = np.empty(index_buf.size)
    per_anchor = np.empty((per_chunk, n))
    rng = np.random.default_rng(seed)
    acc = 0.0
    for start in range(0, trials, per_chunk):
        chunk = per_anchor[: min(per_chunk, trials - start)]
        draws = rng.integers(0, cols, size=(len(chunk), n, m_negatives), dtype=np.int32)
        for lo, hi in tiles:
            np.matmul(anchors[lo:hi], pool.T, out=tile_buf[: (hi - lo) * cols].reshape(hi - lo, cols))
            for g in range(0, len(chunk), per_group):
                rows = chunk[g : g + per_group, lo:hi]
                shape, size = (*rows.shape, m_negatives), rows.size * m_negatives
                index = np.add(draws[g : g + per_group, lo:hi], offsets[: hi - lo], out=index_buf[:size].reshape(shape))
                # every index is in range; "clip" writes into out without the copy "raise" makes
                drawn = np.take(tile_buf, index, out=gather_buf[:size].reshape(shape), mode="clip")
                np.mean(np.exp(drawn, out=drawn), axis=-1, out=rows)
        del draws  # before the next chunk is drawn, so one chunk is alive at a time
        for value in np.mean(np.log(chunk, out=chunk), axis=-1).tolist():
            acc += value
    return acc / trials


def infonce_adjusted(pairs: PositivePairs, m_negatives: int, trials: int = 100, seed: int = 0) -> LossValue:
    """Empirical adjusted InfoNCE with M negatives per anchor.

    Negatives are drawn with replacement from the pooled empirical marginal of
    both pair sides (false negatives included, anchors not excluded). The
    expectation over anchors is exact; the expectation over negative draws is
    seeded Monte Carlo averaged over ``trials`` resamplings, or exact
    enumeration when the outcome space is small.
    """
    require_count(1, m_negatives=m_negatives, trials=trials)
    if pairs.n < 2:
        raise ValueError("need at least 2 pairs")
    require_normalized(pairs.left, pairs.right)

    anchors = pairs.left.values
    pool = np.vstack([pairs.left.values, pairs.right.values])
    pool_size = pool.shape[0]

    pos_term = -float(np.mean(np.sum(pairs.left.values * pairs.right.values, axis=1)))

    count = pool_size**m_negatives
    if count <= ENUMERATION_LIMIT:
        scores = anchors @ pool.T  # (n, pool), at most 64 MB: pool <= ENUMERATION_LIMIT here
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
        neg_term = _mc_log_mean_exp(anchors, pool, m_negatives, trials, seed)

    return LossValue(pos_term + neg_term, components=(pos_term, neg_term))


def mce_adjusted(e: EmbeddingSet, labels: LabelSet) -> LossValue:
    """Adjusted mean-CE loss with empirical class means as classifier weights. Exact."""
    require_normalized(e)
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
    require_count(1, m_negatives=m_negatives, trials=trials)
    require_normalized(e)
    return _mc_log_mean_exp(e.values, class_means(e.values, labels), m_negatives, trials, seed)


def class_stats(e: EmbeddingSet, labels: LabelSet) -> ClassStats:
    """Per-class mean vectors and the conditional variance E||f(x) - mu_y||^2."""
    require_normalized(e)
    means = class_means(e.values, labels)
    cond_var = float(np.mean(sq_norms(e.values - means[labels.labels])))
    return ClassStats(means=means, cond_variance=cond_var)


def alignment_uniformity(pairs: PositivePairs, sample_budget: int = 0, seed: int = 0) -> tuple[float, float]:
    """Mean and max positive-pair feature distance (the empirical epsilon)."""
    require_normalized(pairs.left, pairs.right)
    left, right = pairs.left.values, pairs.right.values
    if sample_budget and pairs.n > sample_budget:
        rng = np.random.default_rng(seed)
        idx = rng.choice(pairs.n, size=sample_budget, replace=False)
        left, right = left[idx], right[idx]
    dists = np.sqrt(sq_norms(left - right))
    return float(dists.mean()), float(dists.max())


def label_consistency_alpha(pairs: PositivePairs) -> float:
    """Fraction of positive pairs whose two sides carry different labels."""
    require_labels(pairs)
    return float(np.mean(pairs.left_labels.labels != pairs.right_labels.labels))

"""Adjusted InfoNCE / mean-CE losses and the statistics feeding the bound formulas.

Both losses use mean-denominator ("adjusted") form, so their values are
comparable regardless of the number of negatives M or classes K. Temperature
is fixed at 1.

One core, ``_mc_log_mean_exp``, computes every negative term that averages over
trials the mean over anchors of a log-mean-exp over M scores ``anchors @ pool.T``.
It walks blocks of ``BLOCK_ROWS`` anchor rows (a 1-row tail joins the block before
it, since numpy sends a 1-row product to gemv, whose bits differ) and computes
each block's scores once: a tile of block rows x pool floats, 2 MB at a pool of
4000, growing with the pool. It takes its draws from a function ``draw(block,
start, k)`` returning a block's trials start..start+k-1 as pool indices that
broadcast to (k, rows, M). Monte Carlo (``infonce_adjusted`` above
``ENUMERATION_LIMIT``, ``mc_negative_term``) gives block b its own generator,
``default_rng(SeedSequence(seed).spawn(blocks)[b])``, whose trial t takes the
values ``rng.integers(0, pool, (rows, M))`` would give, in trial order, however
the trials are grouped: an estimate depends on the seed and ``BLOCK_ROWS`` only.
Exact enumeration (M >= 2, pool**M at most ``ENUMERATION_LIMIT``) is every
combination once, in ``itertools.product`` order, each one trial broadcast to
every block; at M = 1 the exact term is the closed form mean(anchors) . mean(pool).

Blocks add their anchor sums to a (trials,) accumulator in block order; the
estimate adds the per-trial means in trial order, its standard error is their sd
over sqrt(trials). So the result has the bits of a per-block, per-trial loop on
the whole score matrix wherever each block's product has the same rows' bits.
OpenBLAS row blocks are not always bit-equal to the whole product: on
``infonce_adjusted``'s pools of 1000, 2000 and 4000 rows of width 32 they are
(tests/test_losses.py compares with ``==``), on K = 10 class means they are not,
and there an estimate moves by at most the largest score change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EmbeddingSet, LabelSet, PositivePairs, class_means, require_count, require_labels, require_nonnegative, require_normalized, row_tiles, sq_norms

# Exact enumeration of the negative draw replaces Monte Carlo whenever the
# outcome space pool_size**M is at most this many tuples.
ENUMERATION_LIMIT = 4096
# Anchor rows per block of the Monte Carlo core: each block computes its scores
# once and draws from its own stream (a stream costs about 20 us to create).
BLOCK_ROWS = 64


@dataclass(frozen=True)
class LossValue:
    value: float
    components: tuple[float, float] | None = None
    stderr: float | None = 0.0  # Monte Carlo standard error; 0.0 when exact, None from one trial

    def __post_init__(self):
        if self.components is not None:
            pos, neg = self.components
            if not abs(self.value - (pos + neg)) <= 1e-9:  # also fails on a nan value or component
                raise ValueError("loss value does not match its positive+negative decomposition")


@dataclass(frozen=True)
class ClassStats:
    means: np.ndarray  # (K, m) class centers
    cond_variance: float

    def __post_init__(self):
        require_nonnegative(cond_variance=self.cond_variance)


def _anchor_blocks(n: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of the Monte Carlo core's blocks of ``BLOCK_ROWS`` anchor rows;
    a 1-row tail joins the block before it."""
    bounds = list(range(0, n, BLOCK_ROWS))
    if len(bounds) > 1 and n - bounds[-1] == 1:
        bounds.pop()
    return list(zip(bounds, bounds[1:] + [n]))


def _block_streams(seed: int, n: int, cols: int, m_negatives: int):
    """The Monte Carlo ``draw``: block b's trials in trial order from its own generator."""
    blocks = _anchor_blocks(n)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(blocks))]
    return lambda b, start, k: rngs[b].integers(0, cols, (k, blocks[b][1] - blocks[b][0], m_negatives), dtype=np.int32)


def _mc_log_mean_exp(anchors: np.ndarray, pool: np.ndarray, m_negatives: int, trials: int, draw) -> tuple[float, float | None]:
    """Mean over ``trials`` trials of the mean over anchors of log-mean-exp over M
    scores ``anchors @ pool.T`` at the pool rows ``draw(block, start, k)`` returns,
    and its standard error (None from one trial), as the module docstring describes.

    A block's draws are gathered a group of trials at a time, ``data.row_tiles(trials,
    height * M)``, through flat indices into its tile. The log-mean-exp reduces the
    contiguous M axis and the anchor sum a contiguous row, so each has the bits of
    the same reduction in a per-trial loop over the block."""
    n, cols = anchors.shape[0], pool.shape[0]
    blocks = _anchor_blocks(n)
    height = max(hi - lo for lo, hi in blocks)
    groups = row_tiles(trials, height * m_negatives)  # the first is the largest
    tile = np.empty(height * cols)
    offsets = np.arange(height)[:, None] * cols
    index_buf = np.empty(groups[0][1] * height * m_negatives, dtype=np.intp)
    gather_buf = np.empty(index_buf.size)
    lme_buf = np.empty(groups[0][1] * height)
    sums = np.zeros(trials)
    for b, (lo, hi) in enumerate(blocks):
        np.matmul(anchors[lo:hi], pool.T, out=tile[: (hi - lo) * cols].reshape(hi - lo, cols))
        for start, stop in groups:
            shape = (stop - start, hi - lo, m_negatives)
            size = shape[0] * shape[1] * m_negatives
            index = np.add(draw(b, start, shape[0]), offsets[: hi - lo], out=index_buf[:size].reshape(shape))
            # every index is in range; "clip" writes into out without the copy "raise" makes
            drawn = np.take(tile, index, out=gather_buf[:size].reshape(shape), mode="clip")
            lme = np.mean(np.exp(drawn, out=drawn), axis=-1, out=lme_buf[: size // m_negatives].reshape(shape[:2]))
            sums[start : start + shape[0]] += np.sum(np.log(lme, out=lme), axis=-1)
    means = np.divide(sums, n, out=sums)
    acc = 0.0
    for value in means.tolist():
        acc += value
    return acc / trials, (float(np.std(means, ddof=1) / np.sqrt(trials)) if trials > 1 else None)


def infonce_adjusted(pairs: PositivePairs, m_negatives: int, trials: int = 100, seed: int = 0) -> LossValue:
    """Empirical adjusted InfoNCE with M negatives per anchor.

    Negatives are drawn with replacement from the pooled empirical marginal of
    both pair sides (false negatives included, anchors not excluded). The
    expectation over anchors is exact; the expectation over negative draws is
    seeded Monte Carlo averaged over ``trials`` resamplings or, when the
    outcome space is small, exact: the closed form at M = 1, every combination
    once at M >= 2.
    """
    require_count(1, m_negatives=m_negatives, trials=trials)
    require_count(2, n=pairs.n)
    require_normalized(pairs.left, pairs.right)

    anchors = pairs.left.values
    pool = np.vstack([pairs.left.values, pairs.right.values])
    pool_size = pool.shape[0]

    pos_term = -float(np.mean(np.sum(pairs.left.values * pairs.right.values, axis=1)))

    count, stderr = pool_size**m_negatives, 0.0
    if count <= ENUMERATION_LIMIT and m_negatives == 1:
        neg_term = float(anchors.mean(axis=0) @ pool.mean(axis=0))  # log-mean-exp of one score is the score
    elif count <= ENUMERATION_LIMIT:
        combos = np.stack(np.unravel_index(np.arange(count), (pool_size,) * m_negatives), axis=-1)  # product order
        neg_term = _mc_log_mean_exp(anchors, pool, m_negatives, count, lambda b, start, k: combos[start : start + k, None])[0]
    else:
        draw = _block_streams(seed, pairs.n, pool_size, m_negatives)
        neg_term, stderr = _mc_log_mean_exp(anchors, pool, m_negatives, trials, draw)

    return LossValue(pos_term + neg_term, components=(pos_term, neg_term), stderr=stderr)


def mce_adjusted(e: EmbeddingSet, labels: LabelSet) -> LossValue:
    """Adjusted mean-CE loss with empirical class means as classifier weights. Exact."""
    require_normalized(e)
    means = class_means(e.values, labels)
    scores = e.values @ means.T  # (n, K)
    pos_term = -float(np.mean(scores[np.arange(e.n), labels.labels]))
    neg_term = float(np.mean(np.log(np.mean(np.exp(scores), axis=1))))  # scores lie in [-1, 1], exp never overflows
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
    draw = _block_streams(seed, e.n, labels.k, m_negatives)
    return _mc_log_mean_exp(e.values, class_means(e.values, labels), m_negatives, trials, draw)[0]


def class_stats(e: EmbeddingSet, labels: LabelSet) -> ClassStats:
    """Per-class mean vectors and the conditional variance E||f(x) - mu_y||^2."""
    require_normalized(e)
    means = class_means(e.values, labels)
    cond_var = float(np.mean(sq_norms(e.values - means[labels.labels])))
    return ClassStats(means=means, cond_variance=cond_var)


def alignment_uniformity(pairs: PositivePairs) -> tuple[float, float]:
    """Mean and max positive-pair feature distance over every pair (the max is the
    empirical epsilon)."""
    require_normalized(pairs.left, pairs.right)
    dists = np.sqrt(sq_norms(pairs.left.values - pairs.right.values))
    return float(dists.mean()), float(dists.max())


def label_consistency_alpha(pairs: PositivePairs) -> float:
    """Fraction of positive pairs whose two sides carry different labels."""
    require_labels(pairs)
    return float(np.mean(pairs.left_labels.labels != pairs.right_labels.labels))

"""Unsupervised representation-quality metrics: confusion ratios (ACR/ARC),
their generalized statistic-selector variants (GACR/GARC), Pearson correlation
and the conditional-independence ratio diagnostic.

Conventions: ties d_out = d_in count as confusion; the intra-anchor multiset
excludes the zero self-distance; the plain confusion ratio uses unsquared
distances while the generalized one uses squared distances. Both come from one
core, ``_confusions``: ACR is GACR(max, min, 1) with ``sqrt`` applied to the two
reduced per-view statistics, which gives the bits of the full distance matrix's
``sqrt`` because ``sqrt`` is monotone and correctly rounded. The core reduces
any number of configurations over one distance matrix, so
:func:`confusion_ratios` gives ACR and several GACR variants of one view set
for the cost of one matrix.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import PositivePairs, ViewSet, require_labels, require_normalized, sq_distances
from .errors import UndefinedMetricError

STATS = {
    "min": np.min,
    "max": np.max,
    "mean": np.mean,
    "median": np.median,
}


@dataclass(frozen=True)
class MetricConfig:
    a1: str = "max"  # intra-anchor statistic
    a2: str = "min"  # inter-anchor statistic
    k: int = 1  # k-th smallest inter-anchor distance wins the comparison

    def __post_init__(self):
        if self.a1 not in STATS or self.a2 not in STATS:
            raise ValueError(f"statistics must be one of {sorted(STATS)}")
        if self.k < 1:
            raise ValueError("k must be >= 1")


def _confusions(views: ViewSet, cfgs: Sequence[MetricConfig]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per config, as two (n, c) arrays: the k-th smallest foreign-anchor statistic
    ``a2`` and the sibling statistic ``a1`` of the squared distances, all reduced
    from one distance matrix. It is exactly symmetric, so anchor j's statistic for
    view (i, a) reduces anchor j's views over axis 1 rather than over the
    contiguous last axis (a mean over 8 or more views is then summed in view
    order, not numpy's blocked pairwise order)."""
    n, c = views.n, views.c
    if n < 2:
        raise ValueError("need at least 2 anchors")
    if c < 2:
        raise ValueError("need at least 2 views per anchor")
    for cfg in cfgs:
        if cfg.k > n - 1:
            raise ValueError(f"k={cfg.k} exceeds the {n - 1} available foreign anchors")
    d4 = sq_distances(views.values).reshape(n, c, n, c)
    anchors = np.arange(n)
    siblings = d4[anchors, :, anchors][:, ~np.eye(c, dtype=bool)].reshape(n, c, c - 1)  # self term excluded
    out = [None] * len(cfgs)
    for a2 in dict.fromkeys(cfg.a2 for cfg in cfgs):  # one (n, n, c) reduction alive at a time
        foreign = STATS[a2](d4, axis=1)  # (n_j, n_i, c)
        foreign[anchors, anchors] = np.inf  # the own anchor never ranks among the k nearest
        for i, cfg in enumerate(cfgs):
            if cfg.a2 == a2:
                kth = foreign.min(axis=0) if cfg.k == 1 else np.partition(foreign, cfg.k - 1, axis=0)[cfg.k - 1]
                out[i] = kth, STATS[cfg.a1](siblings, axis=-1)
    return out


def _acr(d_out: np.ndarray, d_in: np.ndarray) -> float:
    return float(np.mean(np.sqrt(d_out) <= np.sqrt(d_in)))


def _gacr(kth: np.ndarray, d_in: np.ndarray) -> float:
    return float(np.mean(kth <= d_in))


def acr(views: ViewSet) -> float:
    """Fraction of views whose closest foreign view is at least as close as
    their farthest sibling view."""
    return _acr(*_confusions(views, [MetricConfig()])[0])


def confusion_ratios(views: ViewSet, cfgs: Sequence[MetricConfig]) -> tuple[float, list[float]]:
    """``acr(views)`` and ``gacr(views, cfg)`` for each config in ``cfgs``, with
    the same bits, from one distance matrix."""
    first, *rest = _confusions(views, [MetricConfig(), *cfgs])
    return _acr(*first), [_gacr(*pair) for pair in rest]


def _relative(final: float, init: float, message: str) -> float:
    if init >= 1.0:
        raise UndefinedMetricError(message)
    return (1.0 - final) / (1.0 - init)


def arc(acr_final: float, acr_init: float) -> float:
    """Relative confusion (1 - ACR_final) / (1 - ACR_init)."""
    return _relative(acr_final, acr_init, "initial confusion ratio is 1, relative confusion undefined")


def gacr(views: ViewSet, cfg: MetricConfig = MetricConfig()) -> float:
    """Generalized confusion ratio with statistic selectors and k-th-smallest
    inter-anchor comparison."""
    return _gacr(*_confusions(views, [cfg])[0])


def relative_gacr(gacr_final: float, gacr_init: float) -> float:
    """Generalized relative confusion (1 - GACR_final) / (1 - GACR_init)."""
    return _relative(gacr_final, gacr_init, "initial generalized confusion ratio is 1, relative value undefined")


def garc(final_views: ViewSet, init_views: ViewSet, cfg: MetricConfig = MetricConfig()) -> float:
    """Generalized relative confusion between a final and an initial encoder's views."""
    return relative_gacr(gacr(final_views, cfg), gacr(init_views, cfg))


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length 1-D sequences of length >= 2")
    xc, yc = x - x.mean(), y - y.mean()
    denom = np.sqrt(np.sum(xc**2) * np.sum(yc**2))
    if denom == 0.0:
        raise UndefinedMetricError("zero variance, correlation undefined")
    return float(np.sum(xc * yc) / denom)


def ci_ratio(pairs: PositivePairs) -> float:
    """Mean estimated ratio p(x, x+|y) / (p(x|y) p(x+|y)) from feature similarities.

    Per class, the exponentiated similarities exp(f(x_a) . f(x_b+)) over all
    (anchor, positive) combinations of the class form an estimated joint
    distribution once divided by their total mass (the exp keeps every weight
    positive, matching the loss's exponential scoring); a pair's joint is its
    own weight under that normalization, and the marginals are the row/column
    sums (the anchor's own pair included). Using one common normalizer is what
    makes the ratio land at 1 when the two sides really are conditionally
    independent given the class. Values near 1 therefore indicate conditional
    independence; tightly coupled pairs push the ratio above 1.
    """
    require_labels(pairs)
    require_normalized(pairs.left, pairs.right)
    labels = pairs.left_labels.labels
    left, right = pairs.left.values, pairs.right.values
    ratios = []
    for k in range(pairs.left_labels.k):
        mask = labels == k
        if mask.sum() < 2:
            raise UndefinedMetricError(f"class {k} has fewer than 2 pairs")
        lk, rk = left[mask], right[mask]
        weights = np.exp(lk @ rk.T)  # weights[a, b] ~ joint mass of (x_a, x_b+)
        total = float(weights.sum())
        marg_left = weights.sum(axis=1)  # per anchor, summed over class positives
        marg_right = weights.sum(axis=0)  # per positive, summed over class anchors
        ratios.append(np.diag(weights) * total / (marg_left * marg_right))
    return float(np.mean(np.concatenate(ratios)))

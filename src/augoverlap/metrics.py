"""Unsupervised representation-quality metrics: confusion ratios (ACR/ARC),
their generalized statistic-selector variants (GACR/GARC), Pearson correlation
and the conditional-independence ratio diagnostic.

Conventions: ties d_out = d_in count as confusion; the intra-anchor multiset
excludes the zero self-distance; the plain confusion ratio uses unsquared
distances while the generalized one uses squared distances (the two orderings
coincide, so GACR(max, min, 1) reduces to ACR exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PositivePairs, ViewSet, sq_distances
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


def _check_views(views: ViewSet) -> None:
    if views.n < 2:
        raise ValueError("need at least 2 anchors")
    if views.c < 2:
        raise ValueError("need at least 2 views per anchor")


def acr(views: ViewSet) -> float:
    """Fraction of views whose closest foreign view is at least as close as
    their farthest sibling view."""
    _check_views(views)
    n, c = views.n, views.c
    dist = np.sqrt(sq_distances(views.values))
    anchor_of = np.repeat(np.arange(n), c)
    same = anchor_of[:, None] == anchor_of[None, :]
    d_in = np.where(same, dist, -np.inf).max(axis=1)
    d_out = np.where(same, np.inf, dist).min(axis=1)
    return float(np.mean(d_out <= d_in))


def arc(acr_final: float, acr_init: float) -> float:
    """Relative confusion (1 - ACR_final) / (1 - ACR_init)."""
    if acr_init >= 1.0:
        raise UndefinedMetricError("initial confusion ratio is 1, relative confusion undefined")
    return (1.0 - acr_final) / (1.0 - acr_init)


def gacr(views: ViewSet, cfg: MetricConfig = MetricConfig()) -> float:
    """Generalized confusion ratio with statistic selectors and k-th-smallest
    inter-anchor comparison."""
    _check_views(views)
    if cfg.k > views.n - 1:
        raise ValueError(f"k={cfg.k} exceeds the {views.n - 1} available foreign anchors")
    n, c = views.n, views.c
    d2 = sq_distances(views.values).reshape(n, c, n, c)
    anchors = np.arange(n)
    own = d2[anchors, :, anchors]  # (n, c, c): distances among one anchor's views
    siblings = own[:, ~np.eye(c, dtype=bool)].reshape(n, c, c - 1)  # self term excluded
    d_in = STATS[cfg.a1](siblings, axis=-1)
    per_anchor = STATS[cfg.a2](d2, axis=-1)  # (n, c, n)
    per_anchor[anchors, :, anchors] = np.inf  # the own anchor never ranks among the k nearest
    kth = np.partition(per_anchor, cfg.k - 1, axis=-1)[..., cfg.k - 1]
    return float(np.mean(kth <= d_in))


def garc(final_views: ViewSet, init_views: ViewSet, cfg: MetricConfig = MetricConfig()) -> float:
    """Generalized relative confusion between a final and an initial encoder's views."""
    g_init = gacr(init_views, cfg)
    if g_init >= 1.0:
        raise UndefinedMetricError("initial generalized confusion ratio is 1, relative value undefined")
    return (1.0 - gacr(final_views, cfg)) / (1.0 - g_init)


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
    if not pairs.labeled:
        raise ValueError("ci_ratio needs labels on both sides")
    if not (pairs.left.normalized and pairs.right.normalized):
        raise ValueError("embeddings must be normalized")
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

"""Unsupervised representation-quality metrics: confusion ratios (ACR/ARC),
their generalized statistic-selector variants (GACR/GARC), Pearson correlation
and the conditional-independence ratio diagnostic.

Conventions: ties d_out = d_in count as confusion; the intra-anchor multiset
excludes the zero self-distance; the plain confusion ratio uses unsquared
distances while the generalized one uses squared distances. Both come from one
core, ``_confusions``: ACR is GACR(max, min, 1) with ``sqrt`` applied to the two
reduced per-view statistics, which gives the bits of the distances' ``sqrt``
because ``sqrt`` is monotone and correctly rounded. The core walks the anchor tiles
``data.row_tiles(n, c, data.pair_rows())``, about 1 MB of distances per tile pair,
and computes each distance once, so its memory does not grow with (n c)^2. It
reduces any number of configurations over the same tiles, so :func:`confusion_ratios`
gives ACR and several GACR variants of one view set for the cost of one pass.

Rows of width <= 3 and integer-valued rows give the bits of one whole distance
matrix. On wider float rows a tile off the diagonal is a general product, not
the whole matrix's symmetric one, so a squared distance, and each statistic, may
move by a few ulp of the largest squared row norm (at most 11 ulp measured on
encoder features; tested within 2^-43 of it); a view's confusion can then
differ only where its two statistics tie within that tolerance.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import PositivePairs, ViewSet, pair_rows, require_count, require_labels, require_normalized, row_tiles, sq_distances
from .errors import UndefinedMetricError

# Cap on the bytes of the confusion core's running k-nearest arrays, n * c * k
# float64 values per distinct inter-anchor statistic (40 MB at n=1000, c=5, k=999).
NEAREST_BYTES = 1 << 28

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
        require_count(1, k=self.k)


def _over_views(d: np.ndarray, stat: str) -> np.ndarray:
    """``STATS[stat]`` over the last axis of ``d``, one view slice at a time: a mean
    is summed in view order, as numpy's reduction over an outer axis sums it."""
    if stat == "median":
        return np.median(d, axis=-1)
    acc = d[..., 0].copy()
    ufunc = {"min": np.minimum, "max": np.maximum, "mean": np.add}[stat]
    for b in range(1, d.shape[-1]):
        ufunc(acc, d[..., b], out=acc)
    if stat == "mean":
        acc /= d.shape[-1]
    return acc


def _merge(nearest: np.ndarray, candidates: np.ndarray) -> None:
    """Keep in ``nearest`` (rows, c, k) the k smallest, per view, of its own values and
    those of ``candidates`` (rows, c, m), partitioning their concatenation in place."""
    k = nearest.shape[-1]
    if k == 1:
        np.minimum(nearest[..., 0], candidates.min(axis=-1), out=nearest[..., 0])
    else:
        merged = np.concatenate([nearest, candidates], axis=-1)
        merged.partition(k - 1, axis=-1)
        nearest[...] = merged[..., :k]


def _confusions(views: ViewSet, cfgs: Sequence[MetricConfig]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per config, as two (n, c) arrays: the k-th smallest foreign-anchor statistic
    ``a2`` and the sibling statistic ``a1`` of the squared distances.

    The core walks the pairs (I, J), I <= J, of the tiles ``data.row_tiles(n, c,
    data.pair_rows())``; each makes one ``sq_distances`` call: the square form on the
    diagonal, so its own anchors' blocks are exactly symmetric, and the rectangular
    form off it. Each distance is computed once and feeds both directions: anchor i's
    statistic for J's views reduces over axis 1, anchor j's statistic for I's views
    over J's view slices in view order, so both sum a mean in view order (not numpy's
    blocked pairwise order over 8 or more adjacent values). Each view keeps a running
    array of its k smallest foreign statistics per ``a2``; the siblings come from the
    diagonal tiles and are reduced in view order too."""
    n, c = views.n, views.c
    if n < 2:
        raise ValueError("need at least 2 anchors")
    if c < 2:
        raise ValueError("need at least 2 views per anchor")
    k_max = {}
    for cfg in cfgs:
        if cfg.k > n - 1:
            raise ValueError(f"k={cfg.k} exceeds the {n - 1} available foreign anchors")
        k_max[cfg.a2] = max(k_max.get(cfg.a2, 0), cfg.k)
    size = 8 * n * c * sum(k_max.values())
    if size > NEAREST_BYTES:
        ks = "+".join(map(str, k_max.values()))
        raise ValueError(f"the k-nearest arrays for n={n}, c={c}, k={ks} would take {size} bytes, over the {NEAREST_BYTES}-byte cap")
    nearest = {a2: np.full((n, c, k), np.inf) for a2, k in k_max.items()}
    siblings = np.empty((n, c, c - 1))
    off_diagonal = ~np.eye(c, dtype=bool)  # the self term is excluded
    tiles = row_tiles(n, c, pair_rows())
    for t, (lo, hi) in enumerate(tiles):
        rows = views.values[lo * c : hi * c]
        own = np.arange(hi - lo)
        for lo2, hi2 in tiles[t:]:
            if lo2 == lo:
                d4 = sq_distances(rows).reshape(hi - lo, c, hi - lo, c)
                siblings[lo:hi] = d4[own, :, own][:, off_diagonal].reshape(hi - lo, c, c - 1)
            else:
                d4 = sq_distances(rows, views.values[lo2 * c : hi2 * c]).reshape(hi - lo, c, hi2 - lo2, c)
            for a2, near in nearest.items():
                theirs = STATS[a2](d4, axis=1)  # (i, j, b): anchor i's statistic for view (j, b)
                if lo2 == lo:
                    theirs[own, own] = np.inf  # the own anchor never ranks among the k nearest
                else:
                    _merge(near[lo:hi], _over_views(d4, a2))  # (i, a, j): anchor j's statistic for view (i, a)
                _merge(near[lo2:hi2], theirs.transpose(1, 2, 0))
    result = []
    for cfg in cfgs:  # in place: each row keeps its multiset, so a later k of the same a2 stays exact
        nearest[cfg.a2].partition(cfg.k - 1, axis=-1)
        result.append((nearest[cfg.a2][..., cfg.k - 1].copy(), _over_views(siblings, cfg.a1)))
    return result


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
    the same bits, from one pass over the anchor tiles: each distance is computed
    once (see the module docstring for the tolerance on wide rows)."""
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
    """Sample Pearson correlation coefficient of two finite sequences."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length 1-D sequences of length >= 2")
    for name, v in (("xs", x), ("ys", y)):
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"{name} value {v[bad[0]]} at index {bad[0]} is not finite")
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

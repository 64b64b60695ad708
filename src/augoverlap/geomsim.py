"""Random-geometric machinery: cap sampling on the sphere, uniform-cube
augmentation noise, closed-form overlap thresholds, and one Prim pass per
sample (``mst_trials``), in O(n) memory, from which empirical regime detection
and the CLI's connectivity sweep read every statistic and radius.

The closed forms use the gamma-function reading of the factorials, x! =
Gamma(x + 1), which is the only consistent interpretation for the non-integer
arguments (1/d)! and (d/2)!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EmbeddingSet, LabelSet, ViewSet, checked_matrix, require_count, require_nonnegative, sq_distances, unit_rows

INF = math.inf


def _require_area(area: float) -> None:
    if not 0.0 < area < INF:
        raise ValueError(f"area must be > 0 and finite, got {area}")


@dataclass(frozen=True)
class GeomConfig:
    d: int
    n: int
    area: float  # surface area / volume of the sampling region (per class)
    class_centers: np.ndarray | None = None  # (K, 3) unit vectors, sphere case only
    noise_r: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require_count(1, d=self.d)
        require_count(2, n=self.n)
        _require_area(self.area)
        require_nonnegative(noise_r=self.noise_r)
        if self.class_centers is not None:
            centers = checked_matrix(self.class_centers, "class center", normalized=True)
            if centers.shape[1] != self.d:
                raise ValueError(f"class_centers must have d={self.d} columns, got {centers.shape[1]}")
            object.__setattr__(self, "class_centers", centers)


@dataclass(frozen=True)
class ThresholdReport:
    r1: float
    r2: float
    r3: float
    r_mc_closed: float
    r_mc_empirical: float
    regime: str


def _rotation_to(center: np.ndarray) -> np.ndarray:
    """Rotation matrix taking the north pole e_z onto the given unit vector."""
    ez = np.array([0.0, 0.0, 1.0])
    c = float(ez @ center)
    if c > 1.0 - 1e-12:
        return np.eye(3)
    if c < -1.0 + 1e-12:
        return np.diag([1.0, -1.0, -1.0])
    v = np.cross(ez, center)
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def sample_caps(cfg: GeomConfig) -> tuple[EmbeddingSet, LabelSet]:
    """Uniform samples from spherical caps of area ``cfg.area`` on the unit sphere in R^3.

    Each class contributes n/K points from the cap centered at its class
    center; the cap is sampled by a uniform z-coordinate after rotating the
    center onto the pole.
    """
    if cfg.d != 3:
        raise ValueError(f"cap sampling is defined for the d=3 sphere case, got {cfg.d}")
    if cfg.class_centers is None:
        raise ValueError("cap sampling requires class centers")
    if cfg.area > 2.0 * math.pi + 1e-12:
        raise ValueError(f"cap area must not exceed a hemisphere (2*pi), got {cfg.area}")
    centers = cfg.class_centers
    k = centers.shape[0]
    if cfg.n < k:
        raise ValueError(f"cap sampling needs a point per class center: n={cfg.n} points for {k} centers")
    rng = np.random.default_rng(cfg.seed)
    counts = [cfg.n // k + (i < cfg.n % k) for i in range(k)]

    points, labels = [], []
    z_low = 1.0 - cfg.area / (2.0 * math.pi)
    for ki, count in enumerate(counts):
        z = rng.uniform(z_low, 1.0, size=count)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=count)
        rho = np.sqrt(np.maximum(1.0 - z**2, 0.0))
        local = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
        points.append(local @ _rotation_to(centers[ki]).T)
        labels.append(np.full(count, ki, dtype=np.int64))
    values = unit_rows(np.vstack(points))
    return EmbeddingSet(values, normalized=True), LabelSet(np.concatenate(labels), k=k)


def sample_flat(cfg: GeomConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from a d-dimensional cube of volume ``cfg.area``."""
    side = cfg.area ** (1.0 / cfg.d)
    return rng.uniform(0.0, side, size=(cfg.n, cfg.d))


def nn_distance_closed_form(k: int, d: int, area: float, n: int) -> float:
    """Closed-form expectation of the k-th nearest-neighbor distance for n
    uniform points over a region of measure ``area`` (leading-order expansion)."""
    require_count(3, n=n)
    require_count(1, d=d, k=k)
    if k > n - 1:
        raise ValueError(f"k must be at most n - 1, got k={k} for n={n}")
    _require_area(area)
    prefactor = math.gamma(d / 2.0 + 1.0) ** (1.0 / d) / math.sqrt(math.pi)
    ratio = math.exp(math.lgamma(k + 1.0 / d) - math.lgamma(float(k)))
    correction = 1.0 - (1.0 / d + 1.0 / d**2) / (2.0 * (n - 1))
    return prefactor * ratio * (area / (n - 1)) ** (1.0 / d) * correction


def unit_ball_volume(d: int) -> float:
    require_count(1, d=d)
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def connectivity_radius_closed_form(d: int, area: float, n: int) -> float:
    """Asymptotic minimal augmentation strength for a connected graph."""
    require_count(2, d=d)
    require_count(1, n=n)
    _require_area(area)
    return (2.0 * (1.0 - 1.0 / d) * area * math.log(n) / (unit_ball_volume(d) * n**2)) ** (1.0 / d)


def min_center_halfdistance(centers: np.ndarray | None) -> float:
    if centers is None or centers.shape[0] < 2:
        return INF
    d2 = sq_distances(centers)
    np.fill_diagonal(d2, INF)
    return 0.5 * math.sqrt(float(d2.min()))


def classify_regime(noise_r: float, r1: float, r2: float, r3: float) -> str:
    if noise_r >= r3:
        return "over"
    if noise_r < r1:
        return "no_overlap"
    if noise_r >= r2:
        return "full"
    return "intermediate"


def _sample_points(cfg: GeomConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.d == 3 and cfg.class_centers is not None:
        # one class worth of cap samples; regime analysis is intra-class
        sub = GeomConfig(d=3, n=cfg.n, area=cfg.area, class_centers=cfg.class_centers[:1], seed=int(rng.integers(2**31)))
        emb, _ = sample_caps(sub)
        return emb.values
    return sample_flat(cfg, rng)


def _nn_far_mst(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per point, the nearest- and farthest-neighbor distance, and the n - 1 minimum
    spanning tree edges in Prim's order (from point 0): a point's distance row is
    computed once, when it joins the tree. Rows wider than 3 lie within the library's
    wide-row tolerance of the whole distance matrix (notes/decisions.md)."""
    n = points.shape[0]
    nn, far, joins = np.empty(n), np.empty(n), np.empty(n)  # joins[0] is the root's 0
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, INF)  # distance from the tree to each point outside it
    best[0] = 0.0
    for i in range(n):
        v = int(np.argmin(best))
        joins[i] = best[v]
        in_tree[v] = True
        row = sq_distances(points[v : v + 1], points)[0]
        np.sqrt(row, out=row)
        row[v] = INF
        nn[v] = row.min()
        row[v] = -INF
        far[v] = row.max()
        np.minimum(best, row, out=best)
        best[in_tree] = INF
    return nn, far, joins[1:]


def longest_mst_edge(points: np.ndarray) -> float:
    """Exact connectivity radius of one sample: the longest minimum-spanning-tree
    edge, by one Prim pass in O(n) memory. ``points`` must be a finite matrix of at
    least 2 rows; a float64 C-contiguous one is marked read-only."""
    points = checked_matrix(points, "point", normalized=False)
    n = points.shape[0]
    if n < 2:
        raise ValueError(f"longest_mst_edge needs at least 2 points, got n={n}")
    return float(_nn_far_mst(points)[2].max())


def mst_trials(cfg: GeomConfig, trials: int):
    """``trials`` samples of ``cfg`` from the stream ``default_rng(cfg.seed)``, each
    yielded as (points, nn, far, edges) from one Prim pass over its points (see
    ``_nn_far_mst``). ``trials`` is checked at the call; the samples are drawn as
    they are read. On one-view points the r-graph has n - #(edges <= r) components
    (Penrose 1997), exactly on rows of width <= 3."""
    require_count(1, trials=trials)
    rng = np.random.default_rng(cfg.seed)
    return ((points, *_nn_far_mst(points)) for points in (_sample_points(cfg, rng) for _ in range(trials)))


def empirical_regime(cfg: GeomConfig, trials: int = 1) -> ThresholdReport:
    """Simulate samples, estimate the nearest/farthest-neighbor statistics and
    the exact connectivity radius, and classify ``cfg.noise_r``. Each trial reads
    them from one Prim pass over its points (``mst_trials``: O(n) memory, no n x n
    matrix).

    Returned fields: r1/r2 are trial means of the per-point nearest- and
    farthest-neighbor distances (the empirical counterparts of the closed
    forms), r_mc_empirical is the trial-mean longest MST edge, and the regime
    uses the strict isolation (min pairwise) and completeness (max pairwise)
    radii.
    """
    samples = mst_trials(cfg, trials)  # checks trials before anything is allocated
    per_trial = np.empty((5, trials))  # mean nn, mean far, closest pair, farthest pair, longest MST edge
    for t, (_, nn, far, edges) in enumerate(samples):
        per_trial[:, t] = nn.mean(), far.mean(), nn.min(), far.max(), edges.max()
    r1, r2, closest, farthest, r_mc = per_trial.mean(axis=1).tolist()
    r3 = min_center_halfdistance(cfg.class_centers)
    r_mc_closed = connectivity_radius_closed_form(cfg.d, cfg.area, cfg.n) if cfg.d >= 2 else math.nan
    regime = classify_regime(cfg.noise_r, closest, farthest, r3)
    return ThresholdReport(r1=r1, r2=r2, r3=r3, r_mc_closed=r_mc_closed, r_mc_empirical=r_mc, regime=regime)


def augment(points: EmbeddingSet, r: float, count: int, seed: int = 0) -> ViewSet:
    """``count`` views per anchor, each anchor plus one-sided uniform cube noise.

    Noise is r times a U(0,1)^d base draw, so runs with the same seed share
    the base noise across different strengths. Views are not re-projected
    onto the sphere.
    """
    require_nonnegative(r=r)
    require_count(1, count=count)
    rng = np.random.default_rng(seed)
    base = rng.random((points.n, count, points.m))
    views = points.values[:, None, :] + r * base
    return ViewSet(views.reshape(points.n * count, points.m), n=points.n, c=count)

"""Random-geometric machinery: cap sampling on the sphere, uniform-cube
augmentation noise, closed-form overlap thresholds and empirical regime
detection.

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
        if not 0.0 < self.area < INF:
            raise ValueError(f"area must be > 0 and finite, got {self.area}")
        require_nonnegative(noise_r=self.noise_r)
        if self.class_centers is not None:
            centers = checked_matrix(np.atleast_2d(self.class_centers), "class center", normalized=True)
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
    rng = np.random.default_rng(cfg.seed)
    per_class = cfg.n // k
    counts = [per_class + (1 if i < cfg.n - per_class * k else 0) for i in range(k)]

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


def _prim(dist: np.ndarray) -> float:
    """Longest MST edge of a dense distance matrix (diagonal ignored) by Prim."""
    n = dist.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, INF)  # distance from the tree to each vertex outside it
    v, longest = 0, 0.0
    for _ in range(n - 1):
        in_tree[v] = True
        np.minimum(best, dist[v], out=best)
        best[in_tree] = INF
        v = int(np.argmin(best))
        longest = max(longest, float(best[v]))
    return longest


def longest_mst_edge(points: np.ndarray) -> float:
    """Exact connectivity radius of one sample: the longest minimum-spanning-tree
    edge, found by dense Prim over the pairwise distance matrix."""
    n = points.shape[0]
    if n < 2:
        raise ValueError(f"longest_mst_edge needs at least 2 points, got n={n}")
    dist = sq_distances(points)
    return _prim(np.sqrt(dist, out=dist))


def empirical_regime(cfg: GeomConfig, trials: int = 1) -> ThresholdReport:
    """Simulate samples, estimate the nearest/farthest-neighbor statistics and
    the exact connectivity radius, and classify ``cfg.noise_r``.

    Returned fields: r1/r2 are trial means of the per-point nearest- and
    farthest-neighbor distances (the empirical counterparts of the closed
    forms), r_mc_empirical is the trial-mean longest MST edge, and the regime
    uses the strict isolation (min pairwise) and completeness (max pairwise)
    radii.
    """
    require_count(1, trials=trials)
    rng = np.random.default_rng(cfg.seed)
    nn_means, far_means, mins, maxes, r_mcs = [], [], [], [], []
    for _ in range(trials):
        pts = _sample_points(cfg, rng)
        dist = sq_distances(pts)
        np.sqrt(dist, out=dist)
        np.fill_diagonal(dist, INF)
        nn = dist.min(axis=1)
        np.fill_diagonal(dist, -INF)
        far = dist.max(axis=1)
        nn_means.append(float(nn.mean()))
        far_means.append(float(far.mean()))
        mins.append(float(nn.min()))
        maxes.append(float(far.max()))
        r_mcs.append(_prim(dist))
    r3 = min_center_halfdistance(cfg.class_centers)
    regime = classify_regime(cfg.noise_r, float(np.mean(mins)), float(np.mean(maxes)), r3)
    r_mc_closed = connectivity_radius_closed_form(cfg.d, cfg.area, cfg.n) if cfg.d >= 2 else math.nan
    return ThresholdReport(
        r1=float(np.mean(nn_means)),
        r2=float(np.mean(far_means)),
        r3=r3,
        r_mc_closed=r_mc_closed,
        r_mc_empirical=float(np.mean(r_mcs)),
        regime=regime,
    )


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

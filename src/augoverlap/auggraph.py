"""Augmentation graphs over anchors: construction, per-class connectivity,
diameters and adjacency spectra.

An edge (i, j) exists when the closest pair of views of anchors i and j is
within the threshold (euclidean metric) or at least as similar as the
threshold (cosine metric). The threshold is recorded on the graph so runs
stay comparable. Distances come from ``data.sq_distances``, whose bits do not
depend on the call shape for views of width <= 3, so one-view anchors are
connected at threshold ``geomsim.longest_mst_edge(points)``. ``build_graph`` writes whole
anchor blocks into one n x n matrix, sets inf on and below its diagonal by one mask, scores it in place.

Every graph quantity is computed from one representation, the dense boolean
adjacency returned by ``AugGraph.neighbors()``: components by a frontier
sweep, per-class diameters and bipartiteness by an all-source
level-synchronous BFS, and per-class spectra by ``numpy.linalg.eigh``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import TILE_VALUES, LabelSet, ViewSet, require_normalized, sq_distances
from .errors import DegenerateInputError

INF = math.inf


@dataclass(frozen=True)
class AugGraph:
    n: int
    edges: frozenset  # frozenset of (i, j) tuples with i < j
    threshold: float
    metric: str
    scores: np.ndarray | None = field(default=None, compare=False, repr=False)  # n x n, see build_graph

    def neighbors(self) -> np.ndarray:
        """Dense boolean adjacency, n x n, symmetric with an empty diagonal."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        if self.edges:
            flat = np.fromiter(itertools.chain.from_iterable(self.edges), np.intp, count=2 * len(self.edges))
            i, j = flat.reshape(-1, 2).T
            adj[i, j] = adj[j, i] = True
        return adj


@dataclass(frozen=True)
class ClassGraphStats:
    size: int
    connected: bool
    diameter: float  # integer-valued, inf when disconnected
    lambda1: float
    lambda2_abs: float
    omega: float
    bipartite: bool


@dataclass(frozen=True)
class GraphStats:
    components: list
    per_class: list  # ClassGraphStats per class index
    d_max: float
    intra_edge_fraction: float
    no_edges: bool
    omega: float  # min over classes
    lambda1: float  # min over classes of |lambda_1k|
    lambda2_abs: float  # max over classes of |lambda_2k|


def build_graph(views: ViewSet, threshold: float, metric: str = "euclidean") -> AugGraph:
    """Threshold the minimum inter-anchor view distance (or maximum similarity),
    kept for i < j in ``scores[i, j]``; one mask makes it inf / -inf on and below the diagonal."""
    if metric not in ("euclidean", "cosine"):
        raise ValueError(f"unknown metric {metric!r}")
    if views.n < 2:
        raise ValueError("need at least 2 anchors")
    if metric == "euclidean" and not 0.0 < threshold < INF:
        raise ValueError(f"euclidean threshold must be > 0 and finite, got {threshold}")
    if metric == "cosine":
        if not -1.0 < threshold <= 1.0:
            raise ValueError(f"cosine threshold must lie in (-1, 1], got {threshold}")
        require_normalized(views)

    n, c = views.n, views.c
    scores = np.empty((n, n))  # min squared view distance above the diagonal, then the score
    lo = 0
    while lo < n - 1:  # a block of anchors lo..hi-1 against anchors lo+1.., about one tile of distances
        rest = n - lo - 1
        hi = min(lo + max(1, TILE_VALUES // (c * c * rest)), n - 1)
        others = views.stacked()[lo + 1 :].transpose(1, 0, 2).reshape(-1, views.m)  # view-major
        scores[lo:hi, lo + 1 :] = sq_distances(views.values[lo * c : hi * c], others).reshape(hi - lo, c * c, rest).min(axis=1)
        lo = hi
    scores[np.tri(n, dtype=bool)] = INF  # on and below the diagonal, including what the blocks wrote there
    if metric == "euclidean":
        hits = np.sqrt(scores, out=scores) <= threshold
    else:  # u.v = 1 - |u - v|^2 / 2 on unit rows, in place: x / -2 + 1 has the bits of 1 - x / 2
        hits = np.add(np.divide(scores, -2.0, out=scores), 1.0, out=scores) >= threshold
    edges = frozenset(zip(*(idx.tolist() for idx in np.nonzero(hits))))
    return AugGraph(n=n, edges=edges, threshold=threshold, metric=metric, scores=scores)


def _components(adj: np.ndarray) -> list:
    """Connected components of a boolean adjacency by frontier sweeps."""
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    groups = []
    for start in range(n):
        if seen[start]:
            continue
        frontier = np.zeros(n, dtype=bool)
        frontier[start] = True
        reach = frontier.copy()
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~reach
            reach |= frontier
        seen |= reach
        groups.append(np.flatnonzero(reach).tolist())
    return groups


def connected_components(g: AugGraph) -> list:
    """Vertex lists of the connected components, each ascending, ordered by
    their first vertex."""
    return _components(g.neighbors())


def _bfs(block: np.ndarray) -> tuple[float, bool]:
    """All-source, level-synchronous BFS on a square boolean block: (diameter,
    bipartite). Row r of ``frontier`` holds the current level from source
    ``active[r]``, the sources still growing. The diameter is inf when some
    source misses a vertex. An edge joining two vertices of one level closes an
    odd cycle, so the block is bipartite exactly when no level has one."""
    # float32 products go through BLAS; their 0/1 sums are exact below 2**24
    weights = block.astype(np.float32)
    reach = np.eye(block.shape[0], dtype=bool)
    active = np.arange(block.shape[0])
    frontier = reach
    levels, bipartite = 0, True
    while True:
        step = (frontier.astype(np.float32) @ weights) > 0
        bipartite = bipartite and not (step & frontier).any()
        frontier = step & ~reach[active]
        live = frontier.any(axis=1)
        if not live.any():
            break
        active, frontier = active[live], frontier[live]
        reach[active] |= frontier
        levels += 1
    return (float(levels) if reach.all() else INF), bipartite


def subgraph_diameter(adj: np.ndarray, members: list) -> float:
    """All-pairs BFS diameter of a vertex subset of a boolean adjacency; inf if
    the subset is not connected."""
    return _bfs(adj[np.ix_(members, members)])[0]


def adjacency_spectrum(a: np.ndarray) -> tuple[float, float, float]:
    """(lambda_1, |lambda_2|, omega) of a symmetric adjacency matrix by one dense
    eigendecomposition.

    lambda_1 is the top eigenvalue and omega the smallest entry magnitude of its
    eigenvector (the Perron vector of a connected graph). |lambda_2| is the
    largest magnitude among the other eigenvalues, capped at lambda_1; on a
    bipartite graph -lambda_1 is among them, so it equals lambda_1 up to
    rounding. A 1 x 1 matrix gives (0, 0, 1).
    """
    if a.shape[0] == 0:
        raise ValueError("empty matrix")
    w, v = np.linalg.eigh(a)
    lam1 = float(w[-1])
    lam2 = min(float(np.abs(w[:-1]).max(initial=0.0)), lam1)
    return lam1, lam2, float(np.abs(v[:, -1]).min())


def class_graph_stats(block: np.ndarray) -> ClassGraphStats:
    """Connectivity, diameter, bipartiteness and adjacency spectrum of one
    intra-class block of the boolean adjacency; a disconnected block gets no
    spectrum (zeros)."""
    size = block.shape[0]
    diameter, bipartite = _bfs(block)
    if math.isinf(diameter):
        return ClassGraphStats(size=size, connected=False, diameter=INF, lambda1=0.0, lambda2_abs=0.0, omega=0.0, bipartite=bipartite)
    lam1, lam2, omega = adjacency_spectrum(block.astype(np.float64))
    return ClassGraphStats(size=size, connected=True, diameter=diameter, lambda1=lam1, lambda2_abs=lam2, omega=omega, bipartite=bipartite)


def graph_stats(g: AugGraph, labels: LabelSet) -> GraphStats:
    """Per-class subgraph statistics plus whole-graph component structure."""
    if labels.n != g.n:
        raise ValueError(f"labels have n={labels.n}, graph has n={g.n}")
    adj = g.neighbors()
    components = _components(adj)

    per_class = []
    intra = 0
    for k in range(labels.k):
        members = np.flatnonzero(labels.labels == k)
        if not members.size:
            raise DegenerateInputError(f"class {k} is empty")
        block = adj[np.ix_(members, members)]
        intra += int(block.sum()) // 2
        per_class.append(class_graph_stats(block))

    d_max = max(cs.diameter for cs in per_class)
    total_edges = len(g.edges)
    if total_edges == 0:
        intra_fraction, no_edges = 1.0, True
    else:
        intra_fraction, no_edges = intra / total_edges, False

    return GraphStats(
        components=components,
        per_class=per_class,
        d_max=d_max,
        intra_edge_fraction=intra_fraction,
        no_edges=no_edges,
        omega=min(cs.omega for cs in per_class),
        lambda1=min(cs.lambda1 for cs in per_class),
        lambda2_abs=max(cs.lambda2_abs for cs in per_class),
    )

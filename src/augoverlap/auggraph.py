"""Augmentation graphs over anchors: construction, per-class connectivity,
diameters and adjacency spectra.

An edge (i, j) exists when the closest pair of views of anchors i and j is
within the threshold (euclidean metric) or at least as similar as the
threshold (cosine metric). The threshold is recorded on the graph so runs
stay comparable. ``build_graph`` passes the views as stored (anchor-major) to
``data.sq_distances``, a block of anchors against all later anchors at a time;
each block is masked on and below its diagonal, scored in place and keeps its
pairs within the threshold, so no n x n array is held. Views of width <= 3 are
summed one coordinate at a time, so their distances have the same bits in any
call shape, and one-view anchors are connected at threshold
``geomsim.longest_mst_edge(points)``. Wider views take the BLAS expansion,
whose bits depend on the call shape and the BLAS thread count: each squared
distance lies within 2**-43 of the largest squared row norm, as in the
``metrics`` confusion core, and an edge can flip only at such a near-tie.

Every graph quantity is computed from one representation, the dense boolean
adjacency returned by ``AugGraph.neighbors()``: components, connectivity and
bipartiteness by one frontier sweep per component, connected classes'
diameters by an all-source BFS, and per-class spectra by ``numpy.linalg.eigh``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import LabelSet, ViewSet, require_count, require_normalized, sq_distances, tile_rows
from .errors import DegenerateInputError

INF = math.inf


@dataclass(frozen=True)
class AugGraph:
    n: int
    edges: tuple  # (i, j) pairs with i < j, ascending; a graph built by hand may pass any collection
    threshold: float
    metric: str
    scores: np.ndarray | None = field(default=None, compare=False, repr=False)  # (E,), one per edge

    def neighbors(self) -> np.ndarray:
        """Dense boolean adjacency, n x n, symmetric with an empty diagonal. A pair
        outside 0 <= i < j < n, or a repeated one, raises a ValueError naming it."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        if self.edges:
            pairs = np.fromiter(itertools.chain.from_iterable(self.edges), np.intp, count=2 * len(self.edges)).reshape(-1, 2)
            i, j = pairs.T
            bad = (i < 0) | (i >= j) | (j >= self.n)
            if bad.any():
                raise ValueError(f"edge {tuple(pairs[bad][0].tolist())} must have 0 <= i < j < n={self.n}")
            adj[i, j] = adj[j, i] = True
            if np.count_nonzero(adj) < 2 * len(pairs):
                unique, counts = np.unique(pairs, axis=0, return_counts=True)
                raise ValueError(f"edge {tuple(unique[counts > 1][0].tolist())} is repeated")
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
    """Threshold the minimum inter-anchor view distance (or maximum similarity):
    ``edges`` lists the pairs i < j within it in ascending order, ``scores`` their
    scores. Bit-exact on views of width <= 3; on wider views within 2**-43 of the
    largest squared row norm (see the module docstring).

    Blocks of ``data.tile_rows(c * c * rest)`` anchors walk the triangle: fixed-height
    ``data.row_tiles(n - 1, c * c * n)`` blocks (199 against 85 at n=200, c=10) took 111
    against 75 ms at width 256 (one BLAS thread, Xeon) and moved 24 of 19,900 scores."""
    if metric not in ("euclidean", "cosine"):
        raise ValueError(f"unknown metric {metric!r}")
    require_count(2, n=views.n)
    if metric == "euclidean" and not 0.0 < threshold < INF:
        raise ValueError(f"euclidean threshold must be > 0 and finite, got {threshold}")
    if metric == "cosine":
        if not -1.0 < threshold <= 1.0:
            raise ValueError(f"cosine threshold must lie in (-1, 1], got {threshold}")
        require_normalized(views)

    n, c = views.n, views.c
    found = []  # per block, the (i, j, score) arrays of its pairs within the threshold
    lo = 0
    while lo < n - 1:  # a block of anchors lo..hi-1 against anchors lo+1.., about one tile of distances
        rest = n - lo - 1
        hi = min(lo + tile_rows(c * c * rest), n - 1)
        s = sq_distances(views.values[lo * c : hi * c], views.values[(lo + 1) * c :])  # the block's squared view distances
        s = s.reshape(hi - lo, c, rest, c).min(axis=1).min(axis=2)  # over both view axes; rebinding frees the block before the next allocations (held, it faulted ~2,000 pages per n=200 graph)
        s[np.tri(hi - lo, rest, -1, dtype=bool)] = INF  # anchor pairs on and below the diagonal
        if metric == "euclidean":
            hits = np.sqrt(s, out=s) <= threshold
        else:  # u.v = 1 - |u - v|^2 / 2 on unit rows, in place: x / -2 + 1 has the bits of 1 - x / 2
            hits = np.add(np.divide(s, -2.0, out=s), 1.0, out=s) >= threshold
        i, j = np.nonzero(hits)  # row-major, and the blocks ascend in i: the edges come out sorted
        found.append((i + lo, j + lo + 1, s[hits]))
        lo = hi
    i, j, scores = (np.concatenate(part) for part in zip(*found))
    return AugGraph(n=n, edges=tuple(zip(i.tolist(), j.tolist())), threshold=threshold, metric=metric, scores=scores)


def _levels(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One frontier sweep per component of a boolean adjacency, from its lowest
    vertex: (root, level), each vertex's component root and BFS level. An edge
    joining two vertices of one level closes an odd cycle, so the graph is
    bipartite exactly when no edge does."""
    n = adj.shape[0]
    root, level = np.full(n, -1), np.zeros(n, dtype=np.intp)
    for start in range(n):
        if root[start] < 0:  # the lowest vertex of a component not swept yet
            frontier, depth = np.arange(n) == start, 0
            while frontier.any():
                root[frontier], level[frontier] = start, depth
                frontier = adj[frontier].any(axis=0) & (root < 0)
                depth += 1
    return root, level


def _components(adj: np.ndarray) -> list:
    root = _levels(adj)[0]  # each component's lowest vertex, so np.unique keeps their order
    return [np.flatnonzero(root == r).tolist() for r in np.unique(root)]


def connected_components(g: AugGraph) -> list:
    """Vertex lists of the connected components, each ascending, ordered by
    their first vertex."""
    return _components(g.neighbors())


def _bfs(block: np.ndarray) -> float:
    """Diameter of a connected square boolean block by an all-source,
    level-synchronous BFS. Row r of ``frontier`` holds the current level from
    source ``active[r]``, the sources still growing."""
    # float32 products go through BLAS; their 0/1 sums are exact below 2**24
    weights = block.astype(np.float32)
    frontier = reach = np.eye(block.shape[0], dtype=bool)
    active, levels = np.arange(block.shape[0]), 0
    while True:
        frontier = ((frontier.astype(np.float32) @ weights) > 0) & ~reach[active]
        live = frontier.any(axis=1)
        if not live.any():
            return float(levels)
        active, frontier = active[live], frontier[live]
        reach[active] |= frontier
        levels += 1


def subgraph_diameter(adj: np.ndarray, members: list) -> float:
    """All-pairs BFS diameter of a vertex subset of a boolean adjacency; inf if
    the subset is not connected. The members must be distinct and non-empty."""
    require_count(1, members=len(members))
    if len(set(members)) != len(members):
        raise ValueError(f"members must be distinct, got {members}")
    block = adj[np.ix_(members, members)]
    return INF if _levels(block)[0].any() else _bfs(block)


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
    root, level = _levels(block)
    bipartite = not (block & (level[:, None] == level)).any()
    if root.any():
        return ClassGraphStats(size=size, connected=False, diameter=INF, lambda1=0.0, lambda2_abs=0.0, omega=0.0, bipartite=bipartite)
    lam1, lam2, omega = adjacency_spectrum(block.astype(np.float64))
    return ClassGraphStats(size=size, connected=True, diameter=_bfs(block), lambda1=lam1, lambda2_abs=lam2, omega=omega, bipartite=bipartite)


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

    return GraphStats(
        components=components,
        per_class=per_class,
        d_max=max(cs.diameter for cs in per_class),
        intra_edge_fraction=intra / len(g.edges) if g.edges else 1.0,
        no_edges=not g.edges,
        omega=min(cs.omega for cs in per_class),
        lambda1=min(cs.lambda1 for cs in per_class),
        lambda2_abs=max(cs.lambda2_abs for cs in per_class),
    )

"""Graph construction, connectivity, diameters, bipartiteness and spectra."""

import math
import tracemalloc
from collections import deque
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as csgraph_components
from scipy.sparse.csgraph import shortest_path
from scipy.spatial.distance import cdist

from augoverlap import auggraph, geomsim
from augoverlap.auggraph import (
    AugGraph,
    adjacency_spectrum,
    build_graph,
    connected_components,
    class_graph_stats,
    graph_stats,
    subgraph_diameter,
)
from augoverlap.data import TILE_VALUES, LabelSet, ViewSet, normalize, sq_distances, sq_norms
from augoverlap.errors import DegenerateInputError


def _graph_from_edges(n, edges):
    return AugGraph(n=n, edges=frozenset(edges), threshold=1.0, metric="euclidean")


def _path_adj(n):
    return _graph_from_edges(n, {(i, i + 1) for i in range(n - 1)}).neighbors()


def _at(scores, edges):
    """The entries of an n x n score matrix at an edge list, in its order."""
    return np.array([scores[i, j] for i, j in edges], dtype=float)


def _blockwise_reference(views, threshold, metric):
    """(scores, edges) by a two-matrix reference: a full matrix of inf, each anchor's
    row of its block's upper triangle copied in a Python loop, then a second matrix
    for the scores, and the edges in ascending order. Each block is measured against a
    view-major copy of the later anchors, so on rows wider than 3 its call shapes
    differ from ``build_graph``'s."""
    n, c = views.n, views.c
    closest = np.full((n, n), np.inf)
    lo = 0
    while lo < n - 1:
        rest = n - lo - 1
        hi = min(lo + max(1, TILE_VALUES // (c * c * rest)), n - 1)
        others = views.values.reshape(n, c, views.m)[lo + 1 :].transpose(1, 0, 2).reshape(-1, views.m)
        d = sq_distances(views.values[lo * c : hi * c], others).reshape(hi - lo, c * c, rest).min(axis=1)
        for r in range(hi - lo):
            closest[lo + r, lo + r + 1 :] = d[r, r:]
        lo = hi
    if metric == "euclidean":
        scores = np.sqrt(closest)
        hits = scores <= threshold
    else:
        scores = 1.0 - closest / 2.0
        hits = scores >= threshold
    return scores, tuple(zip(*(idx.tolist() for idx in np.nonzero(hits))))


class TestBuildGraph:
    def test_euclidean_threshold(self):
        views = ViewSet(np.array([[0.0, 0.0], [1.0, 0.0]]), n=2, c=1)
        g = build_graph(views, 0.5)
        assert g.edges == () and g.scores.shape == (0,)
        g = build_graph(views, 1.0)
        assert g.edges == ((0, 1),)
        assert g.scores.tolist() == [pytest.approx(1.0)]

    def test_min_over_view_pairs(self):
        # anchors far apart but one view pair is close
        views = ViewSet(np.array([[0.0, 0.0], [10.0, 0.0], [10.2, 0.0], [20.0, 0.0]]), n=2, c=2)
        g = build_graph(views, 0.5)
        assert g.edges == ((0, 1),)
        assert g.scores.tolist() == [pytest.approx(0.2)]

    def test_cosine_metric(self):
        views = ViewSet(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), n=3, c=1, normalized=True)
        g = build_graph(views, 0.9, metric="cosine")
        assert g.edges == ((0, 2),)
        assert g.scores.tolist() == [1.0]

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 12), c=st.integers(1, 3), m=st.integers(1, 6), seed=st.integers(0, 2**31))
    def test_scores_match_scipy(self, n, c, m, seed):
        """Every pair's score: at a threshold that makes every pair an edge, the min
        view distance against cdist and, on unit rows, the max view dot product (a
        pair whose views are antipodal is the only one a cosine threshold above -1
        leaves out). At thresholds 1.0 and 0.5, the edges are exactly the pairs that
        cdist puts within them, in ascending order."""
        views = normalize(ViewSet(np.random.default_rng(seed).standard_normal((n * c, m)), n=n, c=c))
        upper = np.triu_indices(n, 1)
        pairs = tuple(zip(*(idx.tolist() for idx in upper)))
        dist = cdist(views.values, views.values).reshape(n, c, n, c).min(axis=(1, 3))
        dots = (views.values @ views.values.T).reshape(n, c, n, c).max(axis=(1, 3))
        g = build_graph(views, 3.0)  # unit rows lie within 2 of each other
        assert g.edges == pairs
        np.testing.assert_allclose(g.scores**2, dist[upper] ** 2, rtol=0, atol=1e-12)
        gc = build_graph(views, float(np.nextafter(-1.0, 0.0)), metric="cosine")
        on = np.zeros((n, n), dtype=bool)
        on[tuple(np.array(gc.edges, dtype=np.intp).reshape(-1, 2).T)] = True
        hit = on[upper]
        assert gc.edges == tuple(p for p, h in zip(pairs, hit) if h)  # ascending, each pair once
        np.testing.assert_allclose(gc.scores, dots[upper][hit], rtol=0, atol=1e-12)
        np.testing.assert_allclose(dots[upper][~hit], -1.0, rtol=0, atol=1e-12)
        assert build_graph(views, 1.0).edges == tuple(p for p, d in zip(pairs, dist[upper]) if d <= 1.0)
        assert build_graph(views, 0.5, metric="cosine").edges == tuple(p for p, s in zip(pairs, dots[upper]) if s >= 0.5)

    @pytest.mark.parametrize("m, decimals", [(2, None), (3, 1)])
    def test_anchor_blocks_match_per_anchor_loop(self, m, decimals):
        """Blocks of one anchor (at the start) and of several (towards the end)
        give the edges and the score bits of one kernel call per anchor row, with
        rounded ties and duplicate anchors, for both metrics, at a tight threshold
        and at one that makes every pair an edge."""
        n, c = 600, 8
        assert c * c * (n - 1) > TILE_VALUES > c * c * 100  # blocks of 1 anchor, then of more
        v = np.random.default_rng(m).standard_normal((n * c, m))
        if decimals is not None:
            v = np.round(v, decimals) + 1.0
        v[-3 * c :] = v[: 3 * c]  # the last three anchors repeat the first three
        views = normalize(ViewSet(v, n=n, c=c))
        closest = np.full((n, n), np.inf)
        for i in range(n - 1):
            others = views.values.reshape(n, c, m)[i + 1 :].transpose(1, 0, 2).reshape(-1, m)
            closest[i, i + 1 :] = sq_distances(views.views_of(i), others).reshape(c * c, n - i - 1).min(axis=0)
        upper = np.triu_indices(n, 1)
        pairs = tuple(zip(*(idx.tolist() for idx in upper)))
        euclidean, cosine = np.sqrt(closest)[upper], (1.0 - closest / 2.0)[upper]
        for metric, threshold, scores in (
            ("euclidean", 0.05, euclidean),
            ("euclidean", 3.0, euclidean),
            ("cosine", 0.999, cosine),
            ("cosine", float(np.nextafter(-1.0, 0.0)), cosine),
        ):
            g = build_graph(views, threshold, metric)
            hits = scores <= threshold if metric == "euclidean" else scores >= threshold
            assert g.edges == tuple(p for p, hit in zip(pairs, hits) if hit)
            assert g.scores.tobytes() == scores[hits].tobytes()
            assert g.edges  # the duplicates at least
            assert threshold in (0.05, 0.999) or len(g.edges) == len(pairs)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 60),
        c=st.integers(1, 6),
        m=st.integers(1, 6),
        decimals=st.sampled_from([None, 0, 1]),
        seed=st.integers(0, 2**31),
        pick=st.floats(0.0, 1.0),
    )
    def test_one_matrix_matches_blockwise_reference(self, n, c, m, decimals, seed, pick):
        """The edges of the two-matrix reference and its scores at them, for both
        metrics, with rounded values (ties and duplicate views) and a threshold equal
        to one of the scores, so the comparison at the threshold decides ties. Widths
        <= 3 keep every bit. On wider rows each edge's squared distance lies within
        2**-43 of the largest squared row norm of the reference's, and an edge differs
        only where the reference's squared distance lies that close to the
        threshold's."""
        v = np.random.default_rng(seed).standard_normal((n * c, m))
        if decimals is not None:
            v = np.round(v, decimals) + 0.25  # never zero, so normalize takes every row
        for metric, views in (("euclidean", ViewSet(v, n=n, c=c)), ("cosine", normalize(ViewSet(v, n=n, c=c)))):
            ref, _ = _blockwise_reference(views, 1.0, metric)
            upper = np.sort(ref[np.triu_indices(n, 1)])
            threshold = float(upper[int(pick * (upper.size - 1))])
            if metric == "euclidean":
                threshold = max(threshold, 5e-324)
            else:
                threshold = max(threshold, float(np.nextafter(-1.0, 0.0)))
            ref, ref_edges = _blockwise_reference(views, threshold, metric)
            g = build_graph(views, threshold, metric)
            if m <= 3:
                assert g.edges == ref_edges
                assert g.scores.tobytes() == _at(ref, ref_edges).tobytes()
                continue
            # squared distances: d = s^2 (euclidean), d = 2 - 2s (cosine)
            sq = (lambda s: s * s) if metric == "euclidean" else (lambda s: 2.0 - 2.0 * s)
            tol = 2.0**-43 * sq_norms(views.values).max()
            assert np.abs(sq(g.scores) - sq(_at(ref, g.edges))).max(initial=0.0) <= tol
            assert list(g.edges) == sorted(set(g.edges))
            near = np.abs(sq(ref) - sq(threshold)) <= tol
            assert all(near[i, j] for i, j in set(g.edges) ^ set(ref_edges))

    @pytest.mark.parametrize("metric, threshold", [("euclidean", 1e-3), ("cosine", 1.0)])
    def test_peak_memory_is_one_block(self, metric, threshold):
        """Beyond the views, build_graph with c=10 and almost no edges holds one block
        of distances and its edges, no n x n array: at most 0.3 n^2 floats at n=1000
        (0.13 measured; one n x n score matrix gave 1.23), and the peak grows from
        n=500 to n=1000 with a fitted exponent of at most 1.3 (0.37 and 0.41
        measured; 1.69 with the matrix)."""
        c, peaks = 10, {}
        for n in (500, 1000):
            views = normalize(ViewSet(np.random.default_rng(0).standard_normal((n * c, 3)), n=n, c=c))
            tracemalloc.start()
            try:
                g = build_graph(views, threshold, metric)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(g.edges) < n
        assert peaks[1000] <= 0.3 * 8 * 1000**2, peaks[1000] / (8 * 1000**2)
        assert math.log2(peaks[1000] / peaks[500]) <= 1.3, peaks

    def test_cosine_requires_normalized(self):
        views = ViewSet(np.array([[2.0, 0.0], [0.0, 2.0]]), n=2, c=1)
        with pytest.raises(ValueError, match="normalized"):
            build_graph(views, 0.5, metric="cosine")

    def test_needs_two_anchors(self):
        with pytest.raises(ValueError, match="^n must be >= 2, got 1$"):
            build_graph(ViewSet(np.ones((3, 2)), n=1, c=3), 0.5)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf])
    def test_euclidean_threshold_must_be_finite(self, threshold):
        with pytest.raises(ValueError, match=f"euclidean threshold must be > 0 and finite, got {threshold}"):
            build_graph(ViewSet(np.eye(2), n=2, c=1), threshold)

    def test_validation(self):
        views = ViewSet(np.ones((2, 2)), n=2, c=1)
        with pytest.raises(ValueError, match="unknown metric"):
            build_graph(views, 0.5, metric="manhattan")
        with pytest.raises(ValueError, match="> 0"):
            build_graph(views, 0.0)
        with pytest.raises(ValueError, match="cosine threshold"):
            build_graph(ViewSet(np.eye(2), n=2, c=1, normalized=True), -1.5, metric="cosine")


class TestNeighbors:
    @pytest.mark.parametrize(
        "edges, text",
        [
            ({(-1, 0)}, "edge (-1, 0) must have 0 <= i < j < n=3"),
            ({(0, 1), (1, 0)}, "edge (1, 0) must have 0 <= i < j < n=3"),
            ({(0, 3)}, "edge (0, 3) must have 0 <= i < j < n=3"),
            (((1, 1),), "edge (1, 1) must have 0 <= i < j < n=3"),
            (((0, 1), (0, 2), (0, 1)), "edge (0, 1) is repeated"),
        ],
        ids=["negative", "reversed", "beyond-n", "loop", "repeated"],
    )
    def test_bad_pair_is_named(self, edges, text):
        """A pair outside 0 <= i < j < n, or a repeated one, is refused where the
        edges are read: a negative index would wrap, a reversed pair would count one
        edge twice, and an index of n would raise a bare IndexError."""
        g = AugGraph(n=3, edges=edges, threshold=1.0, metric="euclidean")
        for read in (g.neighbors, lambda: graph_stats(g, LabelSet(np.array([0, 0, 1]), k=2))):
            with pytest.raises(ValueError) as exc:
                read()
            assert str(exc.value) == text


class TestComponentsAndDiameter:
    def test_components(self):
        g = _graph_from_edges(5, {(0, 1), (1, 2), (3, 4)})
        assert connected_components(g) == [[0, 1, 2], [3, 4]]

    def test_path_diameter(self):
        assert subgraph_diameter(_path_adj(5), list(range(5))) == 4.0

    def test_single_vertex(self):
        assert subgraph_diameter(_path_adj(3), [0]) == 0.0

    def test_disconnected_subset_is_inf(self):
        adj = _graph_from_edges(4, {(0, 1), (2, 3)}).neighbors()
        assert math.isinf(subgraph_diameter(adj, [0, 1, 2, 3]))

    @pytest.mark.parametrize("members", [[], [0, 0], [2, 0, 1, 2]])
    def test_empty_or_repeated_members_are_named(self, members):
        """An empty subset has no diameter, and a repeated member is a second,
        unlinked copy of its vertex: [0, 0] would read as disconnected, though {0}
        has diameter 0."""
        with pytest.raises(ValueError) as exc:
            subgraph_diameter(_path_adj(3), members)
        assert str(exc.value) == (f"members must be distinct, got {members}" if members else "members must be >= 1, got 0")

    def test_all_source_bfs_runs_only_on_connected_blocks(self):
        """The one sweep per component decides connectivity, so a disconnected
        block never reaches the all-source BFS and a connected one reaches it once."""
        g = _graph_from_edges(6, {(0, 1), (1, 2), (3, 4), (4, 5)})  # two paths of 3
        adj = g.neighbors()
        with mock.patch.object(auggraph, "_bfs", wraps=auggraph._bfs) as bfs:
            assert not class_graph_stats(adj).connected
            assert math.isinf(graph_stats(g, LabelSet(np.zeros(6, dtype=int), k=1)).d_max)
            assert math.isinf(subgraph_diameter(adj, list(range(6))))
            assert bfs.call_count == 0
            assert class_graph_stats(adj[:3, :3]).diameter == 2.0
            assert bfs.call_count == 1
            assert graph_stats(g, LabelSet(np.array([0, 0, 0, 1, 1, 1]), k=2)).d_max == 2.0
            assert bfs.call_count == 3  # once per class block
            assert subgraph_diameter(adj, [3, 4, 5]) == 2.0
            assert bfs.call_count == 4


class TestBipartite:
    def test_even_cycle(self):
        adj = _graph_from_edges(4, {(0, 1), (1, 2), (2, 3), (0, 3)}).neighbors()
        assert class_graph_stats(adj).bipartite

    def test_odd_cycle(self):
        adj = _graph_from_edges(3, {(0, 1), (1, 2), (0, 2)}).neighbors()
        assert not class_graph_stats(adj).bipartite


class TestSpectra:
    def test_k3_top_eigenpair(self):
        a = np.ones((3, 3)) - np.eye(3)
        lam, _, omega = adjacency_spectrum(a)
        assert lam == pytest.approx(2.0, abs=1e-8)
        assert omega == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)

    def test_k3_second_eigenvalue(self):
        a = np.ones((3, 3)) - np.eye(3)
        _, lam2, _ = adjacency_spectrum(a)
        assert lam2 == pytest.approx(1.0, abs=1e-6)

    def test_path2(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        lam, _, _ = adjacency_spectrum(a)
        assert lam == pytest.approx(1.0, abs=1e-8)

    def test_matches_dense_eigensolver(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 15))
            a = (rng.random((n, n)) < 0.5).astype(float)
            a = np.triu(a, 1)
            a = a + a.T
            lam, _, _ = adjacency_spectrum(a)
            assert lam == pytest.approx(np.max(np.linalg.eigvalsh(a)), abs=1e-6)

    def test_empty_matrix(self):
        with pytest.raises(ValueError):
            adjacency_spectrum(np.zeros((0, 0)))


class TestGraphStats:
    def test_empty_class_is_degenerate(self):
        g = _graph_from_edges(3, {(0, 1)})
        with pytest.raises(DegenerateInputError, match="class 1 is empty"):
            graph_stats(g, LabelSet(np.array([0, 0, 2]), k=3))

    def test_two_triangles(self):
        g = _graph_from_edges(6, {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)})
        labels = LabelSet(np.array([0, 0, 0, 1, 1, 1]), k=2)
        stats = graph_stats(g, labels)
        assert len(stats.components) == 2
        assert stats.d_max == 1.0
        assert stats.intra_edge_fraction == 1.0
        assert not stats.no_edges
        for cs in stats.per_class:
            assert cs.connected and not cs.bipartite
            assert cs.lambda1 == pytest.approx(2.0, abs=1e-6)
            assert cs.lambda2_abs == pytest.approx(1.0, abs=1e-6)

    def test_disconnected_class(self):
        g = _graph_from_edges(4, {(0, 1)})
        labels = LabelSet(np.array([0, 0, 1, 1]), k=2)
        stats = graph_stats(g, labels)
        cs = stats.per_class[1]
        assert not cs.connected and math.isinf(cs.diameter) and cs.omega == 0.0
        assert math.isinf(stats.d_max)

    def test_edgeless_graph(self):
        g = _graph_from_edges(2, set())
        stats = graph_stats(g, LabelSet(np.array([0, 1]), k=2))
        assert stats.no_edges and stats.intra_edge_fraction == 1.0
        # single-vertex classes count as trivially connected
        assert stats.d_max == 0.0

    def test_inter_class_edges_counted(self):
        g = _graph_from_edges(4, {(0, 1), (1, 2), (2, 3)})
        labels = LabelSet(np.array([0, 0, 1, 1]), k=2)
        stats = graph_stats(g, labels)
        assert stats.intra_edge_fraction == pytest.approx(2.0 / 3.0)

    def test_label_mismatch(self):
        g = _graph_from_edges(3, set())
        with pytest.raises(ValueError, match="labels have n=2"):
            graph_stats(g, LabelSet(np.array([0, 1]), k=2))

    def test_bipartite_class_flagged(self):
        g = _graph_from_edges(4, {(0, 1), (1, 2), (2, 3), (0, 3)})  # 4-cycle
        stats = graph_stats(g, LabelSet(np.array([0, 0, 0, 0]), k=1))
        cs = stats.per_class[0]
        assert cs.bipartite
        assert cs.lambda2_abs == pytest.approx(cs.lambda1)  # degenerate spectrum signature

    def test_near_tied_spectrum_returns(self):
        """A graph-metrics case whose class-1 block has its two largest |lambda|
        after lambda_1 only 2.9e-4 apart, relatively: too close for a capped
        power iteration to separate, and no problem for a dense solver."""
        cap, view, _ = (int(s) for s in np.random.default_rng([1069, 100]).integers(2**31, size=3))
        centers = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        anchors, labels = geomsim.sample_caps(geomsim.GeomConfig(d=3, n=100, area=1.0, class_centers=centers, seed=cap))
        g = build_graph(geomsim.augment(anchors, 1.5, 10, seed=view), 0.35)
        stats = graph_stats(g, labels)
        adj = g.neighbors()
        for k, cs in enumerate(stats.per_class):
            members = np.flatnonzero(labels.labels == k)
            assert cs.connected
            eig = np.linalg.eigvalsh(adj[np.ix_(members, members)].astype(float))
            assert cs.lambda1 == pytest.approx(eig[-1], abs=1e-9)
            assert cs.lambda2_abs == pytest.approx(min(np.abs(eig[:-1]).max(), eig[-1]), abs=1e-9)


def _two_colourable(block):
    """Reference bipartiteness: deque BFS 2-colouring over neighbour lists."""
    adj = [np.flatnonzero(row).tolist() for row in block]
    color = {}
    for start in range(len(adj)):
        if start in color:
            continue
        color[start] = 0
        q = deque([start])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    q.append(w)
                elif color[w] == color[u]:
                    return False
    return True


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    p=st.floats(0.0, 1.0),
    k_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
)
def test_graph_stats_match_csgraph_and_eigh(n, p, k_fraction, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, 1)
    a = upper | upper.T
    k = 1 + int(k_fraction * (n - 1))
    # every class non-empty; k close to n leaves singleton classes
    labels = LabelSet(rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])), k=k)
    g = _graph_from_edges(n, {(int(i), int(j)) for i, j in zip(*np.nonzero(upper))})
    np.testing.assert_array_equal(g.neighbors(), a)
    stats = graph_stats(g, labels)

    count, ref = csgraph_components(csr_matrix(a), directed=False)
    expected = sorted((np.flatnonzero(ref == c).tolist() for c in range(count)), key=lambda grp: grp[0])
    assert stats.components == connected_components(g) == expected

    intra = 0
    for cls, cs in enumerate(stats.per_class):
        members = np.flatnonzero(labels.labels == cls)
        block = a[np.ix_(members, members)]
        intra += int(block.sum()) // 2
        hops = shortest_path(csr_matrix(block), unweighted=True, directed=False)
        diameter = math.inf if np.isinf(hops).any() else float(hops.max())
        assert cs.size == members.size
        assert cs.diameter == diameter == subgraph_diameter(a, members.tolist())
        assert cs.connected == (not math.isinf(diameter))
        assert cs.bipartite == _two_colourable(block)
        if not cs.connected:
            assert (cs.lambda1, cs.lambda2_abs, cs.omega) == (0.0, 0.0, 0.0)
            continue
        w, v = scipy.linalg.eigh(block.astype(float))
        lam2 = min(float(np.abs(w[:-1]).max(initial=0.0)), float(w[-1]))
        assert cs.lambda1 == pytest.approx(w[-1], abs=1e-9)
        assert cs.lambda2_abs == pytest.approx(lam2, abs=1e-9)
        assert cs.lambda2_abs <= cs.lambda1  # bound inputs require it, also on bipartite blocks
        assert cs.omega == pytest.approx(np.abs(v[:, -1]).min(), abs=1e-9)
    edges = int(upper.sum())
    assert stats.no_edges == (edges == 0)
    assert stats.intra_edge_fraction == (intra / edges if edges else 1.0)

"""Cap sampling, closed-form thresholds, MST connectivity radius and augmentation."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from augoverlap.auggraph import build_graph, connected_components
from augoverlap.data import EmbeddingSet, ViewSet, sq_distances, sq_norms
from augoverlap.geomsim import (
    GeomConfig,
    _nn_far_mst,
    _sample_points,
    augment,
    classify_regime,
    connectivity_radius_closed_form,
    empirical_regime,
    longest_mst_edge,
    min_center_halfdistance,
    mst_trials,
    nn_distance_closed_form,
    sample_caps,
    sample_flat,
    unit_ball_volume,
)

NORTH_SOUTH = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])


def _prim(dist):
    """Longest MST edge of a dense distance matrix (diagonal ignored) by Prim."""
    n = dist.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)  # distance from the tree to each vertex outside it
    v, longest = 0, 0.0
    for _ in range(n - 1):
        in_tree[v] = True
        np.minimum(best, dist[v], out=best)
        best[in_tree] = np.inf
        v = int(np.argmin(best))
        longest = max(longest, float(best[v]))
    return longest


def _dense_reference(points):
    """(nn, far, longest MST edge) from the whole n x n distance matrix: its diagonal
    set to inf for the nearest neighbors, then to -inf for the farthest, and dense
    Prim over its rows."""
    dist = sq_distances(points)
    np.sqrt(dist, out=dist)
    np.fill_diagonal(dist, np.inf)
    nn = dist.min(axis=1)
    np.fill_diagonal(dist, -np.inf)
    far = dist.max(axis=1)
    return nn, far, _prim(dist)


def _dense_regime(cfg, trials):
    """(r1, r2, r_mc_empirical, regime) as empirical_regime reports them, from the
    dense reference on the same draws."""
    rng = np.random.default_rng(cfg.seed)
    stats = [[], [], [], [], []]
    for _ in range(trials):
        nn, far, longest = _dense_reference(_sample_points(cfg, rng))
        for values, value in zip(stats, (nn.mean(), far.mean(), nn.min(), far.max(), longest)):
            values.append(float(value))
    r1, r2, closest, farthest, r_mc = (float(np.mean(values)) for values in stats)
    return r1, r2, r_mc, classify_regime(cfg.noise_r, closest, farthest, min_center_halfdistance(cfg.class_centers))


class TestGeomConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeomConfig(d=2, n=1, area=1.0)
        with pytest.raises(ValueError):
            GeomConfig(d=2, n=10, area=0.0)
        with pytest.raises(ValueError):
            GeomConfig(d=2, n=10, area=1.0, noise_r=-1.0)
        with pytest.raises(ValueError, match="unit vectors"):
            GeomConfig(d=3, n=10, area=1.0, class_centers=np.array([[0.0, 0.0, 2.0]]))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("d", 0, "d must be >= 1, got 0"),
            ("area", math.nan, "area must be > 0 and finite, got nan"),
            ("area", math.inf, "area must be > 0 and finite, got inf"),
            ("noise_r", math.nan, "noise_r must be >= 0 and finite, got nan"),
        ],
    )
    def test_non_finite_or_zero_fields(self, field, value, message):
        kwargs = {"d": 2, "n": 10, "area": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            GeomConfig(**kwargs)

    def test_centers_must_have_d_columns(self):
        """Unit-norm centers of another width fail in the config, naming the field,
        not later inside the cap sampler's rotation."""
        with pytest.raises(ValueError, match="^class_centers must have d=3 columns, got 4$"):
            GeomConfig(d=3, n=10, area=1.0, class_centers=np.eye(4)[:2])

    def test_centers_are_a_frozen_c_contiguous_copy_of_a_fortran_input(self):
        centers = np.asfortranarray(NORTH_SOUTH)
        cfg = GeomConfig(d=3, n=10, area=1.0, class_centers=centers)
        assert cfg.class_centers.flags.c_contiguous and not cfg.class_centers.flags.writeable
        assert np.array_equal(cfg.class_centers, NORTH_SOUTH) and centers.flags.writeable
        own = NORTH_SOUTH.copy()
        assert GeomConfig(d=3, n=10, area=1.0, class_centers=own).class_centers is own and not own.flags.writeable


class TestSampleCaps:
    def test_points_stay_in_their_caps(self):
        cfg = GeomConfig(d=3, n=400, area=1.0, class_centers=NORTH_SOUTH, seed=0)
        emb, lab = sample_caps(cfg)
        assert emb.normalized and lab.k == 2
        z_low = 1.0 - 1.0 / (2.0 * math.pi)
        z = emb.values[:, 2]
        assert np.all(z[lab.labels == 0] >= z_low - 1e-9)
        assert np.all(z[lab.labels == 1] <= -z_low + 1e-9)

    def test_balanced_counts(self):
        cfg = GeomConfig(d=3, n=401, area=1.0, class_centers=NORTH_SOUTH, seed=0)
        _, lab = sample_caps(cfg)
        counts = np.bincount(lab.labels)
        assert abs(counts[0] - counts[1]) <= 1 and counts.sum() == 401

    def test_fewer_points_than_centers(self):
        """Two points for three centers would leave class 2 empty; the error names n
        and the number of centers, and n equal to it gives one point per class."""
        cfg = GeomConfig(d=3, n=2, area=1.0, class_centers=np.eye(3), seed=0)
        with pytest.raises(ValueError, match="^cap sampling needs a point per class center: n=2 points for 3 centers$"):
            sample_caps(cfg)
        _, lab = sample_caps(GeomConfig(d=3, n=3, area=1.0, class_centers=np.eye(3), seed=0))
        assert lab.labels.tolist() == [0, 1, 2]

    def test_rotated_center(self):
        center = np.array([[1.0, 0.0, 0.0]])
        cfg = GeomConfig(d=3, n=100, area=0.5, class_centers=center, seed=1)
        emb, _ = sample_caps(cfg)
        # every point within the cap's angular radius of the center
        cos_min = 1.0 - 0.5 / (2.0 * math.pi)
        assert np.all(emb.values @ center[0] >= cos_min - 1e-9)

    def test_cap_coordinates_are_uniform(self):
        """Statistical oracle: in a frame around each class center, z = p . center is
        uniform on [z_low, 1] and the azimuth uniform on [0, 2 pi) (KS tests, each
        passing at p >= 1e-6, so a correct sampler fails with probability about 4e-6).
        The second center is off the pole, so its points were rotated."""
        centers = np.array([[0.0, 0.0, 1.0], [2 / 3, -1 / 3, 2 / 3]])
        cfg = GeomConfig(d=3, n=4000, area=2.0, class_centers=centers, seed=11)
        emb, lab = sample_caps(cfg)
        z_low = 1.0 - cfg.area / (2.0 * math.pi)
        for k, center in enumerate(centers):
            e1 = np.cross(center, [1.0, 0.0, 0.0] if abs(center[0]) < 0.9 else [0.0, 1.0, 0.0])
            e1 /= math.sqrt(e1 @ e1)
            points = emb.values[lab.labels == k]
            phi = np.arctan2(points @ np.cross(center, e1), points @ e1) % (2.0 * math.pi)
            assert scipy.stats.kstest(points @ center, "uniform", args=(z_low, 1.0 - z_low)).pvalue >= 1e-6
            assert scipy.stats.kstest(phi, "uniform", args=(0.0, 2.0 * math.pi)).pvalue >= 1e-6

    def test_validation(self):
        with pytest.raises(ValueError, match="d=3"):
            sample_caps(GeomConfig(d=2, n=10, area=1.0, class_centers=None))
        with pytest.raises(ValueError, match="class centers"):
            sample_caps(GeomConfig(d=3, n=10, area=1.0))
        with pytest.raises(ValueError, match="hemisphere"):
            sample_caps(GeomConfig(d=3, n=10, area=7.0, class_centers=NORTH_SOUTH))

    def test_seeded(self):
        cfg = GeomConfig(d=3, n=50, area=1.0, class_centers=NORTH_SOUTH, seed=9)
        a, _ = sample_caps(cfg)
        b, _ = sample_caps(cfg)
        np.testing.assert_array_equal(a.values, b.values)


class TestSampleFlat:
    def test_in_cube(self, rng):
        cfg = GeomConfig(d=2, n=200, area=4.0)
        pts = sample_flat(cfg, rng)
        assert pts.shape == (200, 2)
        assert np.all(pts >= 0.0) and np.all(pts <= 2.0)

    @pytest.mark.parametrize("n, trials", [(300, 200), (1000, 100)])
    def test_closest_pair_follows_the_poisson_law(self, n, trials):
        """The number of the N(N-1)/2 pairs of N uniform points in the unit square
        within r is about Poisson with mean N(N-1)pi r^2/2, so that statistic of the
        closest pair is about Exp(1): a Kolmogorov-Smirnov test keeps p >= 1e-6."""
        cfg, rng = GeomConfig(d=2, n=n, area=1.0), np.random.default_rng(7)
        stats = []
        for _ in range(trials):
            dist = sq_distances(sample_flat(cfg, rng))
            np.fill_diagonal(dist, np.inf)
            stats.append(n * (n - 1) * math.pi * float(dist.min()) / 2.0)
        assert scipy.stats.kstest(stats, "expon").pvalue >= 1e-6


class TestClosedForms:
    def test_nn_distance_decreases_with_n(self):
        vals = [nn_distance_closed_form(1, 2, 1.0, n) for n in (10, 100, 1000)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_nn_distance_increases_with_k(self):
        assert nn_distance_closed_form(5, 2, 1.0, 100) > nn_distance_closed_form(1, 2, 1.0, 100)

    def test_nn_distance_validation(self):
        with pytest.raises(ValueError):
            nn_distance_closed_form(1, 2, 1.0, 2)
        with pytest.raises(ValueError):
            nn_distance_closed_form(1, 0, 1.0, 10)

    def test_unit_ball_volume(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_connectivity_radius_formula(self):
        d, area, n = 2, 1.0, 100
        expected = (2.0 * 0.5 * area * math.log(n) / (math.pi * n**2)) ** 0.5
        assert connectivity_radius_closed_form(d, area, n) == pytest.approx(expected)

    def test_connectivity_radius_needs_d2(self):
        with pytest.raises(ValueError):
            connectivity_radius_closed_form(1, 1.0, 100)

    def test_min_center_halfdistance(self):
        assert min_center_halfdistance(NORTH_SOUTH) == pytest.approx(1.0)
        assert math.isinf(min_center_halfdistance(None))
        assert math.isinf(min_center_halfdistance(NORTH_SOUTH[:1]))


class TestRegimes:
    def test_classification(self):
        assert classify_regime(0.05, 0.1, 0.5, 1.0) == "no_overlap"
        assert classify_regime(0.3, 0.1, 0.5, 1.0) == "intermediate"
        assert classify_regime(0.7, 0.1, 0.5, 1.0) == "full"
        assert classify_regime(1.5, 0.1, 0.5, 1.0) == "over"


class TestMst:
    def test_collinear_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        assert longest_mst_edge(pts) == pytest.approx(2.0)

    def test_upper_bounds_any_spanning_edge(self, rng):
        pts = rng.random((30, 2))
        r_mc = longest_mst_edge(pts)
        # at radius r_mc the graph is connected; strictly below it is not
        views = ViewSet(pts, n=30, c=1)
        assert len(connected_components(build_graph(views, r_mc))) == 1
        assert len(connected_components(build_graph(views, r_mc * (1 - 1e-9)))) > 1

    def test_matches_sorted_edge_sweep(self, rng):
        """Exactly the longest edge a Kruskal sweep over the same distances adds, and
        the one-pass Prim's n - 1 edges are, sorted, exactly the sweep's, with rounded
        (tied) and duplicate points included."""
        for trial in range(30):
            n, d = int(rng.integers(2, 60)), int(rng.integers(1, 4))
            pts = rng.random((n, d))
            if trial % 2:
                pts = np.round(pts, 1)
            dist = np.sqrt(sum((pts[:, None, k] - pts[None, :, k]) ** 2 for k in range(d)))
            iu, ju = np.triu_indices(n, k=1)
            comp = np.arange(n)
            merged = []
            for e in np.argsort(dist[iu, ju], kind="stable"):
                a, b = comp[iu[e]], comp[ju[e]]
                if a != b:
                    comp[comp == b] = a
                    merged.append(float(dist[iu[e], ju[e]]))
                    if len(merged) == n - 1:
                        break
            assert longest_mst_edge(pts) == merged[-1]
            assert np.sort(_nn_far_mst(pts)[2]).tolist() == merged

    def test_one_pass_matches_dense_reference(self):
        """nn, far and the longest edge of the one-pass Prim equal the dense
        reference's bit for bit on widths 1-3, with every other draw rounded to 0.1
        (ties and duplicate points)."""
        rng = np.random.default_rng(24)
        for trial in range(60):
            n, d = int(rng.integers(2, 401)), int(rng.integers(1, 4))
            pts = rng.random((n, d))
            if trial % 2:
                pts = np.round(pts, 1)
            nn, far, longest = _dense_reference(pts)
            got_nn, got_far, edges = _nn_far_mst(pts)
            assert got_nn.tobytes() == nn.tobytes() and got_far.tobytes() == far.tobytes()
            assert edges.shape == (n - 1,) and float(edges.max()) == longest == longest_mst_edge(pts)

    def test_wide_rows_lie_within_the_tolerance(self):
        """On widths 4-32 a 1-row distance call can move a squared distance in its
        last bits. nn and far are a min and a max of the distances, and the longest
        edge a bottleneck (a min over spanning trees of a max), so each lies within
        2**-43 of the largest squared row norm of the dense reference's, in squared
        units."""
        rng = np.random.default_rng(43)
        for trial in range(40):
            n, d = int(rng.integers(2, 200)), int(rng.integers(4, 33))
            pts = rng.standard_normal((n, d))
            if trial % 2:
                pts = np.round(pts, trial % 4 // 2)  # duplicates and ties
            nn, far, longest = _dense_reference(pts)
            got_nn, got_far, edges = _nn_far_mst(pts)
            tol = 2.0**-43 * sq_norms(pts).max()
            assert np.abs(got_nn**2 - nn**2).max() <= tol
            assert np.abs(got_far**2 - far**2).max() <= tol
            assert abs(float(edges.max()) ** 2 - longest**2) <= tol

    def test_components_are_n_minus_the_edges_within_r(self):
        """The r-graph of one-view points has n - #(MST edges <= r) components, with ==
        on widths 1-3, raw and rounded to 0.1 (ties and duplicate points), at a random
        r and at r set to an MST edge (Penrose 1997)."""
        rng = np.random.default_rng(25)
        for trial in range(60):
            n, d = int(rng.integers(2, 201)), int(rng.integers(1, 4))
            pts = rng.random((n, d))
            if trial % 2:
                pts = np.round(pts, 1)
            edges = np.sort(_nn_far_mst(pts)[2])
            positive = edges[edges > 0.0]  # build_graph takes a threshold > 0
            if not positive.size:
                continue
            for r in (float(rng.uniform(0.0, 1.2 * edges[-1])), float(rng.choice(positive))):
                components = connected_components(build_graph(ViewSet(pts, n=n, c=1), r))
                assert n - int(np.searchsorted(edges, r, "right")) == len(components)

    def test_peak_memory_is_o_n(self):
        """At n=3000, d=2, longest_mst_edge and one empirical_regime trial each peak
        under 1 MB beyond their inputs; the whole distance matrix alone is 72 MB."""
        points = np.random.default_rng(0).random((3000, 2))
        for call in (lambda: longest_mst_edge(points), lambda: empirical_regime(GeomConfig(d=2, n=3000, area=1.0))):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6, peak

    def test_graph_at_the_radius_is_connected(self):
        """The graph at threshold exactly the longest MST edge is connected:
        build_graph and longest_mst_edge see the same distance bits."""
        rng = np.random.default_rng(2)
        disconnected = 0
        for _ in range(200):
            pts = rng.random((int(rng.integers(100, 401)), 2))
            graph = build_graph(ViewSet(pts, n=pts.shape[0], c=1), longest_mst_edge(pts))
            disconnected += len(connected_components(graph)) > 1
        assert disconnected == 0, f"{disconnected} of 200 graphs disconnected at the longest MST edge"

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="^n must be >= 2, got 1$"):
            longest_mst_edge(np.zeros((1, 2)))

    @pytest.mark.parametrize(
        "points, message",
        [
            ([[0.0, 0.0], [1.0, 0.0], [math.nan, 0.0], [3.0, 0.0]], "point matrix contains non-finite values"),
            ([[0.0, 0.0], [math.inf, 0.0]], "point matrix contains non-finite values"),
            ([0.0, 1.0, 3.0], r"^point matrix must be 2-D and non-empty, got shape \(3,\)$"),
        ],
        ids=["nan", "inf", "1-d"],
    )
    def test_rejects_non_finite_and_non_2d_points(self, points, message):
        with pytest.raises(ValueError, match=message):
            longest_mst_edge(np.array(points))


class TestEmpiricalRegime:
    def test_fields_ordered(self):
        cfg = GeomConfig(d=2, n=80, area=1.0, noise_r=0.05, seed=0)
        rep = empirical_regime(cfg, trials=3)
        assert 0.0 < rep.r1 < rep.r2
        assert rep.r_mc_empirical > 0.0
        assert rep.regime in ("no_overlap", "intermediate", "full", "over")

    @pytest.mark.parametrize("centers", [None, NORTH_SOUTH])
    def test_mst_radius_is_longest_mst_edge(self, centers):
        """empirical_regime's Prim pass, the one it reads the neighbor statistics from,
        gives exactly longest_mst_edge on the same draws."""
        cfg = GeomConfig(d=2 if centers is None else 3, n=60, area=1.0, class_centers=centers, seed=4)
        rng = np.random.default_rng(cfg.seed)
        radii = [longest_mst_edge(_sample_points(cfg, rng)) for _ in range(3)]
        assert empirical_regime(cfg, trials=3).r_mc_empirical == float(np.mean(radii))

    @pytest.mark.parametrize(
        "d, n, noise_r, centers",
        [(1, 2, 0.0, None), (1, 150, 0.3, None), (2, 400, 0.01, None), (2, 90, 2.0, None), (3, 200, 0.1, NORTH_SOUTH), (3, 60, 1.5, NORTH_SOUTH)],
    )
    def test_matches_dense_reference(self, d, n, noise_r, centers):
        """r1, r2, r_mc_empirical and the regime equal the dense reference's with ==,
        on flat and cap samples."""
        cfg = GeomConfig(d=d, n=n, area=1.0, class_centers=centers, noise_r=noise_r, seed=n)
        rep = empirical_regime(cfg, trials=3)
        assert (rep.r1, rep.r2, rep.r_mc_empirical, rep.regime) == _dense_regime(cfg, 3)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            empirical_regime(GeomConfig(d=2, n=10, area=1.0), trials=0)


class TestMstTrials:
    @pytest.mark.parametrize("centers", [None, NORTH_SOUTH])
    def test_yields_each_sample_with_its_pass(self, centers):
        """Each trial is the next sample of default_rng(cfg.seed) with its one-pass nn,
        far and MST edges."""
        cfg = GeomConfig(d=2 if centers is None else 3, n=40, area=1.0, class_centers=centers, seed=7)
        rng = np.random.default_rng(cfg.seed)
        for points, nn, far, edges in mst_trials(cfg, 3):
            expected = _sample_points(cfg, rng)
            assert points.tobytes() == expected.tobytes()
            for got, want in zip((nn, far, edges), _nn_far_mst(expected)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_checked_at_the_call(self, trials):
        with pytest.raises(ValueError, match=f"^trials must be >= 1, got {trials}$"):
            mst_trials(GeomConfig(d=2, n=10, area=1.0), trials)


class TestAugment:
    def test_shape_and_anchor_major_order(self, rng):
        anchors = EmbeddingSet(rng.standard_normal((4, 3)))
        views = augment(anchors, 0.5, 3, seed=0)
        assert (views.n, views.c, views.m) == (4, 3, 3)
        assert views.values.shape == (12, 3)

    def test_one_sided_noise(self, rng):
        anchors = EmbeddingSet(rng.standard_normal((5, 3)))
        views = augment(anchors, 0.7, 2, seed=1)
        diffs = views.values.reshape(5, 2, 3) - anchors.values[:, None, :]
        assert np.all(diffs >= 0.0) and np.all(diffs <= 0.7)

    def test_zero_r_copies_anchors(self, rng):
        anchors = EmbeddingSet(rng.standard_normal((3, 2)))
        views = augment(anchors, 0.0, 2, seed=0)
        np.testing.assert_array_equal(views.values.reshape(3, 2, 2)[:, 0], anchors.values)
        np.testing.assert_array_equal(views.values.reshape(3, 2, 2)[:, 1], anchors.values)

    def test_shared_base_noise_across_strengths(self, rng):
        anchors = EmbeddingSet(rng.standard_normal((3, 2)))
        d1 = augment(anchors, 0.5, 2, seed=3).values - np.repeat(anchors.values, 2, axis=0)
        d2 = augment(anchors, 1.0, 2, seed=3).values - np.repeat(anchors.values, 2, axis=0)
        np.testing.assert_allclose(d2, 2.0 * d1)

    @pytest.mark.parametrize("r", [0.3, 2.0])
    def test_noise_is_uniform_on_the_unit_cube(self, rng, r):
        """Per coordinate, (view - anchor) / r is U(0, 1): a Kolmogorov-Smirnov test
        on 3000 values per coordinate keeps p >= 1e-6."""
        anchors = EmbeddingSet(rng.standard_normal((300, 3)))
        noise = (augment(anchors, r, 10, seed=7).values.reshape(300, 10, 3) - anchors.values[:, None, :]) / r
        for k in range(3):
            assert scipy.stats.kstest(noise[..., k].ravel(), "uniform").pvalue >= 1e-6, k

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_strength(self, rng, r):
        with pytest.raises(ValueError, match=f"^r must be >= 0 and finite, got {r}$"):
            augment(EmbeddingSet(rng.standard_normal((3, 2))), r, 2)

    def test_validation(self, rng):
        anchors = EmbeddingSet(rng.standard_normal((3, 2)))
        with pytest.raises(ValueError):
            augment(anchors, -0.1, 2)
        with pytest.raises(ValueError):
            augment(anchors, 0.1, 0)

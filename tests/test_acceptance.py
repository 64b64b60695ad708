"""The eleven acceptance criteria, one test each.

Each test registers a one-line PASS/FAIL verdict that is printed in the
"acceptance criteria" section at the end of the pytest run. Criteria 5 and 7
are expected to fail; the analysis of why their stated targets are not
attainable with this construction lives in notes/decisions.md. Beside
criterion 7, one more test asserts the scaling laws that analysis rests on.
"""

import csv
import math
import time

import numpy as np
import pytest

from augoverlap import auggraph, bounds, cli, geomsim, losses, metrics, synth, trainer
from augoverlap.data import ViewSet
from augoverlap.metrics import MetricConfig

from conftest import record_criterion

E = math.e
NORTH_SOUTH = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
M_GRID = [1, 4, 16, 64, 256]


def _two_caps(n, seed, centers=NORTH_SOUTH, area=1.0):
    cfg = geomsim.GeomConfig(d=3, n=n, area=area, class_centers=centers, seed=seed)
    return geomsim.sample_caps(cfg)


def test_criterion_01_mc_error_bound():
    """|L_MC - L_mCE^-| <= e/sqrt(M) on CI data, 50 seeds, M in {1,...,256}."""
    start = time.monotonic()
    worst = {m: 0.0 for m in M_GRID}
    for seed in range(50):
        pairs = synth.ci_pairs(2000, 10, 32, spread=0.3, seed=seed)
        exact = losses.mce_negative_term(pairs.left, pairs.left_labels)
        for m in M_GRID:
            err = abs(losses.mc_negative_term(pairs.left, pairs.left_labels, m, seed=seed) - exact)
            worst[m] = max(worst[m], err)
    elapsed = time.monotonic() - start
    ok = all(worst[m] <= E / math.sqrt(m) for m in M_GRID) and elapsed < 30.0
    detail = (
        f"max |L_MC - L_mCE^-| per M: "
        + ", ".join(f"M={m}: {worst[m]:.4f} <= {E / math.sqrt(m):.4f}" for m in M_GRID)
        + f"; {elapsed:.1f}s"
    )
    record_criterion(1, ok, detail)
    for m in M_GRID:
        assert worst[m] <= E / math.sqrt(m)
    assert elapsed < 30.0


def test_criterion_02_sandwich():
    """L_mCE within [L_contr - Var/2 - e/sqrt(M), L_contr + e/sqrt(M)] at every M."""
    start = time.monotonic()
    violations = []
    for seed in range(5):
        pairs = synth.ci_pairs(2000, 10, 32, spread=0.3, seed=seed)
        l_mce = losses.mce_adjusted(pairs.left, pairs.left_labels).value
        var = losses.class_stats(pairs.left, pairs.left_labels).cond_variance
        for m in M_GRID:
            l_contr = losses.infonce_adjusted(pairs, m, trials=100, seed=seed).value
            lo, up = bounds.bounds_ci(
                bounds.BoundInputs(l_contr=l_contr, cond_variance=var, m_negatives=m)
            )
            if not lo <= l_mce <= up:
                violations.append((seed, m, lo, l_mce, up))
    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 30.0
    detail = f"{5 * len(M_GRID)} (seed, M) combinations checked, {len(violations)} violations; {elapsed:.1f}s"
    record_criterion(2, ok, detail)
    assert not violations
    assert elapsed < 30.0


def test_criterion_03_bound_curve_shape(tmp_path):
    """Bound CSV: ours strictly decreasing and smallest for M >= 64; arora/ash exceed bao; bao constant."""
    assert cli.main(["bounds", "--l-unsup", "1.0", "--out", str(tmp_path)]) == 0
    with (tmp_path / "bounds.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    table = {int(r["M"]): {k: float(v) for k, v in r.items()} for r in rows}
    ms = sorted(table)
    ours = [table[m]["ours_upper"] for m in ms]
    strictly_decreasing = all(a > b for a, b in zip(ours, ours[1:]))
    smallest_from_64 = all(
        table[m]["ours_upper"] <= min(table[m][c] for c in ("arora", "nozawa", "ash", "bao"))
        for m in ms
        if m >= 64
    )
    exceed_bao = table[4096]["arora"] > table[4096]["bao"] and table[4096]["ash"] > table[4096]["bao"]
    baos = [table[m]["bao"] for m in ms]
    bao_constant = max(baos) - min(baos) < 1e-12
    ok = strictly_decreasing and smallest_from_64 and exceed_bao and bao_constant
    detail = (
        f"ours decreasing: {strictly_decreasing}; smallest for M>=64: {smallest_from_64}; "
        f"arora/ash exceed bao at M=4096: {exceed_bao}; bao constant: {bao_constant}"
    )
    record_criterion(3, ok, detail)
    assert ok


def test_criterion_04_counterexample_accuracy():
    """Perfect-alignment counterexample at chance accuracy for K in {2, 10}."""
    start = time.monotonic()
    devs = {}
    for k in (2, 10):
        accs = [trainer.counterexample_prop53(10000, k, 4, seed=s)[2] for s in range(20)]
        devs[k] = abs(float(np.mean(accs)) - 1.0 / k)
    elapsed = time.monotonic() - start
    ok = all(d <= 0.02 for d in devs.values()) and elapsed < 20.0
    detail = f"mean |acc - 1/K| over 20 seeds: K=2: {devs[2]:.4f}, K=10: {devs[10]:.4f} (cap 0.02); {elapsed:.1f}s"
    record_criterion(4, ok, detail)
    assert devs[2] <= 0.02 and devs[10] <= 0.02
    assert elapsed < 20.0


def test_criterion_05_figure_sweep():
    """Trainer accuracy sweep plus graph statistics at r = 0.5 and r = 1.5.

    Expected to fail: the accuracy targets at r = 0 (chance) and r = 1.5
    (collapse below 0.6) are not reachable with this architecture -- both runs
    converge to accuracy 1.0; see notes/decisions.md. The graph sub-criteria
    and the r = 0.08 / r = 0.5 accuracy floors do pass.
    """
    start = time.monotonic()
    train_emb, train_lab = _two_caps(2000, seed=0)
    test_emb, test_lab = _two_caps(500, seed=1)
    accs = {}
    for r in (0.0, 0.08, 0.5, 1.5):
        cfg = trainer.TrainConfig(epochs=40, batch_size=256, learning_rate=0.05, noise_r=r, seed=0)
        result = trainer.train_contrastive(train_emb, cfg)
        accs[r] = trainer.linear_eval(result.params, train_emb, train_lab, test_emb, test_lab)

    graph_ok = True
    for seed in range(3):
        anchors, labels = _two_caps(200, seed=seed)
        for r in (0.5, 1.5):
            views = geomsim.augment(anchors, r, 10, seed=seed + 1000)
            g = auggraph.build_graph(views, 0.35)
            stats = auggraph.graph_stats(g, labels)
            inter = sum(1 for i, j in g.edges if labels.labels[i] != labels.labels[j])
            if r == 0.5:
                graph_ok &= (
                    all(cs.connected for cs in stats.per_class) and stats.d_max <= 3.0 and inter == 0
                )
            else:
                graph_ok &= len(stats.components) == 1
    elapsed = time.monotonic() - start

    acc_r0_ok = abs(accs[0.0] - 0.5) <= 0.05
    acc_r008_ok = accs[0.08] >= 0.9
    acc_r05_ok = accs[0.5] >= 0.95
    acc_r15_ok = accs[1.5] <= 0.6
    ok = acc_r0_ok and acc_r008_ok and acc_r05_ok and acc_r15_ok and graph_ok and elapsed < 600.0
    detail = (
        f"acc(r=0)={accs[0.0]:.2f} (target 0.50+-0.05: {'ok' if acc_r0_ok else 'MISSED'}), "
        f"acc(0.08)={accs[0.08]:.2f} (>=0.9: {'ok' if acc_r008_ok else 'MISSED'}), "
        f"acc(0.5)={accs[0.5]:.2f} (>=0.95: {'ok' if acc_r05_ok else 'MISSED'}), "
        f"acc(1.5)={accs[1.5]:.2f} (<=0.6: {'ok' if acc_r15_ok else 'MISSED'}); "
        f"graph checks (r=0.5 intra-connected/D<=3/no inter edges, r=1.5 merged): "
        f"{'ok' if graph_ok else 'MISSED'}; {elapsed:.0f}s"
        + ("" if acc_r0_ok and acc_r15_ok else "; known limitation, see notes/decisions.md")
    )
    record_criterion(5, ok, detail)
    assert graph_ok
    assert acc_r008_ok and acc_r05_ok
    assert elapsed < 600.0
    assert acc_r0_ok, f"accuracy at r=0 is {accs[0.0]:.2f}, not chance (see notes/decisions.md)"
    assert acc_r15_ok, f"accuracy at r=1.5 is {accs[1.5]:.2f}, above 0.6 (see notes/decisions.md)"


def test_criterion_06_nn_distance_closed_form():
    """Closed-form E[min NN distance] within 15% of Monte Carlo for d=2."""
    start = time.monotonic()
    rels = {}
    rng = np.random.default_rng(99)
    for n in (50, 200, 1000):
        closed = geomsim.nn_distance_closed_form(1, 2, 1.0, n)
        vals = []
        for _ in range(1000):
            pts = rng.random((n, 2))
            sq = np.sum(pts**2, axis=1)
            dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * pts @ pts.T, 0.0))
            np.fill_diagonal(dist, np.inf)
            vals.append(float(dist.min(axis=1).mean()))
        mc = float(np.mean(vals))
        rels[n] = abs(closed - mc) / mc
    elapsed = time.monotonic() - start
    ok = all(r <= 0.15 for r in rels.values()) and elapsed < 120.0
    detail = ", ".join(f"N={n}: {r:.1%}" for n, r in rels.items()) + f" (cap 15%); {elapsed:.1f}s"
    record_criterion(6, ok, detail)
    for n, r in rels.items():
        assert r <= 0.15
    assert elapsed < 120.0


def test_criterion_07_connectivity_scaling():
    """Regression of log r_mc on log(log N / N^2)/d, slope target [0.8, 1.2].

    Expected to fail: the empirical connectivity radius of N uniform points
    scales as (log N / N)^(1/d), so against the stated log(log N / N^2)/d
    predictor the fitted slope sits near 0.5; see notes/decisions.md.
    """
    start = time.monotonic()
    xs, ys = [], []
    for n in (100, 300, 1000, 3000):
        cfg = geomsim.GeomConfig(d=2, n=n, area=1.0, seed=5)
        rep = geomsim.empirical_regime(cfg, trials=20)
        xs.append(math.log(math.log(n) / n**2) / 2.0)
        ys.append(math.log(rep.r_mc_empirical))
    slope = float(np.polyfit(xs, ys, 1)[0])
    elapsed = time.monotonic() - start
    ok = 0.8 <= slope <= 1.2 and elapsed < 300.0
    detail = (
        f"fitted slope {slope:.3f} vs target [0.8, 1.2]; {elapsed:.0f}s"
        + ("" if ok else "; known limitation, see notes/decisions.md")
    )
    record_criterion(7, ok, detail)
    assert elapsed < 300.0
    assert 0.8 <= slope <= 1.2, f"slope {slope:.3f} outside [0.8, 1.2] (see notes/decisions.md)"


def test_scaling_laws_of_the_closest_pair_and_the_longest_mst_edge():
    """notes/decisions.md's table as assertions, in criterion 7's setting (d = 2,
    area 1, seed 5, 20 trials drawn as empirical_regime draws them) over N in (100,
    300, 1000). The log trial-mean closest pair against log(log N / N^2)/d, and the
    log trial-mean longest MST edge against Penrose's log(log N / N)/d, each fit a
    slope in [0.8, 1.2]. Against criterion 7's predictor the longest edge fits about
    0.5, so swapping the two predictors fails."""
    d, ns = 2, (100, 300, 1000)
    closest, longest = [], []
    for n in ns:
        cfg = geomsim.GeomConfig(d=d, n=n, area=1.0, seed=5)
        rng = np.random.default_rng(cfg.seed)
        trials = [geomsim._nn_far_mst(geomsim._sample_points(cfg, rng)) for _ in range(20)]
        closest.append(math.log(np.mean([nn.min() for nn, _, _ in trials])))
        longest.append(math.log(np.mean([edges.max() for _, _, edges in trials])))
    pair_slope = float(np.polyfit([math.log(math.log(n) / n**2) / d for n in ns], closest, 1)[0])
    mst_slope = float(np.polyfit([math.log(math.log(n) / n) / d for n in ns], longest, 1)[0])
    assert 0.8 <= pair_slope <= 1.2, f"closest-pair slope {pair_slope:.3f}"
    assert 0.8 <= mst_slope <= 1.2, f"longest-MST-edge slope {mst_slope:.3f}"


def test_criterion_08_spectral_certificate():
    """Spectral D-hat >= BFS diameter on 200 random connected non-bipartite graphs; K3 exact."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    checked, failures = 0, 0
    while checked < 200:
        n = int(rng.integers(3, 41))
        p = float(rng.uniform(0.1, 0.7))
        upper = np.triu(rng.random((n, n)) < p, 1)
        a = (upper | upper.T).astype(float)
        edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n) if a[i, j])
        g = auggraph.AugGraph(n=n, edges=edges, threshold=1.0, metric="euclidean")
        adj = g.neighbors()
        members = list(range(n))
        diam = auggraph.subgraph_diameter(adj, members)
        if math.isinf(diam) or auggraph.class_graph_stats(adj).bipartite:
            continue
        lam1, lam2, omega = auggraph.adjacency_spectrum(a)
        d_hat, _ = bounds.spectral_diameter(omega, lam1, lam2)
        checked += 1
        if not d_hat >= diam - 1e-9:
            failures += 1

    a3 = np.ones((3, 3)) - np.eye(3)
    lam1, lam2, omega = auggraph.adjacency_spectrum(a3)
    d_hat_k3, _ = bounds.spectral_diameter(omega, lam1, lam2)
    k3_exact = abs(d_hat_k3 - 1.0) < 1e-6
    elapsed = time.monotonic() - start
    ok = failures == 0 and k3_exact and elapsed < 30.0
    detail = f"{checked} graphs, {failures} certificate violations; K3 D-hat = {d_hat_k3:.6f}; {elapsed:.1f}s"
    record_criterion(8, ok, detail)
    assert failures == 0
    assert k3_exact
    assert elapsed < 30.0


def test_criterion_09_metrics_suite():
    """gacr(max,min,1) == acr; ACR nondecreasing in r; ARC/GARC vs accuracy Pearson >= 0.7."""
    start = time.monotonic()
    rng = np.random.default_rng(1)
    equiv_ok = True
    for n in (2, 3, 4):
        for c in (2, 3):
            for m in (1, 2, 3):
                for _ in range(5):
                    v = ViewSet(rng.standard_normal((n * c, m)), n=n, c=c)
                    if abs(metrics.gacr(v, MetricConfig("max", "min", 1)) - metrics.acr(v)) > 1e-12:
                        equiv_ok = False

    # harder geometry: nearly touching caps, so accuracy degrades as r grows
    angle = 0.65
    centers = np.array(
        [[math.sin(angle), 0.0, math.cos(angle)], [-math.sin(angle), 0.0, math.cos(angle)]]
    )
    train_emb, train_lab = _two_caps(600, seed=0, centers=centers)
    test_emb, test_lab = _two_caps(300, seed=1, centers=centers)
    eval_emb, _ = _two_caps(150, seed=2, centers=centers)
    eval_views = geomsim.augment(eval_emb, 0.1, 4, seed=7)

    r_grid = [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.1, 1.5]
    raw_acrs = [metrics.acr(geomsim.augment(eval_emb, r, 4, seed=7)) for r in r_grid]
    monotone_ok = all(a <= b + 1e-9 for a, b in zip(raw_acrs, raw_acrs[1:]))

    def encoded(params, views):
        return ViewSet(trainer.encode_array(params, views.values), n=views.n, c=views.c)

    accs, arcs, garcs = [], [], []
    for r in r_grid:
        acc_s, arc_s, garc_s = [], [], []
        for seed in range(5):
            cfg = trainer.TrainConfig(
                epochs=60, batch_size=128, learning_rate=0.05, noise_r=r, hidden_size=16, out_dim=8, seed=seed
            )
            result = trainer.train_contrastive(train_emb, cfg)
            acc_s.append(trainer.linear_eval(result.params, train_emb, train_lab, test_emb, test_lab))
            v_final = encoded(result.params, eval_views)
            v_init = encoded(result.params_epoch1, eval_views)
            arc_s.append(metrics.arc(metrics.acr(v_final), metrics.acr(v_init)))
            garc_s.append(metrics.garc(v_final, v_init, MetricConfig("max", "min", 1)))
        accs.append(float(np.mean(acc_s)))
        arcs.append(float(np.mean(arc_s)))
        garcs.append(float(np.mean(garc_s)))
    rho_arc = metrics.pearson(arcs, accs)
    rho_garc = metrics.pearson(garcs, accs)
    elapsed = time.monotonic() - start
    ok = equiv_ok and monotone_ok and rho_arc >= 0.7 and rho_garc >= 0.7 and elapsed < 600.0
    detail = (
        f"gacr==acr: {equiv_ok}; ACR nondecreasing in r: {monotone_ok}; "
        f"Pearson(ARC, acc) = {rho_arc:.3f}, Pearson(GARC, acc) = {rho_garc:.3f} over "
        f"{len(r_grid)} sweep points (floor 0.7); {elapsed:.0f}s"
    )
    record_criterion(9, ok, detail)
    assert equiv_ok
    assert monotone_ok
    assert rho_arc >= 0.7 and rho_garc >= 0.7
    assert elapsed < 600.0


def test_criterion_10_gradient_oracle():
    """Analytic gradients vs central finite differences, 1e-4 relative, 100 instances."""
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for instance in range(100):
        b = int(rng.integers(3, 7))
        m_in = int(rng.integers(2, 5))
        hidden = int(rng.integers(3, 6))
        m_out = int(rng.integers(2, 5))
        params = trainer.init_params(m_in, hidden, m_out, seed=instance)
        v1 = rng.standard_normal((b, m_in))
        v2 = rng.standard_normal((b, m_in))

        def loss_at(p):
            f1, _ = trainer.forward(p, v1)
            f2, _ = trainer.forward(p, v2)
            return trainer.infonce_batch_loss(f1, f2)[0]

        f1, c1 = trainer.forward(params, v1)
        f2, c2 = trainer.forward(params, v2)
        _, g1, g2 = trainer.infonce_batch_loss(f1, f2)
        d1 = trainer.backward(params, c1, g1)
        d2 = trainer.backward(params, c2, g2)
        analytic = [a + b_ for a, b_ in zip(d1, d2)]

        arrays = [params.w1, params.b1, params.w2, params.b2]
        eps = 1e-6
        for ai, arr in enumerate(arrays):
            numeric = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                plus = [x.copy() for x in arrays]
                minus = [x.copy() for x in arrays]
                plus[ai][ix] += eps
                minus[ai][ix] -= eps
                numeric[ix] = (
                    loss_at(trainer.EncoderParams(*plus)) - loss_at(trainer.EncoderParams(*minus))
                ) / (2.0 * eps)
            rel = float(np.linalg.norm(analytic[ai] - numeric) / max(np.linalg.norm(numeric), 1e-12))
            worst = max(worst, rel)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    detail = f"worst relative gradient error {worst:.2e} over 100 instances (cap 1e-4); {elapsed:.1f}s"
    record_criterion(10, ok, detail)
    assert worst <= 1e-4
    assert elapsed < 10.0


def test_criterion_11_ci_ratio_diagnostic():
    """CI pairs give ratio in [0.8, 1.25]; tight dependent pairs give ratio > 1.5."""
    start = time.monotonic()
    ci_vals, dep_vals = [], []
    for seed in range(5):
        ci_vals.append(metrics.ci_ratio(synth.ci_pairs(1000, 5, 16, spread=0.3, seed=seed)))
        dep_vals.append(metrics.ci_ratio(synth.dependent_pairs(1000, 5, 16, spread=0.5, perturb=0.02, seed=seed)))
    elapsed = time.monotonic() - start
    ci_ok = all(0.8 <= v <= 1.25 for v in ci_vals)
    dep_ok = all(v > 1.5 for v in dep_vals)
    ok = ci_ok and dep_ok and elapsed < 20.0
    detail = (
        f"CI ratios {min(ci_vals):.3f}..{max(ci_vals):.3f} (need [0.8, 1.25]); "
        f"dependent ratios {min(dep_vals):.3f}..{max(dep_vals):.3f} (need > 1.5); {elapsed:.1f}s"
    )
    record_criterion(11, ok, detail)
    assert ci_ok
    assert dep_ok
    assert elapsed < 20.0

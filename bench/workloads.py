"""The benchmark's three workloads: set-up, one timed case, and its checks.

Each workload cycles through a ladder of three sizes, so a change in
complexity shows as a change in the fitted exponent. A "pass" runs every size
once; the other case parameters alternate by pass, and ``period`` passes
cover every combination. Case inputs derive from ``(seed, case index)`` only.

Library calls go through the module attribute (``auggraph.build_graph``, not
an imported name) so the traced run's wrappers see them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import oracles
from augoverlap import auggraph, bounds, data, geomsim, losses, metrics, synth, trainer
from augoverlap.errors import PowerIterationError

NORTH_SOUTH = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])


def case_seeds(seed: int, index: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, index])
    return [int(s) for s in rng.integers(2**31, size=count)]


def two_caps(n: int, seed: int):
    cfg = geomsim.GeomConfig(d=3, n=n, area=1.0, class_centers=NORTH_SOUTH, seed=seed)
    return geomsim.sample_caps(cfg)


class GraphMetrics:
    """``repro fig7`` + ``graph`` + ``metrics``: augmentation graph statistics
    and confusion ratios of a trained encoder."""

    name = "graph-metrics"
    sizes = (100, 150, 200)
    period = 2
    views_per_anchor = 10
    threshold = 0.35
    probe_views = 5  # small-noise views encoded for acr/gacr
    probe_noise = 0.1

    def setup(self, seed: int, workdir: Path):
        anchors, _ = two_caps(1000, seed)
        cfg = trainer.TrainConfig(epochs=5, batch_size=256, noise_r=0.5, seed=seed)
        result = trainer.train_contrastive(anchors, cfg)
        return {"workdir": workdir, "final": result.params, "init": result.params_epoch1}

    def params(self, seed: int, index: int, pass_no: int, size: int) -> dict:
        cap, view, probe = case_seeds(seed, index, 3)
        return {"n": size, "r": (0.5, 1.5)[pass_no % 2], "cap_seed": cap, "view_seed": view, "probe_seed": probe}

    def run(self, state, p) -> dict:
        anchors, labels = two_caps(p["n"], p["cap_seed"])
        views = geomsim.augment(anchors, p["r"], self.views_per_anchor, seed=p["view_seed"])
        path = state["workdir"] / "case.views"
        data.save_views(views, path)
        loaded = data.load_views(path)
        graph = auggraph.build_graph(loaded, self.threshold)
        try:
            stats = auggraph.graph_stats(graph, labels)
        except PowerIterationError as exc:  # defect 1 of the seed commit, if the checker confirms it
            stats = exc
        probe = geomsim.augment(anchors, self.probe_noise, self.probe_views, seed=p["probe_seed"])
        confusion = {}
        for tag in ("final", "init"):
            encoded = data.ViewSet(trainer.encode_array(state[tag], probe.values), n=probe.n, c=probe.c)
            confusion[tag] = (metrics.acr(encoded), metrics.gacr(encoded, metrics.MetricConfig("max", "min", 1)))
        return {"path": path, "loaded": loaded, "labels": labels, "graph": graph, "stats": stats, "confusion": confusion}

    def check(self, state, p, out) -> list:
        checks = [oracles.roundtrip_check(out["path"], out["loaded"], state["workdir"] / "again.views")]
        checks += oracles.graph_checks(out["loaded"], out["labels"], out["graph"], out["stats"])
        checks += [oracles.confusion_check(tag, *pair) for tag, pair in out["confusion"].items()]
        return checks


class TrainBounds:
    """``train --dump-emb`` + ``repro fig6`` + ``repro lemma42`` + criterion 2:
    encoder training, the loss/bound sandwich and embedding dumps."""

    name = "train-bounds"
    sizes = (500, 1000, 2000)
    period = 2
    # One epoch on each negative-sampling path per case, like a two-point fig6
    # sweep. Running both paths in every case, rather than alternating them
    # between cases, keeps each ladder size one cluster of case times, so the
    # median case is not a boundary between two clusters.
    negative_paths = (None, 16)
    epochs = 1
    classes = 10
    pair_dim = 32
    negatives = 16
    infonce_trials = 50

    def setup(self, seed: int, workdir: Path):
        return {"workdir": workdir}

    def params(self, seed: int, index: int, pass_no: int, size: int) -> dict:
        train, test, pairs = case_seeds(seed, index, 3)
        return {"n": size, "r": (0.08, 0.5)[pass_no % 2], "train_seed": train, "test_seed": test, "pair_seed": pairs}

    def run(self, state, p) -> dict:
        train_emb, train_lab = two_caps(p["n"], p["train_seed"])
        test_emb, test_lab = two_caps(p["n"] // 4, p["test_seed"])
        runs = []
        for m in self.negative_paths:
            cfg = trainer.TrainConfig(epochs=self.epochs, noise_r=p["r"], m_negatives=m, seed=p["train_seed"])
            result = trainer.train_contrastive(train_emb, cfg)
            accuracy = trainer.linear_eval(result.params, train_emb, train_lab, test_emb, test_lab)
            runs.append((result.loss_trace, accuracy))

        pairs = synth.ci_pairs(p["n"], self.classes, self.pair_dim, spread=0.3, seed=p["pair_seed"])
        l_contr = losses.infonce_adjusted(pairs, self.negatives, trials=self.infonce_trials, seed=p["pair_seed"]).value
        variance = losses.class_stats(pairs.left, pairs.left_labels).cond_variance
        mce = losses.mce_adjusted(pairs.left, pairs.left_labels)
        mc = {m: losses.mc_negative_term(pairs.left, pairs.left_labels, m, seed=p["pair_seed"]) for m in (1, 16, 64)}
        inputs = bounds.BoundInputs(
            l_contr=l_contr, cond_variance=variance, m_negatives=self.negatives, k_classes=self.classes
        )
        lower, upper = bounds.bounds_ci(inputs)
        bounds.baseline_bounds(inputs, l_contr)

        # the dump is the test set under the last encoder trained, as ``train --dump-emb`` writes it
        encoded = data.EmbeddingSet(trainer.encode_array(result.params, test_emb.values), normalized=True)
        data.save_embeddings(encoded, state["workdir"] / "test.emb")
        data.save_labels(test_lab, state["workdir"] / "test.lab")
        return {"runs": runs, "sandwich": (lower, mce.value, upper), "mc": mc, "exact": mce.components[1]}

    def check(self, state, p, out) -> list:
        checks = [c for trace, accuracy in out["runs"] for c in oracles.training_checks(trace, accuracy, p["r"])]
        return [
            *checks,
            oracles.sandwich_check(*out["sandwich"]),
            *oracles.mc_error_checks(out["mc"], out["exact"]),
        ]


class Connectivity:
    """``simulate`` + the criterion-7 loop: the exact connectivity radius of a
    flat sample and the graph just at and just below it."""

    name = "connectivity"
    sizes = (200, 300, 400)
    period = 1
    below = 0.9

    def setup(self, seed: int, workdir: Path):
        return {}

    def params(self, seed: int, index: int, pass_no: int, size: int) -> dict:
        points, regime = case_seeds(seed, index, 2)
        return {"n": size, "point_seed": points, "regime_seed": regime}

    def run(self, state, p) -> dict:
        n = p["n"]
        cfg = geomsim.GeomConfig(d=2, n=n, area=1.0, seed=p["point_seed"])
        points = geomsim.sample_flat(cfg, np.random.default_rng(cfg.seed))
        radius = geomsim.longest_mst_edge(points)
        views = data.ViewSet(points, n=n, c=1)
        graphs, comps, diameters = {}, {}, {}
        for tag, threshold in (("exact", radius), ("below", self.below * radius)):
            graphs[tag] = auggraph.build_graph(views, threshold)
            comps[tag] = auggraph.connected_components(graphs[tag])
            if len(comps[tag]) == 1:
                diameters[tag] = auggraph.subgraph_diameter(graphs[tag].neighbors(), list(range(n)))
        regime_cfg = geomsim.GeomConfig(d=2, n=n, area=1.0, seed=p["regime_seed"])
        regime = geomsim.empirical_regime(regime_cfg, trials=1)
        return {
            "points": points,
            "radius": radius,
            "graphs": graphs,
            "comps": comps,
            "diameters": diameters,
            "regime_cfg": regime_cfg,
            "regime": regime,
        }

    def check(self, state, p, out) -> list:
        return [
            oracles.mst_check(out["points"], out["radius"]),
            *oracles.connectivity_checks(out["points"], out["graphs"], out["comps"], out["diameters"]),
            *oracles.regime_checks(out["regime_cfg"], out["regime"]),
        ]


WORKLOADS = {w.name: w for w in (GraphMetrics(), TrainBounds(), Connectivity())}

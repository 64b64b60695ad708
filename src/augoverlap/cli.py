"""Command-line entry point: one subcommand per pipeline plus named repro recipes.

Every run writes its outputs into --out together with a ``manifest.json``
echoing the fully resolved configuration, so any result can be regenerated
from the manifest alone. JSON is the machine interface, CSV the plotting
interface.

Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import auggraph, bounds, data, geomsim, losses, metrics, synth, trainer
from .errors import TrainingDivergenceError

DEFAULT_M_GRID = "2,4,8,16,32,64,128,256,512,1024,2048,4096"


def _int_grid(text: str) -> list[int]:
    try:
        grid = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not grid:
        raise argparse.ArgumentTypeError("empty grid")
    return grid


def _float_grid(text: str) -> list[float]:
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")
    if not grid:
        raise argparse.ArgumentTypeError("empty grid")
    return grid


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _finish(args, name: str, config: dict, result_obj) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", {"command": name, "config": config})
    print(json.dumps(result_obj, sort_keys=True))


def _json_num(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


# ---------------------------------------------------------------------------
# subcommands


def cmd_bounds(args) -> int:
    rows = []
    for m in args.m_grid:
        inputs = bounds.BoundInputs(
            l_contr=args.l_unsup,
            cond_variance=args.var,
            m_negatives=m,
            k_classes=args.k,
        )
        lo, up = bounds.bounds_ci(inputs)
        base = bounds.baseline_bounds(inputs, args.l_unsup)
        rows.append([m, up, lo, base.arora, base.nozawa, base.ash, base.bao])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / args.csv_name, ["M", "ours_upper", "ours_lower", "arora", "nozawa", "ash", "bao"], rows)
    config = {"m_grid": args.m_grid, "l_unsup": args.l_unsup, "var": args.var, "k": args.k}
    _finish(args, "bounds", config, {"rows": len(rows), "csv": str(out / args.csv_name)})
    return 0


def cmd_graph(args) -> int:
    views = data.load_views(args.views)
    labels = data.load_labels(args.labels)
    g = auggraph.build_graph(views, args.threshold, args.metric)
    stats = auggraph.graph_stats(g, labels)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    edge_rows = [[i, j, g.edge_scores[(i, j)]] for i, j in sorted(g.edges)]
    _write_csv(out / "edges.csv", ["i", "j", "min_view_distance"], edge_rows)
    report = {
        "n": g.n,
        "edges": len(g.edges),
        "threshold": g.threshold,
        "metric": g.metric,
        "components": len(stats.components),
        "d_max": _json_num(stats.d_max),
        "intra_edge_fraction": stats.intra_edge_fraction,
        "no_edges": stats.no_edges,
        "omega": stats.omega,
        "lambda1": stats.lambda1,
        "lambda2_abs": stats.lambda2_abs,
        "per_class": [
            {
                "size": cs.size,
                "connected": cs.connected,
                "diameter": _json_num(cs.diameter),
                "lambda1": cs.lambda1,
                "lambda2_abs": cs.lambda2_abs,
                "omega": cs.omega,
                "bipartite": cs.bipartite,
            }
            for cs in stats.per_class
        ],
    }
    _write_json(out / "graph_stats.json", report)
    config = {"views": args.views, "labels": args.labels, "threshold": args.threshold, "metric": args.metric}
    _finish(args, "graph", config, report)
    return 0


def cmd_metrics(args) -> int:
    final_views = data.load_views(args.views_final)
    init_views = data.load_views(args.views_init)
    cfg = metrics.MetricConfig(a1=args.a1, a2=args.a2, k=args.k)
    acr_final = metrics.acr(final_views)
    acr_init = metrics.acr(init_views)
    report = {
        "acr_final": acr_final,
        "acr_init": acr_init,
        "arc": metrics.arc(acr_final, acr_init),
        "gacr_variants": {},
        "garc_variants": {},
    }
    variants = [("max", "min"), ("min", "min"), ("max", "max"), ("min", "max"), ("mean", "mean"), ("median", "median")]
    if (cfg.a1, cfg.a2) not in variants:
        variants.insert(0, (cfg.a1, cfg.a2))
    for a1, a2 in variants:
        vcfg = metrics.MetricConfig(a1=a1, a2=a2, k=args.k)
        name = f"{a1},{a2},k={args.k}"
        g_final = metrics.gacr(final_views, vcfg)
        g_init = metrics.gacr(init_views, vcfg)
        report["gacr_variants"][name] = {"final": g_final, "init": g_init}
        report["garc_variants"][name] = metrics.garc(final_views, init_views, vcfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "metrics.json", report)
    config = {"views_final": args.views_final, "views_init": args.views_init, "a1": args.a1, "a2": args.a2, "k": args.k}
    _finish(args, "metrics", config, report)
    return 0


def _simulate_rows(d, n, area, r_grid, trials, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for r in r_grid:
        connected = 0
        components = []
        diameters = []
        for _ in range(trials):
            cfg = geomsim.GeomConfig(d=d, n=n, area=area, seed=int(rng.integers(2**31)))
            pts = geomsim.sample_flat(cfg, np.random.default_rng(cfg.seed))
            views = data.ViewSet(pts, n=n, c=1)
            if r <= 0.0:
                comps = n
                diam = math.inf
            else:
                g = auggraph.build_graph(views, r, "euclidean")
                comp_list = auggraph.connected_components(g)
                comps = len(comp_list)
                if comps == 1:
                    diam = auggraph.subgraph_diameter(g.neighbors(), list(range(n)))
                else:
                    diam = math.inf
            if comps == 1:
                connected += 1
                diameters.append(diam)
            components.append(comps)
        d_max = max(diameters) if diameters else math.inf
        rows.append([r, connected / trials, float(np.mean(components)), d_max])
    return rows


def cmd_simulate(args) -> int:
    rows = _simulate_rows(args.d, args.n, args.area, args.noise_r, args.trials, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "simulate.csv", ["r", "connected_fraction", "mean_components", "D_max"], rows)
    config = {
        "d": args.d,
        "n": args.n,
        "area": args.area,
        "noise_r": args.noise_r,
        "trials": args.trials,
        "seed": args.seed,
    }
    _finish(args, "simulate", config, {"rows": len(rows), "csv": str(out / "simulate.csv")})
    return 0


def _two_cap_data(n: int, area: float, seed: int):
    centers = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    cfg = geomsim.GeomConfig(d=3, n=n, area=area, class_centers=centers, seed=seed)
    return geomsim.sample_caps(cfg)


def _train_once(args, noise_r: float, seed: int):
    train_emb, train_lab = _two_cap_data(args.n_train, args.cap_area, seed)
    test_emb, test_lab = _two_cap_data(args.n_test, args.cap_area, seed + 1)
    cfg = trainer.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        noise_r=noise_r,
        hidden_size=args.hidden_size,
        out_dim=args.out_dim,
        m_negatives=args.m_negatives,
        seed=seed,
    )
    result = trainer.train_contrastive(train_emb, cfg)
    accuracy = trainer.linear_eval(result.params, train_emb, train_lab, test_emb, test_lab)
    return result, accuracy, (train_emb, train_lab, test_emb, test_lab)


def _add_train_flags(p: argparse.ArgumentParser, epochs_default: int) -> None:
    p.add_argument("--n-train", type=int, default=5000)
    p.add_argument("--n-test", type=int, default=1000)
    p.add_argument("--cap-area", type=float, default=1.0)
    p.add_argument("--epochs", type=int, default=epochs_default)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--learning-rate", type=float, default=0.05)
    p.add_argument("--hidden-size", type=int, default=128)
    p.add_argument("--out-dim", type=int, default=256)
    p.add_argument("--m-negatives", type=int, default=None)


def cmd_train(args) -> int:
    result, accuracy, (train_emb, train_lab, test_emb, test_lab) = _train_once(args, args.noise_r, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = {"final_accuracy": accuracy, "loss_trace": result.loss_trace}
    _write_json(out / "train.json", report)
    if args.dump_emb:
        for part, emb in (("train", train_emb), ("test", test_emb)):
            encoded = data.EmbeddingSet(trainer.encode_array(result.params, emb.values), normalized=True)
            data.save_embeddings(encoded, out / f"{args.dump_emb}_{part}.emb")
        data.save_labels(train_lab, out / f"{args.dump_emb}_train.lab")
        data.save_labels(test_lab, out / f"{args.dump_emb}_test.lab")
    config = {
        "n_train": args.n_train,
        "n_test": args.n_test,
        "cap_area": args.cap_area,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "learning_rate": args.learning_rate,
        "noise_r": args.noise_r,
        "hidden_size": args.hidden_size,
        "out_dim": args.out_dim,
        "m_negatives": args.m_negatives,
        "seed": args.seed,
    }
    _finish(args, "train", config, {"final_accuracy": accuracy, "epochs": args.epochs})
    return 0


def cmd_ci_ratio(args) -> int:
    pairs = data.load_pairs(args.left, args.right, args.labels, args.labels)
    pairs = data.PositivePairs(
        data.normalize(pairs.left), data.normalize(pairs.right), pairs.left_labels, pairs.right_labels
    )
    ratio = metrics.ci_ratio(pairs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "ci_ratio.json", {"ci_ratio": ratio})
    config = {"left": args.left, "right": args.right, "labels": args.labels}
    _finish(args, "ci-ratio", config, {"ci_ratio": ratio})
    return 0


# ---------------------------------------------------------------------------
# repro recipes


def recipe_fig4(args) -> int:
    args.csv_name = "fig4.csv"
    return cmd_bounds(args)


def recipe_fig6(args) -> int:
    rows = []
    for r in args.r_grid:
        _, accuracy, _ = _train_once(args, r, args.seed)
        rows.append([r, accuracy])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "fig6.csv", ["r", "accuracy"], rows)
    config = {"r_grid": args.r_grid, "epochs": args.epochs, "seed": args.seed}
    _finish(args, "repro fig6", config, {"rows": rows})
    return 0


def recipe_fig7(args) -> int:
    anchors, labels = _two_cap_data(args.n, args.cap_area, args.seed)
    rows = []
    for r in args.r_grid:
        views = geomsim.augment(anchors, r, args.views_per_anchor, seed=args.seed)
        g = auggraph.build_graph(views, args.threshold, "euclidean")
        stats = auggraph.graph_stats(g, labels)
        rows.append(
            [
                r,
                len(stats.components),
                _json_num(stats.d_max),
                stats.intra_edge_fraction,
            ]
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "fig7.csv", ["r", "components", "D_max", "intra_edge_fraction"], rows)
    config = {
        "n": args.n,
        "cap_area": args.cap_area,
        "r_grid": args.r_grid,
        "views_per_anchor": args.views_per_anchor,
        "threshold": args.threshold,
        "seed": args.seed,
    }
    _finish(args, "repro fig7", config, {"rows": rows})
    return 0


def recipe_prop53(args) -> int:
    _, _, accuracy = trainer.counterexample_prop53(args.n, args.k, args.dim, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = {"accuracy": accuracy, "chance": 1.0 / args.k, "n": args.n, "k": args.k}
    _write_json(out / "prop53.json", report)
    config = {"n": args.n, "k": args.k, "dim": args.dim, "seed": args.seed}
    _finish(args, "repro prop53", config, report)
    return 0


def recipe_lemma42(args) -> int:
    pairs = synth.ci_pairs(args.n, args.k, args.dim, spread=args.spread, seed=args.seed)
    emb, labels = pairs.left, pairs.left_labels
    exact = losses.mce_negative_term(emb, labels)
    rows = []
    for m in args.m_grid:
        errors = []
        for s in range(args.seeds):
            mc = losses.mc_negative_term(emb, labels, m, trials=1, seed=args.seed + s)
            errors.append(abs(mc - exact))
        bound = bounds.E / math.sqrt(m)
        rows.append([m, float(np.mean(errors)), bound])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "lemma42.csv", ["M", "mc_error", "bound"], rows)
    config = {
        "n": args.n,
        "k": args.k,
        "dim": args.dim,
        "spread": args.spread,
        "m_grid": args.m_grid,
        "seeds": args.seeds,
        "seed": args.seed,
    }
    _finish(args, "repro lemma42", config, {"rows": rows})
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="augoverlap",
        description="Contrastive-learning bounds, augmentation-graph statistics, "
        "geometric overlap thresholds and representation metrics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory (manifest.json always written)")

    p = sub.add_parser("bounds", help="bound-comparison CSV: M, ours_upper, ours_lower, arora, nozawa, ash, bao")
    p.add_argument("--m-grid", type=_int_grid, default=_int_grid(DEFAULT_M_GRID))
    p.add_argument("--l-unsup", type=float, default=1.0, help="measured adjusted contrastive loss")
    p.add_argument("--var", type=float, default=0.0, help="conditional variance for the lower bound")
    p.add_argument("--k", type=int, default=10, help="number of classes")
    common(p)
    p.set_defaults(func=cmd_bounds, csv_name="bounds.csv")

    p = sub.add_parser("graph", help="augmentation-graph stats (JSON) + edge list CSV")
    p.add_argument("--views", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--metric", choices=["euclidean", "cosine"], default="euclidean")
    common(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("metrics", help="ACR/ARC and GACR/GARC variants for two view files")
    p.add_argument("--views-final", required=True)
    p.add_argument("--views-init", required=True)
    p.add_argument("--a1", choices=sorted(metrics.STATS), default="max")
    p.add_argument("--a2", choices=sorted(metrics.STATS), default="min")
    p.add_argument("--k", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("simulate", help="connectivity sweep CSV: r, connected_fraction, mean_components, D_max")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--area", type=float, default=1.0)
    p.add_argument("--noise-r", type=_float_grid, required=True, help="comma-separated radius grid")
    p.add_argument("--trials", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the synthetic two-cap encoder; JSON {final_accuracy, loss_trace}")
    _add_train_flags(p, epochs_default=200)
    p.add_argument("--noise-r", type=float, default=0.5)
    p.add_argument("--dump-emb", default=None, help="prefix for EMB/LAB dumps of encoded train/test sets")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ci-ratio", help="conditional-independence ratio of a labeled pair set")
    p.add_argument("--left", required=True, help="EMB file of anchors")
    p.add_argument("--right", required=True, help="EMB file of positives")
    p.add_argument("--labels", required=True, help="LAB file shared by both sides")
    common(p)
    p.set_defaults(func=cmd_ci_ratio)

    p = sub.add_parser("repro", help="named end-to-end recipes")
    rsub = p.add_subparsers(dest="recipe", required=True)

    rp = rsub.add_parser("fig4", help="bound curves CSV")
    rp.add_argument("--m-grid", type=_int_grid, default=_int_grid(DEFAULT_M_GRID))
    rp.add_argument("--l-unsup", type=float, default=1.0)
    rp.add_argument("--var", type=float, default=0.0)
    rp.add_argument("--k", type=int, default=10)
    common(rp)
    rp.set_defaults(func=recipe_fig4)

    rp = rsub.add_parser("fig6", help="accuracy-vs-r sweep CSV")
    rp.add_argument("--r-grid", type=_float_grid, default=_float_grid("0,0.08,0.5,1.5"))
    _add_train_flags(rp, epochs_default=60)
    common(rp)
    rp.set_defaults(func=recipe_fig6)

    rp = rsub.add_parser("fig7", help="graph-statistics sweep CSV")
    rp.add_argument("--n", type=int, default=200)
    rp.add_argument("--cap-area", type=float, default=1.0)
    rp.add_argument("--r-grid", type=_float_grid, default=_float_grid("0.5,1.5"))
    rp.add_argument("--views-per-anchor", type=int, default=10)
    rp.add_argument("--threshold", type=float, default=0.35)
    common(rp)
    rp.set_defaults(func=recipe_fig7)

    rp = rsub.add_parser("prop53", help="perfect-alignment counterexample, accuracy near chance")
    rp.add_argument("--n", type=int, default=10000)
    rp.add_argument("--k", type=int, default=2)
    rp.add_argument("--dim", type=int, default=4)
    common(rp)
    rp.set_defaults(func=recipe_prop53)

    rp = rsub.add_parser("lemma42", help="Monte-Carlo error vs e/sqrt(M) check CSV")
    rp.add_argument("--n", type=int, default=2000)
    rp.add_argument("--k", type=int, default=10)
    rp.add_argument("--dim", type=int, default=32)
    rp.add_argument("--spread", type=float, default=0.3)
    rp.add_argument("--m-grid", type=_int_grid, default=_int_grid("1,4,16,64,256"))
    rp.add_argument("--seeds", type=int, default=50)
    common(rp)
    rp.set_defaults(func=recipe_lemma42)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrainingDivergenceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

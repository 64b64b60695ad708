"""Command-line entry point: one subcommand per pipeline plus named repro recipes.

Every run writes its outputs into --out together with a ``manifest.json``
holding the subcommand and every parsed option except --out, so any result
can be regenerated from the manifest alone. JSON is the machine interface,
CSV the plotting interface.

Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import auggraph, bounds, data, geomsim, losses, metrics, synth, trainer
from .errors import TrainingDivergenceError

DEFAULT_M_GRID = "2,4,8,16,32,64,128,256,512,1024,2048,4096"


def _grid(cast, noun: str, text: str) -> list:
    """A comma-separated grid of ``cast`` values: the argparse type of every grid flag."""
    try:
        grid = [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")
    if not grid:
        raise argparse.ArgumentTypeError("empty grid")
    return grid


_int_grid = functools.partial(_grid, int, "integers")
_float_grid = functools.partial(_grid, float, "floats")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _command(args) -> str:
    """The subcommand path as typed, e.g. ``"bounds"`` or ``"repro fig4"``."""
    return f"repro {args.recipe}" if args.subcommand == "repro" else args.subcommand


def _finish(args, result_obj) -> None:
    """Write manifest.json from the parsed arguments and print the result."""
    dispatch = ("out", "subcommand", "recipe", "func")
    config = {key: value for key, value in vars(args).items() if key not in dispatch}
    _write_json(_out_dir(args) / "manifest.json", {"command": _command(args), "config": config})
    print(json.dumps(result_obj, sort_keys=True, allow_nan=False))


def _json_num(x: float):
    """A diameter (>= 0 or inf) for JSON, which has no infinity."""
    return "inf" if math.isinf(x) else x


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
    csv_path = _out_dir(args) / f"{_command(args).split()[-1]}.csv"
    _write_csv(csv_path, ["M", "ours_upper", "ours_lower", "arora", "nozawa", "ash", "bao"], rows)
    _finish(args, {"rows": len(rows), "csv": str(csv_path)})
    return 0


def cmd_graph(args) -> int:
    views = data.load_views(args.views)
    if args.metric == "cosine":
        views = data.normalize(views)
    labels = data.load_labels(args.labels)
    g = auggraph.build_graph(views, args.threshold, args.metric)
    stats = auggraph.graph_stats(g, labels)
    out = _out_dir(args)
    score = "max_view_similarity" if g.metric == "cosine" else "min_view_distance"
    _write_csv(out / "edges.csv", ["i", "j", score], [[i, j, float(g.scores[i, j])] for i, j in sorted(g.edges)])
    report = dataclasses.asdict(stats)
    report.update(
        n=g.n,
        edges=len(g.edges),
        threshold=g.threshold,
        metric=g.metric,
        components=len(stats.components),
        d_max=_json_num(stats.d_max),
    )
    for cs in report["per_class"]:
        cs["diameter"] = _json_num(cs["diameter"])
    _write_json(out / "graph_stats.json", report)
    _finish(args, report)
    return 0


def cmd_metrics(args) -> int:
    final_views = data.load_views(args.views_final)
    init_views = data.load_views(args.views_init)
    variants = [("max", "min"), ("min", "min"), ("max", "max"), ("min", "max"), ("mean", "mean"), ("median", "median")]
    if (args.a1, args.a2) not in variants:
        variants.insert(0, (args.a1, args.a2))
    cfgs = [metrics.MetricConfig(a1=a1, a2=a2, k=args.k) for a1, a2 in variants]
    # one view set after the other, so one set of tiles is alive at a time
    acr_final, gacr_final = metrics.confusion_ratios(final_views, cfgs)
    acr_init, gacr_init = metrics.confusion_ratios(init_views, cfgs)
    report = {
        "acr_final": acr_final,
        "acr_init": acr_init,
        "arc": metrics.arc(acr_final, acr_init),
        "gacr_variants": {},
        "garc_variants": {},
    }
    for cfg, g_final, g_init in zip(cfgs, gacr_final, gacr_init):
        name = f"{cfg.a1},{cfg.a2},k={cfg.k}"
        report["gacr_variants"][name] = {"final": g_final, "init": g_init}
        report["garc_variants"][name] = metrics.relative_gacr(g_final, g_init)
    _write_json(_out_dir(args) / "metrics.json", report)
    _finish(args, report)
    return 0


def _simulate_rows(d, n, area, r_grid, trials, seed):
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    rows = []
    for r in r_grid:
        components, diameters = [], []  # diameters of the connected trials
        for _ in range(trials):
            cfg = geomsim.GeomConfig(d=d, n=n, area=area, seed=int(rng.integers(2**31)))
            if r <= 0.0:  # no edges
                data.require_nonnegative(noise_r=r)
                components.append(n)
                continue
            pts = geomsim.sample_flat(cfg, np.random.default_rng(cfg.seed))
            g = auggraph.build_graph(data.ViewSet(pts, n=n, c=1), r, "euclidean")
            components.append(len(auggraph.connected_components(g)))
            if components[-1] == 1:
                diameters.append(auggraph.subgraph_diameter(g.neighbors(), list(range(n))))
        d_max = max(diameters) if diameters else math.inf
        rows.append([r, len(diameters) / trials, float(np.mean(components)), d_max])
    return rows


def cmd_simulate(args) -> int:
    rows = _simulate_rows(args.d, args.n, args.area, args.noise_r, args.trials, args.seed)
    csv_path = _out_dir(args) / "simulate.csv"
    _write_csv(csv_path, ["r", "connected_fraction", "mean_components", "D_max"], rows)
    _finish(args, {"rows": len(rows), "csv": str(csv_path)})
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
    out = _out_dir(args)
    report = {"final_accuracy": accuracy, "loss_trace": result.loss_trace}
    _write_json(out / "train.json", report)
    if args.dump_emb:
        for part, emb in (("train", train_emb), ("test", test_emb)):
            encoded = data.EmbeddingSet(trainer.encode_array(result.params, emb.values), normalized=True)
            data.save_embeddings(encoded, out / f"{args.dump_emb}_{part}.emb")
        data.save_labels(train_lab, out / f"{args.dump_emb}_train.lab")
        data.save_labels(test_lab, out / f"{args.dump_emb}_test.lab")
    _finish(args, {"final_accuracy": accuracy, "epochs": args.epochs})
    return 0


def cmd_ci_ratio(args) -> int:
    pairs = data.load_pairs(args.left, args.right, args.labels, args.labels)
    pairs = data.PositivePairs(
        data.normalize(pairs.left), data.normalize(pairs.right), pairs.left_labels, pairs.right_labels
    )
    ratio = metrics.ci_ratio(pairs)
    _write_json(_out_dir(args) / "ci_ratio.json", {"ci_ratio": ratio})
    _finish(args, {"ci_ratio": ratio})
    return 0


# ---------------------------------------------------------------------------
# repro recipes


def recipe_fig6(args) -> int:
    rows = []
    for r in args.r_grid:
        _, accuracy, _ = _train_once(args, r, args.seed)
        rows.append([r, accuracy])
    _write_csv(_out_dir(args) / "fig6.csv", ["r", "accuracy"], rows)
    _finish(args, {"rows": rows})
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
    _write_csv(_out_dir(args) / "fig7.csv", ["r", "components", "D_max", "intra_edge_fraction"], rows)
    _finish(args, {"rows": rows})
    return 0


def recipe_prop53(args) -> int:
    _, _, accuracy = trainer.counterexample_prop53(args.n, args.k, args.dim, seed=args.seed)
    report = {"accuracy": accuracy, "chance": 1.0 / args.k, "n": args.n, "k": args.k}
    _write_json(_out_dir(args) / "prop53.json", report)
    _finish(args, report)
    return 0


def recipe_lemma42(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {args.seeds}")
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
    _write_csv(_out_dir(args) / "lemma42.csv", ["M", "mc_error", "bound"], rows)
    _finish(args, {"rows": rows})
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_bounds_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m-grid", type=_int_grid, default=_int_grid(DEFAULT_M_GRID))
    p.add_argument("--l-unsup", type=float, default=1.0, help="measured adjusted contrastive loss")
    p.add_argument("--var", type=float, default=0.0, help="conditional variance for the lower bound")
    p.add_argument("--k", type=int, default=10, help="number of classes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="augoverlap",
        description="Contrastive-learning bounds, augmentation-graph statistics, "
        "geometric overlap thresholds and representation metrics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(subparsers, name: str, func, summary: str, seed: bool = False) -> argparse.ArgumentParser:
        """A leaf parser with --out; --seed only where the command draws random numbers."""
        p = subparsers.add_parser(name, help=summary)
        p.set_defaults(func=func)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory (manifest.json always written)")
        return p

    p = command(sub, "bounds", cmd_bounds, "bound-comparison CSV: M, ours_upper, ours_lower, arora, nozawa, ash, bao")
    _add_bounds_flags(p)

    p = command(sub, "graph", cmd_graph, "augmentation-graph stats (JSON) + edge list CSV")
    p.add_argument("--views", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--metric", choices=["euclidean", "cosine"], default="euclidean")

    p = command(sub, "metrics", cmd_metrics, "ACR/ARC and GACR/GARC variants for two view files")
    p.add_argument("--views-final", required=True)
    p.add_argument("--views-init", required=True)
    p.add_argument("--a1", choices=sorted(metrics.STATS), default="max")
    p.add_argument("--a2", choices=sorted(metrics.STATS), default="min")
    p.add_argument("--k", type=int, default=1)

    p = command(
        sub, "simulate", cmd_simulate, "connectivity sweep CSV: r, connected_fraction, mean_components, D_max", seed=True
    )
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--area", type=float, default=1.0)
    p.add_argument("--noise-r", type=_float_grid, required=True, help="comma-separated radius grid")
    p.add_argument("--trials", type=int, default=10)

    p = command(
        sub, "train", cmd_train, "train the synthetic two-cap encoder; JSON {final_accuracy, loss_trace}", seed=True
    )
    _add_train_flags(p, epochs_default=200)
    p.add_argument("--noise-r", type=float, default=0.5)
    p.add_argument("--dump-emb", default=None, help="prefix for EMB/LAB dumps of encoded train/test sets")

    p = command(sub, "ci-ratio", cmd_ci_ratio, "conditional-independence ratio of a labeled pair set")
    p.add_argument("--left", required=True, help="EMB file of anchors")
    p.add_argument("--right", required=True, help="EMB file of positives")
    p.add_argument("--labels", required=True, help="LAB file shared by both sides")

    p = sub.add_parser("repro", help="named end-to-end recipes")
    rsub = p.add_subparsers(dest="recipe", required=True)

    rp = command(rsub, "fig4", cmd_bounds, "bound curves CSV")
    _add_bounds_flags(rp)

    rp = command(rsub, "fig6", recipe_fig6, "accuracy-vs-r sweep CSV", seed=True)
    rp.add_argument("--r-grid", type=_float_grid, default=_float_grid("0,0.08,0.5,1.5"))
    _add_train_flags(rp, epochs_default=60)

    rp = command(rsub, "fig7", recipe_fig7, "graph-statistics sweep CSV", seed=True)
    rp.add_argument("--n", type=int, default=200)
    rp.add_argument("--cap-area", type=float, default=1.0)
    rp.add_argument("--r-grid", type=_float_grid, default=_float_grid("0.5,1.5"))
    rp.add_argument("--views-per-anchor", type=int, default=10)
    rp.add_argument("--threshold", type=float, default=0.35)

    rp = command(rsub, "prop53", recipe_prop53, "perfect-alignment counterexample, accuracy near chance", seed=True)
    rp.add_argument("--n", type=int, default=10000)
    rp.add_argument("--k", type=int, default=2)
    rp.add_argument("--dim", type=int, default=4)

    rp = command(rsub, "lemma42", recipe_lemma42, "Monte-Carlo error vs e/sqrt(M) check CSV", seed=True)
    rp.add_argument("--n", type=int, default=2000)
    rp.add_argument("--k", type=int, default=10)
    rp.add_argument("--dim", type=int, default=32)
    rp.add_argument("--spread", type=float, default=0.3)
    rp.add_argument("--m-grid", type=_int_grid, default=_int_grid("1,4,16,64,256"))
    rp.add_argument("--seeds", type=int, default=50)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "seed" in vars(args):
            data.require_nonnegative(seed=args.seed)
        return args.func(args)
    except (TrainingDivergenceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

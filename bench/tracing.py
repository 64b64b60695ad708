"""In-memory spans around the library's public functions, for the traced run.

The tracer replaces selected module attributes of ``augoverlap`` with timing
wrappers while it is installed, so calls the library makes to its own public
functions (``graph_stats`` -> ``subgraph_diameter``, ``empirical_regime`` ->
``longest_mst_edge``, ``linear_eval`` -> ``encode_array``) are captured too.
No library source changes; ``uninstall`` restores the originals, and untraced
cases always run the original functions.

A span is ``(span_id, parent_id, name, start, end, self_s, trace_id)``. The
parent of a top-level library call is its case span. Self time is the span's
duration minus the durations of its direct child spans. Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time
from collections import defaultdict
from statistics import median

from augoverlap import auggraph, bounds, data, geomsim, losses, metrics, synth, trainer

LAYERS = {
    "geomsim": (geomsim, ("sample_caps", "sample_flat", "augment", "longest_mst_edge", "empirical_regime")),
    "auggraph": (auggraph, ("build_graph", "graph_stats", "connected_components", "subgraph_diameter")),
    "metrics": (metrics, ("acr", "gacr")),
    "losses": (losses, ("infonce_adjusted", "mce_adjusted", "class_stats", "mc_negative_term")),
    "trainer": (trainer, ("train_contrastive", "encode_array", "linear_eval")),
    "data": (data, ("save_views", "load_views", "save_embeddings", "save_labels")),
    "synth": (synth, ("ci_pairs",)),
    "bounds": (bounds, ("bounds_ci", "baseline_bounds")),
}


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _count_mst(args, result):
    return {"pairs": _pairs(args["points"].shape[0])}


def _count_build(args, result):
    views = args["views"]
    return {
        "view_pairs": views.c * views.c * _pairs(views.n),
        "anchor_pairs": _pairs(views.n),
        "edges": len(result.edges),
    }


def _count_diameter(args, result):
    # subgraph_diameter stops after the first BFS that misses a member.
    size = len(args["members"])
    return {"bfs_sources": 0 if size == 1 else (1 if math.isinf(result) else size)}


def _count_infonce(args, result):
    return {"negatives": args["pairs"].n * args["m_negatives"] * args["trials"]}


def _count_train(args, result):
    n, cfg = args["data"].n, args["cfg"]
    full, rest = divmod(n, cfg.batch_size)
    batches = full + (1 if rest >= 2 else 0)  # the trainer skips a 1-row tail batch
    samples = n - (1 if rest == 1 else 0)
    return {"steps": cfg.epochs * batches, "samples": cfg.epochs * samples}


def _count_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


# Work counts computed from each call's inputs and output.
COUNTERS = {
    "geomsim.longest_mst_edge": _count_mst,
    "auggraph.build_graph": _count_build,
    "auggraph.subgraph_diameter": _count_diameter,
    "losses.infonce_adjusted": _count_infonce,
    "trainer.train_contrastive": _count_train,
    "data.save_views": _count_bytes,
    "data.load_views": _count_bytes,
    "data.save_embeddings": _count_bytes,
    "data.save_labels": _count_bytes,
}


class Tracer:
    """Records spans and counters for the cases run between ``open_case`` and
    ``close_case`` while the wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self.case_sizes = {}  # trace id of a case -> ladder size
        self._originals = {}
        self._stack = []  # [span_id, child_seconds] of the open spans
        self._trace_id = None
        self._case_start = 0.0
        self._next_id = 0

    def install(self) -> None:
        for layer, (module, names) in LAYERS.items():
            for name in names:
                key = f"{layer}.{name}"
                if key not in self._originals:
                    original = getattr(module, name)
                    self._originals[key] = (module, name, original)
                    setattr(module, name, self._wrap(key, original))

    def uninstall(self) -> None:
        for module, name, original in self._originals.values():
            setattr(module, name, original)
        self._originals.clear()

    def open_case(self, trace_id: str, size: int) -> None:
        self._trace_id = trace_id
        self._stack = [[self._new_id(), 0.0]]
        self.case_sizes[trace_id] = size
        self._case_start = time.perf_counter()

    def close_case(self) -> None:
        case_id, child_s = self._stack.pop()
        end = time.perf_counter()
        self.spans.append((case_id, None, "case", self._case_start, end, end - self._case_start - child_s, self._trace_id))
        self._trace_id = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _wrap(self, key, original):
        signature = inspect.signature(original)
        counter = COUNTERS.get(key)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self._trace_id is None:  # oracle checks and setup run untraced
                return original(*args, **kwargs)
            span_id, parent_id = self._new_id(), self._stack[-1][0]
            self._stack.append([span_id, 0.0])
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                self.counts[key]["failed"] += 1
                raise
            finally:
                end = time.perf_counter()
                _, child_s = self._stack.pop()
                self._stack[-1][1] += end - start
                self.spans.append((span_id, parent_id, key, start, end, end - start - child_s, self._trace_id))
                self.counts[key]["calls"] += 1
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for name, value in counter(bound.arguments, result).items():
                    self.counts[key][name] += value
            return result

        return traced


def _per_function(name, quantities):
    units = {"calls": ("count", "lower"), "self_ms": ("ms", "lower"), "exponent": ("slope", "lower")}
    return [(f"{name}.{q}", *units.get(q, ("count", "lower"))) for q in quantities]


# Every per-layer metric of the traced run: (name, unit, better).
PER_LAYER = [
    *_per_function("geomsim.sample_caps", ["self_ms"]),
    *_per_function("geomsim.sample_flat", ["self_ms"]),
    *_per_function("geomsim.augment", ["self_ms"]),
    *_per_function("geomsim.longest_mst_edge", ["calls", "self_ms", "exponent", "pairs"]),
    *_per_function("geomsim.empirical_regime", ["calls", "self_ms", "exponent"]),
    *_per_function("auggraph.build_graph", ["calls", "self_ms", "exponent", "view_pairs", "edges"]),
    ("auggraph.build_graph.edge_yield", "ratio", "higher"),
    *_per_function("auggraph.build_graph", ["radius_misses"]),
    *_per_function("auggraph.graph_stats", ["calls", "self_ms", "exponent", "failed"]),
    *_per_function("auggraph.connected_components", ["calls", "self_ms"]),
    *_per_function("auggraph.subgraph_diameter", ["calls", "self_ms", "exponent", "bfs_sources"]),
    *_per_function("metrics.acr", ["calls", "self_ms", "exponent"]),
    *_per_function("metrics.gacr", ["calls", "self_ms", "exponent"]),
    *_per_function("losses.infonce_adjusted", ["calls", "self_ms", "negatives"]),
    *_per_function("losses.mce_adjusted", ["self_ms"]),
    *_per_function("losses.class_stats", ["self_ms"]),
    *_per_function("losses.mc_negative_term", ["self_ms"]),
    *_per_function("trainer.train_contrastive", ["calls", "self_ms", "steps"]),
    ("trainer.train_contrastive.samples_per_s", "1/s", "higher"),
    *_per_function("trainer.encode_array", ["calls", "self_ms"]),
    *_per_function("trainer.linear_eval", ["self_ms"]),
    *[(f"data.{name}.{q}", unit, "lower") for name in LAYERS["data"][1] for q, unit in (("self_ms", "ms"), ("bytes", "B"))],
    *_per_function("synth.ci_pairs", ["self_ms"]),
    ("bounds.self_ms", "ms", "lower"),
    *[(f"{layer}.share", "ratio", "lower") for layer in LAYERS],
    ("trace.overhead", "ratio", "lower"),
]


def fit_exponent(sizes, seconds) -> float:
    """Least-squares slope of log(median per-call time) against log(size) over
    the ladder sizes that have calls; 0 when fewer than two sizes do."""
    by_size = defaultdict(list)
    for size, s in zip(sizes, seconds):
        by_size[size].append(s)
    points = [(math.log(size), math.log(median(v))) for size, v in sorted(by_size.items()) if median(v) > 0]
    if len(points) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    return sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x, _ in points)


def layer_metrics(tracer: Tracer, radius_misses: int, overhead: float) -> dict:
    """Every PER_LAYER metric from the traced cases' spans and counters."""
    self_s = defaultdict(float)
    per_call = defaultdict(lambda: ([], []))
    case_s = 0.0
    for _, _, name, start, end, own, trace_id in tracer.spans:
        if name == "case":
            case_s += end - start
            continue
        self_s[name] += own
        sizes, seconds = per_call[name]
        sizes.append(tracer.case_sizes[trace_id])
        seconds.append(own)

    def counts(key, quantity):
        return tracer.counts[key][quantity] if key in tracer.counts else 0.0

    values = {}
    for name, unit, _ in PER_LAYER:
        head, _, quantity = name.rpartition(".")
        if quantity == "self_ms":
            keys = [head] if "." in head else [f"{head}.{fn}" for fn in LAYERS[head][1]]
            value = 1e3 * sum(self_s[k] for k in keys)
        elif quantity == "exponent":
            value = fit_exponent(*per_call[head])
        elif quantity == "share":
            module_s = sum(self_s[f"{head}.{fn}"] for fn in LAYERS[head][1])
            value = module_s / case_s if case_s else 0.0
        elif quantity == "edge_yield":
            pairs = counts(head, "anchor_pairs")
            value = counts(head, "edges") / pairs if pairs else 0.0
        elif quantity == "samples_per_s":
            value = counts(head, "samples") / self_s[head] if self_s[head] else 0.0
        elif quantity == "radius_misses":
            value = radius_misses
        elif name == "trace.overhead":
            value = overhead
        else:
            value = counts(head, quantity)
        values[name] = (float(value), unit)
    return values

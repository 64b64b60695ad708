"""Tests of the benchmark itself: every workload end to end at tiny sizes, the
checker against planted wrong outputs, and BENCHMARK.json against the code.

    python -m pytest -q bench
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import tracing
import workloads
from augoverlap import auggraph, geomsim
from augoverlap.errors import PowerIterationError

TINY_SIZES = {"graph-metrics": (20, 30, 40), "train-bounds": (80, 120, 160), "connectivity": (30, 40, 50)}
# Functions each workload must call, and one it must not.
CALLED = {
    "graph-metrics": (["auggraph.graph_stats", "metrics.gacr", "data.load_views"], "losses.infonce_adjusted"),
    "train-bounds": (["trainer.train_contrastive", "losses.infonce_adjusted", "data.save_embeddings"], "auggraph.build_graph"),
    "connectivity": (["geomsim.longest_mst_edge", "auggraph.subgraph_diameter", "geomsim.empirical_regime"], "metrics.acr"),
}


def _tiny(name):
    workload = workloads.WORKLOADS[name]
    return type(f"Tiny{type(workload).__name__}", (type(workload),), {"sizes": TINY_SIZES[name]})()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_end_to_end(name, tmp_path):
    workload = _tiny(name)
    state = workload.setup(7, tmp_path)
    records = run.run_cases(workload, state, seed=7, seconds=0.0, tracer=None)
    assert [r.size for r in records] == list(workload.sizes) * workload.period
    for r in records:
        assert r.checks
        assert not [c for c in r.failures if c.kind == "oracle"], r.failures


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    workload = _tiny(name)
    state = workload.setup(7, tmp_path)
    original = auggraph.build_graph
    tracer = tracing.Tracer()
    records = run.run_cases(workload, state, seed=7, seconds=0.0, tracer=tracer)
    assert auggraph.build_graph is original
    assert {r.traced for r in records} == {False, True}
    values = tracing.layer_metrics(tracer, 0, run.trace_overhead(records))
    assert list(values) == [name for name, _, _ in tracing.PER_LAYER]
    called, idle = CALLED[name]
    assert all(values[f"{key}.self_ms"][0] > 0 for key in called)
    assert values[f"{idle}.calls"][0] == 0
    traced_ids = {span[-1] for span in tracer.spans}
    assert traced_ids == {f"{workload.name}/7/{r.index}" for r in records if r.traced}


class _Raising(type(_tiny("connectivity"))):
    """The tiny connectivity workload, with its n=40 case raising ``error``."""

    def __init__(self, error):
        self.error = error

    def run(self, state, p):
        if p["n"] == 40:
            raise self.error
        return super().run(state, p)


def test_raised_case_fails_without_retry():
    records = run.run_cases(_Raising(ValueError("bad input")), {}, seed=3, seconds=0.0, tracer=None)
    assert len(records) == 3
    (failure,) = records[1].failures
    assert failure.kind == "raised" and "ValueError: bad input" in failure.detail
    assert not run.is_correct(records)


def test_power_iteration_error_outside_graph_stats_is_not_excused():
    error = PowerIterationError("second eigenvalue did not converge")
    records = run.run_cases(_Raising(error), {}, seed=3, seconds=0.0, tracer=None)
    assert records[1].failures[0].kind == "raised"
    assert not run.is_correct(records)


# A graph-metrics case on which graph_stats at the seed commit raises: the
# class-1 block's two largest |lambda| after lambda_1 are 2.9e-4 apart, relatively.
TIED_CASE = dict(zip(("cap_seed", "view_seed", "probe_seed"), workloads.case_seeds(1069, 100, 3)), n=100, r=1.5)


def _tied_block_case():
    workload = workloads.GraphMetrics()
    anchors, labels = workloads.two_caps(TIED_CASE["n"], TIED_CASE["cap_seed"])
    views = geomsim.augment(anchors, TIED_CASE["r"], workload.views_per_anchor, seed=TIED_CASE["view_seed"])
    graph = auggraph.build_graph(views, workload.threshold)
    return labels, oracles._adjacency(views.n, graph.edges)


def test_graph_metrics_case_hitting_defect_1_is_not_failed(tmp_path):
    workload = workloads.GraphMetrics()
    state = workload.setup(7, tmp_path)
    checks = workload.check(state, TIED_CASE, workload.run(state, TIED_CASE))
    record = run.CaseRecord(0, TIED_CASE["n"], 0, 0.0, False, checks)
    assert not record.unexcused, record.unexcused


def test_non_convergence_on_near_tied_spectrum_is_the_known_defect():
    labels, adj = _tied_block_case()
    check = oracles.non_convergence_check(PowerIterationError("residual 4.648e-03"), labels, adj)
    assert not check.ok and check.kind == "known_defect"


def test_non_convergence_on_separated_spectrum_is_not_excused():
    views, labels, graph, _ = _graph_case()
    checks = oracles.graph_checks(views, labels, graph, PowerIterationError("residual 4.648e-03"))
    assert [(c.name, c.kind) for c in checks if not c.ok] == [("graph_stats_converged", "raised")]


def test_other_exception_from_graph_stats_is_not_excused():
    labels, adj = _tied_block_case()
    assert oracles.non_convergence_check(ValueError("class 0 is empty"), labels, adj).kind == "raised"


def test_known_defect_case_is_not_failed():
    known = oracles.Check("graph_stats_converged", False, kind="known_defect")
    wrong = oracles.Check("edges", False)
    records = [run.CaseRecord(i, 20, 0, 0.1, False, checks) for i, checks in enumerate([[known], [known, wrong], []])]
    assert [bool(r.unexcused) for r in records] == [False, True, False]
    assert not run.is_correct(records)
    assert run.is_correct([records[0], records[2]])


def _graph_case():
    workload = _tiny("graph-metrics")
    anchors, labels = workloads.two_caps(30, 5)
    views = geomsim.augment(anchors, 0.5, workload.views_per_anchor, seed=6)
    graph = auggraph.build_graph(views, workload.threshold)
    return views, labels, graph, auggraph.graph_stats(graph, labels)


def _failed(checks):
    return {c.name for c in checks if not c.ok}


def test_checker_accepts_true_graph_outputs():
    assert _failed(oracles.graph_checks(*_graph_case())) == set()


def test_checker_rejects_edge_count_off_by_one():
    views, labels, graph, stats = _graph_case()
    planted = dataclasses.replace(graph, edges=frozenset(sorted(graph.edges)[1:]))
    assert "edges" in _failed(oracles.graph_checks(views, labels, planted, stats))


def test_checker_rejects_perturbed_lambda():
    views, labels, graph, stats = _graph_case()
    per_class = list(stats.per_class)
    per_class[0] = dataclasses.replace(per_class[0], lambda1=per_class[0].lambda1 + 1e-3)
    planted = dataclasses.replace(stats, per_class=per_class)
    assert _failed(oracles.graph_checks(views, labels, graph, planted)) == {"spectrum[0]"}


def test_checker_rejects_scaled_mst_edge():
    points = np.random.default_rng(4).uniform(size=(60, 2))
    radius = geomsim.longest_mst_edge(points)
    assert oracles.mst_check(points, radius).ok
    assert not oracles.mst_check(points, 0.9 * radius).ok


def test_tail_keeps_ten_cases_beyond():
    value, percentile, rank = run.tail(list(range(1, 101)))
    assert (value, percentile, rank) == (90, 90.0, 90)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 2)


def test_exponent_fit_recovers_power_law():
    sizes = [100, 100, 150, 200]
    seconds = [1e-6 * n**2 for n in sizes]
    assert tracing.fit_exponent(sizes, seconds) == pytest.approx(2.0)
    assert tracing.fit_exponent([100], [1.0]) == 0.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    # connectivity runs on request only; see "Run-to-run spread" in bench/README.md
    assert [w["name"] for w in spec["workloads"]] == [name for name in workloads.WORKLOADS if name != "connectivity"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER

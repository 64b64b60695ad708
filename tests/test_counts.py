"""Every count of the library's entry points is checked by ``data.require_count``:
a count that is not an integer (2.5, 3.0, nan, inf or a bool) raises
``ValueError("<name> must be an integer, got <value!r>")``, one below its minimum
raises ``ValueError("<name> must be >= <minimum>, got <value>")``, one above 2**53,
which no float holds exactly, raises ``ValueError("<name> must be <= 2**53, got
<value>")``, and no other module keeps a check of its own. A value outside a real
range is named in its error too."""

import ast
import functools
import math
from pathlib import Path

import numpy as np
import pytest

import augoverlap
from augoverlap import auggraph, bounds, cli, data, geomsim, losses, metrics, synth, trainer
from augoverlap.data import EmbeddingSet, LabelSet, PositivePairs, ViewSet


def _cli(count, value, *argv):
    """Run a CLI command with the parsed ``count`` option set to ``value``: argparse
    parses every count as an int, so this reaches the command's own check."""
    args = cli.build_parser().parse_args(list(argv))
    setattr(args, count, value)
    return args.func(args)


def _pairs():
    return synth.ci_pairs(8, 2, 4, seed=0)


def _mc(m_negatives, trials):
    pairs = _pairs()
    return losses.mc_negative_term(pairs.left, pairs.left_labels, m_negatives, trials=trials)


def _flat(d=2, n=10):
    return geomsim.GeomConfig(d=d, n=n, area=1.0)


def _views(n, c):
    """Zero views of n anchors with c views each; a count that is not an integer gets
    one row, since ViewSet refuses it before it reads the rows."""
    rows = n * c if isinstance(n * c, (int, np.integer)) else 1
    return ViewSet(np.zeros((rows, 2)), n=n, c=c)


def _train(n):
    return trainer.train_contrastive(EmbeddingSet(np.eye(n, 3)), trainer.TrainConfig(epochs=1, batch_size=2, hidden_size=2, out_dim=2))


def _unit_pairs(n):
    rows = EmbeddingSet(np.eye(n, 2), normalized=True)
    return losses.infonce_adjusted(PositivePairs(rows, rows), 1, trials=1)


# (entry point, count name, minimum, the call with that count set to v and every other input valid)
CASES = [
    ("LabelSet", "k", 1, lambda v: LabelSet(np.array([0]), k=v)),
    ("ViewSet", "n", 1, lambda v: ViewSet(np.zeros((1, 2)), n=v, c=1)),
    ("ViewSet", "c", 1, lambda v: ViewSet(np.zeros((1, 2)), n=1, c=v)),
    ("GeomConfig", "d", 1, lambda v: _flat(d=v)),
    ("GeomConfig", "n", 2, lambda v: _flat(n=v)),
    ("nn_distance_closed_form", "n", 3, lambda v: geomsim.nn_distance_closed_form(1, 2, 1.0, v)),
    ("nn_distance_closed_form", "d", 1, lambda v: geomsim.nn_distance_closed_form(1, v, 1.0, 10)),
    ("nn_distance_closed_form", "k", 1, lambda v: geomsim.nn_distance_closed_form(v, 2, 1.0, 10)),
    ("unit_ball_volume", "d", 1, geomsim.unit_ball_volume),
    ("connectivity_radius_closed_form", "d", 2, lambda v: geomsim.connectivity_radius_closed_form(v, 1.0, 100)),
    ("connectivity_radius_closed_form", "n", 1, lambda v: geomsim.connectivity_radius_closed_form(2, 1.0, v)),
    ("empirical_regime", "trials", 1, lambda v: geomsim.empirical_regime(_flat(), trials=v)),
    ("augment", "count", 1, lambda v: geomsim.augment(EmbeddingSet(np.zeros((2, 2))), 0.1, v)),
    ("infonce_adjusted", "m_negatives", 1, lambda v: losses.infonce_adjusted(_pairs(), v, trials=1)),
    ("infonce_adjusted", "trials", 1, lambda v: losses.infonce_adjusted(_pairs(), 1, trials=v)),
    ("mc_negative_term", "m_negatives", 1, lambda v: _mc(v, 1)),
    ("mc_negative_term", "trials", 1, lambda v: _mc(1, v)),
    ("MetricConfig", "k", 1, lambda v: metrics.MetricConfig(k=v)),
    ("TrainConfig", "epochs", 1, lambda v: trainer.TrainConfig(epochs=v)),
    ("TrainConfig", "hidden_size", 1, lambda v: trainer.TrainConfig(hidden_size=v)),
    ("TrainConfig", "out_dim", 1, lambda v: trainer.TrainConfig(out_dim=v)),
    ("TrainConfig", "m_negatives", 1, lambda v: trainer.TrainConfig(m_negatives=v)),
    (
        "infonce_batch_loss",
        "m_negatives",
        1,
        lambda v: trainer.infonce_batch_loss(np.eye(4), np.eye(4), m_negatives=v, rng=np.random.default_rng(0)),
    ),
    ("init_params", "m_in", 1, lambda v: trainer.init_params(v, 3, 2)),
    ("init_params", "hidden", 1, lambda v: trainer.init_params(2, v, 2)),
    ("init_params", "m_out", 1, lambda v: trainer.init_params(2, 3, v)),
    ("BoundInputs", "M", 1, lambda v: bounds.BoundInputs(m_negatives=v)),
    ("BoundInputs", "K", 1, lambda v: bounds.BoundInputs(k_classes=v)),
    ("collision_probability", "M", 1, lambda v: bounds.collision_probability(v, 2)),
    ("collision_probability", "K", 1, lambda v: bounds.collision_probability(2, v)),
    ("coverage_probability", "m_plus_one", 1, lambda v: bounds.coverage_probability(v, 2)),
    ("coverage_probability", "K", 1, lambda v: bounds.coverage_probability(2, v)),
    ("expected_log_collisions", "M", 1, lambda v: bounds.expected_log_collisions(v, 2)),
    ("expected_log_collisions", "K", 1, lambda v: bounds.expected_log_collisions(2, v)),
    ("class_centers", "k", 1, lambda v: synth.class_centers(v, 3)),
    ("class_centers", "m", 2, lambda v: synth.class_centers(1, v)),
    ("balanced_labels", "k", 1, lambda v: synth.balanced_labels(4, v, np.random.default_rng(0))),
    ("balanced_labels", "n", 1, lambda v: synth.balanced_labels(v, 2, np.random.default_rng(0))),
    ("cli simulate", "trials", 1, lambda v: _cli("trials", v, "simulate", "--n", "10", "--noise-r", "0.5")),
    ("cli repro lemma42", "seeds", 1, lambda v: _cli("seeds", v, "repro", "lemma42", "--n", "40", "--dim", "4", "--m-grid", "1")),
    ("build_graph", "n", 2, lambda v: auggraph.build_graph(_views(v, 1), 1.0)),
    ("acr", "n", 2, lambda v: metrics.acr(_views(v, 2))),
    ("acr", "c", 2, lambda v: metrics.acr(_views(2, v))),
    ("TrainConfig", "batch_size", 2, lambda v: trainer.TrainConfig(batch_size=v)),
    ("baseline_bounds", "K", 2, lambda v: bounds.baseline_bounds(bounds.BoundInputs(k_classes=v), 1.0)),
    ("counterexample_prop53", "k", 2, lambda v: trainer.counterexample_prop53(4, v, 2)),
    ("counterexample_prop53", "m", 1, lambda v: trainer.counterexample_prop53(4, 2, v)),
    ("counterexample_prop53", "n", 2, lambda v: trainer.counterexample_prop53(v, 2, 2)),
]

# counts that are the rows of an input array or the length of a sequence: they are
# integers by construction, so only their minimum can be crossed
ROW_COUNTS = [
    ("longest_mst_edge", "n", 2, lambda v: geomsim.longest_mst_edge(np.eye(v, 2))),
    ("infonce_adjusted", "n", 2, _unit_pairs),
    ("infonce_batch_loss", "batch", 2, lambda v: trainer.infonce_batch_loss(np.eye(v, 4), np.eye(v, 4))),
    ("train_contrastive", "n", 2, _train),
    ("subgraph_diameter", "members", 1, lambda v: auggraph.subgraph_diameter(np.zeros((3, 3), dtype=bool), list(range(v)))),
    ("pearson", "length", 2, lambda v: metrics.pearson(np.arange(v), np.arange(v))),
]


def _params(cases):
    return pytest.mark.parametrize("call, name, minimum", [(c[3], c[1], c[2]) for c in cases], ids=[f"{c[0]}-{c[1]}" for c in cases])


@_params(CASES + ROW_COUNTS)
def test_count_below_its_minimum_names_the_field_and_value(call, name, minimum, tmp_path, monkeypatch):
    """At minimum - 1 the call raises the count error naming the field and value; at
    the minimum it passes that check, so it returns or fails on something else
    (expected_log_collisions at K = 1 returns log(M + 1))."""
    monkeypatch.chdir(tmp_path)  # the cli cases write their outputs to "."
    with pytest.raises(ValueError) as exc:
        call(minimum - 1)
    assert str(exc.value) == f"{name} must be >= {minimum}, got {minimum - 1}"
    try:
        call(minimum)
    except ValueError as err:
        assert not str(err).startswith(f"{name} must be >="), err


@_params(CASES)
def test_count_that_is_not_an_integer_names_the_field_and_value(call, name, minimum, tmp_path, monkeypatch):
    """2.5, 3.0, nan, inf and True each raise the integer error naming the field and value."""
    monkeypatch.chdir(tmp_path)
    for value in (2.5, 3.0, math.nan, math.inf, True):
        with pytest.raises(ValueError) as exc:
            call(value)
        assert str(exc.value) == f"{name} must be an integer, got {value!r}"


# areas outside (0, inf), for both closed forms: GeomConfig's check is their only one
BAD_AREAS = [-1.0, 0.0, math.nan, math.inf]
CLOSED_FORMS = {
    "nn": lambda area: geomsim.nn_distance_closed_form(1, 2, area, 100),
    "connectivity": lambda area: geomsim.connectivity_radius_closed_form(2, area, 100),
}

# dimensions where Gamma(d/2 + 1) overflows a float (d = 2000 overflows pi ** (d/2) too)
GAMMA_OVERFLOWS = [
    (400, lambda: geomsim.unit_ball_volume(400)),
    (400, lambda: geomsim.nn_distance_closed_form(1, 400, 1.0, 10)),
    (400, lambda: geomsim.connectivity_radius_closed_form(400, 1.0, 100)),
    (2000, lambda: geomsim.connectivity_radius_closed_form(2000, 1.0, 100)),
]


@pytest.mark.parametrize(
    "call, text",
    [
        (
            lambda: auggraph.build_graph(ViewSet(np.eye(2)[[0, 0, 1, 1]], n=2, c=2), -1.0, metric="cosine"),
            "cosine threshold must lie in (-1, 1], got -1.0",
        ),
        (lambda: bounds.spectral_diameter(1.5, 1.0, 0.5), "omega must lie in [0, 1], got 1.5"),
        (
            lambda: geomsim.sample_caps(geomsim.GeomConfig(d=2, n=10, area=1.0)),
            "cap sampling is defined for the d=3 sphere case, got 2",
        ),
        (
            lambda: geomsim.sample_caps(geomsim.GeomConfig(d=3, n=10, area=7.0, class_centers=np.eye(3)[:2])),
            "cap area must not exceed a hemisphere (2*pi), got 7.0",
        ),
        (lambda: geomsim.nn_distance_closed_form(500, 2, 1.0, 10), "k must be at most n - 1, got k=500 for n=10"),
        *[(functools.partial(form, area), f"area must be > 0 and finite, got {area}") for form in CLOSED_FORMS.values() for area in BAD_AREAS],
        *[(call, f"d must be at most 341 for a finite Gamma(d/2 + 1), got {d}") for d, call in GAMMA_OVERFLOWS],
        (lambda: geomsim.classify_regime(math.nan, 0.1, 0.2, 0.3), "noise_r must be >= 0 and finite, got nan"),
        (lambda: geomsim.classify_regime(-1.0, 0.1, 0.2, 0.3), "noise_r must be >= 0 and finite, got -1.0"),
        (lambda: metrics.arc(math.nan, 0.5), "acr_final must lie in [0, 1], got nan"),
        (lambda: metrics.relative_gacr(0.5, math.nan), "gacr_init must lie in [0, 1], got nan"),
        (lambda: geomsim.connectivity_radius_closed_form(2, 1.0, 10**200), f"n must be <= 2**53, got {10**200}"),
        (lambda: geomsim.nn_distance_closed_form(1, 2, 1.0, 10**400), f"n must be <= 2**53, got {10**400}"),
        (lambda: bounds.collision_probability(10**400, 2), f"M must be <= 2**53, got {10**400}"),
        (lambda: bounds.bounds_ci(bounds.BoundInputs(m_negatives=10**400)), f"M must be <= 2**53, got {10**400}"),
    ],
    ids=[
        "cosine-threshold",
        "omega",
        "cap-dimension",
        "cap-area",
        "nn-k-above-n-minus-1",
        *[f"{name}-area-{a}" for name in CLOSED_FORMS for a in BAD_AREAS],
        "unit-ball-d-400",
        "nn-d-400",
        "connectivity-d-400",
        "connectivity-d-2000",
        "regime-noise-nan",
        "regime-noise-negative",
        "arc-final-nan",
        "relative-gacr-init-nan",
        "connectivity-n-1e200",
        "nn-n-1e400",
        "collision-m-1e400",
        "bounds-ci-m-1e400",
    ],
)
def test_range_error_names_its_value(call, text):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == text


def test_require_count_reports_the_first_count_below_the_minimum():
    data.require_count(2, a=2, b=5)
    with pytest.raises(ValueError, match="^b must be >= 2, got 1$"):
        data.require_count(2, a=3, b=1, c=0)


def test_require_count_refuses_what_no_float_holds():
    data.require_count(1, a=2**53, b=np.int64(2**53))
    with pytest.raises(ValueError, match=rf"^b must be <= 2\*\*53, got {2**53 + 1}$"):
        data.require_count(1, a=2**53, b=np.int64(2**53 + 1))


def test_require_count_takes_numpy_integers_and_refuses_numpy_bools():
    data.require_count(2, a=np.int64(2), b=np.int32(3), c=np.uint8(2))
    with pytest.raises(ValueError, match=r"^a must be an integer, got np.True_$"):
        data.require_count(1, a=np.True_)


ORDERS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _int_constant(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _orders_an_int(cmp: ast.Compare) -> bool:
    operands = [cmp.left, *cmp.comparators]
    return any(isinstance(op, ORDERS) and (_int_constant(a) or _int_constant(b)) for op, a, b in zip(cmp.ops, operands, operands[1:]))


def _raises_value_error(body) -> bool:
    for stmt in body:
        exc = stmt.exc if isinstance(stmt, ast.Raise) else None
        if exc is not None and ast.unparse(exc.func if isinstance(exc, ast.Call) else exc) == "ValueError":
            return True
    return False


def test_no_module_but_data_keeps_a_bare_count_check():
    """No ``if`` outside data whose body raises a ValueError orders anything against an
    int constant anywhere in its test: under ``not``, ``and`` or ``or`` and in chained
    comparisons too. Every such check is a ``data.require_count`` call."""
    found = []
    for path in sorted(Path(augoverlap.__file__).parent.glob("*.py")):
        if path.stem == "data":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.If)
                and _raises_value_error(node.body)
                and any(_orders_an_int(cmp) for cmp in ast.walk(node.test) if isinstance(cmp, ast.Compare))
            ):
                found.append(f"{path.name}:{node.lineno}: if {ast.unparse(node.test)}")
    assert not found, "\n".join(found)

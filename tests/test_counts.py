"""Every count of the library's entry points is checked by ``data.require_count``:
below its minimum the call raises ``ValueError("<name> must be >= <minimum>, got
<value>")``, and no other module keeps its own integer lower bound. A value
outside a real range is named in its error too."""

import ast
import functools
import math
from pathlib import Path

import numpy as np
import pytest

import augoverlap
from augoverlap import auggraph, bounds, cli, data, geomsim, losses, metrics, synth, trainer
from augoverlap.data import EmbeddingSet, LabelSet, ViewSet


def _cli(*argv):
    args = cli.build_parser().parse_args(list(argv))
    return args.func(args)


def _pairs():
    return synth.ci_pairs(8, 2, 4, seed=0)


def _mc(m_negatives, trials):
    pairs = _pairs()
    return losses.mc_negative_term(pairs.left, pairs.left_labels, m_negatives, trials=trials)


def _flat(d=2, n=10):
    return geomsim.GeomConfig(d=d, n=n, area=1.0)


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
    ("cli simulate", "trials", 1, lambda v: _cli("simulate", "--n", "10", "--noise-r", "0.5", "--trials", str(v))),
    (
        "cli repro lemma42",
        "seeds",
        1,
        lambda v: _cli("repro", "lemma42", "--n", "40", "--dim", "4", "--m-grid", "1", "--seeds", str(v)),
    ),
]


@pytest.mark.parametrize("call, name, minimum", [(c[3], c[1], c[2]) for c in CASES], ids=[f"{c[0]}-{c[1]}" for c in CASES])
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


# areas outside (0, inf), for both closed forms: GeomConfig's check is their only one
BAD_AREAS = [-1.0, 0.0, math.nan, math.inf]
CLOSED_FORMS = {
    "nn": lambda area: geomsim.nn_distance_closed_form(1, 2, area, 100),
    "connectivity": lambda area: geomsim.connectivity_radius_closed_form(2, area, 100),
}


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
    ],
    ids=[
        "cosine-threshold",
        "omega",
        "cap-dimension",
        "cap-area",
        "nn-k-above-n-minus-1",
        *[f"{name}-area-{a}" for name in CLOSED_FORMS for a in BAD_AREAS],
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


# the integer lower bounds that stay outside data: each names its reason in its text
KEPT = {
    ("auggraph", "need at least 2 anchors"),
    ("bounds", "baselines require K >= 2"),
    ("geomsim", "longest_mst_edge needs at least 2 points, got n={n}"),
    ("losses", "need at least 2 pairs"),
    ("metrics", "need at least 2 anchors"),
    ("metrics", "need at least 2 views per anchor"),
    ("trainer", "batch_size must be >= 2 for in-batch negatives, got {self.batch_size}"),
    ("trainer", "need batch size >= 2 for in-batch negatives"),
    ("trainer", "need at least 2 training rows for in-batch negatives, got n={data.n}"),
}


def test_no_module_but_data_keeps_a_bare_count_check():
    """An ``if <count> < <int>: raise ValueError(...)`` outside data is one of KEPT,
    and KEPT names only such checks."""
    found = set()
    for path in sorted(Path(augoverlap.__file__).parent.glob("*.py")):
        if path.stem == "data":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            test = getattr(node, "test", None) if isinstance(node, ast.If) else None
            if (
                isinstance(test, ast.Compare)
                and isinstance(test.ops[0], ast.Lt)
                and isinstance(test.comparators[0], ast.Constant)
                and isinstance(test.comparators[0].value, int)
                and isinstance(node.body[0], ast.Raise)
                and ast.unparse(node.body[0].exc.func) == "ValueError"
            ):
                message = node.body[0].exc.args[0]
                text = message.value if isinstance(message, ast.Constant) else ast.unparse(message)[2:-1]
                found.add((path.stem, text))
    assert found == KEPT

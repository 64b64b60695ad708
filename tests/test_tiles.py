"""One tile rule: ``data.row_tiles`` gives every blocked loop its tiles, and no module
but ``data`` reads ``TILE_VALUES``."""

import ast
import math
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import augoverlap
from augoverlap import auggraph, data, losses, metrics, trainer
from augoverlap.data import ViewSet, row_tiles


def _recording(module, name, record):
    """``module.name`` wrapped so that each call first passes its arguments to ``record``."""
    real = getattr(module, name)
    return mock.patch.object(module, name, lambda *args: record(*args) or real(*args))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(0, 300),
    width=st.integers(1, 400),
    budget=st.integers(1, 10**5),
    tile_values=st.sampled_from([1, 7, 100, 5000, data.TILE_VALUES]) | st.integers(1, 3000),
    n=st.integers(2, 30),
    c=st.integers(2, 6),
    trials=st.integers(1, 20),
    m_negatives=st.integers(1, 9),
)
def test_every_loop_keeps_the_parent_bounds(rows, width, budget, tile_values, n, c, trials, m_negatives):
    """(1) ``row_tiles`` splits [0, rows) into consecutive tiles of max(1, budget //
    width) rows, TILE_VALUES by default. (2) Under any TILE_VALUES each converted
    loop walks the bounds of its former inline expression, written out here."""
    step = max(1, budget // width)
    assert row_tiles(rows, width, budget) == [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]
    with mock.patch.object(data, "TILE_VALUES", tile_values):
        assert row_tiles(rows, width) == row_tiles(rows, width, tile_values)
        rng = np.random.default_rng(n)

        blocks = []  # the writer's blocks of at most _FORMAT_VALUES values
        values = rng.standard_normal((rows + 1, width % 40 + 1))
        with mock.patch.object(data, "_FORMAT_VALUES", budget), _recording(data, "_fill_records", lambda b, *_: blocks.append(b.size)):
            data._format_matrix("h", values)
        r, w = values.shape
        assert blocks == [min(max(1, budget // w), r - lo) * w for lo in range(0, r, max(1, budget // w))]

        calls = []  # the confusion core's tile pairs
        views = ViewSet(rng.standard_normal((n * c, 2)), n=n, c=c)
        with _recording(metrics, "sq_distances", lambda a, b=None: calls.append((len(a), b if b is None else len(b)))):
            metrics.acr(views)
        a_step = max(1, math.isqrt(4 * tile_values) // c)
        tiles = [(lo, min(lo + a_step, n)) for lo in range(0, n, a_step)]
        assert calls == [((hi - lo) * c, None if lo2 == lo else (hi2 - lo2) * c) for t, (lo, hi) in enumerate(tiles) for lo2, hi2 in tiles[t:]]

        draws = []  # the Monte Carlo core's trial groups
        streams = losses._block_streams(0, n, 5, m_negatives)
        anchor_blocks = losses._anchor_blocks(n)
        losses._mc_log_mean_exp(views.values[:n], views.values[:5], m_negatives, trials, lambda *a: draws.append(a) or streams(*a))
        per_group = min(trials, max(1, tile_values // (max(hi - lo for lo, hi in anchor_blocks) * m_negatives)))
        assert draws == [(b, s, min(per_group, trials - s)) for b in range(len(anchor_blocks)) for s in range(0, trials, per_group)]

        heights = []  # build_graph's triangular blocks
        with _recording(auggraph, "sq_distances", lambda a, b: heights.append(len(a) // c)):
            auggraph.build_graph(views, 1.0)
        expected, lo = [], 0
        while lo < n - 1:
            hi = min(lo + max(1, tile_values // (c * c * (n - lo - 1))), n - 1)
            expected.append(hi - lo)
            lo = hi
        assert heights == expected

        # the norm scratch forward allocates holds sq_norms' largest tile, and no more than before
        with mock.patch.object(trainer, "sq_norms", wraps=data.sq_norms) as norms:
            trainer.forward(trainer.init_params(1, 3, width), np.ones((rows, 1)))
        scratch = norms.call_args.kwargs["scratch"]
        assert max([(hi - lo) * width for lo, hi in row_tiles(rows, width)], default=0) <= scratch.size <= min(rows * width, max(tile_values, width))


def test_only_data_reads_tile_values():
    """The tile budget has one reader: every other module takes its tiles from
    ``data.row_tiles`` (or its rule ``data.tile_rows``) and never names TILE_VALUES,
    as a name, an attribute or an import."""
    readers = set()
    for path in sorted(Path(augoverlap.__file__).parent.glob("*.py")):
        if path.stem == "data":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name == "TILE_VALUES":
                readers.add(path.stem)
    assert readers == set()

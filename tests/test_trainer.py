"""Manual-backprop encoder: forward/backward, the batch loss, training and evaluation."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from augoverlap.data import TILE_VALUES, EmbeddingSet, LabelSet
from augoverlap.errors import DegenerateInputError, TrainingDivergenceError
from augoverlap.geomsim import GeomConfig, sample_caps
from augoverlap.trainer import (
    EncoderParams,
    TrainConfig,
    _forward_out,
    _gradients_out,
    _loss_out,
    _negative_mask,
    _work_out,
    backward,
    counterexample_prop53,
    encode_array,
    forward,
    infonce_batch_loss,
    init_params,
    linear_eval,
    mean_classifier_accuracy,
    train_contrastive,
)

NORTH_SOUTH = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])


# The allocating one-shot encoder pass: the reference whose bits the buffered
# trainer must reproduce.


def _reference_forward(params, x):
    h = x @ params.w1 + params.b1
    a = np.tanh(h)
    z = a @ params.w2 + params.b2
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    f = z / norms
    return f, (x, a, z, norms, f)


def _reference_backward(params, cache, grad_f):
    x, a, z, norms, f = cache
    inner = np.sum(f * grad_f, axis=1, keepdims=True)
    dz = (grad_f - f * inner) / norms
    dw2 = a.T @ dz
    db2 = dz.sum(axis=0)
    da = dz @ params.w2.T
    dh = da * (1.0 - a**2)
    dw1 = x.T @ dh
    db1 = dh.sum(axis=0)
    return dw1, db1, dw2, db2


def _reference_mask(keys, m_negatives):
    mask = np.zeros(keys.shape, dtype=bool)
    np.put_along_axis(mask, np.argpartition(keys, m_negatives - 1, axis=1)[:, :m_negatives], True, axis=1)
    return mask


def _reference_infonce_batch_loss(f1, f2, m_negatives=None, rng=None):
    b = f1.shape[0]
    scores = f1 @ f2.T
    mask = ~np.eye(b, dtype=bool)
    if m_negatives is not None and m_negatives < b - 1:
        keys = rng.random((b, b))
        np.fill_diagonal(keys, np.inf)
        mask = _reference_mask(keys, m_negatives)
    counts = mask.sum(axis=1)
    exp_scores = np.exp(scores) * mask
    row_sums = exp_scores.sum(axis=1)
    loss = float(np.mean(-np.diag(scores) + np.log(row_sums / counts)))
    d_scores = exp_scores / row_sums[:, None] / b
    d_scores[np.arange(b), np.arange(b)] = -1.0 / b
    return loss, d_scores @ f2, d_scores.T @ f1


def _reference_train_contrastive(data, cfg):
    rng = np.random.default_rng(cfg.seed)
    params = init_params(data.m, cfg.hidden_size, cfg.out_dim, seed=cfg.seed)
    trace = []
    params_epoch1 = None
    for epoch in range(cfg.epochs):
        order = rng.permutation(data.n)
        losses = []
        for start in range(0, data.n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if idx.size < 2:
                continue
            anchors = data.values[idx]
            v1 = anchors + cfg.noise_r * rng.random((idx.size, data.m))
            v2 = anchors + cfg.noise_r * rng.random((idx.size, data.m))
            f1, cache1 = _reference_forward(params, v1)
            f2, cache2 = _reference_forward(params, v2)
            loss, g1, g2 = _reference_infonce_batch_loss(f1, f2, cfg.m_negatives, rng)
            dw1a, db1a, dw2a, db2a = _reference_backward(params, cache1, g1)
            dw1b, db1b, dw2b, db2b = _reference_backward(params, cache2, g2)
            lr = cfg.learning_rate
            params = EncoderParams(
                params.w1 - lr * (dw1a + dw1b),
                params.b1 - lr * (db1a + db1b),
                params.w2 - lr * (dw2a + dw2b),
                params.b2 - lr * (db2a + db2b),
            )
            losses.append(loss)
        trace.append(float(np.mean(losses)))
        if epoch == 0:
            params_epoch1 = params.copy()
    return params, params_epoch1, trace


def _assert_params_equal(a, b):
    for name in ("w1", "b1", "w2", "b2"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(noise_r=-1.0)

    @pytest.mark.parametrize("field, value", [("learning_rate", math.nan), ("noise_r", math.inf), ("noise_r", math.nan)])
    def test_non_finite_rate_or_strength(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0 and finite, got {value}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("batch_size", [1, 0, -4])
    def test_batch_size_below_two(self, batch_size):
        with pytest.raises(ValueError, match=f"batch_size must be >= 2 for in-batch negatives, got {batch_size}"):
            TrainConfig(batch_size=batch_size)


def test_divergence_names_the_learning_rate():
    """A step that overflows is a TrainingDivergenceError naming the learning
    rate, not a warning and encoder weights that map every row to zero."""
    emb, _ = sample_caps(GeomConfig(d=3, n=60, area=1.0, class_centers=NORTH_SOUTH, seed=0))
    cfg = TrainConfig(epochs=2, batch_size=32, hidden_size=8, out_dim=4, learning_rate=1e300)
    with pytest.raises(TrainingDivergenceError, match=r"^overflow encountered in .* at step 1, learning_rate=1e\+300$"):
        train_contrastive(emb, cfg)


class TestForward:
    def test_unit_norm_outputs(self, rng):
        params = init_params(3, 8, 4, seed=0)
        f, _ = forward(params, rng.standard_normal((10, 3)))
        np.testing.assert_allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-12)

    def test_init_deterministic(self):
        a = init_params(3, 8, 4, seed=5)
        b = init_params(3, 8, 4, seed=5)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)


class TestInfonceBatchLoss:
    def test_hand_computed_two_rows(self):
        f1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        f2 = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _, _ = infonce_batch_loss(f1, f2)
        # positive score 1, single negative score 0 per anchor; mean denominator of 1 element
        expected = -1.0 + math.log(math.exp(0.0) / 1.0)
        assert loss == pytest.approx(expected)

    def test_batch_too_small(self):
        with pytest.raises(ValueError, match="batch size"):
            infonce_batch_loss(np.ones((1, 2)), np.ones((1, 2)))

    def test_m_negatives_needs_rng(self):
        f = np.eye(3)
        with pytest.raises(ValueError, match="rng"):
            infonce_batch_loss(f, f, m_negatives=1)

    def test_m_negatives_subsetting(self, rng):
        f = np.eye(4)
        loss, g1, g2 = infonce_batch_loss(f, f, m_negatives=2, rng=rng)
        assert math.isfinite(loss)
        assert g1.shape == f.shape and g2.shape == f.shape

    def test_m_negatives_are_uniform_subsets(self):
        """With f1 = f2 = I the gradient w.r.t. f1 is the score weights, positive
        exactly on the kept negatives: every row keeps m distinct off-diagonal
        columns, and each m-subset of a row's b - 1 candidates is equally likely."""
        b, m, draws = 6, 2, 3000
        eye = np.eye(b)
        rng = np.random.default_rng(3)
        counts = Counter()
        for _ in range(draws):
            kept = infonce_batch_loss(eye, eye, m_negatives=m, rng=rng)[1] > 0
            assert (kept.sum(axis=1) == m).all() and not kept.diagonal().any()
            counts.update((i, tuple(np.flatnonzero(row))) for i, row in enumerate(kept))
        cells = [(i, s) for i in range(b) for s in itertools.combinations([j for j in range(b) if j != i], m)]
        assert set(counts) == set(cells)
        assert chisquare([counts[cell] for cell in cells]).pvalue > 1e-3

    def test_m_negatives_must_be_positive(self, rng):
        with pytest.raises(ValueError, match="m_negatives must be >= 1"):
            infonce_batch_loss(np.eye(4), np.eye(4), m_negatives=0, rng=rng)

    def test_gradient_matches_finite_differences(self, rng):
        # the full-parameter version is acceptance criterion 10; this is a feature-level check
        f1 = rng.standard_normal((4, 3))
        f2 = rng.standard_normal((4, 3))
        n1 = f1 / np.linalg.norm(f1, axis=1, keepdims=True)
        n2 = f2 / np.linalg.norm(f2, axis=1, keepdims=True)
        _, g1, g2 = infonce_batch_loss(n1, n2)
        eps = 1e-6
        for idx in [(0, 0), (1, 2), (3, 1)]:
            p = n1.copy()
            p[idx] += eps
            m = n1.copy()
            m[idx] -= eps
            num = (infonce_batch_loss(p, n2)[0] - infonce_batch_loss(m, n2)[0]) / (2 * eps)
            assert g1[idx] == pytest.approx(num, abs=1e-6)


class TestBackward:
    def test_shapes(self, rng):
        params = init_params(3, 8, 4, seed=0)
        x = rng.standard_normal((5, 3))
        f, cache = forward(params, x)
        grads = backward(params, cache, rng.standard_normal(f.shape))
        for g, p in zip(grads, (params.w1, params.b1, params.w2, params.b2)):
            assert g.shape == p.shape

    def test_projection_kills_radial_component(self, rng):
        # gradient along f itself contributes nothing through the unit-norm projection
        params = init_params(3, 8, 4, seed=0)
        x = rng.standard_normal((5, 3))
        f, cache = forward(params, x)
        grads = backward(params, cache, f.copy())
        for g in grads:
            np.testing.assert_allclose(g, 0.0, atol=1e-12)


class TestMatchesReference:
    """The buffered pass has the bits of the allocating reference above."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 600),
        batch_size=st.integers(2, 300),
        m_negatives=st.sampled_from([None, 1, 3, 16, 300]),
        epochs=st.integers(1, 2),
        hidden=st.sampled_from([3, 16, 128]),
        out_dim=st.sampled_from([2, 7, 256]),
        seed=st.integers(0, 2**31),
    )
    @example(n=257, batch_size=256, m_negatives=16, epochs=2, hidden=128, out_dim=256, seed=0)  # 1-row last batch
    @example(n=150, batch_size=300, m_negatives=None, epochs=2, hidden=128, out_dim=256, seed=1)  # batch > n
    @example(n=600, batch_size=256, m_negatives=16, epochs=1, hidden=128, out_dim=256, seed=2)  # 88-row last batch
    def test_train_contrastive(self, n, batch_size, m_negatives, epochs, hidden, out_dim, seed):
        x = np.random.default_rng(seed).standard_normal((n, 3))
        emb = EmbeddingSet(x / np.linalg.norm(x, axis=1, keepdims=True))
        cfg = TrainConfig(
            epochs=epochs,
            batch_size=batch_size,
            m_negatives=m_negatives,
            hidden_size=hidden,
            out_dim=out_dim,
            seed=seed,
        )
        result = train_contrastive(emb, cfg)
        params, params_epoch1, trace = _reference_train_contrastive(emb, cfg)
        assert result.loss_trace == trace
        _assert_params_equal(result.params, params)
        _assert_params_equal(result.params_epoch1, params_epoch1)
        encoded, _ = _reference_forward(params, emb.values)
        np.testing.assert_array_equal(encode_array(result.params, emb.values), encoded)

    @settings(max_examples=60, deadline=None)
    @given(
        b=st.integers(2, 300),
        m_in=st.integers(1, 5),
        hidden=st.sampled_from([3, 16, 128]),
        out_dim=st.sampled_from([2, 7, 256]),
        m_negatives=st.sampled_from([None, 1, 3, 16, 300]),
        extra=st.integers(1, 40),
        seed=st.integers(0, 2**31),
    )
    def test_forward_backward_and_loss(self, b, m_in, hidden, out_dim, m_negatives, extra, seed):
        """Each pass has the reference's bits, both allocating and writing into
        buffers with ``extra`` rows beyond b, of which it uses the leading rows."""
        rng = np.random.default_rng(seed)
        params = init_params(m_in, hidden, out_dim, seed=seed)
        v1, v2 = rng.standard_normal((2, b, m_in))
        f1, cache1 = forward(params, v1)
        f2, cache2 = forward(params, v2)
        r1, r_cache1 = _reference_forward(params, v1)
        r2, r_cache2 = _reference_forward(params, v2)
        np.testing.assert_array_equal(f1, r1)
        np.testing.assert_array_equal(f2, r2)
        loss, g1, g2 = infonce_batch_loss(f1, f2, m_negatives, np.random.default_rng(seed))
        r_loss, r_g1, r_g2 = _reference_infonce_batch_loss(r1, r2, m_negatives, np.random.default_rng(seed))
        assert loss == r_loss
        np.testing.assert_array_equal(g1, r_g1)
        np.testing.assert_array_equal(g2, r_g2)
        for cache, r_cache, g in ((cache1, r_cache1, g1), (cache2, r_cache2, g2)):
            for grad, r_grad in zip(backward(params, cache, g), _reference_backward(params, r_cache, g)):
                np.testing.assert_array_equal(grad, r_grad)

        def filled(buffers):  # nan beyond the leading rows would show in the results
            for buffer in buffers:
                buffer.fill(np.nan)
            return buffers

        rows = b + extra
        da, inner, scratch = filled(_work_out(rows, hidden, out_dim))
        e1, e_cache1 = forward(params, v1, (*filled(_forward_out(rows, hidden, out_dim)), scratch))
        e2, e_cache2 = forward(params, v2, (*filled(_forward_out(rows, hidden, out_dim)), scratch))
        np.testing.assert_array_equal(e1, f1)
        np.testing.assert_array_equal(e2, f2)
        loss_out = filled(_loss_out(rows, out_dim, subset=True))
        e_loss, e_g1, e_g2 = infonce_batch_loss(e1, e2, m_negatives, np.random.default_rng(seed), loss_out)
        assert e_loss == loss
        np.testing.assert_array_equal(e_g1, g1)
        np.testing.assert_array_equal(e_g2, g2)
        for cache, e_cache, g in ((cache1, e_cache1, g1), (cache2, e_cache2, g2)):
            e_grads = backward(params, e_cache, g, (*filled(_gradients_out(params)), da, inner, scratch))
            for e_grad, grad in zip(e_grads, backward(params, cache, g)):
                np.testing.assert_array_equal(e_grad, grad)

    def test_negative_mask_tie_at_the_mth_key(self):
        """A tie at a row's m-th smallest key would keep m + 1 columns; the mask
        then takes argpartition's m columns, as the reference does."""
        keys = np.array(
            [
                [np.inf, 0.3, 0.1, 0.3, 0.9],  # tie at the 2nd smallest key
                [0.2, np.inf, 0.7, 0.1, 0.4],
                [0.5, 0.5, np.inf, 0.5, 0.5],  # every key tied
                [0.6, 0.1, 0.2, np.inf, 0.8],
                [0.1, 0.2, 0.3, 0.4, np.inf],
            ]
        )
        m = 2
        kth = np.sort(keys, axis=1)[:, m - 1 : m]
        assert (keys <= kth).sum() > keys.shape[0] * m  # so the fallback runs
        mask = _negative_mask(keys, m, np.empty_like(keys))
        np.testing.assert_array_equal(mask, _reference_mask(keys, m).astype(float))
        np.testing.assert_array_equal(mask.sum(axis=1), m)

    def test_negative_mask_without_ties(self, rng):
        keys = rng.random((9, 9))
        np.fill_diagonal(keys, np.inf)
        for m in (1, 4, 7):
            mask = _negative_mask(keys, m, np.empty_like(keys))
            np.testing.assert_array_equal(mask, _reference_mask(keys, m).astype(float))


class TestMemory:
    def test_encode_array_peak(self):
        """Beyond its output, encode_array holds the hidden activations, one
        norm tile and O(rows) values; the one-shot pass held four output-sized
        arrays (11.8 MB here)."""
        rows = 2000
        params = init_params(3, 128, 256, seed=0)
        x = np.random.default_rng(0).standard_normal((rows, 3))
        tracemalloc.start()
        try:
            f = encode_array(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        hidden = rows * 128 * 8
        slack = 2 * 8 * 8192 + 16 * rows  # two ufunc iterator buffers, the norms
        assert peak <= f.nbytes + hidden + 8 * TILE_VALUES + slack, (peak, f.nbytes)

    @pytest.mark.parametrize("m_negatives", [None, 16])
    def test_train_contrastive_peak_is_the_workspace(self, m_negatives):
        """One set of step buffers of b = 256 rows, reused by every step: two sets of
        gradients plus, per row, the anchors and two views (3 m), two activations
        and da (3 hidden), two features and their gradients (4 out_dim), the norms,
        inner and three loss vectors, the scratch (max(hidden, out_dim)), the b
        scores and, with subsetting, b keys and b mask values."""
        n, b, m_in, hidden, out_dim = 2048, 256, 3, 128, 256
        emb = EmbeddingSet(np.random.default_rng(0).standard_normal((n, m_in)))
        cfg = TrainConfig(epochs=2, batch_size=b, hidden_size=hidden, out_dim=out_dim, m_negatives=m_negatives)
        per_row = 3 * m_in + 3 * hidden + 4 * out_dim + 6 + max(hidden, out_dim) + b
        if m_negatives is not None:
            per_row += 2 * b
        param_bytes = 8 * (m_in * hidden + hidden + hidden * out_dim + out_dim)
        workspace = 8 * b * per_row + 2 * param_bytes
        tracemalloc.start()
        try:
            train_contrastive(emb, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the parameters and the epoch-1 copy, the permutation, and two ufunc buffers
        slack = 2 * param_bytes + 8 * n + 2 * 8 * 8192
        assert peak <= workspace + slack, (peak, workspace)

    @pytest.mark.parametrize("m_negatives", [None, 16])
    def test_train_contrastive_allocates_once_per_call(self, monkeypatch, m_negatives):
        """The step buffers are allocated once per call, which the peak above cannot
        show, since a step's buffers would be freed before the next: the np.empty and
        np.empty_like calls do not grow with the steps (2 epochs of 3, 5 and 6 steps,
        the last of 10 rows). The epochs stay fixed, since each draws one permutation."""
        counts = []
        for n in (600, 1200, 1290):
            emb = EmbeddingSet(np.random.default_rng(0).standard_normal((n, 3)))
            calls = []
            with monkeypatch.context() as patch:
                for name in ("empty", "empty_like"):
                    real = getattr(np, name)
                    patch.setattr(np, name, lambda *args, real=real, **kwargs: calls.append(1) or real(*args, **kwargs))
                train_contrastive(emb, TrainConfig(epochs=2, batch_size=256, hidden_size=8, out_dim=4, m_negatives=m_negatives))
            counts.append(len(calls))
        assert counts[0] > 0 and counts == [counts[0]] * 3, counts


class TestTrainContrastive:
    @pytest.fixture
    def two_cap_data(self):
        cfg = GeomConfig(d=3, n=300, area=1.0, class_centers=NORTH_SOUTH, seed=0)
        return sample_caps(cfg)

    def test_deterministic(self, two_cap_data):
        emb, _ = two_cap_data
        cfg = TrainConfig(epochs=2, batch_size=64, hidden_size=8, out_dim=4, seed=1)
        a = train_contrastive(emb, cfg)
        b = train_contrastive(emb, cfg)
        np.testing.assert_array_equal(a.params.w1, b.params.w1)
        assert a.loss_trace == b.loss_trace

    def test_loss_decreases(self, two_cap_data):
        emb, _ = two_cap_data
        cfg = TrainConfig(epochs=15, batch_size=64, learning_rate=0.05, noise_r=0.3, hidden_size=16, out_dim=8, seed=0)
        result = train_contrastive(emb, cfg)
        assert result.loss_trace[-1] < result.loss_trace[0]
        assert len(result.loss_trace) == 15

    def test_epoch1_checkpoint_kept(self, two_cap_data):
        emb, _ = two_cap_data
        cfg = TrainConfig(epochs=3, batch_size=64, hidden_size=8, out_dim=4, seed=0)
        result = train_contrastive(emb, cfg)
        assert result.params_epoch1 is not None
        assert not np.array_equal(result.params_epoch1.w1, result.params.w1)

    def test_one_row_is_refused(self):
        """One row has no in-batch negative: training refuses it instead of
        returning the untrained encoder with a nan loss trace."""
        emb = EmbeddingSet(np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="need at least 2 training rows for in-batch negatives, got n=1"):
            train_contrastive(emb, TrainConfig(epochs=2, batch_size=2, hidden_size=4, out_dim=2))

    def test_two_rows_train(self):
        emb = EmbeddingSet(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        result = train_contrastive(emb, TrainConfig(epochs=2, batch_size=2, hidden_size=4, out_dim=2))
        assert all(math.isfinite(v) for v in result.loss_trace)

    def test_learns_separable_task(self, two_cap_data):
        emb, lab = two_cap_data
        cfg = TrainConfig(epochs=10, batch_size=64, learning_rate=0.05, noise_r=0.3, hidden_size=16, out_dim=8, seed=0)
        result = train_contrastive(emb, cfg)
        acc = linear_eval(result.params, emb, lab, emb, lab)
        assert acc >= 0.95


class TestMeanClassifier:
    def test_hand_case(self):
        train_f = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        lab = LabelSet(np.array([0, 0, 1, 1]), k=2)
        test_f = np.array([[1.0, 0.0], [0.0, 1.0]])
        test_lab = LabelSet(np.array([0, 1]), k=2)
        assert mean_classifier_accuracy(train_f, lab, test_f, test_lab) == 1.0

    def test_tie_goes_to_lowest_class(self):
        train_f = np.array([[1.0, 0.0], [1.0, 0.0]])
        lab = LabelSet(np.array([0, 1]), k=2)  # identical class means
        test_f = np.array([[1.0, 0.0]])
        assert mean_classifier_accuracy(train_f, lab, test_f, LabelSet(np.array([0]), k=2)) == 1.0
        assert mean_classifier_accuracy(train_f, lab, test_f, LabelSet(np.array([1]), k=2)) == 0.0

    def test_empty_class(self):
        train_f = np.ones((2, 2))
        lab = LabelSet(np.array([0, 0]), k=2)
        with pytest.raises(DegenerateInputError, match="class 1"):
            mean_classifier_accuracy(train_f, lab, train_f, lab)

    def test_label_count_mismatch(self):
        f = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.1], [0.1, 1.0]])
        lab = LabelSet(np.array([0, 1, 0, 1]), k=2)
        one = LabelSet(np.array([0]), k=2)
        with pytest.raises(ValueError, match="test labels have n=1, test features have n=4"):
            mean_classifier_accuracy(f, lab, f, one)
        with pytest.raises(ValueError, match="labels have n=1, features have n=4"):
            mean_classifier_accuracy(f, one, f, lab)


class TestCounterexample:
    def test_perfect_alignment_at_chance(self):
        pairs, labels, acc = counterexample_prop53(4000, 2, 4, seed=0)
        # the two sides are the same embeddings: alignment is exact
        np.testing.assert_array_equal(pairs.left.values, pairs.right.values)
        assert abs(acc - 0.5) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            counterexample_prop53(1, 2, 4)
        with pytest.raises(ValueError):
            counterexample_prop53(10, 1, 4)

"""Synthetic contrastive experiment: a single-hidden-layer encoder trained with
in-batch InfoNCE on sphere data, mean-classifier evaluation, and the
perfect-alignment failure construction.

Gradients are exact analytic backpropagation through the two-layer net, the
tanh hidden nonlinearity and the unit-norm output projection; the training
loop is single-threaded and bit-deterministic for a given seed.

One encoder pass serves training and encoding. ``forward``, ``backward`` and
``infonce_batch_loss`` write into the buffers passed as ``out`` and allocate
fresh ones when it is None. ``train_contrastive`` allocates one step
workspace per call, sized to min(batch_size, n) rows, and every step reuses
it; the smaller last batch uses the leading values of each flat buffer,
reshaped, so every ``out=`` stays C-contiguous. ``encode_array`` allocates
only its output, the hidden activations, the row norms and one norm tile.

Every arithmetic operation keeps the operands and the order of the one-shot
expressions, and the random draws are the same calls in the same order, so
loss traces, parameters and encodings keep their bits:
- in-place ``+=``, ``/=`` and ``out=`` are the same IEEE operations;
- the row norms come from ``data.sq_norms``, which keeps the one-shot bits;
- the products are never tiled over rows, since a row tile of ``x @ w`` can
  differ in bits from the whole product;
- the full-negative path zeroes the diagonal of exp(scores), which equals
  multiplying by the off-diagonal mask because exp is finite;
- the m-negative mask is ``keys <=`` each row's m-th smallest key, from one
  partition, with ``argpartition`` only for a tie at that key;
- the update ``d_a += d_b; d_a *= lr; w -= d_a`` is ``w - lr * (d_a + d_b)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .data import TILE_VALUES, EmbeddingSet, LabelSet, PositivePairs, class_means, require_nonnegative, sq_norms, unit_rows
from .errors import TrainingDivergenceError
from .synth import balanced_labels


@dataclass(frozen=True)
class EncoderParams:
    w1: np.ndarray  # (m_in, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, m_out)
    b2: np.ndarray  # (m_out,)

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 256
    learning_rate: float = 0.05
    noise_r: float = 0.5
    hidden_size: int = 128
    out_dim: int = 256
    m_negatives: int | None = None  # None = all in-batch negatives (batch - 1)
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.hidden_size, self.out_dim) < 1:
            raise ValueError("epochs, hidden_size and out_dim must be >= 1")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2 for in-batch negatives, got {self.batch_size}")
        require_nonnegative(learning_rate=self.learning_rate, noise_r=self.noise_r)


@dataclass(frozen=True)
class TrainResult:
    params: EncoderParams
    params_epoch1: EncoderParams  # the "initial encoder" checkpoint for relative metrics
    loss_trace: list


def init_params(m_in: int, hidden: int, m_out: int, seed: int = 0) -> EncoderParams:
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((m_in, hidden)) / math.sqrt(m_in)
    w2 = rng.standard_normal((hidden, m_out)) / math.sqrt(hidden)
    return EncoderParams(w1, np.zeros(hidden), w2, np.zeros(m_out))


def _prefix(flat: np.ndarray, *shape: int) -> np.ndarray:
    """The leading values of a flat buffer as a C-contiguous array of ``shape``."""
    return flat[: math.prod(shape)].reshape(shape)


def _forward_out(rows: int, hidden: int, width: int):
    # a norm tile holds at most max(TILE_VALUES, width) values, see data.row_tiles
    scratch = np.empty(min(rows * width, max(TILE_VALUES, width)))
    return np.empty((rows, hidden)), np.empty((rows, width)), np.empty((rows, 1)), scratch


def _gradients_out(params: EncoderParams):
    return tuple(np.empty_like(p) for p in (params.w1, params.b1, params.w2, params.b2))


def _backward_out(params: EncoderParams, rows: int):
    hidden, width = params.w2.shape
    scratch = np.empty(rows * max(hidden, width))
    return (*_gradients_out(params), np.empty((rows, hidden)), np.empty((rows, 1)), scratch)


def _loss_out(rows: int, width: int, subset: bool):
    keys, mask = (np.empty((rows, rows)), np.empty((rows, rows))) if subset else (None, None)
    grads = (np.empty((rows, width)), np.empty((rows, width)))
    return np.empty((rows, rows)), *grads, np.empty((3, rows)), keys, mask


def forward(params: EncoderParams, x: np.ndarray, out=None):
    """Unit-norm features plus the cache ``(x, a, norms, f)`` needed for backprop.

    ``out`` = ``(a, f, norms, scratch)`` receives the tanh activations (rows,
    hidden), the features (rows, out_dim) and their norms (rows, 1); the flat
    ``scratch`` holds one norm tile. None allocates them.
    """
    a, f, norms, scratch = _forward_out(x.shape[0], *params.w2.shape) if out is None else out
    np.matmul(x, params.w1, out=a)
    a += params.b1
    np.tanh(a, out=a)
    np.matmul(a, params.w2, out=f)
    f += params.b2
    sq_norms(f, out=norms.reshape(-1), scratch=scratch)
    np.sqrt(norms, out=norms)
    f /= norms
    return f, (x, a, norms, f)


def encode_array(params: EncoderParams, values: np.ndarray) -> np.ndarray:
    f, _ = forward(params, values)
    return f


def backward(params: EncoderParams, cache, grad_f: np.ndarray, out=None):
    """Gradients ``(dw1, db1, dw2, db2)`` of a scalar loss w.r.t. all parameters, given dL/df.

    ``out`` = ``(dw1, db1, dw2, db2, da, inner, scratch)`` receives the gradients;
    ``da`` (rows, hidden), ``inner`` (rows, 1) and the flat ``scratch`` of
    rows * max(hidden, out_dim) values are work space. None allocates them.
    """
    x, a, norms, f = cache
    dw1, db1, dw2, db2, da, inner, scratch = _backward_out(params, f.shape[0]) if out is None else out
    # through the unit-norm projection: t = (g - f (f.g)) / ||z||
    t = _prefix(scratch, *f.shape)
    np.multiply(f, grad_f, out=t)
    np.add.reduce(t, axis=1, keepdims=True, out=inner)
    np.multiply(f, inner, out=t)
    np.subtract(grad_f, t, out=t)
    t /= norms
    np.matmul(a.T, t, out=dw2)
    np.add.reduce(t, axis=0, out=db2)
    np.matmul(t, params.w2.T, out=da)
    # t is spent: 1 - a**2 takes its place, and da becomes dh = da * (1 - a**2)
    slope = _prefix(scratch, *a.shape)
    np.square(a, out=slope)
    np.subtract(1.0, slope, out=slope)
    da *= slope
    np.matmul(x.T, da, out=dw1)
    np.add.reduce(da, axis=0, out=db1)
    return dw1, db1, dw2, db2


def _negative_mask(keys: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
    """1.0 where a column is among its row's m smallest keys, else 0.0, in ``out``.

    The mask is ``keys <=`` each row's m-th smallest key, from one partition of a
    copy. A tie at the m-th key would keep more than m columns in its row, so
    such keys take ``argpartition``, which keeps exactly m.
    """
    np.copyto(out, keys)
    out.partition(m - 1, axis=1)
    kth = out[:, m - 1 : m].copy()
    np.less_equal(keys, kth, out=out)
    if np.count_nonzero(out) != keys.shape[0] * m:  # every row keeps at least m
        out.fill(0.0)
        np.put_along_axis(out, np.argpartition(keys, m - 1, axis=1)[:, :m], 1.0, axis=1)
    return out


def infonce_batch_loss(f1: np.ndarray, f2: np.ndarray, m_negatives: int | None = None, rng=None, out=None):
    """Adjusted in-batch InfoNCE and its gradient w.r.t. both feature matrices.

    Anchor i's positive is f2[i]; its negatives are the other rows of f2
    (optionally a random subset of size m_negatives).

    Subsetting draws one (b, b) matrix of keys ``rng.random((b, b))`` per call
    and gives row i the m_negatives off-diagonal columns with the smallest keys:
    a uniform random subset per row, independent across rows, and a fixed
    function of the rng state.

    ``out`` = ``(scores, grad_f1, grad_f2, vectors, keys, mask)`` receives the
    (b, b) score weights and the two gradients; ``vectors`` (3, b) is work space,
    and so are ``keys`` and ``mask`` (b, b), which may be None without
    subsetting. None allocates them.
    """
    b = f1.shape[0]
    if b < 2:
        raise ValueError("need batch size >= 2 for in-batch negatives")
    subset = m_negatives is not None and m_negatives < b - 1
    if subset:
        if rng is None:
            raise ValueError("m_negatives subsetting needs an rng")
        if m_negatives < 1:
            raise ValueError("m_negatives must be >= 1")
    scores, grad_f1, grad_f2, vectors, keys, mask = _loss_out(b, f1.shape[1], subset) if out is None else out
    row_sums, terms, positives = vectors
    np.matmul(f1, f2.T, out=scores)
    np.copyto(positives, scores.diagonal())
    np.exp(scores, out=scores)
    if subset:
        rng.random(out=keys)
        np.fill_diagonal(keys, np.inf)  # the positive is never a negative
        scores *= _negative_mask(keys, m_negatives, mask)
        counts = m_negatives
    else:
        np.fill_diagonal(scores, 0.0)  # exp is finite, so this is exp * ~eye
        counts = b - 1

    np.add.reduce(scores, axis=1, out=row_sums)
    np.divide(row_sums, counts, out=terms)
    np.log(terms, out=terms)
    terms -= positives
    loss = float(np.mean(terms))

    scores /= row_sums[:, None]
    scores /= b
    np.fill_diagonal(scores, -1.0 / b)
    np.matmul(scores, f2, out=grad_f1)
    np.matmul(scores.T, f1, out=grad_f2)
    return loss, grad_f1, grad_f2


class _StepWorkspace:
    """Every buffer of a training step of up to ``rows`` rows, allocated once.

    ``views(b)`` shapes the leading values of each flat buffer for a b-row step,
    so a smaller last batch keeps every ``out=`` C-contiguous: with a strided
    ``out``, numpy's matmul leaves BLAS, which gives other bits.
    """

    def __init__(self, params: EncoderParams, rows: int, subset: bool):
        m_in, hidden = params.w1.shape
        width = params.w2.shape[1]
        self._columns = {
            **dict.fromkeys(("anchors", "x1", "x2"), m_in),
            **dict.fromkeys(("a1", "a2", "da"), hidden),
            **dict.fromkeys(("f1", "f2", "g1", "g2"), width),
            **dict.fromkeys(("norms1", "norms2", "inner"), 1),
        }
        self._square = ("scores", "keys", "mask") if subset else ("scores",)
        self._flat = {name: np.empty(rows * cols) for name, cols in self._columns.items()}
        self._flat.update((name, np.empty(rows * rows)) for name in self._square)
        self._flat["vectors"] = np.empty(3 * rows)
        self.scratch = np.empty(rows * max(hidden, width))  # flat: the norm tile, then backward's t and 1 - a**2
        self.grads = [_gradients_out(params) for _ in range(2)]
        self._views = {}

    def views(self, b: int) -> SimpleNamespace:
        if b not in self._views:
            flat = self._flat
            shaped = {"keys": None, "mask": None}
            shaped.update((name, _prefix(flat[name], b, cols)) for name, cols in self._columns.items())
            shaped.update((name, _prefix(flat[name], b, b)) for name in self._square)
            self._views[b] = SimpleNamespace(**shaped, vectors=_prefix(flat["vectors"], 3, b))
        return self._views[b]


def train_contrastive(data: EmbeddingSet, cfg: TrainConfig) -> TrainResult:
    """Minibatch SGD on the adjusted in-batch InfoNCE with fresh augmentation
    noise each step. Returns the final parameters, the epoch-1 checkpoint and
    the per-epoch mean loss trace. A floating-point overflow, invalid operation or
    division by zero (so any non-finite loss) raises TrainingDivergenceError."""
    if data.n < 2:
        raise ValueError(f"need at least 2 training rows for in-batch negatives, got n={data.n}")
    rng = np.random.default_rng(cfg.seed)
    params = init_params(data.m, cfg.hidden_size, cfg.out_dim, seed=cfg.seed)
    weights = (params.w1, params.b1, params.w2, params.b2)  # updated in place
    n = data.n
    rows = min(cfg.batch_size, n)
    work = _StepWorkspace(params, rows, cfg.m_negatives is not None and cfg.m_negatives < rows - 1)
    step = 0
    trace = []
    params_epoch1 = None
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for epoch in range(cfg.epochs):
                order = rng.permutation(n)
                losses = []
                for start in range(0, n, cfg.batch_size):
                    idx = order[start : start + cfg.batch_size]
                    if idx.size < 2:
                        continue
                    w = work.views(idx.size)
                    np.take(data.values, idx, axis=0, out=w.anchors)
                    for x in (w.x1, w.x2):  # anchors + noise_r * rng.random((b, m))
                        rng.random(out=x)
                        x *= cfg.noise_r
                        x += w.anchors
                    f1, cache1 = forward(params, w.x1, (w.a1, w.f1, w.norms1, work.scratch))
                    f2, cache2 = forward(params, w.x2, (w.a2, w.f2, w.norms2, work.scratch))
                    loss_out = (w.scores, w.g1, w.g2, w.vectors, w.keys, w.mask)
                    loss, g1, g2 = infonce_batch_loss(f1, f2, cfg.m_negatives, rng, loss_out)
                    grads_a = backward(params, cache1, g1, (*work.grads[0], w.da, w.inner, work.scratch))
                    grads_b = backward(params, cache2, g2, (*work.grads[1], w.da, w.inner, work.scratch))
                    for p, d_a, d_b in zip(weights, grads_a, grads_b):  # p - lr * (d_a + d_b)
                        d_a += d_b
                        d_a *= cfg.learning_rate
                        p -= d_a
                    losses.append(loss)
                    step += 1
                trace.append(float(np.mean(losses)))
                if epoch == 0:
                    params_epoch1 = params.copy()
    except FloatingPointError as exc:
        raise TrainingDivergenceError(f"{exc} at step {step}, learning_rate={cfg.learning_rate}") from None
    return TrainResult(params=params, params_epoch1=params_epoch1, loss_trace=trace)


def mean_classifier_accuracy(
    train_features: np.ndarray,
    train_labels: LabelSet,
    test_features: np.ndarray,
    test_labels: LabelSet,
) -> float:
    """Accuracy of the mean classifier: argmax_k f(x).mu_k, ties to the lowest class."""
    if test_labels.n != test_features.shape[0]:
        raise ValueError(f"test labels have n={test_labels.n}, test features have n={test_features.shape[0]}")
    means = class_means(train_features, train_labels)
    predictions = np.argmax(test_features @ means.T, axis=1)
    return float(np.mean(predictions == test_labels.labels))


def linear_eval(
    params: EncoderParams,
    train: EmbeddingSet,
    train_labels: LabelSet,
    test: EmbeddingSet,
    test_labels: LabelSet,
) -> float:
    """Mean-classifier test accuracy of an encoder."""
    train_f = encode_array(params, train.values)
    test_f = encode_array(params, test.values)
    return mean_classifier_accuracy(train_f, train_labels, test_f, test_labels)


def counterexample_prop53(n: int, k: int, m: int, seed: int = 0):
    """Perfectly aligned pairs with uniformly random features and balanced random
    labels: alignment is maximal yet the mean classifier is at chance.

    Returns (pairs, labels, accuracy).
    """
    if not (n >= k >= 2 and m >= 1):
        raise ValueError(f"need n >= k >= 2 and m >= 1, got n={n}, k={k}, m={m}")
    rng = np.random.default_rng(seed)
    features = unit_rows(rng.standard_normal((n, m)))
    label_set = balanced_labels(n, k, rng)
    emb = EmbeddingSet(features, normalized=True)
    pairs = PositivePairs(emb, emb, label_set, label_set)
    accuracy = mean_classifier_accuracy(features, label_set, features, label_set)
    return pairs, label_set, accuracy

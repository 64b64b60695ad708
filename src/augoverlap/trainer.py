"""Synthetic contrastive experiment: a single-hidden-layer encoder trained with
in-batch InfoNCE on sphere data, mean-classifier evaluation, and the
perfect-alignment failure construction.

Gradients are exact analytic backpropagation through the two-layer net, the
tanh hidden nonlinearity and the unit-norm output projection; the training
loop is single-threaded and bit-deterministic for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EmbeddingSet, LabelSet, PositivePairs, class_means
from .errors import TrainingDivergenceError


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
        if min(self.epochs, self.batch_size, self.hidden_size, self.out_dim) < 1:
            raise ValueError("epochs, batch_size, hidden_size and out_dim must be >= 1")
        if self.learning_rate < 0 or self.noise_r < 0:
            raise ValueError("learning_rate and noise_r must be >= 0")


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


def forward(params: EncoderParams, x: np.ndarray):
    """Unit-norm features plus the cache needed for backprop."""
    h = x @ params.w1 + params.b1
    a = np.tanh(h)
    z = a @ params.w2 + params.b2
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    f = z / norms
    return f, (x, a, z, norms, f)


def encode_array(params: EncoderParams, values: np.ndarray) -> np.ndarray:
    f, _ = forward(params, values)
    return f


def backward(params: EncoderParams, cache, grad_f: np.ndarray):
    """Gradients of a scalar loss w.r.t. all parameters, given dL/df."""
    x, a, z, norms, f = cache
    # through the unit-norm projection: dz = (g - f (f.g)) / ||z||
    inner = np.sum(f * grad_f, axis=1, keepdims=True)
    dz = (grad_f - f * inner) / norms
    dw2 = a.T @ dz
    db2 = dz.sum(axis=0)
    da = dz @ params.w2.T
    dh = da * (1.0 - a**2)
    dw1 = x.T @ dh
    db1 = dh.sum(axis=0)
    return dw1, db1, dw2, db2


def infonce_batch_loss(f1: np.ndarray, f2: np.ndarray, m_negatives: int | None = None, rng=None):
    """Adjusted in-batch InfoNCE and its gradient w.r.t. both feature matrices.

    Anchor i's positive is f2[i]; its negatives are the other rows of f2
    (optionally a random subset of size m_negatives).

    Subsetting draws one (b, b) matrix of keys ``rng.random((b, b))`` per call
    and gives row i the m_negatives off-diagonal columns with the smallest keys:
    a uniform random subset per row, independent across rows, and a fixed
    function of the rng state.
    """
    b = f1.shape[0]
    if b < 2:
        raise ValueError("need batch size >= 2 for in-batch negatives")
    scores = f1 @ f2.T  # (b, b)
    mask = ~np.eye(b, dtype=bool)
    if m_negatives is not None and m_negatives < b - 1:
        if rng is None:
            raise ValueError("m_negatives subsetting needs an rng")
        if m_negatives < 1:
            raise ValueError("m_negatives must be >= 1")
        keys = rng.random((b, b))
        np.fill_diagonal(keys, np.inf)  # the positive is never a negative
        mask = np.zeros((b, b), dtype=bool)
        np.put_along_axis(mask, np.argpartition(keys, m_negatives - 1, axis=1)[:, :m_negatives], True, axis=1)
    counts = mask.sum(axis=1)

    exp_scores = np.exp(scores) * mask
    row_sums = exp_scores.sum(axis=1)
    loss = float(np.mean(-np.diag(scores) + np.log(row_sums / counts)))

    d_scores = exp_scores / row_sums[:, None] / b
    d_scores[np.arange(b), np.arange(b)] = -1.0 / b
    grad_f1 = d_scores @ f2
    grad_f2 = d_scores.T @ f1
    return loss, grad_f1, grad_f2


def train_contrastive(data: EmbeddingSet, cfg: TrainConfig) -> TrainResult:
    """Minibatch SGD on the adjusted in-batch InfoNCE with fresh augmentation
    noise each step. Returns the final parameters, the epoch-1 checkpoint and
    the per-epoch mean loss trace."""
    rng = np.random.default_rng(cfg.seed)
    params = init_params(data.m, cfg.hidden_size, cfg.out_dim, seed=cfg.seed)
    n = data.n
    step = 0
    trace = []
    params_epoch1 = None
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if idx.size < 2:
                continue
            anchors = data.values[idx]
            noise_shape = (idx.size, data.m)
            v1 = anchors + cfg.noise_r * rng.random(noise_shape)
            v2 = anchors + cfg.noise_r * rng.random(noise_shape)
            f1, cache1 = forward(params, v1)
            f2, cache2 = forward(params, v2)
            loss, g1, g2 = infonce_batch_loss(f1, f2, cfg.m_negatives, rng)
            if not math.isfinite(loss):
                raise TrainingDivergenceError(f"non-finite loss at step {step}")
            dw1a, db1a, dw2a, db2a = backward(params, cache1, g1)
            dw1b, db1b, dw2b, db2b = backward(params, cache2, g2)
            lr = cfg.learning_rate
            params = EncoderParams(
                params.w1 - lr * (dw1a + dw1b),
                params.b1 - lr * (db1a + db1b),
                params.w2 - lr * (dw2a + dw2b),
                params.b2 - lr * (db2a + db2b),
            )
            losses.append(loss)
            step += 1
        trace.append(float(np.mean(losses)))
        if epoch == 0:
            params_epoch1 = params.copy()
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
    if not n >= k >= 2:
        raise ValueError("need n >= k >= 2")
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, m))
    features /= np.linalg.norm(features, axis=1, keepdims=True)
    labels = np.tile(np.arange(k), n // k + 1)[:n]
    rng.shuffle(labels)
    label_set = LabelSet(labels, k=k)
    emb = EmbeddingSet(features, normalized=True)
    pairs = PositivePairs(emb, emb, label_set, label_set)
    accuracy = mean_classifier_accuracy(features, label_set, features, label_set)
    return pairs, label_set, accuracy

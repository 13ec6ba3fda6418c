"""Stand-in probabilistic text classifier.

A hashed bag-of-words logistic regression trained with minibatch SGD
(per-coordinate adaptive step sizes) on per-annotation binary
cross-entropy: every annotation record is one training instance, so
replicated records enter the loss once per copy. That is the whole
mechanism by which replication-based reweighting reaches the model.
Weights are snapshotted after every epoch and the epoch with the best
development-set loss wins. Each minibatch step runs scipy's compiled
sparse matrix-vector kernels directly on the epoch's CSR arrays.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence, Union, get_type_hints

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools  # private: see _adagrad_epoch
from scipy.special import expit

from .rng import stream
from .simulation import Dataset, reads_file, typed

MODEL_FORMAT = "pairsim-hashed-logistic"
MODEL_VERSION = 1

_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 0.2
    hash_dim: int = 2 ** 14
    batch_size: int = 64
    # small ridge pins the flat directions of the hashed feature space, so
    # runs converge to one point instead of a shuffle-dependent noise ball
    l2: float = 1e-5

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and above 0, got {self.learning_rate}"
            )
        if self.hash_dim < 2:
            raise ValueError(f"hash_dim must be at least 2, got {self.hash_dim}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be finite and at least 0, got {self.l2}")


@dataclass(frozen=True, eq=False)
class Model:
    """Trained classifier: hashed token weights, bias, and provenance.

    ``history`` holds the selection loss (dev loss when a dev dataset was
    given, training loss otherwise) measured after each epoch;
    ``best_epoch`` is the 1-based epoch whose weights were kept.
    """

    weights: np.ndarray
    bias: float
    config: TrainConfig
    seed: int
    best_epoch: int
    history: tuple[float, ...]


def token_index(token: str, dim: int) -> int:
    """Stable hash of a token into [0, dim)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % dim


def _item_matrix(
    item_ids: Sequence[str],
    texts: Mapping[str, Sequence[str]],
    dim: int,
) -> sparse.csr_matrix:
    """One row per item: hashed token frequencies (counts / length).

    Each distinct token is hashed once per call; every row holds its
    columns in ascending order.
    """
    n = len(item_ids)
    lengths = np.array([len(texts[item_id]) for item_id in item_ids], dtype=np.int64)
    if not lengths.all():
        raise ValueError(f"item {item_ids[int(np.argmin(lengths))]!r} has an empty text")
    tokens = [tok for item_id in item_ids for tok in texts[item_id]]
    column = {tok: token_index(tok, dim) for tok in set(tokens)}
    cols = np.fromiter(map(column.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
    # one key per (row, column) pair, sorted row-major: counts per cell
    keys, counts = np.unique(rows * dim + cols, return_counts=True)
    key_rows = keys // dim
    indptr = np.searchsorted(key_rows, np.arange(n + 1))
    return sparse.csr_matrix((counts / lengths[key_rows], keys % dim, indptr), shape=(n, dim))


@dataclass(frozen=True, eq=False)
class Features:
    """Hashed token frequencies of a set of items: row ``rows[item_id]``
    of ``matrix`` is that item's, with ``hash_dim`` columns."""

    rows: Mapping[str, int]
    matrix: sparse.csr_matrix

    @property
    def hash_dim(self) -> int:
        return self.matrix.shape[1]

    def of(self, item_ids: Sequence[str]) -> sparse.csr_matrix:
        """The rows of ``item_ids``, in that order."""
        return self.matrix[np.fromiter(map(self.rows.__getitem__, item_ids), dtype=np.int64)]

    def select(self, item_ids: Sequence[str]) -> "Features":
        """The features of ``item_ids`` alone, in that order."""
        item_ids = list(item_ids)
        return Features({item_id: i for i, item_id in enumerate(item_ids)}, self.of(item_ids))


def featurize(texts: Mapping[str, Sequence[str]], hash_dim: int) -> Features:
    """Features of every item in ``texts`` (item_id to token sequence),
    one row per item in mapping order; an empty text is an error."""
    item_ids = list(texts)
    rows = {item_id: i for i, item_id in enumerate(item_ids)}
    return Features(rows, _item_matrix(item_ids, texts, hash_dim))


def _features(texts: Union[Features, Mapping[str, Sequence[str]]], hash_dim: int) -> Features:
    """``texts`` as features with ``hash_dim`` columns."""
    if not isinstance(texts, Features):
        return featurize(texts, hash_dim)
    if texts.hash_dim != hash_dim:
        raise ValueError(f"features have {texts.hash_dim} hash columns, expected {hash_dim}")
    return texts


def _mean_bce(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy of probabilities ``p`` against labels ``y``."""
    p_safe = np.clip(p, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    return -float(np.mean(y * np.log(p_safe) + (1.0 - y) * np.log(1.0 - p_safe)))


def loss_and_grad(
    w: np.ndarray,
    b: float,
    X: sparse.csr_matrix,
    y: np.ndarray,
) -> tuple[float, np.ndarray, float]:
    """Mean binary cross-entropy over the batch and its analytic gradient."""
    p = expit(X @ w + b)
    loss = _mean_bce(p, y)
    residual = (p - y) / len(y)
    grad_w = np.asarray(X.T @ residual)
    grad_b = float(residual.sum())
    return loss, grad_w, grad_b


def _instance_rows(dataset: Dataset) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Distinct item ids in first-seen order, then per annotation record
    the index of its item and its label."""
    codes, first, inverse = np.unique(dataset.item, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    item_ids = [dataset.item_ids[c] for c in codes[order].tolist()]
    return item_ids, rank[inverse], dataset.label.astype(np.float64)


def _adagrad_epoch(
    X: sparse.csr_matrix,
    y: np.ndarray,
    w: np.ndarray,
    accum_w: np.ndarray,
    b: float,
    accum_b: float,
    config: TrainConfig,
) -> tuple[float, float]:
    """One pass of minibatch AdaGrad over the rows of ``X`` in order.

    Updates ``w`` and ``accum_w`` in place and returns the new bias and
    its accumulator. Each batch's margins and gradient come from scipy's
    compiled ``csr_matvec`` and ``csc_matvec``, called on the epoch's
    arrays with the batch's slice of ``indptr`` as row pointer and
    zeroed buffers as output: the very calls ``X[batch] @ w`` and
    ``X[batch].T @ residual`` make, without building a matrix per batch.
    The update keeps the ``(lr * g) / sqrt(A + 1e-12)`` association, so
    the result is bit for bit that of ``loss_and_grad`` on each batch.

    ``scipy.sparse._sparsetools`` is private and imported with no
    fallback: a second, numpy path would be slower code kept only to be
    out of step. If a scipy release changes or drops the kernels, the
    test that trains against a loop of public ``X @ w`` calls fails (or
    the import does), instead of models drifting silently.
    """
    lr, l2, batch = config.learning_rate, config.l2, config.batch_size
    n, k = X.shape
    indptr, indices, data = X.indptr, X.indices, X.data
    margin = np.empty(min(batch, n))
    grad_w = np.empty(k)
    step = np.empty(k)
    scale = np.empty(k)
    for start in range(0, n, batch):
        stop = min(start + batch, n)
        m = stop - start
        ptr = indptr[start : stop + 1]
        z = margin[:m]
        z.fill(0.0)
        _sparsetools.csr_matvec(m, k, ptr, indices, data, w, z)
        residual = (expit(z + b) - y[start:stop]) / m
        grad_w.fill(0.0)
        _sparsetools.csc_matvec(k, m, ptr, indices, data, residual, grad_w)
        grad_b = float(residual.sum())
        # grad_w += l2 * w; accum_w += grad_w ** 2;
        # w -= (lr * grad_w) / sqrt(accum_w + 1e-12), without temporaries
        np.multiply(l2, w, out=step)
        grad_w += step
        np.multiply(grad_w, grad_w, out=step)
        accum_w += step
        np.add(accum_w, 1e-12, out=scale)
        np.sqrt(scale, out=scale)
        np.multiply(lr, grad_w, out=step)
        step /= scale
        w -= step
        accum_b += grad_b * grad_b
        b -= lr * grad_b / math.sqrt(accum_b + 1e-12)
    return b, accum_b


def train(
    dataset: Dataset,
    texts: Union[Features, Mapping[str, Sequence[str]]],
    config: TrainConfig = TrainConfig(),
    seed: int = 0,
    dev: Dataset | None = None,
) -> Model:
    """Fit the classifier on one instance per annotation record.

    ``texts`` maps item_id to its token sequence, or is the
    :func:`featurize` result of such a mapping, and must cover every
    item in ``dataset`` (and ``dev``). With a dev dataset, the epoch
    whose weights minimize dev loss is kept; otherwise training loss is
    used. Deterministic given (dataset, texts, config, seed).

    SGD runs over only the hash columns that some training text
    touches: every other coordinate has zero gradient and zero ridge
    pull, so it stays exactly 0, and the model is bit for bit the one a
    dense update over all ``hash_dim`` coordinates gives.
    """
    features = _features(texts, config.hash_dim)
    if not len(dataset):
        raise ValueError("training dataset is empty")
    item_ids, rows_of, y = _instance_rows(dataset)
    sel_items, sel_rows, y_sel = (item_ids, rows_of, y) if dev is None else _instance_rows(dev)
    missing = sorted({*item_ids, *sel_items} - features.rows.keys())
    if missing:
        raise ValueError(f"no text for items: {', '.join(missing[:10])}")

    X_items = features.of(item_ids)
    X_sel = X_items if dev is None else features.of(sel_items)
    active = np.flatnonzero(np.bincount(X_items.indices, minlength=config.hash_dim))
    column = np.zeros(config.hash_dim, dtype=X_items.indices.dtype)
    column[active] = np.arange(len(active))
    Xc = sparse.csr_matrix(
        (X_items.data, column[X_items.indices], X_items.indptr),
        shape=(len(item_ids), len(active)),
    )

    w = np.zeros(len(active))
    b = 0.0
    # per-coordinate adaptive steps: the bias coordinate sees every
    # instance while a single token sees a few percent, so one global
    # rate cannot serve both
    accum_w = np.zeros(len(active))
    accum_b = 0.0
    weights = np.zeros(config.hash_dim)
    best_loss = np.inf
    best_w, best_b, best_epoch = weights.copy(), b, 0
    history = []
    for epoch in range(1, config.epochs + 1):
        perm = stream(seed, "sgd-shuffle", epoch).permutation(len(y))
        b, accum_b = _adagrad_epoch(Xc[rows_of[perm]], y[perm], w, accum_w, b, accum_b, config)
        weights[active] = w
        # each record's probability is its item's: one row per item, not per record
        sel_loss = _mean_bce(expit(X_sel @ weights + b)[sel_rows], y_sel)
        history.append(sel_loss)
        if sel_loss < best_loss:
            best_loss = sel_loss
            best_w, best_b, best_epoch = weights.copy(), b, epoch
    if best_epoch == 0:
        raise ValueError(
            "training diverged: no epoch gave a finite selection loss; lower the learning rate"
        )
    if not np.all(np.isfinite(best_w)) or not np.isfinite(best_b):
        raise ValueError("training diverged to non-finite weights; lower the learning rate")
    return Model(
        weights=best_w,
        bias=best_b,
        config=config,
        seed=seed,
        best_epoch=best_epoch,
        history=tuple(history),
    )


def predict(
    model: Model, texts: Union[Features, Mapping[str, Sequence[str]]]
) -> dict[str, float]:
    """Predicted positive probability per item of ``texts`` (a mapping of
    item_id to tokens, or its features), in its order; pure function of
    the model."""
    features = _features(texts, model.config.hash_dim)
    p = expit(features.matrix @ model.weights + model.bias)
    return {item_id: float(p[i]) for item_id, i in features.rows.items()}


def proportion_oracle(dataset: Dataset) -> dict[str, float]:
    """Per item, the fraction of its records (replicas included) labeled 1.

    An analytic predictor: what a perfectly calibrated learner would
    output on the training items, independent of any model.
    """
    if not len(dataset):
        raise ValueError("dataset is empty")
    item_ids, rows, y = _instance_rows(dataset)
    positives = np.bincount(rows, weights=y)
    return dict(zip(item_ids, (positives / np.bincount(rows)).tolist()))


# ---------------------------------------------------------------------------
# model file format


def save_model(model: Model, path: Union[str, Path]) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        **asdict(model.config),
        "seed": model.seed,
        "best_epoch": model.best_epoch,
        "history": list(model.history),
        "bias": model.bias,
        "weights": model.weights.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


@reads_file
def load_model(path: Union[str, Path]) -> Model:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {payload.get('version')}")
    # every field is required: a default hash_dim would not match the weights
    types = {**get_type_hints(TrainConfig), **get_type_hints(Model), "weights": tuple[float, ...]}
    keys = {"format", "version", *types} - {"config"}  # the config's fields are top level
    if not payload.keys() <= keys:
        raise ValueError(f"unknown key {min(payload.keys() - keys)!r} in {path}: model")

    def checked(name: str):
        if name not in payload:
            raise ValueError(f"model.{name} is missing")
        return typed(payload[name], types[name], f"model.{name}")

    return Model(
        weights=np.array(checked("weights"), dtype=np.float64),
        bias=checked("bias"),
        config=TrainConfig(**{f.name: checked(f.name) for f in fields(TrainConfig)}),
        seed=checked("seed"),
        best_epoch=checked("best_epoch"),
        history=checked("history"),
    )

"""Stand-in probabilistic text classifier.

A hashed bag-of-words logistic regression trained with minibatch SGD
(per-coordinate adaptive step sizes) on per-annotation binary
cross-entropy: every annotation record is one training instance, so
replicated records enter the loss once per copy. That is the whole
mechanism by which replication-based reweighting reaches the model.
Weights are snapshotted after every epoch and the epoch with the best
development-set loss wins.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np
from scipy import sparse
from scipy.special import expit

from .rng import stream
from .simulation import Dataset

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


def loss_and_grad(
    w: np.ndarray,
    b: float,
    X: sparse.csr_matrix,
    y: np.ndarray,
) -> tuple[float, np.ndarray, float]:
    """Mean binary cross-entropy over the batch and its analytic gradient."""
    p = expit(X @ w + b)
    p_safe = np.clip(p, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    loss = -float(np.mean(y * np.log(p_safe) + (1.0 - y) * np.log(1.0 - p_safe)))
    residual = (p - y) / len(y)
    grad_w = np.asarray(X.T @ residual)
    grad_b = float(residual.sum())
    return loss, grad_w, grad_b


def _missing_texts(dataset: Dataset, texts: Mapping[str, Sequence[str]]) -> list[str]:
    return sorted({r.item_id for r in dataset.records} - set(texts))


def _instance_rows(dataset: Dataset) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Distinct item ids in first-seen order, then per annotation record
    the index of its item and its label."""
    item_ids = list(dict.fromkeys(r.item_id for r in dataset.records))
    row_of = {item_id: i for i, item_id in enumerate(item_ids)}
    rows = np.array([row_of[r.item_id] for r in dataset.records], dtype=np.int64)
    y = np.array([r.label for r in dataset.records], dtype=np.float64)
    return item_ids, rows, y


def _instances(
    dataset: Dataset,
    texts: Mapping[str, Sequence[str]],
    dim: int,
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """One feature row and label per annotation record."""
    item_ids, rows, y = _instance_rows(dataset)
    return _item_matrix(item_ids, texts, dim)[rows], y


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
    its accumulator. Margins and gradients are summed entry by entry in
    storage order, as scipy's ``csr_matvec``/``csc_matvec`` do, and the
    update keeps the ``(lr * g) / sqrt(A + 1e-12)`` association, so the
    result is bit for bit that of ``loss_and_grad`` on each batch.
    """
    lr, l2, batch = config.learning_rate, config.l2, config.batch_size
    n, k = X.shape
    indptr, indices, data = X.indptr, X.indices, X.data
    row_nnz = np.diff(indptr)
    batch_rows = np.arange(min(batch, n))
    step = np.empty(k)
    scale = np.empty(k)
    for start in range(0, n, batch):
        stop = min(start + batch, n)
        m = stop - start
        lo, hi = indptr[start], indptr[stop]
        # scipy stores int32 indices; numpy gathers and bins intp ones faster
        cols, vals = indices[lo:hi].astype(np.intp), data[lo:hi]
        row = batch_rows[:m].repeat(row_nnz[start:stop])
        p = expit(np.bincount(row, weights=vals * w[cols], minlength=m) + b)
        residual = (p - y[start:stop]) / m
        grad_w = np.bincount(cols, weights=vals * residual[row], minlength=k)
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
    texts: Mapping[str, Sequence[str]],
    config: TrainConfig = TrainConfig(),
    seed: int = 0,
    dev: Dataset | None = None,
) -> Model:
    """Fit the classifier on one instance per annotation record.

    ``texts`` maps item_id to its token sequence and must cover every
    item in ``dataset`` (and ``dev``). With a dev dataset, the epoch
    whose weights minimize dev loss is kept; otherwise training loss is
    used. Deterministic given (dataset, texts, config, seed).

    SGD runs over only the hash columns that some training text
    touches: every other coordinate has zero gradient and zero ridge
    pull, so it stays exactly 0, and the model is bit for bit the one a
    dense update over all ``hash_dim`` coordinates gives.
    """
    if not dataset.records:
        raise ValueError("training dataset is empty")
    missing = _missing_texts(dataset, texts)
    if dev is not None:
        missing = sorted(set(missing) | set(_missing_texts(dev, texts)))
    if missing:
        raise ValueError(f"no text for items: {', '.join(missing[:10])}")

    item_ids, rows_of, y = _instance_rows(dataset)
    X_items = _item_matrix(item_ids, texts, config.hash_dim)
    if dev is None:
        X_sel, y_sel = X_items[rows_of], y
    else:
        X_sel, y_sel = _instances(dev, texts, config.hash_dim)
    active = np.unique(X_items.indices)
    Xc = sparse.csr_matrix(
        (X_items.data, np.searchsorted(active, X_items.indices), X_items.indptr),
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
        sel_loss, _, _ = loss_and_grad(weights, b, X_sel, y_sel)
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


def predict(model: Model, texts: Mapping[str, Sequence[str]]) -> dict[str, float]:
    """Predicted positive probability per item; pure function of the model."""
    item_ids = list(texts)
    if not item_ids:
        return {}
    X = _item_matrix(item_ids, texts, model.config.hash_dim)
    p = expit(X @ model.weights + model.bias)
    return {item_id: float(p[i]) for i, item_id in enumerate(item_ids)}


def proportion_oracle(dataset: Dataset) -> dict[str, float]:
    """Per item, the fraction of its records (replicas included) labeled 1.

    An analytic predictor: what a perfectly calibrated learner would
    output on the training items, independent of any model.
    """
    if not dataset.records:
        raise ValueError("dataset is empty")
    return {
        item_id: sum(r.label for r in recs) / len(recs)
        for item_id, recs in dataset.records_by_item().items()
    }


# ---------------------------------------------------------------------------
# model file format


def save_model(model: Model, path: Union[str, Path]) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "epochs": model.config.epochs,
        "learning_rate": model.config.learning_rate,
        "hash_dim": model.config.hash_dim,
        "batch_size": model.config.batch_size,
        "l2": model.config.l2,
        "seed": model.seed,
        "best_epoch": model.best_epoch,
        "history": list(model.history),
        "bias": model.bias,
        "weights": model.weights.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path: Union[str, Path]) -> Model:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} file")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {payload.get('version')}")
    config = TrainConfig(
        epochs=payload["epochs"],
        learning_rate=payload["learning_rate"],
        hash_dim=payload["hash_dim"],
        batch_size=payload["batch_size"],
        l2=payload["l2"],
    )
    return Model(
        weights=np.array(payload["weights"], dtype=np.float64),
        bias=float(payload["bias"]),
        config=config,
        seed=int(payload["seed"]),
        best_epoch=int(payload["best_epoch"]),
        history=tuple(payload["history"]),
    )

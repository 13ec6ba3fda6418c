"""Stand-in probabilistic text classifier.

A hashed bag-of-words logistic regression fit on per-annotation binary
cross-entropy: every annotation record is one training instance, so
replicated records enter the loss once per copy. That is the whole
mechanism by which replication-based reweighting reaches the model.

The loss depends on an item's records only through how many there are
and how many are labeled 1, so the fit runs on one row per item
weighted by those counts, and it is exact: the ridge-penalized mean
cross-entropy is minimized by L-BFGS (Liu & Nocedal 1989) at each
penalty of a short path from strong to weak, each fit warm-started from
the one before (Friedman, Hastie & Tibshirani 2010). The path point
with the best development-set loss wins.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Mapping, Sequence, Union, get_type_hints

import numpy as np
from scipy import sparse
from scipy.special import expit, log_expit

from .simulation import Dataset, reads_file, typed, typed_object

MODEL_FORMAT = "pairsim-hashed-logistic"
MODEL_VERSION = 2

# L-BFGS: correction pairs kept, the two stopping tests (largest gradient
# entry; loss drop relative to the loss, as L-BFGS-B's factr 1e7 times
# machine epsilon), and the iteration cap, which is an error to reach
_MEMORY = 10
_GRADIENT_TOL = 1e-5
_REDUCTION_TOL = 2.2e-9
_MAX_ITERATIONS = 500
# strong Wolfe line search: sufficient decrease, curvature, trial points
_C1 = 1e-4
_C2 = 0.9
_MAX_TRIALS = 40

STOP_GRADIENT = "gradient"
STOP_REDUCTION = "reduction"


@dataclass(frozen=True)
class TrainConfig:
    """``epochs`` path points, penalties ``l2 * 10 ** ((epochs - 1 - j) / 2)``
    for ``j = 0 .. epochs - 1``: the last is ``l2`` itself."""

    epochs: int = 3
    hash_dim: int = 2 ** 14
    # a positive ridge gives every fit one finite minimizer in the weights,
    # also on separable data
    l2: float = 1e-5

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.hash_dim < 2:
            raise ValueError(f"hash_dim must be at least 2, got {self.hash_dim}")
        if not (math.isfinite(self.l2) and self.l2 > 0):
            raise ValueError(f"l2 must be finite and above 0, got {self.l2}")

    def path(self) -> tuple[float, ...]:
        """The penalties of the path, largest first."""
        return tuple(self.l2 * 10 ** ((self.epochs - 1 - j) / 2) for j in range(self.epochs))


@dataclass(frozen=True)
class PathPoint:
    """One fit of the path: its penalty, its L-BFGS iterations and the
    test that stopped it, ``"gradient"`` or ``"reduction"``."""

    l2: float
    iterations: int
    stop: str

    def __post_init__(self) -> None:
        if self.stop not in (STOP_GRADIENT, STOP_REDUCTION):
            raise ValueError(
                f"stop must be {STOP_GRADIENT!r} or {STOP_REDUCTION!r}, got {self.stop!r}"
            )


@dataclass(frozen=True, eq=False)
class Model:
    """Trained classifier: hashed token weights, bias, and provenance.

    ``history`` holds the selection loss (dev loss when a dev dataset was
    given, training loss otherwise) of each path point fitted, ``path``
    how each was fitted; ``best_epoch`` is the 1-based path point whose
    weights were kept. ``seed`` is provenance only: training draws no
    randomness.
    """

    weights: np.ndarray
    bias: float
    config: TrainConfig
    seed: int
    best_epoch: int
    history: tuple[float, ...]
    path: tuple[PathPoint, ...]


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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product by numpy's pairwise sum: unlike a BLAS dot, its
    rounding does not depend on the CPU the kernel was picked for."""
    return float(np.multiply(a, b).sum())


def _cross_entropy(z: np.ndarray, positives: np.ndarray, totals: np.ndarray) -> float:
    """Mean binary cross-entropy of the records behind margins ``z``: row
    i stands for ``totals[i]`` records, ``positives[i]`` of them labeled 1."""
    # log(1 - sigmoid(z)) = log(sigmoid(z)) - z: one logarithm per row
    nll = totals * log_expit(z) - (totals - positives) * z
    return -float(nll.sum()) / float(totals.sum())


def loss_and_grad(
    theta: np.ndarray,
    X: sparse.csr_matrix,
    X_T: sparse.csc_matrix,
    positives: np.ndarray,
    totals: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray]:
    """Ridge-penalized mean cross-entropy and its analytic gradient.

    ``theta`` holds one weight per column of ``X`` and then the bias,
    which is not penalized; row i of ``X`` stands for ``totals[i]``
    annotation records of which ``positives[i]`` are labeled 1. The loss
    is the mean cross-entropy over those records plus
    ``l2 / 2 * |weights|^2``. Doubling every count leaves loss and
    gradient bit for bit the same. ``X_T`` is ``X.T``, passed in so that
    a fit builds that transposed view once, not on every call.
    """
    w = theta[:-1]
    z = X @ w + theta[-1]
    residual = (totals * expit(z) - positives) / float(totals.sum())
    grad = np.empty_like(theta)
    grad[:-1] = X_T @ residual + l2 * w
    grad[-1] = residual.sum()
    return _cross_entropy(z, positives, totals) + 0.5 * l2 * _dot(w, w), grad


def _zoom(fun, theta, d, f0, dg0, lo, t_hi, trials):
    """Bisect the bracket between ``lo``, a step ``(t, f, grad)`` with the
    lower loss, and step length ``t_hi`` down to a step meeting both Wolfe
    conditions (Nocedal & Wright, Algorithm 3.6). Falls back to ``lo``
    when the trials run out; ``None`` when no trial lowered the loss."""
    for _ in range(trials):
        t = 0.5 * (lo[0] + t_hi)
        f, g = fun(theta + t * d)
        dg = _dot(g, d)
        if not math.isfinite(f) or f > f0 + _C1 * t * dg0 or f >= lo[1]:
            t_hi = t
            continue
        if abs(dg) <= -_C2 * dg0:
            return t, f, g
        if dg * (t_hi - lo[0]) >= 0:
            t_hi = lo[0]
        lo = (t, f, g)
    return None if lo[0] == 0.0 else lo


def _line_search(fun, theta, f0, g0, d, t):
    """A step ``(t, f, grad)`` along the descent direction ``d`` that meets
    the strong Wolfe conditions (Nocedal & Wright, Algorithm 3.5), or
    ``None`` when no trial step lowered the loss."""
    dg0 = _dot(g0, d)
    prev = (0.0, f0, g0)
    for trial in range(_MAX_TRIALS):
        f, g = fun(theta + t * d)
        dg = _dot(g, d)
        if not math.isfinite(f) or f > f0 + _C1 * t * dg0 or (trial and f >= prev[1]):
            return _zoom(fun, theta, d, f0, dg0, prev, t, _MAX_TRIALS - trial)
        if abs(dg) <= -_C2 * dg0:
            return t, f, g
        if dg >= 0:
            return _zoom(fun, theta, d, f0, dg0, (t, f, g), prev[0], _MAX_TRIALS - trial)
        prev = (t, f, g)
        t *= 2.0
    return prev


def _lbfgs(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]], theta: np.ndarray, l2: float
) -> tuple[np.ndarray, int, str]:
    """Minimize ``fun`` (``theta`` to loss and gradient) from ``theta`` by
    L-BFGS; returns the minimizer, the iterations taken and the test that
    stopped them. ``l2`` names the fit in errors."""
    f, g = fun(theta)
    memory: deque = deque(maxlen=_MEMORY)  # (s, y, 1 / s.y, s.y / y.y), oldest first
    reduction = math.inf
    for iteration in range(_MAX_ITERATIONS + 1):
        if not (math.isfinite(f) and np.isfinite(g).all() and np.isfinite(theta).all()):
            raise ValueError(
                f"training at l2={l2!r} reached a non-finite loss, gradient or weight"
            )
        if np.abs(g).max() <= _GRADIENT_TOL:
            return theta, iteration, STOP_GRADIENT
        if reduction <= _REDUCTION_TOL:
            return theta, iteration, STOP_REDUCTION
        if iteration == _MAX_ITERATIONS:
            break
        found = None
        while found is None:
            d = -g
            if memory:
                # two-loop recursion: d = -H g for the implicit inverse Hessian H
                alphas = []
                for s, y, rho, _ in reversed(memory):
                    alphas.append(rho * _dot(s, d))
                    d -= alphas[-1] * y
                d *= memory[-1][3]
                for (s, y, rho, _), alpha in zip(memory, reversed(alphas)):
                    d += (alpha - rho * _dot(y, d)) * s
                step = 1.0
            else:
                step = 1.0 / math.sqrt(_dot(g, g))  # a step of unit length
            if _dot(g, d) < 0:
                found = _line_search(fun, theta, f, g, d, step)
            if found is None:
                if not memory:
                    # not even the gradient direction lowers the loss
                    return theta, iteration, STOP_REDUCTION
                memory.clear()  # retry along the gradient
        t, f_new, g_new = found
        s = t * d
        y = g_new - g
        sy = _dot(s, y)
        if sy > 0:
            memory.append((s, y, 1.0 / sy, sy / _dot(y, y)))
        theta = theta + s
        reduction = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        f, g = f_new, g_new
    raise ValueError(
        f"training at l2={l2!r} did not converge in {_MAX_ITERATIONS} L-BFGS iterations"
    )


def _instance_rows(dataset: Dataset) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Distinct item ids in first-seen order, then per annotation record
    the index of its item and its label."""
    codes, first, inverse = np.unique(dataset.item, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    item_ids = [dataset.item_ids[c] for c in codes[order].tolist()]
    return item_ids, rank[inverse], dataset.label.astype(np.float64)


def _item_counts(dataset: Dataset) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Distinct item ids in first-seen order, then per item the number of
    its records labeled 1 and the number of its records, replicas
    included (both float)."""
    item_ids, rows, y = _instance_rows(dataset)
    positives = np.bincount(rows, weights=y, minlength=len(item_ids))
    totals = np.bincount(rows, minlength=len(item_ids)).astype(np.float64)
    return item_ids, positives, totals


def train(
    dataset: Dataset,
    texts: Union[Features, Mapping[str, Sequence[str]]],
    config: TrainConfig = TrainConfig(),
    seed: int = 0,
    dev: Dataset | None = None,
) -> Model:
    """Fit the classifier on the per-annotation loss of ``dataset``.

    ``texts`` maps item_id to its token sequence, or is the
    :func:`featurize` result of such a mapping, and must cover every
    item in ``dataset`` (and ``dev``). The penalties of
    ``config.path()`` are fitted in turn, the first from the
    intercept-only fit and each later one from the last one's
    minimizer; the walk stops at the first point whose selection loss
    (dev loss with a dev dataset, training loss otherwise) rises, and
    the point with the lowest selection loss is kept. A fit that reaches
    a non-finite value or the iteration cap is an error. Deterministic
    given (dataset, texts, config); ``seed`` is recorded only.

    The fit runs over only the hash columns that some training text
    touches: every other coordinate has zero gradient and zero ridge
    pull, so its weight is exactly 0.
    """
    features = _features(texts, config.hash_dim)
    if not len(dataset):
        raise ValueError("training dataset is empty")
    item_ids, positives, totals = _item_counts(dataset)
    sel_items, sel_positives, sel_totals = (
        (item_ids, positives, totals) if dev is None else _item_counts(dev)
    )
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
    Xc_T = Xc.T

    # the path starts from the intercept-only fit, its limit at infinite penalty
    theta = np.zeros(len(active) + 1)
    positive, total = float(positives.sum()), float(totals.sum())
    if 0 < positive < total:
        theta[-1] = math.log(positive / (total - positive))
    fits: list[tuple[np.ndarray, float]] = []
    history: list[float] = []
    path: list[PathPoint] = []
    for l2 in config.path():
        theta, iterations, stop = _lbfgs(
            lambda point: loss_and_grad(point, Xc, Xc_T, positives, totals, l2), theta, l2
        )
        weights = np.zeros(config.hash_dim)
        weights[active] = theta[:-1]
        bias = float(theta[-1])
        loss = _cross_entropy(X_sel @ weights + bias, sel_positives, sel_totals)
        if not math.isfinite(loss):
            raise ValueError(f"training at l2={l2!r} gave a non-finite selection loss")
        fits.append((weights, bias))
        history.append(loss)
        path.append(PathPoint(l2, iterations, stop))
        if len(history) > 1 and loss > history[-2]:
            break
    best = history.index(min(history))  # the first of equal losses
    return Model(
        weights=fits[best][0],
        bias=fits[best][1],
        config=config,
        seed=seed,
        best_epoch=best + 1,
        history=tuple(history),
        path=tuple(path),
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
    item_ids, positives, totals = _item_counts(dataset)
    return dict(zip(item_ids, (positives / totals).tolist()))


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
        "path": [asdict(point) for point in model.path],
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
        if name == "path":
            if not isinstance(payload[name], list):
                raise ValueError(f"model.path must be a list, got {payload[name]!r}")
            return tuple(
                typed_object(p, PathPoint, f"model.path[{i}]")
                for i, p in enumerate(payload[name])
            )
        return typed(payload[name], types[name], f"model.{name}")

    return Model(
        weights=np.array(checked("weights"), dtype=np.float64),
        bias=checked("bias"),
        config=TrainConfig(**{f.name: checked(f.name) for f in fields(TrainConfig)}),
        seed=checked("seed"),
        best_epoch=checked("best_epoch"),
        history=checked("history"),
        path=checked("path"),
    )

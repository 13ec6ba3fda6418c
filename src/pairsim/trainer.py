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
from dataclasses import asdict, dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Sequence, Union

import numpy as np
from scipy import sparse
from scipy.special import expit, log_expit

from .simulation import Dataset, GoldTable, TextColumn, check_fields, reads_file
from .simulation import typed, typed_object

MODEL_FORMAT = "pairsim-hashed-logistic"
MODEL_VERSION = 3

# L-BFGS: correction pairs kept, the two stopping tests (largest gradient
# entry; loss drop relative to the loss, as L-BFGS-B's factr 1e7 times
# machine epsilon, taken only once the largest gradient entry is within
# ten times the gradient test), and the iteration cap, which is an error
# to reach
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


def _check_hash_dim(hash_dim: int) -> None:
    """Reject a hash column count that is not an integer of at least 2."""
    if typed(hash_dim, int, "hash_dim") < 2:
        raise ValueError(f"hash_dim must be at least 2, got {hash_dim}")


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
        check_fields(self)
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        _check_hash_dim(self.hash_dim)
        if not (math.isfinite(self.l2) and self.l2 > 0):
            raise ValueError(f"l2 must be finite and above 0, got {self.l2}")
        try:
            largest = self.path()[0]
        except OverflowError:
            largest = math.inf
        if not math.isfinite(largest):
            raise ValueError(
                f"epochs {self.epochs} and l2 {self.l2} put the path's largest penalty,"
                " l2 * 10 ** ((epochs - 1) / 2), beyond the float range"
            )

    def path(self) -> tuple[float, ...]:
        """The penalties of the path, largest first."""
        return tuple(self.l2 * 10 ** ((self.epochs - 1 - j) / 2) for j in range(self.epochs))


@dataclass(frozen=True)
class PathPoint:
    """One fit of the path: its selection loss (the dev loss when a dev
    dataset was given, the training loss otherwise), its L-BFGS
    iterations and the test that stopped it, ``"gradient"`` or
    ``"reduction"``. Point k's penalty is ``config.path()[k]``. The
    :class:`Model` holding a point checks its values, naming it."""

    loss: float
    iterations: int
    stop: str

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True, eq=False)
class Model:
    """Trained classifier: hashed token weights, bias, and provenance.

    ``path`` holds each path point fitted, in the order of
    ``config.path()``. ``seed`` is provenance only: training draws no
    randomness. A model, built or read, is checked here by the model
    file's rules, each error naming its field as a model file does;
    ``weights``, an array of real numbers, becomes a read-only float64
    copy."""

    weights: np.ndarray
    bias: float
    config: TrainConfig
    seed: int
    path: tuple[PathPoint, ...]

    def __post_init__(self) -> None:
        bias = typed(self.bias, float, "model.bias", from_json=False)
        typed(self.seed, int, "model.seed", from_json=False)
        weights, config, n = np.asarray(self.weights), self.config, len(self.path)
        if weights.dtype.kind not in "fiu":
            raise ValueError(f"model.weights must be numbers, got {weights.dtype}")
        weights = weights.astype(np.float64)
        if weights.shape != (config.hash_dim,):
            got = len(weights) if weights.ndim == 1 else f"shape {weights.shape}"
            raise ValueError(f"model.weights must be {config.hash_dim} long (hash_dim), got {got}")
        if not 0 < n <= config.epochs:
            raise ValueError(f"model.path must be 1 to {config.epochs} points (epochs), got {n}")
        # a diverged fit is not a model
        if not math.isfinite(bias):
            raise ValueError(f"model.bias must be finite, got {bias}")
        bad = np.flatnonzero(~np.isfinite(weights))
        if len(bad):
            raise ValueError(f"model.weights[{bad[0]}] must be finite, got {weights[bad[0]]}")
        for k, point in enumerate(self.path):
            if not math.isfinite(point.loss):
                raise ValueError(f"model.path[{k}].loss must be finite, got {point.loss}")
            if point.iterations < 0:
                raise ValueError(f"model.path[{k}].iterations must be >= 0, got {point.iterations}")
            if point.stop not in (STOP_GRADIENT, STOP_REDUCTION):
                stops = f"{STOP_GRADIENT!r} or {STOP_REDUCTION!r}"
                raise ValueError(f"model.path[{k}].stop must be {stops}, got {point.stop!r}")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)

    def __reduce__(self):
        # a copy or an unpickled model is rebuilt, so checked, by the constructor
        return type(self), (self.weights, self.bias, self.config, self.seed, self.path)

    @property
    def best_epoch(self) -> int:
        """The 1-based path point whose weights were kept: the first of
        lowest loss."""
        losses = [point.loss for point in self.path]
        return losses.index(min(losses)) + 1


def token_index(token: str, dim: int) -> int:
    """Stable hash of a token into [0, dim)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % dim


def _item_matrix(item_ids: Sequence[str], text: TextColumn, dim: int) -> sparse.csr_matrix:
    """One row per item of ``text``, whose ids are ``item_ids``: hashed
    token frequencies (counts / length).

    Each vocabulary entry that some item uses is hashed once per call;
    every row holds its columns in ascending order.
    """
    lengths = np.diff(text.offsets)
    if not lengths.all():
        raise ValueError(f"item {item_ids[int(np.argmin(lengths))]!r} has an empty text")
    used = np.flatnonzero(np.bincount(text.codes, minlength=len(text.vocab)))
    column = np.zeros(len(text.vocab), dtype=np.int64)
    column[used] = [token_index(text.vocab[k], dim) for k in used.tolist()]
    # one entry per token; summing a row's duplicates counts each column.
    # sum_duplicates rewrites indptr in place, so it gets a copy of the offsets
    matrix = sparse.csr_matrix(
        (np.ones(len(text.codes)), column[text.codes], text.offsets.copy()),
        shape=(len(lengths), dim),
    )
    matrix.sum_duplicates()
    matrix.data /= np.repeat(lengths, np.diff(matrix.indptr))
    return matrix


def _read_only(*matrices: sparse.spmatrix) -> None:
    """Make the arrays of each sparse matrix read-only."""
    for matrix in matrices:
        for array in (matrix.data, matrix.indices, matrix.indptr):
            array.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Features:
    """Hashed token frequencies of a set of items: row ``rows[item_id]``
    of ``matrix`` is that item's, with ``hash_dim`` columns. The mapping
    and the matrix's arrays are read-only."""

    rows: Mapping[str, int]
    matrix: sparse.csr_matrix

    def __post_init__(self) -> None:
        _read_only(self.matrix)
        object.__setattr__(self, "rows", MappingProxyType(dict(self.rows)))

    @property
    def hash_dim(self) -> int:
        return self.matrix.shape[1]

    def of(self, item_ids: Sequence[str]) -> sparse.csr_matrix:
        """The rows of ``item_ids``, in that order; ids without a row are
        an error naming them (sorted, the first 10)."""
        try:
            rows = np.fromiter(map(self.rows.__getitem__, item_ids), dtype=np.int64)
        except KeyError:
            missing = sorted(set(item_ids) - self.rows.keys())
            raise ValueError(f"no text for items: {', '.join(missing[:10])}") from None
        return self.matrix[rows]

    def select(self, item_ids: Sequence[str]) -> "Features":
        """The features of ``item_ids`` alone, in that order."""
        item_ids = list(item_ids)
        return Features({item_id: i for i, item_id in enumerate(item_ids)}, self.of(item_ids))


Texts = Union[GoldTable, Mapping[str, Sequence[str]]]


def featurize(texts: Union[Features, Texts], hash_dim: int) -> Features:
    """``texts`` as features with ``hash_dim`` columns (at least 2, as in a
    :class:`TrainConfig`), one row per item.

    Features are returned as they are, and features of another width are
    an error. A gold table or a mapping of item_id to token sequence is
    featurized in table or mapping order. A mapping's ids and texts are
    checked as a gold table's, its first faulty item an error naming it.
    An empty text is an error naming the item."""
    _check_hash_dim(hash_dim)
    if isinstance(texts, Features):
        if texts.hash_dim != hash_dim:
            raise ValueError(f"features have {texts.hash_dim} hash columns, expected {hash_dim}")
        return texts
    if not isinstance(texts, GoldTable):
        n = len(texts)  # a proportion and panel that pass
        texts = GoldTable(list(texts), list(texts.values()), [0.0] * n, [1] * n)
    rows = {item_id: i for i, item_id in enumerate(texts.item_id)}
    return Features(rows, _item_matrix(texts.item_id, texts.text, hash_dim))


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
    a :class:`Design` builds that transposed view once, not every call.
    """
    w = theta[:-1]
    z = X @ w + theta[-1]
    residual = (totals * expit(z) - positives) / float(totals.sum())
    grad = np.empty_like(theta)
    grad[:-1] = X_T @ residual + l2 * w
    grad[-1] = residual.sum()
    return _cross_entropy(z, positives, totals) + 0.5 * l2 * _dot(w, w), grad


def _line_search(fun, theta, f0, g0, d, t):
    """A step ``(t, f, grad)`` along the descent direction ``d`` that meets
    the strong Wolfe conditions, or ``None`` when no trial step lowered
    the loss: Nocedal & Wright's Algorithms 3.5 and 3.6 as one loop of at
    most ``_MAX_TRIALS`` trials. The step doubles from ``t`` until the
    bracket from ``lo`` (the accepted step of lowest loss) to ``hi`` holds
    a strong-Wolfe step, then bisects the bracket."""
    dg0 = _dot(g0, d)
    lo, hi = (0.0, f0, g0), math.inf
    for trial in range(_MAX_TRIALS):
        if hi < math.inf:
            t = 0.5 * (lo[0] + hi)
        f, g = fun(theta + t * d)
        dg = _dot(g, d)
        if not math.isfinite(f) or f > f0 + _C1 * t * dg0 or (trial and f >= lo[1]):
            hi = t
            continue
        if abs(dg) <= -_C2 * dg0:
            return t, f, g
        if dg * (hi - lo[0]) >= 0:
            hi = lo[0]
        lo = (t, f, g)
        t *= 2.0
    return None if lo[0] == 0.0 else lo


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
        largest = np.abs(g).max()
        if largest <= _GRADIENT_TOL:
            return theta, iteration, STOP_GRADIENT
        # a small loss drop far from a stationary point is a slow step, not a stop
        if reduction <= _REDUCTION_TOL and largest <= 10 * _GRADIENT_TOL:
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


def _item_counts(dataset: Dataset) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The ids of the items that have records, in item-table order, then
    per item the number of its records labeled 1 and the number of its
    records, replicas included (both float). Every dataset the package
    builds or reads codes its items in first-seen order."""
    n = len(dataset.item_ids)
    positives = np.bincount(dataset.item, weights=dataset.label, minlength=n)
    totals = np.bincount(dataset.item, minlength=n)
    kept = np.flatnonzero(totals)
    item_ids = [dataset.item_ids[i] for i in kept.tolist()]
    return item_ids, positives[kept], totals[kept].astype(np.float64)


@dataclass(frozen=True, eq=False)
class Design:
    """The matrices of a fit: ``X``, the training rows over the ``active``
    hash columns that some training text touches (every other weight is
    exactly 0: it has zero gradient and zero ridge pull), its transpose
    ``X_T``, and ``X_sel``, the rows that select the path point. Their
    arrays are read-only."""

    X: sparse.csr_matrix
    X_T: sparse.csc_matrix
    active: np.ndarray
    X_sel: sparse.csr_matrix

    def __post_init__(self) -> None:
        _read_only(self.X, self.X_T, self.X_sel)
        self.active.flags.writeable = False

    @classmethod
    def of(cls, X_items: sparse.csr_matrix, X_sel: sparse.csr_matrix | None = None) -> "Design":
        """The design of training rows ``X_items``, selecting on ``X_sel``
        or, by default, on the training rows."""
        n, hash_dim = X_items.shape
        active = np.flatnonzero(np.bincount(X_items.indices, minlength=hash_dim))
        column = np.zeros(hash_dim, dtype=X_items.indices.dtype)
        column[active] = np.arange(len(active))
        X = sparse.csr_matrix(
            (X_items.data, column[X_items.indices], X_items.indptr), shape=(n, len(active))
        )
        return cls(X, X.T, active, X_items if X_sel is None else X_sel)


def fit(design: Design, counts, config: TrainConfig, seed: int, sel=None) -> Model:
    """Fit the classifier over ``design``. With ``counts = (positives,
    totals)``, row i of ``design.X`` stands for ``totals[i]`` records,
    ``positives[i]`` of them labeled 1; ``sel`` counts the rows of
    ``design.X_sel`` and defaults to ``counts``.

    The penalties of ``config.path()`` are fitted in turn, the first
    from the intercept-only fit and each later one from the last one's
    minimizer; the walk stops at the first point whose selection loss
    rises. The model keeps the weights of the first point of lowest
    selection loss, and every point fitted. A fit that reaches a
    non-finite value or the iteration cap is an error. ``seed`` is
    recorded only.
    """
    positives, totals = counts
    sel_positives, sel_totals = counts if sel is None else sel
    X, X_T, active = design.X, design.X_T, design.active
    # the path starts from the intercept-only fit, its limit at infinite penalty
    theta = np.zeros(len(active) + 1)
    positive, total = float(positives.sum()), float(totals.sum())
    if 0 < positive < total:
        theta[-1] = math.log(positive / (total - positive))
    path: list[PathPoint] = []
    for l2 in config.path():
        theta, iterations, stop = _lbfgs(
            lambda point: loss_and_grad(point, X, X_T, positives, totals, l2), theta, l2
        )
        weights = np.zeros(config.hash_dim)
        weights[active] = theta[:-1]
        bias = float(theta[-1])
        loss = _cross_entropy(design.X_sel @ weights + bias, sel_positives, sel_totals)
        if not math.isfinite(loss):
            raise ValueError(f"training at l2={l2!r} gave a non-finite selection loss")
        path.append(PathPoint(loss, iterations, stop))
        if len(path) == 1 or loss < path[-2].loss:  # no earlier loss rose; ties keep the first
            kept = weights, bias
        elif loss > path[-2].loss:
            break
    return Model(weights=kept[0], bias=kept[1], config=config, seed=seed, path=tuple(path))


def train(
    dataset: Dataset,
    texts: Union[Features, Texts],
    config: TrainConfig = TrainConfig(),
    seed: int = 0,
    dev: Dataset | None = None,
) -> Model:
    """Fit the classifier on the per-annotation loss of ``dataset``: the
    :func:`fit` over one row per item with records, in item-table order.

    ``texts`` is a gold table, a mapping of item_id to token sequence,
    or the :func:`featurize` result of either, and must cover every
    item in ``dataset`` (and ``dev``): :meth:`Features.of` names the
    training items it lacks, then the dev items. The dev loss selects
    the path point, or the training loss without a dev dataset.
    """
    features = featurize(texts, config.hash_dim)
    if not len(dataset):
        raise ValueError("training dataset is empty")
    if dev is not None and not len(dev):
        raise ValueError("dev dataset is empty")
    item_ids, *counts = _item_counts(dataset)
    X_items = features.of(item_ids)
    if dev is None:
        return fit(Design.of(X_items), counts, config, seed)
    dev_ids, *dev_counts = _item_counts(dev)
    return fit(Design.of(X_items, features.of(dev_ids)), counts, config, seed, dev_counts)


def predict(model: Model, texts: Union[Features, Texts]) -> dict[str, float]:
    """Predicted positive probability per item of ``texts`` (a gold table,
    a mapping of item_id to tokens, or the features of either), in its
    order; pure function of the model."""
    features = featurize(texts, model.config.hash_dim)
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
    """The :class:`_ModelFile` fields as one JSON object, path points as
    objects of theirs: ``asdict`` of the file would copy every weight."""
    file = _ModelFile(
        MODEL_FORMAT, MODEL_VERSION, **asdict(model.config), seed=model.seed,
        path=model.path, bias=model.bias, weights=model.weights.tolist(),
    )
    # one-shot dumps runs json's C encoder; dump runs the pure-Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(vars(file), default=asdict) + "\n")


@dataclass(frozen=True)
class _ModelFile:
    """A model file's keys, in save_model's order. Every key is required:
    a default hash_dim would not match the weights."""

    format: str
    version: int
    epochs: int
    hash_dim: int
    l2: float
    seed: int
    path: tuple[PathPoint, ...]
    bias: float
    weights: tuple[float, ...]


@reads_file
def load_model(path: Union[str, Path]) -> Model:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {payload.get('version')}")
    file = typed_object(payload, _ModelFile, f"{path}: model")
    config = TrainConfig(epochs=file.epochs, hash_dim=file.hash_dim, l2=file.l2)
    return Model(file.weights, file.bias, config, file.seed, file.path)

"""Calibration and accuracy metrics, plus cross-seed aggregation."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .simulation import Dataset, GoldTable

if TYPE_CHECKING:  # experiments imports this module
    from .experiments import ResultRow

METRIC_FIELDS = ("acb", "f1", "positive_proportion")


@dataclass(frozen=True)
class AggregateReport:
    """Mean and population standard deviation per metric over seeds."""

    mean: dict[str, float]
    std: dict[str, float]
    seeds: tuple[int, ...]


def _in_table_order(preds: Mapping[str, float], gold: GoldTable) -> np.ndarray:
    """``preds``' values in ``gold``'s item order; both have the same items."""
    gold_ids = set(gold.item_id)
    if preds.keys() != gold_ids:
        only_pred = sorted(set(preds) - gold_ids)
        only_gold = sorted(gold_ids - set(preds))
        raise ValueError(
            "prediction/gold item mismatch: "
            f"{len(only_pred)} only in predictions {only_pred[:5]}, "
            f"{len(only_gold)} only in gold {only_gold[:5]}"
        )
    return np.array([preds[i] for i in gold.item_id], dtype=np.float64)


def acb(preds: Mapping[str, float], gold: GoldTable) -> float:
    """Mean absolute difference between predictions and gold proportions."""
    if not len(gold):
        raise ValueError("gold table is empty")
    # Python's sum, left to right: numpy's pairwise sum rounds differently
    return sum(np.abs(_in_table_order(preds, gold) - gold.p_gold).tolist()) / len(gold)


def f1(preds: Mapping[str, float], gold: GoldTable) -> float:
    """Binary F1 of predictions against the gold majority label.

    An item is predicted positive when its prediction is >= 0.5 and
    gold-positive when p_gold >= 0.5: ties count positive on both sides.
    When there are no positive predictions and no positive gold labels
    the score is reported as 0.0 with a warning.
    """
    pred_pos = _in_table_order(preds, gold) >= 0.5
    gold_pos = gold.p_gold >= 0.5
    denom = int(pred_pos.sum() + gold_pos.sum())  # 2 tp + fp + fn
    if denom == 0:
        warnings.warn(
            "no positive predictions and no positive gold labels; F1 reported as 0.0",
            stacklevel=2,
        )
        return 0.0
    return 2 * int((pred_pos & gold_pos).sum()) / denom


def positive_proportion(dataset: Dataset) -> float:
    """Fraction of annotation records (replicas included) labeled 1."""
    if not len(dataset):
        raise ValueError("dataset is empty")
    return float(dataset.label.mean())


def aggregate(runs: Sequence[ResultRow]) -> AggregateReport:
    """Per-metric mean and population standard deviation across runs,
    one cell result per seed."""
    if not runs:
        raise ValueError("need at least one run to aggregate")
    n_items = {r.n_items for r in runs}
    if len(n_items) > 1:
        raise ValueError(f"runs have mixed item counts {sorted(n_items)}; refusing to aggregate")
    seeds = tuple(r.seed for r in runs)
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"runs repeat a seed, got seeds {seeds}; refusing to aggregate")
    mean: dict[str, float] = {}
    std: dict[str, float] = {}
    for field in METRIC_FIELDS:
        values = [getattr(r, field) for r in runs]
        m = sum(values) / len(values)
        mean[field] = m
        std[field] = math.sqrt(sum((v - m) ** 2 for v in values) / len(values))
    return AggregateReport(mean=mean, std=std, seeds=seeds)

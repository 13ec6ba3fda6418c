"""Population-aligned instance replication (PAIR).

Rebalances an annotation pool toward a target population in three
steps: a post-stratification weight per stratum (population share over
pool share), normalization by a constant K, and deterministic
replication of each annotation round(weight * K) - 1 times.

The weight pipeline runs in exact rational arithmetic so that share
restoration and invariance to rescaling hold exactly rather than to
float tolerance. Floats appear only at the export boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from .simulation import Dataset, RECIPE_ADJUSTED, typed, typed_object

ShareLike = Union[int, float, str, Fraction]


def _to_fraction(value: ShareLike, where: str) -> Fraction:
    """``value`` as an exact fraction: a Fraction, a string such as "1/3",
    or a finite number by the rules of :func:`~pairsim.simulation.typed`
    (a bool is not a number). Errors name ``where``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"{where} must be a number or a fraction string like '1/3', got {value!r}"
            ) from None
    number = typed(value, float, where)
    if not math.isfinite(number):
        raise ValueError(f"{where} must be finite, got {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class PopulationBenchmark:
    """Target population share per stratum; shares must sum to one.

    Shares may be given as floats, ints, Fractions, or strings like
    "1/3" (exact, recommended for non-dyadic shares).
    """

    shares: Mapping[str, Fraction]

    def __post_init__(self) -> None:
        if not isinstance(self.shares, Mapping):
            raise ValueError(f"benchmark must map each stratum to its share, got {self.shares!r}")
        conv = {s: _to_fraction(v, f"benchmark.{s}") for s, v in self.shares.items()}
        object.__setattr__(self, "shares", conv)
        if not conv:
            raise ValueError("benchmark has no strata")
        for s, v in conv.items():
            if v <= 0:
                raise ValueError(f"benchmark share for stratum {s!r} must be positive")
        total = sum(conv.values())
        if abs(float(total) - 1.0) > 1e-9:
            raise ValueError(f"benchmark shares sum to {float(total)}, expected 1")


@dataclass(frozen=True)
class PoolShares:
    """Observed share of the annotation pool per stratum."""

    shares: Mapping[str, Fraction]

    def __post_init__(self) -> None:
        conv = {s: _to_fraction(v, f"pool share {s!r}") for s, v in self.shares.items()}
        object.__setattr__(self, "shares", conv)
        if not conv:
            raise ValueError("pool has no strata")
        for s, v in conv.items():
            if not 0 <= v <= 1:
                raise ValueError(f"pool share for stratum {s!r} outside [0, 1]")
        total = sum(conv.values())
        if abs(float(total) - 1.0) > 1e-9:
            raise ValueError(f"pool shares sum to {float(total)}, expected 1")


@dataclass(frozen=True)
class WeightTable:
    """Per-stratum weights, filled in stages.

    raw_weights gives ``raw``; normalize fills ``k`` and ``normalized``
    (one exact multiplication per stratum); replication_counts fills
    ``counts``. Values are exact rationals; use float() at the edges.
    """

    raw: Mapping[str, Fraction]
    k: Fraction | None = None
    normalized: Mapping[str, Fraction] | None = None
    counts: Mapping[str, int] | None = None


def pool_shares(dataset: Dataset) -> PoolShares:
    """Share of the pool per stratum, by annotation count."""
    if not len(dataset):
        raise ValueError("dataset is empty")
    counts = np.bincount(dataset.stratum, minlength=len(dataset.stratum_ids)).tolist()
    return PoolShares(
        {s: Fraction(c, len(dataset)) for s, c in sorted(zip(dataset.stratum_ids, counts)) if c}
    )


def raw_weights(benchmark: PopulationBenchmark, pool: PoolShares) -> WeightTable:
    """Post-stratification weight per stratum: population share / pool share.

    A benchmark stratum that was never annotated is a hard error:
    replication cannot invent annotations for it.
    """
    never_annotated = sorted(
        s for s in benchmark.shares if pool.shares.get(s, Fraction(0)) == 0
    )
    if never_annotated:
        raise ValueError(
            "benchmark strata absent from the annotation pool: "
            + ", ".join(repr(s) for s in never_annotated)
        )
    unknown = sorted(set(pool.shares) - set(benchmark.shares))
    if unknown:
        raise ValueError(
            "pool strata missing from the benchmark: "
            + ", ".join(repr(s) for s in unknown)
        )
    return WeightTable(raw={s: benchmark.shares[s] / pool.shares[s] for s in benchmark.shares})


def normalize(weights: WeightTable, k: ShareLike | None = None) -> WeightTable:
    """Scale raw weights by K.

    With ``k=None`` (the min_to_one policy) K is 1 / min(raw weights),
    so the smallest normalized weight is exactly 1 and replication
    counts stay non-negative. An explicit K > 0 supports targeting a
    chosen number of annotations per item instead.
    """
    if weights.normalized is not None:
        raise ValueError("weights are already normalized")
    if k is None:
        k_frac = 1 / min(weights.raw.values())
    else:
        k_frac = _to_fraction(k, "K")
        if k_frac <= 0:
            raise ValueError(f"K must be positive, got {float(k_frac)}")
    normalized = {s: w * k_frac for s, w in weights.raw.items()}
    return replace(weights, k=k_frac, normalized=normalized)


def _round_half_away(x: Fraction) -> int:
    if x >= 0:
        return math.floor(x + Fraction(1, 2))
    return math.ceil(x - Fraction(1, 2))


def replication_counts(weights: WeightTable) -> WeightTable:
    """Replicas per annotation: round(normalized weight) - 1.

    Rounding is half away from zero. A negative count (possible only
    with an explicit K below 1/min(raw)) is rejected rather than
    silently dropping annotations.
    """
    if weights.normalized is None:
        raise ValueError("normalize the weights before computing replication counts")
    counts = {s: _round_half_away(w) - 1 for s, w in weights.normalized.items()}
    negative = sorted(s for s, c in counts.items() if c < 0)
    if negative:
        raise ValueError(
            "replication count below zero for strata "
            + ", ".join(repr(s) for s in negative)
            + "; use the min_to_one policy (k=None) so every weight rounds to at least 1"
        )
    return replace(weights, counts=counts)


def apply_pair(
    dataset: Dataset,
    benchmark: PopulationBenchmark,
    k: ShareLike | None = None,
) -> tuple[Dataset, WeightTable]:
    """Rebalance a dataset toward the benchmark by replicating records.

    Every input record of stratum s appears 1 + counts[s] times in the
    output: the unchanged original followed immediately by its replicas
    (source="replica", replica_of set). Nothing is deleted and the
    output order is deterministic.
    """
    weights = replication_counts(normalize(raw_weights(benchmark, pool_shares(dataset)), k=k))
    assert weights.counts is not None
    # a table stratum without records has no count and no copies to make
    per_stratum = [1 + weights.counts.get(s, 0) for s in dataset.stratum_ids]
    copies = np.array(per_stratum, dtype=np.intp)[dataset.stratum]
    source = np.repeat(np.arange(len(dataset)), copies)  # input record of each output
    first = np.cumsum(copies) - copies  # output index of each input record
    replica_no = np.arange(len(source)) - first[source]  # 0 for the record itself
    # an input record keeps its provenance, pointed at its original's new
    # position; its replicas point at it
    moved = dataset.original[source]
    original = np.where(
        replica_no > 0, first[source], np.where(moved >= 0, first[moved], -1)
    )

    def make_ids() -> list[str]:
        ids = dataset.annotation_ids
        return [
            f"{ids[r]}#r{j}" if j else ids[r]
            for r, j in zip(source.tolist(), replica_no.tolist())
        ]

    adjusted = Dataset(
        replace(dataset.meta, recipe=RECIPE_ADJUSTED),
        dataset.item_ids,
        dataset.stratum_ids,
        dataset.item[source],
        dataset.stratum[source],
        dataset.label[source],
        original,
        make_ids,
    )
    return adjusted, weights


# ---------------------------------------------------------------------------
# file formats


def write_benchmark(benchmark: PopulationBenchmark, path: Union[str, Path]) -> None:
    payload = {s: str(v) for s, v in sorted(benchmark.shares.items())}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_benchmark(path: Union[str, Path]) -> PopulationBenchmark:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        return PopulationBenchmark(payload)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def write_weights(weights: WeightTable, path: Union[str, Path]) -> None:
    """Audit export: raw, K, normalized and counts per stratum.

    Floats for readability plus exact fraction strings for lossless
    round-trips.
    """
    strata = {}
    for s in sorted(weights.raw):
        entry: dict = {"raw": float(weights.raw[s]), "raw_exact": str(weights.raw[s])}
        if weights.normalized is not None:
            entry["normalized"] = float(weights.normalized[s])
            entry["normalized_exact"] = str(weights.normalized[s])
        if weights.counts is not None:
            entry["replication_count"] = weights.counts[s]
        strata[s] = entry
    payload: dict = {"strata": strata}
    if weights.k is not None:
        payload["k"] = float(weights.k)
        payload["k_exact"] = str(weights.k)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class _StratumWeights:
    """One stratum's entry of a weight file, as write_weights writes it."""

    raw: float
    raw_exact: str
    normalized: float | None = None
    normalized_exact: str | None = None
    replication_count: int | None = None


@dataclass(frozen=True)
class _WeightsFile:
    strata: dict
    k: float | None = None
    k_exact: str | None = None


def read_weights(path: Union[str, Path]) -> WeightTable:
    """A weight table from its write_weights file. Values are type-checked,
    never cast; a missing or ill-typed field is an error naming the file
    and the field. A stage (normalized, counts) is read when some stratum
    has it and must then be there for every stratum."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    where = f"{path}: weights"

    def strata(d) -> dict[str, _StratumWeights]:
        if not isinstance(d, dict):
            raise ValueError(f"{where}.strata must be a JSON object, got {d!r}")
        return {
            s: typed_object(e, _StratumWeights, f"{where}.strata.{s}") for s, e in d.items()
        }

    table = typed_object(payload, _WeightsFile, where, strata=strata)

    def stage(name: str, read) -> dict | None:
        values = {s: getattr(e, name) for s, e in table.strata.items()}
        if all(v is None for v in values.values()):
            return None
        missing = sorted(s for s, v in values.items() if v is None)
        if missing:
            raise ValueError(f"{where}.strata.{missing[0]}.{name} is missing")
        return {s: read(v, f"{where}.strata.{s}.{name}") for s, v in values.items()}

    raw = {
        s: _to_fraction(e.raw_exact, f"{where}.strata.{s}.raw_exact")
        for s, e in table.strata.items()
    }
    return WeightTable(
        raw=raw,
        k=None if table.k_exact is None else _to_fraction(table.k_exact, f"{where}.k_exact"),
        normalized=stage("normalized_exact", _to_fraction),
        counts=stage("replication_count", lambda v, _: v),
    )

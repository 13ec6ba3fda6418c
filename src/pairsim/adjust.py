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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .simulation import BiasSpec, Dataset, RECIPE_ADJUSTED, RECIPE_NONREP1, SuiteDraws
from .simulation import check_fields, pool_labels, reads_file, typed

# an int is widened to a float, exact below 2**53
ShareLike = Union[float, str, Fraction]


def _to_fraction(value: ShareLike, where: str) -> Fraction:
    """``value`` as an exact fraction: a string such as "1/3" that is not
    one, or a number that is not finite, is an error naming ``where``."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"{where} must be a number or a fraction string like '1/3', got {value!r}"
            ) from None
    if not isinstance(value, Fraction) and not math.isfinite(value):
        raise ValueError(f"{where} must be finite, got {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class PopulationBenchmark:
    """Target population share per stratum; shares must sum to one.

    Shares may be given as floats, ints, Fractions, or strings like
    "1/3" (exact, recommended for non-dyadic shares).
    """

    shares: Mapping[str, ShareLike]

    def __post_init__(self) -> None:
        check_fields(self)
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

    def __hash__(self) -> int:
        # the shares are a dict; hashing them makes a config a cache key
        return hash(frozenset(self.shares.items()))


@dataclass(frozen=True)
class WeightTable:
    """PAIR weights per stratum, complete when built.

    ``raw`` holds the post-stratification weights (population share over
    pool share). ``k`` is the normalizing constant: None applies the
    min_to_one policy, K = 1 / min(raw), so the smallest normalized
    weight is exactly 1 and no count is negative; an explicit K > 0
    targets a chosen number of annotations per item instead. The table
    then holds ``normalized`` = raw * K and ``counts``, the replicas per
    annotation: round(normalized) - 1, halves rounded away from zero.
    Values are exact rationals; use float() at the edges.
    """

    raw: Mapping[str, Fraction]
    k: ShareLike | None = None  # None for min_to_one; stored exact
    normalized: Mapping[str, Fraction] = field(init=False)
    counts: Mapping[str, int] = field(init=False)

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.raw or min(self.raw.values()) <= 0:
            raise ValueError("a weight table needs strata, each with a raw weight above 0")
        if self.k is None:
            k = 1 / min(self.raw.values())
        else:
            k = _to_fraction(self.k, "K")
            if k <= 0:
                raise ValueError(f"K must be positive, got {float(k)}")
        normalized = {s: w * k for s, w in self.raw.items()}
        # every normalized weight is above 0, so rounding half up is half away from zero
        counts = {s: math.floor(w + Fraction(1, 2)) - 1 for s, w in normalized.items()}
        negative = sorted(s for s, c in counts.items() if c < 0)
        if negative:
            raise ValueError(
                "replication count below zero for strata "
                + ", ".join(repr(s) for s in negative)
                + "; use the min_to_one policy (k=None) so every weight rounds to at least 1"
            )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "normalized", normalized)
        object.__setattr__(self, "counts", counts)


def _shares(strata: Sequence[str], counts: Sequence[int]) -> dict[str, Fraction]:
    """The share of each stratum with records, ``counts[k]`` of them of ``strata[k]``."""
    total = sum(counts)
    return {s: Fraction(c, total) for s, c in sorted(zip(strata, counts)) if c}


def pool_shares(dataset: Dataset) -> dict[str, Fraction]:
    """Share of the pool per stratum, by annotation count."""
    if not len(dataset):
        raise ValueError("dataset is empty")
    counts = np.bincount(dataset.stratum, minlength=len(dataset.stratum_ids)).tolist()
    return _shares(dataset.stratum_ids, counts)


def pair_weights(
    benchmark: PopulationBenchmark, pool: Mapping[str, Fraction], k: ShareLike | None = None
) -> WeightTable:
    """The weight table of a pool: population share / pool share per
    stratum, normalized by ``k`` (see :class:`WeightTable`).

    A benchmark stratum that was never annotated is a hard error:
    replication cannot invent annotations for it.
    """
    never_annotated = sorted(s for s in benchmark.shares if pool.get(s, 0) == 0)
    if never_annotated:
        raise ValueError(
            "benchmark strata absent from the annotation pool: "
            + ", ".join(repr(s) for s in never_annotated)
        )
    unknown = sorted(set(pool) - set(benchmark.shares))
    if unknown:
        raise ValueError(
            "pool strata missing from the benchmark: "
            + ", ".join(repr(s) for s in unknown)
        )
    return WeightTable({s: benchmark.shares[s] / pool[s] for s in benchmark.shares}, k)


def _copies(weights: WeightTable, strata: Sequence[str]) -> np.ndarray:
    """PAIR's copies of a record of each of ``strata``: itself and its replicas."""
    # a table stratum without records has no count and no copies to make
    return np.array([1 + weights.counts.get(s, 0) for s in strata], dtype=np.intp)


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
    weights = pair_weights(benchmark, pool_shares(dataset), k)
    copies = _copies(weights, dataset.stratum_ids)[dataset.stratum]
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


def recipe_counts(
    draws: SuiteDraws, beta: float, recipe: str, benchmark: PopulationBenchmark
) -> tuple[np.ndarray, np.ndarray]:
    """Per item of ``draws``, the records of ``recipe`` at ``beta`` labelled
    1 and all of them, replicas included, as float sums of integers below
    2**53: bit for bit those of the recipe's dataset from
    :func:`~pairsim.simulation.build_suite`, or for adjusted of
    :func:`apply_pair` of nonrep1 at the default K, but with no dataset
    built. A slot of adjusted counts as its record's copies."""
    if recipe not in (*draws.rows, RECIPE_ADJUSTED):
        raise ValueError(f"unknown recipe {recipe!r}")
    pool = draws.pool
    rows = draws.rows[RECIPE_NONREP1 if recipe == RECIPE_ADJUSTED else recipe]
    n, per_item = pool.u.shape
    item, slot = np.divmod(rows, per_item)
    weight = np.ones(len(rows))
    if recipe == RECIPE_ADJUSTED:
        stratum = np.repeat(np.arange(len(pool.strata)), pool.counts)[slot]
        kept = np.bincount(stratum, minlength=len(pool.strata)).tolist()
        table = pair_weights(benchmark, _shares(pool.strata, kept))
        weight = _copies(table, pool.strata)[stratum].astype(np.float64)
    label = pool_labels(pool, BiasSpec.two_type(beta)).ravel()[rows]
    return (
        np.bincount(item, weights=weight * label, minlength=n),
        np.bincount(item, weights=weight, minlength=n),
    )


# ---------------------------------------------------------------------------
# file formats


def benchmark_from_json(d, where: str) -> PopulationBenchmark:
    """The benchmark of a JSON object of shares; errors name ``where``."""
    return PopulationBenchmark(typed(d, Mapping[str, ShareLike], where))


@reads_file
def read_benchmark(path: Union[str, Path]) -> PopulationBenchmark:
    with open(path, encoding="utf-8") as fh:
        return benchmark_from_json(json.load(fh), "benchmark")


def write_weights(weights: WeightTable, path: Union[str, Path]) -> None:
    """Audit export: raw, K, normalized and counts per stratum, as
    floats for readability and as exact fraction strings."""
    strata = {
        s: {
            "raw": float(weights.raw[s]),
            "raw_exact": str(weights.raw[s]),
            "normalized": float(weights.normalized[s]),
            "normalized_exact": str(weights.normalized[s]),
            "replication_count": weights.counts[s],
        }
        for s in sorted(weights.raw)
    }
    payload = {"strata": strata, "k": float(weights.k), "k_exact": str(weights.k)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


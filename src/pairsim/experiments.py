"""Experiment harness: config, item splits, per-cell runs, and sweeps.

A cell is one (recipe, beta, seed) combination: build the suite, adjust
when the recipe asks for it, train the stand-in classifier on the train
split with dev-based epoch selection, and score calibration/accuracy on
the test split against the unbiased gold proportions. Cells are pure
functions of (config, beta, seed, recipe), so any subset can be re-run
in isolation and sweeps are reproducible byte for byte.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence, Union

from . import metrics
from .adjust import PopulationBenchmark, apply_pair
from .rng import stream
from .simulation import (
    GoldShape,
    GoldTable,
    RawItem,
    Rare,
    RECIPE_ADJUSTED,
    RECIPE_NONREP1,
    RECIPE_NONREP2,
    RECIPE_REPRESENTATIVE,
    RECIPES,
    Suite,
    Uniform,
    build_suite,
    concat_gold,
    filter_difficult,
    synth_gold,
    synth_text,
)
from .trainer import TrainConfig, predict, train

PAPER_BETAS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
PAPER_SEEDS = (10, 42, 512, 1010, 3344)

REPORT_NAME = "report.csv"
TIMINGS_NAME = "timings.csv"
FAILURES_NAME = "failures.csv"

REPORT_COLUMNS = (
    "row_type",
    "task",
    "recipe",
    "beta",
    "seed",
    "n_items",
    "acb",
    "f1",
    "positive_proportion",
    "n_seeds",
    "acb_std",
    "f1_std",
    "positive_proportion_std",
)


@dataclass(frozen=True)
class SyntheticGold:
    """Recipe for a synthetic gold table: concatenated shape components,
    then signal-bearing texts."""

    components: tuple[tuple[GoldShape, int], ...]
    vocab_size: int = 2000
    tokens_per_item: int = 60
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("need at least one gold component")

    @property
    def n_items(self) -> int:
        return sum(n for _, n in self.components)


@dataclass(frozen=True)
class ExperimentConfig:
    gold: Union[SyntheticGold, str]
    task: str = "OL"
    betas: tuple[float, ...] = PAPER_BETAS
    seeds: tuple[int, ...] = PAPER_SEEDS
    split: tuple[int, int, int] = (2000, 500, 500)
    recipes: tuple[str, ...] = RECIPES
    benchmark: PopulationBenchmark = field(
        default_factory=lambda: PopulationBenchmark({"A": 0.5, "B": 0.5})
    )
    train: TrainConfig = TrainConfig()
    difficult: bool = False
    difficult_lo: float = 0.4
    difficult_hi: float = 0.6

    def __post_init__(self) -> None:
        if self.task not in ("OL", "HS"):
            raise ValueError(f"task must be 'OL' or 'HS', got {self.task!r}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        for b in self.betas:
            if not 0.0 <= b <= 0.5:
                raise ValueError(f"beta {b} outside [0, 0.5]")
        unknown = sorted(set(self.recipes) - set(RECIPES))
        if unknown:
            raise ValueError(f"unknown recipes: {', '.join(unknown)}")
        if not self.recipes:
            raise ValueError("need at least one recipe")
        if len(self.split) != 3 or any(c < 0 for c in self.split):
            raise ValueError(f"split must be three non-negative counts, got {self.split}")


@dataclass(frozen=True)
class ResultRow:
    """Metrics of one completed cell."""

    task: str
    recipe: str
    beta: float
    seed: int
    acb: float
    f1: float
    positive_proportion: float
    n_items: int
    wall_time: float


@dataclass(frozen=True)
class CellFailure:
    task: str
    recipe: str
    beta: float
    seed: int
    error: str


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[ResultRow, ...]
    aggregates: dict[tuple[str, str, float], metrics.AggregateReport]
    failures: tuple[CellFailure, ...]


class CellError(RuntimeError):
    """A cell failed; the message carries the (recipe, beta, seed) context."""


# ---------------------------------------------------------------------------
# gold sources


@dataclass(frozen=True)
class IngestResult:
    gold: GoldTable
    raw: tuple[RawItem, ...]
    skipped: int


def ingest_external(
    path: Union[str, Path],
    task: str = "OL",
    subsample: int | None = 12,
    seed: int = 0,
) -> IngestResult:
    """Load a user-supplied annotation file (line-delimited JSON).

    Each row needs "item_id", "text", and per-task label lists under
    "ol" / "hs". Malformed rows (bad JSON, missing fields, empty or
    whitespace-only text, non-binary labels, duplicate ids, or too few
    labels to subsample) are skipped and counted. Gold proportions come
    from a seeded without-replacement subsample of ``subsample`` labels
    per item.
    """
    key = task.lower()
    raw: list[RawItem] = []
    seen: set[str] = set()
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                item_id = row["item_id"]
                text = row["text"]
                labels = row[key]
                if (
                    not isinstance(item_id, str)
                    or item_id in seen
                    or not isinstance(labels, list)
                    or not labels
                    or any(l not in (0, 1) for l in labels)
                    or (subsample is not None and len(labels) < subsample)
                ):
                    raise ValueError("malformed row")
                tokens = tuple(text.split()) if isinstance(text, str) else tuple(text)
                if not any(tok.strip() for tok in tokens):
                    raise ValueError("empty text")
            except (ValueError, KeyError, TypeError, AttributeError):
                skipped += 1
                continue
            seen.add(item_id)
            raw.append(RawItem(item_id, tokens, tuple(labels)))
    if not raw:
        raise ValueError(f"{path}: no valid annotation rows")
    from .simulation import derive_gold

    gold = derive_gold(raw, subsample=subsample, seed=seed)
    return IngestResult(gold, tuple(raw), skipped)


@lru_cache(maxsize=4)
def _gold_cached(
    source: Union[SyntheticGold, str],
    task: str,
    difficult: bool,
    lo: float,
    hi: float,
) -> GoldTable:
    if isinstance(source, str):
        gold = ingest_external(source, task=task).gold
    else:
        parts = [
            synth_gold(n, shape, source.seed, id_prefix=f"g{ci}-")
            for ci, (shape, n) in enumerate(source.components)
        ]
        gold = concat_gold(parts)
        gold = synth_text(gold, source.vocab_size, source.tokens_per_item, source.seed)
    if difficult:
        gold = filter_difficult(gold, lo, hi)
    return gold


def load_gold(config: ExperimentConfig) -> GoldTable:
    """The experiment's gold table (synthetic or ingested), difficult-filtered
    when the config asks for it. Cached: pure function of its inputs."""
    return _gold_cached(
        config.gold, config.task, config.difficult, config.difficult_lo, config.difficult_hi
    )


@lru_cache(maxsize=3)
def _suite_cached(gold: GoldTable, beta: float, seed: int, task: str) -> Suite:
    return build_suite(gold, beta, seed, task)


# ---------------------------------------------------------------------------
# splits


def split_items(
    gold: GoldTable, counts: Sequence[int], seed: int
) -> tuple[GoldTable, GoldTable, GoldTable]:
    """Disjoint train/dev/test partition at the item level, uniform given seed.

    Entries keep their original table order within each part.
    """
    if len(counts) != 3:
        raise ValueError(f"expected three split counts, got {len(counts)}")
    if sum(counts) != len(gold):
        raise ValueError(
            f"split counts {tuple(counts)} sum to {sum(counts)}, "
            f"but the gold table has {len(gold)} items"
        )
    perm = stream(seed, "item-split").permutation(len(gold))
    train_idx = set(perm[: counts[0]].tolist())
    dev_idx = set(perm[counts[0] : counts[0] + counts[1]].tolist())
    parts: tuple[list, list, list] = ([], [], [])
    for i, entry in enumerate(gold.entries):
        if i in train_idx:
            parts[0].append(entry)
        elif i in dev_idx:
            parts[1].append(entry)
        else:
            parts[2].append(entry)
    return GoldTable(tuple(parts[0])), GoldTable(tuple(parts[1])), GoldTable(tuple(parts[2]))


def scaled_split(n_items: int, base: Sequence[int]) -> tuple[int, int, int]:
    """Rescale base split counts to a smaller table, largest remainder first."""
    base_total = sum(base)
    if base_total <= 0:
        raise ValueError("base split is empty")
    raw = [b * n_items / base_total for b in base]
    counts = [int(r) for r in raw]
    order = sorted(range(len(base)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[: n_items - sum(counts)]:
        counts[i] += 1
    return counts[0], counts[1], counts[2]


def _split_counts(config: ExperimentConfig, n_items: int) -> tuple[int, int, int]:
    if config.difficult:
        return scaled_split(n_items, config.split)
    return config.split


# ---------------------------------------------------------------------------
# cells and sweeps


def _recipe_dataset(suite: Suite, recipe: str, benchmark: PopulationBenchmark):
    if recipe == RECIPE_REPRESENTATIVE:
        return suite.representative
    if recipe == RECIPE_NONREP1:
        return suite.nonrep1
    if recipe == RECIPE_NONREP2:
        return suite.nonrep2
    if recipe == RECIPE_ADJUSTED:
        adjusted, _ = apply_pair(suite.nonrep1, benchmark)
        return adjusted
    raise ValueError(f"unknown recipe {recipe!r}")


def run_cell(config: ExperimentConfig, beta: float, seed: int, recipe: str) -> ResultRow:
    """Run one cell end to end. Deterministic given (config, beta, seed, recipe)."""
    start = time.perf_counter()
    try:
        gold = load_gold(config)
        counts = _split_counts(config, len(gold))
        if counts[2] < 1:
            raise ValueError(f"test split is empty for counts {counts}")
        train_gold, dev_gold, test_gold = split_items(gold, counts, seed)
        suite = _suite_cached(gold, beta, seed, config.task)
        dataset = _recipe_dataset(suite, recipe, config.benchmark)
        texts = gold.texts()
        train_ds = dataset.restrict(train_gold.item_ids())
        dev_ds = dataset.restrict(dev_gold.item_ids()) if len(dev_gold) else None
        model = train(train_ds, texts, config.train, seed, dev=dev_ds)
        preds = predict(model, {e.item_id: e.text for e in test_gold})
        return ResultRow(
            task=config.task,
            recipe=recipe,
            beta=beta,
            seed=seed,
            acb=metrics.acb(preds, test_gold),
            f1=metrics.f1(preds, test_gold),
            positive_proportion=metrics.positive_proportion(train_ds),
            n_items=len(test_gold),
            wall_time=time.perf_counter() - start,
        )
    except CellError:
        raise
    except Exception as err:
        raise CellError(
            f"cell task={config.task} recipe={recipe} beta={beta} seed={seed}: {err}"
        ) from err


def _cell_outcome(args: tuple) -> tuple[ResultRow | None, CellFailure | None]:
    config, recipe, beta, seed = args
    try:
        return run_cell(config, beta, seed, recipe), None
    except CellError as err:
        return None, CellFailure(config.task, recipe, beta, seed, str(err))


def aggregate_rows(
    rows: Iterable[ResultRow],
) -> dict[tuple[str, str, float], metrics.AggregateReport]:
    """Cross-seed aggregation per (task, recipe, beta)."""
    grouped: dict[tuple[str, str, float], list[ResultRow]] = {}
    for row in rows:
        grouped.setdefault((row.task, row.recipe, row.beta), []).append(row)
    out = {}
    for key in sorted(grouped):
        runs = [
            metrics.MetricsReport(r.acb, r.f1, r.positive_proportion, r.n_items, r.seed)
            for r in sorted(grouped[key], key=lambda r: r.seed)
        ]
        out[key] = metrics.aggregate(runs)
    return out


def sweep(
    config: ExperimentConfig,
    output_dir: Union[str, Path, None] = None,
    workers: int = 1,
) -> SweepResult:
    """Run the full recipes x betas x seeds grid.

    Failures are isolated per cell: the sweep continues, failed cells
    are enumerated, and the report holds one row per completed cell plus
    cross-seed aggregate rows.
    """
    cells = [
        (config, recipe, beta, seed)
        for recipe in config.recipes
        for beta in config.betas
        for seed in config.seeds
    ]
    if workers <= 1:
        outcomes = [_cell_outcome(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_cell_outcome, cells))
    rows = sorted(
        (row for row, _ in outcomes if row is not None),
        key=lambda r: (r.task, r.recipe, r.beta, r.seed),
    )
    failures = sorted(
        (f for _, f in outcomes if f is not None),
        key=lambda f: (f.task, f.recipe, f.beta, f.seed),
    )
    aggregates = aggregate_rows(rows)
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report(rows, aggregates, out / REPORT_NAME)
        _write_timings(rows, out / TIMINGS_NAME)
        if failures:
            _write_failures(failures, out / FAILURES_NAME)
    return SweepResult(tuple(rows), aggregates, tuple(failures))


# ---------------------------------------------------------------------------
# report files


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(
    rows: Iterable[ResultRow],
    aggregates: dict[tuple[str, str, float], metrics.AggregateReport],
    path: Union[str, Path],
) -> None:
    """Deterministic flat table: cell rows, then cross-seed mean rows.

    Wall times are deliberately not part of the report (they vary run to
    run); see the timings file next to it.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    "cell",
                    r.task,
                    r.recipe,
                    _fmt(r.beta),
                    r.seed,
                    r.n_items,
                    _fmt(r.acb),
                    _fmt(r.f1),
                    _fmt(r.positive_proportion),
                    "",
                    "",
                    "",
                    "",
                ]
            )
        for (task, recipe, beta), agg in sorted(aggregates.items()):
            writer.writerow(
                [
                    "mean",
                    task,
                    recipe,
                    _fmt(beta),
                    "",
                    "",
                    _fmt(agg.mean["acb"]),
                    _fmt(agg.mean["f1"]),
                    _fmt(agg.mean["positive_proportion"]),
                    len(agg.seeds),
                    _fmt(agg.std["acb"]),
                    _fmt(agg.std["f1"]),
                    _fmt(agg.std["positive_proportion"]),
                ]
            )


def read_report_cells(path: Union[str, Path]) -> tuple[ResultRow, ...]:
    """Cell rows back from a report file (wall times are not stored)."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            if rec["row_type"] != "cell":
                continue
            rows.append(
                ResultRow(
                    task=rec["task"],
                    recipe=rec["recipe"],
                    beta=float(rec["beta"]),
                    seed=int(rec["seed"]),
                    acb=float(rec["acb"]),
                    f1=float(rec["f1"]),
                    positive_proportion=float(rec["positive_proportion"]),
                    n_items=int(rec["n_items"]),
                    wall_time=0.0,
                )
            )
    return tuple(rows)


def _write_timings(rows: Iterable[ResultRow], path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["task", "recipe", "beta", "seed", "wall_time"])
        for r in rows:
            writer.writerow([r.task, r.recipe, _fmt(r.beta), r.seed, _fmt(r.wall_time)])


def _write_failures(failures: Iterable[CellFailure], path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["task", "recipe", "beta", "seed", "error"])
        for f in failures:
            writer.writerow([f.task, f.recipe, _fmt(f.beta), f.seed, f.error])


# ---------------------------------------------------------------------------
# config files


def _shape_to_dict(shape: GoldShape) -> dict:
    if isinstance(shape, Uniform):
        return {"shape": "uniform", "low": shape.low, "high": shape.high}
    if isinstance(shape, Rare):
        return {"shape": "rare", "mean": shape.mean}
    raise TypeError(f"unknown shape {type(shape).__name__}")


def _check_keys(d: dict, allowed: Iterable[str], where: str) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}")


def _cast_fields(d: dict, cls: type, where: str) -> dict:
    """Keyword arguments for dataclass ``cls`` from the keys given in ``d``,
    each cast to its field's default type; absent keys keep the
    dataclass default, so defaults are stated once."""
    types = {f.name: type(f.default) for f in fields(cls) if f.default is not MISSING}
    _check_keys(d, types, where)
    return {key: types[key](value) for key, value in d.items()}


_SHAPE_KEYS = {"uniform": ("low", "high"), "rare": ("mean",)}


def _shape_from_dict(d: dict, where: str) -> GoldShape:
    kind = d.get("shape") if isinstance(d, dict) else None
    if kind not in _SHAPE_KEYS:
        raise ValueError(f"unknown gold shape {kind!r} in {where}")
    _check_keys(d, ("shape", "n", *_SHAPE_KEYS[kind]), where)
    if kind == "uniform":
        return Uniform(float(d["low"]), float(d["high"]))
    return Rare(float(d["mean"]))


def config_to_dict(config: ExperimentConfig) -> dict:
    if isinstance(config.gold, str):
        gold: dict = {"file": config.gold}
    else:
        gold = {
            "synthetic": {
                "components": [
                    {**_shape_to_dict(shape), "n": n} for shape, n in config.gold.components
                ],
                "vocab_size": config.gold.vocab_size,
                "tokens_per_item": config.gold.tokens_per_item,
                "seed": config.gold.seed,
            }
        }
    return {
        "task": config.task,
        "betas": list(config.betas),
        "seeds": list(config.seeds),
        "split": list(config.split),
        "recipes": list(config.recipes),
        "benchmark": {s: str(v) for s, v in sorted(config.benchmark.shares.items())},
        "gold": gold,
        "train": {
            "epochs": config.train.epochs,
            "learning_rate": config.train.learning_rate,
            "hash_dim": config.train.hash_dim,
            "batch_size": config.train.batch_size,
            "l2": config.train.l2,
        },
        "difficult": config.difficult,
        "difficult_lo": config.difficult_lo,
        "difficult_hi": config.difficult_hi,
    }


_TOP_LEVEL = {
    "task": str,
    "betas": lambda v: tuple(float(b) for b in v),
    "seeds": lambda v: tuple(int(s) for s in v),
    "split": lambda v: tuple(int(c) for c in v),
    "recipes": tuple,
    "benchmark": PopulationBenchmark,
    "difficult": bool,
    "difficult_lo": float,
    "difficult_hi": float,
}


def config_from_dict(d: dict) -> ExperimentConfig:
    """Config from its JSON form. Unknown keys at any level are errors;
    absent keys take the dataclass defaults."""
    _check_keys(d, (*_TOP_LEVEL, "gold", "train"), "config")
    if "gold" not in d:
        raise ValueError("config needs a 'gold' entry")
    gold_spec = d["gold"]
    _check_keys(gold_spec, ("file", "synthetic"), "gold")
    if len(gold_spec) != 1:
        raise ValueError("gold needs exactly one of 'file' or 'synthetic'")
    gold: Union[SyntheticGold, str]
    if "file" in gold_spec:
        gold = gold_spec["file"]
    else:
        synth = dict(gold_spec["synthetic"])
        components = tuple(
            (_shape_from_dict(c, f"gold.synthetic.components[{i}]"), int(c["n"]))
            for i, c in enumerate(synth.pop("components", ()))
        )
        gold = SyntheticGold(components, **_cast_fields(synth, SyntheticGold, "gold.synthetic"))
    kwargs = {key: cast(d[key]) for key, cast in _TOP_LEVEL.items() if key in d}
    if "train" in d:
        kwargs["train"] = TrainConfig(**_cast_fields(d["train"], TrainConfig, "train"))
    return ExperimentConfig(gold=gold, **kwargs)


def load_config(path: Union[str, Path]) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def save_config(config: ExperimentConfig, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2)
        fh.write("\n")

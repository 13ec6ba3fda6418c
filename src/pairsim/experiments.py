"""Experiment harness: config, item splits, per-cell runs, and sweeps.

A cell is one (recipe, beta, seed) combination: build the suite, adjust
when the recipe asks for it, train the stand-in classifier on the train
split with the dev split picking its l2, and score calibration/accuracy on
the test split against the unbiased gold proportions. Cells are pure
functions of (config, beta, seed, recipe), so any subset can be re-run
in isolation and sweeps are reproducible byte for byte.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence, Union, get_type_hints

import numpy as np

from . import metrics
from .adjust import PopulationBenchmark, apply_pair
from .rng import check_key_int, stream
from .simulation import (
    GoldShape,
    GoldTable,
    Rare,
    RECIPE_ADJUSTED,
    RECIPES,
    Suite,
    Uniform,
    annotation_row,
    build_suite,
    derive_gold,
    filter_difficult,
    reads_file,
    synth_gold,
    synth_text,
    typed,
    typed_object,
)
from .trainer import Features, TrainConfig, featurize, predict, train

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
TIMINGS_COLUMNS = ("task", "recipe", "beta", "seed", "wall_time")


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
        check_key_int(self.seed, "gold seed")

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
        if not self.betas:
            raise ValueError("need at least one beta")
        if not self.seeds:
            raise ValueError("need at least one seed")
        for b in self.betas:
            if not 0.0 <= b <= 0.5:
                raise ValueError(f"beta {b} outside [0, 0.5]")
        for s in self.seeds:
            check_key_int(s, "seed")
        unknown = sorted(set(self.recipes) - set(RECIPES))
        if unknown:
            raise ValueError(f"unknown recipes: {', '.join(unknown)}")
        if not self.recipes:
            raise ValueError("need at least one recipe")
        for name in ("betas", "seeds", "recipes"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value, got {values}")
        if len(self.split) != 3 or any(c < 0 for c in self.split):
            raise ValueError(f"split must be three non-negative counts, got {self.split}")
        if self.split[0] < 1:
            raise ValueError(f"split[0] (train items) must be at least 1, got {self.split[0]}")
        if self.split[2] < 1:
            raise ValueError(f"split[2] (test items) must be at least 1, got {self.split[2]}")
        if not 0.0 <= self.difficult_lo <= self.difficult_hi <= 1.0:
            raise ValueError(
                "difficult_lo and difficult_hi must satisfy 0 <= difficult_lo <= difficult_hi"
                f" <= 1, got {self.difficult_lo} and {self.difficult_hi}"
            )
        # file gold and difficult filtering fix the item count only when run
        if isinstance(self.gold, SyntheticGold) and not self.difficult:
            if sum(self.split) != self.gold.n_items:
                raise ValueError(
                    f"split {self.split} sums to {sum(self.split)}, "
                    f"but the synthetic gold has {self.gold.n_items} items"
                )


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
    whitespace-only text, duplicate ids, or labels that
    :func:`annotation_row` rejects) are skipped and counted. Gold
    proportions come from a seeded without-replacement subsample of
    ``subsample`` labels per item.
    """
    key = task.lower()
    rows: list[tuple] = []
    seen: set[str] = set()
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                item_id, tokens, labels = annotation_row(
                    row["item_id"], row["text"], row[key], subsample
                )
                if (
                    not isinstance(item_id, str)
                    or item_id in seen
                    or not isinstance(row[key], list)
                    or not any(tok.strip() for tok in tokens)
                ):
                    raise ValueError("malformed row")
            except (ValueError, KeyError, TypeError, AttributeError):
                skipped += 1
                continue
            seen.add(item_id)
            rows.append((item_id, tokens, labels))
    if not rows:
        raise ValueError(f"{path}: no valid annotation rows")
    return IngestResult(derive_gold(rows, subsample=subsample, seed=seed), skipped)


# A process keeps the gold tables of its last few configs. The caches key
# on the config, not on the table: hashing a table walks every entry and
# its tokens on each lookup.
@lru_cache(maxsize=4)
def load_gold(config: ExperimentConfig) -> GoldTable:
    """The experiment's gold table (synthetic or ingested), difficult-filtered
    when the config asks for it."""
    source = config.gold
    if isinstance(source, str):
        gold = ingest_external(source, task=config.task).gold
    else:
        entries = [
            entry
            for ci, (shape, n) in enumerate(source.components)
            for entry in synth_gold(n, shape, source.seed, id_prefix=f"g{ci}-").entries
        ]
        gold = synth_text(
            GoldTable(tuple(entries)), source.vocab_size, source.tokens_per_item, source.seed
        )
    if config.difficult:
        gold = filter_difficult(gold, config.difficult_lo, config.difficult_hi)
    return gold


# sweep runs a (beta, seed) pair's recipes back to back, so one entry suffices
@lru_cache(maxsize=1)
def _suite_cached(config: ExperimentConfig, beta: float, seed: int) -> Suite:
    return build_suite(load_gold(config), beta, seed, config.task)


# a sweep has one config, so one gold table and one hash_dim
@lru_cache(maxsize=1)
def _features_cached(config: ExperimentConfig) -> Features:
    return featurize(load_gold(config).texts(), config.train.hash_dim)


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
    part = np.empty(len(gold), dtype=np.intp)  # 0 train, 1 dev, 2 test, by table position
    part[perm] = np.repeat([0, 1, 2], counts)
    parts: tuple[list, list, list] = ([], [], [])
    for entry, p in zip(gold.entries, part.tolist()):
        parts[p].append(entry)
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


# ---------------------------------------------------------------------------
# cells and sweeps


def _recipe_dataset(suite: Suite, recipe: str, benchmark: PopulationBenchmark):
    """The dataset of ``recipe``: adjusted, or the suite field of that name."""
    if recipe == RECIPE_ADJUSTED:
        adjusted, _ = apply_pair(suite.nonrep1, benchmark)
        return adjusted
    if recipe not in RECIPES:
        raise ValueError(f"unknown recipe {recipe!r}")
    return getattr(suite, recipe)


def run_cell(config: ExperimentConfig, beta: float, seed: int, recipe: str) -> ResultRow:
    """Run one cell end to end. Deterministic given (config, beta, seed, recipe)."""
    start = time.perf_counter()
    try:
        gold = load_gold(config)
        counts = scaled_split(len(gold), config.split) if config.difficult else config.split
        if counts[2] < 1:
            raise ValueError(f"test split is empty for counts {counts}")
        train_gold, dev_gold, test_gold = split_items(gold, counts, seed)
        suite = _suite_cached(config, beta, seed)
        dataset = _recipe_dataset(suite, recipe, config.benchmark)
        features = _features_cached(config)
        train_ds = dataset.restrict(train_gold.item_ids())
        dev_ds = dataset.restrict(dev_gold.item_ids()) if len(dev_gold) else None
        model = train(train_ds, features, config.train, seed, dev=dev_ds)
        preds = predict(model, features.select(test_gold.item_ids()))
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
    return {
        key: metrics.aggregate(sorted(grouped[key], key=lambda r: r.seed))
        for key in sorted(grouped)
    }


def sweep(
    config: ExperimentConfig,
    output_dir: Union[str, Path, None] = None,
    workers: int = 1,
) -> SweepResult:
    """Run the full recipes x betas x seeds grid.

    Cells run grouped by (beta, seed), recipe fastest. A process keeps
    the suite of the last pair it ran, so a serial sweep builds each
    pair's suite once. Under a pool, a pair's suite is built in every
    process that runs one of its cells: pool workers are dealt single
    cells, so with ``workers=2`` both processes build it. The pool
    starts no more processes than there are cells. Failures are
    isolated per cell: the sweep continues, failed cells are
    enumerated, and the report holds one row per completed cell plus
    cross-seed aggregate rows. ``workers`` below 1 is an error.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cells = [
        (config, recipe, beta, seed)
        for beta in config.betas
        for seed in config.seeds
        for recipe in config.recipes
    ]
    # the pool starts all its processes at the first submit
    workers = min(workers, len(cells))
    if workers == 1:
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
        _write_table(out / TIMINGS_NAME, TIMINGS_COLUMNS, map(asdict, rows))
        if failures:
            columns = [f.name for f in fields(CellFailure)]
            _write_table(out / FAILURES_NAME, columns, map(asdict, failures))
    return SweepResult(tuple(rows), aggregates, tuple(failures))


# ---------------------------------------------------------------------------
# report files


def _write_table(path: Union[str, Path], columns: Sequence[str], rows: Iterable[dict]) -> None:
    """CSV with the given header; each row's keys outside ``columns`` are
    left out, and absent columns are written empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh, columns, restval="", extrasaction="ignore", lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(rows)


def write_report(
    rows: Iterable[ResultRow],
    aggregates: dict[tuple[str, str, float], metrics.AggregateReport],
    path: Union[str, Path],
) -> None:
    """Deterministic flat table: cell rows, then cross-seed mean rows.

    Wall times are deliberately not part of the report (they vary run to
    run); see the timings file next to it.
    """
    cells = [{"row_type": "cell", **asdict(r)} for r in rows]
    means = [
        {
            "row_type": "mean",
            "task": task,
            "recipe": recipe,
            "beta": beta,
            **agg.mean,
            "n_seeds": len(agg.seeds),
            **{f"{name}_std": value for name, value in agg.std.items()},
        }
        for (task, recipe, beta), agg in sorted(aggregates.items())
    ]
    _write_table(path, REPORT_COLUMNS, cells + means)


def read_report_cells(path: Union[str, Path]) -> tuple[ResultRow, ...]:
    """Cell rows back from a report file (wall times are not stored)."""
    types = get_type_hints(ResultRow)
    with open(path, encoding="utf-8", newline="") as fh:
        return tuple(
            ResultRow(
                **{name: types[name](rec[name]) for name in types if name in REPORT_COLUMNS},
                wall_time=0.0,
            )
            for rec in csv.DictReader(fh)
            if rec["row_type"] == "cell"
        )


# ---------------------------------------------------------------------------
# config files


_SHAPES = {"uniform": Uniform, "rare": Rare}


def _component_from_dict(d, where: str) -> tuple[GoldShape, int]:
    kind = d.get("shape") if isinstance(d, dict) else None
    if kind not in _SHAPES:
        raise ValueError(f"unknown gold shape {kind!r} in {where}")
    if "n" not in d:
        raise ValueError(f"{where}.n is missing")
    params = {key: value for key, value in d.items() if key not in ("shape", "n")}
    return typed_object(params, _SHAPES[kind], where), typed(d["n"], int, f"{where}.n")


def _components_from_list(value) -> tuple[tuple[GoldShape, int], ...]:
    where = "gold.synthetic.components"
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list, got {value!r}")
    return tuple(_component_from_dict(c, f"{where}[{i}]") for i, c in enumerate(value))


def _gold_from_dict(d) -> Union[SyntheticGold, str]:
    if not isinstance(d, dict):
        raise ValueError(f"gold must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - {"file", "synthetic"})
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in gold")
    if len(d) != 1:
        raise ValueError("gold needs exactly one of 'file' or 'synthetic'")
    if "file" in d:
        return typed(d["file"], str, "gold.file")
    return typed_object(
        d["synthetic"], SyntheticGold, "gold.synthetic", components=_components_from_list
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    if isinstance(config.gold, str):
        gold: dict = {"file": config.gold}
    else:
        names = {cls: name for name, cls in _SHAPES.items()}
        components = [
            {"shape": names[type(shape)], **asdict(shape), "n": n}
            for shape, n in config.gold.components
        ]
        gold = {"synthetic": {**asdict(config.gold), "components": components}}
    return {
        "task": config.task,
        "betas": list(config.betas),
        "seeds": list(config.seeds),
        "split": list(config.split),
        "recipes": list(config.recipes),
        "benchmark": {s: str(v) for s, v in sorted(config.benchmark.shares.items())},
        "gold": gold,
        "train": asdict(config.train),
        "difficult": config.difficult,
        "difficult_lo": config.difficult_lo,
        "difficult_hi": config.difficult_hi,
    }


def config_from_dict(d: dict) -> ExperimentConfig:
    """Config from its JSON form. Unknown keys at any level are errors;
    absent keys take the dataclass defaults."""
    return typed_object(
        d,
        ExperimentConfig,
        "config",
        gold=_gold_from_dict,
        benchmark=PopulationBenchmark,
        train=lambda train: typed_object(train, TrainConfig, "train"),
    )


@reads_file
def load_config(path: Union[str, Path]) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def save_config(config: ExperimentConfig, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2)
        fh.write("\n")

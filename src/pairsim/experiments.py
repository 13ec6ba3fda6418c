"""Experiment harness: config, item splits, per-cell runs, and sweeps.

A cell is one (recipe, beta, seed) combination: count the records of
the recipe at beta per item (PAIR's replicas counting like the records
they copy), fit the stand-in classifier to the train items' counts with
the dev items' counts picking its l2, and score calibration/accuracy on
the test split against the unbiased gold proportions. The loss reads a
training set only through these counts, so a cell builds no dataset;
it fits over a design of the train and dev items that every cell of its
seed shares. Cells are pure functions of (config, beta, seed, recipe),
so any subset can be re-run in isolation and sweeps are reproducible
byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union, get_type_hints

import numpy as np

from . import metrics
from .adjust import PopulationBenchmark, benchmark_from_json, recipe_counts
from .rng import check_key_int, stream
from .simulation import (
    DIFFICULT_BAND,
    GoldShape,
    GoldTable,
    Rare,
    RECIPES,
    SuiteDraws,
    TextColumn,
    Uniform,
    annotation_row,
    check_beta,
    check_fields,
    check_task,
    derive_gold,
    draw_suite,
    filter_difficult,
    reads_file,
    synth_gold,
    synth_text,
    typed,
    typed_object,
)
from .trainer import Design, Features, TrainConfig, featurize, fit, predict

PAPER_BETAS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
PAPER_SEEDS = (10, 42, 512, 1010, 3344)

REPORT_NAME = "report.csv"
TIMINGS_NAME = "timings.csv"
FAILURES_NAME = "failures.csv"

REPORT_COLUMNS = (
    "row_type", "task", "recipe", "beta", "seed", "n_items", *metrics.METRIC_FIELDS,
    "n_seeds", *(f"{name}_std" for name in metrics.METRIC_FIELDS),
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
        check_fields(self)
        if not self.components:
            raise ValueError("need at least one gold component")
        for i, (_, n) in enumerate(self.components):
            if n < 1:
                raise ValueError(f"components[{i}].n must be at least 1, got {n}")
        for name, least in (("vocab_size", 2), ("tokens_per_item", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
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

    def __post_init__(self) -> None:
        check_fields(self)
        check_task(self.task)
        for name in ("betas", "seeds", "recipes"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"need at least one {name[:-1]}")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value, got {values}")
        for b in self.betas:
            check_beta(b)
        for s in self.seeds:
            check_key_int(s, "seed")
        unknown = sorted(set(self.recipes) - set(RECIPES))
        if unknown:
            raise ValueError(f"unknown recipes: {', '.join(unknown)}")
        for i, (n, part, least) in enumerate(zip(self.split, ("train", "dev", "test"), (1, 0, 1))):
            if n < least:
                raise ValueError(f"split[{i}] ({part} items) must be at least {least}, got {n}")
        # file gold and difficult filtering fix the item count only when run
        if isinstance(self.gold, SyntheticGold) and not self.difficult:
            if sum(self.split) != self.gold.n_items:
                raise ValueError(
                    f"split {self.split} sums to {sum(self.split)}, "
                    f"but the synthetic gold has {self.gold.n_items} items"
                )


@dataclass(frozen=True)
class ResultRow:
    """Metrics of one completed cell; ``==``, like the report, leaves out ``wall_time``."""

    task: str
    recipe: str
    beta: float
    seed: int
    acb: float
    f1: float
    positive_proportion: float
    n_items: int
    wall_time: float = field(compare=False)


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


# ---------------------------------------------------------------------------
# gold sources


@dataclass(frozen=True)
class IngestResult:
    gold: GoldTable
    skipped: int


@reads_file
def ingest_external(path: Union[str, Path], task: str) -> IngestResult:
    """Load a user-supplied annotation file (line-delimited JSON) as the
    gold table of ``task``, which :func:`check_task` checks first.

    Each row needs "item_id", "text", and per-task label lists under
    "ol" / "hs"; the task's list gives the gold. Malformed rows (bad JSON,
    missing fields, empty or whitespace-only text, duplicate ids, or ids,
    tokens or labels that :func:`annotation_row` rejects) are skipped and
    counted; :func:`derive_gold` makes the table of the rest.
    """
    check_task(task)
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
                item_id, tokens, labels = annotation_row(row["item_id"], row["text"], row[key])
                if (
                    item_id in seen
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
    return IngestResult(derive_gold(rows), skipped)


# A process keeps the gold tables of its last few configs. The caches key
# on the config: a gold table has no hash.
@lru_cache(maxsize=4)
def load_gold(config: ExperimentConfig) -> GoldTable:
    """The config's gold table, synthetic or ingested for its task, kept to
    the items in :data:`DIFFICULT_BAND` in difficult mode."""
    source = config.gold
    if isinstance(source, str):
        gold = ingest_external(source, task=config.task).gold
    else:
        parts = [
            synth_gold(n, shape, source.seed, id_prefix=f"g{ci}-")
            for ci, (shape, n) in enumerate(source.components)
        ]
        # synth_gold's parts have no tokens; synth_text draws every item's
        gold = GoldTable(
            [i for part in parts for i in part.item_id],
            TextColumn.of(((),) * sum(map(len, parts))),
            np.concatenate([part.p_gold for part in parts]),
            np.concatenate([part.k_reference for part in parts]),
        )
        gold = synth_text(gold, source.vocab_size, source.tokens_per_item, source.seed)
    if config.difficult:
        gold = filter_difficult(gold, *DIFFICULT_BAND)
    return gold


@dataclass(frozen=True, eq=False)
class _Seed:
    """What the cells of a seed share: the draws of its suite at every
    beta, the gold positions of its train and dev items, the design of
    those items, and its test items with their features; all read-only."""

    draws: SuiteDraws
    train: np.ndarray
    dev: np.ndarray
    design: Design
    test: GoldTable
    test_features: Features


# sweep runs a seed's cells back to back, so one entry suffices
@lru_cache(maxsize=1)
def _seed_cached(config: ExperimentConfig, seed: int) -> _Seed:
    """The seed's split and suite draws, and the design of its train and
    dev items: each cell's fit differs from the others only in counts."""
    train_gold, dev_gold, test_gold = split_gold(config, seed)
    features = _features_cached(config)
    train, dev = (
        np.fromiter(map(features.rows.__getitem__, part.item_id), np.intp, len(part))
        for part in (train_gold, dev_gold)
    )
    train.flags.writeable = dev.flags.writeable = False
    design = Design.of(features.matrix[train], features.matrix[dev] if len(dev) else None)
    draws = draw_suite(load_gold(config), seed, config.task)
    return _Seed(draws, train, dev, design, test_gold, features.select(test_gold.item_id))


# a sweep has one config, so one gold table and one hash_dim
@lru_cache(maxsize=1)
def _features_cached(config: ExperimentConfig) -> Features:
    return featurize(load_gold(config), config.train.hash_dim)


# ---------------------------------------------------------------------------
# splits


def split_items(
    gold: GoldTable, counts: Sequence[int], seed: int
) -> tuple[GoldTable, GoldTable, GoldTable]:
    """Disjoint train/dev/test partition at the item level, uniform given seed.

    Entries keep their original table order within each part. The counts
    must be three non-negative integers (a bool is not one) that sum to
    the table's length.
    """
    if len(counts) != 3:
        raise ValueError(f"expected three split counts, got {len(counts)}")
    if not all(
        isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c >= 0 for c in counts
    ):
        raise ValueError(f"split counts {tuple(counts)} must be non-negative integers")
    if sum(counts) != len(gold):
        raise ValueError(
            f"split counts {tuple(counts)} sum to {sum(counts)}, "
            f"but the gold table has {len(gold)} items"
        )
    perm = stream(seed, "item-split").permutation(len(gold))
    part = np.empty(len(gold), dtype=np.intp)  # 0 train, 1 dev, 2 test, by table position
    part[perm] = np.repeat([0, 1, 2], counts)
    return tuple(gold.take(np.flatnonzero(part == p)) for p in range(3))


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


def split_gold(config: ExperimentConfig, seed: int) -> tuple[GoldTable, GoldTable, GoldTable]:
    """The train, dev and test parts of the config's gold table for
    ``seed``, by the config's split, rescaled to the table in difficult
    mode. A split with no train or no test items is an error."""
    gold = load_gold(config)
    counts = scaled_split(len(gold), config.split) if config.difficult else config.split
    if counts[0] < 1 or counts[2] < 1:
        raise ValueError(f"split {counts} has no train or no test items")
    return split_items(gold, counts, seed)


# ---------------------------------------------------------------------------
# cells and sweeps


def run_cell(config: ExperimentConfig, beta: float, seed: int, recipe: str) -> ResultRow:
    """Run one cell end to end: the recipe's record counts per item at
    ``beta``, one fit over the seed's design, and the test items' scores.
    Every recipe keeps records of every item, so the design is the one
    :func:`~pairsim.trainer.train` would build from the recipe's dataset;
    an item without records is an error naming it. Deterministic given
    (config, beta, seed, recipe)."""
    start = time.perf_counter()
    check_key_int(seed, "seed")  # a seed of True would run seed 1
    cached = _seed_cached(config, seed)
    positives, totals = recipe_counts(cached.draws, beta, recipe, config.benchmark)
    empty = np.flatnonzero(totals == 0)
    if len(empty):
        item_id = cached.draws.pool.item_ids[empty[0]]
        raise ValueError(f"recipe {recipe!r} keeps no record of item {item_id!r}")
    train = positives[cached.train], totals[cached.train]
    dev = (positives[cached.dev], totals[cached.dev]) if len(cached.dev) else None
    model = fit(cached.design, train, config.train, seed, dev)
    preds = predict(model, cached.test_features)
    return ResultRow(
        task=config.task,
        recipe=recipe,
        beta=beta,
        seed=seed,
        acb=metrics.acb(preds, cached.test),
        f1=metrics.f1(preds, cached.test),
        # bit for bit metrics.positive_proportion of the training dataset
        positive_proportion=float(train[0].sum() / train[1].sum()),
        n_items=len(cached.test),
        wall_time=time.perf_counter() - start,
    )


def _cell_outcome(args: tuple) -> tuple[ResultRow | None, CellFailure | None]:
    """A cell's row, or its failure: the exception's type and message."""
    config, recipe, beta, seed = args
    try:
        return run_cell(config, beta, seed, recipe), None
    except Exception as err:
        return None, CellFailure(config.task, recipe, beta, seed, f"{type(err).__name__}: {err}")


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

    Cells run grouped by seed, then by beta, recipe fastest. A process
    keeps the split, the suite draws and the design of the last seed it
    ran, and each cell counts the draws at its beta, so a serial sweep
    splits the gold table, draws the pool and builds the design once per
    seed. With ``workers`` above 1, this process runs the first cell
    before it starts the pool, which runs the others and starts no more
    processes than there are of them. Forked workers inherit the gold
    table, the features and the first seed's entry that the first cell
    built; a later seed's are built in every worker that runs one of its
    cells, as pool workers are dealt single cells. Workers started by
    ``spawn`` or ``forkserver`` build all of them, and write the same
    report.
    Failures are isolated per cell: the sweep continues, failed cells are
    enumerated, and the report holds one row per completed cell plus
    cross-seed aggregate rows. ``workers`` that is not an int of at
    least 1 is an error, and so is an ``output_dir`` that cannot be made
    a directory, before any cell runs.
    """
    if typed(workers, int, "workers") < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    out = None if output_dir is None else Path(output_dir)
    if out is not None:  # a path that cannot be a directory fails before any cell
        out.mkdir(parents=True, exist_ok=True)
    cells = [
        (config, recipe, beta, seed)
        for seed in config.seeds
        for beta in config.betas
        for recipe in config.recipes
    ]
    # the pool starts all its processes at the first submit
    workers = min(workers, len(cells))
    if workers == 1:
        outcomes = [_cell_outcome(c) for c in cells]
    else:
        # the first cell fills this process's caches before the pool forks
        outcomes = [_cell_outcome(cells[0])]
        with ProcessPoolExecutor(max_workers=min(workers, len(cells) - 1)) as pool:
            outcomes += pool.map(_cell_outcome, cells[1:])
    rows = sorted(
        (row for row, _ in outcomes if row is not None),
        key=lambda r: (r.task, r.recipe, r.beta, r.seed),
    )
    failures = sorted(
        (f for _, f in outcomes if f is not None),
        key=lambda f: (f.task, f.recipe, f.beta, f.seed),
    )
    aggregates = aggregate_rows(rows)
    if out is not None:
        write_report(rows, aggregates, out / REPORT_NAME)
        _write_table(out / TIMINGS_NAME, TIMINGS_COLUMNS, map(asdict, rows))
        if failures:
            columns = [f.name for f in fields(CellFailure)]
            _write_table(out / FAILURES_NAME, columns, map(asdict, failures))
        else:  # a failures file left by an earlier run would describe this one
            (out / FAILURES_NAME).unlink(missing_ok=True)
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


def _report_value(text: str | None, kind: type, where: str):
    """A report cell's value as ``kind`` (str, int or float); an empty,
    unparsable or non-finite value is an error naming ``where``."""
    if not text:
        raise ValueError(f"{where} is missing")
    if kind is str:
        return text
    try:
        value = kind(text)
        if kind is int or math.isfinite(value):
            return value
    except ValueError:
        pass
    name = "an integer" if kind is int else "a finite number"
    raise ValueError(f"{where} must be {name}, got {text!r}")


@reads_file
def read_report_cells(path: Union[str, Path]) -> tuple[ResultRow, ...]:
    """Cell rows back from a report file (wall times are not stored).

    The header must name every cell column. A cell row's value that is
    empty, does not parse or is not finite is an error naming the line
    and the column, and a cell row that repeats the task, recipe, beta
    and seed of another is an error naming both lines. A file without
    cell rows is an error too.
    """
    types = {k: v for k, v in get_type_hints(ResultRow).items() if k in REPORT_COLUMNS}
    cells = []
    lines: dict[tuple, int] = {}  # line of each (task, recipe, beta, seed)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError("empty report file")
        missing = [c for c in ("row_type", *types) if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}:{reader.line_num}: header has no {missing[0]!r} column")
        try:
            for rec in reader:
                if rec["row_type"] != "cell":
                    continue
                at = f"{path}:{reader.line_num}: cell"
                values = {k: _report_value(rec[k], kind, f"{at}.{k}") for k, kind in types.items()}
                cell = ResultRow(**values, wall_time=0.0)
                key = (cell.task, cell.recipe, cell.beta, cell.seed)
                if key in lines:
                    raise ValueError(f"{at} repeats line {lines[key]}'s task, recipe, beta and seed")
                lines[key] = reader.line_num
                cells.append(cell)
        except csv.Error as err:  # DictReader counts only the lines it returned
            raise ValueError(f"{path}:{reader.reader.line_num}: {err}") from None
    if not cells:
        raise ValueError("no cell rows")
    return tuple(cells)


# ---------------------------------------------------------------------------
# config files


_SHAPES = {"uniform": Uniform, "rare": Rare}


def _component_from_dict(d, where: str) -> tuple[GoldShape, int]:
    kind = d.get("shape")
    if kind not in _SHAPES:
        raise ValueError(f"unknown gold shape {kind!r} in {where}")
    if "n" not in d:
        raise ValueError(f"{where}.n is missing")
    params = {key: value for key, value in d.items() if key not in ("shape", "n")}
    try:
        shape = typed_object(params, _SHAPES[kind], where)
    except ValueError as err:  # a bad value: the shape's own message names no component
        if where in str(err):
            raise
        raise ValueError(f"{where}: {err}") from None
    return shape, typed(d["n"], int, f"{where}.n")


def _components_from_list(value, where: str) -> tuple[tuple[GoldShape, int], ...]:
    entries = enumerate(typed(value, tuple[Mapping[str, object], ...], where))
    return tuple(_component_from_dict(c, f"{where}[{i}]") for i, c in entries)


def _gold_from_dict(d, where: str) -> Union[SyntheticGold, str]:
    unknown = sorted(set(typed(d, Mapping[str, object], where)) - {"file", "synthetic"})
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}")
    if len(d) != 1:
        raise ValueError(f"{where} needs exactly one of 'file' or 'synthetic'")
    if "file" in d:
        return typed(d["file"], str, f"{where}.file")
    return typed_object(
        d["synthetic"], SyntheticGold, f"{where}.synthetic", components=_components_from_list
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    """The JSON form that :func:`config_from_dict` reads back: one key per
    field, in field order, so no field read from a file is dropped when it
    is saved. Tuples become lists."""
    d = {f.name: getattr(config, f.name) for f in fields(config)}
    if isinstance(config.gold, str):
        d["gold"] = {"file": config.gold}
    else:
        names = {cls: name for name, cls in _SHAPES.items()}
        components = [
            {"shape": names[type(shape)], **asdict(shape), "n": n}
            for shape, n in config.gold.components
        ]
        d["gold"] = {"synthetic": {**asdict(config.gold), "components": components}}
    d["benchmark"] = {s: str(v) for s, v in sorted(config.benchmark.shares.items())}
    d["train"] = asdict(config.train)
    return {key: list(v) if isinstance(v, tuple) else v for key, v in d.items()}


def config_from_dict(d: dict) -> ExperimentConfig:
    """Config from its JSON form. Unknown keys at any level are errors;
    absent keys take the dataclass defaults."""
    return typed_object(
        d, ExperimentConfig, "config", gold=_gold_from_dict, benchmark=benchmark_from_json
    )


@reads_file
def load_config(path: Union[str, Path]) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def save_config(config: ExperimentConfig, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2)
        fh.write("\n")

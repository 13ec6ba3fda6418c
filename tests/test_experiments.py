import collections.abc
import csv
import dataclasses
import hashlib
import inspect
import json
import multiprocessing
import re
import types
import typing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsim import adjust, experiments, metrics, simulation, trainer
from pairsim.adjust import PopulationBenchmark, WeightTable, apply_pair, recipe_counts
from pairsim.experiments import (
    ExperimentConfig,
    SyntheticGold,
    aggregate_rows,
    config_from_dict,
    config_to_dict,
    ingest_external,
    load_config,
    load_gold,
    read_report_cells,
    run_cell,
    save_config,
    scaled_split,
    split_items,
    sweep,
)
from pairsim.simulation import (
    Annotation,
    BiasSpec,
    DatasetMeta,
    GoldEntry,
    GoldTable,
    PoolComposition,
    Rare,
    Uniform,
    _schema,
    derive_gold,
    draw_suite,
    synth_gold,
    typed_object,
)
from pairsim.trainer import TrainConfig

TINY_TRAIN = TrainConfig(epochs=2, hash_dim=512)


def tiny_config(n=120, split=(80, 20, 20), **kw):
    spec = SyntheticGold(
        components=((Uniform(0.0, 1.0), n),), vocab_size=200, tokens_per_item=12, seed=1
    )
    defaults = dict(
        gold=spec,
        betas=(0.3,),
        seeds=(10, 42),
        split=split,
        recipes=("representative", "adjusted"),
        train=TINY_TRAIN,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# splits


def test_split_items_paper_counts():
    gold = synth_gold(3000, Uniform(0.0, 1.0), seed=2)
    train_g, dev_g, test_g = split_items(gold, (2000, 500, 500), seed=7)
    assert (len(train_g), len(dev_g), len(test_g)) == (2000, 500, 500)
    ids = [set(t.item_ids()) for t in (train_g, dev_g, test_g)]
    assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])
    assert ids[0] | ids[1] | ids[2] == set(gold.item_ids())


def test_split_items_identity():
    gold = synth_gold(50, Uniform(0.0, 1.0), seed=2)
    train_g, dev_g, test_g = split_items(gold, (50, 0, 0), seed=7)
    assert train_g == gold
    assert len(dev_g) == 0 and len(test_g) == 0


def test_split_items_deterministic():
    gold = synth_gold(100, Uniform(0.0, 1.0), seed=2)
    a = split_items(gold, (60, 20, 20), seed=7)
    b = split_items(gold, (60, 20, 20), seed=7)
    assert a == b


def test_split_items_rejects_count_mismatch():
    gold = synth_gold(10, Uniform(0.0, 1.0), seed=2)
    with pytest.raises(ValueError, match="sum"):
        split_items(gold, (5, 5, 5), seed=1)


@pytest.mark.parametrize("counts", [(5, -2, 1), (2.5, 1, 0.5), (True, 2, 1)])
def test_split_items_rejects_negative_or_non_integer_counts(counts):
    gold = synth_gold(4, Uniform(0.0, 1.0), seed=2)
    with pytest.raises(ValueError, match=rf"split counts {re.escape(str(counts))} must"):
        split_items(gold, counts, seed=1)


def test_scaled_split_proportional():
    assert scaled_split(3000, (2000, 500, 500)) == (2000, 500, 500)
    counts = scaled_split(267, (2000, 500, 500))
    assert sum(counts) == 267
    assert counts[0] == 178  # 267 * 2/3, largest remainder
    counts = scaled_split(1, (2000, 500, 500))
    assert sum(counts) == 1


# ---------------------------------------------------------------------------
# ingest


def write_annotation_file(path, n=20, n_labels=15, mangle_row=None):
    lines = []
    for i in range(n):
        row = {
            "item_id": f"tw{i:04d}",
            "text": f"token{i} tok tok{i % 3}",
            "ol": [(i + j) % 2 for j in range(n_labels)],
            "hs": [1 if (i + j) % 6 == 0 else 0 for j in range(n_labels)],
        }
        lines.append(json.dumps(row))
    if mangle_row is not None:
        lines[mangle_row] = '{"item_id": "broken"'
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_ingest_well_formed(tmp_path):
    path = tmp_path / "annotations.jsonl"
    write_annotation_file(path, n=20)
    result = ingest_external(path, task="OL")
    assert len(result.gold) == 20
    assert result.skipped == 0
    assert all(e.k_reference == 12 for e in result.gold.entries)
    # recount: each p_gold must be attainable from the file's labels
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for entry, row in zip(result.gold.entries, rows):
        assert entry.item_id == row["item_id"]
        kept_positives = entry.p_gold * 12
        assert abs(kept_positives - round(kept_positives)) < 1e-9
        assert 0 <= round(kept_positives) <= sum(row["ol"])


def test_ingest_skips_malformed_row(tmp_path):
    path = tmp_path / "annotations.jsonl"
    write_annotation_file(path, n=10, mangle_row=4)
    result = ingest_external(path, task="OL")
    assert len(result.gold) == 9
    assert result.skipped == 1


def test_ingest_tasks_use_their_own_labels(tmp_path):
    path = tmp_path / "annotations.jsonl"
    write_annotation_file(path, n=30)
    ol = ingest_external(path, task="OL").gold
    hs = ingest_external(path, task="HS").gold
    mean = lambda g: sum(e.p_gold for e in g.entries) / len(g)
    assert mean(hs) < mean(ol)


@pytest.mark.parametrize("text", ["", "   ", "\t\n", [], ["", " "]])
def test_ingest_skips_empty_text_row(tmp_path, text):
    path = tmp_path / "annotations.jsonl"
    write_annotation_file(path, n=10)
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[3])
    row["text"] = text
    lines[3] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = ingest_external(path, task="OL")
    assert result.skipped == 1
    assert "tw0003" not in result.gold.item_ids()
    assert len(result.gold) == 9


def test_ingest_hands_derive_gold_the_accepted_rows_in_order(tmp_path):
    path = tmp_path / "annotations.jsonl"
    write_annotation_file(path, n=12)
    lines = path.read_text(encoding="utf-8").splitlines()
    bad = {2: [1] * 11, 5: [0, 1, 2] + [0] * 12, 8: []}
    for i, labels in bad.items():
        row = json.loads(lines[i])
        row["ol"] = labels
        lines[i] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = ingest_external(path, task="OL")
    assert result.skipped == 3
    kept = [json.loads(line) for i, line in enumerate(lines) if i not in bad]
    # the subsample stream of each row is its position among accepted rows
    expected = derive_gold([(row["item_id"], row["text"], row["ol"]) for row in kept])
    assert result.gold == expected


@pytest.mark.parametrize("label", [True, False, 1.0, 0.0])
def test_ingest_skips_rows_whose_labels_are_not_integers(tmp_path, label):
    path = tmp_path / "annotations.jsonl"
    write_annotation_file(path, n=10)
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[6])
    row["ol"][0] = label
    lines[6] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = ingest_external(path, task="OL")
    assert result.skipped == 1
    assert "tw0006" not in result.gold.item_ids()
    assert len(result.gold) == 9


@pytest.mark.parametrize("text", [["ok", 5, None], ["ok", "\ud800"]])
def test_ingest_skips_rows_with_a_token_that_is_not_a_utf8_string(tmp_path, text):
    # the blank-text check stopped at "ok", and featurize failed later
    path = tmp_path / "annotations.jsonl"
    write_annotation_file(path, n=10)
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[4])
    row["text"] = text
    lines[4] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = ingest_external(path, task="OL")
    assert result.skipped == 1
    assert "tw0004" not in result.gold.item_ids()
    assert len(result.gold) == 9


def test_ingest_has_no_default_task(tmp_path):
    path = tmp_path / "annotations.jsonl"
    write_annotation_file(path, n=12)
    with pytest.raises(TypeError, match="task"):
        ingest_external(path)


@pytest.mark.parametrize("task", ["XX", "hs", None])
def test_ingest_rejects_a_task_other_than_ol_or_hs_by_name(tmp_path, task):
    # "XX" skipped every row as malformed, "hs" read the HS labels
    path = tmp_path / "annotations.jsonl"
    write_annotation_file(path, n=12)
    message = rf"task must be 'OL' or 'HS', got {re.escape(repr(task))}$"
    with pytest.raises(ValueError, match=message):
        ingest_external(path, task=task)


def test_ingest_rejects_empty(tmp_path):
    path = tmp_path / "annotations.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no valid"):
        ingest_external(path, task="OL")


# ---------------------------------------------------------------------------
# run_cell


def test_run_cell_adjusted_recipe_structure():
    # at gold proportion 0.5 and beta 0.5 every A record is labeled 0 and
    # every B record 1, so an item's positives count its B records
    gold = GoldTable.from_entries(GoldEntry(f"it{i}", ("tok",), 0.5, 12) for i in range(40))
    draws = draw_suite(gold, 10, "OL")
    benchmark = tiny_config().benchmark
    positives, totals = recipe_counts(draws, 0.5, "adjusted", benchmark)
    assert totals.tolist() == [12] * 40  # per item
    assert positives.tolist() == [6] * 40  # so 6 A and 6 B
    _, originals = recipe_counts(draws, 0.5, "nonrep1", benchmark)
    assert (totals - originals).tolist() == [3] * 40  # replicas


def test_run_cell_deterministic():
    config = tiny_config()
    row1 = run_cell(config, 0.3, 10, "adjusted")
    row2 = run_cell(config, 0.3, 10, "adjusted")
    assert dataclasses.replace(row1, wall_time=0.0) == dataclasses.replace(row2, wall_time=0.0)
    assert row1.n_items == 20


def test_run_cell_beta_zero_recipes_indistinguishable():
    spec = SyntheticGold(
        components=((Uniform(0.0, 1.0), 2500),), vocab_size=300, tokens_per_item=10, seed=5
    )
    config = ExperimentConfig(
        gold=spec,
        betas=(0.0,),
        seeds=(10,),
        split=(2000, 250, 250),
        train=TrainConfig(epochs=1, hash_dim=512),
    )
    proportions = [
        run_cell(config, 0.0, 10, recipe).positive_proportion
        for recipe in ("representative", "nonrep1", "nonrep2", "adjusted")
    ]
    assert max(proportions) - min(proportions) < 0.01


def test_run_cell_raises_the_cells_own_error():
    config = tiny_config(benchmark=PopulationBenchmark({"A": 0.4, "B": 0.4, "C": 0.2}))
    with pytest.raises(ValueError, match=r"absent from the annotation pool: 'C'"):
        run_cell(config, 0.3, 10, "adjusted")


@pytest.mark.parametrize("seed", [True, 1.5])
def test_run_cell_rejects_a_seed_that_is_not_an_integer(seed):
    # True ran seed 1 and reported seed=True; 1.5 failed with a TypeError
    with pytest.raises(ValueError, match=rf"^seed must be an integer, got {seed}$"):
        run_cell(tiny_config(), 0.3, seed, "adjusted")


def test_run_cell_names_an_item_its_recipe_keeps_no_record_of(monkeypatch):
    # the seed's design has a row per train and dev item; it is the design
    # of a cell's dataset only while the recipe keeps records of every item
    config = tiny_config()

    def dropping(draws, beta, recipe, benchmark):
        positives, totals = recipe_counts(draws, beta, recipe, benchmark)
        positives[7] = totals[7] = 0
        return positives, totals

    monkeypatch.setattr(experiments, "recipe_counts", dropping)
    item_id = load_gold(config).item_id[7]
    with pytest.raises(ValueError, match=f"^recipe 'nonrep2' keeps no record of item '{item_id}'$"):
        run_cell(config, 0.3, 10, "nonrep2")


def test_run_cell_difficult_mode():
    config = tiny_config(n=300, split=(200, 50, 50), difficult=True)
    gold = load_gold(config)
    assert all(0.4 <= e.p_gold <= 0.6 for e in gold.entries)
    row = run_cell(config, 0.1, 42, "representative")
    assert row.n_items == scaled_split(len(gold), (200, 50, 50))[2]


@settings(max_examples=40, deadline=None)
@given(
    beta=st.floats(0.0, 0.5),
    seed=st.integers(-(2**127), 2**127 - 1),
    share_a=st.integers(1, 23),
    recipe=st.sampled_from(simulation.RECIPES),
)
def test_a_cell_fits_the_counts_of_its_materialized_datasets(beta, seed, share_a, recipe):
    # the cell counts records without building a dataset; the counts, the
    # positive proportion and the model must be those of the recipe's
    # dataset restricted to the train and dev items, adjusted at default K
    shares = {"A": Fraction(share_a, 24), "B": Fraction(24 - share_a, 24)}
    config = tiny_config(benchmark=PopulationBenchmark(shares), betas=(beta,), seeds=(seed,))
    gold = load_gold(config)
    suite = simulation.build_suite(gold, beta, seed, config.task)
    if recipe == "adjusted":
        dataset, _ = apply_pair(suite.nonrep1, config.benchmark)
    else:
        dataset = getattr(suite, recipe)
    train_gold, dev_gold, _ = experiments.split_gold(config, seed)
    train_ds, dev_ds = (dataset.restrict(part.item_ids()) for part in (train_gold, dev_gold))

    fits = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "fit", lambda *a: fits.append(trainer.fit(*a)) or fits[-1])
        row = run_cell(config, beta, seed, recipe)
    cached = experiments._seed_cached(config, seed)
    positives, totals = recipe_counts(cached.draws, beta, recipe, config.benchmark)
    for rows, part, ds in ((cached.train, train_gold, train_ds), (cached.dev, dev_gold, dev_ds)):
        item_ids, want_positives, want_totals = trainer._item_counts(ds)
        assert item_ids == list(part.item_ids())
        assert positives[rows].tobytes() == want_positives.tobytes()
        assert totals[rows].tobytes() == want_totals.tobytes()
    assert row.positive_proportion == metrics.positive_proportion(train_ds)

    want = trainer.train(train_ds, gold, config.train, seed, dev=dev_ds)
    (model,) = fits
    assert model.weights.tobytes() == want.weights.tobytes()
    assert (model.bias, model.history, model.path) == (want.bias, want.history, want.path)
    assert model.best_epoch == want.best_epoch


# ---------------------------------------------------------------------------
# sweep


def test_sweep_shape_and_aggregates(tmp_path):
    config = tiny_config()
    result = sweep(config, output_dir=tmp_path)
    assert len(result.rows) == 2 * 1 * 2  # recipes x betas x seeds
    assert not result.failures
    keys = [(r.task, r.recipe, r.beta, r.seed) for r in result.rows]
    assert keys == sorted(keys)
    assert set(result.aggregates) == {("OL", "adjusted", 0.3), ("OL", "representative", 0.3)}
    agg = result.aggregates[("OL", "adjusted", 0.3)]
    assert agg.seeds == (10, 42)
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "timings.csv").exists()
    assert not (tmp_path / "failures.csv").exists()


def test_sweep_cells_match_independent_runs(tmp_path):
    config = tiny_config()
    result = sweep(config)
    for row in result.rows:
        solo = run_cell(config, row.beta, row.seed, row.recipe)
        assert dataclasses.replace(solo, wall_time=0.0) == dataclasses.replace(
            row, wall_time=0.0
        )


def test_sweep_isolates_failures(tmp_path):
    config = tiny_config(benchmark=PopulationBenchmark({"A": 0.4, "B": 0.4, "C": 0.2}))
    result = sweep(config, output_dir=tmp_path)
    # adjusted cells fail (stratum C was never annotated); the rest complete
    assert len(result.failures) == 2
    assert all(f.recipe == "adjusted" for f in result.failures)
    assert len(result.rows) == 2
    assert all(r.recipe == "representative" for r in result.rows)
    assert (tmp_path / "failures.csv").exists()
    assert "absent from the annotation pool: 'C'" in (tmp_path / "failures.csv").read_text()


def test_failures_file_gives_the_exception_and_not_the_cell_again(tmp_path):
    config = tiny_config(benchmark=PopulationBenchmark({"A": 0.4, "B": 0.4, "C": 0.2}))
    sweep(config, output_dir=tmp_path)
    with open(tmp_path / "failures.csv", encoding="utf-8", newline="") as fh:
        errors = [row["error"] for row in csv.DictReader(fh)]
    # the cell's coordinates are the row's other columns
    assert len(errors) == 2
    assert all(e.startswith("ValueError: ") and "recipe=" not in e for e in errors)


def test_passing_sweep_removes_an_earlier_runs_failures_file(tmp_path):
    bad = tiny_config(benchmark=PopulationBenchmark({"A": 0.4, "B": 0.4, "C": 0.2}))
    assert sweep(bad, output_dir=tmp_path).failures
    assert (tmp_path / "failures.csv").exists()
    assert not sweep(tiny_config(), output_dir=tmp_path).failures
    assert not (tmp_path / "failures.csv").exists()


def test_sweep_rejects_an_output_path_that_is_a_file_before_any_cell(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(experiments, "_cell_outcome", lambda args: ran.append(args))
    out = tmp_path / "report"
    out.write_text("not a directory\n")
    with pytest.raises(FileExistsError):
        sweep(tiny_config(), output_dir=out)
    assert ran == []
    assert out.read_text() == "not a directory\n"


def test_report_cells_round_trip(tmp_path):
    config = tiny_config()
    result = sweep(config, output_dir=tmp_path)
    cells = read_report_cells(tmp_path / "report.csv")
    assert [dataclasses.replace(r, wall_time=0.0) for r in result.rows] == list(cells)
    assert aggregate_rows(cells) == result.aggregates


def test_sweep_parallel_matches_serial(tmp_path):
    config = tiny_config()
    serial = sweep(config, output_dir=tmp_path / "serial")
    parallel = sweep(config, output_dir=tmp_path / "parallel", workers=2)
    assert (tmp_path / "serial" / "report.csv").read_bytes() == (
        tmp_path / "parallel" / "report.csv"
    ).read_bytes()
    assert serial.aggregates == parallel.aggregates


def test_quick_sweep_constructs_no_annotation_objects(monkeypatch):
    # the sweep path works on dataset columns; Annotation rows are only
    # built when a dataset's records are asked for
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "quick.json")
    made = Counter()
    init = Annotation.__init__

    def counting_init(self, *args, **kwargs):
        made[type(self).__name__] += 1
        init(self, *args, **kwargs)

    for cache in (experiments.load_gold, experiments._seed_cached):
        cache.cache_clear()
    monkeypatch.setattr(Annotation, "__init__", counting_init)
    result = sweep(config)
    assert len(result.rows) == 16 and not result.failures
    assert made == {}


def test_quick_sweep_constructs_no_gold_entries(monkeypatch):
    # the gold table is columns; GoldEntry rows are only built when a
    # table's entries are asked for
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "quick.json")
    made = Counter()
    init = GoldEntry.__init__

    def counting_init(self, *args, **kwargs):
        made[type(self).__name__] += 1
        init(self, *args, **kwargs)

    for cache in (experiments.load_gold, experiments._seed_cached):
        cache.cache_clear()
    monkeypatch.setattr(GoldEntry, "__init__", counting_init)
    result = sweep(config)
    assert len(result.rows) == 16 and not result.failures
    assert made == {}


def test_quick_sweep_codes_texts_once_and_hashes_each_vocabulary_entry_once(monkeypatch):
    # the sweep featurizes the gold table from its codes: no per-item
    # token tuple is built, and each token a text uses is hashed once
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "quick.json")
    for cache in (experiments.load_gold, experiments._seed_cached, experiments._features_cached):
        cache.cache_clear()
    tuples_of = simulation.TextColumn._tuples.func
    built = []
    monkeypatch.setattr(
        simulation.TextColumn, "_tuples", property(lambda self: built.append(self) or tuples_of(self))
    )
    hashed = Counter()
    index = trainer.token_index

    def counting_index(token, dim):
        hashed[token] += 1
        return index(token, dim)

    monkeypatch.setattr(trainer, "token_index", counting_index)
    result = sweep(config)
    assert len(result.rows) == 16 and not result.failures
    assert built == []
    text = load_gold(config).text
    assert set(hashed) == {text.vocab[c] for c in set(text.codes.tolist())}
    assert max(hashed.values()) == 1


def test_a_sweeps_cached_inputs_are_read_only():
    # every later cell of the process reads them, so none may edit them
    config = load_config(CONFIG_DIR / "quick.json")
    features = experiments._features_cached(config)
    cached = experiments._seed_cached(config, 10)
    design = cached.design
    arrays = [cached.train, cached.dev, design.active]
    for matrix in (features.matrix, design.X, design.X_T, design.X_sel, cached.test_features.matrix):
        arrays += [matrix.data, matrix.indices, matrix.indptr]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    for rows in (features.rows, cached.test_features.rows):
        with pytest.raises(TypeError):
            rows["item00000"] = 0


class _RecordingPool:
    """Stand-in for ``ProcessPoolExecutor`` that records its size and runs
    the cells in this process, starting none."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "seeds, recipes, workers, pools",
    [
        ((10, 42), ("representative", "adjusted"), 64, [4]),
        ((10, 42), ("representative", "adjusted"), 3, [3]),
        # one cell runs in this process
        ((10,), ("adjusted",), 8, []),
    ],
)
def test_sweep_starts_no_more_pool_processes_than_cells(
    monkeypatch, seeds, recipes, workers, pools
):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    config = tiny_config(seeds=seeds, recipes=recipes, train=TrainConfig(epochs=1, hash_dim=64))
    result = sweep(config, workers=workers)
    assert len(result.rows) == len(seeds) * len(recipes) and not result.failures
    assert _RecordingPool.sizes == pools


def test_sweep_draws_the_pool_and_splits_once_per_seed(monkeypatch):
    # none of the draws, the split and the design depends on beta or the
    # recipe, so a process makes each once for all the cells of a seed,
    # serially and when a pool deals out the cells; a cell counts records
    # and builds, takes, restricts, labels and replicates no dataset
    config = dataclasses.replace(
        load_config(CONFIG_DIR / "quick.json"), train=TrainConfig(epochs=1, hash_dim=64)
    )
    calls = Counter()

    def counting(name, fn, key=lambda *args: None):
        def counted(*args):
            calls[name, key(*args)] += 1
            return fn(*args)

        return counted

    class CountingDesign(trainer.Design):
        of = classmethod(counting("design", trainer.Design.of.__func__))

    monkeypatch.setattr(experiments, "draw_suite", counting("draw", draw_suite, lambda g, s, t: s))
    monkeypatch.setattr(
        experiments, "split_items", counting("split", split_items, lambda g, c, s: s)
    )
    monkeypatch.setattr(experiments, "Design", CountingDesign)
    for owner, name in (
        (simulation.Dataset, "take"), (simulation.Dataset, "restrict"),
        (adjust, "apply_pair"), (simulation, "label_pool"),
    ):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    for workers in (1, 2):
        experiments._seed_cached.cache_clear()
        calls.clear()
        result = sweep(config, workers=workers)
        assert len(result.rows) == 16 and not result.failures
        assert calls == {
            **{(what, seed): 1 for what in ("draw", "split") for seed in config.seeds},
            ("design", None): len(config.seeds),
        }
    assert _RecordingPool.sizes == [2]


def test_spawned_pool_workers_write_the_serial_report(tmp_path, monkeypatch):
    # a spawned worker inherits no cache from the parent, so it draws,
    # splits and builds each seed's design afresh
    config = tiny_config()
    sweep(config, output_dir=tmp_path / "serial")
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(
        experiments, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=spawn)
    )
    sweep(config, output_dir=tmp_path / "spawned", workers=2)
    assert (tmp_path / "spawned" / "report.csv").read_bytes() == (
        tmp_path / "serial" / "report.csv"
    ).read_bytes()


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        sweep(tiny_config(), workers=workers)


@pytest.mark.parametrize("workers", [True, 2.0, "2"])
def test_sweep_rejects_workers_that_are_not_an_int(workers):
    # True ran as one worker
    message = rf"^workers must be an integer, got {re.escape(repr(workers))}$"
    with pytest.raises(ValueError, match=message):
        sweep(tiny_config(), workers=workers)


# ---------------------------------------------------------------------------
# config files


def test_config_round_trip(tmp_path):
    config = tiny_config(difficult=True)
    path = tmp_path / "config.json"
    save_config(config, path)
    assert load_config(path) == config


def test_config_round_trip_with_file_gold():
    config = ExperimentConfig(gold="annotations.jsonl", task="HS", seeds=(1,), betas=(0.1,))
    assert config_from_dict(config_to_dict(config)) == config


def test_config_round_trip_rare_component():
    from pairsim.simulation import Rare

    spec = SyntheticGold(components=((Rare(0.167), 100), (Uniform(0.3, 0.7), 50)), seed=4)
    config = ExperimentConfig(gold=spec, seeds=(1,), split=(100, 25, 25))
    assert config_from_dict(config_to_dict(config)) == config


def _uniform(bounds):
    return Uniform(*sorted(bounds))


_shapes = st.one_of(
    st.tuples(st.floats(0, 1), st.floats(0, 1)).map(_uniform),
    st.floats(0, 1, exclude_min=True, exclude_max=True).map(Rare),
)


_seeds = st.integers(-(2**127), 2**127 - 1)


@st.composite
def configs(draw):
    """Configs of file or synthetic gold, with and without difficult mode."""
    difficult = draw(st.booleans())
    split = draw(st.tuples(st.integers(1, 40), st.integers(0, 40), st.integers(1, 40)))
    if draw(st.booleans()):
        gold = draw(st.text(min_size=1, max_size=8))
    else:
        # without difficult mode the components must hold the split's items
        total = draw(st.integers(1, 100)) if difficult else sum(split)
        cuts = sorted(draw(st.sets(st.integers(1, total - 1), max_size=2))) if total > 1 else []
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        gold = SyntheticGold(
            components=tuple((draw(_shapes), n) for n in sizes),
            vocab_size=draw(st.integers(2, 5000)),
            tokens_per_item=draw(st.integers(1, 100)),
            seed=draw(_seeds),
        )
    shares = [{"A": "1/2", "B": "1/2"}, {"A": "1/3", "B": "2/3"}, {"A": 0.25, "B": 0.75}]
    return ExperimentConfig(
        gold=gold,
        task=draw(st.sampled_from(["OL", "HS"])),
        betas=tuple(draw(st.lists(st.floats(0, 0.5), min_size=1, max_size=4, unique=True))),
        seeds=tuple(draw(st.lists(_seeds, min_size=1, max_size=4, unique=True))),
        split=split,
        recipes=tuple(draw(st.lists(st.sampled_from(simulation.RECIPES), min_size=1, unique=True))),
        benchmark=PopulationBenchmark(draw(st.sampled_from(shares))),
        train=TrainConfig(
            epochs=draw(st.integers(1, 6)),
            hash_dim=draw(st.integers(2, 2**16)),
            l2=draw(st.floats(1e-9, 1e3)),
        ),
        difficult=difficult,
    )


@settings(max_examples=150, deadline=None)
@given(configs())
def test_config_to_dict_then_from_dict_gives_the_config_back(config):
    d = config_to_dict(config)
    assert list(d) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert config_from_dict(d) == config
    # and through the JSON text that save_config writes
    assert config_from_dict(json.loads(json.dumps(d))) == config


def test_a_python_built_config_saves_the_bytes_it_loads_back_as(tmp_path):
    # ints in float fields are widened when the config is made, as when read
    config = tiny_config(
        gold=SyntheticGold(components=((Uniform(0, 1), 120),)), betas=(0,),
        train=TrainConfig(l2=1),
    )
    save_config(config, tmp_path / "a.json")
    save_config(load_config(tmp_path / "a.json"), tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert config.betas == (0.0,) and type(config.betas[0]) is float


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(seeds=(1.5,)), r"^seeds\[0\] must be an integer, got 1\.5$"),
        (dict(seeds=(True,)), r"^seeds\[0\] must be an integer, got True$"),
        (dict(split=(200.0, 50, 50)), r"^split\[0\] must be an integer, got 200\.0$"),
        (dict(split=(200, 50)), r"^split must have 3 entries, got \(200, 50\)$"),
        (dict(split=(200, -1, 50)), r"^split\[1\] \(dev items\) must be at least 0, got -1$"),
    ],
    ids=["float-seed", "bool-seed", "float-split", "two-counts", "negative-dev"],
)
def test_a_python_built_config_holds_to_the_json_integer_rule(change, message):
    # each of these would fail every cell, or run seed True as seed 1
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(load_config(CONFIG_DIR / "quick.json"), **change)


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(difficult=1), r"^difficult must be true or false, got 1$"),
        (dict(betas=("0.1",)), r"^betas\[0\] must be a number, got '0\.1'$"),
        (dict(betas=(0.1, True)), r"^betas\[1\] must be a number, got True$"),
    ],
    ids=["int-difficult", "str-beta", "bool-beta"],
)
def test_a_python_built_config_holds_to_the_json_bool_and_number_rules(change, message):
    # a config that runs is one that save_config writes and load_config reads
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(load_config(CONFIG_DIR / "quick.json"), **change)


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(train={"epochs": 1}), r"^train must be a TrainConfig, got \{'epochs': 1\}$"),
        (
            dict(benchmark={"A": 0.5, "B": 0.5}),
            r"^benchmark must be a PopulationBenchmark, got \{'A': 0\.5, 'B': 0\.5\}$",
        ),
        (dict(gold=5), r"^gold must be a SyntheticGold or a string, got 5$"),
        (dict(betas=[0.3]), r"^betas must be a tuple, got \[0\.3\]$"),
        (dict(split=[200, 50, 50]), r"^split must be a tuple, got \[200, 50, 50\]$"),
    ],
    ids=["dict-train", "dict-benchmark", "int-gold", "list-betas", "list-split"],
)
def test_a_python_built_config_holds_to_the_json_kind_rules(change, message):
    # each of these failed every cell of a sweep with a TypeError (a list or
    # a dict: unhashable) or an AttributeError
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(load_config(CONFIG_DIR / "quick.json"), **change)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: SyntheticGold(components=[(Uniform(0.0, 1.0), 300)]),
            r"^components must be a tuple, got \[\(Uniform\(low=0\.0, high=1\.0\), 300\)\]$",
        ),
        (
            lambda: SyntheticGold(components=((0.5, 300),)),
            r"^components\[0\]\[0\] must be a Uniform or a Rare, got 0\.5$",
        ),
        (
            lambda: SyntheticGold(components=((Uniform(0.0, 1.0), 5), (Rare(0.1),))),
            r"^components\[1\] must have 2 entries, got \(Rare\(mean=0\.1\),\)$",
        ),
        (lambda: Uniform(True, 1), r"^low must be a number, got True$"),
        (lambda: Uniform("0", 1), r"^low must be a number, got '0'$"),
        (lambda: Uniform(0, None), r"^high must be a number, got None$"),
        (lambda: Rare("0.1"), r"^mean must be a number, got '0\.1'$"),
        (lambda: BiasSpec(0.3, 5), r"^direction_by_stratum must be a mapping, got 5$"),
        (
            lambda: BiasSpec(0.3, {"A": "minus", 5: "plus"}),
            r"^direction_by_stratum key must be a string, got 5$",
        ),
        (lambda: PoolComposition([("A", 6)]), r"^counts must be a mapping, got \[\('A', 6\)\]$"),
        (lambda: WeightTable([1]), r"^raw must be a mapping, got \[1\]$"),
    ],
    ids=[
        "list-components", "float-component", "one-item-component",
        "bool-low", "str-low", "none-high", "str-mean",
        "int-directions", "int-stratum", "list-counts", "list-weights",
    ],
)
def test_python_built_gold_shapes_hold_to_the_json_rules(build, message):
    # a float component failed in load_gold with a TypeError, which is not
    # an input error; a str bound with a bare TypeError naming no field
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TrainConfig(hash_dim=64.5), r"^hash_dim must be an integer, got 64\.5$"),
        (lambda: TrainConfig(epochs=True), r"^epochs must be an integer, got True$"),
        (
            lambda: SyntheticGold(components=((Uniform(0.0, 1.0), 1.5),)),
            r"^components\[0\]\[1\] must be an integer, got 1\.5$",
        ),
        (
            lambda: SyntheticGold(components=((Uniform(0.0, 1.0), 3),), vocab_size=2000.0),
            r"^vocab_size must be an integer, got 2000\.0$",
        ),
        (
            lambda: SyntheticGold(components=((Uniform(0.0, 1.0), 3),), tokens_per_item=True),
            r"^tokens_per_item must be an integer, got True$",
        ),
        (
            lambda: SyntheticGold(components=((Uniform(0.0, 1.0), 3),), seed=0.5),
            r"^seed must be an integer, got 0\.5$",
        ),
    ],
    ids=["hash-dim", "epochs", "component-n", "vocab-size", "tokens-per-item", "gold-seed"],
)
def test_python_built_train_and_gold_settings_hold_to_the_json_integer_rule(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_config_validation():
    spec = SyntheticGold(components=((Uniform(0.0, 1.0), 10),))
    with pytest.raises(ValueError, match="task"):
        ExperimentConfig(gold=spec, task="XX")
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(gold=spec, seeds=())
    with pytest.raises(ValueError, match="beta"):
        ExperimentConfig(gold=spec, betas=(0.7,))
    with pytest.raises(ValueError, match="recipes"):
        ExperimentConfig(gold=spec, recipes=("bogus",))


@pytest.mark.parametrize(
    "field, values", [("betas", (0.1, 0.1)), ("seeds", (10, 42, 10)), ("recipes", ("adjusted",) * 2)]
)
def test_config_rejects_repeated_values(field, values):
    with pytest.raises(ValueError, match=f"{field} must not repeat a value"):
        tiny_config(**{field: values})


@pytest.mark.parametrize("seed", [2**127, -(2**127) - 1, 2**130])
def test_config_from_dict_rejects_a_seed_no_stream_key_holds(seed):
    # every cell would fail when it keys its first stream
    d = _full_config_dict()
    d["seeds"] = [1, seed]
    with pytest.raises(ValueError, match=f"seed {seed} outside the signed 128-bit range"):
        config_from_dict(d)
    d = _full_config_dict()
    d["gold"]["synthetic"]["seed"] = seed
    with pytest.raises(ValueError, match=f"gold seed {seed} outside the signed 128-bit range"):
        config_from_dict(d)


@pytest.mark.parametrize("field", ["betas", "seeds", "recipes"])
def test_config_from_dict_rejects_an_empty_grid_axis(field):
    # an empty axis would sweep no cell and write a header-only report
    d = _full_config_dict()
    d[field] = []
    with pytest.raises(ValueError, match=f"need at least one {field[:-1]}"):
        config_from_dict(d)


@pytest.mark.parametrize(
    "values, message",
    [
        ({"split": [0, 500, 500]}, r"split\[0\] \(train items\) must be at least 1, got 0"),
        ({"split": [2000, 500, 0]}, r"split\[2\] \(test items\) must be at least 1, got 0"),
        ({"betas": [0.1, 0.7]}, r"beta 0\.7 outside \[0, 0\.5\]"),
        ({"recipes": ["adjusted", "reweighted"]}, "unknown recipes: reweighted"),
        ({"task": "hs"}, "task must be 'OL' or 'HS', got 'hs'"),
        ({"split": [9, 3, 2]}, r"split \(9, 3, 2\) sums to 14, but the synthetic gold has 15 items"),
    ],
)
def test_config_from_dict_rejects_unrunnable_values_by_name(values, message):
    # each of these would make every cell of the sweep fail
    with pytest.raises(ValueError, match=message):
        config_from_dict({**_full_config_dict(), **values})


@pytest.mark.parametrize("key", ["difficult_lo", "difficult_hi"])
def test_the_difficult_band_is_not_a_config_key(key):
    # difficult mode keeps the items in simulation.DIFFICULT_BAND, [0.4, 0.6]
    with pytest.raises(ValueError, match=f"^unknown key '{key}' in config$"):
        config_from_dict({**_full_config_dict(), "difficult": True, key: 0.4})


@pytest.mark.parametrize("values", [{"difficult": True}, {"gold": {"file": "annotations.jsonl"}}])
def test_config_split_total_is_checked_when_run_for_filtered_or_file_gold(values):
    # the item count of these is known only once the gold table is built
    config = config_from_dict({**_full_config_dict(), "split": [9, 3, 2], **values})
    assert config.split == (9, 3, 2)


def test_config_from_dict_defaults_come_from_the_dataclasses():
    # 3000 items: the default split's total
    d = {"gold": {"synthetic": {"components": [{"shape": "uniform", "low": 0.0, "high": 1.0, "n": 3000}]}}}
    config = config_from_dict(d)
    assert config.gold == SyntheticGold(components=((Uniform(0.0, 1.0), 3000),))
    assert config.gold.tokens_per_item == SyntheticGold.tokens_per_item
    assert config == ExperimentConfig(gold=config.gold)
    partial = config_from_dict({**d, "train": {"epochs": 3}})
    assert partial.train == TrainConfig(epochs=3)


def _full_config_dict():
    return config_to_dict(
        tiny_config(
            gold=SyntheticGold(
                components=((Uniform(0.0, 1.0), 10), (Rare(0.1), 5)),
            ),
            split=(9, 3, 3),
        )
    )


@pytest.mark.parametrize(
    "path, key",
    [
        ((), "beta"),
        (("gold",), "synth"),
        (("gold", "synthetic"), "vocab"),
        (("gold", "synthetic", "components", 0), "lo"),
        (("gold", "synthetic", "components", 1), "low"),
        (("train",), "learning-rate"),
    ],
)
def test_config_from_dict_rejects_unknown_keys_by_name(path, key):
    d = _full_config_dict()
    node = d
    for step in path:
        node = node[step]
    node[key] = 1
    with pytest.raises(ValueError, match=f"unknown key '{key}'"):
        config_from_dict(d)


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("difficult",), "false", "config.difficult"),
        (("difficult",), 0, "config.difficult"),
        (("gold", "synthetic", "tokens_per_item"), "20", "gold.synthetic.tokens_per_item"),
        (("task",), 5, "config.task"),
        (("seeds",), [10.7], r"config.seeds\[0\]"),
        (("seeds",), [True], r"config.seeds\[0\]"),
        (("seeds",), 10, "config.seeds"),
        (("betas",), [0.1, "0.3"], r"config.betas\[1\]"),
        (("split",), [80.0, 20, 20], r"config.split\[0\]"),
        (("recipes",), "adjusted", "config.recipes"),
        (("train", "epochs"), 2.9, "train.epochs"),
        (("train", "epochs"), 3.0, "train.epochs"),
        (("train", "hash_dim"), True, "train.hash_dim"),
        (("train", "l2"), False, "train.l2"),
        (("train", "l2"), None, "train.l2"),
        (("gold", "synthetic", "vocab_size"), 200.0, "gold.synthetic.vocab_size"),
        (("gold", "synthetic", "components", 0, "n"), 10.5, r"components\[0\].n"),
        (("gold", "synthetic", "components", 1, "mean"), "0.1", r"components\[1\].mean"),
    ],
)
def test_config_from_dict_rejects_wrong_types_by_name(path, value, where):
    d = _full_config_dict()
    node = d
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    with pytest.raises(ValueError, match=f"{where} must be"):
        config_from_dict(d)


@pytest.mark.parametrize(
    "index, key", [(0, "low"), (0, "high"), (1, "mean"), (0, "n"), (1, "n")]
)
def test_config_from_dict_names_missing_component_keys(index, key):
    d = _full_config_dict()
    del d["gold"]["synthetic"]["components"][index][key]
    where = rf"gold\.synthetic\.components\[{index}\]\.{key}"
    with pytest.raises(ValueError, match=f"{where} is missing"):
        config_from_dict(d)


def test_config_from_dict_names_missing_gold():
    d = _full_config_dict()
    del d["gold"]
    with pytest.raises(ValueError, match=r"config\.gold is missing"):
        config_from_dict(d)


def test_config_from_dict_widens_integers_for_float_fields():
    d = _full_config_dict()
    d["betas"] = [0, 0.5]
    d["train"]["l2"] = 1
    config = config_from_dict(d)
    assert config.betas == (0.0, 0.5) and all(type(b) is float for b in config.betas)
    assert type(config.train.l2) is float


@pytest.mark.parametrize(
    "value, message",
    [
        ({"epochs": 2.9}, r"^config\.train\.epochs must be an integer, got 2\.9$"),
        ({"epochz": 2}, r"^unknown key 'epochz' in config\.train$"),
        ([2], r"^config\.train must be a JSON object, got list$"),
    ],
)
def test_config_from_dict_names_train_fields_under_config(value, message):
    d = _full_config_dict()
    d["train"] = value
    with pytest.raises(ValueError, match=message):
        config_from_dict(d)


def test_config_from_dict_rejects_bad_train_values_by_name():
    d = _full_config_dict()
    d["train"]["l2"] = 0
    with pytest.raises(ValueError, match="l2"):
        config_from_dict(d)


@pytest.mark.parametrize(
    "shares, message",
    [
        ({"A": True, "B": 0}, "benchmark.A must be a number, got True"),
        ({"A": 0.5, "B": None}, "benchmark.B must be a number, a string or a Fraction, got None"),
        ({"A": "half", "B": "1/2"}, "benchmark.A must be a number or a fraction string"),
        ({"A": "1/0", "B": "1/2"}, "benchmark.A must be a number or a fraction string"),
        ({"A": float("inf"), "B": 0.5}, "benchmark.A must be finite"),
        ([0.5, 0.5], r"config\.benchmark must be a JSON object, got \[0.5, 0.5\]"),
    ],
)
def test_config_from_dict_rejects_bad_benchmarks_by_name(shares, message):
    d = _full_config_dict()
    d["benchmark"] = shares
    with pytest.raises(ValueError, match=message):
        config_from_dict(d)


def test_config_from_dict_reads_benchmark_strings_and_numbers_exactly():
    d = _full_config_dict()
    d["benchmark"] = {"A": "1/3", "B": 0.5, "C": "1/6"}
    shares = config_from_dict(d).benchmark.shares
    assert shares == {"A": Fraction(1, 3), "B": Fraction(1, 2), "C": Fraction(1, 6)}
    d["benchmark"] = {"A": 1}
    assert config_from_dict(d).benchmark.shares == {"A": 1}


def test_config_from_dict_rejects_ambiguous_gold():
    d = _full_config_dict()
    d["gold"]["file"] = "annotations.jsonl"
    with pytest.raises(ValueError, match="exactly one"):
        config_from_dict(d)


# ---------------------------------------------------------------------------
# the kind rule of every config dataclass, generated from the annotations


def _in_config(*path):
    """The JSON door of the object at ``path`` in a config: the config
    read with one field of that object set to a value, and the field's
    place as errors name it."""

    def door(field, value):
        d = node = _full_config_dict()
        for step in path:
            node = node[step]
        node[field] = value
        where = "config" + "".join(f"[{s}]" if type(s) is int else f".{s}" for s in path)
        return partial(config_from_dict, d), f"{where}.{field}"

    return door


def _as_object(build):
    """The JSON door of a dataclass read by typed_object: the object of
    ``build()``'s fields with one set to a value, read as ``x``."""

    def door(field, value):
        instance = build()
        d = {name: getattr(instance, name) for name in _schema(type(instance))[0]}
        d[field] = value
        return partial(typed_object, d, type(instance), "x"), f"x.{field}"

    return door


def _config():
    return config_from_dict(_full_config_dict())


_COMPONENTS = ("gold", "synthetic", "components")

# each class under the kind rule: a valid instance, and its JSON door; a
# benchmark's JSON form is the mapping of its shares
_KIND_CHECKED = {
    ExperimentConfig: (_config, _in_config()),
    SyntheticGold: (lambda: _config().gold, _in_config("gold", "synthetic")),
    Uniform: (lambda: _config().gold.components[0][0], _in_config(*_COMPONENTS, 0)),
    Rare: (lambda: _config().gold.components[1][0], _in_config(*_COMPONENTS, 1)),
    TrainConfig: (lambda: _config().train, _in_config("train")),
    PopulationBenchmark: (lambda: _config().benchmark, lambda _, value: (
        partial(config_from_dict, {**_full_config_dict(), "benchmark": value}), "config.benchmark"
    )),
    PoolComposition: (lambda: PoolComposition({"A": 6, "B": 3}), None),
    DatasetMeta: (lambda: DatasetMeta("OL", "custom", 0.3, 10), None),
    BiasSpec: (lambda: BiasSpec.two_type(0.3), None),
    WeightTable: (lambda: WeightTable({"A": Fraction(1), "B": Fraction(2)}), None),
}

# values of many kinds, and those that JSON has
_PYTHON_VALUES = (None, True, 0, 1.5, "x", (), (1,), [1], {"a": 1}, Fraction(1, 3))
_JSON_VALUES = (None, True, 0, 1.5, "x", [], [1], {"a": 1})


def _admits(kind, from_json: bool) -> tuple[type, ...]:
    """The types of the values an annotation admits at its top level."""
    origin = typing.get_origin(kind)
    if origin in (typing.Union, types.UnionType):
        return tuple(t for member in typing.get_args(kind) for t in _admits(member, from_json))
    if origin is tuple:
        return (list,) if from_json else (tuple,)
    if origin is collections.abc.Mapping or from_json and dataclasses.is_dataclass(kind):
        return (dict,) if from_json else (collections.abc.Mapping,)
    return (int, float) if kind is float else (kind,)


def _wrong(kind, from_json: bool):
    """Values not of ``kind``: at the top level, or as an entry of a tuple or
    a mapping, or (from Python) a mapping's key."""
    admits = _admits(kind, from_json)
    values = _JSON_VALUES if from_json else _PYTHON_VALUES
    wrong = st.sampled_from([
        v for v in values if not isinstance(v, admits) or type(v) is bool and bool not in admits
    ])
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is tuple:
        wrong |= _wrong(args[0], from_json).map(lambda v: [v] if from_json else (v,))
    if origin is collections.abc.Mapping:
        wrong |= _wrong(args[1], from_json).map(lambda v: {"A": v})
        if not from_json:
            wrong |= st.sampled_from([5, (1,), Fraction(1, 3)]).map(lambda k: {k: None})
    return wrong


def _under_the_kind_rule():
    """Every dataclass of the package whose __post_init__ calls check_fields."""
    return [
        cls
        for module in (adjust, experiments, simulation, trainer)
        for cls in vars(module).values()
        if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
        and hasattr(cls, "__post_init__")
        and "check_fields(self)" in inspect.getsource(cls.__post_init__)
    ]


@pytest.mark.parametrize(
    "cls, field",
    [
        (cls, field)
        for cls in dict.fromkeys([*_KIND_CHECKED, *_under_the_kind_rule()])
        for field in _schema(cls)[0]
    ],
    ids=lambda x: x.__name__ if isinstance(x, type) else x,
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_config_field_rejects_a_value_of_another_kind_by_name(cls, field, data):
    # a new field is covered with no new line, and a new class under the
    # rule needs an entry in _KIND_CHECKED
    build, door = _KIND_CHECKED[cls]
    kind = _schema(cls)[0][field]
    value = data.draw(_wrong(kind, from_json=False), label="python")
    with pytest.raises(ValueError, match=rf"^{field}(\[[^]]*\]| key)* must (be|have) "):
        dataclasses.replace(build(), **{field: value})
    read, where = (door or _as_object(build))(field, data.draw(_wrong(kind, True), label="json"))
    # a gold component's JSON form is an object keyed by its shape
    at = re.escape(where)
    message = rf"^({at}(\[\d+\]|\.\w+)* must (be|have) |unknown gold shape .* in {at}\[)"
    with pytest.raises(ValueError, match=message):
        read()



CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_shipped_configs_load(name):
    config = load_config(CONFIG_DIR / name)
    assert config_from_dict(config_to_dict(config)) == config


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_shipped_configs_are_in_canonical_form(name):
    # every field stated, no removed key and no default relied on
    path = CONFIG_DIR / name
    assert config_to_dict(load_config(path)) == json.loads(path.read_text(encoding="utf-8"))


def test_fast_training_variant_of_the_trend_config_loads():
    d = json.loads((CONFIG_DIR / "trend-beta030.json").read_text(encoding="utf-8"))
    d["train"] = {**d["train"], "epochs": 1, "hash_dim": 4096}
    d["betas"], d["seeds"] = [0.1, 0.3], [17, 4242]
    config = config_from_dict(d)
    assert config.train == TrainConfig(epochs=1, hash_dim=4096)
    assert (config.betas, config.seeds) == ((0.1, 0.3), (17, 4242))


# ---------------------------------------------------------------------------
# sweep table bytes


_PINNED_ROWS = {
    ("adjusted", 10): experiments.ResultRow("OL", "adjusted", 0.1, 10, 0.1, 1.0, 0.3, 20, 0.03125),
    ("representative", 10): experiments.ResultRow(
        "OL", "representative", 0.1, 10, 0.25, 0.5, 0.125, 20, 1.5
    ),
    ("representative", 42): experiments.ResultRow(
        "OL", "representative", 0.1, 42, 0.75, 0.5, 0.375, 20, 2.25
    ),
}


def _pinned_outcome(args):
    config, recipe, beta, seed = args
    if (recipe, seed) in _PINNED_ROWS:
        return _PINNED_ROWS[recipe, seed], None
    return None, experiments.CellFailure("OL", recipe, beta, seed, 'bad "share", stratum C')


def test_sweep_tables_are_pinned_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_cell_outcome", _pinned_outcome)
    result = sweep(tiny_config(betas=(0.1,)), output_dir=tmp_path)
    assert len(result.rows) == 3 and len(result.failures) == 1
    assert (tmp_path / "report.csv").read_bytes() == (
        b"row_type,task,recipe,beta,seed,n_items,acb,f1,positive_proportion,"
        b"n_seeds,acb_std,f1_std,positive_proportion_std\n"
        b"cell,OL,adjusted,0.1,10,20,0.1,1.0,0.3,,,,\n"
        b"cell,OL,representative,0.1,10,20,0.25,0.5,0.125,,,,\n"
        b"cell,OL,representative,0.1,42,20,0.75,0.5,0.375,,,,\n"
        b"mean,OL,adjusted,0.1,,,0.1,1.0,0.3,1,0.0,0.0,0.0\n"
        b"mean,OL,representative,0.1,,,0.5,0.5,0.25,2,0.25,0.0,0.125\n"
    )
    assert (tmp_path / "timings.csv").read_bytes() == (
        b"task,recipe,beta,seed,wall_time\n"
        b"OL,adjusted,0.1,10,0.03125\n"
        b"OL,representative,0.1,10,1.5\n"
        b"OL,representative,0.1,42,2.25\n"
    )
    assert (tmp_path / "failures.csv").read_bytes() == (
        b"task,recipe,beta,seed,error\n"
        b'OL,adjusted,0.1,42,"bad ""share"", stratum C"\n'
    )


def test_write_report_is_pinned_byte_for_byte(tmp_path):
    from pairsim.metrics import AggregateReport

    rows = [_PINNED_ROWS["adjusted", 10]]
    aggregates = {
        ("OL", "adjusted", 0.1): AggregateReport(
            mean={"acb": 1 / 3, "f1": 0.0, "positive_proportion": 1e-05},
            std={"acb": 0.5, "f1": 2.0, "positive_proportion": 0.1 + 0.2},
            seeds=(10, 42, 512),
        )
    }
    path = tmp_path / "report.csv"
    experiments.write_report(rows, aggregates, path)
    assert path.read_bytes() == (
        b"row_type,task,recipe,beta,seed,n_items,acb,f1,positive_proportion,"
        b"n_seeds,acb_std,f1_std,positive_proportion_std\n"
        b"cell,OL,adjusted,0.1,10,20,0.1,1.0,0.3,,,,\n"
        b"mean,OL,adjusted,0.1,,,0.3333333333333333,0.0,1e-05,3,0.5,2.0,0.30000000000000004\n"
    )
    assert read_report_cells(path) == (dataclasses.replace(rows[0], wall_time=0.0),)


def test_quick_cell_model_is_pinned_bit_for_bit(monkeypatch):
    # one trained cell at the scale of configs/quick.json (200 training
    # items, 3 path points, 4096 hash columns): its weights, bias, chosen
    # path point and selection losses, hashed exactly
    trained = []
    original = experiments.fit

    def capturing_fit(*args, **kwargs):
        trained.append(original(*args, **kwargs))
        return trained[-1]

    monkeypatch.setattr(experiments, "fit", capturing_fit)
    run_cell(load_config(CONFIG_DIR / "quick.json"), 0.3, 10, "adjusted")
    (model,) = trained
    digest = hashlib.sha256(model.weights.tobytes())
    digest.update(
        json.dumps([model.bias.hex(), model.best_epoch, [x.hex() for x in model.history]]).encode()
    )
    assert digest.hexdigest() == (
        "ecb513a7ccd5f8ca982e8e06055a5a9bf59e32e7b8ce9f9191f0d9c7c9b81ddc"
    )

import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest

from pairsim.adjust import PopulationBenchmark
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
from pairsim.simulation import Rare, Uniform, synth_gold
from pairsim.trainer import TrainConfig

TINY_TRAIN = TrainConfig(epochs=2, learning_rate=0.2, hash_dim=512, batch_size=32)


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
    # recount: each p_gold must be attainable from the raw labels
    for entry, raw in zip(result.gold.entries, result.raw):
        kept_positives = entry.p_gold * 12
        assert abs(kept_positives - round(kept_positives)) < 1e-9
        assert 0 <= round(kept_positives) <= sum(raw.labels)


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


def test_ingest_rejects_empty(tmp_path):
    path = tmp_path / "annotations.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no valid"):
        ingest_external(path, task="OL")


# ---------------------------------------------------------------------------
# run_cell


def test_run_cell_adjusted_recipe_structure():
    config = tiny_config()
    gold = load_gold(config)
    from pairsim.experiments import _recipe_dataset, _suite_cached

    suite = _suite_cached(gold, 0.3, 10, "OL")
    adjusted = _recipe_dataset(suite, "adjusted", config.benchmark)
    for recs in adjusted.records_by_item().values():
        assert len(recs) == 12
        assert Counter(r.stratum_id for r in recs) == {"A": 6, "B": 6}
        assert sum(r.source == "replica" for r in recs) == 3


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


def test_run_cell_wraps_errors_with_context():
    from pairsim.experiments import CellError

    config = tiny_config(benchmark=PopulationBenchmark({"A": 0.4, "B": 0.4, "C": 0.2}))
    with pytest.raises(CellError, match=r"recipe=adjusted beta=0.3 seed=10"):
        run_cell(config, 0.3, 10, "adjusted")


def test_run_cell_difficult_mode():
    config = tiny_config(n=300, split=(200, 50, 50), difficult=True)
    gold = load_gold(config)
    assert all(0.4 <= e.p_gold <= 0.6 for e in gold.entries)
    row = run_cell(config, 0.1, 42, "representative")
    assert row.n_items == scaled_split(len(gold), (200, 50, 50))[2]


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


# ---------------------------------------------------------------------------
# config files


def test_config_round_trip(tmp_path):
    config = tiny_config(difficult=True, difficult_lo=0.3, difficult_hi=0.7)
    path = tmp_path / "config.json"
    save_config(config, path)
    assert load_config(path) == config


def test_config_round_trip_with_file_gold():
    config = ExperimentConfig(gold="annotations.jsonl", task="HS", seeds=(1,), betas=(0.1,))
    assert config_from_dict(config_to_dict(config)) == config


def test_config_round_trip_rare_component():
    from pairsim.simulation import Rare

    spec = SyntheticGold(components=((Rare(0.167), 100), (Uniform(0.3, 0.7), 50)), seed=4)
    config = ExperimentConfig(gold=spec, seeds=(1,))
    assert config_from_dict(config_to_dict(config)) == config


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


def test_config_from_dict_defaults_come_from_the_dataclasses():
    d = {"gold": {"synthetic": {"components": [{"shape": "uniform", "low": 0.0, "high": 1.0, "n": 10}]}}}
    config = config_from_dict(d)
    assert config.gold == SyntheticGold(components=((Uniform(0.0, 1.0), 10),))
    assert config.gold.tokens_per_item == SyntheticGold.tokens_per_item
    assert config == ExperimentConfig(gold=config.gold)
    partial = config_from_dict({**d, "train": {"epochs": 3}})
    assert partial.train == TrainConfig(epochs=3)


def _full_config_dict():
    return config_to_dict(
        tiny_config(
            gold=SyntheticGold(
                components=((Uniform(0.0, 1.0), 10), (Rare(0.1), 5)),
            )
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


def test_config_from_dict_rejects_bad_train_values_by_name():
    d = _full_config_dict()
    d["train"]["batch_size"] = 0
    with pytest.raises(ValueError, match="batch_size"):
        config_from_dict(d)


def test_config_from_dict_rejects_ambiguous_gold():
    d = _full_config_dict()
    d["gold"]["file"] = "annotations.jsonl"
    with pytest.raises(ValueError, match="exactly one"):
        config_from_dict(d)


@pytest.mark.parametrize("name", ["quick.json", "trend-beta030.json", "paper-grid-ol.json"])
def test_shipped_configs_load(name):
    path = Path(__file__).resolve().parent.parent / "configs" / name
    config = load_config(path)
    assert config_from_dict(config_to_dict(config)) == config

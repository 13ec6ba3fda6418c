import hashlib
import inspect
import json
import re
from collections import Counter
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Mapping, Union

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairsim import adjust, experiments, simulation, trainer
from pairsim.adjust import PopulationBenchmark, apply_pair, read_benchmark
from pairsim.experiments import ingest_external, load_config, load_gold, read_report_cells
from pairsim.rng import stream
from pairsim.simulation import (
    Annotation,
    BiasSpec,
    Dataset,
    DatasetMeta,
    GoldEntry,
    GoldTable,
    TextColumn,
    RECIPES,
    PoolComposition,
    Rare,
    Uniform,
    annotation_row,
    build_suite,
    derive_gold,
    draw_pool,
    draw_suite,
    filter_difficult,
    label_pool,
    read_dataset,
    read_gold,
    sample_pool,
    shift_probability,
    subsample_indices,
    synth_gold,
    synth_text,
    typed,
    write_dataset,
    write_gold,
)
from pairsim.trainer import load_model
from test_columns import dataset_columns, decoded_records, gold_columns


def flat_gold(ps, k=12):
    return GoldTable.from_entries(
        tuple(GoldEntry(f"it{i:04d}", ("tok",), p, k) for i, p in enumerate(ps))
    )


# ---------------------------------------------------------------------------
# derive_gold


def test_derive_gold_mean():
    gold = derive_gold([("a", "some text", [1, 1, 0, 0] * 3)])
    assert gold.entries[0].p_gold == 0.5
    assert gold.entries[0].k_reference == 12
    assert gold.entries[0].text == ("some", "text")


def test_derive_gold_all_negative():
    gold = derive_gold([("a", "t", [0] * 12)])
    assert gold.entries[0].p_gold == 0.0


def test_derive_gold_rejects_empty_item():
    with pytest.raises(ValueError, match="'bad-item'"):
        derive_gold([("ok", "t", [1] * 12), ("bad-item", "t", [])])


def test_derive_gold_rejects_non_binary():
    with pytest.raises(ValueError, match="non-binary"):
        derive_gold([("a", "t", [0, 2, 1] + [0] * 9)])


def test_derive_gold_subsample_recount_oracle():
    # recount: recompute the retained subset independently and compare means
    labels = [1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1]
    gold = derive_gold([("a", "t", labels)])
    entry = gold.entries[0]
    assert entry.k_reference == 12
    keep = subsample_indices(0, 15)
    assert len(keep) == 12 and len(set(keep)) == 12
    assert all(0 <= i < 15 for i in keep)
    assert entry.p_gold == sum(labels[i] for i in keep) / 12


def test_derive_gold_subsample_deterministic():
    labels = [1, 0] * 8
    g1 = derive_gold([("a", "t", labels)])
    g2 = derive_gold([("a", "t", labels)])
    assert g1.entries[0].p_gold == g2.entries[0].p_gold


def test_derive_gold_subsample_too_few():
    with pytest.raises(ValueError, match="has 11 annotations, cannot draw 12"):
        derive_gold([("a", "t", [1, 0] * 5 + [1])])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), min_size=12, max_size=18), min_size=1, max_size=6))
def test_derive_gold_subsample_draws_are_those_of_each_rows_stream(labels):
    # row i keeps the 12 labels that stream(0, "subsample", i) chooses
    rows = [(f"it{i}", "t", row) for i, row in enumerate(labels)]
    gold = derive_gold(rows)
    for i, (entry, row) in enumerate(zip(gold.entries, labels)):
        if len(row) > 12:
            keep = stream(0, "subsample", i).choice(len(row), size=12, replace=False)
        else:
            keep = range(len(row))
        assert entry.p_gold == sum(row[j] for j in keep) / 12
        assert entry.k_reference == 12


def test_annotation_row_splits_text_and_checks_labels():
    labels = (1, 0) * 6
    assert annotation_row("a", " some  text ", list(labels)) == ("a", ("some", "text"), labels)
    assert annotation_row("a", ["tok", "en"], (0,) * 12) == ("a", ("tok", "en"), (0,) * 12)
    with pytest.raises(ValueError, match="no annotations"):
        annotation_row("a", "t", [])
    with pytest.raises(ValueError, match="non-binary"):
        annotation_row("a", "t", [0, 2] * 6)
    with pytest.raises(ValueError, match="has 2 annotations, cannot draw 12"):
        annotation_row("a", "t", [0, 1])


@pytest.mark.parametrize("text", [{"x": 1}, 5], ids=["mapping", "int"])
def test_annotation_row_names_a_text_that_is_no_token_sequence(text):
    # a mapping's keys were once taken for its tokens, and an int was a TypeError
    message = rf"^item 'a': text must be a sequence of tokens, got {re.escape(repr(text))}$"
    with pytest.raises(ValueError, match=message):
        annotation_row("a", text, [0] * 12)


@pytest.mark.parametrize("label", [True, False, 1.0, 0.0, "1", None])
def test_annotation_row_takes_only_the_integers_0_and_1(label):
    # True == 1 and 1.0 == 1 in Python, but neither is a label
    with pytest.raises(ValueError, match=rf"non-binary labels: \[{label!r}\]"):
        annotation_row("a", "t", [0, label] + [1] * 10)


@pytest.mark.parametrize(
    "columns, message",
    [
        (("a", (), "0.5", 12), "p_gold must be a number, got '0.5'"),
        (("a", (), True, 12), "p_gold must be a number, got True"),
        (("a", (), None, 12), "p_gold must be a number, got None"),
        (("a", (), 0.5, 12.5), "k_reference must be an integer, got 12.5"),
        (("a", (), 0.5, "3"), "k_reference must be an integer, got '3'"),
        (("a", (), 0.5, True), "k_reference must be an integer, got True"),
        (("a", "x y", 0.5, 12), "text must be a sequence of tokens, got 'x y'"),
    ],
)
def test_gold_table_casts_no_value(columns, message):
    # the table once stored k_reference 12.5 as 12, "3" as 3, p_gold "0.5"
    # as 0.5 and True as 1.0, and kept a str text, whose characters would
    # be taken for tokens
    pattern = rf"^item 'a': {re.escape(message)}$"
    with pytest.raises(ValueError, match=pattern):
        GoldTable.from_entries((GoldEntry("ok", ("t",), 0.5, 12), GoldEntry(*columns)))
    with pytest.raises(ValueError, match=pattern):
        GoldTable(*([value] for value in columns))


@pytest.mark.parametrize(
    "p_gold, k_reference, message",
    [
        (np.array([True]), np.array([12]), "p_gold must be a number, got np.True_"),
        (np.array([0.5]), np.array([12.5]), "k_reference must be an integer, got np.float64(12.5)"),
        (np.array(["0.5"]), np.array([12]), "p_gold must be a number, got np.str_('0.5')"),
    ],
)
def test_gold_table_takes_only_numeric_arrays_as_they_are(p_gold, k_reference, message):
    with pytest.raises(ValueError, match=rf"^item 'a': {re.escape(message)}$"):
        GoldTable(("a",), ((),), p_gold, k_reference)


@pytest.mark.parametrize(
    "text, message",
    [
        ((1, 2), "token 1 is not a string"),
        (("ok", None), "token None is not a string"),
        (("ok", ["x"]), "token ['x'] is not a string"),
        (("\ud800",), "token '\\ud800' cannot be encoded as UTF-8"),
    ],
)
def test_gold_table_names_the_item_of_a_bad_token(text, message):
    # these tables were once accepted and failed later, in featurize, with
    # an AttributeError or a UnicodeEncodeError naming no item
    pattern = rf"^item 'a': {re.escape(message)}$"
    with pytest.raises(ValueError, match=pattern):
        GoldTable.from_entries((GoldEntry("ok", ("t",), 0.5, 12), GoldEntry("a", text, 0.5, 12)))
    with pytest.raises(ValueError, match=pattern):
        GoldTable(("ok", "a"), (("t",), text), np.array([0.5, 0.5]), np.array([12, 12]))


def test_gold_table_checks_a_text_columns_vocabulary_once_per_entry():
    text = TextColumn(("t", "\ud800", 5), [0, 0, 1, 0], [0, 1, 1, 3, 4])
    with pytest.raises(ValueError, match=r"^item 'c': token '\\ud800' cannot be encoded"):
        GoldTable(("a", "b", "c", "d"), text, np.full(4, 0.5), np.full(4, 12))
    # an entry no item uses is never hashed, so it is no error
    unused = TextColumn(("t", 5), [0], [0, 1])
    assert GoldTable(("a",), unused, np.full(1, 0.5), np.full(1, 12)).texts() == {"a": ("t",)}


@pytest.mark.parametrize(
    "vocab, codes, offsets, message",
    [
        (("a",), [0], [1, 1], "offsets must rise from 0"),
        (("a",), [0], [0, 2], "offsets must rise from 0"),
        (("a",), [0, 0], [0, 2, 1, 2], "offsets must rise from 0"),
        (("a",), [1], [0, 1], "codes must index the 1 vocabulary entries"),
        (("a",), [-1], [0, 1], "codes must index the 1 vocabulary entries"),
        (("a", "a"), [0], [0, 1], "vocabulary repeats a token"),
        (("x", "y"), np.array([0.9, 1.7]), [0, 1, 2], "codes must be integers, got float64"),
        (("a",), [0], [0.0, 1.0], "offsets must be integers, got float64"),
        (("a", "b"), [True, False], [0, 2], "codes must be integers, got bool"),
    ],
)
def test_text_column_rejects_codes_that_are_not_texts(vocab, codes, offsets, message):
    with pytest.raises(ValueError, match=message):
        TextColumn(vocab, codes, offsets)
    # an empty list names no code, so it is no error
    assert list(TextColumn((), [], [0, 0])) == [()]


def test_text_column_rejects_a_str_text_by_its_index():
    # a str was once coded as its characters, "x y" as ('x', ' ', 'y'), and
    # a gold table took that column although it rejects the str itself
    message = r"text must be a sequence of tokens, got 'x y'$"
    with pytest.raises(ValueError, match=rf"^text 1: {message}"):
        TextColumn.of([("x",), "x y"])
    with pytest.raises(ValueError, match=rf"^item 'a': {message}"):
        GoldTable(("a",), ["x y"], np.array([0.5]), np.array([12]))
    assert TextColumn.of([("x", " ", "y")]).vocab == ("x", " ", "y")


@pytest.mark.parametrize("count", [1.5, True])
def test_a_pool_composition_count_is_an_int(count):
    # 1.5 failed inside numpy, and True counted as 1
    with pytest.raises(ValueError, match=rf"^counts\['A'\] must be an integer, got {count}$"):
        PoolComposition({"A": count})


def test_text_column_compares_texts_not_vocabulary_order():
    a = TextColumn(("x", "y"), [0, 1, 1], [0, 1, 3])
    assert a == TextColumn(("y", "x", "z"), [1, 0, 0], [0, 1, 3])
    assert a != TextColumn(("y", "x"), [0, 1, 1], [0, 1, 3])
    assert a != TextColumn(("x", "y"), [0, 1, 1], [0, 2, 3])
    assert list(a) == [("x",), ("y", "y")] and a[1] == ("y", "y") and len(a) == 2
    assert not a.codes.flags.writeable and not a.offsets.flags.writeable


@pytest.mark.parametrize(
    "item_id, text, p_gold, k_reference, lengths",
    [
        (("a", "b"), TextColumn.of([("x",)]), np.full(2, 0.5), np.full(2, 12), (2, 1, 2, 2)),
        (("a", "b"), [("x",)], [0.5, 0.5], [12, 12], (2, 1, 2, 2)),
        (("a",), [("x",)], np.full(2, 0.5), np.full(2, 12), (1, 1, 2, 2)),
        (("a",), [("x",)], [0.5], [12, 12], (1, 1, 1, 2)),
    ],
)
def test_gold_table_rejects_columns_of_different_lengths(
    item_id, text, p_gold, k_reference, lengths
):
    # a shorter column was once cut off silently by a zip, dropping items
    message = "gold columns differ in length: {} item ids, {} texts, {} p_gold, {} k_reference"
    with pytest.raises(ValueError, match=f"^{message.format(*lengths)}$"):
        GoldTable(item_id, text, p_gold, k_reference)


def test_gold_table_rejects_duplicates_and_bad_p():
    with pytest.raises(ValueError, match="duplicate"):
        GoldTable.from_entries((GoldEntry("a", (), 0.5, 12), GoldEntry("a", (), 0.2, 12)))
    with pytest.raises(ValueError, match="outside"):
        GoldTable.from_entries((GoldEntry("a", (), 1.2, 12),))


# ---------------------------------------------------------------------------
# shift_probability


def test_shift_plus():
    assert shift_probability(0.5, 0.3, "plus") == 0.8


def test_shift_ceiling_clamp():
    assert shift_probability(0.9, 0.3, "plus") == 1.0


def test_shift_floor_clamp():
    assert shift_probability(0.1, 0.3, "minus") == 0.0


def test_shift_rejects_bad_inputs():
    with pytest.raises(ValueError):
        shift_probability(1.5, 0.1, "plus")
    with pytest.raises(ValueError):
        shift_probability(0.5, 0.7, "plus")
    with pytest.raises(ValueError):
        shift_probability(0.5, 0.1, "sideways")


# ---------------------------------------------------------------------------
# sample_pool


def test_sample_pool_monte_carlo_mean():
    # 2000 items x 12 draws at p=0.5: the 3-sigma band is well inside [0.48, 0.52]
    gold = flat_gold([0.5] * 2000)
    ds = sample_pool(gold, PoolComposition({"A": 6, "B": 6}), BiasSpec.two_type(0.0), seed=17)
    records = decoded_records(ds)
    mean = sum(r.label for r in records) / len(records)
    assert 0.48 <= mean <= 0.52


def test_sample_pool_certain_positive():
    gold = flat_gold([1.0] * 20)
    ds = sample_pool(gold, PoolComposition({"B": 6}), BiasSpec.two_type(0.2), seed=1)
    assert all(r.label == 1 for r in decoded_records(ds))


def test_sample_pool_clamped_negative():
    gold = flat_gold([0.0] * 20)
    ds = sample_pool(gold, PoolComposition({"A": 6}), BiasSpec.two_type(0.3), seed=1)
    assert all(r.label == 0 for r in decoded_records(ds))


def test_sample_pool_rejects_empty_gold():
    with pytest.raises(ValueError, match="empty"):
        sample_pool(GoldTable.from_entries(()), PoolComposition({"A": 1}), BiasSpec.two_type(0.1), seed=1)


def test_sample_pool_rejects_unknown_stratum():
    gold = flat_gold([0.5])
    with pytest.raises(ValueError, match="C"):
        sample_pool(gold, PoolComposition({"C": 2}), BiasSpec.two_type(0.1), seed=1)


def test_sample_pool_record_invariants():
    gold = flat_gold([0.2, 0.6, 0.9])
    ds = sample_pool(gold, PoolComposition({"A": 4, "B": 2}), BiasSpec.two_type(0.1), seed=5)
    assert ds.meta == DatasetMeta("OL", "custom", 0.1, 5)
    records = decoded_records(ds)
    assert {r.stratum_id for r in records} == {"A", "B"}
    per_item = {}
    for r in records:
        per_item.setdefault(r.item_id, []).append(r)
    for recs in per_item.values():
        assert Counter(r.stratum_id for r in recs) == {"A": 4, "B": 2}
        assert all(r.source == "original" for r in recs)


def test_sample_pool_deterministic():
    gold = flat_gold([0.3, 0.7])
    a = sample_pool(gold, PoolComposition({"A": 6, "B": 6}), BiasSpec.two_type(0.2), seed=9)
    b = sample_pool(gold, PoolComposition({"A": 6, "B": 6}), BiasSpec.two_type(0.2), seed=9)
    assert dataset_columns(a) == dataset_columns(b)


# ---------------------------------------------------------------------------
# build_suite


def test_suite_per_item_counts():
    gold = synth_gold(40, Uniform(0.2, 0.8), seed=2)
    suite = build_suite(gold, 0.15, seed=4)
    for ds, expected in (
        (suite.representative, {"A": 6, "B": 6}),
        (suite.nonrep1, {"A": 6, "B": 3}),
        (suite.nonrep2, {"A": 9, "B": 3}),
    ):
        strata = {}
        for r in decoded_records(ds):
            strata.setdefault(r.item_id, Counter())[r.stratum_id] += 1
        for counts in strata.values():
            assert counts == expected


def test_nonrep1_is_subset_of_representative():
    gold = synth_gold(30, Uniform(0.1, 0.9), seed=6)
    suite = build_suite(gold, 0.2, seed=8)
    rep = {r.annotation_id: r for r in decoded_records(suite.representative)}
    n1 = decoded_records(suite.nonrep1)
    for rec in n1:
        assert rep[rec.annotation_id] == rec
    for item_id in dict.fromkeys(r.item_id for r in rep.values()):
        removed = {r.annotation_id for r in rep.values() if r.item_id == item_id} - {
            r.annotation_id for r in n1 if r.item_id == item_id
        }
        assert len(removed) == 3
        assert all(":B" in rid for rid in removed)


def test_nonrep2_extends_nonrep1_with_fresh_a_draws():
    gold = synth_gold(30, Uniform(0.1, 0.9), seed=6)
    suite = build_suite(gold, 0.2, seed=8)
    n1_ids = {r.annotation_id for r in decoded_records(suite.nonrep1)}
    n2_ids = {r.annotation_id for r in decoded_records(suite.nonrep2)}
    extra = n2_ids - n1_ids
    assert n1_ids <= n2_ids
    assert len(extra) == 3 * len(gold)
    assert all(rid.rsplit(":", 1)[1] in ("A6", "A7", "A8") for rid in extra)


def test_suite_unbiased_when_beta_zero():
    # analytic oracle: every variant's expected proportion is mean(p_gold)
    gold = synth_gold(2000, Uniform(0.35, 0.65), seed=11)
    expected = sum(e.p_gold for e in gold.entries) / len(gold)
    suite = build_suite(gold, 0.0, seed=13)
    adjusted, _ = apply_pair(suite.nonrep1, PopulationBenchmark({"A": 0.5, "B": 0.5}))
    for ds in (suite.representative, suite.nonrep1, suite.nonrep2, adjusted):
        records = decoded_records(ds)
        mean = sum(r.label for r in records) / len(records)
        assert abs(mean - expected) < 0.01


def test_suite_biased_proportions_match_analytic_shift():
    # gold inside [beta, 1-beta], so no clamping: deviations are exactly
    # -beta/3 (nonrep1), -beta/2 (nonrep2), 0 (representative)
    beta = 0.3
    gold = synth_gold(2000, Uniform(0.35, 0.65), seed=19)
    mean_p = sum(e.p_gold for e in gold.entries) / len(gold)
    suite = build_suite(gold, beta, seed=23)

    def mean_label(ds):
        records = decoded_records(ds)
        return sum(r.label for r in records) / len(records)

    assert abs(mean_label(suite.representative) - mean_p) < 0.01
    assert abs(mean_label(suite.nonrep1) - (mean_p - beta / 3)) < 0.01
    assert abs(mean_label(suite.nonrep2) - (mean_p - beta / 2)) < 0.01


def test_suite_rebuild_byte_identical(tmp_path):
    gold = synth_gold(50, Uniform(0.2, 0.8), seed=3)
    paths = []
    for run in range(2):
        suite = build_suite(gold, 0.25, seed=7)
        path = tmp_path / f"rep{run}.jsonl"
        write_dataset(suite.representative, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_build_suite_constructs_each_dataset_once(monkeypatch):
    # the labelled pool, then each recipe's records with the recipe's meta:
    # the constructor checked each recipe twice when its meta was replaced
    checked = Dataset.__post_init__
    calls = []
    monkeypatch.setattr(Dataset, "__post_init__", lambda self: calls.append(1) or checked(self))
    suite = build_suite(synth_gold(5, Uniform(0.2, 0.8), seed=1), 0.1, seed=2)
    assert len(calls) == 4
    assert [d.meta.recipe for d in vars(suite).values()] == list(RECIPES[:3])


def test_suite_tasks_use_independent_draws():
    gold = synth_gold(50, Uniform(0.2, 0.8), seed=3)
    ol = build_suite(gold, 0.2, seed=7, task="OL")
    hs = build_suite(gold, 0.2, seed=7, task="HS")
    assert [r.label for r in decoded_records(ol.representative)] != [
        r.label for r in decoded_records(hs.representative)
    ]


@settings(max_examples=100, deadline=None)
@given(
    twelfths=st.lists(st.integers(0, 12), min_size=1, max_size=30),
    betas=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4),
    counts=st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
    seed=st.integers(0, 2**63 - 1),
    task=st.sampled_from(["OL", "HS"]),
)
def test_every_beta_labelled_from_one_draw_equals_a_fresh_draw(twelfths, betas, counts, seed, task):
    # a sweep draws each seed once and counts each recipe's labels at each
    # beta, in any order; that must give what drawing afresh for each beta gives
    gold = GoldTable.from_entries(
        tuple(GoldEntry(f"it{i:02d}", ("tok",), k / 12, 12) for i, k in enumerate(twelfths))
    )
    comp = PoolComposition(dict(zip("AB", counts)))
    pool_draws, suite_draws = draw_pool(gold, comp, seed, task), draw_suite(gold, seed, task)
    halves = PopulationBenchmark({"A": "1/2", "B": "1/2"})  # adjusted alone reads it
    for beta in betas:
        bias = BiasSpec.two_type(beta)
        assert dataset_columns(label_pool(pool_draws, bias)) == dataset_columns(
            sample_pool(gold, comp, bias, seed, task)
        )
        suite = build_suite(gold, beta, seed, task)
        for recipe in ("representative", "nonrep1", "nonrep2"):
            got = adjust.recipe_counts(suite_draws, beta, recipe, halves)
            _, *want = trainer._item_counts(getattr(suite, recipe))
            assert [c.tolist() for c in got] == [c.tolist() for c in want]


def test_suite_draws_are_read_only():
    # every cell of a seed labels the same draws, so none may edit them
    draws = draw_suite(synth_gold(5, Uniform(0.2, 0.8), seed=1), seed=2)
    assert list(draws.rows) == ["representative", "nonrep1", "nonrep2"]
    for array in (draws.pool.p, draws.pool.u, *draws.rows.values()):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(TypeError):
        draws.rows["nonrep1"] = draws.rows["representative"]


# Reference oracle: build_suite as it was before it drew one pool per
# item. It samples representative, regroups it by item, draws nonrep2's
# extra A labels a second time from the same stream past an offset, and
# builds their records by hand.


def next_halves(gen, size):
    """The next ``size`` 32-bit values ``gen``'s bounded draws take, read
    from a copy of ``gen``."""
    twin = np.random.Generator(np.random.Philox())
    twin.bit_generator.state = gen.bit_generator.state
    return twin.integers(0, 2**32, size=size, dtype=np.uint64)


def numpy_rejects(half, high):
    """Whether numpy's Lemire rule rejects the 32-bit value ``half`` for a
    draw in [0, high), which a batched draw does not."""
    return (half * high) & 0xFFFFFFFF < (2**32 - high) % high


def oracle_stratum_labels(seed, task, stratum, item_index, p_shifted, count, offset=0):
    gen = stream(seed, f"{task}:annot:{stratum}", item_index)
    u = gen.random(offset + count)
    return [int(v < p_shifted) for v in u[offset:]]


def oracle_build_suite(gold, beta, seed, task="OL"):
    bias = BiasSpec.two_type(beta)
    pool = sample_pool(gold, PoolComposition({"A": 6, "B": 6}), bias, seed, task=task)
    records = decoded_records(pool)
    rep = Dataset.from_records(records, DatasetMeta(task, "representative", beta, seed))
    by_item = {}
    for r in records:
        by_item.setdefault(r.item_id, []).append(r)
    n1_records, n2_records = [], []
    for idx, entry in enumerate(gold.entries):
        recs = by_item[entry.item_id]
        a_recs = [r for r in recs if r.stratum_id == "A"]
        b_recs = [r for r in recs if r.stratum_id == "B"]
        gen = stream(seed, f"{task}:nonrep1-delete", idx)
        highs, halves = range(len(b_recs) - 2, len(b_recs) + 1), next_halves(gen, 3)
        dropped = set(gen.choice(len(b_recs), size=3, replace=False))
        if any(map(numpy_rejects, halves, highs)):
            # Floyd's algorithm on the multiply-shift values
            dropped = set()
            for high, half in zip(highs, halves):
                value = int(half * high >> 32)
                dropped.add(high - 1 if value in dropped else value)
        b_kept = [r for j, r in enumerate(b_recs) if j not in dropped]
        p_a = shift_probability(entry.p_gold, beta, "minus")
        extra_labels = oracle_stratum_labels(seed, task, "A", idx, p_a, 3, offset=6)
        extra = [
            Annotation(f"{entry.item_id}:A{6 + slot}", entry.item_id, "A", y)
            for slot, y in enumerate(extra_labels)
        ]
        n1_records.extend(a_recs + b_kept)
        n2_records.extend(a_recs + extra + b_kept)
    return (
        rep,
        Dataset.from_records(tuple(n1_records), DatasetMeta(task, "nonrep1", beta, seed)),
        Dataset.from_records(tuple(n2_records), DatasetMeta(task, "nonrep2", beta, seed)),
    )


@settings(max_examples=200, deadline=None)
@given(
    twelfths=st.lists(st.integers(0, 12), min_size=1, max_size=40),
    beta=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**63 - 1),
    task=st.sampled_from(["OL", "HS"]),
)
def test_build_suite_matches_reference_oracle(twelfths, beta, seed, task):
    gold = GoldTable.from_entries(
        tuple(GoldEntry(f"it{i:02d}", ("tok",), k / 12, 12) for i, k in enumerate(twelfths))
    )
    suite = build_suite(gold, beta, seed, task)
    got = (suite.representative, suite.nonrep1, suite.nonrep2)
    for ds, want in zip(got, oracle_build_suite(gold, beta, seed, task)):
        assert [astuple(r) for r in decoded_records(ds)] == [
            astuple(r) for r in decoded_records(want)
        ]
        assert ds.meta == want.meta


# Pinned draws: SHA-256 digests of the synthetic gold of configs/quick.json
# and of build_suite's records for three of its (beta, seed, task) cells,
# plus a Rare-shaped table. Any change to a keyed draw, to its stream key or
# to the order of records fails here. The values come from exact IEEE
# arithmetic (Rare proportions go through libm, then are rounded to
# twelfths), so they hold on any platform.


def _digest(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(row).encode("utf-8") + b"\n")
    return h.hexdigest()


QUICK_CONFIG = Path(__file__).parent.parent / "configs" / "quick.json"
QUICK_GOLD_PIN = "0c985125e22784076be075352b8efc992462937e81414f4f22d785fe696ecd72"
QUICK_SUITE_PINS = {
    (0.1, 10, "OL"): "7969f22f2e93d6bfa17a87ac9deb8f24f83f1df6dab3f2d079d0f8b10558729a",
    (0.3, 42, "OL"): "d2ab5746c3c248d7071a3564b5431040cd99c5daacdecc146200e07ac9dd13ef",
    (0.3, 10, "HS"): "3c02809361cab89829ee2460280b1889cdf9920d484938fef6366953cbaafe55",
}


def assert_quick_pins(gold):
    assert _digest(astuple(e) for e in gold.entries) == QUICK_GOLD_PIN
    for (beta, seed, task), pin in QUICK_SUITE_PINS.items():
        suite = build_suite(gold, beta, seed, task)
        recipes = (suite.representative, suite.nonrep1, suite.nonrep2)
        assert _digest(astuple(r) for ds in recipes for r in decoded_records(ds)) == pin


def test_quick_config_draws_are_pinned():
    assert_quick_pins(load_gold(load_config(QUICK_CONFIG)))


def test_rare_gold_draws_are_pinned():
    gold = synth_text(synth_gold(200, Rare(0.15), seed=7, id_prefix="r"), 50, 8, seed=7)
    assert _digest(astuple(e) for e in gold.entries) == (
        "7b788698bd61ae876e21c47b419d2e3658f58344dcf3b6233ce7a8d7142802f3"
    )


# Batch draws: synth_text and build_suite's nonrep1 deletions compute
# every item's draws in one pass, with no per-item generator.


def test_batch_stages_rekey_no_generator_per_item(monkeypatch):
    # the quick config's gold is Uniform: its proportions, texts and suites
    # all come from batch passes
    def no_stream(*parts):
        raise AssertionError(f"a generator for {parts!r}")

    monkeypatch.setattr(simulation, "stream", no_stream)
    assert_quick_pins(load_gold.__wrapped__(load_config(QUICK_CONFIG)))


# ---------------------------------------------------------------------------
# filter_difficult


def test_filter_difficult_inclusive_bounds():
    gold = flat_gold([0.3, 0.4, 0.5, 0.7])
    kept = filter_difficult(gold, 0.4, 0.6)
    assert [e.p_gold for e in kept.entries] == [0.4, 0.5]


def test_filter_difficult_identity():
    gold = flat_gold([0.0, 0.5, 1.0])
    assert filter_difficult(gold, 0.0, 1.0) == gold


def test_filter_difficult_rejects_bad_bounds():
    with pytest.raises(ValueError):
        filter_difficult(flat_gold([0.5]), 0.7, 0.2)


# ---------------------------------------------------------------------------
# synth_gold / synth_text


def test_synth_gold_uniform_range():
    gold = synth_gold(1000, Uniform(0.4, 0.6), seed=21)
    assert all(0.4 <= e.p_gold <= 0.6 for e in gold.entries)


def test_synth_gold_quantized_to_twelfths():
    gold = synth_gold(200, Uniform(0.0, 1.0), seed=21)
    for e in gold.entries:
        assert abs(e.p_gold * 12 - round(e.p_gold * 12)) < 1e-9
        assert e.k_reference == 12


def test_synth_gold_rare_mean():
    gold = synth_gold(3000, Rare(0.167), seed=25)
    mean = sum(e.p_gold for e in gold.entries) / len(gold)
    assert 0.15 <= mean <= 0.185


def test_synth_gold_single_item():
    assert len(synth_gold(1, Uniform(0.0, 1.0), seed=1)) == 1


def test_synth_gold_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Uniform(0.7, 0.2)
    with pytest.raises(ValueError):
        Rare(0.0)
    with pytest.raises(ValueError):
        synth_gold(0, Uniform(0.0, 1.0), seed=1)


def test_synth_text_extremes():
    gold = flat_gold([1.0, 0.0])
    filled = synth_text(gold, vocab_size=100, tokens_per_item=30, seed=5)
    assert all(t.startswith("tox") for t in filled.entries[0].text)
    assert all(t.startswith("ben") for t in filled.entries[1].text)


def test_synth_text_balanced_fraction():
    # Binomial(50, 0.5) puts ~99.7% of mass inside [0.3, 0.7]; with 300
    # items, demanding 97% inside leaves comfortable room
    gold = flat_gold([0.5] * 300)
    filled = synth_text(gold, vocab_size=200, tokens_per_item=50, seed=5)
    inside = 0
    for e in filled.entries:
        frac = sum(t.startswith("tox") for t in e.text) / len(e.text)
        inside += 0.3 <= frac <= 0.7
    assert inside >= 0.97 * len(filled)


def test_synth_text_rejects_bad_args():
    gold = flat_gold([0.5])
    with pytest.raises(ValueError):
        synth_text(gold, vocab_size=100, tokens_per_item=0, seed=1)
    with pytest.raises(ValueError):
        synth_text(gold, vocab_size=1, tokens_per_item=10, seed=1)


def oracle_integers(gen, high, size):
    """``gen.integers(0, high, size=size)``, unless numpy rejects one of
    the 32-bit values that takes: then, as in a batched draw, the
    multiply-shift values of the next ``size`` values, and ``gen`` moves
    past exactly those."""
    halves = next_halves(gen, size)
    if not any(numpy_rejects(h, high) for h in halves):
        return gen.integers(0, high, size=size)
    gen.integers(0, 2**32, size=size, dtype=np.uint64)
    return halves * high >> 32


def oracle_synth_text(gold, vocab_size, tokens_per_item, seed):
    # synth_text as it was when it drew each item from its own generator
    n_tox = vocab_size // 2
    tox_names = [f"tox{i}" for i in range(n_tox)]
    ben_names = [f"ben{i}" for i in range(vocab_size - n_tox)]
    texts = []
    for i, e in enumerate(gold.entries):
        gen = stream(seed, "text", i)
        toxic = gen.random(tokens_per_item) < e.p_gold
        tox_ids = oracle_integers(gen, len(tox_names), tokens_per_item)
        ben_ids = oracle_integers(gen, len(ben_names), tokens_per_item)
        texts.append(
            tuple(tox_names[t] if x else ben_names[b] for x, t, b in zip(toxic, tox_ids, ben_ids))
        )
    return texts


@settings(max_examples=100, deadline=None)
@given(
    twelfths=st.lists(st.integers(0, 12), min_size=1, max_size=30),
    vocab_size=st.one_of(st.integers(2, 5), st.integers(6, 5000)),
    tokens_per_item=st.integers(1, 9),
    seed=st.integers(-(2**127), 2**127 - 1),
)
# numpy rejects the half of this item's sixth ben id; a batched draw keeps it
@example(twelfths=[0], vocab_size=4994, tokens_per_item=9, seed=2928)
def test_synth_text_matches_per_item_oracle(twelfths, vocab_size, tokens_per_item, seed):
    # odd token counts start the ben ids mid-word; a vocabulary of 2 or 3
    # has a half of one token, whose ids numpy draws without randomness
    gold = flat_gold([k / 12 for k in twelfths])
    filled = synth_text(gold, vocab_size, tokens_per_item, seed)
    assert [e.text for e in filled.entries] == oracle_synth_text(
        gold, vocab_size, tokens_per_item, seed
    )
    assert [(e.item_id, e.p_gold, e.k_reference) for e in filled.entries] == [
        (e.item_id, e.p_gold, e.k_reference) for e in gold.entries
    ]


def test_synth_text_codes_equal_the_same_texts_coded_in_first_use_order(tmp_path):
    gold = synth_text(synth_gold(40, Uniform(0.0, 1.0), seed=2), 30, 7, seed=3)
    names = tuple(f"tox{i}" for i in range(15)) + tuple(f"ben{i}" for i in range(15))
    assert gold.text.vocab == names
    again = GoldTable.from_entries(gold.entries)
    assert again.text.vocab != names and set(again.text.vocab) <= set(names)
    assert again == gold and gold == again and again.entries == gold.entries
    # a file keeps its table's vocabulary: the texts read back equal
    for table, name in ((gold, "synth.jsonl"), (again, "again.jsonl")):
        write_gold(table, tmp_path / name)
        back = read_gold(tmp_path / name)
        assert back == gold and back.text.vocab == table.text.vocab


def test_synth_text_deterministic():
    gold = flat_gold([0.4, 0.6])
    a = synth_text(gold, 100, 20, seed=9)
    b = synth_text(gold, 100, 20, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# file round trips


def test_gold_file_round_trip(tmp_path):
    gold = synth_text(synth_gold(20, Uniform(0.0, 1.0), seed=1), 50, 8, seed=1)
    path = tmp_path / "gold.jsonl"
    write_gold(gold, path)
    assert read_gold(path) == gold


def test_dataset_file_round_trip(tmp_path):
    gold = synth_gold(10, Uniform(0.2, 0.8), seed=1)
    suite = build_suite(gold, 0.1, seed=2)
    adjusted, _ = apply_pair(suite.nonrep1, PopulationBenchmark({"A": 0.5, "B": 0.5}))
    path = tmp_path / "adjusted.jsonl"
    write_dataset(adjusted, path)
    loaded = read_dataset(path)
    assert loaded.meta == adjusted.meta
    assert decoded_records(loaded) == decoded_records(adjusted)


def test_write_gold_is_pinned_byte_for_byte(tmp_path):
    gold = GoldTable.from_entries(
        (GoldEntry("a", ("hello", "world"), 0.5, 12), GoldEntry("bé", (), 1 / 3, 3))
    )
    path = tmp_path / "gold.jsonl"
    write_gold(gold, path)
    assert path.read_bytes() == (
        b'{"format": "pairsim-gold", "version": 1, "item_id": ["a", "b\\u00e9"], '
        b'"vocab": ["hello", "world"], "codes": [0, 1], "offsets": [0, 2, 2], '
        b'"p_gold": [0.5, 0.3333333333333333], "k_reference": [12, 3]}\n'
    )


def test_write_dataset_is_pinned_byte_for_byte(tmp_path):
    records = (
        Annotation("i1:A0", "i1", "A", 0),
        Annotation("i1:B0", "i1", "B", 1),
        Annotation("i1:B0#r1", "i1", "B", 1, source="replica", replica_of="i1:B0"),
    )
    dataset = Dataset.from_records(records, DatasetMeta("OL", "adjusted", 0.3, 10))
    path = tmp_path / "adjusted.jsonl"
    write_dataset(dataset, path)
    assert path.read_bytes() == (
        b'{"format": "pairsim-dataset", "version": 1, '
        b'"meta": {"task": "OL", "recipe": "adjusted", "beta": 0.3, "seed": 10}, '
        b'"item_ids": ["i1"], "stratum_ids": ["A", "B"], "item": [0, 0, 0], '
        b'"stratum": [0, 1, 1], "label": [0, 1, 1], "original": [-1, -1, 1], '
        b'"annotation_ids": ["i1:A0", "i1:B0", "i1:B0#r1"]}\n'
    )
    assert dataset_columns(read_dataset(path)) == dataset_columns(dataset)


_HEADER = {"task": "OL", "recipe": "representative", "beta": 0.0, "seed": 1}
_RECORD = {"annotation_id": "a1", "item_id": "it", "stratum_id": "A", "label": 1,
           "source": "original", "replica_of": None}


def _dataset_object(**columns):
    """The JSON object of a dataset file of one record, original 'a1' of
    item 'it' and stratum 'A' labelled 1, with ``columns`` put in."""
    return {
        "format": "pairsim-dataset", "version": 1, "meta": _HEADER,
        "item_ids": ["it"], "stratum_ids": ["A"], "item": [0], "stratum": [0], "label": [1],
        "original": [-1], "annotation_ids": ["a1"], **columns,
    }


def _gold_object(**columns):
    """The JSON object of a gold file of one item, 'it' with text ['x'],
    with ``columns`` put in."""
    return {
        "format": "pairsim-gold", "version": 1, "item_id": ["it"], "vocab": ["x"],
        "codes": [0], "offsets": [0, 1], "p_gold": [0.5], "k_reference": [12], **columns,
    }


def _without(d, key):
    """The JSON object ``d`` without ``key``."""
    return {k: v for k, v in d.items() if k != key}


def _written_dataset(tmp_path):
    """A written nonrep1 dataset of 3 items: its path and its JSON object."""
    gold = synth_gold(3, Uniform(0.2, 0.8), seed=1)
    path = tmp_path / "ds.jsonl"
    write_dataset(build_suite(gold, 0.1, seed=2).nonrep1, path)
    return path, json.loads(path.read_text())


def _rewrite(path, content):
    """Write a file of the JSON object ``content``, or of the text ``content``."""
    path.write_text(content if isinstance(content, str) else json.dumps(content) + "\n")


def test_read_dataset_rejects_broken_replica(tmp_path):
    path, d = _written_dataset(tmp_path)
    n = len(d["original"])
    d["original"][1] = n  # a replica of no record
    _rewrite(path, d)
    aid = d["annotation_ids"][1]
    message = rf"^{re.escape(str(path))}: annotation '{aid}': original {n} outside \[-1, {n}\)$"
    with pytest.raises(ValueError, match=message):
        read_dataset(path)


@pytest.mark.parametrize("label", [True, False, 1.0, 0.0, "1", None, 2])
def test_a_record_label_is_the_integer_0_or_1_built_or_read(tmp_path, label):
    # True == 1 and 1.0 == 1 in Python, but neither is a label: a record
    # built by hand is rejected as the same label read from a file is
    record = Annotation("a1", "it", "A", label)
    message = rf"^annotation 'a1': label {re.escape(repr(label))} not binary$"
    with pytest.raises(ValueError, match=message):
        Dataset.from_records((record,), DatasetMeta(**_HEADER))
    path = tmp_path / "ds.jsonl"
    _rewrite(path, _dataset_object(label=[label]))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:.*\blabel\b"):
        read_dataset(path)


@pytest.mark.parametrize(
    "key, value",
    [("annotation_id", 1), ("item_id", 3), ("stratum_id", None), ("replica_of", 7)],
)
def test_a_record_id_is_a_string_built_or_read(tmp_path, key, value):
    # write_dataset wrote an int item_id as a number, which read_dataset
    # rejects, and failed on an int annotation_id with a bare TypeError
    source = "replica" if key == "replica_of" else "original"
    record = Annotation(**{**_RECORD, "source": source, key: value})
    aid = re.escape(repr(record.annotation_id))
    message = rf"^annotation {aid}: {key} must be a string, got {value!r}$"
    with pytest.raises(ValueError, match=message):
        Dataset.from_records((record,), DatasetMeta(**_HEADER))
    tables = {key: key + "s" for key in ("annotation_id", "item_id", "stratum_id")}
    if key in tables:  # a file names a replica's original by its index, not its id
        path = tmp_path / "ds.jsonl"
        _rewrite(path, _dataset_object(**{tables[key]: [value]}))
        message = rf"^{re.escape(str(path))}: dataset\.{tables[key]}\[0\] must be a string"
        with pytest.raises(ValueError, match=message):
            read_dataset(path)


@pytest.mark.parametrize("item_id", [5, None, b"a"])
def test_a_gold_item_id_is_a_string_in_every_constructor(item_id):
    # write_gold wrote an int id as a number, which read_gold rejects
    message = rf"^item {re.escape(repr(item_id))}: item_id must be a string$"
    entries = [GoldEntry("a", ("x",), 0.5, 12), GoldEntry(item_id, ("x",), 0.5, 12)]
    with pytest.raises(ValueError, match=message):
        GoldTable.from_entries(entries)
    with pytest.raises(ValueError, match=message):  # the array path
        GoldTable(("a", item_id), TextColumn.of([("x",)] * 2), np.full(2, 0.5), np.full(2, 12))
    with pytest.raises(ValueError, match=message):
        derive_gold([(item_id, "a b", [1] * 12)])
    with pytest.raises(ValueError, match=message):
        annotation_row(item_id, "a b", [1] * 12)


_ANY_ID = st.text(max_size=3) | st.integers(0, 3) | st.none()


@settings(max_examples=100, deadline=None)
@given(st.lists(_ANY_ID, min_size=1, max_size=4))
def test_a_gold_table_that_can_be_made_is_one_read_gold_reads_back(tmp_path_factory, ids):
    try:
        gold = GoldTable.from_entries(GoldEntry(i, ("x", "y"), 0.5, 12) for i in ids)
    except ValueError as err:
        assert re.search(r"item_id must be a string$|^duplicate item_id", str(err))
        return
    path = tmp_path_factory.mktemp("gold") / "gold.jsonl"
    write_gold(gold, path)
    assert read_gold(path) == gold


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_ANY_ID, _ANY_ID, _ANY_ID), min_size=1, max_size=4))
def test_a_dataset_that_can_be_made_is_one_read_dataset_reads_back(tmp_path_factory, ids):
    records = [Annotation(aid, item, stratum, 1) for aid, item, stratum in ids]
    try:
        dataset = Dataset.from_records(records, DatasetMeta(**_HEADER))
    except ValueError as err:
        assert re.search(r"must be a string, got|^duplicate annotation_id", str(err))
        return
    path = tmp_path_factory.mktemp("dataset") / "ds.jsonl"
    write_dataset(dataset, path)
    assert dataset_columns(read_dataset(path)) == dataset_columns(dataset)


def _replica(aid, of):
    return Annotation(aid, "it", "A", 1, source="replica", replica_of=of)


def _cycle(length):
    """Replicas r0..r{length-1}, each of the next and the last of r0."""
    return [_replica(f"r{k}", f"r{(k + 1) % length}") for k in range(length)]


@pytest.mark.parametrize(
    "replicas, first",
    [
        ([_replica("a", "a")], "a"),
        ([_replica("a", "b"), _replica("b", "a")], "a"),
        ([_replica("c", "a"), _replica("a", "b"), _replica("b", "a")], "c"),
        ([_replica("x", "o"), *_cycle(70)], "r0"),
    ],
    ids=["self", "two-cycle", "into-a-cycle", "long-cycle"],
)
def test_validate_rejects_a_replica_chain_without_an_original(tmp_path, replicas, first):
    records = (Annotation("o", "it", "A", 1), *replicas)
    message = rf"replica '{first}' has no original: its replica_of chain ends in a cycle$"
    with pytest.raises(ValueError, match="^" + message):
        Dataset.from_records(records, DatasetMeta(**_HEADER))
    ids = [r.annotation_id for r in records]
    n = len(ids)
    original = [ids.index(r.replica_of) if r.replica_of else -1 for r in records]
    path = tmp_path / "cycle.jsonl"
    _rewrite(path, _dataset_object(
        item=[0] * n, stratum=[0] * n, label=[1] * n, original=original, annotation_ids=ids
    ))
    with pytest.raises(ValueError, match=rf"^{path}: {message}"):
        read_dataset(path)


@pytest.mark.parametrize("length", [1, 2, 3, 63, 64, 65, 130])
def test_validate_accepts_replica_chains_that_reach_an_original(tmp_path, length):
    # r{k} replicates r{k-1} and r0 the original; listed last to first
    chain = [_replica(f"r{k}", f"r{k - 1}" if k else "o") for k in range(length)][::-1]
    records = (*chain, Annotation("o", "it", "A", 1))
    dataset = Dataset.from_records(records, DatasetMeta(**_HEADER))
    path = tmp_path / "chain.jsonl"
    write_dataset(dataset, path)
    assert dataset_columns(read_dataset(path)) == dataset_columns(dataset)


@pytest.mark.parametrize("label", [1.7, "0", True, 1.0, None])
def test_read_dataset_rejects_non_integer_labels_by_index(tmp_path, label):
    path, d = _written_dataset(tmp_path)
    d["label"][3] = label
    _rewrite(path, d)
    got = re.escape(repr(label))
    message = rf"ds\.jsonl: dataset\.label\[3\] must be an integer, got {got}$"
    with pytest.raises(ValueError, match=message):
        read_dataset(path)


@pytest.mark.parametrize(
    "key, value, kind", [("seed", 2.9, "an integer"), ("beta", "0.3", "a number")]
)
def test_read_dataset_rejects_wrong_meta_types_by_name(tmp_path, key, value, kind):
    path, d = _written_dataset(tmp_path)
    d["meta"][key] = value
    _rewrite(path, d)
    with pytest.raises(ValueError, match=rf"ds\.jsonl: dataset\.meta\.{key} must be {kind}"):
        read_dataset(path)


@pytest.mark.parametrize(
    "key, value, error",
    [
        ("task", "XX", "must be 'OL' or 'HS', got 'XX'"),
        ("recipe", "nonsense", r"must be one of \(.*\) or 'custom', got 'nonsense'"),
        ("beta", float("nan"), r"nan outside \[0, 0\.5\]"),
        ("beta", -0.1, r"-0\.1 outside \[0, 0\.5\]"),
        ("seed", 2**127, r"\d+ outside the signed 128-bit range \[-2\*\*127, 2\*\*127\)"),
        ("seed", 1.5, r"must be an integer, got 1\.5"),
        ("seed", True, r"must be an integer, got True"),
    ],
    ids=["task", "recipe", "nan-beta", "negative-beta", "seed", "float-seed", "bool-seed"],
)
def test_read_dataset_rejects_meta_values_out_of_range_by_name(tmp_path, key, value, error):
    # adjust copies the meta into its output, so a NaN beta would travel on
    with pytest.raises(ValueError, match=rf"^{key} {error}$"):
        DatasetMeta(**{**_HEADER, key: value})
    path, d = _written_dataset(tmp_path)
    d["meta"][key] = value
    _rewrite(path, d)
    # the file names the field by its place in it
    with pytest.raises(ValueError, match=rf"ds\.jsonl: dataset\.meta\.{key} {error}$"):
        read_dataset(path)


@pytest.mark.parametrize("key", ["meta.task", "item_ids", "label"])
def test_read_dataset_rejects_missing_fields_by_name(tmp_path, key):
    path, d = _written_dataset(tmp_path)
    *within, name = key.split(".")
    del (d[within[0]] if within else d)[name]
    _rewrite(path, d)
    with pytest.raises(ValueError, match=rf"ds\.jsonl: dataset\.{key} is missing$"):
        read_dataset(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text.rstrip("}\n"), "Expecting"),
        (lambda text: text.rstrip("\n") + " {}", "Extra data"),
        (lambda text: "\f" + text, "Expecting value"),
    ],
)
def test_read_dataset_names_the_file_of_bad_json(tmp_path, edit, message):
    path, _ = _written_dataset(tmp_path)
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}"):
        read_dataset(path)


def _small_gold():
    return synth_text(synth_gold(4, Uniform(0.0, 1.0), seed=1), 20, 5, seed=1)


def _small_dataset():
    return build_suite(synth_gold(3, Uniform(0.2, 0.8), seed=1), 0.1, seed=2).nonrep1


_DATA_FILES = {
    "gold": (write_gold, read_gold, _small_gold, gold_columns),
    "dataset": (write_dataset, read_dataset, _small_dataset, dataset_columns),
}


@pytest.mark.parametrize("write, read, make, columns", _DATA_FILES.values(), ids=_DATA_FILES.keys())
def test_a_data_file_is_one_json_object_on_one_line(tmp_path, write, read, make, columns):
    # key order, JSON spacing and a missing last newline do not matter,
    # nor does whitespace after the line; anything else after it does
    path = tmp_path / "data.jsonl"
    write(make(), path)
    written = columns(read(path))
    d = json.loads(path.read_text())
    form = d["format"]
    for text in (
        json.dumps(dict(reversed(d.items())), separators=(",", ":")),
        json.dumps(d) + "\n \n\n",
    ):
        path.write_text(text)
        assert columns(read(path)) == written
    path.write_text(json.dumps(d) + "\n" + json.dumps(d) + "\n")
    message = rf"^{re.escape(str(path))}: text after the {form} object$"
    with pytest.raises(ValueError, match=message):
        read(path)
    path.write_text(json.dumps(d, indent=1))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: Expecting property name"):
        read(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("vocab", "hello world", "vocab must be a list"),
        ("vocab", ["hello", 5], r"vocab\[1\] must be a string"),
        ("p_gold", [0.5, "0.5"], r"p_gold\[1\] must be a number"),
        ("k_reference", [12, 12.9], r"k_reference\[1\] must be an integer"),
    ],
)
def test_read_gold_rejects_wrong_types_by_name(tmp_path, key, value, message):
    path = tmp_path / "gold.jsonl"
    _rewrite(path, _gold_object(**{key: value}))
    with pytest.raises(ValueError, match=rf"gold\.jsonl: gold\.{message}"):
        read_gold(path)


def test_read_gold_names_the_file_and_item_of_a_token_utf8_cannot_encode(tmp_path):
    path = tmp_path / "gold.jsonl"
    _rewrite(path, _gold_object(
        item_id=["a", "b"], vocab=["x", "\ud800"], codes=[0, 0, 1], offsets=[0, 1, 3],
        p_gold=[0.5, 0.5], k_reference=[12, 12],
    ))  # a lone surrogate, which JSON can escape, in item 'b'
    message = r"gold\.jsonl: item 'b': token '\\ud800' cannot be encoded as UTF-8$"
    with pytest.raises(ValueError, match=message):
        read_gold(path)


# the per-line layouts that gold and dataset files had before they were columns
_OLD_GOLD = '{"item_id": "it", "text": ["x"], "p_gold": 0.5, "k_reference": 12}\n'
_OLD_DATASET = json.dumps(_HEADER) + "\n" + json.dumps(_RECORD) + "\n"


@pytest.mark.parametrize(
    "read, content, message",
    [
        (read_gold, _gold_object(format="pairsim-dataset"), "not a pairsim-gold file"),
        (read_dataset, _dataset_object(format="pairsim-gold"), "not a pairsim-dataset file"),
        (read_gold, _gold_object(version=2), "unsupported pairsim-gold version 2"),
        (read_dataset, _dataset_object(version="1"), "unsupported pairsim-dataset version '1'"),
        (read_dataset, _without(_dataset_object(lable=[1]), "label"),
         "unknown key 'lable' in {path}: dataset"),
        (read_gold, _gold_object(codes=None), "{path}: gold.codes must be a list, got None"),
        (read_gold, _without(_gold_object(), "k_reference"), "{path}: gold.k_reference is missing"),
        (read_dataset, _dataset_object(label=[True]),
         "{path}: dataset.label[0] must be an integer, got True"),
        (read_dataset, _dataset_object(label=[1.7]),
         "{path}: dataset.label[0] must be an integer, got 1.7"),
        (read_dataset, _dataset_object(label=[2]), "annotation 'a1': label 2 not binary"),
        (read_dataset, _dataset_object(
            item=[0, 0], stratum=[0, 0], label=[1, 1], original=[-1, -1],
            annotation_ids=["a1", "a1"],
        ), "duplicate annotation_id 'a1'"),
        (read_dataset, _dataset_object(
            item=[0, 0], stratum=[0, 0], label=[1, 0], original=[-1, 0],
            annotation_ids=["a1", "r1"],
        ), "replica 'r1' disagrees with its original 'a1' on (item, stratum, label)"),
        (read_dataset, _dataset_object(
            item=[], stratum=[], label=[], original=[], annotation_ids=[]
        ), "dataset has no records"),
        (read_gold, _gold_object(
            item_id=[], vocab=[], codes=[], offsets=[0], p_gold=[], k_reference=[]
        ), "gold table has no entries"),
        (read_gold, _OLD_GOLD, "not a pairsim-gold file"),
        (read_dataset, _OLD_DATASET, "not a pairsim-dataset file"),
        # numpy reads these as uint64, as objects and as floats
        (read_gold, _gold_object(k_reference=[2**63]),
         "item 'it': k_reference 9223372036854775808 must be below 2**63"),
        (read_gold, _gold_object(k_reference=[2**70]),
         "item 'it': k_reference 1180591620717411303424 must be below 2**63"),
        (read_gold, _gold_object(
            item_id=["a", "b"], codes=[0, 0], offsets=[0, 1, 2], p_gold=[0.5, 0.5],
            k_reference=[12, 2**63],
        ), "item 'b': k_reference 9223372036854775808 must be below 2**63"),
    ],
    ids=[
        "gold-format", "dataset-format", "gold-version", "dataset-version", "unknown-key",
        "wrong-type", "missing-key", "true-label", "float-label", "label-2", "repeated-id",
        "disagreeing-replica", "no-records", "no-items", "old-gold", "old-dataset",
        "uint64-k", "huge-k", "uint64-k-beside-int64",
    ],
)
def test_a_data_file_error_names_the_file_and_the_field_or_record(
    tmp_path, read, content, message
):
    path = tmp_path / "data.jsonl"
    _rewrite(path, content)
    message = message.format(path=path)
    with pytest.raises(ValueError) as caught:
        read(path)
    assert str(caught.value) in (message, f"{path}: {message}")
    assert str(caught.value).count(str(path)) == 1


@pytest.mark.parametrize(
    "reader, content",
    [
        (load_config, '{"task": "OL",\n'),
        (read_benchmark, '{"task": "OL",\n'),
        (load_model, '{"task": "OL",\n'),
        (read_gold, _gold_object(p_gold=[1.5])),
        (read_dataset, _dataset_object(label=[2])),
        (read_dataset, _dataset_object(
            item_ids=["it", "other"], item=[0, 1], stratum=[0, 0], label=[1, 1],
            original=[-1, -1], annotation_ids=["a1", "a1"],
        )),
    ],
    ids=["config", "benchmark", "model", "gold", "dataset-label", "dataset-repeated-id"],
)
def test_every_reader_names_its_file_once(tmp_path, reader, content):
    path = tmp_path / "input.json"
    _rewrite(path, content)
    with pytest.raises(ValueError) as caught:
        reader(path)
    message = str(caught.value)
    assert message.startswith(f"{path}: ") and message.count(str(path)) == 1


_READERS = {
    "config": load_config,
    "gold": read_gold,
    "dataset": read_dataset,
    "benchmark": read_benchmark,
    "model": load_model,
    "report": read_report_cells,
    "annotations": ingest_external,
}


@pytest.mark.parametrize(
    "content",
    [b"", b"[]\n", b"{\n", b"\xff\xfe{\x00"],
    ids=["empty", "list", "not-json", "utf-16-bom"],
)
@pytest.mark.parametrize("reader", _READERS.values(), ids=_READERS.keys())
def test_every_reader_rejects_a_malformed_file_by_path(tmp_path, reader, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    with pytest.raises(ValueError) as caught:
        # the annotation reader has no default task
        reader(path, "OL") if reader is ingest_external else reader(path)
    assert str(path) in str(caught.value)


def test_the_malformed_file_guard_covers_every_reader():
    # every public function of the package that takes a path and does not
    # write it, whatever its name
    readers = {
        f
        for module in (adjust, experiments, simulation, trainer)
        for name, f in vars(module).items()
        if not name.startswith(("_", "write_", "save_"))
        and inspect.isfunction(f)
        and "path" in inspect.signature(f).parameters
    }
    assert readers == set(_READERS.values())


@dataclass(frozen=True)
class _Point:
    x: int
    tags: tuple[float, ...] = ()


def test_typed_reads_dataclasses():
    read = typed([{"x": 1, "tags": [2]}, {"x": 3}], tuple[_Point, ...], "top")
    assert read == (_Point(1, (2.0,)), _Point(3))
    assert type(read[0].tags[0]) is float  # widened, as in any float field
    assert typed(None, _Point | None, "top") is None
    # a fixed tuple, a union of a class and a string, and a mapping
    assert typed([{"x": 1}, "a"], tuple[_Point, str], "top") == (_Point(1), "a")
    assert [typed(v, Union[_Point, str], "top") for v in ("a", {"x": 2})] == ["a", _Point(2)]
    read = typed({"a": [1], "b": []}, Mapping[str, tuple[float, ...]], "top")
    assert read == {"a": (1.0,), "b": ()} and type(read["a"][0]) is float


@pytest.mark.parametrize(
    "value, kind, message",
    [
        ({"a": 1}, tuple[int, ...], r"^top must be a list, got \{'a': 1\}$"),
        ([1, 1.5], tuple[int, ...], r"^top\[1\] must be an integer, got 1\.5$"),
        ([{"x": 1, "y": 2}], tuple[_Point, ...], r"^unknown key 'y' in top\[0\]$"),
        ([{"x": 1, "tags": ["2"]}], tuple[_Point, ...], r"^top\[0\]\.tags\[0\] must be a number"),
        ([{"x": 1}, {}], tuple[_Point, ...], r"^top\[1\]\.x is missing$"),
        ([{"x": 1}, [1]], tuple[_Point, ...], r"^top\[1\] must be a JSON object, got list$"),
        (5, _Point | None, r"^top must be a JSON object, got int$"),
        ([1], tuple[int, str], r"^top must have 2 entries, got \[1\]$"),
        ([1, 2], tuple[int, str], r"^top\[1\] must be a string, got 2$"),
        ([1, {}], tuple[int, _Point], r"^top\[1\]\.x is missing$"),
        (5, Union[_Point, str], r"^top must be a JSON object or a string, got 5$"),
        ({"y": 1}, Union[_Point, str], r"^unknown key 'y' in top$"),
        ([1], Mapping[str, int], r"^top must be a JSON object, got \[1\]$"),
        ({"a": 1.5}, Mapping[str, int], r"^top\.a must be an integer, got 1\.5$"),
        ({"a": [True]}, Mapping[str, tuple[float, ...]], r"^top\.a\[0\] must be a number"),
    ],
)
def test_typed_names_the_nested_field_in_errors(value, kind, message):
    with pytest.raises(ValueError, match=message):
        typed(value, kind, "top")


def test_dataset_restrict():
    gold = synth_gold(10, Uniform(0.2, 0.8), seed=1)
    ds = build_suite(gold, 0.1, seed=2).representative
    wanted = set(gold.item_ids()[:4])
    sub = ds.restrict(wanted)
    records = decoded_records(sub)
    assert {r.item_id for r in records} == wanted
    assert len(records) == 4 * 12
    assert sub.meta == ds.meta

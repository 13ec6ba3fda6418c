import hashlib
import inspect
import json
import re
from collections import Counter
from dataclasses import astuple, dataclass, fields
from functools import cache
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
    reads_file,
    sample_pool,
    shift_probability,
    subsample_indices,
    synth_gold,
    synth_text,
    typed,
    typed_object,
    write_dataset,
    write_gold,
)
from pairsim.trainer import load_model
from test_columns import read_dataset_rows


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
    mean = sum(r.label for r in ds.records) / len(ds.records)
    assert 0.48 <= mean <= 0.52


def test_sample_pool_certain_positive():
    gold = flat_gold([1.0] * 20)
    ds = sample_pool(gold, PoolComposition({"B": 6}), BiasSpec.two_type(0.2), seed=1)
    assert all(r.label == 1 for r in ds.records)


def test_sample_pool_clamped_negative():
    gold = flat_gold([0.0] * 20)
    ds = sample_pool(gold, PoolComposition({"A": 6}), BiasSpec.two_type(0.3), seed=1)
    assert all(r.label == 0 for r in ds.records)


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
    ds.validate()
    assert ds.meta == DatasetMeta("OL", "custom", 0.1, 5)
    assert {r.stratum_id for r in ds.records} == {"A", "B"}
    per_item = ds.records_by_item()
    for recs in per_item.values():
        assert Counter(r.stratum_id for r in recs) == {"A": 4, "B": 2}
        assert all(r.source == "original" for r in recs)


def test_sample_pool_deterministic():
    gold = flat_gold([0.3, 0.7])
    a = sample_pool(gold, PoolComposition({"A": 6, "B": 6}), BiasSpec.two_type(0.2), seed=9)
    b = sample_pool(gold, PoolComposition({"A": 6, "B": 6}), BiasSpec.two_type(0.2), seed=9)
    assert a == b


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
        for recs in ds.records_by_item().values():
            assert Counter(r.stratum_id for r in recs) == expected


def test_nonrep1_is_subset_of_representative():
    gold = synth_gold(30, Uniform(0.1, 0.9), seed=6)
    suite = build_suite(gold, 0.2, seed=8)
    rep = {r.annotation_id: r for r in suite.representative.records}
    for rec in suite.nonrep1.records:
        assert rep[rec.annotation_id] == rec
    rep_by_item = suite.representative.records_by_item()
    n1_by_item = suite.nonrep1.records_by_item()
    for item_id, recs in rep_by_item.items():
        removed = {r.annotation_id for r in recs} - {
            r.annotation_id for r in n1_by_item[item_id]
        }
        assert len(removed) == 3
        assert all(":B" in rid for rid in removed)


def test_nonrep2_extends_nonrep1_with_fresh_a_draws():
    gold = synth_gold(30, Uniform(0.1, 0.9), seed=6)
    suite = build_suite(gold, 0.2, seed=8)
    n1_ids = {r.annotation_id for r in suite.nonrep1.records}
    n2_ids = {r.annotation_id for r in suite.nonrep2.records}
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
        mean = sum(r.label for r in ds.records) / len(ds.records)
        assert abs(mean - expected) < 0.01


def test_suite_biased_proportions_match_analytic_shift():
    # gold inside [beta, 1-beta], so no clamping: deviations are exactly
    # -beta/3 (nonrep1), -beta/2 (nonrep2), 0 (representative)
    beta = 0.3
    gold = synth_gold(2000, Uniform(0.35, 0.65), seed=19)
    mean_p = sum(e.p_gold for e in gold.entries) / len(gold)
    suite = build_suite(gold, beta, seed=23)

    def mean_label(ds):
        return sum(r.label for r in ds.records) / len(ds.records)

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


def test_suite_tasks_use_independent_draws():
    gold = synth_gold(50, Uniform(0.2, 0.8), seed=3)
    ol = build_suite(gold, 0.2, seed=7, task="OL")
    hs = build_suite(gold, 0.2, seed=7, task="HS")
    assert [r.label for r in ol.representative.records] != [
        r.label for r in hs.representative.records
    ]


def dataset_columns(ds):
    """A dataset's codes, labels, ids and meta, as comparable values."""
    arrays = (ds.item, ds.stratum, ds.label, ds.original)
    return (
        ds.meta,
        ds.item_ids,
        ds.stratum_ids,
        list(ds.annotation_ids),
        [(a.dtype, a.tolist()) for a in arrays],
    )


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
    rep = Dataset.from_records(pool.records, DatasetMeta(task, "representative", beta, seed))
    by_item = rep.records_by_item()
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
        assert [astuple(r) for r in ds.records] == [astuple(r) for r in want.records]
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
        assert _digest(astuple(r) for ds in recipes for r in ds.records) == pin


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
    write_gold(gold, tmp_path / "synth.jsonl")
    write_gold(again, tmp_path / "again.jsonl")
    assert (tmp_path / "synth.jsonl").read_bytes() == (tmp_path / "again.jsonl").read_bytes()
    assert read_gold(tmp_path / "synth.jsonl") == gold


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
    assert loaded == adjusted


def test_write_gold_is_pinned_byte_for_byte(tmp_path):
    gold = GoldTable.from_entries(
        (GoldEntry("a", ("hello", "world"), 0.5, 12), GoldEntry("b\u00e9", (), 1 / 3, 3))
    )
    path = tmp_path / "gold.jsonl"
    write_gold(gold, path)
    assert path.read_bytes() == (
        b'{"item_id": "a", "text": ["hello", "world"], "p_gold": 0.5, "k_reference": 12}\n'
        b'{"item_id": "b\\u00e9", "text": [], "p_gold": 0.3333333333333333, "k_reference": 3}\n'
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
        b'{"task": "OL", "recipe": "adjusted", "beta": 0.3, "seed": 10}\n'
        b'{"annotation_id": "i1:A0", "item_id": "i1", "stratum_id": "A", "label": 0, '
        b'"source": "original", "replica_of": null}\n'
        b'{"annotation_id": "i1:B0", "item_id": "i1", "stratum_id": "B", "label": 1, '
        b'"source": "original", "replica_of": null}\n'
        b'{"annotation_id": "i1:B0#r1", "item_id": "i1", "stratum_id": "B", "label": 1, '
        b'"source": "replica", "replica_of": "i1:B0"}\n'
    )
    assert read_dataset(path) == dataset


def test_read_dataset_rejects_broken_replica(tmp_path):
    gold = synth_gold(5, Uniform(0.2, 0.8), seed=1)
    ds = build_suite(gold, 0.1, seed=2).nonrep1
    path = tmp_path / "broken.jsonl"
    write_dataset(ds, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["source"] = "replica"
    rec["replica_of"] = "no-such-annotation"
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="replica"):
        read_dataset(path)


@pytest.mark.parametrize("label", [True, False, 1.0, 0.0, "1", None, 2])
def test_a_record_label_is_the_integer_0_or_1_built_or_read(tmp_path, label):
    # True == 1 and 1.0 == 1 in Python, but neither is a label: a record
    # built by hand is rejected as the same record read from a file is
    record = Annotation("a1", "it", "A", label)
    message = rf"^annotation 'a1': label {re.escape(repr(label))} not binary$"
    with pytest.raises(ValueError, match=message):
        Dataset.from_records((record,), DatasetMeta(**_HEADER))
    path = tmp_path / "ds.jsonl"
    _rewrite(path, [_HEADER, vars(record)])  # a label the line pattern does not take
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
    path = tmp_path / "ds.jsonl"
    _rewrite(path, [_HEADER, vars(record)])
    message = rf"^{re.escape(str(path))}:2: record\.{key} must be a string"
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
    assert read_dataset(path) == dataset


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
    path = tmp_path / "cycle.jsonl"
    _rewrite(path, [_HEADER, *map(vars, records)])
    with pytest.raises(ValueError, match=rf"^{path}: {message}"):
        read_dataset(path)


@pytest.mark.parametrize("length", [1, 2, 3, 63, 64, 65, 130])
def test_validate_accepts_replica_chains_that_reach_an_original(tmp_path, length):
    # r{k} replicates r{k-1} and r0 the original; listed last to first
    chain = [_replica(f"r{k}", f"r{k - 1}" if k else "o") for k in range(length)][::-1]
    records = (*chain, Annotation("o", "it", "A", 1))
    dataset = Dataset.from_records(records, DatasetMeta(**_HEADER))
    dataset.validate()
    path = tmp_path / "chain.jsonl"
    _rewrite(path, [_HEADER, *map(vars, records)])
    assert read_dataset(path) == dataset


def _written_dataset(tmp_path):
    gold = synth_gold(3, Uniform(0.2, 0.8), seed=1)
    path = tmp_path / "ds.jsonl"
    write_dataset(build_suite(gold, 0.1, seed=2).nonrep1, path)
    return path, [json.loads(line) for line in path.read_text().splitlines()]


def _rewrite(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


@pytest.mark.parametrize("label", [1.7, "0", True, 1.0, None])
def test_read_dataset_rejects_non_integer_labels_by_line(tmp_path, label):
    path, rows = _written_dataset(tmp_path)
    rows[3]["label"] = label
    _rewrite(path, rows)
    with pytest.raises(ValueError, match=r"ds\.jsonl:4: record\.label must be an integer"):
        read_dataset(path)


@pytest.mark.parametrize(
    "key, value, kind", [("seed", 2.9, "an integer"), ("beta", "0.3", "a number")]
)
def test_read_dataset_rejects_wrong_header_types_by_name(tmp_path, key, value, kind):
    path, rows = _written_dataset(tmp_path)
    rows[0][key] = value
    _rewrite(path, rows)
    with pytest.raises(ValueError, match=rf"ds\.jsonl:1: header\.{key} must be {kind}"):
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
def test_read_dataset_rejects_header_values_out_of_range_by_name(tmp_path, key, value, error):
    # adjust copies the header into its output, so a NaN beta would travel on
    with pytest.raises(ValueError, match=rf"^{key} {error}$"):
        DatasetMeta(**{**_HEADER, key: value})
    path, rows = _written_dataset(tmp_path)
    rows[0][key] = value
    _rewrite(path, rows)
    with pytest.raises(ValueError, match=rf"ds\.jsonl:1: header\.{key} {error}$"):
        read_dataset(path)


@pytest.mark.parametrize("line, key", [(0, "task"), (2, "item_id"), (2, "label")])
def test_read_dataset_rejects_missing_fields_by_name(tmp_path, line, key):
    path, rows = _written_dataset(tmp_path)
    del rows[line][key]
    _rewrite(path, rows)
    with pytest.raises(ValueError, match=rf"ds\.jsonl:{line + 1}: \w+\.{key} is missing"):
        read_dataset(path)


def test_read_dataset_rejects_unknown_keys_by_line(tmp_path):
    path, rows = _written_dataset(tmp_path)
    rows[2] = {("lable" if key == "label" else key): value for key, value in rows[2].items()}
    _rewrite(path, rows)
    with pytest.raises(ValueError, match=r"unknown key 'lable' in .*ds\.jsonl:3: record"):
        read_dataset(path)


def test_read_dataset_rejects_other_key_orders_and_default_provenance_by_line(tmp_path):
    # valid JSON records, but not the lines write_dataset writes
    path, rows = _written_dataset(tmp_path)
    reversed_keys = dict(reversed(list(rows[1].items())))
    no_provenance = dict(list(rows[2].items())[:4])  # without source and replica_of
    for k, row in ((1, reversed_keys), (2, no_provenance)):
        _rewrite(path, [*rows[:k], row, *rows[k + 1 :]])
        message = rf"^{re.escape(str(path))}:{k + 1}: not in the layout write_dataset writes$"
        with pytest.raises(ValueError, match=message):
            read_dataset(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda line: line.rstrip("}"), "Expecting"),
        (lambda line: line + " {}", "Extra data"),
        (lambda line: "\f" + line, "Expecting value"),
    ],
)
def test_read_dataset_names_the_line_of_bad_json(tmp_path, edit, message):
    path, rows = _written_dataset(tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = edit(lines[2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"ds\.jsonl:3: {message}"):
        read_dataset(path)


def test_read_dataset_rejects_blank_lines_and_json_whitespace_by_line(tmp_path):
    path, _ = _written_dataset(tmp_path)
    lines = path.read_text().splitlines()
    layout = "not in the layout write_dataset writes$"
    edited = [
        ([lines[0], " \t" + lines[1], *lines[2:]], 2, layout),
        ([*lines[:2], lines[2] + " \r", *lines[3:]], 3, layout),  # " \r\n" reads as " \n"
        ([*lines[:3], "  \f ", *lines[3:]], 4, "Expecting value"),
        ([*lines, ""], len(lines) + 1, "Expecting value"),
    ]
    for text, lineno, message in edited:
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{lineno}: {message}"):
            read_dataset(path)


def _written_gold(tmp_path):
    path = tmp_path / "gold.jsonl"
    write_gold(synth_text(synth_gold(4, Uniform(0.0, 1.0), seed=1), 20, 5, seed=1), path)
    return path, [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("text", "hello world", "text must be a list"),
        ("text", ["hello", 5], r"text\[1\] must be a string"),
        ("p_gold", "0.5", "p_gold must be a number"),
        ("k_reference", 12.9, "k_reference must be an integer"),
    ],
)
def test_read_gold_rejects_wrong_types_by_name(tmp_path, key, value, message):
    path, rows = _written_gold(tmp_path)
    rows[2][key] = value
    _rewrite(path, rows)
    with pytest.raises(ValueError, match=rf"gold\.jsonl:3: entry\.{message}"):
        read_gold(path)


def test_read_gold_rejects_other_key_orders_and_integer_proportions_by_line(tmp_path):
    # valid JSON entries, but not the lines write_gold writes
    path, rows = _written_gold(tmp_path)
    reversed_keys = dict(reversed(list(rows[0].items())))
    for k, row in ((0, reversed_keys), (1, {**rows[1], "p_gold": 1})):
        _rewrite(path, [*rows[:k], row, *rows[k + 1 :]])
        message = rf"^{re.escape(str(path))}:{k + 1}: not in the layout write_gold writes$"
        with pytest.raises(ValueError, match=message):
            read_gold(path)


@pytest.mark.parametrize(
    "after, message", [(" ", "not in the layout write_gold writes$"), (" {}", "Extra data")]
)
def test_read_gold_rejects_text_after_the_entry_by_line(tmp_path, after, message):
    path, _ = _written_gold(tmp_path)
    lines = path.read_text().splitlines()
    lines[2] += after
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: {message}"):
        read_gold(path)


def test_read_gold_takes_any_json_spacing_within_a_line(tmp_path):
    # key order and value types are checked, spacing is not: only dataset
    # records are matched by a line pattern
    path, rows = _written_gold(tmp_path)
    written = read_gold(path)
    path.write_text("".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows))
    assert path.read_text().startswith('{"item_id":')
    assert read_gold(path) == written


def test_read_gold_names_the_file_and_item_of_a_token_utf8_cannot_encode(tmp_path):
    path, rows = _written_gold(tmp_path)
    rows[2]["text"][1] = "\ud800"  # a lone surrogate, which JSON can escape
    _rewrite(path, rows)
    item = rows[2]["item_id"]
    message = rf"gold\.jsonl: item '{item}': token '\\ud800' cannot be encoded as UTF-8$"
    with pytest.raises(ValueError, match=message):
        read_gold(path)


def test_read_gold_rejects_missing_fields_by_name(tmp_path):
    path, rows = _written_gold(tmp_path)
    del rows[1]["k_reference"]
    _rewrite(path, rows)
    with pytest.raises(ValueError, match=r"gold\.jsonl:2: entry\.k_reference is missing"):
        read_gold(path)


_TRUNCATED = '{"task": "OL",\n'
_HEADER = {"task": "OL", "recipe": "representative", "beta": 0.0, "seed": 1}
_RECORD = {"annotation_id": "a1", "item_id": "it", "stratum_id": "A", "label": 1,
           "source": "original", "replica_of": None}


@pytest.mark.parametrize(
    "reader, rows",
    [
        (load_config, _TRUNCATED),
        (read_benchmark, _TRUNCATED),
        (load_model, _TRUNCATED),
        (read_gold, [{"item_id": "item00001", "text": [], "p_gold": 1.5, "k_reference": 12}]),
        (read_dataset, [_HEADER, {**_RECORD, "label": 2}]),
        (read_dataset, [_HEADER, _RECORD, {**_RECORD, "item_id": "other"}]),
    ],
    ids=["config", "benchmark", "model", "gold", "dataset-label", "dataset-repeated-id"],
)
def test_every_reader_names_its_file_once(tmp_path, reader, rows):
    path = tmp_path / "input.json"
    if isinstance(rows, str):
        path.write_text(rows)
    else:
        _rewrite(path, rows)
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


def _outcome(read):
    """repr of what ``read`` returns, so that 1 and 1.0 differ, or its error."""
    try:
        return repr(read())
    except ValueError as err:
        return str(err)


_ANY_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 2),
    st.floats(-1, 2),
    st.text("ab1", max_size=2),
    st.lists(st.one_of(st.text("ab", max_size=2), st.integers(0, 1), st.none()), max_size=3),
)


def _edits(keys):
    """Up to two fields of a written line set to any JSON value."""
    return st.dictionaries(st.sampled_from(keys), _ANY_JSON, max_size=2)


@settings(max_examples=300, deadline=None)
@given(_edits(("item_id", "text", "p_gold", "k_reference")))
def test_read_gold_agrees_with_typed_object_on_written_layout(tmp_path_factory, edits):
    # a line in write_gold's layout with some values of another JSON type:
    # with write_gold's exact types it reads as typed_object reads it; any
    # other is an error naming the line, typed_object's when it faults one
    row = {**{"item_id": "x", "text": ["a", "b"], "p_gold": 0.5, "k_reference": 12}, **edits}
    path = tmp_path_factory.mktemp("gold") / "gold.jsonl"
    _rewrite(path, [row])
    types = tuple(map(type, row.values()))
    written_types = types == (str, list, float, int) and {str}.issuperset(map(type, row["text"]))

    @reads_file
    def checked(path):
        entry = typed_object(row, GoldEntry, f"{path}:1: entry")
        if not written_types:
            raise ValueError(f"{path}:1: not in the layout write_gold writes")
        return GoldTable.from_entries((entry,))

    assert _outcome(lambda: read_gold(path)) == _outcome(lambda: checked(path))


@settings(max_examples=300, deadline=None)
@given(_edits(("annotation_id", "item_id", "stratum_id", "label", "source", "replica_of")))
def test_read_dataset_agrees_with_typed_object_on_written_layout(tmp_path_factory, edits):
    row = {
        **{"annotation_id": "a1", "item_id": "it", "stratum_id": "A", "label": 1},
        **{"source": "original", "replica_of": None},
        **edits,
    }
    header = {"task": "OL", "recipe": "representative", "beta": 0.0, "seed": 1}
    path = tmp_path_factory.mktemp("ds") / "ds.jsonl"
    _rewrite(path, [header, row])

    @reads_file
    def checked(path):
        record = typed_object(row, Annotation, f"{path}:2: record")
        dataset = Dataset.from_records((record,), DatasetMeta("OL", "representative", 0.0, 1))
        dataset.validate()
        return dataset

    assert _outcome(lambda: read_dataset(path)) == _outcome(lambda: checked(path))


@cache
def _replicated_lines():
    """An adjusted dataset of two items in write_dataset's line layout: a
    header, then 24 records of which 6 are replicas."""
    suite = build_suite(synth_gold(2, Uniform(0.2, 0.8), seed=1), 0.1, seed=2)
    adjusted, _ = apply_pair(suite.nonrep1, PopulationBenchmark({"A": 0.5, "B": 0.5}))
    records = [json.dumps(vars(r)) for r in adjusted.records]
    return [json.dumps(vars(adjusted.meta)), *records]


_RECORD_EDITS = ("odd id", "empty replica_of", "duplicate id", "forward reference",
                 "self replica", "bad label")
# text put before and after a line; "\f" is whitespace to Python, not to JSON
_AFFIXES = {
    "space before": (" ", ""),
    "space after": ("", " "),
    "form feed before": ("\f", ""),
    "extra data": ("", " {}"),
}
_LINE_EDITS = ("blank line", *_AFFIXES, "split record", "bad header")


@st.composite
def _edited_dataset_files(draw):
    """The text of a written dataset file after a few whole-file edits."""
    header, *lines = _replicated_lines()
    records = [json.loads(line) for line in lines]
    index = st.integers(0, len(records) - 1)
    for edit in draw(st.lists(st.sampled_from(_RECORD_EDITS), max_size=2)):
        record = records[draw(index)]
        if edit == "odd id":
            key = draw(st.sampled_from(("annotation_id", "item_id", "stratum_id", "replica_of")))
            record[key] = (record[key] or "") + draw(st.sampled_from('"\\/\n\u00e9\U0001f600'))
        elif edit == "empty replica_of":
            record["replica_of"] = ""
        elif edit == "duplicate id":
            record["annotation_id"] = records[draw(index)]["annotation_id"]
        elif edit == "forward reference":
            replica = draw(st.sampled_from([r for r in records if r["source"] == "replica"]))
            records.remove(replica)
            records.insert(0, replica)
        elif edit == "self replica":
            record.update(source="replica", replica_of=record["annotation_id"])
        else:
            record["label"] = draw(st.sampled_from((2, 1.0)))
    raw = draw(st.sets(index))  # records written with raw non-ASCII characters
    lines = [header, *(json.dumps(r, ensure_ascii=k not in raw) for k, r in enumerate(records))]
    for edit in draw(st.lists(st.sampled_from(_LINE_EDITS), max_size=3)):
        k = draw(st.integers(0, len(lines) - 1))
        if edit == "blank line":
            lines.insert(k, draw(st.sampled_from(("", "  \f "))))
        elif edit in _AFFIXES:
            before, after = _AFFIXES[edit]
            lines[k] = before + lines[k] + after
        elif edit == "split record":  # at a member boundary, dropping the comma
            members = lines[k].split(", ")
            cut = draw(st.integers(1, max(1, len(members) - 1)))
            lines[k : k + 1] = [", ".join(members[:cut]), ", ".join(members[cut:])]
        else:
            lines[0] = draw(st.sampled_from(("not json", header[:-1], "[]")))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + draw(st.sampled_from((newline, "")))


def _first_line_outside_the_layout(text):
    """(line number, line) of the first line of a dataset file's text, as
    written by _edited_dataset_files, that read_dataset does not take:
    a header that is not a JSON object of DatasetMeta fields, or a record
    line other than the json.dumps of a record that write_dataset could
    write (ASCII or not); None when every line is taken."""
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    try:
        typed_object(json.loads(lines[0]), DatasetMeta, "header")
    except ValueError:
        return 1, lines[0]
    for lineno, line in enumerate(lines[1:], 2):
        try:
            d = json.loads(line)
        except ValueError:
            return lineno, line
        written = (
            type(d) is dict
            and list(d) == [f.name for f in fields(Annotation)]
            and line in (json.dumps(d), json.dumps(d, ensure_ascii=False))
            and {str}.issuperset(type(d[key]) for key in ("annotation_id", "item_id", "stratum_id"))
            and type(d["label"]) is int
            and d["label"] in (0, 1)
            and (d["source"], type(d["replica_of"])) in (("original", type(None)), ("replica", str))
        )
        if not written:
            return lineno, line
    return None


@settings(max_examples=300, deadline=None)
@given(_edited_dataset_files())
def test_read_dataset_agrees_with_the_per_line_reader(tmp_path_factory, text):
    # a file whose every line is in write_dataset's layout reads as the
    # record-level reader reads it, to the same dataset or the same error;
    # any other file is an error naming its first line outside that
    # layout, or, for a record that from_records faults, what
    # from_records says of that record
    path = tmp_path_factory.mktemp("ds") / "ds.jsonl"
    path.write_bytes(text.encode("utf-8"))
    outcome = _outcome(lambda: read_dataset(path))
    first = _first_line_outside_the_layout(text)
    if first is None:
        assert outcome == _outcome(lambda: reads_file(read_dataset_rows)(path))
    else:
        lineno, line = first
        if not outcome.startswith(f"{path}:{lineno}: "):
            record = Annotation(**json.loads(line))
            alone = reads_file(lambda path: Dataset.from_records((record,), DatasetMeta(**_HEADER)))
            assert outcome == _outcome(lambda: alone(path))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(), min_size=1, max_size=4, unique=True), st.text())
def test_read_dataset_reads_escaped_ids_by_its_line_pattern(tmp_path_factory, items, stratum):
    # write_dataset escapes quotes, backslashes, control and non-ASCII
    # characters; the line pattern decodes them, so every file the program
    # writes is read
    records = []
    for k, item in enumerate(items):
        original = Annotation(f"{item}:0", item, stratum, k % 2)
        replica = Annotation(f"{item}:0#r1", item, stratum, k % 2, "replica", f"{item}:0")
        records += [original, replica]
    dataset = Dataset.from_records(records, DatasetMeta(**_HEADER))
    path = tmp_path_factory.mktemp("ds") / "ds.jsonl"
    simulation.write_dataset(dataset, path)
    assert read_dataset(path) == dataset == read_dataset_rows(path)


def test_read_dataset_decodes_every_json_escape_by_its_line_pattern(tmp_path):
    # every escape JSON has, with a surrogate pair, and two json.dumps never
    # writes: a slash, and stratum "A" spelled as a \u escape
    u = "\\u"
    escaped = r'"q\"b\\s\/c\b\f\n\r\t' + f'{u}00e9{u}d83d{u}de00"'
    lines = [
        json.dumps(_HEADER),
        '{"annotation_id": %s, "item_id": "it", "stratum_id": "A", "label": 1, '
        '"source": "original", "replica_of": null}' % escaped,
        '{"annotation_id": "r", "item_id": "it", "stratum_id": "%s0041", "label": 1, '
        '"source": "replica", "replica_of": %s}' % (u, escaped),
    ]
    path = tmp_path / "ds.jsonl"
    path.write_text("\n".join(lines) + "\n")
    dataset = read_dataset(path)
    assert dataset == read_dataset_rows(path)
    assert list(dataset.annotation_ids) == ['q"b\\s/c\b\f\n\r\t\xe9\U0001f600', "r"]
    assert dataset.stratum_ids == ("A",)
    assert dataset.original.tolist() == [-1, 0]


def test_read_dataset_names_the_line_the_pattern_rejects_in_any_block(tmp_path):
    # the records of a file over 256K characters are matched in blocks of
    # lines; a blank line is named by its line in the file, in any block
    header, *lines = _replicated_lines()
    records = lines * 150  # 3600 records, about 400K characters
    path = tmp_path / "ds.jsonl"
    for blank in (2, 3000):
        text = [header, *records]
        text.insert(blank - 1, "")
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{blank}: Expecting value"):
            read_dataset(path)


def _file_over_one_block(tmp_path):
    """A written nonrep1 dataset of 3600 records, about 450K characters, so
    that its records are matched in two blocks: its path and lines."""
    path = tmp_path / "ds.jsonl"
    gold = synth_gold(400, Uniform(0.2, 0.8), seed=1)
    write_dataset(build_suite(gold, 0.1, seed=2).nonrep1, path)
    text = path.read_text()
    assert len(text) > 1.5 * simulation._BLOCK_CHARS
    return path, text.splitlines()


def test_read_dataset_reads_crlf_endings_and_names_joined_records_in_any_block(tmp_path):
    # in the first block and in a later one: a CRLF ending reads as "\n",
    # since the file is read with universal newlines, and two records on
    # one line are named by their line
    path, lines = _file_over_one_block(tmp_path)
    written = read_dataset(path)
    for lineno in (3, 3000):
        crlf = [*lines[: lineno - 1], lines[lineno - 1] + "\r", *lines[lineno:]]
        path.write_text("\n".join(crlf) + "\n")
        assert read_dataset(path) == written
        joined = [*lines[: lineno - 1], lines[lineno - 1] + lines[lineno], *lines[lineno + 1 :]]
        path.write_text("\n".join(joined) + "\n")
        column = len(lines[lineno - 1]) + 1
        message = rf"^{re.escape(str(path))}:{lineno}: Extra data: line 1 column {column} "
        with pytest.raises(ValueError, match=message):
            read_dataset(path)


def test_read_dataset_names_a_blank_last_line_and_reads_a_last_record_without_newline(tmp_path):
    # in a file of one block and in one of two, the last line ends the last
    # block: a blank one is named, and a record without its newline is read
    small, _ = _written_dataset(tmp_path)
    small_lines = small.read_text().splitlines()
    big, big_lines = _file_over_one_block(tmp_path)
    for path, lines in ((small, small_lines), (big, big_lines)):
        path.write_text("\n".join(lines) + "\n")
        written = read_dataset(path)
        path.write_text("\n".join(lines))
        assert read_dataset(path) == written == read_dataset_rows(path)
        path.write_text("\n".join(lines) + "\n\n")
        message = rf"^{re.escape(str(path))}:{len(lines) + 1}: Expecting value"
        with pytest.raises(ValueError, match=message):
            read_dataset(path)


def test_dataset_restrict():
    gold = synth_gold(10, Uniform(0.2, 0.8), seed=1)
    ds = build_suite(gold, 0.1, seed=2).representative
    wanted = set(gold.item_ids()[:4])
    sub = ds.restrict(wanted)
    assert {r.item_id for r in sub.records} == wanted
    assert len(sub.records) == 4 * 12
    assert sub.meta == ds.meta

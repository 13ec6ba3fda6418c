"""The columnar data path against the record-level code it replaced.

Each ``*_rows`` function below is the loop over :class:`Annotation`
records that a stage ran before datasets became columns, kept as the
reference: the columnar stage must give the same result on random
datasets of 1-5 strata with replicas, items in any order. The
``*_entries`` functions do the same for the gold table and its
:class:`GoldEntry` rows.
"""

import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsim.adjust import (
    PopulationBenchmark,
    apply_pair,
    pair_weights,
    pool_shares,
)
from pairsim.experiments import split_items
from pairsim.metrics import positive_proportion
from pairsim.rng import stream
from pairsim.simulation import (
    Annotation,
    BiasSpec,
    Dataset,
    DatasetMeta,
    GoldEntry,
    GoldTable,
    TextColumn,
    Uniform,
    _first_use_codes,
    build_suite,
    draw_suite,
    filter_difficult,
    label_pool,
    read_dataset,
    synth_gold,
    typed_object,
    write_dataset,
)
from pairsim.trainer import _item_counts, proportion_oracle

META = DatasetMeta("OL", "custom", 0.0, 0)

# ---------------------------------------------------------------------------
# the record-level references


def restrict_rows(dataset, item_ids):
    wanted = set(item_ids)
    return tuple(r for r in dataset.records if r.item_id in wanted)


def pool_shares_rows(dataset):
    counts = Counter(r.stratum_id for r in dataset.records)
    total = sum(counts.values())
    return {s: Fraction(c, total) for s, c in sorted(counts.items())}


def apply_pair_rows(dataset, benchmark, k=None):
    weights = pair_weights(benchmark, pool_shares_rows(dataset), k)
    records = []
    for rec in dataset.records:
        records.append(rec)
        for j in range(weights.counts[rec.stratum_id]):
            records.append(
                Annotation(
                    f"{rec.annotation_id}#r{j + 1}",
                    rec.item_id,
                    rec.stratum_id,
                    rec.label,
                    source="replica",
                    replica_of=rec.annotation_id,
                )
            )
    return tuple(records), weights


def positive_proportion_rows(dataset):
    return sum(r.label for r in dataset.records) / len(dataset.records)


def proportion_oracle_rows(dataset):
    return {
        item_id: sum(r.label for r in recs) / len(recs)
        for item_id, recs in dataset.records_by_item().items()
    }


def item_counts_rows(dataset):
    """Item ids in first-seen order, then per item its positive and total
    record counts (float)."""
    positives, totals = Counter(), Counter()
    for r in dataset.records:
        positives[r.item_id] += r.label
        totals[r.item_id] += 1
    item_ids = list(totals)
    return (
        item_ids,
        np.array([positives[i] for i in item_ids], dtype=np.float64),
        np.array([totals[i] for i in item_ids], dtype=np.float64),
    )


def write_dataset_rows(dataset):
    lines = [json.dumps(vars(dataset.meta))]
    lines += [json.dumps(vars(r)) for r in dataset.records]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def written_ids(path):
    """The annotation ids of a dataset file's records, decoded as JSON."""
    lines = path.read_text(encoding="utf-8").split("\n")[1:-1]
    return tuple(json.loads(line)["annotation_id"] for line in lines)


def assert_ids_are_the_written_ones(dataset, path):
    """The dataset's ids are a tuple, and the ones write_dataset writes."""
    write_dataset(dataset, path)
    assert type(dataset.annotation_ids) is tuple
    assert dataset.annotation_ids == written_ids(path)


def read_dataset_rows(path):
    """A dataset file read record by record: each line decoded as JSON,
    the first as a header and every other as an Annotation, and the
    records made a validated Dataset by from_records."""
    with open(path, encoding="utf-8") as fh:
        header, *rows = (json.loads(line) for line in fh)
    meta = typed_object(header, DatasetMeta, "header")
    records = [typed_object(row, Annotation, f"record {k}") for k, row in enumerate(rows)]
    dataset = Dataset.from_records(records, meta)
    dataset.validate()
    return dataset


# ---------------------------------------------------------------------------
# random datasets


@st.composite
def datasets(draw, names=st.integers(0, 99).map(str)):
    """Originals of 1-5 strata over 1-6 items, then replicas of random
    records (replicas included), all shuffled. Half of them are shuffled
    again by ``take``, so that their item and stratum codes no longer
    follow first appearance."""
    strata = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    items = draw(st.lists(names, min_size=1, max_size=6, unique=True))
    ids = draw(st.lists(names, min_size=1, max_size=30, unique=True))
    records = [
        Annotation(
            "a" + aid,
            draw(st.sampled_from(items)),
            draw(st.sampled_from(strata)),
            draw(st.integers(0, 1)),
        )
        for aid in ids
    ]
    for k in range(draw(st.integers(0, 10))):
        of = draw(st.sampled_from(records))
        records.append(
            replace(of, annotation_id=f"r{k}", source="replica", replica_of=of.annotation_id)
        )
    records = draw(st.permutations(records))
    dataset = Dataset.from_records(records, META)
    assert dataset.annotation_ids == tuple(r.annotation_id for r in records)
    if draw(st.booleans()):
        dataset = dataset.take(np.array(draw(st.permutations(range(len(dataset))))))
    return dataset


@pytest.mark.parametrize(
    "column, lengths",
    [
        ("item", "stratum is of length 2, item of length 1"),
        *((c, f"{c} is of length 1, item of length 2")
          for c in ("stratum", "label", "original", "annotation_ids")),
    ],
)
def test_a_dataset_rejects_columns_of_unequal_length(column, lengths):
    # two records with ids ("a",) had len() 2, and records, write_dataset
    # and validate cut them to one record
    dataset = Dataset.from_records(
        [Annotation("a", "i", "A", 1), Annotation("b", "i", "B", 0)], META
    )
    with pytest.raises(ValueError, match=f"^dataset column {lengths}$"):
        replace(dataset, **{column: getattr(dataset, column)[:1]})


@st.composite
def benchmarks(draw, dataset):
    strata = sorted({r.stratum_id for r in dataset.records})
    shares = [draw(st.fractions(min_value=Fraction(1, 50), max_value=50)) for _ in strata]
    return PopulationBenchmark({s: v / sum(shares) for s, v in zip(strata, shares)})


# ---------------------------------------------------------------------------
# the columnar stages against them


@settings(max_examples=200, deadline=None)
@given(datasets(), st.data())
def test_restrict_equals_the_record_filter(dataset, data):
    items = sorted({r.item_id for r in dataset.records}) + ["not-an-item"]
    wanted = data.draw(st.lists(st.sampled_from(items)))
    sub = dataset.restrict(wanted)
    assert sub.records == restrict_rows(dataset, wanted)
    assert type(sub.annotation_ids) is tuple
    assert sub.meta == dataset.meta
    sub.validate()


@settings(max_examples=200, deadline=None)
@given(datasets())
def test_pool_shares_equals_the_record_count(dataset):
    assert list(pool_shares(dataset).items()) == list(pool_shares_rows(dataset).items())


@settings(max_examples=200, deadline=None)
@given(datasets(), st.data())
def test_apply_pair_equals_the_record_loop(dataset, data):
    benchmark = data.draw(benchmarks(dataset))
    adjusted, weights = apply_pair(dataset, benchmark)
    records, expected = apply_pair_rows(dataset, benchmark)
    assert adjusted.records == records
    assert adjusted.annotation_ids == tuple(r.annotation_id for r in records)
    assert type(adjusted.annotation_ids) is tuple
    assert (weights.raw, weights.k, weights.counts) == (expected.raw, expected.k, expected.counts)
    assert adjusted.meta == replace(dataset.meta, recipe="adjusted")
    adjusted.validate()


@settings(max_examples=200, deadline=None)
@given(datasets())
def test_label_statistics_equal_the_record_sums(dataset):
    assert positive_proportion(dataset) == positive_proportion_rows(dataset)
    want_ids, want_positives, want_totals = item_counts_rows(dataset)
    # items come in item-table order: first-seen order unless take shuffled
    # the records
    table_order = [i for i in dataset.item_ids if i in want_ids]
    at = [want_ids.index(i) for i in table_order]
    item_ids, positives, totals = _item_counts(dataset)
    assert item_ids == table_order
    assert np.array_equal(positives, want_positives[at]) and positives.dtype == np.float64
    assert np.array_equal(totals, want_totals[at]) and totals.dtype == np.float64
    oracle_rows = proportion_oracle_rows(dataset)
    assert list(proportion_oracle(dataset).items()) == [(i, oracle_rows[i]) for i in table_order]


def test_stages_on_a_suite_equal_the_record_loops():
    gold = synth_gold(40, Uniform(0.1, 0.9), seed=5)
    suite = build_suite(gold, 0.25, seed=6)
    benchmark = PopulationBenchmark({"A": "1/2", "B": "1/2"})
    adjusted, _ = apply_pair(suite.nonrep1, benchmark)
    assert adjusted.records == apply_pair_rows(suite.nonrep1, benchmark)[0]
    wanted = gold.item_ids()[5:17]
    for dataset in (suite.representative, suite.nonrep1, suite.nonrep2, adjusted):
        sub = dataset.restrict(wanted)
        assert sub.records == restrict_rows(dataset, wanted)
        for part in (dataset, sub):
            assert positive_proportion(part) == positive_proportion_rows(part)
            assert proportion_oracle(part) == proportion_oracle_rows(part)
            # the package codes items in first-seen order
            got, want = _item_counts(part), item_counts_rows(part)
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


@pytest.mark.parametrize(
    "records, message",
    [
        (
            (Annotation("a", "i", "A", 1), Annotation("a", "j", "A", 0)),
            r"^duplicate annotation_id 'a'$",
        ),
        (
            (Annotation("a", "i", "A", 1), Annotation("b", "j", "B", 0, "replica", "a")),
            r"^replica 'b' disagrees with its original 'a' on \(item, stratum, label\)$",
        ),
    ],
    ids=["duplicate-id", "disagreeing-replica"],
)
def test_from_records_rejects_what_validate_rejects(records, message):
    # the one step from records to columns checks rows as read_dataset does;
    # test_validate_rejects_a_replica_chain_without_an_original has the cycles
    with pytest.raises(ValueError, match=message):
        Dataset.from_records(records, META)


def test_take_refuses_to_drop_the_original_of_a_kept_replica():
    # the column constructor does not validate, so a replica may name a
    # record of another item; restricting to the replica's item would lose
    # its original
    records = (
        Annotation("a", "it0", "A", 1),
        Annotation("b", "it1", "A", 1, source="replica", replica_of="a"),
    )
    dataset = Dataset(
        META, ("it0", "it1"), ("A",), np.array([0, 1]), np.array([0, 0]),
        np.array([1, 1], dtype=np.int8), np.array([-1, 0]), ("a", "b"),
    )
    with pytest.raises(ValueError, match="replica 'b' is kept without its original 'a'"):
        dataset.restrict(["it1"])
    assert dataset.take(np.array([1, 0])).records == records[::-1]


# ---------------------------------------------------------------------------
# files


@settings(max_examples=200, deadline=None)
@given(datasets(names=st.text(min_size=1, max_size=4)))
def test_write_then_read_gives_equal_columns_and_the_same_bytes(tmp_path_factory, dataset):
    # names of any characters: quotes, backslashes, control and non-ASCII
    path = tmp_path_factory.mktemp("ds") / "ds.jsonl"
    assert_ids_are_the_written_ones(dataset, path)
    assert path.read_bytes() == write_dataset_rows(dataset)
    back = read_dataset(path)
    assert back.meta == dataset.meta
    # codes follow first appearance in the file, so compare what they name
    assert back.label.dtype == np.int8
    assert [back.item_ids[i] for i in back.item] == [dataset.item_ids[i] for i in dataset.item]
    assert [back.stratum_ids[s] for s in back.stratum] == [
        dataset.stratum_ids[s] for s in dataset.stratum
    ]
    assert type(back.annotation_ids) is tuple
    assert back.annotation_ids == dataset.annotation_ids
    for column in ("label", "original"):
        assert np.array_equal(getattr(back, column), getattr(dataset, column))
    again = path.with_name("again.jsonl")
    write_dataset(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_suite_files_are_the_record_lines(tmp_path):
    gold = synth_gold(30, Uniform(0.2, 0.8), seed=3)
    suite = build_suite(gold, 0.3, seed=4)
    pool = label_pool(draw_suite(gold, 4).pool, BiasSpec.two_type(0.3))
    adjusted, _ = apply_pair(suite.nonrep1, PopulationBenchmark({"A": 0.5, "B": 0.5}))
    slots = [f"A{k}" for k in range(9)] + [f"B{k}" for k in range(6)]
    assert pool.annotation_ids == tuple(f"{i}:{s}" for i in gold.item_ids() for s in slots)
    path = tmp_path / "ds.jsonl"
    for dataset in (
        pool, suite.representative, suite.nonrep2, adjusted, adjusted.restrict(["item00003"])
    ):
        assert_ids_are_the_written_ones(dataset, path)
        assert path.read_bytes() == write_dataset_rows(dataset)
        back = read_dataset(path)
        assert back == dataset
        assert type(back.annotation_ids) is tuple and back.annotation_ids == written_ids(path)


# ---------------------------------------------------------------------------
# the gold table against its entries


def check_entries(entries):
    """The check a gold table makes, one entry at a time."""
    seen = set()
    for e in entries:
        if type(e.item_id) is not str:
            raise ValueError(f"item {e.item_id!r}: item_id must be a string")
        if type(e.p_gold) not in (int, float):
            raise ValueError(f"item {e.item_id!r}: p_gold must be a number, got {e.p_gold!r}")
        if not 0.0 <= e.p_gold <= 1.0:
            raise ValueError(f"item {e.item_id!r}: p_gold {e.p_gold} outside [0, 1]")
        if type(e.k_reference) is not int:
            raise ValueError(
                f"item {e.item_id!r}: k_reference must be an integer, got {e.k_reference!r}"
            )
        if e.k_reference < 1:
            raise ValueError(f"item {e.item_id!r}: k_reference must be positive")
        if isinstance(e.text, str):
            raise ValueError(
                f"item {e.item_id!r}: text must be a sequence of tokens, got {e.text!r}"
            )
        for token in e.text:
            if type(token) is not str:
                raise ValueError(f"item {e.item_id!r}: token {token!r} is not a string")
            try:
                token.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(
                    f"item {e.item_id!r}: token {token!r} cannot be encoded as UTF-8"
                ) from None
        if e.item_id in seen:
            raise ValueError(f"duplicate item_id {e.item_id!r} in gold table")
        seen.add(e.item_id)


def split_entries(gold, counts, seed):
    perm = stream(seed, "item-split").permutation(len(gold))
    part = np.empty(len(gold), dtype=np.intp)
    part[perm] = np.repeat([0, 1, 2], counts)
    parts = ([], [], [])
    for entry, p in zip(gold.entries, part.tolist()):
        parts[p].append(entry)
    return tuple(tuple(p) for p in parts)


def _outcome(make):
    try:
        make()
    except ValueError as err:
        return str(err)
    return None


_ANY_P = st.one_of(
    st.floats(-0.5, 1.5),
    st.just(float("nan")),
    st.sampled_from([0.0, 0.5, 1.0, 0, 1]),
    st.sampled_from(["0.5", True, False, None]),  # not numbers
)
_ANY_K = st.one_of(st.integers(-1, 13), st.sampled_from([12.5, 12.0, "3", True, None]))
_TOKENS = st.lists(st.sampled_from(["x", "y", "z"]), max_size=3).map(tuple)
# tokens that are not strings, or that UTF-8 cannot encode (a lone surrogate)
_ANY_TOKENS = st.lists(
    st.one_of(st.sampled_from(["x", "y", "z"]), st.sampled_from([1, None, "\ud800"])), max_size=3
).map(tuple)


def entry_lists(
    ids=st.sampled_from("abcdef") | st.sampled_from([5, None, b"a"]),
    p=_ANY_P,
    k=_ANY_K,
    text=st.one_of(_TOKENS, _ANY_TOKENS, st.just("x y")),
):
    """Lists of entries whose ids may repeat or not be strings, whose
    values may be out of range (NaN included) or of another type, and
    whose tokens may not be UTF-8 strings, several bad entries at once."""
    return st.lists(st.builds(GoldEntry, ids, text, p, k), max_size=8)


@settings(max_examples=500, deadline=None)
@given(entry_lists())
def test_gold_table_check_equals_the_entry_loop(entries):
    expected = _outcome(lambda: check_entries(entries))
    assert _outcome(lambda: GoldTable.from_entries(entries)) == expected
    if all(type(e.p_gold) in (int, float) and type(e.k_reference) is int for e in entries):
        # the same values as numeric arrays and, when no text is a str, a
        # text column: checked without an item loop
        ids = [e.item_id for e in entries]
        text = [e.text for e in entries]
        if not any(isinstance(t, str) for t in text):
            text = TextColumn.of(text)
        p = np.array([e.p_gold for e in entries], dtype=np.float64)
        k = np.array([e.k_reference for e in entries], dtype=np.int64)
        assert _outcome(lambda: GoldTable(ids, text, p, k)) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "é", "名前", "", " "]) | st.text(max_size=3)))
def test_first_use_codes_index_a_table_of_distinct_names_in_order_of_first_use(names):
    table, codes = _first_use_codes(iter(names))
    assert codes.dtype == np.intp
    assert np.array(table, dtype=object)[codes].tolist() == names
    assert len(set(table)) == len(table)
    first_use = [names.index(name) for name in table]
    assert first_use == sorted(first_use)


def valid_golds():
    return entry_lists(
        ids=st.integers(0, 999).map(lambda i: f"it{i}"),
        p=st.floats(0.0, 1.0),
        k=st.integers(1, 13),
        text=_TOKENS,
    ).map(lambda entries: GoldTable.from_entries({e.item_id: e for e in entries}.values()))


@settings(max_examples=200, deadline=None)
@given(valid_golds())
def test_gold_entries_columns_entries_round_trip(gold):
    entries = gold.entries
    assert all(type(e) is GoldEntry for e in entries)
    assert GoldTable.from_entries(entries).entries == entries
    again = GoldTable(gold.item_id, gold.text, gold.p_gold, gold.k_reference)
    assert again == gold and again.entries == entries
    assert repr(again) == repr(gold) == f"GoldTable.from_entries({entries!r})"
    assert [(e.item_id, e.text, e.p_gold, e.k_reference) for e in entries] == list(
        zip(gold.item_id, gold.text, gold.p_gold.tolist(), gold.k_reference.tolist())
    )
    assert gold.p_gold.dtype == np.float64 and gold.k_reference.dtype == np.int64
    assert not gold.p_gold.flags.writeable and not gold.k_reference.flags.writeable


@settings(max_examples=200, deadline=None)
@given(valid_golds(), st.data())
def test_split_items_equals_the_entry_partition(gold, data):
    n = len(gold)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    counts = (cuts[0], cuts[1] - cuts[0], n - cuts[1])
    seed = data.draw(st.integers(0, 2**32))
    parts = split_items(gold, counts, seed)
    assert tuple(p.entries for p in parts) == split_entries(gold, counts, seed)


@settings(max_examples=200, deadline=None)
@given(valid_golds(), st.data())
def test_split_and_filter_keep_every_items_tokens(gold, data):
    n = len(gold)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    counts = (cuts[0], cuts[1] - cuts[0], n - cuts[1])
    parts = split_items(gold, counts, data.draw(st.integers(0, 2**32)))
    lo, hi = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    texts = gold.texts()
    for part in (*parts, filter_difficult(gold, lo, hi)):
        # a part keeps the table's vocabulary and gathers each item's run of codes
        assert part.text.vocab == gold.text.vocab
        assert part.texts() == {item_id: texts[item_id] for item_id in part.item_ids()}


@settings(max_examples=200, deadline=None)
@given(valid_golds(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_filter_difficult_equals_the_entry_filter(gold, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    kept = filter_difficult(gold, lo, hi)
    assert kept.entries == tuple(e for e in gold.entries if lo <= e.p_gold <= hi)

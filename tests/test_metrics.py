import math
from fractions import Fraction

import pytest
from numpy.testing import assert_allclose

from pairsim.adjust import PopulationBenchmark, apply_pair
from pairsim.experiments import ResultRow
from pairsim.metrics import acb, aggregate, f1, positive_proportion
from pairsim.rng import stream
from pairsim.simulation import (
    Annotation,
    Dataset,
    DatasetMeta,
    GoldEntry,
    GoldTable,
    Uniform,
    build_suite,
    synth_gold,
)
from test_columns import decoded_records


def flat_gold(ps):
    return GoldTable.from_entries(
        tuple(GoldEntry(f"it{i:03d}", (), p, 12) for i, p in enumerate(ps))
    )


# ---------------------------------------------------------------------------
# acb


def test_acb_perfect_predictor():
    gold = flat_gold([0.0, 0.25, 0.5, 1.0])
    preds = dict(zip(gold.item_id, gold.p_gold.tolist()))
    assert acb(preds, gold) == 0.0


def test_acb_constant_half():
    gold = flat_gold([0.25, 0.75])
    preds = {i: 0.5 for i in gold.item_ids()}
    assert acb(preds, gold) == 0.25


def test_acb_matches_enumeration_oracle():
    # brute-force enumeration over the 13 twelfth-grid values, in exact
    # rationals, then compared at float precision
    ps = [k / 12 for k in range(13)]
    gold = flat_gold(ps)
    preds = {i: 0.5 for i in gold.item_ids()}
    oracle = sum(abs(Fraction(1, 2) - Fraction(k, 12)) for k in range(13)) / 13
    assert abs(acb(preds, gold) - float(oracle)) < 1e-12


def test_acb_rejects_item_mismatch():
    gold = flat_gold([0.5, 0.6])
    with pytest.raises(ValueError, match="it001"):
        acb({"it000": 0.5, "extra": 0.1}, gold)


def test_acb_symmetry_and_triangle_inequality():
    gen = stream(5, "acb-property")
    ids = [f"it{i:03d}" for i in range(40)]
    p = {i: float(v) for i, v in zip(ids, gen.random(40))}
    q = {i: float(v) for i, v in zip(ids, gen.random(40))}
    r = {i: float(v) for i, v in zip(ids, gen.random(40))}

    def table(values):
        return GoldTable.from_entries(tuple(GoldEntry(i, (), values[i], 12) for i in ids))

    assert_allclose(acb(p, table(q)), acb(q, table(p)), rtol=0, atol=1e-15)
    assert acb(p, table(q)) <= acb(p, table(r)) + acb(r, table(q)) + 1e-12
    assert 0.0 <= acb(p, table(q)) <= 1.0


# ---------------------------------------------------------------------------
# f1


def test_f1_perfect_agreement():
    gold = flat_gold([0.9, 0.1, 0.8])
    preds = {i: e.p_gold for i, e in zip(gold.item_ids(), gold.entries)}
    assert f1(preds, gold) == 1.0


def test_f1_zero_recall():
    gold = flat_gold([0.9, 0.8, 0.1])
    preds = {i: 0.0 for i in gold.item_ids()}
    assert f1(preds, gold) == 0.0


def test_f1_hand_confusion_matrix():
    # preds (0.9, 0.9, 0.1) vs golds (1, 0, 1): precision 1/2, recall 1/2
    gold = flat_gold([1.0, 0.0, 1.0])
    preds = dict(zip(gold.item_ids(), (0.9, 0.9, 0.1)))
    assert f1(preds, gold) == 0.5


def test_f1_degenerate_warns_and_returns_zero():
    gold = flat_gold([0.1, 0.2])
    preds = {i: 0.1 for i in gold.item_ids()}
    with pytest.warns(UserWarning, match="F1"):
        assert f1(preds, gold) == 0.0


def test_f1_tie_handling():
    gold = flat_gold([0.5])
    preds = {i: 0.9 for i in gold.item_ids()}
    # p_gold 0.5 counts gold-positive, so the positive prediction is a true positive
    assert f1(preds, gold) == 1.0


def test_f1_counts_a_prediction_of_one_half_positive():
    gold = flat_gold([0.9, 0.1])
    below = 0.5 - 2**-53
    # item 0: 0.5 is a true positive; item 1: 0.5 is a false positive
    assert f1({"it000": 0.5, "it001": 0.5}, gold) == 2 / 3
    assert f1({"it000": 0.5, "it001": below}, gold) == 1.0


def test_f1_invariant_to_threshold_preserving_transform():
    gen = stream(6, "f1-property")
    gold = flat_gold([float(v) for v in gen.random(50)])
    preds = {i: float(v) for i, v in zip(gold.item_ids(), gen.random(50))}

    def squeeze(x):
        # strictly increasing, fixes the crossing set at 0.5
        return x / 2 if x < 0.5 else 0.5 + (x - 0.5) / 2

    transformed = {i: squeeze(v) for i, v in preds.items()}
    assert f1(preds, gold) == f1(transformed, gold)


# ---------------------------------------------------------------------------
# positive_proportion


def test_positive_proportion_all_ones():
    meta = DatasetMeta("OL", "custom", 0.0, 0)
    ds = Dataset.from_records(tuple(Annotation(f"a:{i}", "a", "A", 1) for i in range(5)), meta)
    assert positive_proportion(ds) == 1.0


def test_positive_proportion_rejects_empty():
    meta = DatasetMeta("OL", "custom", 0.0, 0)
    with pytest.raises(ValueError):
        positive_proportion(Dataset.from_records((), meta))


def test_positive_proportion_representative_tracks_gold():
    gold = synth_gold(2000, Uniform(0.35, 0.65), seed=51)
    mean_p = sum(e.p_gold for e in gold.entries) / len(gold)
    suite = build_suite(gold, 0.1, seed=53)
    assert abs(positive_proportion(suite.representative) - mean_p) < 0.01


def test_positive_proportion_adjusted_equals_weighted_recount():
    gold = synth_gold(60, Uniform(0.2, 0.8), seed=55)
    suite = build_suite(gold, 0.2, seed=57)
    adjusted, wt = apply_pair(suite.nonrep1, PopulationBenchmark({"A": 0.5, "B": 0.5}))
    weighted_pos = 0
    weighted_total = 0
    for rec in decoded_records(suite.nonrep1):
        m = 1 + wt.counts[rec.stratum_id]
        weighted_pos += m * rec.label
        weighted_total += m
    assert positive_proportion(adjusted) == weighted_pos / weighted_total


# ---------------------------------------------------------------------------
# aggregate


def run(acb_v, seed=0, n_items=100):
    return ResultRow(
        task="OL",
        recipe="representative",
        beta=0.1,
        seed=seed,
        acb=acb_v,
        f1=acb_v,
        positive_proportion=acb_v,
        n_items=n_items,
        wall_time=0.0,
    )


def test_aggregate_mean_and_population_std():
    agg = aggregate([run(1.0, seed=1), run(2.0, seed=2), run(3.0, seed=3)])
    assert agg.mean["acb"] == 2.0
    assert_allclose(agg.std["acb"], math.sqrt(2 / 3), rtol=0, atol=1e-15)
    assert agg.seeds == (1, 2, 3)


def test_aggregate_single_run():
    agg = aggregate([run(0.4, seed=9)])
    assert agg.mean["f1"] == 0.4
    assert agg.std["f1"] == 0.0


def test_aggregate_identical_runs():
    agg = aggregate([run(0.7, seed=s) for s in range(5)])
    assert agg.mean["acb"] == 0.7
    assert agg.std["acb"] == 0.0


def test_aggregate_rejects_mixed_configurations():
    with pytest.raises(ValueError, match="mixed"):
        aggregate([run(1.0, n_items=100), run(1.0, n_items=200)])


def test_aggregate_rejects_repeated_seeds():
    with pytest.raises(ValueError, match=r"repeat a seed, got seeds \(1, 2, 1\)"):
        aggregate([run(1.0, seed=1), run(2.0, seed=2), run(3.0, seed=1)])


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])

import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsim.adjust import (
    PopulationBenchmark,
    WeightTable,
    apply_pair,
    pair_weights,
    pool_shares,
    read_benchmark,
    recipe_counts,
    write_weights,
)
from pairsim.rng import stream
from pairsim.simulation import (
    Annotation,
    BiasSpec,
    Dataset,
    DatasetMeta,
    GoldEntry,
    GoldTable,
    PoolComposition,
    Uniform,
    build_suite,
    draw_suite,
    sample_pool,
    synth_gold,
)

HALF_HALF = PopulationBenchmark({"A": 0.5, "B": 0.5})


def pool_dataset(counts, n_items=4, p=0.5, seed=0):
    gold = GoldTable.from_entries(
        tuple(GoldEntry(f"it{i}", (), p, 12) for i in range(n_items))
    )
    return sample_pool(gold, PoolComposition(counts), BiasSpec.two_type(0.0), seed=seed)


# ---------------------------------------------------------------------------
# pool_shares


def test_pool_shares_two_thirds():
    shares = pool_shares(pool_dataset({"A": 6, "B": 3}))
    assert shares == {"A": Fraction(2, 3), "B": Fraction(1, 3)}


def test_pool_shares_balanced():
    shares = pool_shares(pool_dataset({"A": 6, "B": 6}))
    assert shares == {"A": Fraction(1, 2), "B": Fraction(1, 2)}


def test_pool_shares_three_quarters():
    shares = pool_shares(pool_dataset({"A": 9, "B": 3}))
    assert shares == {"A": Fraction(3, 4), "B": Fraction(1, 4)}


def test_pool_shares_rejects_empty():
    ds = pool_dataset({"A": 1})
    empty = Dataset.from_records((), ds.meta)
    with pytest.raises(ValueError, match="empty"):
        pool_shares(empty)


# ---------------------------------------------------------------------------
# pair_weights: raw weights


def test_raw_weights_worked_pipeline():
    wt = pair_weights(HALF_HALF, {"A": Fraction(2, 3), "B": Fraction(1, 3)})
    assert float(wt.raw["A"]) == 0.75
    assert float(wt.raw["B"]) == 1.5


def test_raw_weights_identity():
    wt = pair_weights(HALF_HALF, {"A": Fraction(1, 2), "B": Fraction(1, 2)})
    assert all(w == 1 for w in wt.raw.values())


def test_raw_weights_cross_check_w_times_s():
    # independent check: weights must reproduce the benchmark when
    # multiplied back by the pool shares
    pool = {"A": Fraction(1, 4), "B": Fraction(3, 4)}
    wt = pair_weights(HALF_HALF, pool)
    assert float(wt.raw["A"]) == 2.0
    assert wt.raw["B"] == Fraction(2, 3)
    for s in wt.raw:
        assert wt.raw[s] * pool[s] == HALF_HALF.shares[s]


def test_raw_weights_rejects_missing_pool_stratum():
    bench = PopulationBenchmark({"A": 0.5, "B": 0.5})
    with pytest.raises(ValueError, match="'B'"):
        pair_weights(bench, {"A": Fraction(1)})


def test_raw_weights_rejects_unknown_pool_stratum():
    pool = {"A": Fraction(1, 2), "C": Fraction(1, 2)}
    bench = PopulationBenchmark({"A": 1})
    with pytest.raises(ValueError, match="'C'"):
        pair_weights(bench, pool)


# ---------------------------------------------------------------------------
# WeightTable: K, normalized weights and replication counts


def test_normalize_min_to_one_worked():
    wt = WeightTable({"A": Fraction(3, 4), "B": Fraction(3, 2)})
    assert wt.k == Fraction(4, 3)
    assert wt.normalized == {"A": 1, "B": 2}


def test_normalize_all_ones():
    wt = WeightTable({"A": Fraction(1), "B": Fraction(1)})
    assert wt.k == 1
    assert wt.normalized == {"A": 1, "B": 1}


def test_normalize_hand_example():
    wt = WeightTable({"A": Fraction(2), "B": Fraction(2, 3)})
    assert wt.k == Fraction(3, 2)
    assert float(wt.normalized["A"]) == 3.0
    assert float(wt.normalized["B"]) == 1.0


def test_normalize_explicit_k():
    wt = WeightTable({"A": Fraction(1, 2)}, k=4)
    assert wt.normalized == {"A": 2}


def test_normalize_rejects_bad_k():
    with pytest.raises(ValueError, match="positive"):
        WeightTable({"A": Fraction(1)}, k=0)


def test_weight_table_rejects_no_strata_and_non_positive_raw_weights():
    for raw in ({}, {"A": Fraction(1), "B": Fraction(0)}, {"A": Fraction(-1)}):
        with pytest.raises(ValueError, match="raw weight above 0"):
            WeightTable(raw)


def test_replication_counts_worked():
    wt = WeightTable({"A": Fraction(3, 4), "B": Fraction(3, 2)})
    assert wt.counts == {"A": 0, "B": 1}


def test_replication_counts_single():
    wt = WeightTable({"A": Fraction(1)})
    assert wt.counts == {"A": 0}


def test_replication_counts_rounds_half_away():
    assert WeightTable({"A": Fraction(3, 2)}, k=1).counts == {"A": 1}


def test_replication_counts_rejects_negative():
    with pytest.raises(ValueError, match="min_to_one"):
        WeightTable({"A": Fraction(1), "B": Fraction(4)}, k=Fraction(1, 10))


# ---------------------------------------------------------------------------
# apply_pair


def test_apply_pair_duplicates_underrepresented_stratum():
    ds = pool_dataset({"A": 6, "B": 3}, n_items=5)
    adjusted, wt = apply_pair(ds, HALF_HALF)
    assert wt.counts == {"A": 0, "B": 1}
    assert adjusted.meta.recipe == "adjusted"
    adjusted.validate()
    for recs in adjusted.records_by_item().values():
        counts = Counter((r.stratum_id, r.source) for r in recs)
        assert counts == {("A", "original"): 6, ("B", "original"): 3, ("B", "replica"): 3}
        assert len(recs) == 12
    # every B original appears exactly twice (itself + one replica)
    by_origin = Counter(
        r.replica_of if r.source == "replica" else r.annotation_id
        for r in adjusted.records
        if r.stratum_id == "B"
    )
    assert set(by_origin.values()) == {2}


def test_apply_pair_replicas_follow_their_original():
    ds = pool_dataset({"A": 2, "B": 1}, n_items=2)
    adjusted, _ = apply_pair(ds, PopulationBenchmark({"A": Fraction(1, 3), "B": Fraction(2, 3)}))
    records = adjusted.records
    for i, rec in enumerate(records):
        if rec.source != "replica":
            continue
        # immediately preceded by its original or a sibling replica of it
        prev = records[i - 1]
        assert rec.replica_of in (prev.annotation_id, prev.replica_of)
        assert rec.annotation_id.startswith(rec.replica_of + "#r")


def test_apply_pair_noop_when_pool_matches_benchmark():
    ds = pool_dataset({"A": 6, "B": 6})
    adjusted, wt = apply_pair(ds, HALF_HALF)
    assert wt.counts == {"A": 0, "B": 0}
    assert adjusted.records == ds.records


def test_apply_pair_extreme_imbalance():
    # 9 A + 1 B per item: S = (0.9, 0.1), weights (5/9, 5), K = 9/5,
    # normalized (1, 9), so each B annotation appears 9 times and the
    # post-replication B share is exactly one half
    ds = pool_dataset({"A": 9, "B": 1}, n_items=3)
    adjusted, wt = apply_pair(ds, HALF_HALF)
    assert wt.raw == {"A": Fraction(5, 9), "B": Fraction(5)}
    assert wt.k == Fraction(9, 5)
    assert wt.normalized == {"A": 1, "B": 9}
    assert wt.counts == {"A": 0, "B": 8}
    counts = Counter(r.stratum_id for r in adjusted.records)
    assert counts["B"] / sum(counts.values()) == 0.5


# ---------------------------------------------------------------------------
# properties


def test_scale_invariance_of_selection():
    gen = stream(123, "scale-invariance-test")
    ds = pool_dataset({"A": 6, "B": 3}, n_items=4)
    baseline_adj, baseline_wt = apply_pair(ds, HALF_HALF)
    base_raw = pair_weights(HALF_HALF, pool_shares(ds)).raw
    for _ in range(20):
        c = Fraction(float(gen.uniform(0.1, 10.0)))
        wt = WeightTable({s: c * w for s, w in base_raw.items()})
        assert wt.normalized == baseline_wt.normalized
        assert wt.counts == baseline_wt.counts


def test_share_restoration_exact_for_integer_weights():
    # engineered so normalized weights are exactly the integers t_s
    gen = stream(77, "share-restoration-test")
    for trial in range(25):
        n_strata = int(gen.integers(2, 5))
        strata = [f"s{j}" for j in range(n_strata)]
        counts = {s: int(gen.integers(1, 7)) for s in strata}
        t = {s: int(gen.integers(1, 5)) for s in strata}
        t[strata[int(gen.integers(0, n_strata))]] = 1
        total = sum(counts.values())
        weight_mass = sum(Fraction(counts[s], total) * t[s] for s in strata)
        bench = PopulationBenchmark(
            {s: Fraction(counts[s], total) * t[s] / weight_mass for s in strata}
        )
        gold = GoldTable.from_entries((GoldEntry("only", (), 0.5, 12),))
        bias = BiasSpec(0.0, {s: "plus" for s in strata})
        ds = sample_pool(gold, PoolComposition(counts), bias, seed=trial)
        adjusted, wt = apply_pair(ds, bench)
        assert wt.normalized == t
        out = Counter(r.stratum_id for r in adjusted.records)
        out_total = sum(out.values())
        for s in strata:
            assert Fraction(out[s], out_total) == bench.shares[s]


# ---------------------------------------------------------------------------
# the same PAIR invariants as properties over random pools and benchmarks


def _round_half_up(x: Fraction) -> int:
    """Nearest integer to a non-negative rational, halves rounded up."""
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


@st.composite
def pools_and_benchmarks(draw):
    """A pool of 1-5 strata with 1-8 records each in random order, and a
    benchmark of random rational shares over the same strata."""
    strata = [f"s{j}" for j in range(draw(st.integers(1, 5)))]
    layout = [s for s in strata for _ in range(draw(st.integers(1, 8)))]
    records = tuple(
        Annotation(f"a{i}", f"it{draw(st.integers(0, 3))}", s, draw(st.integers(0, 1)))
        for i, s in enumerate(draw(st.permutations(layout)))
    )
    shares = [draw(st.fractions(min_value=Fraction(1, 50), max_value=50)) for _ in strata]
    benchmark = PopulationBenchmark({s: v / sum(shares) for s, v in zip(strata, shares)})
    return Dataset.from_records(records, DatasetMeta("OL", "nonrep1", 0.0, 0)), benchmark


@settings(max_examples=300, deadline=None)
@given(
    pools_and_benchmarks(),
    st.one_of(st.none(), st.fractions(min_value=1, max_value=5, max_denominator=12)),
)
def test_pair_properties_over_random_pools(case, k_factor):
    dataset, benchmark = case
    pool = Counter(r.stratum_id for r in dataset.records)
    raw = {s: benchmark.shares[s] / Fraction(pool[s], len(dataset)) for s in pool}
    k = (1 if k_factor is None else k_factor) / min(raw.values())
    adjusted, weights = apply_pair(dataset, benchmark, k=None if k_factor is None else k)
    counts = {s: _round_half_up(raw[s] * k) - 1 for s in raw}
    assert (weights.raw, weights.k, weights.counts) == (raw, k, counts)

    # nothing is deleted and originals keep their order
    assert [r for r in adjusted.records if r.source == "original"] == list(dataset.records)
    # each original is followed directly by its replicas, with its provenance
    pos = 0
    for rec in dataset.records:
        assert adjusted.records[pos] == rec
        for j in range(1, counts[rec.stratum_id] + 1):
            assert adjusted.records[pos + j] == Annotation(
                f"{rec.annotation_id}#r{j}",
                rec.item_id,
                rec.stratum_id,
                rec.label,
                source="replica",
                replica_of=rec.annotation_id,
            )
        pos += 1 + counts[rec.stratum_id]
    assert pos == len(adjusted)

    if all((raw[s] * k).denominator == 1 for s in raw):
        out = Counter(r.stratum_id for r in adjusted.records)
        assert {s: Fraction(out[s], len(adjusted)) for s in out} == benchmark.shares


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pair_restores_shares_exactly_when_weights_are_integers(data):
    strata = [f"s{j}" for j in range(data.draw(st.integers(1, 5)))]
    counts = {s: data.draw(st.integers(1, 8)) for s in strata}
    multipliers = {s: data.draw(st.integers(1, 6)) for s in strata}
    multipliers[data.draw(st.sampled_from(strata))] = 1
    mass = sum(counts[s] * multipliers[s] for s in strata)
    benchmark = PopulationBenchmark(
        {s: Fraction(counts[s] * multipliers[s], mass) for s in strata}
    )
    records = tuple(
        Annotation(f"{s}-{i}", "it0", s, i % 2) for s in strata for i in range(counts[s])
    )
    adjusted, weights = apply_pair(Dataset.from_records(records, DatasetMeta("OL", "custom", 0.0, 0)), benchmark)
    assert weights.normalized == multipliers
    out = Counter(r.stratum_id for r in adjusted.records)
    assert {s: Fraction(out[s], len(adjusted)) for s in out} == benchmark.shares


@settings(max_examples=200, deadline=None)
@given(pools_and_benchmarks(), st.fractions(min_value=Fraction(1, 1000), max_value=1000))
def test_pair_normalized_weights_are_scale_invariant(case, c):
    dataset, benchmark = case
    base = pair_weights(benchmark, pool_shares(dataset))
    scaled = WeightTable({s: c * w for s, w in base.raw.items()})
    assert scaled.normalized == base.normalized
    assert scaled.counts == base.counts


def test_share_restoration_residual_bound_for_fractional_weights():
    # when normalized weights are not integers the share error is
    # controlled by the rounding residuals d_s = round(nw_s) - nw_s:
    #   share'_s - P_s = (c_s d_s)/W - share'_s (sum_t c_t d_t)/W,
    # with W = sum_t c_t nw_t, so the triangle inequality gives the
    # bound checked here (exact rational arithmetic throughout)
    gen = stream(79, "share-residual-test")
    checked = 0
    for trial in range(60):
        n_strata = int(gen.integers(2, 5))
        strata = [f"s{j}" for j in range(n_strata)]
        counts = {s: int(gen.integers(1, 9)) for s in strata}
        shares = [Fraction(int(v), 1) for v in gen.integers(1, 20, size=n_strata)]
        total_share = sum(shares)
        bench = PopulationBenchmark({s: v / total_share for s, v in zip(strata, shares)})
        total = sum(counts.values())
        nw_by = {}
        raw = {s: bench.shares[s] / Fraction(counts[s], total) for s in strata}
        k = 1 / min(raw.values())
        nw_by = {s: raw[s] * k for s in strata}
        if any(nw + Fraction(1, 2) < 1 for nw in nw_by.values()):
            continue  # would round to zero; rejected by WeightTable
        gold = GoldTable.from_entries((GoldEntry("only", (), 0.5, 12),))
        pool = sample_pool(
            gold,
            PoolComposition(counts),
            BiasSpec(0.0, {s: "plus" for s in strata}),
            seed=trial,
        )
        adjusted, wt = apply_pair(pool, bench)
        out = Counter(r.stratum_id for r in adjusted.records)
        out_total = sum(out.values())
        w_mass = sum(counts[s] * nw_by[s] for s in strata)
        residual_mass = sum(counts[s] * abs(wt.counts[s] + 1 - nw_by[s]) for s in strata)
        for s in strata:
            err = abs(Fraction(out[s], out_total) - bench.shares[s])
            bound = (counts[s] * abs(wt.counts[s] + 1 - nw_by[s]) + residual_mass) / w_mass
            assert err <= bound
        checked += 1
    assert checked >= 40


def test_no_deletion():
    ds = pool_dataset({"A": 5, "B": 2}, n_items=6)
    adjusted, _ = apply_pair(ds, HALF_HALF)
    originals = [r for r in adjusted.records if r.source == "original"]
    assert Counter(originals) == Counter(ds.records)


def test_idempotence_on_restored_shares():
    ds = pool_dataset({"A": 6, "B": 3}, n_items=4)
    once, _ = apply_pair(ds, HALF_HALF)
    twice, wt = apply_pair(once, HALF_HALF)
    assert wt.counts == {"A": 0, "B": 0}
    assert twice.records == once.records


def test_label_preservation_recount():
    gold = synth_gold(50, Uniform(0.2, 0.8), seed=31)
    suite = build_suite(gold, 0.2, seed=33)
    adjusted, _ = apply_pair(suite.nonrep1, HALF_HALF)
    pos = sum(r.label for r in adjusted.records) / len(adjusted.records)
    shares: Counter = Counter(r.stratum_id for r in adjusted.records)
    total = sum(shares.values())
    by_stratum = {}
    for s in shares:
        recs = [r for r in adjusted.records if r.stratum_id == s]
        by_stratum[s] = sum(r.label for r in recs) / len(recs)
    reconstructed = sum((shares[s] / total) * by_stratum[s] for s in shares)
    assert abs(pos - reconstructed) < 1e-12


# ---------------------------------------------------------------------------
# file round trips


def test_recipe_counts_rejects_a_recipe_it_does_not_make():
    # "custom" is a dataset's recipe, but no suite recipe
    draws = draw_suite(synth_gold(5, Uniform(0.2, 0.8), seed=1), seed=2)
    with pytest.raises(ValueError, match="unknown recipe 'custom'"):
        recipe_counts(draws, 0.1, "custom", PopulationBenchmark({"A": 0.5, "B": 0.5}))


def test_read_benchmark_reads_exact_fraction_strings(tmp_path):
    path = tmp_path / "benchmark.json"
    path.write_text('{"A": "1/3", "B": "2/3"}')
    bench = read_benchmark(path)
    assert bench == PopulationBenchmark({"A": Fraction(1, 3), "B": Fraction(2, 3)})
    assert all(type(v) is Fraction for v in bench.shares.values())


def test_benchmark_validation():
    with pytest.raises(ValueError, match="sum"):
        PopulationBenchmark({"A": 0.5, "B": 0.3})
    with pytest.raises(ValueError, match="positive"):
        PopulationBenchmark({"A": 1.5, "B": -0.5})


def test_benchmark_rejects_non_numbers_by_stratum():
    with pytest.raises(ValueError, match=r"^shares\['A'\] must be a number, got True$"):
        PopulationBenchmark({"A": True})
    with pytest.raises(ValueError, match="^shares must be a mapping, got"):
        PopulationBenchmark([Fraction(1, 2), Fraction(1, 2)])


def test_read_benchmark_names_the_file(tmp_path):
    path = tmp_path / "benchmark.json"
    path.write_text('{"A": "1/2", "B": false}')
    with pytest.raises(ValueError, match=r"benchmark\.json: benchmark\.B must be a number"):
        read_benchmark(path)
    path.write_text("[0.5, 0.5]")
    with pytest.raises(ValueError, match=r"benchmark\.json: benchmark must be a JSON object"):
        read_benchmark(path)


def test_write_weights_writes_the_exact_table_and_its_floats(tmp_path):
    _, wt = apply_pair(pool_dataset({"A": 6, "B": 3}), HALF_HALF)
    assert wt.k == Fraction(4, 3)  # a K no float holds exactly
    path = tmp_path / "weights.json"
    write_weights(wt, path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"strata", "k", "k_exact"}
    assert Fraction(payload["k_exact"]) == wt.k and payload["k"] == float(wt.k)
    assert set(payload["strata"]) == set(wt.raw)
    for s, entry in payload["strata"].items():
        assert Fraction(entry["raw_exact"]) == wt.raw[s]
        assert Fraction(entry["normalized_exact"]) == wt.normalized[s]
        assert entry["raw"] == float(wt.raw[s])
        assert entry["normalized"] == float(wt.normalized[s])
        assert entry["replication_count"] == wt.counts[s]
    # the exact strings alone rebuild the table
    raw = {s: Fraction(e["raw_exact"]) for s, e in payload["strata"].items()}
    assert WeightTable(raw, Fraction(payload["k_exact"])) == wt

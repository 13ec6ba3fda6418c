"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion. The real-data criterion is skipped (not failed) unless the
PAIRSIM_ANNOTATIONS environment variable points at the annotation file.
"""

import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pairsim.adjust import (
    PopulationBenchmark,
    WeightTable,
    apply_pair,
    pair_weights,
    pool_shares,
)
from pairsim.experiments import (
    PAPER_BETAS,
    PAPER_SEEDS,
    ExperimentConfig,
    SyntheticGold,
    ingest_external,
    load_config,
    run_cell,
    save_config,
    sweep,
)
from pairsim.metrics import acb
from pairsim.rng import stream
from pairsim.simulation import (
    Annotation,
    BiasSpec,
    GoldEntry,
    GoldTable,
    PoolComposition,
    Uniform,
    build_suite,
    filter_difficult,
    sample_pool,
    synth_gold,
)
from pairsim.trainer import proportion_oracle

HALF_HALF = PopulationBenchmark({"A": 0.5, "B": 0.5})

ANNOTATION_FILE = os.environ.get("PAIRSIM_ANNOTATIONS", "")

# the trend corpus: two clusters far from the decision threshold plus a
# thin ambiguous band, so calibration reacts to composition bias much
# more strongly than thresholded accuracy does
TREND_GOLD = SyntheticGold(
    components=(
        (Uniform(0.79, 1.0), 2100),
        (Uniform(0.0, 0.125), 500),
        (Uniform(0.32, 0.68), 400),
    ),
    vocab_size=2000,
    tokens_per_item=60,
    seed=7,
)


def _ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_criterion_1_worked_example_exact():
    gold = GoldTable.from_entries(tuple(GoldEntry(f"i{k}", (), 0.5, 12) for k in range(3)))
    pool = sample_pool(gold, PoolComposition({"A": 6, "B": 3}), BiasSpec.two_type(0.0), seed=1)
    start = time.perf_counter()
    weights = pair_weights(HALF_HALF, pool_shares(pool))
    elapsed = time.perf_counter() - start
    assert float(weights.raw["A"]) == 0.75
    assert float(weights.raw["B"]) == 1.5
    assert weights.k == Fraction(4, 3)
    assert float(weights.normalized["A"]) == 1.0
    assert float(weights.normalized["B"]) == 2.0
    assert weights.counts == {"A": 0, "B": 1}
    assert elapsed < 0.05
    _ok(1, f"weight pipeline exact: raw (0.75, 1.5), K=4/3, counts (0, 1); {elapsed * 1e3:.3f} ms")


def test_criterion_2_table_structure_every_beta_and_seed():
    gold = GoldTable.from_entries(
        tuple(GoldEntry(f"i{k:03d}", (), (k % 13) / 12, 12) for k in range(25))
    )
    for beta in PAPER_BETAS:
        for seed in PAPER_SEEDS:
            suite = build_suite(gold, beta, seed)
            adjusted, _ = apply_pair(suite.nonrep1, HALF_HALF)
            for ds, expected in (
                (suite.representative, {"A": 6, "B": 6}),
                (suite.nonrep1, {"A": 6, "B": 3}),
                (suite.nonrep2, {"A": 9, "B": 3}),
                (adjusted, {"A": 6, "B": 6}),
            ):
                for recs in ds.records_by_item().values():
                    assert Counter(r.stratum_id for r in recs) == expected
            n1_b = [r for r in suite.nonrep1.records if r.stratum_id == "B"]
            adj_b = Counter(
                r.replica_of if r.source == "replica" else r.annotation_id
                for r in adjusted.records
                if r.stratum_id == "B"
            )
            assert adj_b == {r.annotation_id: 2 for r in n1_b}
    _ok(2, f"per-item counts exact for {len(PAPER_BETAS)} betas x {len(PAPER_SEEDS)} seeds")


def test_criterion_3_data_level_calibration():
    beta = 0.3
    gold = synth_gold(2000, Uniform(0.35, 0.65), seed=61)
    # quantized grid {4..8}/12 keeps every shifted probability inside (0, 1)
    assert all(beta <= e.p_gold <= 1 - beta for e in gold.entries)
    suite = build_suite(gold, beta, seed=67)
    adjusted, _ = apply_pair(suite.nonrep1, HALF_HALF)
    p = gold.p_by_item()

    def mean_dev(ds):
        oracle = proportion_oracle(ds)
        return abs(float(np.mean([oracle[i] - p[i] for i in oracle])))

    dev_n1 = mean_dev(suite.nonrep1)
    dev_n2 = mean_dev(suite.nonrep2)
    dev_rep = mean_dev(suite.representative)
    dev_adj = mean_dev(adjusted)
    assert abs(dev_n1 - 0.10) <= 0.01
    assert abs(dev_n2 - 0.15) <= 0.01
    assert dev_rep <= 0.03
    assert dev_adj <= 0.03
    _ok(
        3,
        f"oracle deviations: nonrep1 {dev_n1:.4f} (0.10), nonrep2 {dev_n2:.4f} (0.15), "
        f"representative {dev_rep:.4f}, adjusted {dev_adj:.4f}",
    )


def test_criterion_4_share_restoration_exact():
    gen = stream(71, "c4-compositions")
    trials = 50
    for trial in range(trials):
        n_strata = int(gen.integers(2, 6))
        strata = [f"s{j}" for j in range(n_strata)]
        counts = {s: int(gen.integers(1, 9)) for s in strata}
        multipliers = {s: int(gen.integers(1, 6)) for s in strata}
        multipliers[strata[int(gen.integers(0, n_strata))]] = 1
        total = sum(counts.values())
        mass = sum(Fraction(counts[s], total) * multipliers[s] for s in strata)
        benchmark = PopulationBenchmark(
            {s: Fraction(counts[s], total) * multipliers[s] / mass for s in strata}
        )
        gold = GoldTable.from_entries((GoldEntry("only", (), 0.5, 12),))
        pool = sample_pool(
            gold,
            PoolComposition(counts),
            BiasSpec(0.0, {s: "plus" for s in strata}),
            seed=trial,
        )
        adjusted, weights = apply_pair(pool, benchmark)
        assert weights.normalized == multipliers  # integers by construction
        out = Counter(r.stratum_id for r in adjusted.records)
        out_total = sum(out.values())
        for s in strata:
            assert Fraction(out[s], out_total) == benchmark.shares[s]
    _ok(4, f"post-replication shares equal benchmark exactly in {trials} randomized trials")


def test_criterion_5_scale_invariance():
    gen = stream(73, "c5-constants")
    gold = GoldTable.from_entries(
        tuple(GoldEntry(f"i{k}", (), (k % 13) / 12, 12) for k in range(12))
    )
    pool = sample_pool(gold, PoolComposition({"A": 6, "B": 3}), BiasSpec.two_type(0.0), seed=3)
    baseline_adjusted, baseline_weights = apply_pair(pool, HALF_HALF)
    base_raw = pair_weights(HALF_HALF, pool_shares(pool))

    def replicate(dataset, counts):
        # independent replication oracle, kept deliberately naive
        out = []
        for rec in dataset.records:
            out.append(rec)
            for j in range(counts[rec.stratum_id]):
                out.append(
                    Annotation(
                        f"{rec.annotation_id}#r{j + 1}",
                        rec.item_id,
                        rec.stratum_id,
                        rec.label,
                        source="replica",
                        replica_of=rec.annotation_id,
                    )
                )
        return tuple(out)

    trials = 100
    for _ in range(trials):
        c = Fraction(float(gen.uniform(0.1, 10.0)))
        weights = WeightTable({s: c * w for s, w in base_raw.raw.items()})
        assert weights.normalized == baseline_weights.normalized
        assert weights.counts == baseline_weights.counts
        assert replicate(pool, weights.counts) == baseline_adjusted.records
    _ok(5, f"counts and adjusted datasets invariant to rescaling in {trials} randomized trials")


def test_criterion_6_end_to_end_trend():
    start = time.perf_counter()
    config = ExperimentConfig(gold=TREND_GOLD, split=(2000, 500, 500))
    beta = 0.3
    mean_acb = {}
    mean_f1 = {}
    for recipe in ("representative", "nonrep1", "nonrep2", "adjusted"):
        rows = [run_cell(config, beta, seed, recipe) for seed in PAPER_SEEDS]
        mean_acb[recipe] = float(np.mean([r.acb for r in rows]))
        mean_f1[recipe] = float(np.mean([r.f1 for r in rows]))
    elapsed = time.perf_counter() - start

    assert mean_acb["nonrep2"] > mean_acb["nonrep1"] > mean_acb["adjusted"]
    assert mean_acb["nonrep2"] - mean_acb["adjusted"] > 0.03
    assert abs(mean_acb["adjusted"] - mean_acb["representative"]) < 0.03
    acb_spread = max(mean_acb.values()) - min(mean_acb.values())
    f1_spread = max(mean_f1.values()) - min(mean_f1.values())
    assert f1_spread < acb_spread
    assert elapsed < 600
    _ok(
        6,
        "mean ACB "
        + " ".join(f"{r}={mean_acb[r]:.4f}" for r in mean_acb)
        + f"; F1 spread {f1_spread:.4f} < ACB spread {acb_spread:.4f}; {elapsed:.0f}s",
    )


def test_criterion_7_acb_metric_correctness():
    gold = GoldTable.from_entries(tuple(GoldEntry(f"i{k}", (), k / 12, 12) for k in range(13)))
    perfect = gold.p_by_item()
    assert acb(perfect, gold) == 0.0
    constant = {i: 0.5 for i in gold.item_ids()}
    start = time.perf_counter()
    measured = acb(constant, gold)
    elapsed = time.perf_counter() - start
    enumerated = sum(abs(Fraction(1, 2) - Fraction(k, 12)) for k in range(13)) / 13
    assert abs(measured - float(enumerated)) < 1e-12
    _ok(7, f"perfect predictor ACB 0; enumeration match {measured:.12f}; {elapsed * 1e3:.3f} ms")


def test_criterion_8_sweep_determinism(tmp_path):
    spec = SyntheticGold(
        components=((Uniform(0.0, 1.0), 300),), vocab_size=200, tokens_per_item=12, seed=2
    )
    config = ExperimentConfig(
        gold=spec,
        betas=(0.3,),
        seeds=(10, 42),
        split=(200, 50, 50),
        recipes=("representative", "adjusted"),
    )
    from pairsim.trainer import TrainConfig
    import dataclasses

    config = dataclasses.replace(config, train=TrainConfig(epochs=2, hash_dim=512))
    config_path = tmp_path / "config.json"
    save_config(config, config_path)
    reports = []
    for run in ("one", "two"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "pairsim.cli", "sweep",
             "--config", str(config_path), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]
    _ok(8, f"two sweep runs produced byte-identical reports ({len(reports[0])} bytes)")


@pytest.mark.skipif(
    not ANNOTATION_FILE,
    reason="set PAIRSIM_ANNOTATIONS to the annotation file to run the real-data checks",
)
def test_criterion_9_real_annotation_file():
    ol = ingest_external(ANNOTATION_FILE, task="OL")
    hs = ingest_external(ANNOTATION_FILE, task="HS")
    ol_difficult = filter_difficult(ol.gold, 0.4, 0.6)
    hs_difficult = filter_difficult(hs.gold, 0.4, 0.6)
    assert len(ol_difficult) == 267
    assert len(hs_difficult) == 360
    hs_mean = sum(e.p_gold for e in hs.gold.entries) / len(hs.gold)
    assert abs(hs_mean - 0.167) <= 0.005
    _ok(
        9,
        f"difficult filter kept {len(ol_difficult)} OL / {len(hs_difficult)} HS items; "
        f"HS positive proportion {hs_mean:.4f}",
    )


# Criterion 10's margins. Each claim must hold by about half of the
# smallest margin by which it held on the paper grid when the gate was
# written, so a change that bends the results shows here, not only one
# that reverses them.
PAPER_GRID = Path(__file__).parent.parent / "configs" / "paper-grid-ol.json"
NONREP2_OVER_NONREP1 = 0.0009  # smallest gap 0.0018, at beta 0.05
NONREP1_OVER_REPRESENTATIVE = 0.002  # smallest gap 0.0045, at beta 0.05
NONREP1_EXCESS_RISE = 0.003  # smallest rise 0.0061, from beta 0.20 to 0.25
# largest |adjusted - representative| 0.00035; a quarter of the smallest
# nonrep1 excess, so an adjusted that stayed nonrep1 fails
ADJUSTED_FROM_REPRESENTATIVE = 0.001
F1_BELOW_ACB_SPREAD = 0.001  # smallest gap 0.0020, at beta 0.05


def test_criterion_10_paper_claims_at_every_beta():
    start = time.perf_counter()
    config = load_config(PAPER_GRID)
    result = sweep(config)
    elapsed = time.perf_counter() - start
    assert not result.failures
    means = {(recipe, beta): agg.mean for (_, recipe, beta), agg in result.aggregates.items()}
    excesses = []
    for beta in config.betas:
        mean_acb = {r: means[(r, beta)]["acb"] for r in config.recipes}
        mean_f1 = {r: means[(r, beta)]["f1"] for r in config.recipes}
        representative = mean_acb["representative"]
        excesses.append(mean_acb["nonrep1"] - representative)
        assert mean_acb["nonrep2"] - mean_acb["nonrep1"] > NONREP2_OVER_NONREP1, beta
        assert excesses[-1] > NONREP1_OVER_REPRESENTATIVE, beta
        assert abs(mean_acb["adjusted"] - representative) < ADJUSTED_FROM_REPRESENTATIVE, beta
        acb_spread = max(mean_acb.values()) - min(mean_acb.values())
        f1_spread = max(mean_f1.values()) - min(mean_f1.values())
        assert f1_spread + F1_BELOW_ACB_SPREAD < acb_spread, beta
    assert all(b - a > NONREP1_EXCESS_RISE for a, b in zip(excesses, excesses[1:]))
    _ok(
        10,
        f"{len(config.betas)} betas x {len(config.seeds)} seeds: nonrep2 > nonrep1 > "
        f"representative, nonrep1 excess {excesses[0]:.4f} rising to {excesses[-1]:.4f}, "
        f"adjusted near representative, F1 spread below ACB spread; {elapsed:.1f}s",
    )

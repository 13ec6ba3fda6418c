"""SHA-256 pins of every file the command-line tools write.

Each test runs one ``pairsim`` command on a shipped config and compares
the SHA-256 of each output file with a fixed value, so a change to any
draw, replica, weight, model or report shows up here as a pin edit.
The simulate and adjust pins cover the data path alone; the report,
model and evaluate pins also cover the trainer, the cold model pin its
one-point fit.

The two model pins last moved with model version 3, whose file records
each path point's loss once, and neither ``best_epoch`` nor a
``history`` of the losses nor each point's ``l2``, all of which the
losses and the config give. The weights and bias in those files, and so
the evaluate pin, did not change.

The five data-file pins (the four simulate pins and ``adjusted.jsonl``)
last moved with the file format: a gold or dataset file became one JSON
object of the table's columns instead of one object per item or record.
The columns hold the same values, which the weight-table, report,
model and evaluate pins show by passing unchanged: every file reads
back to the same inputs of the weights and the trainer.
"""

import hashlib
from pathlib import Path

import pytest

from pairsim.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
QUICK = str(CONFIGS / "quick.json")
TREND = str(CONFIGS / "trend-beta030.json")
PAPER = str(CONFIGS / "paper-grid-ol.json")

SIMULATE_PINS = {
    "gold.jsonl": "d34fb57e9cbeff4d1c2aa504c6c04012e75624e0d6e9e40d69aed3675a1eb9f3",
    "representative.jsonl": "cd76fd7094e53e27e82f236f85c99850752ad04265f50b5e73925d3d455f1986",
    "nonrep1.jsonl": "ffdd2df2a18aa6ff19fb3d6458cd5e7215488d143ca01719847efb989f769852",
    "nonrep2.jsonl": "e7b90113ca917fc60b4b3fa3f7b1c18c7c814c484cad2bf4d7f9793c3615b697",
}
ADJUST_PINS = {
    "adjusted.jsonl": "be7466693e08b3fc50b11a1867eba120d0896c988e6e88c8f215f1ebcb1044eb",
    "weights.json": "d74f4cf9395d62bb26ef3e71670ec3cd9c575056113c41d13caa84c4a9f330d5",
}
REPORT_PINS = {
    QUICK: "7327b93e39b58d417f7a3667194762e8b21a62eca47f5cab74b37da4dbc9a5a2",
    TREND: "3ae203ab034a2bd3385235b6bfbe9e1a8add6d67cea5e3b975af4dd4af2c8e16",
    # every paper beta at trend scale: 24 cells, one seed
    PAPER: "f0e7abc1a8f160b48b18112387d184b242106dcac3f28406455c421121d581ba",
}
MODEL_PIN = "89bac83278f191b7f09af50ffcf951609b797ff941f00504a0f45b67418b8095"
COLD_MODEL_PIN = "f924c053bc04969dd1481112ca2216bead722650549bd32c85019db5224d6acc"
EVALUATE_PIN = "29d3ad4b9ca817e86589b4c836e80cfed49b72c4586ea683a5023da7a291b850"


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """``pairsim simulate`` of configs/quick.json at beta 0.3, seed 10."""
    out = tmp_path_factory.mktemp("simulate")
    assert main(["simulate", "--config", QUICK, "--beta", "0.3", "--seed", "10",
                 "--out", str(out)]) == 0
    return out


def adjust(simulated, out, *k):
    benchmark = out / "benchmark.json"
    benchmark.write_text('{"A": "1/2", "B": "1/2"}\n', encoding="utf-8")
    assert main(["adjust", "--dataset", str(simulated / "nonrep1.jsonl"),
                 "--benchmark", str(benchmark), "--out-dataset", str(out / "adjusted.jsonl"),
                 "--out-weights", str(out / "weights.json"), *k]) == 0
    return out


@pytest.mark.parametrize("name", sorted(SIMULATE_PINS))
def test_simulate_output_is_pinned(simulated, name):
    assert sha256(simulated / name) == SIMULATE_PINS[name]


@pytest.mark.parametrize("k", [[], ["--k", "4/3"]], ids=["default-k", "k-4/3"])
def test_adjust_outputs_are_pinned(simulated, tmp_path, k):
    # K 4/3 is also the default for nonrep1 here: both runs write the same bytes
    out = adjust(simulated, tmp_path, *k)
    assert {name: sha256(out / name) for name in ADJUST_PINS} == ADJUST_PINS


@pytest.mark.parametrize(
    "config, flags",
    [
        (QUICK, []), (QUICK, ["--workers", "2"]), (TREND, ["--seeds", "10"]),
        (PAPER, ["--seeds", "10"]),
    ],
    ids=["quick-serial", "quick-workers2", "trend-seed10", "paper-grid-seed10"],
)
def test_sweep_report_is_pinned(tmp_path, config, flags):
    assert main(["sweep", "--config", config, "--out", str(tmp_path), *flags]) == 0
    assert sha256(tmp_path / "report.csv") == REPORT_PINS[config]


def test_train_and_evaluate_outputs_are_pinned(simulated, tmp_path):
    gold = str(simulated / "gold.jsonl")
    dataset = str(adjust(simulated, tmp_path) / "adjusted.jsonl")
    model = tmp_path / "model.json"
    assert main(["train", "--dataset", dataset, "--gold", gold,
                 "--dev-dataset", str(simulated / "representative.jsonl"),
                 "--out", str(model), "--seed", "10", "--epochs", "3",
                 "--hash-dim", "1024"]) == 0
    metrics = tmp_path / "metrics.json"
    assert main(["evaluate", "--model", str(model), "--gold", gold, "--dataset", dataset,
                 "--out", str(metrics)]) == 0
    assert (sha256(model), sha256(metrics)) == (MODEL_PIN, EVALUATE_PIN)


def test_cold_one_point_model_is_pinned(simulated, tmp_path):
    # one path point from the intercept-only start, at 4096 dims, no dev set
    dataset = str(adjust(simulated, tmp_path) / "adjusted.jsonl")
    model = tmp_path / "model.json"
    assert main(["train", "--dataset", dataset, "--gold", str(simulated / "gold.jsonl"),
                 "--out", str(model), "--seed", "10", "--epochs", "1",
                 "--hash-dim", "4096"]) == 0
    assert sha256(model) == COLD_MODEL_PIN

import json

import pytest

from pairsim.cli import main
from pairsim.experiments import save_config, ExperimentConfig, SyntheticGold
from pairsim.simulation import Uniform, read_dataset, read_gold
from pairsim.trainer import TrainConfig, load_model


@pytest.fixture()
def config_path(tmp_path):
    spec = SyntheticGold(
        components=((Uniform(0.0, 1.0), 60),), vocab_size=100, tokens_per_item=10, seed=1
    )
    config = ExperimentConfig(
        gold=spec,
        betas=(0.2,),
        seeds=(10, 42),
        split=(40, 10, 10),
        recipes=("representative", "adjusted"),
        train=TrainConfig(epochs=2, hash_dim=256),
    )
    path = tmp_path / "config.json"
    save_config(config, path)
    return path


def test_cli_end_to_end(tmp_path, config_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--beta", "0.2",
                 "--seed", "10", "--out", str(out)]) == 0
    gold = read_gold(out / "gold.jsonl")
    assert len(gold) == 60
    nonrep1 = read_dataset(out / "nonrep1.jsonl")
    assert len(nonrep1) == 60 * 9

    benchmark_path = tmp_path / "benchmark.json"
    benchmark_path.write_text('{"A": 0.5, "B": 0.5}')
    adj_path = out / "adjusted.jsonl"
    weights_path = out / "weights.json"
    assert main(["adjust", "--dataset", str(out / "nonrep1.jsonl"),
                 "--benchmark", str(benchmark_path),
                 "--out-dataset", str(adj_path), "--out-weights", str(weights_path)]) == 0
    adjusted = read_dataset(adj_path)
    assert len(adjusted) == 60 * 12
    weights = json.loads(weights_path.read_text())
    assert weights["k_exact"] == "4/3"
    assert weights["strata"]["B"]["replication_count"] == 1

    model_path = out / "model.json"
    assert main(["train", "--dataset", str(adj_path), "--gold", str(out / "gold.jsonl"),
                 "--out", str(model_path), "--seed", "10",
                 "--epochs", "2", "--hash-dim", "256"]) == 0
    model = load_model(model_path)
    chosen = model.path[model.best_epoch - 1]
    assert [p.l2 for p in model.path] == list(TrainConfig(epochs=2).path())[: len(model.path)]
    assert (
        f"chose l2 {chosen.l2:g} (path point {model.best_epoch} of 2, "
        f"{chosen.iterations} L-BFGS iterations)"
    ) in capsys.readouterr().out

    metrics_path = out / "metrics.json"
    assert main(["evaluate", "--model", str(model_path), "--gold", str(out / "gold.jsonl"),
                 "--dataset", str(adj_path), "--out", str(metrics_path)]) == 0
    metrics = json.loads(metrics_path.read_text())
    assert set(metrics) == {"n_items", "acb", "f1", "positive_proportion"}
    assert 0.0 <= metrics["acb"] <= 1.0


def test_cli_sweep_and_report(tmp_path, config_path, capsys):
    out = tmp_path / "results"
    assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
    report = out / "report.csv"
    assert report.exists()
    lines = report.read_text().splitlines()
    assert len([l for l in lines if l.startswith("cell")]) == 4
    assert len([l for l in lines if l.startswith("mean")]) == 2

    rewritten = tmp_path / "report2.csv"
    assert main(["report", "--cells", str(report), "--out", str(rewritten)]) == 0
    assert rewritten.read_bytes() == report.read_bytes()

    assert main(["report", "--cells", str(report)]) == 0
    printed = capsys.readouterr().out
    assert "beta=0.2" in printed


def test_cli_sweep_seed_override(tmp_path, config_path):
    out = tmp_path / "results"
    assert main(["sweep", "--config", str(config_path), "--out", str(out),
                 "--seeds", "10"]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert len([l for l in lines if l.startswith("cell")]) == 2


def test_cli_sweep_rejects_repeated_seeds(tmp_path, config_path, capsys):
    assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "results"),
                 "--seeds", "10,10"]) == 2
    assert capsys.readouterr().err == (
        "pairsim: error: seeds must not repeat a value, got (10, 10)\n"
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--workers", "-3"], "workers must be at least 1, got -3"),
        (["--workers", "0"], "workers must be at least 1, got 0"),
        (["--seeds", "10,x"], "--seeds must be comma-separated integers, got '10,x'"),
        (["--seeds", ""], "--seeds must be comma-separated integers, got ''"),
    ],
)
def test_cli_sweep_bad_flag_is_one_error_line(tmp_path, config_path, capsys, flags, message):
    out = tmp_path / "results"
    assert main(["sweep", "--config", str(config_path), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == f"pairsim: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "shares, message",
    [
        ([0.5, 0.5], "benchmark must map each stratum to its share, got [0.5, 0.5]"),
        ({"A": True}, "benchmark.A must be a number, got True"),
    ],
)
def test_cli_sweep_bad_benchmark_is_one_error_line(
    tmp_path, config_path, capsys, shares, message
):
    raw = json.loads(config_path.read_text())
    raw["benchmark"] = shares
    bad_path = tmp_path / "bad-config.json"
    bad_path.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(bad_path), "--out", str(tmp_path / "results")]) == 2
    assert capsys.readouterr().err == f"pairsim: error: {bad_path}: {message}\n"


def test_cli_missing_config_file_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "no-such-config.json"
    assert main(["sweep", "--config", str(missing), "--out", str(tmp_path / "results")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pairsim: error: ") and str(missing) in err
    assert err.count("\n") == 1


def test_cli_lets_other_exceptions_propagate(tmp_path, config_path, monkeypatch):
    from pairsim import cli

    def broken(*args, **kwargs):
        raise RuntimeError("not an input error")

    monkeypatch.setattr(cli, "load_config", broken)
    with pytest.raises(RuntimeError, match="not an input error"):
        main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "results")])


def test_cli_sweep_nonzero_exit_on_cell_failure(tmp_path, config_path, capsys):
    # a benchmark stratum nobody annotated makes every adjusted cell fail
    raw = json.loads(config_path.read_text())
    raw["benchmark"] = {"A": 0.4, "B": 0.4, "C": 0.2}
    bad_path = tmp_path / "bad-config.json"
    bad_path.write_text(json.dumps(raw))
    out = tmp_path / "results"
    assert main(["sweep", "--config", str(bad_path), "--out", str(out)]) == 1
    assert "FAILED" in capsys.readouterr().err
    assert (out / "failures.csv").exists()


def test_cli_sweep_rejects_empty_betas(tmp_path, config_path, capsys):
    raw = json.loads(config_path.read_text())
    raw["betas"] = []
    bad_path = tmp_path / "bad-config.json"
    bad_path.write_text(json.dumps(raw))
    out = tmp_path / "results"
    assert main(["sweep", "--config", str(bad_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"pairsim: error: {bad_path}: need at least one beta\n"
    assert not out.exists()


def test_cli_sweep_rejects_an_empty_test_split(tmp_path, config_path, capsys):
    raw = json.loads(config_path.read_text())
    raw["split"] = [50, 10, 0]
    bad_path = tmp_path / "bad-config.json"
    bad_path.write_text(json.dumps(raw))
    out = tmp_path / "results"
    assert main(["sweep", "--config", str(bad_path), "--out", str(out)]) == 2
    expected = f"pairsim: error: {bad_path}: split[2] (test items) must be at least 1, got 0\n"
    assert capsys.readouterr().err == expected
    assert not out.exists()


def test_cli_sweep_rejects_a_split_that_does_not_cover_the_gold(tmp_path, config_path, capsys):
    # every cell would fail to split the 60-item gold table
    raw = json.loads(config_path.read_text())
    raw["split"] = [40, 10, 9]
    bad_path = tmp_path / "bad-config.json"
    bad_path.write_text(json.dumps(raw))
    out = tmp_path / "results"
    assert main(["sweep", "--config", str(bad_path), "--out", str(out)]) == 2
    message = "split (40, 10, 9) sums to 59, but the synthetic gold has 60 items"
    assert capsys.readouterr().err == f"pairsim: error: {bad_path}: {message}\n"
    assert not out.exists()


def test_cli_simulate_seed_beyond_stream_keys_is_one_error_line(tmp_path, config_path, capsys):
    seed = 2**128
    assert main(["simulate", "--config", str(config_path), "--beta", "0.3",
                 "--seed", str(seed), "--out", str(tmp_path / "sim")]) == 2
    assert capsys.readouterr().err == (
        f"pairsim: error: stream key part {seed} outside the signed 128-bit range"
        " [-2**127, 2**127)\n"
    )
    assert not (tmp_path / "sim").exists()


@pytest.fixture()
def adjust_args(tmp_path, config_path):
    """``pairsim adjust`` arguments for a simulated nonrep1 pool whose
    min_to_one K is 4/3, and the weights file they write."""
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--beta", "0.2",
                 "--seed", "10", "--out", str(out)]) == 0
    benchmark_path = tmp_path / "benchmark.json"
    benchmark_path.write_text('{"A": 0.5, "B": 0.5}')
    weights_path = out / "weights.json"
    args = ["adjust", "--dataset", str(out / "nonrep1.jsonl"), "--benchmark",
            str(benchmark_path), "--out-dataset", str(out / "adjusted.jsonl"),
            "--out-weights", str(weights_path)]
    return args, weights_path


@pytest.mark.parametrize("k, k_exact", [("4/3", "4/3"), ("1.1", "11/10"), ("2", "2")])
def test_cli_adjust_k_is_exact(adjust_args, k, k_exact):
    # a float flag would store 1.1 as 2476979795053773/2251799813685248
    args, weights_path = adjust_args
    assert main([*args, "--k", k]) == 0
    assert json.loads(weights_path.read_text())["k_exact"] == k_exact


@pytest.mark.parametrize(
    "k, message",
    [
        ("nan", "K must be a number or a fraction string like '1/3', got 'nan'"),
        ("1/0", "K must be a number or a fraction string like '1/3', got '1/0'"),
        ("-1", "K must be positive, got -1.0"),
        # exactly 1/10, which rounds every stratum below one copy
        ("0.1", "replication count below zero for strata 'A', 'B'; use the min_to_one "
                "policy (k=None) so every weight rounds to at least 1"),
    ],
    ids=["nan", "1/0", "-1", "0.1"],
)
def test_cli_adjust_bad_k_is_one_error_line(adjust_args, capsys, k, message):
    args, weights_path = adjust_args
    capsys.readouterr()
    assert main([*args, "--k", k]) == 2
    assert capsys.readouterr().err == f"pairsim: error: {message}\n"
    assert not weights_path.exists()

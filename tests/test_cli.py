import json

import pytest

from pairsim import experiments
from pairsim.cli import main
from pairsim.experiments import save_config, ExperimentConfig, SyntheticGold
from pairsim.simulation import RECIPES, Uniform, read_dataset, read_gold
from pairsim.trainer import TrainConfig, load_model
from test_columns import read_dataset_rows
from test_experiments import _BAD_SECOND_COMPONENTS


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
    assert model.config.path() == TrainConfig(epochs=2).path()
    l2 = model.config.path()[model.best_epoch - 1]
    assert (
        f"chose l2 {l2:g} (path point {model.best_epoch} of 2, "
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
        ([0.5, 0.5], "config.benchmark must be a JSON object, got [0.5, 0.5]"),
        ({"A": True}, "config.benchmark.A must be a number, got True"),
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


@pytest.mark.parametrize("component, message", _BAD_SECOND_COMPONENTS)
def test_cli_sweep_bad_gold_component_is_one_error_line_naming_it(
    tmp_path, config_path, capsys, component, message
):
    raw = json.loads(config_path.read_text())
    raw["gold"]["synthetic"]["components"].append(component)
    bad_path = tmp_path / "bad-config.json"
    bad_path.write_text(json.dumps(raw))
    out = tmp_path / "results"
    assert main(["sweep", "--config", str(bad_path), "--out", str(out)]) == 2
    where = "config.gold.synthetic.components[1]"
    assert capsys.readouterr().err == f"pairsim: error: {bad_path}: {where}: {message}\n"
    assert not out.exists()


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
    err = capsys.readouterr().err.splitlines()
    # each failure's line gives its cell once, then the error
    assert len(err) == 2
    assert all(line.startswith("FAILED task=OL recipe=adjusted") for line in err)
    assert all(line.count("recipe=") == 1 for line in err)
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


def _counted_cells(monkeypatch) -> list:
    """The cells the sweep runs from now on (serial sweeps only)."""
    ran = []
    original = experiments._cell_outcome

    def counting(args):
        ran.append(args)
        return original(args)

    monkeypatch.setattr(experiments, "_cell_outcome", counting)
    return ran


def _with_gold_file(tmp_path, config_path, gold):
    """A copy of the config at ``config_path`` that reads its gold from ``gold``."""
    raw = json.loads(config_path.read_text())
    raw["gold"] = {"file": str(gold)}
    path = tmp_path / "file-config.json"
    path.write_text(json.dumps(raw))
    return path


def _annotation_file(path, n):
    rows = (
        {"item_id": f"tw{i}", "text": f"tok{i} tok", "ol": [i % 2] * 12, "hs": [0] * 12}
        for i in range(n)
    )
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


@pytest.mark.parametrize("case", ["utf-16-bom", "missing", "split"])
def test_cli_sweep_checks_the_gold_file_once_before_any_cell(
    tmp_path, config_path, capsys, monkeypatch, case
):
    gold = tmp_path / "annotations.jsonl"
    if case == "utf-16-bom":
        gold.write_bytes(b"\xff\xfe{\x00")
        message = f"{gold}: 'utf-8' codec can't decode byte 0xff in position 0"
    elif case == "missing":
        message = f"No such file or directory: '{gold}'"
    else:
        _annotation_file(gold, 30)  # the split (40, 10, 10) needs 60 items
        message = "split counts (40, 10, 10) sum to 60, but the gold table has 30 items"
    file_config = _with_gold_file(tmp_path, config_path, gold)
    ran = _counted_cells(monkeypatch)
    out = tmp_path / "results"
    assert main(["sweep", "--config", str(file_config), "--out", str(out)]) == 2
    out_text, err = capsys.readouterr()
    assert out_text == "" and err.startswith("pairsim: error: ") and err.count("\n") == 1
    assert message in err
    assert ran == [] and not (out / "failures.csv").exists()


def test_cli_sweep_into_a_file_is_one_error_line_before_any_cell(
    tmp_path, config_path, capsys, monkeypatch
):
    out = tmp_path / "results"
    out.write_text("")
    ran = _counted_cells(monkeypatch)
    assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"pairsim: error: [Errno 17] File exists: '{out}'\n")
    assert ran == []


def test_cli_simulate_names_an_undecodable_gold_file(tmp_path, config_path, capsys):
    gold = tmp_path / "annotations.jsonl"
    gold.write_bytes(b"\xff\xfe{\x00")
    file_config = _with_gold_file(tmp_path, config_path, gold)
    assert main(["simulate", "--config", str(file_config), "--beta", "0.2",
                 "--seed", "10", "--out", str(tmp_path / "sim")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"pairsim: error: {gold}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw["gold"]["synthetic"].update(vocab_size=1),
         "vocab_size must be at least 2, got 1"),
        (lambda raw: raw["gold"]["synthetic"].update(tokens_per_item=0),
         "tokens_per_item must be at least 1, got 0"),
        (lambda raw: raw["gold"]["synthetic"]["components"][0].update(n=-5),
         "components[0].n must be at least 1, got -5"),
        (lambda raw: raw["train"].update(epochs=700),
         "epochs 700 and l2 1e-05 put the path's largest penalty, "
         "l2 * 10 ** ((epochs - 1) / 2), beyond the float range"),
        # a bool inside the gold object is read by its field's kind
        (lambda raw: raw["gold"]["synthetic"]["components"][0].update(low=True),
         "config.gold.synthetic.components[0].low must be a number, got True"),
        (lambda raw: raw["gold"]["synthetic"]["components"][0].update(n=True),
         "config.gold.synthetic.components[0].n must be an integer, got True"),
        (lambda raw: raw["gold"]["synthetic"]["components"][0].update(shape=True),
         "unknown gold shape True in config.gold.synthetic.components[0]"),
        (lambda raw: raw.update(gold={"file": True}), "config.gold.file must be a string, got True"),
    ],
    ids=[
        "vocab-size-1", "tokens-per-item-0", "component-n-negative", "epochs-700",
        "component-low-true", "component-n-true", "component-shape-true", "gold-file-true",
    ],
)
def test_cli_sweep_rejects_a_config_no_cell_can_run(
    tmp_path, config_path, capsys, monkeypatch, edit, message
):
    raw = json.loads(config_path.read_text())
    edit(raw)
    bad_path = tmp_path / "bad-config.json"
    bad_path.write_text(json.dumps(raw))
    ran = _counted_cells(monkeypatch)
    out = tmp_path / "results"
    assert main(["sweep", "--config", str(bad_path), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"pairsim: error: {bad_path}: {message}\n")
    assert ran == [] and not out.exists()


def test_cli_train_rejects_a_path_beyond_the_float_range(tmp_path, config_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--beta", "0.2",
                 "--seed", "10", "--out", str(out)]) == 0
    capsys.readouterr()
    model = tmp_path / "model.json"
    assert main(["train", "--dataset", str(out / "nonrep1.jsonl"), "--gold",
                 str(out / "gold.jsonl"), "--out", str(model), "--epochs", "700"]) == 2
    assert capsys.readouterr() == ("", (
        "pairsim: error: epochs 700 and l2 1e-05 put the path's largest penalty, "
        "l2 * 10 ** ((epochs - 1) / 2), beyond the float range\n"
    ))
    assert not model.exists()


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


def test_cli_train_rejects_an_empty_dev_dataset(tmp_path, config_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--beta", "0.2",
                 "--seed", "10", "--out", str(out)]) == 0
    dev = tmp_path / "dev.jsonl"  # the header line alone
    dev.write_text((out / "nonrep1.jsonl").read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    assert main(["train", "--dataset", str(out / "nonrep1.jsonl"), "--gold",
                 str(out / "gold.jsonl"), "--dev-dataset", str(dev),
                 "--out", str(tmp_path / "model.json")]) == 2
    assert capsys.readouterr().err == f"pairsim: error: {dev}: dataset has no records\n"
    assert not (tmp_path / "model.json").exists()


def test_cli_evaluate_rejects_an_empty_gold_table(tmp_path, config_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--beta", "0.2",
                 "--seed", "10", "--out", str(out)]) == 0
    model = tmp_path / "model.json"
    assert main(["train", "--dataset", str(out / "nonrep1.jsonl"), "--gold",
                 str(out / "gold.jsonl"), "--out", str(model),
                 "--epochs", "1", "--hash-dim", "256"]) == 0
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--gold", str(empty)]) == 2
    assert capsys.readouterr().err == f"pairsim: error: {empty}: gold table has no entries\n"


def test_cli_rejects_a_header_only_dataset_by_file(tmp_path, config_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--beta", "0.2",
                 "--seed", "10", "--out", str(out)]) == 0
    model = tmp_path / "model.json"
    assert main(["train", "--dataset", str(out / "nonrep1.jsonl"), "--gold",
                 str(out / "gold.jsonl"), "--out", str(model),
                 "--epochs", "1", "--hash-dim", "256"]) == 0
    header_only = tmp_path / "header-only.jsonl"
    header_only.write_text((out / "nonrep1.jsonl").read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    assert main(["train", "--dataset", str(header_only), "--gold", str(out / "gold.jsonl"),
                 "--out", str(tmp_path / "other.json")]) == 2
    assert capsys.readouterr().err == f"pairsim: error: {header_only}: dataset has no records\n"
    assert not (tmp_path / "other.json").exists()
    assert main(["evaluate", "--model", str(model), "--gold", str(out / "gold.jsonl"),
                 "--dataset", str(header_only)]) == 2
    assert capsys.readouterr() == ("", f"pairsim: error: {header_only}: dataset has no records\n")


@pytest.mark.parametrize(
    "argv, error",
    [
        (["train", "--dataset", "d.jsonl", "--gold", "g.jsonl", "--out", "m.json", "--ep", "2"],
         "pairsim: error: unrecognized arguments: --ep 2"),
        (["simulate", "--conf", "c.json", "--beta", "0.2", "--seed", "1", "--out", "sim"],
         "pairsim simulate: error: the following arguments are required: --config"),
        (["--vers"], "pairsim: error: the following arguments are required: command"),
    ],
)
def test_cli_takes_no_prefix_of_a_flag(tmp_path, capsys, monkeypatch, argv, error):
    # "--ep" is not "--epochs": a flag is taken only as spelled in full
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [error]
    assert list(tmp_path.iterdir()) == []


def test_cli_datasets_are_read_by_their_line_pattern(tmp_path, config_path):
    # every dataset file simulate and adjust write must be read by
    # read_dataset's line pattern, the only layout it reads, to the
    # dataset the record-level reader finds
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--beta", "0.2",
                 "--seed", "10", "--out", str(out)]) == 0
    benchmark_path = tmp_path / "benchmark.json"
    benchmark_path.write_text('{"A": 0.5, "B": 0.5}')
    assert main(["adjust", "--dataset", str(out / "nonrep1.jsonl"),
                 "--benchmark", str(benchmark_path), "--out-dataset", str(out / "adjusted.jsonl"),
                 "--out-weights", str(out / "weights.json")]) == 0
    paths = [out / f"{recipe}.jsonl" for recipe in RECIPES]
    read = [read_dataset(path) for path in paths]
    assert sum(len(dataset) for dataset in read) == 60 * (12 + 9 + 12 + 12)
    assert read == [read_dataset_rows(path) for path in paths]


_REPORT = (
    "row_type,task,recipe,beta,seed,n_items,acb,f1,positive_proportion,"
    "n_seeds,acb_std,f1_std,positive_proportion_std\n"
    "cell,OL,adjusted,0.1,10,20,0.1,1.0,0.3,,,,\n"
    "cell,OL,adjusted,0.1,42,20,0.2,0.5,0.4,,,,\n"
    "mean,OL,adjusted,0.1,,,0.15,0.75,0.35,2,0.05,0.25,0.05\n"
)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: t.replace("row_type,", "kind,", 1), ":1: header has no 'row_type' column"),
        (lambda t: t.replace(",recipe,", ",recipes,", 1), ":1: header has no 'recipe' column"),
        (lambda t: t.replace(",0.2,0.5,", ",abc,0.5,", 1),
         ":3: cell.acb must be a finite number, got 'abc'"),
        (lambda t: t.replace(",10,", ",10.5,", 1), ":2: cell.seed must be an integer, got '10.5'"),
        (lambda t: t.replace(",0.2,0.5,", ",nan,0.5,", 1),
         ":3: cell.acb must be a finite number, got 'nan'"),
        (lambda t: t.replace(",0.3,,,,", ",inf,,,,", 1),
         ":2: cell.positive_proportion must be a finite number, got 'inf'"),
        (lambda t: t.replace(",OL,adjusted,0.1,42", ",OL,,0.1,42", 1),
         ":3: cell.recipe is missing"),
        (lambda t: t.replace("cell,OL,adjusted,0.1,42,20,0.2,0.5,0.4,,,,", "cell,OL", 1),
         ":3: cell.recipe is missing"),
        (lambda t: "", ": empty report file"),
        (lambda t: t.splitlines(keepends=True)[0], ": no cell rows"),
        (lambda t: "".join(t.splitlines(keepends=True)[::3]), ": no cell rows"),
        (lambda t: t.replace(",42,", ",10,", 1),
         ":3: cell repeats line 2's task, recipe, beta and seed"),
    ],
    ids=["no-row-type", "no-recipe", "acb-abc", "seed-10.5", "acb-nan", "inf", "empty-recipe",
         "short-row", "empty-file", "header-only", "mean-rows-only", "repeated-cell"],
)
def test_cli_report_rejects_bad_cells_by_line_and_column(tmp_path, capsys, edit, message):
    report = tmp_path / "report.csv"
    report.write_text(_REPORT)
    assert main(["report", "--cells", str(report)]) == 0
    report.write_text(edit(_REPORT))
    capsys.readouterr()
    assert main(["report", "--cells", str(report)]) == 2
    assert capsys.readouterr() == ("", f"pairsim: error: {report}{message}\n")

import copy
import json
import math
import pickle
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy import sparse

from pairsim.adjust import PopulationBenchmark, apply_pair
from pairsim.rng import stream
from pairsim.simulation import (
    Annotation,
    Dataset,
    DatasetMeta,
    GoldEntry,
    GoldTable,
    TextColumn,
    Uniform,
    build_suite,
    synth_gold,
    synth_text,
)
from pairsim import trainer
from pairsim.trainer import (
    MODEL_FORMAT,
    MODEL_VERSION,
    STOP_GRADIENT,
    STOP_REDUCTION,
    Features,
    Model,
    PathPoint,
    TrainConfig,
    _item_counts,
    _lbfgs,
    featurize,
    load_model,
    loss_and_grad,
    predict,
    proportion_oracle,
    save_model,
    token_index,
    train,
)

FAST = TrainConfig(epochs=5, hash_dim=256)


def textual_gold(n=60, seed=3, lo=0.0, hi=1.0, tokens=30, vocab=120):
    return synth_text(synth_gold(n, Uniform(lo, hi), seed=seed), vocab, tokens, seed=seed)


def small_dataset(gold, beta=0.2, seed=11):
    return build_suite(gold, beta, seed=seed).representative


# ---------------------------------------------------------------------------
# gradient and prediction basics


def test_gradient_matches_finite_differences():
    # central differences of the penalized count-weighted loss at 100 random points
    gen = stream(99, "fd-check")
    dim = 24
    eps = 1e-6
    for _ in range(100):
        rows = int(gen.integers(1, 5))
        X = sparse.random(rows, dim, density=0.2, random_state=gen, format="csr")
        X_T = X.T
        totals = gen.integers(1, 13, size=rows).astype(float)
        positives = np.floor(gen.uniform(0, totals + 1))
        l2 = float(gen.choice([1e-5, 0.1, 1.0]))
        theta = gen.normal(0, 1.0, size=dim + 1)
        _, grad = loss_and_grad(theta, X, X_T, positives, totals, l2)
        for j in range(dim + 1):
            hi, lo = theta.copy(), theta.copy()
            hi[j] += eps
            lo[j] -= eps
            num = (
                loss_and_grad(hi, X, X_T, positives, totals, l2)[0]
                - loss_and_grad(lo, X, X_T, positives, totals, l2)[0]
            ) / (2 * eps)
            assert_allclose(grad[j], num, rtol=1e-5, atol=1e-9)


def test_count_weighted_loss_equals_the_per_annotation_loss():
    # one row per item weighted by its counts, against one row per record
    gold = textual_gold(n=30)
    ds = small_dataset(gold)
    features = featurize(gold.texts(), 64)
    item_ids, positives, totals = _item_counts(ds)
    records = ds.records
    per_record = features.of([r.item_id for r in records])
    labels = np.array([float(r.label) for r in records])
    theta = stream(5, "per-record").normal(0, 1.0, size=65)
    X = features.of(item_ids)
    loss, grad = loss_and_grad(theta, X, X.T, positives, totals, 1e-3)
    ref_loss, ref_grad = loss_and_grad(
        theta, per_record, per_record.T, labels, np.ones(len(records)), 1e-3
    )
    assert_allclose(loss, ref_loss, rtol=1e-12)
    assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-15)


def test_zero_weight_model_predicts_half():
    model = Model(
        weights=np.zeros(64),
        bias=0.0,
        config=TrainConfig(hash_dim=64),
        seed=0,
        path=(PathPoint(0.5, 0, "gradient"),),
    )
    preds = predict(model, {"a": ("x", "y"), "b": ("z",)})
    assert preds == {"a": 0.5, "b": 0.5}


def test_best_epoch_is_the_first_point_of_lowest_loss():
    points = tuple(PathPoint(loss, 3, "gradient") for loss in (0.5, 0.4, 0.4))
    model = Model(np.zeros(64), 0.0, TrainConfig(hash_dim=64), 0, points)
    assert model.best_epoch == 2


def test_prediction_invariant_to_token_order():
    gold = textual_gold(n=20)
    model = train(small_dataset(gold), gold.texts(), FAST, seed=1)
    tokens = gold.entries[0].text
    p_fwd = predict(model, {"i": tokens})["i"]
    p_rev = predict(model, {"i": tuple(reversed(tokens))})["i"]
    assert p_fwd == p_rev


def test_token_index_stable_and_in_range():
    assert token_index("hello", 64) == token_index("hello", 64)
    assert 0 <= token_index("hello", 64) < 64


# ---------------------------------------------------------------------------
# training behavior


def test_training_deterministic():
    gold = textual_gold(n=30)
    ds = small_dataset(gold)
    m1 = train(ds, gold.texts(), FAST, seed=5)
    m2 = train(ds, gold.texts(), FAST, seed=5)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias
    assert m1.best_epoch == m2.best_epoch
    assert m1.path == m2.path


def test_degenerate_all_positive_labels():
    gold = textual_gold(n=40)
    ds = small_dataset(gold)
    ones = Dataset.from_records(tuple(replace(r, label=1) for r in ds.records), ds.meta)
    model = train(ones, gold.texts(), FAST, seed=5)
    preds = predict(model, gold.texts())
    assert np.mean(list(preds.values())) > 0.9


def test_duplication_equals_reweighting():
    # one uniform replication doubles every item's counts and the record
    # total, which is exact in floating point: the same model, bit for bit
    gold = textual_gold(n=600, tokens=60, vocab=2000, seed=3)
    ds = build_suite(gold, 0.2, seed=11).representative
    doubled = Dataset.from_records(
        ds.records
        + tuple(
            replace(
                r,
                annotation_id=r.annotation_id + "#d",
                source="replica",
                replica_of=r.annotation_id,
            )
            for r in ds.records
        ),
        ds.meta,
    )
    texts = gold.texts()
    m1 = train(ds, texts, TrainConfig(), seed=5)
    m2 = train(doubled, texts, TrainConfig(), seed=5)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias
    assert m1.path == m2.path


def test_train_fits_nonrep1_counts_weighted_by_pair(monkeypatch):
    # PAIR reaches the fit only through the per-item counts: those of
    # nonrep1 with each record counted 1 + counts[stratum] times
    gold = textual_gold(n=40)
    nonrep1 = build_suite(gold, 0.3, seed=11).nonrep1
    adjusted, weights = apply_pair(nonrep1, PopulationBenchmark({"A": 0.5, "B": 0.5}))
    assert set(weights.counts.values()) == {0, 1}
    fitted = []
    original = trainer.loss_and_grad

    def recording(theta, X, X_T, positives, totals, l2):
        fitted.append((positives, totals))
        return original(theta, X, X_T, positives, totals, l2)

    monkeypatch.setattr(trainer, "loss_and_grad", recording)
    train(adjusted, gold.texts(), FAST)
    want_pos, want_tot = {}, {}
    for r in nonrep1.records:
        copies = 1 + weights.counts[r.stratum_id]
        want_pos[r.item_id] = want_pos.get(r.item_id, 0) + copies * r.label
        want_tot[r.item_id] = want_tot.get(r.item_id, 0) + copies
    assert all(p is fitted[0][0] and t is fitted[0][1] for p, t in fitted)
    positives, totals = fitted[0]
    assert positives.tolist() == list(want_pos.values())
    assert totals.tolist() == list(want_tot.values())


def test_missing_texts_rejected_by_name():
    gold = textual_gold(n=10)
    ds = small_dataset(gold)
    texts = gold.texts()
    missing_id = gold.entries[0].item_id
    del texts[missing_id]
    with pytest.raises(ValueError, match=missing_id):
        train(ds, texts, FAST, seed=1)


def test_predictions_in_open_interval_and_loss_decreases():
    gold = textual_gold(n=80)
    ds = small_dataset(gold)
    model = train(ds, gold.texts(), replace(FAST, epochs=8), seed=2)
    preds = predict(model, gold.texts())
    assert all(0.0 < p < 1.0 for p in preds.values())
    # a weaker penalty fits the training data better: every point is kept
    losses = [p.loss for p in model.path]
    assert all(b < a for a, b in zip(losses, losses[1:]))
    assert model.best_epoch == len(losses) == 8
    assert model.config.path() == replace(FAST, epochs=8).path()
    assert np.all(np.isfinite(model.weights))


def test_dev_epoch_selection():
    gold = textual_gold(n=50)
    ds = small_dataset(gold)
    flipped = Dataset.from_records(tuple(replace(r, label=1 - r.label) for r in ds.records), ds.meta)
    cfg = replace(FAST, epochs=6)
    m_self = train(ds, gold.texts(), cfg, seed=4, dev=ds)
    m_flip = train(ds, gold.texts(), cfg, seed=4, dev=flipped)
    # fitting the data makes the flipped dev set worse at every point:
    # the walk stops at the first rise
    assert m_flip.best_epoch == 1
    assert len(m_flip.path) == 2 and m_flip.path[1].loss > m_flip.path[0].loss
    assert m_self.best_epoch > 1
    assert not np.array_equal(m_self.weights, m_flip.weights)


def test_train_validates_config():
    gold = textual_gold(n=5)
    ds = small_dataset(gold)
    with pytest.raises(ValueError):
        train(ds, gold.texts(), replace(FAST, epochs=0), seed=1)
    with pytest.raises(ValueError):
        train(ds, gold.texts(), replace(FAST, hash_dim=1), seed=1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("epochs", 0),
        ("epochs", -3),
        ("hash_dim", 1),
        ("l2", 0.0),
        ("l2", -1e-9),
        ("l2", math.inf),
        ("l2", math.nan),
        ("l2", "1e-5"),
        ("l2", True),
        ("l2", None),
    ],
)
def test_train_config_rejects_bad_field_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_train_config_accepts_edge_values():
    config = TrainConfig(epochs=1, hash_dim=2, l2=5e-324)
    assert config.path() == (5e-324,)


def test_path_runs_from_strong_to_weak_ending_at_l2():
    assert TrainConfig(epochs=3, l2=1e-5).path() == (1e-5 * 10.0, 1e-5 * 10 ** 0.5, 1e-5)


def test_train_raises_when_no_epoch_has_finite_loss():
    # a NaN feature value makes the loss NaN at the first path point; the
    # error names that point's l2 and no model is returned
    gold = textual_gold(n=20)
    features = featurize(gold.texts(), FAST.hash_dim)
    matrix = features.matrix.copy()
    matrix.data[0] = np.nan
    with pytest.raises(ValueError, match=r"training at l2=0\.001 reached a non-finite"):
        train(small_dataset(gold), Features(features.rows, matrix), FAST)


def test_solver_rejects_non_finite_weights():
    with pytest.raises(ValueError, match=r"l2=0\.5 reached a non-finite"):
        _lbfgs(lambda theta: (0.0, np.zeros_like(theta)), np.array([np.inf, 0.0]), 0.5)


def test_train_raises_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(trainer, "_MAX_ITERATIONS", 2)
    gold = textual_gold(n=20)
    with pytest.raises(ValueError, match=r"training at l2=0\.001 did not converge in 2 "):
        train(small_dataset(gold), gold.texts(), FAST)


def test_line_search_gives_up_after_max_trials():
    # the direction claims descent, but every trial step raises the loss
    calls = []

    def fun(theta):
        calls.append(theta)
        return 1.0, np.array([-1.0])

    g0 = np.array([-1.0])
    assert trainer._line_search(fun, np.zeros(1), 0.0, g0, -g0, 1.0) is None
    assert len(calls) == trainer._MAX_TRIALS


@pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 50.0])
def test_line_search_step_meets_the_strong_wolfe_conditions(t):
    # f(x) = (x - 3)^2 + exp(x) from x = 0: the first step is too short
    # (doubling), about right, or too long (bisection)
    def fun(theta):
        x = theta[0]
        return (x - 3) ** 2 + math.exp(x), np.array([2 * (x - 3) + math.exp(x)])

    theta = np.zeros(1)
    f0, g0 = fun(theta)
    d = -g0
    step, f, g = trainer._line_search(fun, theta, f0, g0, d, t)
    want_f, want_g = fun(theta + step * d)
    assert f == want_f and np.array_equal(g, want_g)
    dg0 = float(g0 @ d)
    assert f <= f0 + trainer._C1 * step * dg0
    assert abs(float(g @ d)) <= -trainer._C2 * dg0


def test_importing_the_program_does_not_load_scipy_optimize():
    # scipy.optimize costs about 0.3 s of CPU to import; the trainer has
    # its own L-BFGS
    code = (
        "import sys, pairsim.cli, pairsim.experiments; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# proportion oracle


def test_proportion_oracle_simple():
    meta = DatasetMeta("OL", "custom", 0.0, 0)
    ds = Dataset.from_records(
        (
            Annotation("a:1", "a", "A", 1),
            Annotation("a:2", "a", "A", 1),
            Annotation("a:3", "a", "B", 0),
        ),
        meta,
    )
    assert proportion_oracle(ds) == {"a": 2 / 3}


def test_proportion_oracle_counts_replicas():
    gold = synth_gold(20, Uniform(0.2, 0.8), seed=7)
    suite = build_suite(gold, 0.1, seed=9)
    adjusted, _ = apply_pair(suite.nonrep1, PopulationBenchmark({"A": 0.5, "B": 0.5}))
    oracle = proportion_oracle(adjusted)
    for item_id, recs in adjusted.records_by_item().items():
        a_pos = sum(r.label for r in recs if r.stratum_id == "A" and r.source == "original")
        b_pos = sum(r.label for r in recs if r.stratum_id == "B" and r.source == "original")
        assert oracle[item_id] == (a_pos + 2 * b_pos) / 12


def test_proportion_oracle_nonrep2_deviation():
    # analytic expectation: (9 p_A + 3 p_B) / 12 = p - beta/2 when nothing clamps
    beta = 0.3
    gold = synth_gold(2000, Uniform(0.35, 0.65), seed=41)
    suite = build_suite(gold, beta, seed=43)
    oracle = proportion_oracle(suite.nonrep2)
    p = gold.p_by_item()
    mean_dev = np.mean([oracle[i] - p[i] for i in oracle])
    assert abs(abs(mean_dev) - 0.15) < 0.01


# ---------------------------------------------------------------------------
# end-to-end smoke and model files


def test_unbiased_pipeline_is_roughly_calibrated():
    # full desk-scale run: train on an unbiased pool, score on held-out items
    from pairsim.experiments import ExperimentConfig, SyntheticGold, run_cell

    spec = SyntheticGold(
        components=((Uniform(0.79, 1.0), 2100), (Uniform(0.0, 0.125), 500), (Uniform(0.32, 0.68), 400)),
        vocab_size=2000,
        tokens_per_item=60,
        seed=7,
    )
    cfg = ExperimentConfig(gold=spec, split=(2000, 500, 500))
    row = run_cell(cfg, 0.0, 42, "representative")
    assert row.acb < 0.15


def test_model_file_round_trip(tmp_path):
    gold = textual_gold(n=25)
    model = train(small_dataset(gold), gold.texts(), FAST, seed=8)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias
    assert loaded.config == model.config
    assert loaded.seed == model.seed
    assert loaded.best_epoch == model.best_epoch
    assert loaded.path == model.path and all(isinstance(p, PathPoint) for p in loaded.path)


def test_load_model_rejects_other_files(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="not a"):
        load_model(path)


def _saved_model_payload(tmp_path):
    gold = textual_gold(n=25)
    path = tmp_path / "model.json"
    save_model(train(small_dataset(gold), gold.texts(), FAST, seed=8), path)
    return path, json.loads(path.read_text())


@pytest.mark.parametrize(
    "key, value",
    [
        ("hash_dim", 256.0),
        ("epochs", "5"),
        ("l2", True),
        ("seed", 8.9),
        ("bias", None),
        # well-typed values that contradict another field (FAST: 5 epochs, 256 dims)
        ("weights", [0.0]),
        ("path", []),
        ("path", [{"loss": 0.5, "iterations": 2, "stop": "gradient"}] * 6),
    ],
)
def test_load_model_rejects_wrong_types_by_name(tmp_path, key, value):
    path, payload = _saved_model_payload(tmp_path)
    payload[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=rf"model\.json: model\.{key}(\[1\])? must be"):
        load_model(path)


@pytest.mark.parametrize("key", ["l2", "path", "seed", "weights"])
def test_load_model_rejects_missing_fields_by_name(tmp_path, key):
    path, payload = _saved_model_payload(tmp_path)
    del payload[key]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=rf"model\.json: model\.{key} is missing"):
        load_model(path)


# best_epoch and history were keys of version 2; the path's losses now give both
@pytest.mark.parametrize("key", ["epochz", "config", "best_epoch", "history"])
def test_load_model_rejects_unknown_keys_by_name(tmp_path, key):
    path, payload = _saved_model_payload(tmp_path)
    payload[key] = 5
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=rf"unknown key '{key}' in .*model\.json: model$"):
        load_model(path)


@pytest.mark.parametrize(
    "point, message",
    [
        ({"loss": 0.5, "iterations": 2.5, "stop": "gradient"}, r"path\[0\]\.iterations must be"),
        ({"loss": 0.5, "iterations": 2, "stop": "tired"}, "stop must be 'gradient' or 'reduction'"),
        ({"loss": 0.5, "iterations": 2}, r"path\[0\]\.stop is missing"),
        ([1e-3, 2, "gradient"], r"path\[0\] must be a JSON object"),
        # a version 2 point's penalty, which config.path() gives
        (
            {"l2": 1e-3, "loss": 0.5, "iterations": 2, "stop": "gradient"},
            r"unknown key 'l2' in .*model\.json: model\.path\[0\]$",
        ),
        ({"loss": "0.5", "iterations": 2, "stop": "gradient"}, r"path\[0\]\.loss must be a number"),
        ({"iterations": 2, "stop": "gradient"}, r"path\[0\]\.loss is missing"),
    ],
)
def test_load_model_rejects_bad_path_points(tmp_path, point, message):
    path, payload = _saved_model_payload(tmp_path)
    payload["path"] = [point]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message):
        load_model(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p.update(bias=math.nan), r"bias must be finite, got nan$"),
        (lambda p: p.update(bias=math.inf), r"bias must be finite, got inf$"),
        (lambda p: p["weights"].__setitem__(3, -math.inf), r"weights\[3\] must be finite"),
        (lambda p: p["path"][0].update(loss=math.nan), r"path\[0\]\.loss must be finite, got nan$"),
        (lambda p: p["path"][0].update(iterations=-4), r"path\[0\]\.iterations must be >= 0, got -4$"),
    ],
    ids=["nan-bias", "infinite-bias", "infinite-weight", "nan-path-loss", "negative-iterations"],
)
def test_load_model_rejects_a_diverged_model_by_name(tmp_path, edit, message):
    # json writes and reads NaN and Infinity; a model holding one is not a fit
    path, payload = _saved_model_payload(tmp_path)
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=rf"model\.json: model\.{message}"):
        load_model(path)


def test_load_model_rejects_version_1_files(tmp_path):
    # version 1 held SGD settings (learning_rate, batch_size) and no path;
    # version 2 held best_epoch, history and each path point's penalty
    path, payload = _saved_model_payload(tmp_path)
    for version in (1, 2):
        payload["version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"unsupported model version {version}"):
            load_model(path)


def test_load_model_rejects_a_version_that_is_not_an_integer(tmp_path):
    path, payload = _saved_model_payload(tmp_path)
    payload["version"] = 3.0
    path.write_text(json.dumps(payload))
    message = r"model\.json: model\.version must be an integer, got 3\.0$"
    with pytest.raises(ValueError, match=message):
        load_model(path)


_POINT = PathPoint(0.5, 2, STOP_GRADIENT)


@pytest.mark.parametrize(
    "fault, message",
    [
        ({"path": ()}, "model.path must be 1 to 3 points (epochs), got 0"),
        ({"path": (_POINT,) * 4}, "model.path must be 1 to 3 points (epochs), got 4"),
        ({"weights": np.zeros(3)}, "model.weights must be 4 long (hash_dim), got 3"),
        ({"bias": math.nan}, "model.bias must be finite, got nan"),
        ({"bias": -math.inf}, "model.bias must be finite, got -inf"),
        ({"weights": np.array([0, 0, math.inf, 0])}, "model.weights[2] must be finite, got inf"),
        (
            {"path": (_POINT, PathPoint(math.nan, 2, STOP_GRADIENT))},
            "model.path[1].loss must be finite, got nan",
        ),
        (
            {"path": (_POINT, PathPoint(0.5, -1, STOP_GRADIENT))},
            "model.path[1].iterations must be >= 0, got -1",
        ),
        (
            {"path": (PathPoint(0.5, 2, "tired"),)},
            "model.path[0].stop must be 'gradient' or 'reduction', got 'tired'",
        ),
    ],
    ids=[
        "empty-path", "too-many-points", "weight-length", "nan-bias", "infinite-bias",
        "infinite-weight", "nan-loss", "negative-iterations", "bad-stop",
    ],
)
def test_a_model_built_in_python_is_held_to_the_model_file_rules(tmp_path, fault, message):
    parts = {
        "weights": np.zeros(4), "bias": 0.0, "config": TrainConfig(hash_dim=4), "seed": 0,
        "path": (_POINT,), **fault,
    }
    with pytest.raises(ValueError) as built:
        Model(**parts)
    assert str(built.value) == message
    # the same parts in a model file: the loader's error is the model's, naming the file
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "format": MODEL_FORMAT, "version": MODEL_VERSION, **asdict(parts["config"]),
        "seed": parts["seed"], "path": [asdict(point) for point in parts["path"]],
        "bias": parts["bias"], "weights": parts["weights"].tolist(),
    }))
    with pytest.raises(ValueError) as read:
        load_model(path)
    assert str(read.value) == f"{path}: {message}"


def test_a_model_holds_a_read_only_copy_of_its_weights():
    weights = np.zeros(4, dtype=np.float32)
    model = Model(weights, 0.0, TrainConfig(hash_dim=4), 0, (_POINT,))
    with pytest.raises(ValueError, match="read-only"):
        model.weights[0] = 1.0
    weights[0] = 1.0  # the caller's array stays writable and is not the model's
    assert model.weights.dtype == np.float64 and not model.weights.any()


@pytest.mark.parametrize(
    "fault, message",
    [
        ({"bias": True}, "model.bias must be a number, got True"),
        ({"seed": 1.5}, "model.seed must be an integer, got 1.5"),
    ],
    ids=["bool-bias", "float-seed"],
)
def test_a_model_built_in_python_is_held_to_the_loader_kind_rule(tmp_path, fault, message):
    parts = {
        "weights": np.zeros(4), "bias": 0.0, "config": TrainConfig(hash_dim=4), "seed": 0,
        "path": (_POINT,), **fault,
    }
    with pytest.raises(ValueError) as built:
        Model(**parts)
    assert str(built.value) == message
    # the same value in a saved model file is the loader's error, naming the file
    path = tmp_path / "model.json"
    save_model(Model(**{**parts, "bias": 0.0, "seed": 0}), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **fault}))
    with pytest.raises(ValueError) as read:
        load_model(path)
    assert str(read.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "weights, kind",
    [
        (np.array(["1.5"] * 4), "<U3"),
        (np.ones(4, dtype=bool), "bool"),
        ((0.0, None, 0.0, 0.0), "object"),
    ],
    ids=["strings", "bools", "objects"],
)
def test_a_model_rejects_weights_that_are_not_numbers(weights, kind):
    # a float64 cast would read each "1.5" as 1.5 and each True as 1.0
    with pytest.raises(ValueError, match=f"^model.weights must be numbers, got {kind}$"):
        Model(weights, 0.0, TrainConfig(hash_dim=4), 0, (_POINT,))


def _not_strict_json(constant):
    raise ValueError(f"{constant} is not JSON")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _models(draw):
    """Models of valid random parts: 1 to ``epochs`` points, finite
    losses, weights and bias, iterations of at least 0, either stop test;
    weights as an array or, as the loader passes them, a tuple."""
    config = TrainConfig(
        draw(st.integers(1, 4)), draw(st.integers(2, 12)), draw(st.floats(1e-12, 1e3))
    )
    weights = arrays(np.float64, config.hash_dim, elements=_FINITE)
    stops = st.sampled_from([STOP_GRADIENT, STOP_REDUCTION])
    point = st.builds(PathPoint, _FINITE, st.integers(0, 10 ** 6), stops)
    return Model(
        draw(weights | weights.map(lambda a: tuple(a.tolist()))),
        draw(_FINITE),
        config,
        draw(st.integers()),
        tuple(draw(st.lists(point, min_size=1, max_size=config.epochs))),
    )


@settings(max_examples=100, deadline=None)
@given(model=_models())
def test_a_model_that_can_be_made_is_one_load_model_reads_back_bit_for_bit(
    tmp_path_factory, model
):
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    json.loads(path.read_text(encoding="utf-8"), parse_constant=_not_strict_json)
    loaded = load_model(path)
    assert loaded.weights.tobytes() == model.weights.tobytes()
    assert not (loaded.weights.flags.writeable or model.weights.flags.writeable)
    # repr tells -0.0 from 0.0, which == does not
    assert repr((loaded.bias, loaded.config, loaded.seed, loaded.path)) == repr(
        (model.bias, model.config, model.seed, model.path)
    )


@settings(max_examples=50, deadline=None)
@given(model=_models())
def test_a_copied_or_unpickled_model_is_rebuilt_read_only(model):
    for copied in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert not copied.weights.flags.writeable
        assert copied.weights.tobytes() == model.weights.tobytes()
        assert repr((copied.bias, copied.config, copied.seed, copied.path)) == repr(
            (model.bias, model.config, model.seed, model.path)
        )


# ---------------------------------------------------------------------------
# the fit against its definition


def _reference_item_matrix(item_ids, texts, dim):
    """The per-item dict construction the fast ``_item_matrix`` replaced."""
    indptr = [0]
    indices = []
    data = []
    for item_id in item_ids:
        tokens = texts[item_id]
        counts = {}
        for tok in tokens:
            j = token_index(tok, dim)
            counts[j] = counts.get(j, 0) + 1
        for j in sorted(counts):
            indices.append(j)
            data.append(counts[j] / len(tokens))
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(item_ids), dim),
    )


@st.composite
def training_problems(draw):
    """Tiny texts and datasets: replicas, colliding hash columns, and a
    dev set whose items may use tokens no training item has."""
    n_items = draw(st.integers(1, 8))
    vocab = draw(st.integers(1, 40))
    token = st.integers(0, vocab - 1).map(lambda j: f"t{j}")
    # rows longer than 8 entries tell a sequential sum from a pairwise one
    texts = {
        f"i{i}": tuple(draw(st.lists(token, min_size=1, max_size=24))) for i in range(n_items)
    }
    unseen = st.integers(0, 9).map(lambda j: f"u{j}")
    for i in range(draw(st.integers(0, 3))):
        texts[f"d{i}"] = tuple(draw(st.lists(st.one_of(token, unseen), min_size=1, max_size=24)))

    def records(item_ids, prefix):
        recs = []
        for r in range(draw(st.integers(1, 30))):
            item_id = draw(st.sampled_from(item_ids))
            recs.append(Annotation(f"{prefix}{r}", item_id, "A", draw(st.integers(0, 1))))
        for r, rec in enumerate(draw(st.lists(st.sampled_from(recs), max_size=10))):
            recs.append(
                replace(
                    rec,
                    annotation_id=f"{prefix}x{r}",
                    source="replica",
                    replica_of=rec.annotation_id,
                )
            )
        return Dataset.from_records(tuple(recs), DatasetMeta("OL", "custom", 0.0, 0))

    dataset = records(sorted(i for i in texts if i.startswith("i")), "a")
    dev = records(sorted(texts), "v") if draw(st.booleans()) else None
    config = TrainConfig(
        epochs=draw(st.integers(1, 4)),
        hash_dim=draw(st.integers(2, 40)),
        l2=draw(st.sampled_from([1e-5, 1e-3, 0.1])),
    )
    return dataset, texts, config, draw(st.integers(0, 1000)), dev


def _all_positive_pair():
    """A drawn problem whose chosen path point stopped on a small loss drop
    with its largest gradient entry at 1.1e-4, above this test's bound,
    until a small drop counted only near a stationary point: two items,
    three positive records each, two of them replicas."""
    records = []
    for item_id in ("i2", "i0"):
        original = Annotation(f"{item_id}a", item_id, "A", 1)
        records.append(original)
        for r in range(2):
            records.append(
                replace(original, annotation_id=f"{item_id}x{r}", source="replica",
                        replica_of=original.annotation_id)
            )
    dataset = Dataset.from_records(tuple(records), DatasetMeta("OL", "custom", 0.0, 0))
    texts = {"i0": ("t20", "t7", "t11"), "i2": ("t5", "t10")}
    return dataset, texts, TrainConfig(epochs=4, hash_dim=19, l2=0.1), 7, None


@settings(max_examples=150, deadline=None)
@given(training_problems())
@example(_all_positive_pair())
def test_each_path_point_is_a_stationary_point_of_its_objective(problem):
    # the kept weights minimize the penalized loss of the training counts
    # at the chosen l2; columns no training text touches stay exactly 0
    dataset, texts, config, seed, dev = problem
    model = train(dataset, texts, config, seed, dev=dev)
    assert len(model.path) >= model.best_epoch >= 1
    chosen = model.path[model.best_epoch - 1]
    item_ids, positives, totals = _item_counts(dataset)
    X = _reference_item_matrix(item_ids, texts, config.hash_dim)
    theta = np.append(model.weights, model.bias)
    l2 = config.path()[model.best_epoch - 1]
    loss, grad = loss_and_grad(theta, X, X.T, positives, totals, l2)
    touched = np.unique(X.indices)
    untouched = np.setdiff1d(np.arange(config.hash_dim), touched)
    assert not model.weights[untouched].any()
    grad = np.append(grad[touched], grad[-1])
    if chosen.stop == "gradient":
        assert np.abs(grad).max() <= 1.001e-5
    else:
        assert np.abs(grad).max() <= 1e-4


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=10), max_size=8),
    st.integers(2, 64),
)
def test_item_matrix_matches_per_item_reference(token_lists, dim):
    texts = {f"i{i}": tuple(tokens) for i, tokens in enumerate(token_lists)}
    item_ids = list(texts)
    fast = featurize(texts, dim).matrix
    ref = _reference_item_matrix(item_ids, texts, dim)
    assert fast.shape == ref.shape
    assert np.array_equal(fast.indptr, ref.indptr)
    assert np.array_equal(fast.indices, ref.indices)
    assert np.array_equal(fast.data, ref.data)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "d", "\u00e9", "tok"]), min_size=1, max_size=12),
        min_size=1,
        max_size=8,
    ),
    st.integers(2, 8),
    st.randoms(use_true_random=False),
)
def test_featurize_from_codes_equals_featurize_from_texts_bit_for_bit(token_lists, dim, rnd):
    # repeated tokens in a row; at 2-8 columns most vocabularies collide;
    # the same texts coded in another vocabulary order give the same rows
    gold = GoldTable.from_entries(
        GoldEntry(f"i{i}", tuple(tokens), 0.5, 12) for i, tokens in enumerate(token_lists)
    )
    vocab = list(gold.text.vocab)
    rnd.shuffle(vocab)
    code = {token: k for k, token in enumerate(vocab)}
    recode = np.array([code[token] for token in gold.text.vocab], dtype=np.intp)
    text = TextColumn(tuple(vocab), recode[gold.text.codes], gold.text.offsets)
    shuffled = GoldTable(gold.item_id, text, gold.p_gold, gold.k_reference)
    assert shuffled == gold and shuffled.texts() == gold.texts()
    ref = _reference_item_matrix(list(gold.item_id), gold.texts(), dim)
    for features in (featurize(gold, dim), featurize(shuffled, dim), featurize(gold.texts(), dim)):
        assert list(features.rows) == list(gold.item_id)
        got = features.matrix
        assert got.shape == ref.shape
        assert got.indptr.dtype == ref.indptr.dtype and got.indptr.tobytes() == ref.indptr.tobytes()
        assert got.indices.dtype == np.int32 == ref.indices.dtype
        assert got.indices.tobytes() == ref.indices.tobytes()
        assert got.data.dtype == np.float64 and got.data.tobytes() == ref.data.tobytes()


def test_item_matrix_rejects_empty_text_by_name():
    with pytest.raises(ValueError, match="'b'"):
        featurize({"a": ("x",), "b": ()}, 16)


# ---------------------------------------------------------------------------
# features built once, rows selected by item


@settings(max_examples=100, deadline=None)
@given(training_problems(), st.randoms(use_true_random=False), st.integers(0, 4))
def test_train_and_predict_on_features_equal_train_and_predict_on_texts(
    problem, rnd, n_extra
):
    dataset, texts, config, seed, dev = problem
    # the features cover more items than training uses, in another order
    table = {**texts, **{f"x{j}": ("t0", f"x{j}") for j in range(n_extra)}}
    order = list(table)
    rnd.shuffle(order)
    features = featurize({item_id: table[item_id] for item_id in order}, config.hash_dim)
    needed = {r.item_id for ds in (dataset, dev) if ds is not None for r in ds.records}
    on_texts = train(dataset, {i: texts[i] for i in texts if i in needed}, config, seed, dev=dev)
    on_features = train(dataset, features, config, seed, dev=dev)
    assert np.array_equal(on_features.weights, on_texts.weights)
    assert on_features.bias == on_texts.bias
    assert on_features.best_epoch == on_texts.best_epoch
    assert [p.loss for p in on_features.path] == [p.loss for p in on_texts.path]
    asked = order[: rnd.randint(0, len(order))]
    rnd.shuffle(asked)
    got = predict(on_texts, features.select(asked))
    want = predict(on_texts, {item_id: table[item_id] for item_id in asked})
    assert list(got) == list(want) == asked
    assert np.array_equal(list(got.values()), list(want.values()))


def test_featurize_rows_follow_mapping_order():
    texts = {"b": ("x", "y", "x"), "a": ("z",)}
    features = featurize(texts, 16)
    assert dict(features.rows) == {"b": 0, "a": 1}
    assert features.hash_dim == 16
    ref = _reference_item_matrix(["a"], texts, 16)
    assert np.array_equal(features.select(["a"]).matrix.toarray(), ref.toarray())


@pytest.mark.parametrize(
    "token, error",
    [(5, "token 5 is not a string"), ("\ud800", r"token '\\ud800' cannot be encoded as UTF-8")],
    ids=["int", "lone-surrogate"],
)
def test_a_mapping_token_that_is_not_a_utf8_string_is_named_by_item(token, error):
    # as in a gold table: the item is named, not a failure inside token_index
    texts = {"a": ("x",), "b": ("y", token)}
    message = rf"^item 'b': {error}$"
    with pytest.raises(ValueError, match=message):
        featurize(texts, 16)
    records = [Annotation("a:0", "a", "A", 1), Annotation("b:0", "b", "A", 0)]
    dataset = Dataset.from_records(records, DatasetMeta("OL", "custom", 0.0, 0))
    with pytest.raises(ValueError, match=message):
        train(dataset, texts, FAST)


@pytest.mark.parametrize("text, shown", [("hello", "'hello'"), (5, "5")], ids=["str", "int"])
def test_a_mapping_text_that_is_not_a_token_sequence_is_named_by_item(text, shown):
    # a str would otherwise be coded as one-character tokens
    texts = {"a": ("x",), "b": text}
    message = rf"^item 'b': text must be a sequence of tokens, got {shown}$"
    with pytest.raises(ValueError, match=message):
        featurize(texts, 16)
    records = [Annotation("a:0", "a", "A", 1), Annotation("b:0", "b", "A", 0)]
    dataset = Dataset.from_records(records, DatasetMeta("OL", "custom", 0.0, 0))
    with pytest.raises(ValueError, match=message):
        train(dataset, texts, FAST)


def test_a_mapping_item_id_that_is_not_a_string_is_named():
    # ids like these once became feature rows {5: 0, None: 1}
    with pytest.raises(ValueError, match=r"^item 5: item_id must be a string$"):
        featurize({5: ("x",), None: ("y",)}, 16)
    # items are checked in order, each id before its text
    with pytest.raises(ValueError, match=r"^item 'a': token 5 is not a string$"):
        featurize({"a": ("x", 5), 7: ("y",)}, 16)
    with pytest.raises(ValueError, match=r"^item 7: item_id must be a string$"):
        featurize({7: ("y", 5), "a": ("x", 5)}, 16)


# texts of str tokens, texts whose tokens may be no str, not UTF-8 or
# not hashable, and texts that are no token sequence
_ANY_TEXT = st.one_of(
    st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=3).map(tuple),
    st.lists(st.sampled_from(["x", 1, None, "\ud800", ("w",), ["v"]]), max_size=3).map(tuple),
    st.sampled_from(["x y", 5]),
)


def _featurized(make):
    """The message of the ValueError ``make()`` raises, or the rows and
    the matrix of the features it returns."""
    try:
        features = make()
    except ValueError as err:
        return str(err)
    m = features.matrix
    return dict(features.rows), m.shape, m.indptr.tolist(), m.indices.tolist(), m.data.tolist()


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(["a", "b", "c", "d", 5, None]), _ANY_TEXT, max_size=5))
def test_a_mapping_and_its_gold_table_featurize_by_one_rule(texts):
    # a mapping's texts were once checked as sequences all at once and
    # their tokens only after coding: a later item's str text was reported
    # before an earlier item's bad token, and a list token was a TypeError
    def from_table():
        entries = (GoldEntry(i, text, 0.5, 12) for i, text in texts.items())
        return featurize(GoldTable.from_entries(entries), 64)

    assert _featurized(lambda: featurize(texts, 64)) == _featurized(from_table)


@pytest.mark.parametrize(
    "hash_dim, error",
    [
        (0, "must be at least 2, got 0"),
        (-4, "must be at least 2, got -4"),
        (2.0, "must be an integer, got 2.0"),
        (True, "must be an integer, got True"),
    ],
)
def test_featurize_takes_a_hash_dim_by_the_train_configs_rule(hash_dim, error):
    # these were once a ZeroDivisionError, scipy's error for a negative
    # shape and a TypeError, and True built a one-column matrix
    for make in (lambda: featurize({"a": ("x",)}, hash_dim), lambda: TrainConfig(hash_dim=hash_dim)):
        with pytest.raises(ValueError, match=rf"^hash_dim {error}$"):
            make()


def test_train_and_predict_reject_features_of_another_hash_dim():
    gold = textual_gold(n=20)
    features = featurize(gold.texts(), FAST.hash_dim * 2)
    with pytest.raises(ValueError, match="512 hash columns, expected 256"):
        train(small_dataset(gold), features, FAST)
    model = train(small_dataset(gold), gold.texts(), FAST)
    with pytest.raises(ValueError, match="512 hash columns, expected 256"):
        predict(model, features)


def test_train_names_items_the_features_lack():
    gold = textual_gold(n=20)
    features = featurize(gold.texts(), FAST.hash_dim).select(gold.item_ids()[1:])
    with pytest.raises(ValueError, match=f"no text for items: {gold.item_ids()[0]}"):
        train(small_dataset(gold), features, FAST)


def test_features_of_and_select_name_the_items_they_lack():
    features = featurize({"a": ("x",)}, 16)
    for lookup in (features.of, features.select):
        with pytest.raises(ValueError, match=r"^no text for items: nope, zz$"):
            lookup(["zz", "a", "nope"])
    # sorted, the first 10
    with pytest.raises(ValueError, match=r"^no text for items: m00, m01, .*, m09$"):
        features.of([f"m{j:02d}" for j in range(12, -1, -1)])
    assert featurize(features, 16) is features


def test_train_names_missing_training_items_before_missing_dev_items():
    gold = textual_gold(n=20)
    train_ds = small_dataset(gold).restrict(gold.item_ids()[10:])
    dev_ds = small_dataset(gold).restrict(gold.item_ids()[:10])
    # the dev item sorts first, but the training items are looked up first
    features = featurize(gold, FAST.hash_dim)
    lacking = features.select([i for i in gold.item_ids() if i not in gold.item_ids()[::19]])
    with pytest.raises(ValueError, match=rf"^no text for items: {gold.item_ids()[19]}$"):
        train(train_ds, lacking, FAST, dev=dev_ds)
    with pytest.raises(ValueError, match=rf"^no text for items: {gold.item_ids()[0]}$"):
        train(train_ds, features.select(gold.item_ids()[1:]), FAST, dev=dev_ds)

import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import sparse

from pairsim.adjust import PopulationBenchmark, apply_pair
from pairsim.rng import stream
from pairsim.simulation import (
    Annotation,
    Dataset,
    DatasetMeta,
    Uniform,
    build_suite,
    synth_gold,
    synth_text,
)
from pairsim import trainer
from pairsim.trainer import (
    Features,
    Model,
    PathPoint,
    TrainConfig,
    _item_counts,
    _item_matrix,
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
        best_epoch=0,
        history=(),
        path=(),
    )
    preds = predict(model, {"a": ("x", "y"), "b": ("z",)})
    assert preds == {"a": 0.5, "b": 0.5}


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
    assert m1.history == m2.history and m1.path == m2.path


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
    assert m1.history == m2.history and m1.path == m2.path


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
    history = model.history
    assert all(b < a for a, b in zip(history, history[1:]))
    assert model.best_epoch == len(history) == 8
    assert [p.l2 for p in model.path] == list(replace(FAST, epochs=8).path())
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
    assert len(m_flip.history) == 2 and m_flip.history[1] > m_flip.history[0]
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
    assert loaded.history == model.history
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
        ("best_epoch", "3"),
        ("history", [0.5, "0.4"]),
        ("bias", None),
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


@pytest.mark.parametrize("key", ["epochz", "config"])
def test_load_model_rejects_unknown_keys_by_name(tmp_path, key):
    path, payload = _saved_model_payload(tmp_path)
    payload[key] = 5
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=rf"unknown key '{key}' in .*model\.json: model$"):
        load_model(path)


@pytest.mark.parametrize(
    "point, message",
    [
        ({"l2": 1e-3, "iterations": 2.5, "stop": "gradient"}, r"path\[0\]\.iterations must be"),
        ({"l2": 1e-3, "iterations": 2, "stop": "tired"}, "stop must be 'gradient' or 'reduction'"),
        ({"l2": 1e-3, "iterations": 2}, r"path\[0\]\.stop is missing"),
        ([1e-3, 2, "gradient"], r"path\[0\] must be a JSON object"),
    ],
)
def test_load_model_rejects_bad_path_points(tmp_path, point, message):
    path, payload = _saved_model_payload(tmp_path)
    payload["path"] = [point]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message):
        load_model(path)


def test_load_model_rejects_version_1_files(tmp_path):
    # version 1 held SGD settings (learning_rate, batch_size) and no path
    path, payload = _saved_model_payload(tmp_path)
    payload["version"] = 1
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unsupported model version 1"):
        load_model(path)


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


@settings(max_examples=150, deadline=None)
@given(training_problems())
def test_each_path_point_is_a_stationary_point_of_its_objective(problem):
    # the kept weights minimize the penalized loss of the training counts
    # at the chosen l2; columns no training text touches stay exactly 0
    dataset, texts, config, seed, dev = problem
    model = train(dataset, texts, config, seed, dev=dev)
    assert len(model.path) == len(model.history) >= model.best_epoch >= 1
    chosen = model.path[model.best_epoch - 1]
    item_ids, positives, totals = _item_counts(dataset)
    X = _reference_item_matrix(item_ids, texts, config.hash_dim)
    theta = np.append(model.weights, model.bias)
    loss, grad = loss_and_grad(theta, X, X.T, positives, totals, chosen.l2)
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
    fast = _item_matrix(item_ids, texts, dim)
    ref = _reference_item_matrix(item_ids, texts, dim)
    assert fast.shape == ref.shape
    assert np.array_equal(fast.indptr, ref.indptr)
    assert np.array_equal(fast.indices, ref.indices)
    assert np.array_equal(fast.data, ref.data)


def test_item_matrix_rejects_empty_text_by_name():
    with pytest.raises(ValueError, match="'b'"):
        _item_matrix(["a", "b"], {"a": ("x",), "b": ()}, 16)


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
    assert on_features.history == on_texts.history
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

import json
import math
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
from pairsim.trainer import (
    Model,
    TrainConfig,
    _item_matrix,
    featurize,
    load_model,
    loss_and_grad,
    predict,
    proportion_oracle,
    save_model,
    token_index,
    train,
)

FAST = TrainConfig(epochs=5, learning_rate=0.2, hash_dim=256, batch_size=16)


def textual_gold(n=60, seed=3, lo=0.0, hi=1.0, tokens=30, vocab=120):
    return synth_text(synth_gold(n, Uniform(lo, hi), seed=seed), vocab, tokens, seed=seed)


def small_dataset(gold, beta=0.2, seed=11):
    return build_suite(gold, beta, seed=seed).representative


# ---------------------------------------------------------------------------
# gradient and prediction basics


def test_gradient_matches_finite_differences():
    # central differences on the batch-mean loss at 100 random points
    gen = stream(99, "fd-check")
    dim = 24
    eps = 1e-6
    for _ in range(100):
        nnz = int(gen.integers(1, 6))
        cols = gen.choice(dim, size=nnz, replace=False)
        vals = gen.uniform(0.05, 1.0, size=nnz)
        X = sparse.csr_matrix((vals, (np.zeros(nnz, dtype=int), cols)), shape=(1, dim))
        y = np.array([float(gen.integers(0, 2))])
        w = gen.normal(0, 1.0, size=dim)
        b = float(gen.normal(0, 1.0))
        _, grad_w, grad_b = loss_and_grad(w, b, X, y)
        for j in cols:
            w_hi, w_lo = w.copy(), w.copy()
            w_hi[j] += eps
            w_lo[j] -= eps
            num = (loss_and_grad(w_hi, b, X, y)[0] - loss_and_grad(w_lo, b, X, y)[0]) / (2 * eps)
            assert_allclose(grad_w[j], num, rtol=1e-5, atol=1e-9)
        num_b = (loss_and_grad(w, b + eps, X, y)[0] - loss_and_grad(w, b - eps, X, y)[0]) / (2 * eps)
        assert_allclose(grad_b, num_b, rtol=1e-5, atol=1e-9)


def test_zero_weight_model_predicts_half():
    model = Model(
        weights=np.zeros(64),
        bias=0.0,
        config=TrainConfig(hash_dim=64),
        seed=0,
        best_epoch=0,
        history=(),
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


def test_degenerate_all_positive_labels():
    gold = textual_gold(n=40)
    ds = small_dataset(gold)
    ones = Dataset.from_records(tuple(replace(r, label=1) for r in ds.records), ds.meta)
    model = train(ones, gold.texts(), FAST, seed=5)
    preds = predict(model, gold.texts())
    assert np.mean(list(preds.values())) > 0.9


def test_duplication_equals_reweighting():
    # one uniform replication must not change what the model learns
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
    p1 = predict(m1, texts)
    p2 = predict(m2, texts)
    diff = np.mean([abs(p1[i] - p2[i]) for i in p1])
    assert diff < 0.02


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
    # averaged epoch loss trends down; allow small SGD wiggle per step
    history = model.history
    assert history[-1] < history[0]
    assert all(b - a < 0.02 for a, b in zip(history, history[1:]))
    assert np.all(np.isfinite(model.weights))


def test_dev_epoch_selection():
    gold = textual_gold(n=50)
    ds = small_dataset(gold)
    flipped = Dataset.from_records(tuple(replace(r, label=1 - r.label) for r in ds.records), ds.meta)
    cfg = replace(FAST, epochs=6)
    m_self = train(ds, gold.texts(), cfg, seed=4, dev=ds)
    m_flip = train(ds, gold.texts(), cfg, seed=4, dev=flipped)
    # fitting the data makes the flipped dev set worse every epoch
    assert m_flip.best_epoch == 1
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
        ("learning_rate", 0.0),
        ("learning_rate", -0.1),
        ("learning_rate", math.inf),
        ("learning_rate", math.nan),
        ("hash_dim", 1),
        ("batch_size", 0),
        ("batch_size", -3),
        ("l2", -1e-9),
        ("l2", math.inf),
        ("l2", math.nan),
    ],
)
def test_train_config_rejects_bad_field_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_train_config_accepts_edge_values():
    TrainConfig(epochs=1, learning_rate=1e-9, hash_dim=2, batch_size=1, l2=0.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_train_raises_when_no_epoch_has_finite_loss():
    # a finite but overflowing rate drives the weights to +-inf, so every
    # epoch's selection loss is NaN; no such model may be returned
    gold = textual_gold(n=20)
    ds = small_dataset(gold)
    with pytest.raises(ValueError, match="finite selection loss"):
        train(ds, gold.texts(), replace(FAST, learning_rate=1e308), seed=1)


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
        ("learning_rate", True),
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


@pytest.mark.parametrize("key", ["batch_size", "seed", "weights"])
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


# ---------------------------------------------------------------------------
# the fast trainer against the dense scipy reference


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


def _reference_instances(dataset, texts, dim):
    item_ids = list(dict.fromkeys(r.item_id for r in dataset.records))
    row_of = {item_id: i for i, item_id in enumerate(item_ids)}
    rows = np.array([row_of[r.item_id] for r in dataset.records], dtype=np.int64)
    y = np.array([r.label for r in dataset.records], dtype=np.float64)
    return _reference_item_matrix(item_ids, texts, dim)[rows], y


def _reference_train(dataset, texts, config, seed, dev=None):
    """Minibatch AdaGrad with scipy slicing and a dense update over all
    ``hash_dim`` coordinates: the loop the fast trainer must reproduce."""
    X, y = _reference_instances(dataset, texts, config.hash_dim)
    X_sel, y_sel = (X, y) if dev is None else _reference_instances(dev, texts, config.hash_dim)
    w = np.zeros(config.hash_dim)
    b = 0.0
    accum_w = np.zeros(config.hash_dim)
    accum_b = 0.0
    n = X.shape[0]
    best_loss = np.inf
    best_w, best_b, best_epoch = w.copy(), b, 0
    history = []
    for epoch in range(1, config.epochs + 1):
        perm = stream(seed, "sgd-shuffle", epoch).permutation(n)
        Xe = X[perm]
        ye = y[perm]
        for start in range(0, n, config.batch_size):
            stop = min(start + config.batch_size, n)
            _, grad_w, grad_b = loss_and_grad(w, b, Xe[start:stop], ye[start:stop])
            grad_w += config.l2 * w
            accum_w += grad_w * grad_w
            w -= config.learning_rate * grad_w / np.sqrt(accum_w + 1e-12)
            accum_b += grad_b * grad_b
            b -= config.learning_rate * grad_b / math.sqrt(accum_b + 1e-12)
        sel_loss, _, _ = loss_and_grad(w, b, X_sel, y_sel)
        history.append(sel_loss)
        if sel_loss < best_loss:
            best_loss = sel_loss
            best_w, best_b, best_epoch = w.copy(), b, epoch
    return best_w, best_b, best_epoch, tuple(history)


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
        learning_rate=draw(st.sampled_from([0.05, 0.2, 1.0])),
        hash_dim=draw(st.integers(2, 40)),
        batch_size=draw(st.integers(1, 12)),
        l2=draw(st.sampled_from([0.0, 1e-5, 0.1])),
    )
    return dataset, texts, config, draw(st.integers(0, 1000)), dev


@settings(max_examples=150, deadline=None)
@given(training_problems())
def test_fast_train_matches_dense_reference_bit_for_bit(problem):
    dataset, texts, config, seed, dev = problem
    model = train(dataset, texts, config, seed, dev=dev)
    ref_w, ref_b, ref_epoch, ref_history = _reference_train(dataset, texts, config, seed, dev)
    assert np.array_equal(model.weights, ref_w)
    assert model.bias == ref_b
    assert model.best_epoch == ref_epoch
    assert model.history == ref_history
    # columns no training row touches are never stepped
    item_ids = sorted({r.item_id for r in dataset.records})
    touched = np.unique(_reference_item_matrix(item_ids, texts, config.hash_dim).indices)
    untouched = np.setdiff1d(np.arange(config.hash_dim), touched)
    assert not model.weights[untouched].any()


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

import json

import numpy as np
import pytest

from emoforge.audio_features import AUDIO_FEATURE_NAMES
from emoforge.errors import ConfigError, ModelError, UnsupportedModelError
from emoforge.models import LogisticRegression, RandomForest
from emoforge.pipeline import (
    ColumnScaler,
    ExperimentConfig,
    feature_importance,
    feature_names,
    fuse,
    fused_matrix,
    load_bundle,
    predict_example,
    run_experiment,
    save_bundle,
    train_bundle,
    thread_count,
)
from emoforge.text_features import fit_vocabulary

from conftest import make_tone


def toy_matrix(seed=0, n=90, d=10, classes=3):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, classes, size=n)
    X = rng.normal(size=(n, d)) + 2.0 * y[:, None] * (np.arange(d) == 0)
    return np.abs(X), y  # non-negative so mnb accepts it raw


# --- fusion


def test_fuse_concatenates_audio_first():
    audio = np.arange(8.0)
    text = np.array([9.0, 10.0, 11.0])
    fused = fuse(audio, text)
    assert fused.shape == (11,)
    assert np.array_equal(fused[:8], audio)
    assert np.array_equal(fused[8:], text)


def test_fuse_zero_text_block():
    fused = fuse(np.ones(8), np.zeros(3))
    assert np.all(fused[8:] == 0.0)


def test_fuse_projection_identity():
    audio = np.random.default_rng(0).normal(size=8)
    fused = fuse(audio, np.ones(4))
    assert np.array_equal(fused[:8], audio)


def test_fused_matrix_vocab_mismatch():
    vocab = fit_vocabulary([["a", "b"]])
    with pytest.raises(ModelError):
        fused_matrix(np.ones((2, 8)), np.ones((2, 5)), vocab)


# --- scalers


def test_standard_scaler_blocks_only_leading_columns():
    rng = np.random.default_rng(1)
    X = np.hstack([rng.normal(5, 3, size=(50, 4)), rng.uniform(0, 1, size=(50, 2))])
    scaler = ColumnScaler("standard", block=4).fit(X)
    out = scaler.transform(X)
    assert np.allclose(out[:, :4].mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out[:, :4].std(axis=0), 1.0, atol=1e-12)
    assert np.array_equal(out[:, 4:], X[:, 4:])


def test_minmax_scaler_maps_to_unit_interval():
    rng = np.random.default_rng(2)
    X = rng.normal(-3, 2, size=(40, 3))
    scaler = ColumnScaler("minmax", block=3).fit(X)
    out = scaler.transform(X)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_scaler_constant_column_maps_to_zero():
    X = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
    for kind in ("standard", "minmax"):
        out = ColumnScaler(kind, block=2).fit(X).transform(X)
        assert np.all(out[:, 0] == 0.0)


# --- bundles


@pytest.mark.parametrize("kind", ["rf", "xgb", "svm", "mnb", "lr", "mlp", "lstm"])
def test_bundle_roundtrip_preserves_predictions(tmp_path, kind):
    X, y = toy_matrix()
    light = {
        "rf": {"n_trees": 5, "max_depth": 4},
        "xgb": {"n_rounds": 4},
        "svm": {"epochs": 5},
        "mnb": {},
        "lr": {"epochs": 30},
        "mlp": {"epochs": 10, "hidden_sizes": (8,)},
        "lstm": {"epochs": 5, "hidden_size": 4, "input_mode": "clip"},
    }[kind]
    bundle = train_bundle(
        kind, X, y, setting="audio_only", class_mode="six", seed=1,
        hyperparams=light, audio_block=X.shape[1],
    )
    path = tmp_path / "model.emf"
    save_bundle(path, bundle)
    loaded = load_bundle(path)
    assert np.array_equal(loaded.predict_proba(X), bundle.predict_proba(X))
    assert loaded.kind == kind and loaded.feature_dim == X.shape[1]


def test_bundle_roundtrip_ensemble(tmp_path):
    X, y = toy_matrix(seed=5)
    hp = {"rf": {"n_trees": 4, "max_depth": 3}, "xgb": {"n_rounds": 3},
          "mlp": {"epochs": 5, "hidden_sizes": (6,)}}
    bundle = train_bundle(
        "e1", X, y, setting="audio_only", class_mode="six", seed=2,
        hyperparams=hp, audio_block=X.shape[1],
    )
    assert bundle.combination == "soft_vote"
    assert [m.kind for m in bundle.members] == ["rf", "xgb", "mlp"]
    path = tmp_path / "e1.emf"
    save_bundle(path, bundle)
    loaded = load_bundle(path)
    assert np.array_equal(loaded.predict_proba(X), bundle.predict_proba(X))


def test_bundle_dimension_mismatch(tmp_path):
    X, y = toy_matrix()
    bundle = train_bundle("mnb", X, y, setting="audio_only", class_mode="six", seed=0,
                          audio_block=X.shape[1])
    with pytest.raises(ModelError):
        bundle.predict_proba(np.ones((2, X.shape[1] + 1)))


def test_unknown_hyperparameter_rejected():
    X, y = toy_matrix()
    with pytest.raises(ConfigError):
        train_bundle("rf", X, y, setting="audio_only", class_mode="six", seed=0,
                     hyperparams={"trees": 10})


def test_ensemble_rejects_flat_hyperparameters():
    X, y = toy_matrix()
    with pytest.raises(ConfigError, match="keyed by member kind"):
        train_bundle("e1", X, y, setting="audio_only", class_mode="six", seed=0,
                     hyperparams={"n_trees": 3, "rf": {"max_depth": 2}})


# --- feature importance


def test_importance_single_informative_feature():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 3, size=200)
    X = rng.normal(size=(200, 6))
    X[:, 2] = y * 2.0 + rng.normal(0, 0.01, size=200)
    model = RandomForest(n_trees=10, max_depth=5, seed=0).fit(X, y)
    ranked = feature_importance(model, [f"f{i}" for i in range(6)])
    assert ranked[0][0] == "f2"
    assert ranked[0][1] > 0.9
    assert sum(v for _, v in ranked) == pytest.approx(1.0, abs=1e-9)


def test_importance_respects_tie_order_and_rejects_non_tree():
    X, y = toy_matrix()
    model = LogisticRegression(epochs=5).fit(X, y)
    with pytest.raises(UnsupportedModelError):
        feature_importance(model, [f"f{i}" for i in range(X.shape[1])])


def test_importance_pure_noise_stump_has_no_nan():
    from emoforge.models import GradientBoosting

    rng = np.random.default_rng(29)
    X = rng.normal(size=(80, 5))
    y = np.tile([0, 1], 40)  # balanced labels, no signal
    model = GradientBoosting(n_rounds=1, max_depth=1).fit(X, y)
    ranked = feature_importance(model, [f"f{i}" for i in range(5)])
    values = np.array([v for _, v in ranked])
    assert np.isfinite(values).all()
    total = values.sum()
    assert total == pytest.approx(1.0, abs=1e-9) or total == 0.0


def test_feature_names_by_setting():
    vocab = fit_vocabulary([["hello", "world"]])
    assert feature_names("audio_only", None) == list(AUDIO_FEATURE_NAMES)
    assert feature_names("text_only", vocab) == ["tfidf:hello", "tfidf:world"]
    fused = feature_names("audio_text", vocab)
    assert fused[:8] == list(AUDIO_FEATURE_NAMES) and fused[8:] == ["tfidf:hello", "tfidf:world"]


# --- experiments on the synthetic corpus


def test_run_experiment_writes_deterministic_artifacts(tmp_path, synth_corpus):
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    reports = []
    for out in (out_a, out_b):
        config = ExperimentConfig(
            manifest=synth_corpus, setting="audio_only", model_kind="rf",
            class_mode="six", seed=9, out_dir=out,
            hyperparams={"n_trees": 8, "max_depth": 6},
        )
        report, artifacts = run_experiment(config)
        reports.append(report)
        assert set(artifacts) == {"model", "report", "confusion_matrix", "importances"}
    assert (out_a / "model.emf").read_bytes() == (out_b / "model.emf").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert reports[0].accuracy == reports[1].accuracy

    payload = json.loads((out_a / "report.json").read_text())
    assert payload["model_kind"] == "rf"
    assert payload["class_mode"] == "six"
    assert len(payload["confusion_matrix"]) == 6


def test_run_experiment_four_class_mode(tmp_path, synth_corpus):
    config = ExperimentConfig(
        manifest=synth_corpus, setting="text_only", model_kind="mnb",
        class_mode="four", seed=4, out_dir=tmp_path / "run",
    )
    report, artifacts = run_experiment(config)
    assert report.class_names == ["angry", "happy", "sad", "neutral"]
    assert report.confusion.shape == (4, 4)
    assert artifacts["vocabulary"].read_text().startswith("N=")


def test_run_experiment_fused_beats_chance(synth_corpus):
    config = ExperimentConfig(
        manifest=synth_corpus, setting="audio_text", model_kind="xgb",
        seed=2, hyperparams={"n_rounds": 10, "learning_rate": 0.3},
    )
    report, _ = run_experiment(config)
    assert report.accuracy > 0.5


def test_run_experiment_lstm_frames(tmp_path, synth_corpus):
    config = ExperimentConfig(
        manifest=synth_corpus, setting="audio_only", model_kind="lstm", seed=1,
        out_dir=tmp_path / "run",
        hyperparams={"epochs": 3, "hidden_size": 4, "input_mode": "frames"},
    )
    report, artifacts = run_experiment(config)
    assert report.confusion.sum() > 0
    loaded = load_bundle(artifacts["model"])
    assert loaded.input_mode == "frames"
    sequences = [np.random.default_rng(0).normal(size=(5, 6))]
    assert loaded.predict_proba(sequences).shape == (1, 6)


def test_lstm_frames_rejected_outside_audio_setting(synth_corpus):
    with pytest.raises(ConfigError):
        ExperimentConfig(
            manifest=synth_corpus, setting="text_only", model_kind="lstm",
            hyperparams={"input_mode": "frames"},
        )


def test_hinted_split_respected(tmp_path, synth_corpus):
    rows = [json.loads(line) for line in synth_corpus.read_text().splitlines()]
    hinted = synth_corpus.parent / "hinted.jsonl"
    with hinted.open("w") as fh:
        for i, row in enumerate(rows):
            row["split"] = "train" if i % 4 else "test"
            fh.write(json.dumps(row) + "\n")
    config = ExperimentConfig(
        manifest=hinted, setting="text_only", model_kind="mnb", seed=0,
        upsample_train=False,
    )
    report, _ = run_experiment(config)
    assert report.confusion.sum() == sum(1 for i in range(len(rows)) if i % 4 == 0)


def test_predict_example_roundtrip(tmp_path, synth_corpus):
    out = tmp_path / "run"
    config = ExperimentConfig(
        manifest=synth_corpus, setting="audio_only", model_kind="rf",
        seed=3, out_dir=out, hyperparams={"n_trees": 6, "max_depth": 5},
    )
    run_experiment(config)
    bundle = load_bundle(out / "model.emf")
    clip = make_tone(200, 16000, 0.5, amplitude=0.8)
    label, probabilities = predict_example(bundle, clip=clip)
    assert label in bundle.class_names
    assert abs(sum(probabilities.values()) - 1.0) < 1e-9
    with pytest.raises(ConfigError):
        predict_example(bundle, clip=None)


def test_thread_count_env_cap(monkeypatch):
    monkeypatch.setenv("EMOFORGE_THREADS", "2")
    assert thread_count(8) == 2
    monkeypatch.setenv("EMOFORGE_THREADS", "bogus")
    with pytest.raises(ConfigError):
        thread_count(4)
    monkeypatch.delenv("EMOFORGE_THREADS")
    assert thread_count(3) == 3

import inspect
import json
import threading
import time
import tracemalloc

import numpy as np
import pytest

from emoforge import pipeline
from emoforge.audio_features import AUDIO_FEATURE_NAMES, FrameConfig
from emoforge.cli import _parse_hp
from emoforge.errors import (
    AudioFormatError, ConfigError, ModelError, ParameterError, UnsupportedModelError,
)
from emoforge.ingest import (
    Dataset, EmotionLabel, Example, build_dataset, load_manifest, resolve_clip,
)
from emoforge.models import LogisticRegression, RandomForest
from emoforge.persistence import FORMAT_VERSION, load_container
from emoforge.pipeline import (
    ENSEMBLE_MEMBERS,
    MODEL_DEFAULTS,
    MODEL_KINDS,
    SETTINGS,
    ColumnScaler,
    ExperimentConfig,
    ModelBundle,
    _Member,
    feature_importance,
    feature_names,
    featurize,
    fused_matrix,
    load_bundle,
    predict_example,
    read_dataset,
    run_experiment,
    save_bundle,
    train_bundle,
    thread_count,
)
from emoforge.synth import generate_corpus
from emoforge.text_features import fit_vocabulary

from conftest import E2_LIGHT_HP, make_tone


def toy_matrix(seed=0, n=90, d=8, classes=3):  # audio_only rows: the eight clip features
    rng = np.random.default_rng(seed)
    y = rng.integers(0, classes, size=n)
    X = rng.normal(size=(n, d)) + 2.0 * y[:, None] * (np.arange(d) == 0)
    return np.abs(X), y  # non-negative so mnb accepts it raw


# --- fusion


def test_fused_matrix_puts_audio_first_and_passes_text_unchanged():
    audio = np.random.default_rng(0).normal(size=(3, 8))
    text = np.array([[9.0, 10.0, 11.0], [0.0, 0.0, 0.0], [0.5, 0.0, 2.0]])  # one all-zero row
    fused = fused_matrix(audio, text, fit_vocabulary([["a", "b", "c"]]))
    assert fused.shape == (3, 11)
    assert np.array_equal(fused[:, :8], audio)
    assert np.array_equal(fused[:, 8:], text)


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


@pytest.mark.parametrize("kind, flags", [
    ("rf", ["n_trees=3", "max_depth=3"]),
    ("xgb", ["n_rounds=2", "learning_rate=1"]),
    ("svm", ["epochs=3", "reg=1"]),
    ("mnb", ["alpha=1"]),
    ("lr", ["epochs=5", "learning_rate=1"]),
    ("mlp", ["epochs=3", "hidden_sizes=8,4", "momentum=0"]),
    ("lstm", ["epochs=2", "hidden_size=3", "input_mode=frames", "dropout_rate=0"]),
    ("lstm", ["epochs=2", "hidden_size=3", "input_mode=clip", "learning_rate=1"]),
    ("e1", ["rf.n_trees=2", "xgb.n_rounds=2", "xgb.learning_rate=1", "mlp.epochs=3",
            "mlp.hidden_sizes=8,4"]),
    ("e2", ["rf.n_trees=2", "xgb.n_rounds=2", "mlp.epochs=3", "mlp.hidden_sizes=8,4",
            "mnb.alpha=1", "lr.epochs=5", "lr.learning_rate=1"]),
], ids=["rf", "xgb", "svm", "mnb", "lr", "mlp", "lstm-frames", "lstm-clip", "e1", "e2"])
def test_bundle_roundtrip_preserves_predictions(tmp_path, kind, flags):
    # --hp values as the CLI parses them: a comma list for a tuple, an int for a float
    hp = _parse_hp(flags, kind)
    frames = hp.get("input_mode") == "frames"
    setting = "audio_only" if frames else "audio_text"
    X, y, vocab = design_inputs(setting, frames)
    bundle = train_bundle(ModelBundle(kind, setting, "six", 3, hp, vocab), X, y)
    save_bundle(tmp_path / "model.emf", bundle)
    loaded = load_bundle(tmp_path / "model.emf")
    assert np.array_equal(loaded.predict_proba(X), bundle.predict_proba(X))
    assert loaded.kind == kind and loaded.feature_dim == bundle.feature_dim
    save_bundle(tmp_path / "again.emf", loaded)
    assert (tmp_path / "again.emf").read_bytes() == (tmp_path / "model.emf").read_bytes()
    # the stored header is the one that the loaded bundle's design makes
    header, _ = load_container(tmp_path / "model.emf")
    assert header.pop("format_version") == FORMAT_VERSION
    assert header == json.loads(json.dumps(pipeline._header(loaded)))


def test_bundle_roundtrip_ensemble(tmp_path):
    X, y = toy_matrix(seed=5)
    hp = {"rf": {"n_trees": 4, "max_depth": 3}, "xgb": {"n_rounds": 3},
          "mlp": {"epochs": 5, "hidden_sizes": (6,)}}
    bundle = train_bundle(ModelBundle("e1", "audio_only", "six", 2, hp), X, y)
    assert bundle.combination == "soft_vote"
    assert [m.kind for m in bundle.members] == ["rf", "xgb", "mlp"]
    path = tmp_path / "e1.emf"
    save_bundle(path, bundle)
    loaded = load_bundle(path)
    assert np.array_equal(loaded.predict_proba(X), bundle.predict_proba(X))


def test_train_and_load_build_each_member_once(tmp_path, monkeypatch, tiny_corpus):
    built, make_classifier = [], pipeline.make_classifier

    def counting(kind, *args):
        built.append(kind)
        return make_classifier(kind, *args)

    monkeypatch.setattr(pipeline, "make_classifier", counting)
    X, y = toy_matrix(seed=6)
    bundle = train_bundle(ModelBundle("e2", "audio_only", "six", 1, E2_LIGHT_HP), X, y)
    assert built == list(ENSEMBLE_MEMBERS["e2"])
    save_bundle(tmp_path / "e2.emf", bundle)
    built.clear()
    load_bundle(tmp_path / "e2.emf")
    assert built == list(ENSEMBLE_MEMBERS["e2"])
    # a run configures each member twice: once when its config is checked, once
    # for the one bundle that featurizes both splits and is then fitted
    built.clear()
    config = ExperimentConfig(tiny_corpus, "audio_text", "e2", seed=1, hyperparams=E2_LIGHT_HP)
    assert built == list(ENSEMBLE_MEMBERS["e2"])
    run_experiment(config)
    assert built == 2 * list(ENSEMBLE_MEMBERS["e2"])


@pytest.mark.parametrize("kind", ["rf", "mlp", "lstm"])
def test_single_model_bundle_is_a_one_member_vote(kind):
    X, y = toy_matrix(seed=3)
    hp = {"rf": {"n_trees": 3, "max_depth": 3}, "mlp": {"epochs": 5, "hidden_sizes": (4,)},
          "lstm": {"epochs": 2, "hidden_size": 3, "input_mode": "clip"}}[kind]
    bundle = train_bundle(ModelBundle(kind, "audio_only", "six", 4, hp), X, y)
    assert [m.kind for m in bundle.members] == [kind] and bundle.combination == "single"
    assert np.array_equal(bundle.predict_proba(X), bundle.members[0].predict_proba(X))
    # an lstm bundle records the input it was trained on
    assert bundle.input_mode == ("clip" if kind == "lstm" else "vector")


def test_bundle_dimension_mismatch(tmp_path):
    X, y = toy_matrix()
    bundle = train_bundle(ModelBundle("mnb", "audio_only", "six", 0, {}), X, y)
    with pytest.raises(ModelError):
        bundle.predict_proba(np.ones((2, X.shape[1] + 1)))


@pytest.mark.parametrize("kind, X", [("lstm", []), ("rf", np.zeros(12))],
                         ids=["lstm-no-sequences", "rf-1d"])
def test_train_bundle_rejects_input_without_a_width(kind, X):
    with pytest.raises(ParameterError, match="2-D"):
        train_bundle(ModelBundle(kind, "audio_only", "six", 0, {}), X, np.arange(12) % 3)


def test_frames_bundle_rejects_an_empty_sequence_list():
    X, y, _ = design_inputs("audio_only", frames=True)
    bundle = train_bundle(ModelBundle("lstm", "audio_only", "six", 0,
                                      {"input_mode": "frames", **LIGHT_HP["lstm"]}), X, y)
    with pytest.raises(ParameterError, match="2-D"):
        bundle.predict_proba([])


def test_unknown_hyperparameter_rejected():
    X, y = toy_matrix()
    with pytest.raises(ConfigError):
        train_bundle(ModelBundle("rf", "audio_only", "six", 0, {"trees": 10}), X, y)


def test_ensemble_rejects_flat_hyperparameters():
    X, y = toy_matrix()
    with pytest.raises(ConfigError, match="keyed by member kind"):
        train_bundle(ModelBundle("e1", "audio_only", "six", 0,
                                 {"n_trees": 3, "rf": {"max_depth": 2}}), X, y)


@pytest.mark.parametrize("kind", MODEL_DEFAULTS)
def test_model_defaults_are_the_constructor_defaults(kind):
    # a run that overrides nothing trains the model a library caller builds with no
    # arguments, and a constructor takes no setting that a run cannot reach: only its
    # defaults, n_classes, a seed where the model draws, and rf's library-only flags
    parameters = inspect.signature(pipeline._MODEL_CLASSES[kind]).parameters
    defaults = {key: value for key, value in MODEL_DEFAULTS[kind].items()
                if (kind, key) != ("lstm", "input_mode")}  # the pipeline's, not the model's
    for key, value in defaults.items():
        assert parameters[key].default == value, key
    extra = {"n_classes"} | ({"seed"} if kind in ("rf", "svm", "mlp", "lstm") else set())
    if kind == "rf":
        extra |= {"bootstrap", "max_features"}
    assert set(parameters) == set(defaults) | extra


@pytest.mark.parametrize("X, y", [
    (np.ones((3, 2)), [0, 1]),
    (np.ones(4), [0, 1, 0, 1]),
    (np.ones((4, 2, 2)), [0, 1, 0, 1]),
    (np.ones((0, 2)), []),
    ([], []),
    ([np.ones((2, 2)), np.ones((3, 3))], [0, 1]),
    (np.ones((4, 0)), [0, 1, 0, 1]),
    ([np.ones((2, 0)), np.ones((3, 0))], [0, 1]),
], ids=["length-mismatch", "1d", "3d", "empty", "empty-list", "mixed-widths", "no-columns",
        "no-column-sequences"])
@pytest.mark.parametrize("kind", MODEL_DEFAULTS)
def test_fit_rejects_malformed_training_data(kind, X, y):
    with pytest.raises(ParameterError):
        pipeline._MODEL_CLASSES[kind]().fit(X, y)


# --- bundle designs

LIGHT_HP = {
    "rf": {"n_trees": 3, "max_depth": 3}, "xgb": {"n_rounds": 2}, "svm": {"epochs": 3},
    "mnb": {}, "lr": {"epochs": 5}, "mlp": {"epochs": 3, "hidden_sizes": (4,)},
    "lstm": {"epochs": 2, "hidden_size": 3},
}
VOCAB = fit_vocabulary([["calm", "loud"], ["quiet", "calm"]])


def design_inputs(setting, frames):
    """Non-negative input for a model in ``setting``, per-frame 6-column
    sequences when ``frames``, with three classes of labels and the
    vocabulary the setting needs."""
    rng = np.random.default_rng(7)
    y = np.arange(12) % 3
    vocab = None if setting == "audio_only" else VOCAB
    if frames:
        return [np.abs(rng.normal(size=(int(rng.integers(3, 7)), 6))) for _ in y], y, vocab
    width = {"audio_only": 8, "audio_text": 8 + len(VOCAB), "text_only": len(VOCAB)}[setting]
    return np.abs(rng.normal(size=(len(y), width))), y, vocab


@pytest.fixture
def no_fit(monkeypatch):
    """Make every model's fit fail, so a design must be rejected before it."""
    def fit(self, X, y):
        raise AssertionError("a member was fitted")

    for cls in set(pipeline._MODEL_CLASSES.values()):
        monkeypatch.setattr(cls, "fit", fit)


@pytest.mark.parametrize("frames", [False, True], ids=["matrix", "frames"])
@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_train_bundle_design_round_trips_or_fails_before_fitting(request, tmp_path, kind,
                                                                   setting, frames):
    X, y, vocab = design_inputs(setting, frames)
    members = ENSEMBLE_MEMBERS.get(kind)
    hp = LIGHT_HP[kind] if members is None else {m: LIGHT_HP[m] for m in members}
    if kind == "lstm" and not frames:
        hp = {**hp, "input_mode": "clip"}
    design = {"setting": setting, "class_mode": "six", "seed": 0, "hyperparams": hp,
              "vocab": vocab}
    # per-frame sequences are input for the lstm alone, and only without text
    if frames and (kind != "lstm" or setting != "audio_only"):
        request.getfixturevalue("no_fit")
        with pytest.raises(ConfigError):
            train_bundle(ModelBundle(kind, **design), X, y)
        return
    bundle = train_bundle(ModelBundle(kind, **design), X, y)
    save_bundle(tmp_path / "model.emf", bundle)
    loaded = load_bundle(tmp_path / "model.emf")
    assert (loaded.kind, loaded.setting, loaded.input_mode) == (kind, setting, bundle.input_mode)
    assert np.array_equal(loaded.predict_proba(X), bundle.predict_proba(X))


@pytest.mark.parametrize("kind, frames, change", [
    ("rf", False, {"setting": "audio_text"}),
    ("rf", False, {"setting": "text_only"}),
    ("rf", False, {"vocab": VOCAB}),
    ("lstm", False, {}),
    ("lstm", False, {"hyperparams": {"input_mode": "frames"}}),
    ("lstm", True, {"hyperparams": {"input_mode": "clip"}}),
    ("lstm", True, {"hyperparams": {"input_mode": "sideways"}}),
    ("mlp", False, {"l_harm": 0}),
    ("mlp", False, {"l_harm": 2**16 + 1}),
    ("rf", False, {"setting": "video_only"}),
    ("rf", False, {"class_mode": "five"}),
    ("tree", False, {}),
    ("e1", False, {"hyperparams": {"mnb": {"alpha": 2.0}}}),
    ("e1", False, {"hyperparams": {"rf": 3}}),
    ("mnb", False, {"hyperparams": {"alpha": float("nan")}}),
    ("svm", False, {"hyperparams": {"reg": float("nan")}}),
    ("lr", False, {"hyperparams": {"reg": float("inf")}}),
    ("mlp", False, {"hyperparams": {"learning_rate": float("inf")}}),
    ("e2", False, {"hyperparams": {"mnb": {"alpha": float("inf")}}}),
    ("rf", False, {"hyperparams": {"max_depth": 0}}),
    ("rf", False, {"hyperparams": {"max_depth": -2}}),
    ("xgb", False, {"hyperparams": {"max_depth": 0}}),
    ("xgb", False, {"hyperparams": {"max_depth": -1}}),
    ("lstm", False, {"hyperparams": {"patience": -1}}),
    ("rf", False, {"hyperparams": {"n_trees": True}}),
    ("mlp", False, {"hyperparams": {"learning_rate": True}}),
    ("mlp", False, {"hyperparams": {"hidden_sizes": True}}),
    ("mlp", False, {"hyperparams": {"hidden_sizes": [True]}}),
    ("e1", False, {"hyperparams": {"rf": {"n_trees": True}}}),
    ("rf", False, {"seed": -1}),
    ("lstm", True, {"seed": True}),
    ("lr", False, {"seed": np.int64(3)}),
], ids=["audio-text-no-vocab", "text-only-no-vocab", "audio-only-with-vocab",
        "lstm-matrix-no-input-mode", "lstm-matrix-hp-frames", "lstm-frames-hp-clip",
        "lstm-hp-sideways", "l_harm-zero", "l_harm-above-max", "setting-unknown",
        "class-mode-unknown", "kind-unknown", "e1-unapplied-scope", "e1-scope-not-object",
        "mnb-alpha-nan", "svm-reg-nan", "lr-reg-inf", "mlp-learning-rate-inf", "e2-mnb-alpha-inf",
        "rf-max-depth-zero", "rf-max-depth-negative", "xgb-max-depth-zero",
        "xgb-max-depth-negative", "lstm-patience-negative", "rf-n-trees-true",
        "mlp-learning-rate-true", "mlp-hidden-sizes-true", "mlp-hidden-sizes-list-true",
        "e1-rf-n-trees-true", "rf-seed-negative", "lstm-seed-true", "lr-seed-numpy"])
def test_train_bundle_rejects_design_before_fitting(no_fit, kind, frames, change):
    X, y, _ = design_inputs("audio_only", frames)
    design = {"setting": "audio_only", "class_mode": "six", "seed": 0, "hyperparams": {},
              **change}
    with pytest.raises(ConfigError):
        train_bundle(ModelBundle(kind, **design), X, y)
    # ExperimentConfig rejects a design that construction rejects, with the same
    # message, and accepts one whose only fault is the input's form; a run brings
    # its own vocabulary, so a vocabulary mismatch is the bundle's alone
    vocab = design.pop("vocab", None)
    if (vocab is not None) != ("text" in SETTINGS.get(design["setting"], ())):
        return
    try:
        ModelBundle(kind, vocab=vocab, **design)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as at_config:
            ExperimentConfig("m.jsonl", model_kind=kind, **design)
        assert str(at_config.value) == str(exc)
    else:
        ExperimentConfig("m.jsonl", model_kind=kind, **design)


@pytest.mark.parametrize("kind, setting, width, frames", [
    ("rf", "audio_only", 9, False),
    ("xgb", "audio_only", 4, False),
    ("e1", "audio_text", 8, False),
    ("mnb", "text_only", len(VOCAB) + 1, False),
    ("lstm", "audio_only", 8, True),
], ids=["audio-only-9", "audio-only-4", "audio-text-without-text", "text-only-extra-column",
        "frames-8"])
def test_train_bundle_rejects_input_width_before_fitting(no_fit, kind, setting, width, frames):
    # feature_dim must be the width the setting, input mode and vocabulary give
    rng = np.random.default_rng(0)
    y = np.arange(12) % 3
    X = ([np.abs(rng.normal(size=(4, width))) for _ in y] if frames
         else np.abs(rng.normal(size=(len(y), width))))
    members = ENSEMBLE_MEMBERS.get(kind)
    hp = LIGHT_HP[kind] if members is None else {m: LIGHT_HP[m] for m in members}
    with pytest.raises(ConfigError, match="feature_dim"):
        train_bundle(ModelBundle(kind, setting, "six", 0, hp,
                                 None if setting == "audio_only" else VOCAB), X, y)


@pytest.mark.parametrize("input_mode", ["frames", "clip"])
def test_lstm_bundle_rejects_input_of_the_other_form(input_mode):
    # a frames bundle would score a 6-column matrix as one-step sequences, and a
    # clip bundle would score multi-step sequences of its clip features
    X, y, _ = design_inputs("audio_only", frames=input_mode == "frames")
    bundle = train_bundle(ModelBundle("lstm", "audio_only", "six", 0,
                                      {"input_mode": input_mode, **LIGHT_HP["lstm"]}), X, y)
    width = bundle.feature_dim
    other = (np.ones((4, width)) if input_mode == "frames"
             else [np.ones((5, width)), np.ones((3, width))])
    with pytest.raises(ModelError, match="frames input is a list" if input_mode == "frames"
                       else "clip input is a matrix"):
        bundle.predict_proba(other)


def test_model_bundle_takes_only_its_design():
    assert list(inspect.signature(ModelBundle).parameters) == [
        "kind", "setting", "class_mode", "seed", "hyperparams", "vocab", "frame_config", "l_harm"]
    # the design is the bundle's alone: train_bundle fits the bundle it is given
    assert list(inspect.signature(train_bundle).parameters) == ["bundle", "X", "y"]
    bundle = ModelBundle("lstm", "audio_only", "six", 0, {"input_mode": "clip"})
    assert (bundle.input_mode, bundle.feature_dim) == ("clip", 8)
    bundle = ModelBundle("lstm", "audio_only", "six", 0, {})
    assert (bundle.input_mode, bundle.feature_dim) == ("frames", 6)
    bundle = ModelBundle("e2", "audio_text", "six", 0, {}, VOCAB)
    assert (bundle.input_mode, bundle.feature_dim) == ("vector", 8 + len(VOCAB))
    bundle = ModelBundle("mnb", "text_only", "six", 0, {}, VOCAB)
    assert (bundle.input_mode, bundle.feature_dim) == ("vector", len(VOCAB))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_unfitted_bundle_neither_predicts_nor_saves(tmp_path, kind):
    frames = kind == "lstm"
    X, _, _ = design_inputs("audio_only", frames)
    bundle = ModelBundle(kind, "audio_only", "six", 0, {})
    with pytest.raises(ParameterError):
        bundle.predict_proba(X)
    with pytest.raises(ParameterError):
        save_bundle(tmp_path / "model.emf", bundle)
    assert not (tmp_path / "model.emf").exists()


# --- soft vote


class FixedProba:
    def __init__(self, proba):
        self.proba = np.asarray(proba, dtype=np.float64)

    def predict_proba(self, X):
        return np.tile(self.proba, (len(X), 1))


def soft_vote(members):
    bundle = ModelBundle(
        kind="e1", setting="audio_only", class_mode="six", seed=0, hyperparams={},
    )
    bundle.members = [_Member(kind="rf", classifier=m) for m in members]
    return bundle


def test_soft_vote_two_opposed_members_tie_break_to_lowest_index():
    bundle = soft_vote([FixedProba([1.0, 0.0]), FixedProba([0.0, 1.0])])
    X = np.zeros((3, 8))
    assert np.allclose(bundle.predict_proba(X), 0.5)
    assert np.array_equal(bundle.predict(X), [0, 0, 0])


def test_soft_vote_identical_members_equal_any_member():
    member = FixedProba([0.2, 0.5, 0.3])
    proba = soft_vote([member, member, member]).predict_proba(np.zeros((4, 8)))
    assert np.allclose(proba, member.predict_proba(np.zeros((4, 8))))


def test_soft_vote_three_member_mean_hand_computed():
    rows = [[0.6, 0.3, 0.1], [0.2, 0.2, 0.6], [0.1, 0.8, 0.1]]
    proba = soft_vote([FixedProba(r) for r in rows]).predict_proba(np.zeros((1, 8)))[0]
    expected = (np.array(rows[0]) + np.array(rows[1]) + np.array(rows[2])) / 3
    assert np.allclose(proba, expected, atol=1e-12)


def test_soft_vote_argmax_invariant_under_common_rescaling():
    rng = np.random.default_rng(0)
    base = [rng.dirichlet(np.ones(4), size=6) for _ in range(3)]

    class Scaled:
        def __init__(self, rows, k):
            self.rows, self.k = rows, k

        def predict_proba(self, X):
            return self.k * self.rows

    for k in (0.5, 2.0, 10.0):
        plain = soft_vote([Scaled(r, 1.0) for r in base]).predict(np.zeros((6, 8)))
        scaled = soft_vote([Scaled(r, k) for r in base]).predict(np.zeros((6, 8)))
        assert np.array_equal(plain, scaled)


def test_soft_vote_bundle_interface():
    bundle = soft_vote([FixedProba([0.7, 0.3]), FixedProba([0.4, 0.6])])
    X = np.zeros((2, 8))
    assert np.allclose(bundle.predict_proba(X), [[0.55, 0.45], [0.55, 0.45]])
    assert np.array_equal(bundle.predict(X), [0, 0])


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
    with pytest.raises(ConfigError) as at_config:
        ExperimentConfig(
            manifest=synth_corpus, setting="text_only", model_kind="lstm",
            hyperparams={"input_mode": "frames"},
        )
    with pytest.raises(ConfigError) as at_bundle:
        ModelBundle("lstm", "text_only", "six", 0, {"input_mode": "frames"}, VOCAB)
    assert str(at_bundle.value) == str(at_config.value)


def test_designs_at_their_size_caps_are_accepted():
    at_cap = {
        "rf": {"n_trees": pipeline.MAX_MEMBER_TREES},
        "xgb": {"n_rounds": pipeline.MAX_MEMBER_TREES // 6},  # one tree per class and round
        # (8 + 1) * h + (h + 1) * 6 weights and biases
        "mlp": {"hidden_sizes": (pipeline.MAX_MEMBER_WEIGHTS - 6) // 15},
    }
    for kind, hp in at_cap.items():
        ExperimentConfig("m.jsonl", "audio_only", kind, hyperparams=hp)
        ModelBundle(kind, "audio_only", "six", 0, hp)
        bigger = {key: value + 1 for key, value in hp.items()}
        with pytest.raises(ConfigError, match="cap") as at_config:
            ExperimentConfig("m.jsonl", "audio_only", kind, hyperparams=bigger)
        with pytest.raises(ConfigError) as at_bundle:
            ModelBundle(kind, "audio_only", "six", 0, bigger)
        assert str(at_bundle.value) == str(at_config.value)


def test_hinted_split_respected(tmp_path, synth_corpus):
    rows = [json.loads(line) for line in synth_corpus.read_text().splitlines()]
    hinted = synth_corpus.parent / "hinted.jsonl"
    with hinted.open("w") as fh:
        for i, row in enumerate(rows):
            row["split"] = "train" if i % 4 else "test"
            fh.write(json.dumps(row) + "\n")
    config = ExperimentConfig(
        manifest=hinted, setting="text_only", model_kind="mnb", seed=0,
        upsample_rho=0.0,
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


@pytest.mark.parametrize("setting, kind, hp", [
    ("audio_only", "rf", {"n_trees": 6, "max_depth": 5}),
    ("text_only", "rf", {"n_trees": 6, "max_depth": 5}),
    ("audio_text", "xgb", {"n_rounds": 3}),
    ("audio_only", "lstm", {"epochs": 2, "hidden_size": 4, "input_mode": "frames"}),
])
def test_predict_example_matches_batch_featurize(tmp_path, synth_corpus, setting, kind, hp):
    config = ExperimentConfig(
        manifest=synth_corpus, setting=setting, model_kind=kind, seed=3,
        out_dir=tmp_path / "run", hyperparams=hp,
    )
    _, artifacts = run_experiment(config)
    bundle = load_bundle(artifacts["model"])
    dataset = build_dataset(load_manifest(synth_corpus)[:8], bundle.class_mode)
    X = featurize(dataset, bundle.setting, bundle.input_mode, bundle.frame_config,
                  bundle.l_harm, bundle.vocab)
    assert isinstance(X, list) == (kind == "lstm")
    batch = bundle.predict_proba(X)
    blocks = SETTINGS[setting]  # predict_example takes only the inputs its setting reads
    for ex, row in zip(dataset.examples, batch):
        clip = resolve_clip(ex.audio) if "audio" in blocks else None
        _, probabilities = predict_example(bundle, clip=clip,
                                           text=ex.transcript if "text" in blocks else None)
        assert np.array_equal(np.array(list(probabilities.values())), row)


@pytest.mark.parametrize("setting, kind, reads", [
    ("audio_only", "e1", "clip"), ("text_only", "mnb", "text"),
], ids=["text-on-audio-only-e1", "clip-on-text-only-mnb"])
def test_predict_example_rejects_an_input_its_setting_does_not_read(setting, kind, reads):
    X, y, vocab = design_inputs(setting, frames=False)
    hp = ({m: LIGHT_HP[m] for m in ENSEMBLE_MEMBERS[kind]} if kind in ENSEMBLE_MEMBERS
          else LIGHT_HP[kind])
    bundle = train_bundle(ModelBundle(kind, setting, "six", 0, hp, vocab), X, y)
    inputs = {"clip": make_tone(200, 16000, 0.5), "text": "so calm"}
    label, _ = predict_example(bundle, **{reads: inputs[reads]})
    assert label in bundle.class_names
    with pytest.raises(ConfigError, match="reads no"):
        predict_example(bundle, **inputs)


def test_thread_count_env_cap(monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
    monkeypatch.setenv("EMOFORGE_THREADS", "2")
    assert thread_count() == 2
    monkeypatch.setenv("EMOFORGE_THREADS", "bogus")
    with pytest.raises(ConfigError):
        thread_count()
    monkeypatch.delenv("EMOFORGE_THREADS")
    assert thread_count() == 4
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
    assert thread_count() == 3


def test_thread_count_follows_the_cpus_the_process_may_run_on(monkeypatch):
    monkeypatch.delenv("EMOFORGE_THREADS", raising=False)
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert thread_count() == 1
    monkeypatch.delattr(pipeline.os, "sched_getaffinity")
    assert thread_count() == 4


def test_feature_pool_stops_at_the_first_bad_wav(tmp_path, monkeypatch):
    # a clip already started runs to its end, one not yet started is cancelled
    monkeypatch.setenv("EMOFORGE_THREADS", "2")
    manifest = generate_corpus(tmp_path, seed=4, n_per_class=3)
    paths = [entry.audio_path for entry in load_manifest(manifest)]
    paths[0].write_bytes(b"not a wav")
    started, lock = [], threading.Lock()
    extract = pipeline.extract_audio_features

    def slow_extract(clip, *args):
        with lock:
            started.append(clip.source_id)
        time.sleep(0.1)
        return extract(clip, *args)

    monkeypatch.setattr(pipeline, "extract_audio_features", slow_extract)
    dataset = Dataset([Example(label=EmotionLabel.ANGRY, audio=path) for path in paths])
    with pytest.raises(AudioFormatError):
        pipeline.audio_feature_matrix(dataset, FrameConfig())
    assert len(started) <= thread_count() < len(paths) - 1, started


def _feature_peak_bytes(entries) -> int:
    tracemalloc.start()
    try:
        dataset = read_dataset(entries, "six")
        featurize(dataset, "audio_only", "vector", FrameConfig(), 31, None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_feature_memory_does_not_grow_with_the_corpus(tmp_path, monkeypatch):
    # each WAV is decoded inside its feature job and dropped after it, so 24
    # more 2-s clips leave the peak below four clips' decoded samples
    monkeypatch.setenv("EMOFORGE_THREADS", "1")
    entries = load_manifest(generate_corpus(tmp_path, seed=6, n_per_class=6, duration=2.0))
    clip_bytes = 32000 * np.dtype(np.float64).itemsize
    growth = _feature_peak_bytes(entries[:32]) - _feature_peak_bytes(entries[:8])
    assert growth < 4 * clip_bytes, growth

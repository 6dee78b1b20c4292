import contextlib
import io
import json
import math
import re
import signal
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emoforge.audio_io import encode_wav
from emoforge.cli import _parse_hp, main
from emoforge.errors import ConfigError
from emoforge.persistence import MAGIC
from emoforge.audio_features import FrameConfig
from emoforge.ingest import build_dataset, load_manifest
from emoforge.pipeline import documents, featurize, load_bundle
from emoforge.text_features import fit_vocabulary

from conftest import write_manifest


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert main(["synth-corpus", "--out", str(corpus), "--seed", "5", "--per-class", "10"]) == 0
    manifest = corpus / "manifest.jsonl"
    out = root / "run"
    code = main([
        "train", "--manifest", str(manifest), "--model", "rf",
        "--setting", "audio_only", "--seed", "1", "--out", str(out),
        "--hp", "n_trees=6", "--hp", "max_depth=5",
    ])
    assert code == 0
    return manifest, out


@pytest.fixture(scope="module")
def e2_model(trained_model):
    manifest, out = trained_model
    out = out.parent / "e2"
    code = main([
        "train", "--manifest", str(manifest), "--model", "e2", "--setting", "audio_text",
        "--seed", "1", "--out", str(out), "--hp", "rf.n_trees=3", "--hp", "xgb.n_rounds=2",
        "--hp", "mlp.epochs=3", "--hp", "lr.epochs=5",
    ])
    assert code == 0
    return out


def test_synth_corpus_layout(tmp_path):
    corpus = tmp_path / "c"
    assert main(["synth-corpus", "--out", str(corpus), "--seed", "0", "--per-class", "2"]) == 0
    manifest = corpus / "manifest.jsonl"
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    assert len(rows) == 12
    labels = {r["label"] for r in rows}
    assert labels == {"angry", "happy", "sad", "fear", "surprise", "neutral"}
    meta = json.loads((corpus / "meta.json").read_text())
    assert meta["audio_cue_classes"] == ["angry", "happy", "sad"]


def test_train_writes_artifacts(trained_model):
    _, out = trained_model
    for name in ("model.emf", "report.json", "confusion_matrix.csv", "importances.csv"):
        assert (out / name).is_file()
    importances = (out / "importances.csv").read_text().splitlines()
    assert importances[0] == "rank,feature,importance"
    named = {line.split(",")[1] for line in importances[1:]}
    assert "pause_ratio" in named and "rmse_mean" in named


def test_evaluate_subcommand(trained_model, tmp_path):
    manifest, out = trained_model
    report_path = tmp_path / "eval.json"
    code = main([
        "evaluate", "--model", str(out / "model.emf"),
        "--manifest", str(manifest), "--report", str(report_path),
    ])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["examples"] == 60
    assert 0.0 <= payload["accuracy"] <= 1.0


def test_predict_subcommand(trained_model, capsys):
    manifest, out = trained_model
    wav = json.loads(manifest.read_text().splitlines()[0])["audio"]
    code = main([
        "predict", "--model", str(out / "model.emf"),
        "--wav", str(manifest.parent / wav),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"label", "probabilities"}
    assert abs(sum(payload["probabilities"].values()) - 1.0) < 1e-9


def test_importance_subcommand(trained_model, capsys):
    _, out = trained_model
    assert main(["importance", "--model", str(out / "model.emf")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rank,feature,importance"
    total = sum(float(line.split(",")[2]) for line in lines[1:])
    assert abs(total - 1.0) < 1e-6


def test_extract_features_csv(tmp_path):
    manifest = write_manifest(
        tmp_path,
        [
            {"text": "calm words here", "label": "neutral"},
            {"text": "loud angry words", "label": "angry"},
        ],
    )
    out_csv = tmp_path / "features.csv"
    code = main([
        "extract-features", "--manifest", str(manifest),
        "--out", str(out_csv), "--setting", "audio_only",
    ])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:8] == [
        "autocorr_peak_mean", "autocorr_peak_std", "harmonic_mean", "rmse_mean",
        "rmse_std", "pause_ratio", "amp_mean", "amp_std",
    ]
    assert header[8:] == ["source_id", "label"]
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[-1] == "neutral"
    float(first[0])  # numeric columns parse


@pytest.mark.parametrize("setting", ["audio_only", "text_only", "audio_text"])
def test_extract_features_rows_equal_featurize(trained_model, tmp_path, setting):
    manifest, _ = trained_model
    out_csv = tmp_path / "features.csv"
    code = main([
        "extract-features", "--manifest", str(manifest), "--out", str(out_csv),
        "--setting", setting,
    ])
    assert code == 0
    dataset = build_dataset(load_manifest(manifest))
    vocab = None if setting == "audio_only" else fit_vocabulary(documents(dataset))
    X = featurize(dataset, setting, "vector", FrameConfig(), 31, vocab)
    rows = out_csv.read_text().splitlines()[1:]
    assert len(rows) == len(X)
    for line, row, ex in zip(rows, X, dataset.examples):
        assert line == ",".join([*(f"{v:.9g}" for v in row), ex.source_id, ex.label.value])


def test_config_error_exit_code(tmp_path):
    # predict without the audio the model's setting requires
    corpus = tmp_path / "c"
    main(["synth-corpus", "--out", str(corpus), "--seed", "2", "--per-class", "6"])
    out = tmp_path / "run"
    main([
        "train", "--manifest", str(corpus / "manifest.jsonl"), "--model", "mnb",
        "--setting", "audio_only", "--seed", "0", "--out", str(out),
    ])
    assert main(["predict", "--model", str(out / "model.emf"), "--text", "hello"]) == 2


def test_data_error_exit_code(tmp_path):
    missing = tmp_path / "nope.jsonl"
    out = tmp_path / "run"
    code = main([
        "train", "--manifest", str(missing), "--model", "rf",
        "--setting", "audio_only", "--seed", "0", "--out", str(out),
    ])
    assert code == 3


def test_train_determinism_across_invocations(tmp_path):
    corpus = tmp_path / "c"
    main(["synth-corpus", "--out", str(corpus), "--seed", "3", "--per-class", "8"])
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = main([
            "train", "--manifest", str(corpus / "manifest.jsonl"), "--model", "mlp",
            "--setting", "audio_only", "--seed", "7", "--out", str(out),
            "--hp", "epochs=5", "--hp", "hidden_sizes=8",
        ])
        assert code == 0
        outs.append(out)
    assert (outs[0] / "model.emf").read_bytes() == (outs[1] / "model.emf").read_bytes()
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()


# --- --hp scoping


def test_parse_hp_single_model_takes_flat_and_own_scope():
    assert _parse_hp(["n_trees=6", "rf.max_depth=5"], "rf") == {"n_trees": 6, "max_depth": 5}
    assert _parse_hp(["input_mode=frames", "lstm.learning_rate=0.3"], "lstm") == {
        "input_mode": "frames", "learning_rate": 0.3,
    }


def test_parse_hp_ensemble_nests_scoped_keys():
    assert _parse_hp(["rf.n_trees=40", "xgb.n_rounds=3", "rf.max_depth=10"], "e1") == {
        "rf": {"n_trees": 40, "max_depth": 10}, "xgb": {"n_rounds": 3},
    }


@pytest.mark.parametrize("model, pair, expected", [
    ("e1", "n_trees=40", "--hp rf.n_trees=40"),
    ("e1", "mnb.alpha=2", "e1 trains rf, xgb, mlp"),
    ("rf", "xgb.n_rounds=3", "does not match model rf"),
    ("rf", "=3", "[member.]key=value"),
    ("e2", "rf.=3", "[member.]key=value"),
    ("e2", ".n_trees=3", "[member.]key=value"),
])
def test_parse_hp_rejects_unapplied_keys(model, pair, expected):
    with pytest.raises(ConfigError, match=re.escape(expected)):
        _parse_hp([pair], model)


@pytest.mark.parametrize("model, hp", [
    ("e1", ["--hp", "n_trees=40"]),
    ("e2", ["--hp", "rf.n_trees=2", "--hp", "learning_rate=0.3"]),
    ("rf", ["--hp", "xgb.n_rounds=3"]),
])
def test_train_rejects_unapplied_hp(trained_model, tmp_path, capsys, model, hp):
    manifest, _ = trained_model
    code = main([
        "train", "--manifest", str(manifest), "--model", model,
        "--setting", "audio_only", "--out", str(tmp_path / "run"), *hp,
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_rejects_unknown_lstm_input_mode(trained_model, tmp_path, capsys):
    manifest, _ = trained_model
    code = main([
        "train", "--manifest", str(manifest), "--model", "lstm", "--setting", "audio_only",
        "--out", str(tmp_path / "run"), "--hp", "input_mode=bogus",
    ])
    assert code == 2
    assert "input_mode" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("model, pair", [
    ("rf", "n_trees=abc"),
    ("rf", "n_trees=2.5"),
    ("rf", "max_depth=None"),
    ("mlp", "batch_size=abc"),
    ("mlp", "hidden_sizes=abc"),
    ("e1", "xgb.learning_rate=fast"),
    ("svm", "reg=x"),
])
def test_train_rejects_mistyped_hp(trained_model, tmp_path, capsys, model, pair):
    manifest, _ = trained_model
    code = main([
        "train", "--manifest", str(manifest), "--model", model, "--setting", "audio_only",
        "--out", str(tmp_path / "run"), "--hp", pair,
    ])
    assert code == 2
    err = capsys.readouterr().err
    key = pair.partition("=")[0].rpartition(".")[2]
    assert err.startswith("error:") and key in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("model, pair", [
    ("rf", "n_trees=0"), ("e2", "xgb.learning_rate=2.0"),
    ("lstm", "batch_size=0"), ("lstm", "batch_size=-1"), ("lstm", "hidden_size=0"),
    ("mlp", "batch_size=-1"), ("mlp", "hidden_sizes=0"), ("e1", "mlp.hidden_sizes=8,0"),
    ("lstm", "learning_rate=-0.5"), ("mlp", "learning_rate=0"), ("lr", "learning_rate=-0.5"),
    ("lstm", "clip_threshold=0"), ("e2", "lr.learning_rate=-1"),
])
def test_train_rejects_out_of_range_hp(trained_model, tmp_path, capsys, model, pair):
    # the constructor's ParameterError is a configuration error here, unlike
    # the same check failing on a member's state in a model file (exit 3)
    manifest, _ = trained_model
    code = main([
        "train", "--manifest", str(manifest), "--model", model, "--setting", "audio_only",
        "--out", str(tmp_path / "run"), "--hp", pair,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_train_keeps_int_override_of_float_default(trained_model, tmp_path):
    manifest, _ = trained_model
    out = tmp_path / "run"
    code = main([
        "train", "--manifest", str(manifest), "--model", "xgb", "--setting", "audio_only",
        "--out", str(out), "--hp", "learning_rate=1", "--hp", "n_rounds=2",
    ])
    assert code == 0
    bundle = load_bundle(out / "model.emf")
    assert bundle.hyperparams["learning_rate"] == 1
    assert type(bundle.members[0].classifier.learning_rate) is int


def test_train_applies_member_scoped_hp(trained_model, tmp_path):
    manifest, _ = trained_model
    out = tmp_path / "run"
    code = main([
        "train", "--manifest", str(manifest), "--model", "e1",
        "--setting", "audio_only", "--out", str(out),
        "--hp", "rf.n_trees=3", "--hp", "rf.max_depth=4",
        "--hp", "xgb.n_rounds=2", "--hp", "mlp.epochs=4", "--hp", "mlp.hidden_sizes=5",
    ])
    assert code == 0
    rf, xgb, mlp = (m.classifier for m in load_bundle(out / "model.emf").members)
    assert (rf.n_trees, len(rf.trees_), rf.max_depth) == (3, 3, 4)
    assert (xgb.n_rounds, len(xgb.trees_), xgb.max_depth) == (2, 2, 3)
    assert (mlp.epochs, mlp.hidden_sizes) == (4, (5,))


def test_train_single_model_accepts_own_scope(trained_model, tmp_path):
    manifest, _ = trained_model
    out = tmp_path / "run"
    code = main([
        "train", "--manifest", str(manifest), "--model", "rf",
        "--setting", "audio_only", "--out", str(out), "--hp", "rf.n_trees=2",
    ])
    assert code == 0
    assert len(load_bundle(out / "model.emf").members[0].classifier.trees_) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_predict_rejects_non_finite_float_wav(trained_model, tmp_path, capsys, bad):
    _, out = trained_model
    wav = tmp_path / "bad.wav"
    encode_wav(wav, np.zeros(4000), 16000, bits=32, float_format=True)
    data = bytearray(wav.read_bytes())
    data[-4:] = struct.pack("<f", bad)
    wav.write_bytes(bytes(data))
    code = main(["predict", "--model", str(out / "model.emf"), "--wav", str(wav)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad.wav" in err and "Traceback" not in err


# --- malformed model containers


def _split_model(model: Path) -> tuple[dict, list, bytearray]:
    """A container as its (header, array manifest, array bytes)."""
    head, manifest_line, blob = model.read_bytes()[len(MAGIC):].split(b"\n", 2)
    return json.loads(head), json.loads(manifest_line), bytearray(blob)


def _join_model(header: dict, entries: list, blob: bytes) -> bytes:
    return (MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n"
            + json.dumps(entries).encode() + b"\n" + bytes(blob))


def _corrupt_first_entry(model: Path, edit) -> bytes:
    header, entries, blob = _split_model(model)
    edit(entries[0])
    return _join_model(header, entries, blob)


@pytest.mark.parametrize("edit", [
    lambda e: e.update(dtype="f4"),
    lambda e: e.update(dtype=["f8"]),
    lambda e: e.pop("name"),
    lambda e: e.pop("dtype"),
    lambda e: e.pop("shape"),
    lambda e: e.update(shape="3"),
    lambda e: e.update(shape=[-1]),
    lambda e: e.update(shape=[2.5]),
    lambda e: e.update(name=["x"]),
], ids=["dtype-unknown", "dtype-list", "no-name", "no-dtype", "no-shape", "shape-str",
        "shape-negative", "shape-float", "name-list"])
def test_evaluate_rejects_malformed_array_manifest(trained_model, tmp_path, capsys, edit):
    manifest, out = trained_model
    model = tmp_path / "model.emf"
    model.write_bytes(_corrupt_first_entry(out / "model.emf", edit))
    code = main([
        "evaluate", "--model", str(model), "--manifest", str(manifest),
        "--report", str(tmp_path / "eval.json"),
    ])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def _edit_header(model: Path, edit) -> bytes:
    header, entries, blob = _split_model(model)
    edit(header)
    return _join_model(header, entries, blob)


@pytest.mark.parametrize("edit, expected, model", [
    (lambda h: h.pop("members"), 3, "rf"),
    (lambda h: h.pop("vocab"), 3, "rf"),
    (lambda h: h.update(members=[]), 3, "rf"),
    (lambda h: h.update(members={"kind": "rf"}), 3, "rf"),
    (lambda h: h.update(l_harm="31"), 3, "rf"),
    (lambda h: h.update(setting="video_only"), 3, "rf"),
    (lambda h: h.update(vocab={"terms": ["a"]}), 3, "rf"),
    (lambda h: h["members"][0].pop("meta"), 3, "rf"),
    (lambda h: h["members"][0]["meta"].pop("n_trees"), 3, "rf"),
    (lambda h: h["members"][0]["meta"].update(colour="red"), 3, "rf"),
    (lambda h: h["members"][0]["meta"].update(n_trees="six"), 3, "rf"),
    (lambda h: h["members"][0].update(kind="bogus"), 2, "rf"),
    (lambda h: h.update(combination="single"), 3, "e2"),
    (lambda h: h.update(input_mode="sideways"), 3, "e2"),
    (lambda h: h.update(model_kind="bogus"), 2, "e2"),
    (lambda h: h["members"].pop(), 3, "e2"),
    (lambda h: h.update(combination="soft_vote"), 3, "rf"),
    (lambda h: h.update(model_kind="e1"), 3, "rf"),
    (lambda h: h.update(model_kind="lstm"), 3, "rf"),
    (lambda h: h.update(input_mode="frames"), 3, "rf"),
    (lambda h: h["vocab"]["dfs"].__setitem__(0, "1"), 3, "e2"),
    (lambda h: h.update(vocab=None), 3, "e2"),
    (lambda h: h["members"][2]["scaler"].update(block=2), 3, "e2"),
    (lambda h: h["members"][0]["meta"].update(n_classes=4), 3, "e2"),
    (lambda h: h["class_names"].reverse(), 3, "e2"),
    (lambda h: h["members"][0]["meta"].update(n_trees=0), 3, "rf"),
    (lambda h: h["members"][2]["scaler"].update(kind="robust"), 3, "e2"),
    (lambda h: h["members"][2]["meta"].update(batch_size=-1), 3, "e2"),
    (lambda h: h["members"][2]["meta"].update(hidden_sizes=[0]), 3, "e2"),
    (lambda h: h["members"][0]["meta"].update(batch_size=0), 3, "lstm"),
    (lambda h: h["members"][0]["meta"].update(hidden_size=0), 3, "lstm"),
    # sizes that are in range but not those of the arrays
    (lambda h: h["members"][0]["meta"].update(hidden_size=7), 3, "lstm"),
    (lambda h: h["members"][2]["meta"].update(hidden_sizes=[9]), 3, "e2"),
    (lambda h: h["members"][0]["meta"].update(learning_rate=-0.5), 3, "lstm"),
], ids=["no-members", "no-vocab", "empty-members", "members-object", "l_harm-str",
        "setting-unknown", "vocab-no-dfs", "member-no-meta", "meta-missing-key",
        "meta-extra-key", "meta-mistyped-value", "unknown-kind", "e2-combination-single",
        "e2-input-mode-sideways", "e2-model-kind-bogus", "e2-members-truncated",
        "rf-combination-soft-vote", "rf-model-kind-e1", "rf-model-kind-lstm",
        "rf-input-mode-frames", "e2-vocab-df-str", "e2-vocab-null", "e2-scaler-block-short",
        "e2-member-n-classes", "e2-class-names-edited", "rf-n-trees-zero",
        "e2-scaler-kind-unknown", "e2-mlp-batch-size-negative", "e2-mlp-hidden-size-zero",
        "lstm-batch-size-zero", "lstm-hidden-size-zero", "lstm-hidden-size-edited",
        "e2-mlp-hidden-sizes-edited", "lstm-learning-rate-negative"])
def test_predict_rejects_malformed_header(request, trained_model, tmp_path, capsys, edit,
                                          expected, model):
    manifest, out = trained_model
    if model != "rf":
        out = request.getfixturevalue(f"{model}_model")
    path = tmp_path / "model.emf"
    path.write_bytes(_edit_header(out / "model.emf", edit))
    wav = json.loads(manifest.read_text().splitlines()[0])
    code = main(["predict", "--model", str(path), "--wav", str(manifest.parent / wav["audio"]),
                 "--text", wav["text"]])
    assert code == expected
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _array_at(entries: list, name: str) -> tuple[dict, int]:
    """The manifest entry of array ``name`` and the offset of its bytes."""
    offset = 0
    for entry in entries:
        if entry["name"] == name:
            return entry, offset
        offset += 8 * math.prod(entry["shape"])
    raise KeyError(name)


@contextlib.contextmanager
def _time_limit(seconds: int):
    """Fail instead of hanging: raise TimeoutError after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _predict_code(model: Path, manifest: Path) -> tuple[int, str]:
    """(exit code, stderr) of ``emoforge predict`` on the manifest's first row."""
    row = json.loads(manifest.read_text().splitlines()[0])
    err = io.StringIO()
    with _time_limit(10), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["predict", "--model", str(model), "--wav", str(manifest.parent / row["audio"]),
                     "--text", row["text"]])
    return code, err.getvalue()


def _f8_left(entries, blob):
    _array_at(entries, "m0/left")[0]["dtype"] = "f8"


def _root_left_is_itself(entries, blob):
    _, offset = _array_at(entries, "m0/left")
    blob[offset : offset + 8] = struct.pack("<q", 0)


@pytest.mark.parametrize("edit", [_f8_left, _root_left_is_itself], ids=["f8-left", "self-child"])
def test_predict_rejects_unwalkable_trees(trained_model, e2_model, tmp_path, edit):
    manifest, _ = trained_model
    header, entries, blob = _split_model(e2_model / "model.emf")
    edit(entries, blob)
    path = tmp_path / "model.emf"
    path.write_bytes(_join_model(header, entries, blob))
    code, err = _predict_code(path, manifest)
    assert code == 3
    assert err.startswith("error:") and "Traceback" not in err


@pytest.fixture(scope="module")
def lstm_model(trained_model):
    manifest, out = trained_model
    out = out.parent / "lstm"
    code = main([
        "train", "--manifest", str(manifest), "--model", "lstm", "--setting", "audio_only",
        "--seed", "1", "--out", str(out), "--hp", "input_mode=frames", "--hp", "hidden_size=3",
        "--hp", "epochs=2",
    ])
    assert code == 0
    return out


def test_predict_rejects_lstm_gates_that_do_not_chain(trained_model, lstm_model, tmp_path):
    manifest, _ = trained_model
    header, entries, blob = _split_model(lstm_model / "model.emf")
    entry, _ = _array_at(entries, "m0/w_i")
    entry["shape"] = [1, math.prod(entry["shape"])]
    path = tmp_path / "model.emf"
    path.write_bytes(_join_model(header, entries, blob))
    code, err = _predict_code(path, manifest)
    assert code == 3
    assert err.startswith("error:") and "Traceback" not in err


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 9), st.sampled_from([0.5, 2.0, "", "x", [], {}]),
)


def _shapes(size: int) -> list[list[int]]:
    """Shapes of ``size`` elements: flat, with a unit axis, or split in two."""
    pairs = [[d, size // d] for d in range(2, min(size, 64)) if size % d == 0]
    return [[size], [1, size], [size, 1], *pairs] + ([[]] if size == 1 else [])


def _edit_model(data, header: dict, entries: list, blob: bytearray) -> None:
    """Draw one to three edits and apply them in place: a header value
    replaced or deleted, an array's dtype flipped between f8 and i8, an array
    reshaped, or a tree child index rewritten."""
    children = [e["name"] for e in entries if e["name"].endswith(("/left", "/right"))]
    edits = ["header", "dtype", "reshape"] + (["child"] if children else [])
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        edit = data.draw(st.sampled_from(edits), label="edit")
        if edit == "header":
            parent, key, node = None, None, header
            while isinstance(node, (dict, list)) and node and (
                    key is None or data.draw(st.booleans(), label="descend")):
                keys = sorted(node) if isinstance(node, dict) else range(len(node))
                parent, key = node, data.draw(st.sampled_from(keys), label="key")
                node = node[key]
            if data.draw(st.booleans(), label="delete"):
                del parent[key]
            else:
                parent[key] = data.draw(_JSON_VALUES, label="value")
        elif edit == "dtype":
            entry = data.draw(st.sampled_from(entries), label="array")
            entry["dtype"] = {"f8": "i8", "i8": "f8"}[entry["dtype"]]
        elif edit == "reshape":
            entry = data.draw(st.sampled_from(entries), label="array")
            entry["shape"] = data.draw(st.sampled_from(_shapes(math.prod(entry["shape"]))),
                                       label="shape")
        else:
            entry, offset = _array_at(entries, data.draw(st.sampled_from(children), label="array"))
            size = math.prod(entry["shape"])
            if size:
                at = offset + 8 * data.draw(st.integers(0, size - 1), label="node")
                blob[at : at + 8] = struct.pack("<q", data.draw(st.integers(-2, 40), label="child"))


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_edited_model_file_exits_cleanly(trained_model, e2_model, lstm_model, tmp_path, data):
    manifest, _ = trained_model
    source = data.draw(st.sampled_from([e2_model, lstm_model]), label="model")
    header, entries, blob = _split_model(source / "model.emf")
    _edit_model(data, header, entries, blob)
    path = tmp_path / "edited.emf"
    path.write_bytes(_join_model(header, entries, blob))
    code, err = _predict_code(path, manifest)
    assert code in (0, 2, 3)
    assert "Traceback" not in err

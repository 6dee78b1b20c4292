import json
import re
from pathlib import Path

import pytest

from emoforge.cli import _parse_hp, main
from emoforge.errors import ConfigError
from emoforge.persistence import MAGIC
from emoforge.pipeline import load_bundle

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


# --- malformed model containers


def _corrupt_first_entry(model: Path, edit) -> bytes:
    head, manifest_line, blob = model.read_bytes()[len(MAGIC):].split(b"\n", 2)
    entries = json.loads(manifest_line)
    edit(entries[0])
    return MAGIC + head + b"\n" + json.dumps(entries).encode() + b"\n" + blob


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

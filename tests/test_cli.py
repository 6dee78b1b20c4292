import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import resource
import signal
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import emoforge
from emoforge import cli, ingest, pipeline
from emoforge.audio_io import encode_wav
from emoforge.cli import _parse_hp, main
from emoforge.errors import ConfigError
from emoforge.models import RandomForest
from emoforge.persistence import MAGIC, load_container, save_container
from emoforge.audio_features import FrameConfig
from emoforge.ingest import build_dataset, load_manifest
from emoforge.pipeline import (
    SEED_OFFSET_MODEL,
    documents,
    featurize,
    load_bundle,
    thread_count,
)
from emoforge.text_features import fit_vocabulary

from conftest import MANIFEST_ROWS, mutated_manifest, write_manifest


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


def _assert_extract_features_reads_back(tmp_path: Path, names: list[str]) -> None:
    """extract-features on one short sad clip per name, each WAV named after
    it: csv.reader gives every row the header's field count and each name back."""
    (tmp_path / "wavs").mkdir()
    with (tmp_path / "manifest.jsonl").open("w", encoding="utf-8") as fh:
        for i, name in enumerate(names):
            encode_wav(tmp_path / "wavs" / f"{name}.wav",
                       0.2 * np.sin(np.linspace(0, 40 + i, 1600)), 8000)
            fh.write(json.dumps({"audio": f"wavs/{name}.wav", "text": f"word{i} here",
                                 "label": "sad"}) + "\n")
    for setting in ("audio_only", "audio_text"):
        out_csv = tmp_path / f"{setting}.csv"
        assert main(["extract-features", "--manifest", str(tmp_path / "manifest.jsonl"),
                     "--out", str(out_csv), "--setting", setting]) == 0
        with out_csv.open(encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert [len(row) for row in rows] == [len(header)] * len(names)
        assert [row[header.index("source_id")] for row in rows] == names


def test_extract_features_quotes_a_source_id_that_needs_it(tmp_path):
    _assert_extract_features_reads_back(tmp_path, ["angry,000", 'say "hi"', "two\nlines",
                                                   "plain"])


def test_extract_features_quotes_a_carriage_return_in_a_source_id(tmp_path):
    _assert_extract_features_reads_back(tmp_path, ["car\rriage", "crlf\r\nend", "\rlead",
                                                   "plain"])


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


def test_e2_training_is_identical_at_any_thread_count(tmp_path, monkeypatch):
    corpus = tmp_path / "c"
    main(["synth-corpus", "--out", str(corpus), "--seed", "4", "--per-class", "8"])
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 4)  # two workers even on one CPU
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("EMOFORGE_THREADS", threads)
        assert thread_count() == int(threads)
        out = tmp_path / f"threads{threads}"
        code = main([
            "train", "--manifest", str(corpus / "manifest.jsonl"), "--model", "e2",
            "--setting", "audio_text", "--seed", "7", "--out", str(out),
            "--hp", "rf.n_trees=10", "--hp", "xgb.n_rounds=5", "--hp", "mlp.epochs=5",
            "--hp", "lr.epochs=5",
        ])
        assert code == 0
        outs.append(out)
    for name in ("model.emf", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("line", [
    b'{"audio": "wavs/clip_000.wav", "text": "caf\xe9", "label": "sad"}',
    b"1",
    b'{"audio": true, "text": "x", "label": "sad"}',
    b'{"audio": "wavs/clip_000.wav", "text": null, "label": "sad"}',
], ids=["latin1-byte", "number", "audio-bool", "text-null"])
def test_train_rejects_malformed_manifest_line(tmp_path, capsys, line):
    manifest = write_manifest(tmp_path, [{"text": "x", "label": "sad"}])
    manifest.write_bytes(manifest.read_bytes() + line + b"\n")
    code = main(["train", "--manifest", str(manifest), "--model", "mnb", "--setting", "text_only",
                 "--seed", "0", "--out", str(tmp_path / "run")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and ":2:" in err and "Traceback" not in err


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=mutated_manifest())
def test_train_on_mutated_manifest_exits_cleanly(manifest_dir, data):
    path = manifest_dir / "fuzzed.jsonl"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["train", "--manifest", str(path), "--model", "mnb", "--setting", "audio_text",
                     "--seed", "0", "--out", str(manifest_dir / "run")])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_train_rho_zero_adds_no_rows(trained_model, tmp_path):
    manifest, _ = trained_model
    n_examples = len(manifest.read_text().splitlines())
    sizes = {}
    for rho in ("0", "1"):
        out = tmp_path / rho
        assert main(["train", "--manifest", str(manifest), "--model", "rf", "--setting",
                     "audio_only", "--out", str(out), "--rho", rho, *SMALL_RF]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["upsample_train"] is (rho != "0")
        sizes[rho] = report["train_size"]
    # 80 % of the examples before upsampling; rho 1 adds rows on this split
    assert sizes["0"] == round(0.8 * n_examples) < sizes["1"]


def test_train_has_no_no_upsample_flag(trained_model, tmp_path, capsys):
    manifest, _ = trained_model
    with pytest.raises(SystemExit) as exc:
        main(["train", "--manifest", str(manifest), "--model", "rf", "--setting", "audio_only",
              "--out", str(tmp_path / "run"), "--no-upsample"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-upsample" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_readme_documents_every_long_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [commands] = [action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    missing = [f"{name} {option}" for name, parser in commands.choices.items()
               for action in parser._actions for option in action.option_strings
               if option.startswith("--") and option != "--help"
               and not re.search(re.escape(option) + r"(?![\w-])", readme)]
    assert not missing, missing


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


def test_parse_hp_leaves_unapplied_keys_to_the_design_check():
    assert _parse_hp(["rf.n_trees=2", "n_trees=40", "rf=3"], "e1") == {"rf": 3, "n_trees": 40}
    assert _parse_hp(["xgb.n_rounds=3", "rf.max_depth=5"], "rf") == {
        "xgb": {"n_rounds": 3}, "max_depth": 5,
    }


@pytest.mark.parametrize("model, pair, expected", [
    ("rf", "=3", "[member.]key=value"),
    ("e2", "rf.=3", "[member.]key=value"),
    ("e2", ".n_trees=3", "[member.]key=value"),
])
def test_parse_hp_rejects_malformed_pairs(model, pair, expected):
    with pytest.raises(ConfigError, match=re.escape(expected)):
        _parse_hp([pair], model)


@pytest.mark.parametrize("model, hp, named", [
    ("e1", ["--hp", "n_trees=40"], ["rf, xgb, mlp", "'n_trees'"]),
    ("e1", ["--hp", "mnb.alpha=2"], ["rf, xgb, mlp", "'mnb'"]),
    ("e1", ["--hp", "rf.n_trees=2", "--hp", "rf=3"], ["rf, xgb, mlp", "'rf'"]),
    ("e2", ["--hp", "rf.n_trees=2", "--hp", "learning_rate=0.3"],
     ["rf, xgb, mlp, mnb, lr", "'learning_rate'"]),
    ("rf", ["--hp", "xgb.n_rounds=3"], ["unknown hyperparameters for rf", "'xgb'"]),
], ids=["e1-unscoped", "e1-foreign-scope", "e1-member-as-value", "e2-unscoped",
        "rf-foreign-scope"])
def test_train_rejects_unapplied_hp(trained_model, tmp_path, capsys, monkeypatch, model, hp,
                                    named):
    manifest, _ = trained_model
    monkeypatch.setattr(ingest, "decode_wav", _no_decode)
    code = main([
        "train", "--manifest", str(manifest), "--model", model,
        "--setting", "audio_only", "--out", str(tmp_path / "run"), *hp,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and all(name in err for name in named), err
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


def test_train_lstm_frames_outside_audio_only_names_the_input_mode(trained_model, tmp_path,
                                                                   capsys, monkeypatch):
    manifest, _ = trained_model
    monkeypatch.setattr(ingest, "decode_wav", _no_decode)
    code = main(["train", "--manifest", str(manifest), "--model", "lstm", "--setting",
                 "text_only", "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lstm input_mode 'frames' (the default)"), err
    assert "audio_only" in err and "input_mode 'clip'" in err, err
    assert not (tmp_path / "run").exists()


def _no_decode(path):
    raise AssertionError(f"{path} was decoded before the configuration was checked")


SMALL_RF = ["--hp", "n_trees=2"]


@pytest.mark.parametrize("setting, flags, message", [
    ("audio_only", [*SMALL_RF, "--train-fraction", "5"], "train_fraction must be in (0, 1)"),
    ("audio_only", [*SMALL_RF, "--rho", "7"], "rho must be in [0, 1]"),
    ("text_only", [*SMALL_RF, "--l-harm", "0"], "window length must be in [1, 65536]"),
    ("audio_only", [*SMALL_RF, "--l-harm", "0"], "window length must be in [1, 65536]"),
    # each --hp case stands alone, so none passes for repeating n_trees
    ("audio_only", ["--hp", "n_trees=0"], "n_trees must be >= 1"),
    ("audio_only", ["--hp", "n_trees=abc"], "n_trees='abc' does not fit the type"),
    ("audio_only", [*SMALL_RF, "--hp", "trees=3"], "unknown hyperparameters for rf: ['trees']"),
    ("audio_only", ["--hp", "n_trees=3", "--hp", "n_trees=4"], "sets 'n_trees' twice"),
    ("audio_only", ["--hp", "n_trees=3", "--hp", "rf.n_trees=4"], "sets 'n_trees' twice"),
    ("audio_only", [*SMALL_RF, "--seed", "-1"], "seed must be an integer >= 0"),
    ("audio_only", [*SMALL_RF, "--frame-length", "65537"], "frame_length must be in [1, 65536]"),
], ids=["train-fraction-unused", "rho-unused", "text-only-l-harm-zero", "l_harm-zero",
        "n-trees-zero", "n-trees-str", "hp-unknown", "hp-repeated", "hp-repeated-scoped",
        "seed-negative", "frame-length-above-cap"])
def test_train_rejects_run_settings_out_of_range(tmp_path, capsys, monkeypatch, setting, flags,
                                                 message):
    # every entry carries a split hint, so no run here would call split()
    manifest = write_manifest(tmp_path, MANIFEST_ROWS)
    monkeypatch.setattr(ingest, "decode_wav", _no_decode)
    out = tmp_path / "run"
    code = main(["train", "--manifest", str(manifest), "--model", "rf", "--setting", setting,
                 "--out", str(out), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err, err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("setting, flags", [
    ("audio_only", ["--l-harm", "0"]),
    ("text_only", ["--l-harm", "0"]),
    ("audio_text", ["--l-harm", "0"]),
    ("text_only", ["--hop-length", "99999"]),
    ("audio_only", ["--frame-length", "0"]),
    ("audio_only", ["--frame-length", "65537"]),
], ids=["audio-only-l-harm-zero", "text-only-l-harm-zero", "audio-text-l-harm-zero",
        "hop-length-above-frame", "frame-length-zero", "frame-length-above-cap"])
def test_extract_features_rejects_run_settings_out_of_range(tmp_path, capsys, monkeypatch,
                                                            setting, flags):
    manifest = write_manifest(tmp_path, MANIFEST_ROWS)
    monkeypatch.setattr(ingest, "decode_wav", _no_decode)
    out = tmp_path / "features.csv"
    code = main(["extract-features", "--manifest", str(manifest), "--out", str(out),
                 "--setting", setting, *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_text_only_commands_read_no_wav(trained_model, tmp_path, monkeypatch):
    manifest, _ = trained_model

    def run(out: Path) -> Path:
        model = out / "run" / "model.emf"
        assert main(["train", "--manifest", str(manifest), "--model", "mnb", "--setting",
                     "text_only", "--seed", "1", "--out", str(out / "run")]) == 0
        assert main(["evaluate", "--model", str(model), "--manifest", str(manifest),
                     "--report", str(out / "eval.json")]) == 0
        assert main(["extract-features", "--manifest", str(manifest), "--setting", "text_only",
                     "--out", str(out / "features.csv")]) == 0
        return out

    plain = run(tmp_path / "plain")
    monkeypatch.setattr(ingest, "decode_wav", _no_decode)
    patched = run(tmp_path / "patched")
    for name in ("run/model.emf", "run/report.json", "eval.json", "features.csv"):
        assert (patched / name).read_bytes() == (plain / name).read_bytes(), name


EMPTY_AFTER_MAPPING = {
    "empty": [],
    "all-others": [{"text": "meh", "label": "others"}, {"text": "hm", "label": "others"}],
    "test-all-frustration": [
        {"text": "hello there", "label": "sad", "split": "train"},
        {"text": "so glad", "label": "happy", "split": "train"},
        {"text": "not again", "label": "frustration", "split": "test"},
    ],
}


@pytest.mark.parametrize("rows, argv", [
    ("empty", ["evaluate", "--model", "MODEL", "--report", "OUT/eval.json"]),
    ("all-others", ["evaluate", "--model", "MODEL", "--report", "OUT/eval.json"]),
    ("test-all-frustration", ["train", "--model", "rf", "--setting", "audio_only", "--out", "OUT"]),
    ("test-all-frustration", ["train", "--model", "mnb", "--setting", "text_only", "--out", "OUT"]),
    ("all-others", ["extract-features", "--setting", "audio_only", "--out", "OUT/features.csv"]),
], ids=["evaluate-empty", "evaluate-all-others", "train-rf-audio-only", "train-mnb-text-only",
        "extract-all-others"])
def test_dataset_empty_after_label_mapping_exits_3(trained_model, tmp_path, capsys, rows, argv):
    _, run = trained_model
    manifest = write_manifest(tmp_path, EMPTY_AFTER_MAPPING[rows])
    out = tmp_path / "out"
    argv = [a.replace("MODEL", str(run / "model.emf")).replace("OUT", str(out)) for a in argv]
    assert main([*argv, "--manifest", str(manifest)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


# transcripts that normalize to no token leave the train vocabulary empty
TOKENLESS_ROWS = [{**row, "text": "!!!"} for row in MANIFEST_ROWS]


@pytest.mark.parametrize("model, hp", [
    ("rf", SMALL_RF), ("xgb", ["--hp", "n_rounds=2"]), ("svm", []), ("mnb", []), ("lr", []),
    ("mlp", ["--hp", "epochs=2"]), ("lstm", ["--hp", "input_mode=clip", "--hp", "epochs=2"]),
    ("e1", ["--hp", "rf.n_trees=2", "--hp", "xgb.n_rounds=2", "--hp", "mlp.epochs=2"]),
    ("e2", ["--hp", "rf.n_trees=2", "--hp", "xgb.n_rounds=2", "--hp", "mlp.epochs=2"]),
], ids=["rf", "xgb", "svm", "mnb", "lr", "mlp", "lstm-clip", "e1", "e2"])
def test_text_only_train_without_a_token_exits_3_before_fitting(tmp_path, capsys, monkeypatch,
                                                                 model, hp):
    manifest = write_manifest(tmp_path, TOKENLESS_ROWS)
    monkeypatch.setattr(ingest, "decode_wav", _no_decode)
    out = tmp_path / "run"
    code = main(["train", "--manifest", str(manifest), "--model", model, "--setting",
                 "text_only", "--out", str(out), *hp])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no transcript" in err and "Traceback" not in err, err
    assert not (out / "model.emf").exists()


def test_audio_text_train_without_a_token_reads_the_clip_features(tmp_path):
    manifest = write_manifest(tmp_path, TOKENLESS_ROWS)
    out = tmp_path / "run"
    assert main(["train", "--manifest", str(manifest), "--model", "lr", "--setting",
                 "audio_text", "--out", str(out), "--hp", "epochs=2"]) == 0
    assert json.loads((out / "report.json").read_text())["feature_dim"] == 8
    assert load_bundle(out / "model.emf").vocab.terms == ()


@pytest.mark.parametrize("model, setting, hp", [
    ("e2", "audio_text", ["--hp", "rf.n_trees=3", "--hp", "xgb.n_rounds=2", "--hp", "mlp.epochs=3",
                          "--hp", "lr.epochs=5"]),
    ("lstm", "audio_only", ["--hp", "input_mode=frames", "--hp", "hidden_size=3",
                            "--hp", "epochs=2"]),
    ("mnb", "text_only", []),
])
def test_evaluate_on_held_out_entries_reproduces_train_report(trained_model, tmp_path, model,
                                                               setting, hp):
    manifest, _ = trained_model
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    for i, row in enumerate(rows):
        row["split"] = "test" if i % 4 == 0 else "train"
        row["audio"] = str(manifest.parent / row["audio"])
    hinted, held_out = tmp_path / "hinted.jsonl", tmp_path / "held_out.jsonl"
    hinted.write_text("".join(json.dumps(row) + "\n" for row in rows))
    held_out.write_text("".join(json.dumps(row) + "\n" for row in rows if row["split"] == "test"))
    out = tmp_path / "run"
    assert main(["train", "--manifest", str(hinted), "--model", model, "--setting", setting,
                 "--seed", "1", "--out", str(out), *hp]) == 0
    assert main(["evaluate", "--model", str(out / "model.emf"), "--manifest", str(held_out),
                 "--report", str(tmp_path / "eval.json")]) == 0
    trained = json.loads((out / "report.json").read_text())
    evaluated = json.loads((tmp_path / "eval.json").read_text())
    assert evaluated["examples"] == trained["test_size"]
    for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1", "per_class",
                "confusion_matrix"):
        assert evaluated[key] == trained[key], key


@pytest.mark.parametrize("model, pair", [
    ("rf", "n_trees=abc"),
    ("rf", "n_trees=2.5"),
    ("rf", "max_depth=None"),
    ("mlp", "batch_size=abc"),
    ("mlp", "hidden_sizes=abc"),
    ("e1", "xgb.learning_rate=fast"),
    ("svm", "reg=x"),
])
def test_train_rejects_mistyped_hp(trained_model, tmp_path, capsys, monkeypatch, model, pair):
    manifest, _ = trained_model
    monkeypatch.setattr(ingest, "decode_wav", _no_decode)
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
    ("rf", "min_samples_leaf=0"), ("xgb", "min_samples_leaf=-1"), ("e2", "xgb.min_samples_leaf=-1"),
    ("lstm", "batch_size=0"), ("lstm", "batch_size=-1"), ("lstm", "hidden_size=0"),
    ("mlp", "batch_size=-1"), ("mlp", "hidden_sizes=0"), ("e1", "mlp.hidden_sizes=8,0"),
    ("lstm", "learning_rate=-0.5"), ("mlp", "learning_rate=0"), ("lr", "learning_rate=-0.5"),
    ("lstm", "clip_threshold=0"), ("e2", "lr.learning_rate=-1"),
    ("mlp", "momentum=1.5"), ("mlp", "momentum=-1.0"), ("e1", "mlp.momentum=1"),
    ("lstm", "validation_fraction=2.0"), ("lstm", "validation_fraction=-0.5"),
    ("lstm", "validation_fraction=0"),
    ("mnb", "alpha=nan"), ("svm", "reg=nan"), ("lr", "reg=inf"), ("mlp", "learning_rate=inf"),
    ("e2", "mnb.alpha=inf"), ("rf", "max_depth=0"), ("rf", "max_depth=-2"),
    ("xgb", "max_depth=0"), ("xgb", "max_depth=-1"), ("lstm", "patience=-1"),
    ("svm", "epochs=0"), ("lr", "epochs=0"), ("lstm", "epochs=0"), ("lr", "reg=-1"),
    ("mnb", "alpha=-1"), ("lstm", "dropout_rate=1.0"),
])
def test_train_rejects_out_of_range_hp(trained_model, tmp_path, capsys, monkeypatch, model,
                                       pair):
    # the constructor's ParameterError is a configuration error here, unlike
    # the same check failing on a member's state in a model file (exit 3)
    manifest, _ = trained_model
    monkeypatch.setattr(ingest, "decode_wav", _no_decode)
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
    n_trees = [m.packed_["offsets"].size - 1 for m in (rf, xgb)]  # xgb: one per round and class
    assert (rf.n_trees, n_trees[0], rf.max_depth) == (3, 3, 4)
    assert (xgb.n_rounds, n_trees[1] / xgb.n_classes, xgb.max_depth) == (2, 2, 3)
    assert (mlp.epochs, mlp.hidden_sizes) == (4, (5,))


def test_train_single_model_accepts_own_scope(trained_model, tmp_path):
    manifest, _ = trained_model
    out = tmp_path / "run"
    code = main([
        "train", "--manifest", str(manifest), "--model", "rf",
        "--setting", "audio_only", "--out", str(out), "--hp", "rf.n_trees=2",
    ])
    assert code == 0
    assert load_bundle(out / "model.emf").members[0].classifier.packed_["offsets"].size == 3


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


@pytest.fixture(scope="module")
def text_model(trained_model):
    manifest, out = trained_model
    out = out.parent / "mnb"
    assert main(["train", "--manifest", str(manifest), "--model", "mnb", "--setting", "text_only",
                 "--seed", "1", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("case", ["predict-wav-missing", "predict-model-missing",
                                  "evaluate-model-directory"])
def test_unreadable_input_paths_exit_3(trained_model, tmp_path, capsys, case):
    manifest, run = trained_model
    wav = manifest.parent / json.loads(manifest.read_text().splitlines()[0])["audio"]
    argv = {
        "predict-wav-missing": ["predict", "--model", str(run / "model.emf"),
                                "--wav", str(tmp_path / "missing.wav")],
        "predict-model-missing": ["predict", "--model", str(tmp_path / "missing.emf"),
                                  "--wav", str(wav)],
        "evaluate-model-directory": ["evaluate", "--model", str(tmp_path), "--manifest",
                                     str(manifest), "--report", str(tmp_path / "out/eval.json")],
    }[case]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"], ["--per-class", "0"], ["--sample-rate", "0"], ["--sample-rate", "-8000"],
    ["--duration", "0"], ["--duration", "-1"], ["--duration", "nan"],
    ["--sample-rate", "4294967296", "--duration", "1e-9"],
    ["--sample-rate", "2147483648", "--duration", "1e-9"],
    ["--sample-rate", "1", "--duration", "16777217"], ["--duration", "1e308"],
    ["--sample-rate", "1" + "0" * 400],
], ids=["seed-negative", "per-class-zero", "sample-rate-zero", "sample-rate-negative",
        "duration-zero", "duration-negative", "duration-nan", "sample-rate-above-header",
        "byte-rate-above-header", "samples-above-cap", "samples-overflow",
        "sample-rate-beyond-float"])
def test_synth_corpus_rejects_arguments_out_of_range(tmp_path, capsys, flags):
    corpus = tmp_path / "corpus"
    assert main(["synth-corpus", "--out", str(corpus), "--per-class", "1", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not corpus.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "extract-features", "synth-corpus"])
def test_unwritable_output_paths_exit_3(trained_model, tmp_path, capsys, command):
    manifest, run = trained_model
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = {
        "train": ["train", "--manifest", str(manifest), "--model", "mnb", "--setting",
                  "text_only", "--out", str(blocker)],
        "evaluate": ["evaluate", "--model", str(run / "model.emf"), "--manifest", str(manifest),
                     "--report", str(tmp_path)],
        "extract-features": ["extract-features", "--manifest", str(manifest), "--setting",
                             "text_only", "--out", str(tmp_path)],
        "synth-corpus": ["synth-corpus", "--out", str(blocker / "corpus"), "--per-class", "1"],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("model", ["mnb", "rf"], ids=["wav-on-text-only", "text-on-audio-only"])
def test_predict_rejects_input_its_setting_does_not_read(request, trained_model, tmp_path, capsys,
                                                         monkeypatch, model):
    manifest, out = trained_model
    row = json.loads(manifest.read_text().splitlines()[0])
    if model == "mnb":
        out = request.getfixturevalue("text_model")
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not wav")
        reads, unread = ["--text", row["text"]], ["--wav", str(bad)]
    else:
        reads, unread = ["--wav", str(manifest.parent / row["audio"])], ["--text", row["text"]]
    predict = ["predict", "--model", str(out / "model.emf"), *reads]
    assert main(predict) == 0
    capsys.readouterr()
    monkeypatch.setattr("emoforge.cli.decode_wav", _no_decode)
    assert main([*predict, *unread]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and unread[0] in err and "Traceback" not in err


@pytest.mark.parametrize("bad_split", ["train", "test"])
def test_train_bad_wav_in_either_split_exits_3_before_fitting(tmp_path, capsys, monkeypatch,
                                                              bad_split):
    manifest = write_manifest(tmp_path, MANIFEST_ROWS)
    bad = next(i for i, row in enumerate(MANIFEST_ROWS) if row["split"] == bad_split)
    (tmp_path / "wavs" / f"clip_{bad:03d}.wav").write_bytes(b"not wav")

    def no_fit(self, X, y):
        raise AssertionError("a member fit before every WAV was decoded")

    monkeypatch.setattr(RandomForest, "fit", no_fit)
    out = tmp_path / "run"
    code = main(["train", "--manifest", str(manifest), "--model", "rf", "--setting",
                 "audio_only", "--out", str(out), *SMALL_RF])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"clip_{bad:03d}.wav" in err, err
    assert not out.exists()


def run_module(argv: list[str], address_space: int | None = None) -> subprocess.CompletedProcess:
    """``python -m emoforge argv`` in a child that imports this checkout's
    package; with ``address_space`` bytes as its RLIMIT_AS, so that an
    oversized request fails there with MemoryError instead of taking the host."""
    src = Path(emoforge.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "emoforge", *argv], capture_output=True,
                          text=True, env=env, timeout=300,
                          preexec_fn=None if address_space is None else limit)


# room for the interpreter and numpy, far below any oversized request
CHILD_ADDRESS_SPACE = 2 * 1024**3


def test_python_m_emoforge_runs_the_cli():
    result = run_module(["--help"])
    assert result.returncode == 0, result.stderr
    assert "synth-corpus" in result.stdout


def test_synth_corpus_rejects_a_clip_over_the_sample_cap_before_writing(tmp_path):
    corpus = tmp_path / "corpus"
    result = run_module(["synth-corpus", "--out", str(corpus), "--per-class", "1",
                         "--duration", "1e9"], CHILD_ADDRESS_SPACE)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error:") and "samples per clip" in result.stderr
    assert "Traceback" not in result.stderr
    assert not corpus.exists()


@pytest.mark.parametrize("command", ["train", "extract-features"])
def test_a_frame_over_the_length_cap_exits_2_before_featurizing(trained_model, tmp_path,
                                                                 command):
    # a 2e9-sample frame is 16 GB of float64s: without the cap the child
    # runs out of its address space on the first clip
    manifest, _ = trained_model
    out = tmp_path / ("run" if command == "train" else "features.csv")
    flags = ["--model", "rf", "--out", str(out)] if command == "train" else ["--out", str(out)]
    result = run_module([command, "--manifest", str(manifest), "--setting", "audio_only",
                         "--frame-length", "2000000000", *flags], CHILD_ADDRESS_SPACE)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: frame_length must be in [1, 65536]"), result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("model, hp", [
    ("mlp", "hidden_sizes=2000000000"),
    ("rf", "n_trees=2000000000"),
    ("lstm", "hidden_size=100000000"),
], ids=["mlp-hidden-sizes", "rf-n-trees", "lstm-hidden-size"])
def test_train_rejects_a_design_over_its_size_cap_before_fitting(trained_model, tmp_path, model,
                                                                  hp):
    manifest, _ = trained_model
    out = tmp_path / "run"
    result = run_module(["train", "--manifest", str(manifest), "--model", model, "--setting",
                         "audio_only", "--out", str(out), "--hp", hp], CHILD_ADDRESS_SPACE)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: {model} design holds") and "cap" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("model, hp, named", [
    ("e2", ["--hp", "xgb.n_rounds=1667"], "xgb design holds 10002 trees"),
    ("e1", ["--hp", "rf.n_trees=10001"], "rf design holds 10001 trees"),
    ("mlp", ["--hp", "hidden_sizes=4096,4096"], "mlp design holds"),
    # a twentieth of the 2**24 weight cap per hidden unit: under the cap on the
    # least text width, over it on the vocabulary's
    ("mlp", ["--hp", "hidden_sizes=838860"], "mlp design holds"),
], ids=["e2-xgb-rounds-times-classes", "e1-rf-trees", "mlp-two-layers", "mlp-vocabulary-width"])
def test_size_caps_reject_before_any_wav_is_read(trained_model, tmp_path, capsys, monkeypatch,
                                                 model, hp, named):
    manifest, _ = trained_model
    monkeypatch.setattr(ingest, "decode_wav", _no_decode)
    code = main(["train", "--manifest", str(manifest), "--model", model, "--setting",
                 "audio_text", "--out", str(tmp_path / "run"), *hp])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and "Traceback" not in err, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("model, edit", [
    ("rf", lambda h: h["hyperparameters"].update(n_trees=2000000000)),
    ("lstm", lambda h: h["hyperparameters"].update(hidden_size=100000000)),
    ("e2", lambda h: h["hyperparameters"]["mlp"].update(hidden_sizes=[2000000000])),
], ids=["rf-n-trees", "lstm-hidden-size", "e2-mlp-hidden-sizes"])
def test_a_model_header_over_a_size_cap_exits_3(request, trained_model, tmp_path, capsys, model,
                                                edit):
    manifest, out = trained_model
    if model != "rf":
        out = request.getfixturevalue(f"{model}_model")
    path = tmp_path / "model.emf"
    path.write_bytes(_edit_header(out / "model.emf", edit))
    code = main(["evaluate", "--model", str(path), "--manifest", str(manifest),
                 "--report", str(tmp_path / "eval.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "over the cap" in err and "Traceback" not in err, err
    assert not (tmp_path / "eval.json").exists()


@pytest.mark.parametrize("raised, message", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("Unable to allocate 116. TiB"),
     "error: out of memory (Unable to allocate 116. TiB)\n"),
], ids=["bare", "with-detail"])
def test_a_memory_error_exits_3_without_a_traceback(monkeypatch, capsys, raised, message):
    def exhaust(args):
        raise raised

    monkeypatch.setitem(cli._COMMANDS, "importance", exhaust)
    assert main(["importance", "--model", "model.emf"]) == 3
    assert capsys.readouterr().err == message


def test_train_rejects_manifest_mixing_hinted_and_unhinted_entries(trained_model, tmp_path,
                                                                   capsys, monkeypatch):
    # split hints are all-or-nothing: five hinted entries of 60 do not fall back to a seeded split
    manifest, _ = trained_model
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    for i, row in enumerate(rows):
        row["audio"] = str(manifest.parent / row["audio"])
        if i < 5:
            row["split"] = "test"
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("".join(json.dumps(row) + "\n" for row in rows))
    monkeypatch.setattr(ingest, "decode_wav", _no_decode)
    out = tmp_path / "run"
    code = main(["train", "--manifest", str(mixed), "--model", "rf", "--setting", "audio_only",
                 "--out", str(out), *SMALL_RF])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mixes hinted and unhinted" in err
    assert not out.exists()


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
    (lambda h: h["members"][2]["meta"].update(momentum=1.5), 3, "e2"),
    (lambda h: h["members"][0]["meta"].update(validation_fraction=2.0), 3, "lstm"),
    (lambda h: h.update(frame_length=0), 3, "rf"),
    (lambda h: h.update(hop_length=99999), 3, "rf"),
    (lambda h: h.update(l_harm=0), 3, "rf"),
    (lambda h: h.update(frame_length=65537), 3, "rf"),
    (lambda h: h["hyperparameters"].update(svm={}), 3, "e2"),
    (lambda h: h["hyperparameters"].update(rf=3), 3, "e2"),
    (lambda h: h["hyperparameters"]["xgb"].update(learning_rate=float("nan")), 3, "e2"),
    (lambda h: h["hyperparameters"].update(max_depth=0), 3, "rf"),
    # members that the header's kind, seed and hyperparameters do not make
    (lambda h: h["hyperparameters"].update(n_trees=7), 3, "rf"),
    (lambda h: h["members"][2].update(scaler=None), 3, "e2"),
    (lambda h: h["members"][2]["scaler"].update(kind="minmax"), 3, "e2"),
    (lambda h: h["members"][0]["meta"].update(seed=h["members"][0]["meta"]["seed"] + 1), 3, "rf"),
    (lambda h: h["members"][0]["meta"].update(bootstrap=False), 3, "rf"),
    (lambda h: h.update(seed=h["seed"] + 1), 3, "rf"),
    (lambda h: h["hyperparameters"].update(xgb={"n_rounds": 7, "max_depth": 9}), 3, "e2"),
    # a width that is not the eight clip features of an audio_only tree model
    (lambda h: h.update(feature_dim=4), 3, "rf"),
    (lambda h: h.update(feature_dim=9), 3, "rf"),
    # the seed that files of earlier versions stored for xgb, which draws nothing
    (lambda h: h["members"][1]["meta"].update(seed=h["seed"] + SEED_OFFSET_MODEL + 1), 3, "e2"),
    # what no design field holds: an extra key, and a bool where a number belongs
    (lambda h: h.update(colour="red"), 3, "rf"),
    (lambda h: h["vocab"].update(colour="red"), 3, "e2"),
    (lambda h: h.update(seed=True), 3, "rf"),
    (lambda h: (h["hyperparameters"]["mlp"].update(learning_rate=True),
                h["members"][2]["meta"].update(learning_rate=True)), 3, "e2"),
    # a negative seed, with the member seed derived from it as the design derives it
    (lambda h: (h.update(seed=-150),
                h["members"][0]["meta"].update(seed=-150 + SEED_OFFSET_MODEL)), 3, "rf"),
], ids=["no-members", "no-vocab", "empty-members", "members-object", "l_harm-str",
        "setting-unknown", "vocab-no-dfs", "member-no-meta", "meta-missing-key",
        "meta-extra-key", "meta-mistyped-value", "unknown-kind", "e2-combination-single",
        "e2-input-mode-sideways", "e2-model-kind-bogus", "e2-members-truncated",
        "rf-combination-soft-vote", "rf-model-kind-e1", "rf-model-kind-lstm",
        "rf-input-mode-frames", "e2-vocab-df-str", "e2-vocab-null", "e2-scaler-block-short",
        "e2-member-n-classes", "e2-class-names-edited", "rf-n-trees-zero",
        "e2-scaler-kind-unknown", "e2-mlp-batch-size-negative", "e2-mlp-hidden-size-zero",
        "lstm-batch-size-zero", "lstm-hidden-size-zero", "lstm-hidden-size-edited",
        "e2-mlp-hidden-sizes-edited", "lstm-learning-rate-negative",
        "e2-mlp-momentum-above-one", "lstm-validation-fraction-above-one",
        "frame-length-zero", "hop-length-above-frame", "l_harm-zero", "frame-length-above-cap",
        "e2-hp-stray-scope",
        "e2-hp-scope-not-object", "e2-hp-nan", "rf-hp-max-depth-zero", "rf-hp-edited",
        "e2-mlp-scaler-null", "e2-mlp-scaler-minmax", "rf-member-seed-edited",
        "rf-bootstrap-false", "rf-bundle-seed-edited", "e2-xgb-hp-edited", "rf-feature-dim-4",
        "rf-feature-dim-9", "e2-xgb-meta-seed", "rf-extra-key", "e2-vocab-extra-key",
        "rf-seed-true", "e2-mlp-learning-rate-true", "rf-seed-negative"])
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


@pytest.mark.parametrize("edit", [
    lambda h: h.update(frame_length=0),
    lambda h: h.update(hop_length=99999),
    lambda h: h.update(l_harm=0),
    lambda h: h.update(frame_length=65537),
], ids=["frame-length-zero", "hop-length-above-frame", "l_harm-zero", "frame-length-above-cap"])
def test_evaluate_rejects_header_framing_out_of_range(trained_model, tmp_path, capsys, edit):
    manifest, out = trained_model
    path = tmp_path / "model.emf"
    path.write_bytes(_edit_header(out / "model.emf", edit))
    code = main(["evaluate", "--model", str(path), "--manifest", str(manifest),
                 "--report", str(tmp_path / "eval.json")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "eval.json").exists()


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


def _predict_code(model: Path, manifest: Path, text: bool = True) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``emoforge predict`` on the manifest's
    first row: its WAV, and its transcript if ``text``."""
    row = json.loads(manifest.read_text().splitlines()[0])
    out, err = io.StringIO(), io.StringIO()
    with _time_limit(10), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["predict", "--model", str(model), "--wav", str(manifest.parent / row["audio"]),
                     *(["--text", row["text"]] if text else [])])
    return code, out.getvalue(), err.getvalue()


def _f8_left(entries, blob):
    _array_at(entries, "m0/left")[0]["dtype"] = "f8"


def _root_left_is_itself(entries, blob):
    _, offset = _array_at(entries, "m0/left")
    blob[offset : offset + 8] = struct.pack("<q", 0)


@pytest.mark.parametrize("command", ["predict", "importance"])
def test_tree_split_features_stay_within_feature_dim(trained_model, tmp_path, capsys, command):
    # importances widened to 20 columns would let a split on column 15 of an
    # eight-column audio_only input pass the tree checks
    manifest, out = trained_model
    header, arrays = load_container(out / "model.emf")
    importances, feature = arrays["m0/importances"], arrays["m0/feature"]
    arrays["m0/importances"] = np.hstack([importances, np.zeros((importances.shape[0], 12))])
    feature[np.flatnonzero(feature >= 0)[0]] = 15
    path = tmp_path / "model.emf"
    save_container(path, header, arrays)
    wav = manifest.parent / json.loads(manifest.read_text().splitlines()[0])["audio"]
    argv = {"predict": ["predict", "--model", str(path), "--wav", str(wav)],
            "importance": ["importance", "--model", str(path)]}[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "8 columns" in err and "Traceback" not in err


@pytest.mark.parametrize("edit", [_f8_left, _root_left_is_itself], ids=["f8-left", "self-child"])
def test_predict_rejects_unwalkable_trees(trained_model, e2_model, tmp_path, edit):
    manifest, _ = trained_model
    header, entries, blob = _split_model(e2_model / "model.emf")
    edit(entries, blob)
    path = tmp_path / "model.emf"
    path.write_bytes(_join_model(header, entries, blob))
    code, _, err = _predict_code(path, manifest)
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
    entry, _ = _array_at(entries, "m0/W")
    entry["shape"] = [1, math.prod(entry["shape"])]
    path = tmp_path / "model.emf"
    path.write_bytes(_join_model(header, entries, blob))
    code, _, err = _predict_code(path, manifest, text=False)
    assert code == 3
    assert err.startswith("error:") and "Traceback" not in err


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 9), st.sampled_from([0.5, 2.0, "", "x", [], {}]),
)


def _shapes(size: int) -> list[list[int]]:
    """Shapes of ``size`` elements: flat, with a unit axis, or split in two."""
    pairs = [[d, size // d] for d in range(2, min(size, 64)) if size % d == 0]
    return [[size], [1, size], [size, 1], *pairs] + ([[]] if size == 1 else [])


# non-finite values, which loading rejects, and finite ones that can
# overflow a prediction
_ARRAY_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200, -1.0])


def _edit_model(data, header: dict, entries: list, blob: bytearray) -> None:
    """Draw one to three edits and apply them in place: a header value
    replaced or deleted, an array's dtype flipped between f8 and i8, an array
    reshaped, a tree child index rewritten, or one element of an f8 array
    overwritten."""
    children = [e["name"] for e in entries if e["name"].endswith(("/left", "/right"))]
    floats = [e["name"] for e in entries if e["dtype"] == "f8" and math.prod(e["shape"])]
    edits = ["header", "dtype", "reshape", "value"] + (["child"] if children else [])
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
        elif edit == "value":
            entry, offset = _array_at(entries, data.draw(st.sampled_from(floats), label="array"))
            at = offset + 8 * data.draw(st.integers(0, math.prod(entry["shape"]) - 1),
                                        label="element")
            blob[at : at + 8] = struct.pack("<d", data.draw(_ARRAY_VALUES, label="float"))
        else:
            entry, offset = _array_at(entries, data.draw(st.sampled_from(children), label="array"))
            size = math.prod(entry["shape"])
            if size:
                at = offset + 8 * data.draw(st.integers(0, size - 1), label="node")
                blob[at : at + 8] = struct.pack("<q", data.draw(st.integers(-2, 40), label="child"))


@pytest.fixture(scope="module")
def svm_model(trained_model):
    manifest, out = trained_model
    out = out.parent / "svm"
    code = main(["train", "--manifest", str(manifest), "--model", "svm", "--setting",
                 "audio_text", "--seed", "1", "--out", str(out), "--hp", "epochs=5"])
    assert code == 0
    return out


def _strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_edited_model_file_exits_cleanly(trained_model, e2_model, lstm_model, svm_model,
                                         tmp_path, data):
    # e2 (rf, xgb, mlp, mnb, lr), lstm and svm: every member kind
    manifest, _ = trained_model
    source = data.draw(st.sampled_from([e2_model, lstm_model, svm_model]), label="model")
    header, entries, blob = _split_model(source / "model.emf")
    _edit_model(data, header, entries, blob)
    path = tmp_path / "edited.emf"
    path.write_bytes(_join_model(header, entries, blob))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = _predict_code(path, manifest, text=source != lstm_model)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        probabilities = list(_strict_json(out)["probabilities"].values())
        assert all(0.0 <= p <= 1.0 for p in probabilities)
        assert abs(sum(probabilities) - 1.0) <= 1e-9
    else:
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("model", ["mlp", "lr"])
def test_a_diverging_fit_exits_2_without_writing_a_model(trained_model, tmp_path, capsys, model):
    # at learning_rate=1e12 both fits overflow to NaN; a numpy warning fails the test
    manifest, _ = trained_model
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["train", "--manifest", str(manifest), "--model", model,
                     "--setting", "audio_only", "--seed", "1", "--out", str(out),
                     "--hp", "learning_rate=1e12"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model} fit diverged") and err.count("\n") == 1
    assert "smaller learning_rate" in err
    assert not (out / "model.emf").exists()


@pytest.fixture(scope="module")
def mlp_model(trained_model):
    manifest, out = trained_model
    out = out.parent / "mlp"
    code = main(["train", "--manifest", str(manifest), "--model", "mlp", "--setting",
                 "audio_only", "--seed", "1", "--out", str(out), "--hp", "hidden_sizes=4",
                 "--hp", "epochs=3"])
    assert code == 0
    return out


# (model, array, index, value): each edit exits 0 at a loader that checks shapes
# alone, and predict then prints NaN or "probabilities" outside [0, 1]
_STATE_EDITS = {
    "rf-value-inf": ("rf", "value", ..., np.inf),
    "rf-value-negative": ("rf", "value", 0, [2.0, -1.0, 0.0, 0.0, 0.0, 0.0]),
    "rf-value-sum": ("rf", "value", -1, 0.25),
    "rf-threshold-nan": ("rf", "threshold", 0, np.nan),  # node 0, the first tree's root
    "mlp-weight-nan": ("mlp", "w0", (0, 0), np.nan),
    "mlp-scale-zero": ("mlp", "scaler/scale", 0, 0.0),
    "mlp-center-inf": ("mlp", "scaler/center", 0, -np.inf),
}


def _edited_model(tmp_path, source: Path, array: str, index, value) -> Path:
    """A copy of ``source``'s model file with one array entry set, header kept exact."""
    header, arrays = load_container(source / "model.emf")
    arrays[f"m0/{array}"][index] = value
    path = tmp_path / "model.emf"
    save_container(path, header, arrays)
    return path


@pytest.mark.parametrize("name", list(_STATE_EDITS))
def test_predict_rejects_non_finite_model_state(trained_model, mlp_model, tmp_path, name):
    manifest, rf_out = trained_model
    model, *edit = _STATE_EDITS[name]
    path = _edited_model(tmp_path, rf_out if model == "rf" else mlp_model, *edit)
    code, _, err = _predict_code(path, manifest, text=False)
    assert code == 3
    assert err.startswith("error:") and "state is unusable" in err and "Traceback" not in err


def test_predict_rejects_probabilities_that_overflow(trained_model, mlp_model, tmp_path):
    # every array is finite, so the file loads; but the hidden units sit near
    # 10 and two output rows at 1e308, so the logits overflow to inf - inf
    manifest, _ = trained_model
    header, arrays = load_container(mlp_model / "model.emf")
    arrays["m0/b0"][...] = 10.0
    arrays["m0/w1"][:2] = 1e308
    path = tmp_path / "model.emf"
    save_container(path, header, arrays)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _predict_code(path, manifest, text=False)
    assert code == 3 and out == ""
    assert err.startswith("error: mlp probabilities are not finite") and err.count("\n") == 1


def test_predict_takes_an_infinite_tree_threshold(trained_model, tmp_path, capsys):
    # a legal split that sends every row to one side
    manifest, rf_out = trained_model
    path = _edited_model(tmp_path, rf_out, "threshold", 0, np.inf)
    wav = manifest.parent / json.loads(manifest.read_text().splitlines()[0])["audio"]
    assert main(["predict", "--model", str(path), "--wav", str(wav)]) == 0
    probabilities = json.loads(capsys.readouterr().out)["probabilities"]
    assert abs(sum(probabilities.values()) - 1.0) < 1e-9

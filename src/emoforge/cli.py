"""Command-line interface.

Subcommands: synth-corpus, extract-features, train, evaluate, predict,
importance. Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .audio_features import FrameConfig
from .audio_io import decode_wav
from .config import (
    DEFAULT_FRAME_LENGTH,
    DEFAULT_HARMONIC_WINDOW,
    DEFAULT_HOP_LENGTH,
    DEFAULT_TRAIN_FRACTION,
    DEFAULT_UPSAMPLE_RHO,
    ENSEMBLE_MEMBERS,
)
from .errors import ConfigError, DataError, EmoforgeError, ModelError
from .ingest import build_dataset, load_manifest
from .metrics import evaluate
from .pipeline import (
    ExperimentConfig,
    audio_feature_matrix,
    feature_importance,
    feature_names,
    fused_matrix,
    frame_sequences,
    labels_to_indices,
    load_bundle,
    predict_example,
    run_experiment,
    text_feature_matrix,
)
from .synth import generate_corpus
from .text_features import fit_vocabulary, normalize_text

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


def _parse_hp(pairs: list[str], model_kind: str) -> dict:
    """Parse repeated --hp [member.]key=value flags; values try int, float,
    then str.

    An e1/e2 ensemble takes only member-scoped keys (``rf.n_trees=40``) and
    gets {member: {key: value}}. A single model takes flat keys, or keys
    scoped to its own kind, and gets {key: value}.
    """
    members = ENSEMBLE_MEMBERS.get(model_kind)
    out: dict = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        scope, dot, name = key.rpartition(".")
        if not sep or not name or (dot and not scope):
            raise ConfigError(f"--hp expects [member.]key=value, got {pair!r}")
        if members is not None and scope not in members:
            raise ConfigError(
                f"--hp {pair!r}: {model_kind} trains {', '.join(members)}; scope the key "
                f"to one of them, e.g. --hp {members[0]}.{name}={value}"
            )
        if members is None and scope and scope != model_kind:
            raise ConfigError(f"--hp {pair!r}: scope {scope!r} does not match model {model_kind}")
        for cast in (int, float):
            try:
                parsed = cast(value)
                break
            except ValueError:
                continue
        else:
            parsed = value
        (out.setdefault(scope, {}) if members is not None else out)[name] = parsed
    return out


def _add_frame_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--frame-length", type=int, default=DEFAULT_FRAME_LENGTH)
    parser.add_argument("--hop-length", type=int, default=DEFAULT_HOP_LENGTH)
    parser.add_argument("--l-harm", type=int, default=DEFAULT_HARMONIC_WINDOW)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emoforge",
        description="Multimodal speech emotion recognition toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-corpus", help="generate the synthetic benchmark corpus")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--sample-rate", type=int, default=16000)
    p.add_argument("--duration", type=float, default=0.6)

    p = sub.add_parser("extract-features", help="dump feature vectors to CSV")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--setting", required=True, choices=("audio_only", "text_only", "audio_text"))
    p.add_argument("--classes", type=int, choices=(6, 4), default=6)
    _add_frame_args(p)

    p = sub.add_parser("train", help="train a model and write artifacts")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--model", required=True,
                   choices=("rf", "xgb", "svm", "mnb", "lr", "mlp", "lstm", "e1", "e2"))
    p.add_argument("--setting", required=True, choices=("audio_only", "text_only", "audio_text"))
    p.add_argument("--classes", type=int, choices=(6, 4), default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--train-fraction", type=float, default=DEFAULT_TRAIN_FRACTION)
    p.add_argument("--rho", type=float, default=DEFAULT_UPSAMPLE_RHO)
    p.add_argument("--no-upsample", action="store_true")
    p.add_argument("--hp", action="append", metavar="KEY=VALUE",
                   help="hyperparameter override, repeatable")
    _add_frame_args(p)

    p = sub.add_parser("evaluate", help="evaluate a trained model on a manifest")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--report", required=True, type=Path)

    p = sub.add_parser("predict", help="predict one example")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--wav", type=Path)
    p.add_argument("--text")

    p = sub.add_parser("importance", help="rank features of a tree model")
    p.add_argument("--model", required=True, type=Path)

    return parser


def _cmd_synth(args) -> int:
    manifest = generate_corpus(
        args.out,
        seed=args.seed,
        n_per_class=args.per_class,
        sample_rate=args.sample_rate,
        duration=args.duration,
    )
    print(manifest)
    return EXIT_OK


def _cmd_extract(args) -> int:
    class_mode = "six" if args.classes == 6 else "four"
    frame_config = FrameConfig(args.frame_length, args.hop_length)
    entries = load_manifest(args.manifest)
    dataset = build_dataset(entries, class_mode)

    vocab = None
    blocks = []
    if args.setting in ("audio_only", "audio_text"):
        blocks.append(audio_feature_matrix(dataset, frame_config, args.l_harm))
    if args.setting in ("text_only", "audio_text"):
        vocab = fit_vocabulary([normalize_text(ex.transcript or "") for ex in dataset.examples])
        blocks.append(text_feature_matrix(dataset, vocab))
    matrix = blocks[0] if len(blocks) == 1 else fused_matrix(blocks[0], blocks[1], vocab)

    names = feature_names(args.setting, vocab)
    lines = [",".join([*names, "source_id", "label"])]
    for row, ex in zip(matrix, dataset.examples):
        values = [f"{v:.9g}" for v in row]
        lines.append(",".join([*values, ex.source_id, ex.label.value]))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(args.out)
    return EXIT_OK


def _cmd_train(args) -> int:
    config = ExperimentConfig(
        manifest=args.manifest,
        setting=args.setting,
        model_kind=args.model,
        class_mode="six" if args.classes == 6 else "four",
        seed=args.seed,
        out_dir=args.out,
        train_fraction=args.train_fraction,
        upsample_train=not args.no_upsample,
        upsample_rho=args.rho,
        hyperparams=_parse_hp(args.hp, args.model),
        frame_config=FrameConfig(args.frame_length, args.hop_length),
        l_harm=args.l_harm,
    )
    report, artifacts = run_experiment(config)
    print(f"accuracy={report.accuracy:.4f} macro_f1={report.macro_f1:.4f}")
    for name, path in artifacts.items():
        print(f"{name}: {path}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    bundle = load_bundle(args.model)
    entries = load_manifest(args.manifest)
    dataset = build_dataset(entries, bundle.class_mode)

    if bundle.setting == "audio_only" and bundle.input_mode == "frames":
        X = frame_sequences(dataset, bundle.frame_config, bundle.l_harm)
    else:
        blocks = []
        if bundle.setting in ("audio_only", "audio_text"):
            blocks.append(audio_feature_matrix(dataset, bundle.frame_config, bundle.l_harm))
        if bundle.setting in ("text_only", "audio_text"):
            blocks.append(text_feature_matrix(dataset, bundle.vocab))
        X = blocks[0] if len(blocks) == 1 else fused_matrix(blocks[0], blocks[1], bundle.vocab)

    truth = labels_to_indices(dataset)
    predictions = bundle.predict(X)
    report = evaluate(predictions, truth, len(dataset.classes), bundle.class_names)

    payload = {
        "model_kind": bundle.kind,
        "setting": bundle.setting,
        "class_mode": bundle.class_mode,
        "examples": len(dataset),
    }
    payload.update(report.to_dict())
    args.report.parent.mkdir(parents=True, exist_ok=True)
    args.report.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"accuracy={report.accuracy:.4f} macro_f1={report.macro_f1:.4f}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    bundle = load_bundle(args.model)
    clip = decode_wav(args.wav) if args.wav is not None else None
    label, probabilities = predict_example(bundle, clip=clip, text=args.text)
    print(json.dumps({"label": label, "probabilities": probabilities}, indent=2))
    return EXIT_OK


def _cmd_importance(args) -> int:
    bundle = load_bundle(args.model)
    ranked = feature_importance(bundle, feature_names(bundle.setting, bundle.vocab))
    print("rank,feature,importance")
    for rank, (name, value) in enumerate(ranked, 1):
        print(f"{rank},{name},{value:.9g}")
    return EXIT_OK


_COMMANDS = {
    "synth-corpus": _cmd_synth,
    "extract-features": _cmd_extract,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "importance": _cmd_importance,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EmoforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

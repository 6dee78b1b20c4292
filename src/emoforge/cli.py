"""Command-line interface.

Subcommands: synth-corpus, extract-features, train, evaluate, predict,
importance. Exit codes: 0 success, 2 configuration error, 3 data or I/O error
(running out of memory included).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .audio_features import FrameConfig
from .audio_io import decode_wav
from .errors import ConfigError, DataError, EmoforgeError
from .ingest import load_manifest
from .pipeline import (
    MODEL_KINDS,
    SETTINGS,
    ExperimentConfig,
    check_example_inputs,
    features_csv,
    importance_csv,
    load_bundle,
    predict_example,
    read_dataset,
    run_experiment,
    score,
)
from .synth import generate_corpus

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

_CLASS_MODES = {6: "six", 4: "four"}


def _parse_hp(pairs: list[str], model_kind: str) -> dict:
    """Parse repeated --hp [member.]key=value flags; values try int, float,
    then str.

    Keys scoped to the model's own kind, and unscoped keys, form the flat
    {key: value} table a single model reads; any other scope nests as
    {scope: {key: value}}, the table an e1/e2 ensemble reads per member
    (``rf.n_trees=40``). A name set twice in one table is a ConfigError; the
    pipeline rejects every key the model would not apply before any WAV is read.
    """
    nested, flat = {}, {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        scope, dot, name = key.rpartition(".")
        if not sep or not name or (dot and not scope):
            raise ConfigError(f"--hp expects [member.]key=value, got {pair!r}")
        for cast in (int, float):
            try:
                parsed = cast(value)
                break
            except ValueError:
                continue
        else:
            parsed = value
        table = nested.setdefault(scope, {}) if scope not in ("", model_kind) else flat
        if name in table:
            raise ConfigError(f"--hp sets {name!r} twice, again in {pair!r}")
        table[name] = parsed
    return {**nested, **flat}  # a flat key named like a member is no table: rejected


def _add_frame_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--frame-length", type=int, default=FrameConfig.frame_length)
    parser.add_argument("--hop-length", type=int, default=FrameConfig.hop_length)
    parser.add_argument("--l-harm", type=int, default=ExperimentConfig.l_harm)


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
    p.add_argument("--setting", required=True, choices=SETTINGS)
    p.add_argument("--classes", type=int, choices=tuple(_CLASS_MODES), default=6)
    _add_frame_args(p)

    p = sub.add_parser("train", help="train a model and write artifacts")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--setting", required=True, choices=SETTINGS)
    p.add_argument("--classes", type=int, choices=tuple(_CLASS_MODES), default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--train-fraction", type=float, default=ExperimentConfig.train_fraction)
    p.add_argument("--rho", type=float, default=ExperimentConfig.upsample_rho)
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
    text = features_csv(args.manifest, args.setting, _CLASS_MODES[args.classes],
                        FrameConfig(args.frame_length, args.hop_length), args.l_harm)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text, encoding="utf-8")
    print(args.out)
    return EXIT_OK


def _cmd_train(args) -> int:
    config = ExperimentConfig(
        manifest=args.manifest,
        setting=args.setting,
        model_kind=args.model,
        class_mode=_CLASS_MODES[args.classes],
        seed=args.seed,
        out_dir=args.out,
        train_fraction=args.train_fraction,
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
    dataset = read_dataset(load_manifest(args.manifest), bundle.class_mode)
    report = score(bundle, bundle.features(dataset), dataset)
    payload = {
        "model_kind": bundle.kind,
        "setting": bundle.setting,
        "class_mode": bundle.class_mode,
        "examples": len(dataset),
        **report.to_dict(),
    }
    args.report.parent.mkdir(parents=True, exist_ok=True)
    args.report.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"accuracy={report.accuracy:.4f} macro_f1={report.macro_f1:.4f}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    bundle = load_bundle(args.model)
    check_example_inputs(bundle.setting, {"--wav": args.wav, "--text": args.text})
    clip = decode_wav(args.wav) if args.wav is not None else None
    label, probabilities = predict_example(bundle, clip=clip, text=args.text)
    print(json.dumps({"label": label, "probabilities": probabilities}, indent=2))
    return EXIT_OK


def _cmd_importance(args) -> int:
    print(importance_csv(load_bundle(args.model)), end="")
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
    except (EmoforgeError, OSError) as exc:  # a DataError or OSError exits 3, any other 2
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA if isinstance(exc, (DataError, OSError)) else EXIT_CONFIG
    except MemoryError as exc:  # a backstop: the design caps reject known oversized requests
        print(f"error: out of memory{f' ({exc})' if str(exc) else ''}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

"""Experiment orchestration: feature assembly, fusion, training, evaluation,
model bundles, and artifact writing.

A run is fully determined by (manifest, config, seed): stage sub-seeds are
derived with fixed offsets, artifacts are written with canonical formatting,
and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .audio_features import (
    AUDIO_FEATURE_NAMES,
    FrameConfig,
    extract_audio_features,
    extract_frame_sequence,
)
from .audio_io import AudioClip
from .config import (
    DEFAULT_HARMONIC_WINDOW,
    DEFAULT_TRAIN_FRACTION,
    DEFAULT_UPSAMPLE_RHO,
    ENSEMBLE_MEMBERS,
    SEED_OFFSET_MODEL,
    SEED_OFFSET_SPLIT,
    SEED_OFFSET_UPSAMPLE,
    model_defaults,
)
from .errors import ConfigError, ModelError, ParameterError, UnsupportedModelError
from .ingest import (
    Dataset,
    build_dataset,
    classes_for_mode,
    load_manifest,
    split,
    split_by_hint,
    upsample,
)
from .lstm import LstmClassifier
from .metrics import EvalReport, evaluate
from .models import (
    GradientBoosting,
    LinearSVM,
    LogisticRegression,
    MlpClassifier,
    MultinomialNaiveBayes,
    RandomForest,
)
from .persistence import load_container, save_container
from .text_features import (
    Vocabulary,
    fit_vocabulary,
    normalize_text,
    save_vocabulary,
    tfidf_matrix,
    tfidf_transform,
)

SETTINGS = ("audio_only", "text_only", "audio_text")

_MODEL_CLASSES = {
    "rf": RandomForest,
    "xgb": GradientBoosting,
    "svm": LinearSVM,
    "mnb": MultinomialNaiveBayes,
    "lr": LogisticRegression,
    "mlp": MlpClassifier,
    "lstm": LstmClassifier,
}

_SEEDLESS_KINDS = {"mnb"}
_TREE_KINDS = {"rf", "xgb"}
_STANDARDIZED_KINDS = {"svm", "lr", "mlp"}


def thread_count(requested: int | None = None) -> int:
    """Worker count for data-parallel stages; EMOFORGE_THREADS caps it."""
    count = requested if requested is not None else min(4, os.cpu_count() or 1)
    cap = os.environ.get("EMOFORGE_THREADS")
    if cap:
        try:
            count = min(count, max(1, int(cap)))
        except ValueError as exc:
            raise ConfigError(f"EMOFORGE_THREADS must be an integer, got {cap!r}") from exc
    return max(1, count)


def _parallel_map(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def fuse(audio_vec: np.ndarray, text_vec: np.ndarray) -> np.ndarray:
    """Early fusion: concatenate with the audio block first."""
    a = np.asarray(audio_vec, dtype=np.float64)
    t = np.asarray(text_vec, dtype=np.float64)
    if a.ndim != 1 or t.ndim != 1:
        raise ParameterError("fuse expects two 1-D vectors")
    return np.concatenate([a, t])


class ColumnScaler:
    """Feature scaling over the leading ``block`` columns.

    kind "standard" maps to zero mean and unit variance, "minmax" to [0, 1];
    columns past the block (the TFIDF part of a fused vector) pass through.
    Constant columns map to zero.
    """

    def __init__(self, kind: str, block: int):
        if kind not in ("standard", "minmax"):
            raise ParameterError(f"unknown scaler kind {kind!r}")
        self.kind = kind
        self.block = int(block)
        self.center_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "ColumnScaler":
        block = X[:, : self.block]
        if self.kind == "standard":
            self.center_ = block.mean(axis=0)
            scale = block.std(axis=0)
        else:
            self.center_ = block.min(axis=0)
            scale = block.max(axis=0) - self.center_
        self.scale_ = np.where(scale > 0, scale, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.center_ is None:
            raise ParameterError("scaler is not fitted")
        out = np.array(X, dtype=np.float64, copy=True)
        out[:, : self.block] = (out[:, : self.block] - self.center_) / self.scale_
        if self.kind == "minmax":
            # unseen data can fall outside the train range; the consumers of
            # this scaling (event-count models) need the bounds to hold
            out[:, : self.block] = np.clip(out[:, : self.block], 0.0, 1.0)
        return out

    def fit_sequences(self, sequences: list[np.ndarray]) -> "ColumnScaler":
        return self.fit(np.vstack(sequences))

    def transform_sequences(self, sequences: list[np.ndarray]) -> list[np.ndarray]:
        return [self.transform(s) for s in sequences]

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {"kind": self.kind, "block": self.block}, {
            "center": self.center_,
            "scale": self.scale_,
        }

    @classmethod
    def from_state(cls, meta, arrays) -> "ColumnScaler":
        scaler = cls(meta["kind"], meta["block"])
        scaler.center_ = arrays["center"]
        scaler.scale_ = arrays["scale"]
        return scaler


@dataclass
class _Member:
    kind: str
    classifier: object
    scaler: Optional[ColumnScaler] = None

    def predict_proba(self, X):
        if self.scaler is not None:
            if isinstance(X, list):
                X = self.scaler.transform_sequences(X)
            else:
                X = self.scaler.transform(X)
        return self.classifier.predict_proba(X)


@dataclass
class ModelBundle:
    """A trained model plus everything needed to reuse it: preprocessing
    stats, vocabulary, framing, and provenance."""

    kind: str
    setting: str
    class_mode: str
    seed: int
    feature_dim: int
    members: list[_Member]
    combination: str  # "single" or "soft_vote"
    hyperparams: dict
    vocab: Optional[Vocabulary] = None
    frame_config: FrameConfig = field(default_factory=FrameConfig)
    l_harm: int = DEFAULT_HARMONIC_WINDOW
    input_mode: str = "vector"  # "vector" or "frames" (lstm only)

    @property
    def class_names(self) -> list[str]:
        return [label.value for label in classes_for_mode(self.class_mode)]

    def _check_dim(self, X) -> None:
        width = X[0].shape[-1] if isinstance(X, list) else np.asarray(X).shape[-1]
        if width != self.feature_dim:
            raise ModelError(
                f"feature dim mismatch: model expects {self.feature_dim}, got {width}"
            )

    def predict_proba(self, X) -> np.ndarray:
        self._check_dim(X)
        if self.combination == "single":
            return self.members[0].predict_proba(X)
        total = None
        for member in self.members:
            proba = member.predict_proba(X)
            total = proba.copy() if total is None else total + proba
        return total / len(self.members)

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


def make_classifier(kind: str, hyperparams: dict, seed: int, n_classes: int):
    if kind not in _MODEL_CLASSES:
        raise ConfigError(f"unknown model kind {kind!r}")
    params = model_defaults(kind)
    unknown = set(hyperparams) - set(params)
    if unknown:
        raise ConfigError(f"unknown hyperparameters for {kind}: {sorted(unknown)}")
    params.update(hyperparams)
    params.pop("input_mode", None)  # consumed by the pipeline, not the model
    if kind not in _SEEDLESS_KINDS:
        params["seed"] = seed
    if kind == "mlp":
        sizes = params["hidden_sizes"]
        if isinstance(sizes, int):
            sizes = (sizes,)
        elif isinstance(sizes, str):
            sizes = tuple(int(s) for s in sizes.split(",") if s)
        params["hidden_sizes"] = tuple(sizes)
    return _MODEL_CLASSES[kind](n_classes=n_classes, **params)


def _scaler_for(kind: str, feature_dim: int, audio_block: int, sequences: bool) -> Optional[ColumnScaler]:
    if kind == "lstm":
        return ColumnScaler("standard", feature_dim)
    if kind in _STANDARDIZED_KINDS and audio_block > 0:
        return ColumnScaler("standard", audio_block)
    if kind == "mnb" and audio_block > 0:
        return ColumnScaler("minmax", audio_block)
    return None


def _fit_member(kind, X, y, hyperparams, seed, n_classes, audio_block) -> _Member:
    sequences = isinstance(X, list)
    feature_dim = X[0].shape[-1] if sequences else X.shape[1]
    scaler = _scaler_for(kind, feature_dim, audio_block, sequences)
    if scaler is not None:
        if sequences:
            scaler.fit_sequences(X)
            X = scaler.transform_sequences(X)
        else:
            scaler.fit(X)
            X = scaler.transform(X)
    clf = make_classifier(kind, hyperparams, seed, n_classes)
    clf.fit(X, y)
    return _Member(kind=kind, classifier=clf, scaler=scaler)


def train_bundle(
    kind: str,
    X,
    y: np.ndarray,
    setting: str,
    class_mode: str,
    seed: int,
    hyperparams: dict | None = None,
    vocab: Optional[Vocabulary] = None,
    frame_config: FrameConfig | None = None,
    l_harm: int = DEFAULT_HARMONIC_WINDOW,
    audio_block: int | None = None,
    input_mode: str = "vector",
) -> ModelBundle:
    """Fit one model kind (or an e1/e2 ensemble) into a reusable bundle."""
    hyperparams = dict(hyperparams or {})
    frame_config = frame_config or FrameConfig()
    if setting not in SETTINGS:
        raise ConfigError(f"unknown setting {setting!r}")
    if audio_block is None:
        audio_block = 0 if setting == "text_only" else len(AUDIO_FEATURE_NAMES)
    n_classes = len(classes_for_mode(class_mode))
    y = np.asarray(y, dtype=np.int64)

    if kind in ENSEMBLE_MEMBERS:
        member_kinds = ENSEMBLE_MEMBERS[kind]
        flat = sorted(set(hyperparams) - set(_MODEL_CLASSES))
        if flat:
            raise ConfigError(
                f"{kind} hyperparameters are keyed by member kind {member_kinds}, got {flat}"
            )
        members = []
        for i, member_kind in enumerate(member_kinds):
            member_hp = dict(hyperparams.get(member_kind, {}))
            members.append(
                _fit_member(
                    member_kind, X, y, member_hp,
                    seed + SEED_OFFSET_MODEL + i, n_classes, audio_block,
                )
            )
        combination = "soft_vote"
    elif kind in _MODEL_CLASSES:
        members = [
            _fit_member(kind, X, y, hyperparams, seed + SEED_OFFSET_MODEL, n_classes, audio_block)
        ]
        combination = "single"
    else:
        raise ConfigError(f"unknown model kind {kind!r}")

    feature_dim = X[0].shape[-1] if isinstance(X, list) else X.shape[1]
    return ModelBundle(
        kind=kind,
        setting=setting,
        class_mode=class_mode,
        seed=seed,
        feature_dim=feature_dim,
        members=members,
        combination=combination,
        hyperparams=hyperparams,
        vocab=vocab,
        frame_config=frame_config,
        l_harm=l_harm,
        input_mode=input_mode,
    )


# --- bundle persistence -----------------------------------------------------


def save_bundle(path: str | Path, bundle: ModelBundle) -> None:
    member_meta = []
    arrays: dict[str, np.ndarray] = {}
    for i, member in enumerate(bundle.members):
        meta, member_arrays = member.classifier.state()
        for name, arr in member_arrays.items():
            arrays[f"m{i}/{name}"] = arr
        scaler_meta = None
        if member.scaler is not None:
            scaler_meta, scaler_arrays = member.scaler.state()
            for name, arr in scaler_arrays.items():
                arrays[f"m{i}/scaler/{name}"] = arr
        member_meta.append({"kind": member.kind, "meta": meta, "scaler": scaler_meta})

    vocab_meta = None
    if bundle.vocab is not None:
        vocab_meta = {
            "terms": list(bundle.vocab.terms),
            "dfs": list(bundle.vocab.document_frequencies),
            "n_documents": bundle.vocab.n_documents,
        }
    header = {
        "model_kind": bundle.kind,
        "setting": bundle.setting,
        "class_mode": bundle.class_mode,
        "seed": bundle.seed,
        "feature_dim": bundle.feature_dim,
        "hyperparameters": bundle.hyperparams,
        "combination": bundle.combination,
        "members": member_meta,
        "vocab": vocab_meta,
        "frame_length": bundle.frame_config.frame_length,
        "hop_length": bundle.frame_config.hop_length,
        "l_harm": bundle.l_harm,
        "input_mode": bundle.input_mode,
        "class_names": bundle.class_names,
    }
    save_container(path, header, arrays)


def load_bundle(path: str | Path) -> ModelBundle:
    header, arrays = load_container(path)
    members = []
    for i, mm in enumerate(header["members"]):
        prefix = f"m{i}/"
        model_arrays = {
            name[len(prefix):]: arr
            for name, arr in arrays.items()
            if name.startswith(prefix) and not name.startswith(f"{prefix}scaler/")
        }
        cls = _MODEL_CLASSES[mm["kind"]]
        clf = cls.from_state(mm["meta"], model_arrays)
        scaler = None
        if mm["scaler"] is not None:
            scaler_arrays = {
                name[len(f"{prefix}scaler/"):]: arr
                for name, arr in arrays.items()
                if name.startswith(f"{prefix}scaler/")
            }
            scaler = ColumnScaler.from_state(mm["scaler"], scaler_arrays)
        members.append(_Member(kind=mm["kind"], classifier=clf, scaler=scaler))

    vocab = None
    if header["vocab"] is not None:
        vocab = Vocabulary(
            terms=tuple(header["vocab"]["terms"]),
            document_frequencies=tuple(header["vocab"]["dfs"]),
            n_documents=header["vocab"]["n_documents"],
        )
    return ModelBundle(
        kind=header["model_kind"],
        setting=header["setting"],
        class_mode=header["class_mode"],
        seed=header["seed"],
        feature_dim=header["feature_dim"],
        members=members,
        combination=header["combination"],
        hyperparams=header["hyperparameters"],
        vocab=vocab,
        frame_config=FrameConfig(header["frame_length"], header["hop_length"]),
        l_harm=header["l_harm"],
        input_mode=header["input_mode"],
    )


# --- feature assembly --------------------------------------------------------


def _unique_clips(dataset: Dataset) -> list[AudioClip]:
    """Distinct clip objects in first-appearance order; upsampling duplicates
    examples by reference, so identity dedups exactly those."""
    seen: set[int] = set()
    unique: list[AudioClip] = []
    for ex in dataset.examples:
        if ex.audio is None:
            raise ParameterError(f"example {ex.source_id!r} carries no audio")
        if id(ex.audio) not in seen:
            seen.add(id(ex.audio))
            unique.append(ex.audio)
    return unique


def audio_feature_matrix(
    dataset: Dataset,
    frame_config: FrameConfig,
    l_harm: int = DEFAULT_HARMONIC_WINDOW,
    threads: int | None = None,
) -> np.ndarray:
    """Eight-feature rows for every example, computed once per distinct clip."""
    unique = _unique_clips(dataset)

    def job(clip: AudioClip) -> np.ndarray:
        return extract_audio_features(clip, frame_config, l_harm).to_array()

    rows = _parallel_map(job, unique, thread_count(threads))
    cache = {id(clip): row for clip, row in zip(unique, rows)}
    return np.vstack([cache[id(ex.audio)] for ex in dataset.examples])


def frame_sequences(
    dataset: Dataset,
    frame_config: FrameConfig,
    l_harm: int = DEFAULT_HARMONIC_WINDOW,
    threads: int | None = None,
) -> list[np.ndarray]:
    unique = _unique_clips(dataset)

    def job(clip: AudioClip) -> np.ndarray:
        return extract_frame_sequence(clip, frame_config, l_harm).vectors

    rows = _parallel_map(job, unique, thread_count(threads))
    cache = {id(clip): row for clip, row in zip(unique, rows)}
    return [cache[id(ex.audio)] for ex in dataset.examples]


def text_feature_matrix(dataset: Dataset, vocab: Vocabulary) -> np.ndarray:
    docs = [normalize_text(ex.transcript or "") for ex in dataset.examples]
    return tfidf_matrix(docs, vocab)


def fused_matrix(audio: np.ndarray, text: np.ndarray, vocab: Vocabulary) -> np.ndarray:
    if text.shape[1] != len(vocab):
        raise ModelError(
            f"text block width {text.shape[1]} does not match vocabulary size {len(vocab)}"
        )
    if audio.shape[0] != text.shape[0]:
        raise ParameterError("audio and text blocks must pair row-for-row")
    return np.hstack([audio, text])


def feature_names(setting: str, vocab: Optional[Vocabulary]) -> list[str]:
    names: list[str] = []
    if setting in ("audio_only", "audio_text"):
        names.extend(AUDIO_FEATURE_NAMES)
    if setting in ("text_only", "audio_text"):
        if vocab is None:
            raise ParameterError(f"setting {setting!r} requires a vocabulary")
        names.extend(f"tfidf:{t}" for t in vocab.terms)
    return names


def labels_to_indices(dataset: Dataset) -> np.ndarray:
    index = {label: i for i, label in enumerate(dataset.classes)}
    return np.asarray([index[ex.label] for ex in dataset.examples], dtype=np.int64)


# --- feature importance -------------------------------------------------------


def feature_importance(model, names: list[str]) -> list[tuple[str, float]]:
    """Normalized impurity-decrease importances, descending, ties by index.

    Accepts a tree-backed classifier, a single-member bundle around one, or
    raises UnsupportedModelError otherwise.
    """
    if isinstance(model, ModelBundle):
        if model.combination != "single":
            raise UnsupportedModelError("feature importance is per-model, not per-ensemble")
        model = model.members[0].classifier
    raw = getattr(model, "feature_importances_", None)
    if raw is None:
        raise UnsupportedModelError(
            f"{type(model).__name__} does not expose split-based importances"
        )
    raw = np.asarray(raw, dtype=np.float64)
    if len(names) != raw.size:
        raise ParameterError("feature name list does not match importance vector")
    total = raw.sum()
    normalized = raw / total if total > 0 else raw
    order = sorted(range(raw.size), key=lambda i: (-normalized[i], i))
    return [(names[i], float(normalized[i])) for i in order]


# --- experiment runner --------------------------------------------------------


@dataclass
class ExperimentConfig:
    manifest: Path
    setting: str = "audio_only"
    model_kind: str = "e1"
    class_mode: str = "six"
    seed: int = 0
    out_dir: Optional[Path] = None
    train_fraction: float = DEFAULT_TRAIN_FRACTION
    upsample_train: bool = True
    upsample_rho: float = DEFAULT_UPSAMPLE_RHO
    hyperparams: dict = field(default_factory=dict)
    frame_config: FrameConfig = field(default_factory=FrameConfig)
    l_harm: int = DEFAULT_HARMONIC_WINDOW
    threads: Optional[int] = None

    def __post_init__(self):
        self.manifest = Path(self.manifest)
        if self.out_dir is not None:
            self.out_dir = Path(self.out_dir)
        if self.setting not in SETTINGS:
            raise ConfigError(f"setting must be one of {SETTINGS}, got {self.setting!r}")
        if self.model_kind not in set(_MODEL_CLASSES) | set(ENSEMBLE_MEMBERS):
            raise ConfigError(f"unknown model kind {self.model_kind!r}")
        classes_for_mode(self.class_mode)
        if self.model_kind == "lstm":
            mode = self.hyperparams.get("input_mode", model_defaults("lstm")["input_mode"])
            if mode == "frames" and self.setting != "audio_only":
                raise ConfigError("frame-sequence input requires the audio_only setting")


def _assemble_features(config: ExperimentConfig, train: Dataset, test: Dataset):
    """Build (train_X, test_X, vocab, input_mode) for the configured setting."""
    input_mode = "vector"
    vocab = None
    if config.model_kind == "lstm":
        input_mode = config.hyperparams.get("input_mode", model_defaults("lstm")["input_mode"])

    if config.setting == "audio_only" and input_mode == "frames":
        return (
            frame_sequences(train, config.frame_config, config.l_harm, config.threads),
            frame_sequences(test, config.frame_config, config.l_harm, config.threads),
            None,
            input_mode,
        )

    if config.setting in ("audio_only", "audio_text"):
        train_audio = audio_feature_matrix(train, config.frame_config, config.l_harm, config.threads)
        test_audio = audio_feature_matrix(test, config.frame_config, config.l_harm, config.threads)
    if config.setting in ("text_only", "audio_text"):
        vocab = fit_vocabulary([normalize_text(ex.transcript or "") for ex in train.examples])
        train_text = text_feature_matrix(train, vocab)
        test_text = text_feature_matrix(test, vocab)

    if config.setting == "audio_only":
        return train_audio, test_audio, None, input_mode
    if config.setting == "text_only":
        return train_text, test_text, vocab, input_mode
    return (
        fused_matrix(train_audio, train_text, vocab),
        fused_matrix(test_audio, test_text, vocab),
        vocab,
        input_mode,
    )


def run_experiment(config: ExperimentConfig) -> tuple[EvalReport, dict[str, Path]]:
    entries = load_manifest(config.manifest)
    if entries and all(e.split_hint is not None for e in entries):
        train_entries, test_entries = split_by_hint(entries)
        train_ds = build_dataset(train_entries, config.class_mode, config.seed)
        test_ds = build_dataset(test_entries, config.class_mode, config.seed)
    else:
        dataset = build_dataset(entries, config.class_mode, config.seed)
        train_ds, test_ds = split(
            dataset, config.train_fraction, config.seed + SEED_OFFSET_SPLIT
        )
    if config.upsample_train:
        train_ds = upsample(
            train_ds, config.seed + SEED_OFFSET_UPSAMPLE, config.upsample_rho
        )

    train_X, test_X, vocab, input_mode = _assemble_features(config, train_ds, test_ds)
    train_y = labels_to_indices(train_ds)
    test_y = labels_to_indices(test_ds)

    bundle = train_bundle(
        config.model_kind,
        train_X,
        train_y,
        setting=config.setting,
        class_mode=config.class_mode,
        seed=config.seed,
        hyperparams=config.hyperparams,
        vocab=vocab,
        frame_config=config.frame_config,
        l_harm=config.l_harm,
        input_mode=input_mode,
    )

    predictions = bundle.predict(test_X)
    report = evaluate(
        predictions, test_y, len(train_ds.classes), class_names=bundle.class_names
    )

    artifacts: dict[str, Path] = {}
    if config.out_dir is not None:
        artifacts = write_artifacts(config, bundle, report, len(train_ds), len(test_ds))
    return report, artifacts


def report_payload(
    config: ExperimentConfig, report: EvalReport, train_size: int, test_size: int,
    feature_dim: int,
) -> dict:
    payload = {
        "model_kind": config.model_kind,
        "setting": config.setting,
        "class_mode": config.class_mode,
        "seed": config.seed,
        "train_fraction": config.train_fraction,
        "upsample_train": config.upsample_train,
        "upsample_rho": config.upsample_rho,
        "train_size": train_size,
        "test_size": test_size,
        "feature_dim": feature_dim,
    }
    payload.update(report.to_dict())
    return payload


def write_artifacts(
    config: ExperimentConfig,
    bundle: ModelBundle,
    report: EvalReport,
    train_size: int,
    test_size: int,
) -> dict[str, Path]:
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}

    model_path = out / "model.emf"
    save_bundle(model_path, bundle)
    artifacts["model"] = model_path

    report_path = out / "report.json"
    payload = report_payload(config, report, train_size, test_size, bundle.feature_dim)
    report_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    artifacts["report"] = report_path

    cm_path = out / "confusion_matrix.csv"
    lines = ["true\\pred," + ",".join(report.class_names)]
    for name, row in zip(report.class_names, report.confusion):
        lines.append(name + "," + ",".join(str(int(v)) for v in row))
    cm_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    artifacts["confusion_matrix"] = cm_path

    if bundle.kind in _TREE_KINDS:
        ranked = feature_importance(bundle, feature_names(bundle.setting, bundle.vocab))
        imp_path = out / "importances.csv"
        imp_lines = ["rank,feature,importance"]
        imp_lines.extend(
            f"{rank},{name},{value:.9g}" for rank, (name, value) in enumerate(ranked, 1)
        )
        imp_path.write_text("\n".join(imp_lines) + "\n", encoding="utf-8")
        artifacts["importances"] = imp_path

    if bundle.vocab is not None:
        vocab_path = out / "vocabulary.tsv"
        save_vocabulary(bundle.vocab, vocab_path)
        artifacts["vocabulary"] = vocab_path

    return artifacts


# --- single-example prediction -------------------------------------------------


def predict_example(
    bundle: ModelBundle,
    clip: Optional[AudioClip] = None,
    text: Optional[str] = None,
) -> tuple[str, dict[str, float]]:
    """Predict one example from raw inputs using the bundle's own protocol."""
    needs_audio = bundle.setting in ("audio_only", "audio_text")
    needs_text = bundle.setting in ("text_only", "audio_text")
    if needs_audio and clip is None:
        raise ConfigError(f"setting {bundle.setting!r} requires audio input")
    if needs_text and text is None:
        raise ConfigError(f"setting {bundle.setting!r} requires text input")

    if bundle.setting == "audio_only" and bundle.input_mode == "frames":
        X = [extract_frame_sequence(clip, bundle.frame_config, bundle.l_harm).vectors]
    else:
        parts = []
        if needs_audio:
            parts.append(
                extract_audio_features(clip, bundle.frame_config, bundle.l_harm).to_array()
            )
        if needs_text:
            parts.append(tfidf_transform(normalize_text(text), bundle.vocab))
        X = np.concatenate(parts)[np.newaxis, :]

    proba = bundle.predict_proba(X)[0]
    names = bundle.class_names
    predicted = names[int(np.argmax(proba))]
    return predicted, {name: float(p) for name, p in zip(names, proba)}

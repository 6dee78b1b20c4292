"""Experiment orchestration: feature assembly, fusion, training, evaluation,
model bundles, and artifact writing.

A run is fully determined by (manifest, config, seed): stage sub-seeds are
derived with fixed offsets, artifacts are written with canonical formatting,
and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from numbers import Integral, Real
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
    MODEL_DEFAULTS,
    MODEL_KINDS,
    SEED_OFFSET_MODEL,
    SEED_OFFSET_SPLIT,
    SEED_OFFSET_UPSAMPLE,
)
from .errors import ConfigError, DataError, ModelError, ParameterError, UnsupportedModelError
from .ingest import (
    Dataset,
    Example,
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
    tfidf_transform,  # unused here; kept as a lookup point for the benchmark's tracer
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

    def fit(self, X) -> "ColumnScaler":
        """Fit on a matrix, or on a list of per-frame matrices stacked."""
        block = (np.vstack(X) if isinstance(X, list) else X)[:, : self.block]
        if self.kind == "standard":
            self.center_ = block.mean(axis=0)
            scale = block.std(axis=0)
        else:
            self.center_ = block.min(axis=0)
            scale = block.max(axis=0) - self.center_
        self.scale_ = np.where(scale > 0, scale, 1.0)
        return self

    def transform(self, X):
        if isinstance(X, list):
            return [self.transform(s) for s in X]
        if self.center_ is None:
            raise ParameterError("scaler is not fitted")
        out = np.array(X, dtype=np.float64, copy=True)
        out[:, : self.block] = (out[:, : self.block] - self.center_) / self.scale_
        if self.kind == "minmax":
            # unseen data can fall outside the train range; the consumers of
            # this scaling (event-count models) need the bounds to hold
            out[:, : self.block] = np.clip(out[:, : self.block], 0.0, 1.0)
        return out

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

    def fit(self, X, y) -> None:
        if self.scaler is not None:
            X = self.scaler.fit(X).transform(X)
        self.classifier.fit(X, y)

    def predict_proba(self, X):
        if self.scaler is not None:
            X = self.scaler.transform(X)
        return self.classifier.predict_proba(X)


@dataclass
class ModelBundle:
    """A trained model plus everything needed to reuse it: preprocessing
    stats, vocabulary, framing, and provenance. A single model is a
    one-member vote."""

    kind: str
    setting: str
    class_mode: str
    seed: int
    feature_dim: int
    members: list[_Member]
    hyperparams: dict
    vocab: Optional[Vocabulary] = None
    frame_config: FrameConfig = field(default_factory=FrameConfig)
    l_harm: int = DEFAULT_HARMONIC_WINDOW
    input_mode: str = "vector"  # "vector", or for lstm "frames" or "clip"

    @property
    def combination(self) -> str:
        return "soft_vote" if self.kind in ENSEMBLE_MEMBERS else "single"

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
        """Mean of the members' probabilities (exact for one member)."""
        self._check_dim(X)
        return sum(member.predict_proba(X) for member in self.members) / len(self.members)

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


def _hp_type_ok(value, default) -> bool:
    """Whether an override fits its default's type: int for int, int or
    float for float, str for str; hidden sizes also take comma-separated
    ints or a sequence of ints."""
    if isinstance(default, tuple):
        return isinstance(value, Integral) or (
            isinstance(value, str) and re.fullmatch(r"\d+(,\d+)*", value) is not None
        ) or (isinstance(value, (tuple, list)) and all(isinstance(v, Integral) for v in value))
    return isinstance(value, {int: Integral, float: Real, str: str}[type(default)])


def make_classifier(kind: str, hyperparams: dict, seed: int, n_classes: int):
    if kind not in _MODEL_CLASSES:
        raise ConfigError(f"unknown model kind {kind!r}")
    params = dict(MODEL_DEFAULTS[kind])
    unknown = set(hyperparams) - set(params)
    if unknown:
        raise ConfigError(f"unknown hyperparameters for {kind}: {sorted(unknown)}")
    for key, value in hyperparams.items():
        if not _hp_type_ok(value, params[key]):
            raise ConfigError(
                f"{kind} hyperparameter {key}={value!r} does not fit the type of its "
                f"default {params[key]!r}"
            )
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


def _scaler_for(kind: str, feature_dim: int, audio_block: int) -> Optional[ColumnScaler]:
    if kind == "lstm":
        return ColumnScaler("standard", feature_dim)
    if kind in _STANDARDIZED_KINDS and audio_block > 0:
        return ColumnScaler("standard", audio_block)
    if kind == "mnb" and audio_block > 0:
        return ColumnScaler("minmax", audio_block)
    return None


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
) -> ModelBundle:
    """Fit the members of ``kind`` (a single kind is its own one member) into
    a reusable bundle; member i is seeded ``seed + SEED_OFFSET_MODEL + i``.
    A single kind takes flat hyperparameters, an ensemble a table keyed by
    member kind. The bundle's input_mode records what ``X`` is."""
    hyperparams = dict(hyperparams or {})
    frame_config = frame_config or FrameConfig()
    if setting not in SETTINGS:
        raise ConfigError(f"unknown setting {setting!r}")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    if audio_block is None:
        audio_block = 0 if setting == "text_only" else len(AUDIO_FEATURE_NAMES)
    n_classes = len(classes_for_mode(class_mode))
    y = np.asarray(y, dtype=np.int64)

    member_kinds = ENSEMBLE_MEMBERS.get(kind, (kind,))
    table = hyperparams if kind in ENSEMBLE_MEMBERS else {kind: hyperparams}
    flat = sorted(set(table) - set(_MODEL_CLASSES))
    if flat:
        raise ConfigError(
            f"{kind} hyperparameters are keyed by member kind {member_kinds}, got {flat}"
        )
    feature_dim = X[0].shape[-1] if isinstance(X, list) else X.shape[1]
    members = []  # all configured, and their overrides checked, before any fit
    for i, member_kind in enumerate(member_kinds):
        member_hp = table.get(member_kind, {})
        clf = make_classifier(member_kind, member_hp, seed + SEED_OFFSET_MODEL + i, n_classes)
        scaler = _scaler_for(member_kind, feature_dim, audio_block)
        members.append(_Member(member_kind, clf, scaler))
    for member in members:
        member.fit(X, y)

    if isinstance(X, list):
        input_mode = "frames"
    else:
        input_mode = "clip" if kind == "lstm" else "vector"
    return ModelBundle(
        kind=kind,
        setting=setting,
        class_mode=class_mode,
        seed=seed,
        feature_dim=feature_dim,
        members=members,
        hyperparams=hyperparams,
        vocab=vocab,
        frame_config=frame_config,
        l_harm=l_harm,
        input_mode=input_mode,
    )


def _requested_input_mode(kind: str, hyperparams: dict) -> str:
    """The input a run of ``kind`` trains on: the lstm's ``input_mode``
    hyperparameter, else "vector"."""
    default = MODEL_DEFAULTS["lstm"]["input_mode"]
    return hyperparams.get("input_mode", default) if kind == "lstm" else "vector"


def _input_mode_problem(kind: str, setting: str, input_mode: str) -> Optional[str]:
    """Why ``input_mode`` does not suit a ``kind`` model in ``setting``, or None."""
    allowed = ("frames", "clip") if kind == "lstm" else ("vector",)
    if input_mode not in allowed:
        return f"{kind} input_mode must be one of {allowed}, got {input_mode!r}"
    if input_mode == "frames" and setting != "audio_only":
        return "frame-sequence input requires the audio_only setting"
    return None


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


_HEADER_KEYS = {
    "model_kind": str, "setting": str, "class_mode": str, "seed": int, "feature_dim": int,
    "hyperparameters": dict, "combination": str, "members": list, "vocab": (dict, type(None)),
    "frame_length": int, "hop_length": int, "l_harm": int, "input_mode": str, "class_names": list,
}
_MEMBER_KEYS = {"kind": str, "meta": dict, "scaler": (dict, type(None))}
_VOCAB_KEYS = {"terms": list, "dfs": list, "n_documents": int}


def _require(path, where: str, obj, keys: dict) -> None:
    """Raise DataError unless ``obj`` is an object holding every key of
    ``keys`` with a value of that key's type."""
    if not isinstance(obj, dict):
        raise DataError(f"{path}: {where} is not an object")
    for key, expected in keys.items():
        if key not in obj or not isinstance(obj[key], expected):
            raise DataError(f"{path}: {where} key {key!r} is missing or mistyped")


def _under(arrays: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    """The arrays named ``prefix...``, keyed by the rest of their name."""
    return {name[len(prefix):]: arr for name, arr in arrays.items() if name.startswith(prefix)}


def load_bundle(path: str | Path) -> ModelBundle:
    """Rebuild a bundle from a container; a malformed or self-contradicting
    header raises DataError and an unknown model or member kind ModelError.

    Every member must have the bundle's class count. Each member that is not
    a tree model must also map a batch of ``feature_dim`` columns to one
    probability per class, checked on zero rows (one for the lstm, which
    takes no empty batch); tree arrays are checked as they are unpacked.
    """
    header, arrays = load_container(path)
    _require(path, "header", header, _HEADER_KEYS)
    kind, setting, feature_dim = header["model_kind"], header["setting"], header["feature_dim"]
    if kind not in MODEL_KINDS:
        raise ModelError(f"{path}: header names unknown model kind {kind!r}")
    if not header["members"]:
        raise DataError(f"{path}: header lists no members")
    if setting not in SETTINGS:
        raise DataError(f"{path}: header names unknown setting {setting!r}")
    try:
        class_names = [label.value for label in classes_for_mode(header["class_mode"])]
        vocab = None
        if header["vocab"] is not None:
            _require(path, "vocab", header["vocab"], _VOCAB_KEYS)
            terms, dfs = header["vocab"]["terms"], header["vocab"]["dfs"]
            if not all(type(t) is str for t in terms) or not all(type(d) is int for d in dfs):
                raise DataError(f"{path}: vocab terms must be strings and dfs integers")
            vocab = Vocabulary(tuple(terms), tuple(dfs), header["vocab"]["n_documents"])
    except ParameterError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if header["class_names"] != class_names:
        raise DataError(f"{path}: class names do not match class mode {header['class_mode']!r}")
    if (vocab is None) != (setting == "audio_only"):
        need = "needs a" if vocab is None else "takes no"
        raise DataError(f"{path}: setting {setting!r} {need} vocabulary")
    if not 0 <= feature_dim <= max((a.size for a in arrays.values()), default=0):
        # every model keeps an array with a cell per input column; this bounds the probe below
        raise DataError(f"{path}: feature_dim {feature_dim} is larger than any array")
    members = []
    for i, mm in enumerate(header["members"]):
        where = f"member {i}"
        _require(path, where, mm, _MEMBER_KEYS)
        cls = _MODEL_CLASSES.get(mm["kind"])
        if cls is None:
            raise ModelError(f"{path}: {where} has unknown model kind {mm['kind']!r}")
        if set(mm["meta"]) != set(cls.state_keys()):
            raise DataError(
                f"{path}: {where} meta keys {sorted(mm['meta'])} are not the {mm['kind']} "
                f"parameters {sorted(cls.state_keys())}"
            )
        n_classes = mm["meta"]["n_classes"]
        if type(n_classes) is not int or n_classes != len(class_names):
            raise DataError(f"{path}: {where} has {n_classes!r} classes, not {len(class_names)}")
        try:
            member = _Member(mm["kind"], cls.from_state(mm["meta"], _under(arrays, f"m{i}/")))
            if mm["scaler"] is not None:
                scaler = ColumnScaler.from_state(mm["scaler"], _under(arrays, f"m{i}/scaler/"))
                member.scaler, block = scaler, scaler.block
                if {scaler.center_.shape, scaler.scale_.shape} != {(block,)} or block > feature_dim:
                    raise ValueError(f"scaler arrays do not fit {block} of {feature_dim} columns")
            if mm["kind"] not in _TREE_KINDS:
                rows = int(mm["kind"] == "lstm")
                if member.predict_proba(np.zeros((rows, feature_dim))).shape != (rows, n_classes):
                    raise ValueError("arrays do not map feature_dim columns to the classes")
        except (KeyError, TypeError, ValueError, ParameterError) as exc:
            raise DataError(f"{path}: {where} state is unusable ({exc!r})") from exc
        members.append(member)
    member_kinds = [m.kind for m in members]
    if member_kinds != list(ENSEMBLE_MEMBERS.get(kind, (kind,))):
        raise DataError(f"{path}: members {member_kinds} are not those of a {kind} model")

    bundle = ModelBundle(
        kind=kind,
        setting=setting,
        class_mode=header["class_mode"],
        seed=header["seed"],
        feature_dim=feature_dim,
        members=members,
        hyperparams=header["hyperparameters"],
        vocab=vocab,
        frame_config=FrameConfig(header["frame_length"], header["hop_length"]),
        l_harm=header["l_harm"],
        input_mode=header["input_mode"],
    )
    if header["combination"] != bundle.combination:
        raise DataError(f"{path}: combination {header['combination']!r} does not fit {kind}")
    problem = _input_mode_problem(kind, bundle.setting, bundle.input_mode)
    if problem is not None:
        raise DataError(f"{path}: {problem}")
    return bundle


# --- feature assembly --------------------------------------------------------


def _per_clip(dataset: Dataset, job) -> list:
    """``job(clip)`` for every example, run once per distinct clip object in
    first-appearance order; upsampling duplicates examples by reference, so
    identity dedups exactly those."""
    unique: dict[int, AudioClip] = {}
    for ex in dataset.examples:
        if ex.audio is None:
            raise ParameterError(f"example {ex.source_id!r} carries no audio")
        unique.setdefault(id(ex.audio), ex.audio)
    clips, workers = list(unique.values()), thread_count()
    if workers <= 1 or len(clips) <= 1:
        rows = [job(clip) for clip in clips]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(job, clips))
    cache = dict(zip(unique, rows))
    return [cache[id(ex.audio)] for ex in dataset.examples]


def audio_feature_matrix(
    dataset: Dataset,
    frame_config: FrameConfig,
    l_harm: int = DEFAULT_HARMONIC_WINDOW,
) -> np.ndarray:
    """Eight-feature rows for every example, computed once per distinct clip."""

    def job(clip: AudioClip) -> np.ndarray:
        return extract_audio_features(clip, frame_config, l_harm).to_array()

    return np.vstack(_per_clip(dataset, job))


def frame_sequences(
    dataset: Dataset,
    frame_config: FrameConfig,
    l_harm: int = DEFAULT_HARMONIC_WINDOW,
) -> list[np.ndarray]:
    def job(clip: AudioClip) -> np.ndarray:
        return extract_frame_sequence(clip, frame_config, l_harm).vectors

    return _per_clip(dataset, job)


def documents(dataset: Dataset) -> list[list[str]]:
    """Normalized transcript tokens, one list per example."""
    return [normalize_text(ex.transcript or "") for ex in dataset.examples]


def text_feature_matrix(dataset: Dataset, vocab: Vocabulary) -> np.ndarray:
    return tfidf_matrix(documents(dataset), vocab)


def fused_matrix(audio: np.ndarray, text: np.ndarray, vocab: Vocabulary) -> np.ndarray:
    if text.shape[1] != len(vocab):
        raise ModelError(
            f"text block width {text.shape[1]} does not match vocabulary size {len(vocab)}"
        )
    if audio.shape[0] != text.shape[0]:
        raise ParameterError("audio and text blocks must pair row-for-row")
    return np.hstack([audio, text])


def featurize(
    dataset: Dataset,
    setting: str,
    input_mode: str,
    frame_config: FrameConfig,
    l_harm: int,
    vocab: Optional[Vocabulary],
):
    """Model input for every example of ``dataset``: per-frame sequences for
    an audio_only model in "frames" mode, otherwise one row per example with
    the audio block first and the TFIDF block over ``vocab`` after it.

    Training, evaluation, prediction and feature dumps all call this, so a
    bundle sees at serving time exactly the features it was trained on.
    """
    if setting == "audio_only" and input_mode == "frames":
        return frame_sequences(dataset, frame_config, l_harm)
    blocks = []
    if setting in ("audio_only", "audio_text"):
        blocks.append(audio_feature_matrix(dataset, frame_config, l_harm))
    if setting in ("text_only", "audio_text"):
        blocks.append(text_feature_matrix(dataset, vocab))
    return blocks[0] if len(blocks) == 1 else fused_matrix(*blocks, vocab)


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


def importance_csv(bundle: ModelBundle) -> str:
    """``feature_importance`` of a single-model bundle as rank,feature,importance
    CSV text."""
    ranked = feature_importance(bundle, feature_names(bundle.setting, bundle.vocab))
    lines = ["rank,feature,importance"]
    lines.extend(f"{rank},{name},{value:.9g}" for rank, (name, value) in enumerate(ranked, 1))
    return "\n".join(lines) + "\n"


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

    def __post_init__(self):
        self.manifest = Path(self.manifest)
        if self.out_dir is not None:
            self.out_dir = Path(self.out_dir)
        if self.setting not in SETTINGS:
            raise ConfigError(f"setting must be one of {SETTINGS}, got {self.setting!r}")
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.model_kind!r}")
        classes_for_mode(self.class_mode)
        problem = _input_mode_problem(
            self.model_kind, self.setting, _requested_input_mode(self.model_kind, self.hyperparams)
        )
        if problem is not None:
            raise ConfigError(problem)


def run_experiment(config: ExperimentConfig) -> tuple[EvalReport, dict[str, Path]]:
    entries = load_manifest(config.manifest)
    if entries and all(e.split_hint is not None for e in entries):
        train_entries, test_entries = split_by_hint(entries)
        train_ds = build_dataset(train_entries, config.class_mode)
        test_ds = build_dataset(test_entries, config.class_mode)
    else:
        dataset = build_dataset(entries, config.class_mode)
        train_ds, test_ds = split(
            dataset, config.train_fraction, config.seed + SEED_OFFSET_SPLIT
        )
    if config.upsample_train:
        train_ds = upsample(
            train_ds, config.seed + SEED_OFFSET_UPSAMPLE, config.upsample_rho
        )

    input_mode = _requested_input_mode(config.model_kind, config.hyperparams)
    vocab = None if config.setting == "audio_only" else fit_vocabulary(documents(train_ds))
    train_X, test_X = (
        featurize(ds, config.setting, input_mode, config.frame_config, config.l_harm, vocab)
        for ds in (train_ds, test_ds)
    )
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
    )

    predictions = bundle.predict(test_X)
    report = evaluate(
        predictions, test_y, len(train_ds.classes), class_names=bundle.class_names
    )

    artifacts: dict[str, Path] = {}
    if config.out_dir is not None:
        artifacts = write_artifacts(config, bundle, report, len(train_ds), len(test_ds))
    return report, artifacts


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
        "feature_dim": bundle.feature_dim,
        **report.to_dict(),
    }
    report_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    artifacts["report"] = report_path

    cm_path = out / "confusion_matrix.csv"
    lines = ["true\\pred," + ",".join(report.class_names)]
    for name, row in zip(report.class_names, report.confusion):
        lines.append(name + "," + ",".join(str(int(v)) for v in row))
    cm_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    artifacts["confusion_matrix"] = cm_path

    if bundle.kind in _TREE_KINDS:
        imp_path = out / "importances.csv"
        imp_path.write_text(importance_csv(bundle), encoding="utf-8")
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
    if bundle.setting != "text_only" and clip is None:
        raise ConfigError(f"setting {bundle.setting!r} requires audio input")
    if bundle.setting != "audio_only" and text is None:
        raise ConfigError(f"setting {bundle.setting!r} requires text input")

    # the placeholder label satisfies Dataset and is never read
    example = Example(label=classes_for_mode(bundle.class_mode)[0], audio=clip, transcript=text)
    X = featurize(
        Dataset([example], class_mode=bundle.class_mode), bundle.setting, bundle.input_mode,
        bundle.frame_config, bundle.l_harm, bundle.vocab,
    )
    proba = bundle.predict_proba(X)[0]
    names = bundle.class_names
    predicted = names[int(np.argmax(proba))]
    return predicted, {name: float(p) for name, p in zip(names, proba)}

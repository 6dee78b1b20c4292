"""Experiment orchestration: feature assembly, fusion, training, evaluation,
model bundles, and artifact writing.

A run is fully determined by (manifest, config, seed): stage sub-seeds are
derived with fixed offsets, artifacts are written with canonical formatting,
and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

from ._blas import single_blas_thread
from .audio_features import (
    AUDIO_FEATURE_NAMES,
    DEFAULT_HARMONIC_WINDOW,
    FRAME_FEATURE_NAMES,
    FrameConfig,
    _check_window,
    extract_audio_features,
    extract_frame_sequence,
)
from .audio_io import AudioClip
from .errors import ConfigError, DataError, ModelError, ParameterError, UnsupportedModelError
from .ingest import (
    DEFAULT_UPSAMPLE_RHO,
    Dataset,
    Example,
    ManifestEntry,
    _check_rho,
    _check_train_fraction,
    build_dataset,
    classes_for_mode,
    load_manifest,
    resolve_clip,
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
from .persistence import FORMAT_VERSION, load_container, save_container
from .text_features import (
    Vocabulary,
    fit_vocabulary,
    normalize_text,
    save_vocabulary,
    tfidf_matrix,
    tfidf_transform,  # unused here; kept as a lookup point for the benchmark's tracer
)

# the feature blocks each setting reads, in fused order
SETTINGS = {"audio_only": ("audio",), "text_only": ("text",), "audio_text": ("audio", "text")}

_MODEL_CLASSES = {
    "rf": RandomForest,
    "xgb": GradientBoosting,
    "svm": LinearSVM,
    "mnb": MultinomialNaiveBayes,
    "lr": LogisticRegression,
    "mlp": MlpClassifier,
    "lstm": LstmClassifier,
}

ENSEMBLE_MEMBERS: dict[str, tuple[str, ...]] = {
    "e1": ("rf", "xgb", "mlp"),
    "e2": ("rf", "xgb", "mlp", "mnb", "lr"),
}

# Offsets added to the experiment seed when a stage needs its own stream: fixed,
# so a rerun with the one stored seed reproduces the split, upsampling and models.
SEED_OFFSET_SPLIT = 0
SEED_OFFSET_UPSAMPLE = 1
SEED_OFFSET_MODEL = 100  # model i uses seed + SEED_OFFSET_MODEL + i

#: Each kind's hyperparameters and defaults, read from its constructor (all but
#: the class count, the seed that the run derives and rf's library-only flags),
#: plus the lstm's ``input_mode`` ("frames" or "clip"), which the pipeline reads.
#: A run overrides any of them; each override is checked before any WAV is read.
MODEL_DEFAULTS: dict[str, dict] = {
    kind: {name: param.default for name, param in inspect.signature(cls).parameters.items()
           if name not in ("n_classes", "seed", "bootstrap", "max_features")}
    for kind, cls in _MODEL_CLASSES.items()
}
MODEL_DEFAULTS["lstm"]["input_mode"] = "frames"

#: Every model kind a run can name: the single models, then the ensembles.
MODEL_KINDS = (*MODEL_DEFAULTS, *ENSEMBLE_MEMBERS)

_TREE_KINDS = {"rf", "xgb"}
_STANDARDIZED_KINDS = {"svm", "lr", "mlp"}


#: Size caps on one member's design, checked from the design and its input
#: width before any WAV is read: the weights and biases of an mlp or lstm
#: (2**24 float64s are 128 MiB, and training holds several such copies) and
#: the trees of an rf or xgb (xgb grows one tree per class in each round).
MAX_MEMBER_WEIGHTS = 2**24
MAX_MEMBER_TREES = 10_000


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_count() -> int:
    """Worker count for data-parallel stages: one per usable CPU up to four;
    EMOFORGE_THREADS caps it."""
    count = min(4, _usable_cpus())
    cap = os.environ.get("EMOFORGE_THREADS")
    if cap:
        try:
            count = min(count, max(1, int(cap)))
        except ValueError as exc:
            raise ConfigError(f"EMOFORGE_THREADS must be an integer, got {cap!r}") from exc
    return count


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

    def _arrays(self) -> dict[str, np.ndarray]:
        return {"center": self.center_, "scale": self.scale_}

    def _set_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        if {arrays["center"].shape, arrays["scale"].shape} != {(self.block,)}:
            raise ValueError(f"scaler arrays do not fit its {self.block} columns")
        self.center_, self.scale_ = arrays["center"], arrays["scale"]


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

    def state_fault(self) -> Optional[str]:
        """What makes the fitted state unusable, or None: a NaN or infinity in
        a float array (a tree threshold may be infinite, never NaN), a scaler
        scale that is not positive, or an rf node value that is not a class
        distribution."""
        scaled = {} if self.scaler is None else self.scaler._arrays()
        arrays = {**self.classifier._arrays(), **{f"scaler/{k}": a for k, a in scaled.items()}}
        for name, arr in arrays.items():
            if arr.dtype.kind != "f":
                continue
            # an infinite threshold is a legal split: every row goes to one side
            tree_threshold = name == "threshold" and self.kind in _TREE_KINDS
            if (np.isnan(arr) if tree_threshold else ~np.isfinite(arr)).any():
                return f"{name} array holds NaN or infinity"
        if "scaler/scale" in arrays and not (arrays["scaler/scale"] > 0).all():
            return "scaler scale is not positive"
        if self.kind == "rf":
            value = arrays["value"]
            if (value < 0).any() or (np.abs(value.sum(axis=1) - 1.0) > 1e-9).any():
                return "node values are not class distributions"
        return None

    def header_entry(self) -> dict:
        """The member as a model file's header records it (arrays aside)."""
        clf, scaler = self.classifier, self.scaler
        return {"kind": self.kind, "meta": {key: getattr(clf, key) for key in clf.state_keys()},
                "scaler": None if scaler is None else {"kind": scaler.kind, "block": scaler.block}}


def _width(X) -> int:
    """The column count of model input: a 2-D matrix, or a non-empty list of
    2-D per-frame sequences (read from the first); ParameterError otherwise."""
    shape = np.shape(X[0] if isinstance(X, list) and X else X)
    if len(shape) != 2:
        raise ParameterError(f"model input must be a 2-D matrix or a non-empty list of 2-D "
                             f"sequences, got shape {shape}")
    return shape[1]


def _blocks(setting: str) -> tuple[str, ...]:
    """The feature blocks ``setting`` reads; ConfigError for an unknown one."""
    try:
        return SETTINGS[setting]
    except (KeyError, TypeError):
        raise ConfigError(f"setting must be one of {tuple(SETTINGS)}, got {setting!r}") from None


def _check_size(kind: str, clf, width: int) -> None:
    """ConfigError when an unfitted member of ``kind`` would hold more weights
    or trees, on input ``width`` columns wide, than its cap allows."""
    if kind == "mlp":
        sizes = (width, *clf.hidden_sizes, clf.n_classes)
        what, count = "weights", sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
    elif kind == "lstm":
        hidden = clf.hidden_size
        what, count = "weights", 4 * hidden * (width + hidden + 1) + (hidden + 1) * clf.n_classes
    elif kind == "rf":
        what, count = "trees", clf.n_trees
    elif kind == "xgb":
        what, count = "trees", clf.n_rounds * clf.n_classes
    else:
        return
    cap = MAX_MEMBER_WEIGHTS if what == "weights" else MAX_MEMBER_TREES
    if count > cap:
        raise ConfigError(f"{kind} design holds {count} {what} on {width} input columns, "
                          f"over the cap of {cap}")


@dataclass
class ModelBundle:
    """A trained model plus everything needed to reuse it: preprocessing
    stats, vocabulary, framing, and provenance. A single model is a
    one-member vote. Its members, input mode and input width follow from its
    design at construction.

    Construction raises ConfigError unless a bundle can have this design:
    known setting, kind and class mode; a vocabulary exactly when the
    setting reads text; an integer seed >= 0, as numpy's generators need;
    hyperparameters that every member applies; an lstm ``input_mode``
    hyperparameter (default "frames") that is "frames" only on audio_only,
    or "clip"; an ``l_harm`` the harmonic median filter takes; and members
    within ``MAX_MEMBER_WEIGHTS`` and ``MAX_MEMBER_TREES`` on their input.
    The input is "vector" for every other kind; it is 6 columns wide per
    frame, else 8 per audio block plus one per vocabulary term."""

    kind: str
    setting: str
    class_mode: str
    seed: int
    hyperparams: dict
    vocab: Optional[Vocabulary] = None
    frame_config: FrameConfig = field(default_factory=FrameConfig)
    l_harm: int = DEFAULT_HARMONIC_WINDOW
    input_mode: str = field(init=False)  # "vector", or for lstm "frames" or "clip"
    feature_dim: int = field(init=False)
    members: list[_Member] = field(init=False)

    def __post_init__(self):
        blocks = _blocks(self.setting)
        if (self.vocab is not None) != ("text" in blocks):
            need = "takes no" if self.vocab is not None else "needs a"
            raise ConfigError(f"setting {self.setting!r} {need} vocabulary")
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        # the header stores an int: no bool, no numpy integer
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        members = _configure_members(self.kind, self.hyperparams, self.seed,
                                     len(classes_for_mode(self.class_mode)))
        mode = "vector"
        if self.kind == "lstm":
            mode = self.hyperparams.get("input_mode", MODEL_DEFAULTS["lstm"]["input_mode"])
            if mode not in ("frames", "clip"):
                raise ConfigError(f"lstm input_mode must be 'frames' or 'clip', got {mode!r}")
        if mode == "frames" and blocks != ("audio",):
            raise ConfigError(f"lstm input_mode 'frames' (the default) reads per-frame sequences, "
                              f"which only audio_only has; input_mode 'clip' reads a row per clip")
        _check_window(self.l_harm)
        width = len(FRAME_FEATURE_NAMES) if mode == "frames" else sum(
            len(AUDIO_FEATURE_NAMES) if block == "audio" else len(self.vocab) for block in blocks)
        for kind, clf in members:
            _check_size(kind, clf, width)
        self.input_mode, self.feature_dim = mode, width
        self.members = [_Member(kind, clf, _scaler_for(kind, self.setting, width))
                        for kind, clf in members]

    def features(self, dataset: Dataset):
        """``featurize`` with the bundle's setting, input mode, framing, l_harm and vocab."""
        return featurize(dataset, self.setting, self.input_mode, self.frame_config, self.l_harm,
                         self.vocab)

    @property
    def combination(self) -> str:
        return "soft_vote" if self.kind in ENSEMBLE_MEMBERS else "single"

    @property
    def class_names(self) -> list[str]:
        return [label.value for label in classes_for_mode(self.class_mode)]

    def _check_input(self, X, error: type[Exception]) -> None:
        """``error`` unless ``X`` is the bundle's input: a list of per-frame
        sequences in "frames" mode, else a matrix, ``feature_dim`` columns wide
        (ParameterError when it has no width)."""
        frames = self.input_mode == "frames"
        if isinstance(X, list) != frames:
            form = "a list of per-frame sequences" if frames else "a matrix"
            raise error(f"{self.input_mode} input is {form}, got a {type(X).__name__}")
        width = _width(X)
        if width != self.feature_dim:
            raise error(f"input is {width} columns wide, not feature_dim {self.feature_dim}")

    def predict_proba(self, X) -> np.ndarray:
        """Mean of the members' probabilities (exact for one member), taken
        with numpy's BLAS on one thread. DataError when it is not finite: a
        model of finite arrays can still overflow on an input."""
        self._check_input(X, ModelError)
        with single_blas_thread(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            proba = sum(member.predict_proba(X) for member in self.members) / len(self.members)
        if not np.isfinite(proba).all():
            raise DataError(f"{self.kind} probabilities are not finite: the model overflows")
        return proba

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


def _hp_type_ok(value, default) -> bool:
    """Whether an override fits its default's type: int for int, int or
    float for float, str for str. A bool is never a number here. Hidden
    sizes (a tuple default) are left to the constructor, their one parser."""
    return isinstance(default, tuple) or not isinstance(value, bool) and isinstance(
        value, {int: Integral, float: Real, str: str}[type(default)])


def make_classifier(kind: str, hyperparams: dict, seed: int, n_classes: int):
    params = dict(MODEL_DEFAULTS[kind])
    unknown = set(hyperparams) - set(params)
    if unknown:
        raise ConfigError(f"unknown hyperparameters for {kind}: {sorted(unknown)}")
    for key, value in hyperparams.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{kind} hyperparameter {key}={value!r} is not finite")
        if not _hp_type_ok(value, params[key]):
            raise ConfigError(
                f"{kind} hyperparameter {key}={value!r} does not fit the type of its "
                f"default {params[key]!r}"
            )
    params.update(hyperparams)
    params.pop("input_mode", None)  # consumed by the pipeline, not the model
    if "seed" in _MODEL_CLASSES[kind].state_keys():  # only the models that draw take one
        params["seed"] = seed
    return _MODEL_CLASSES[kind](n_classes=n_classes, **params)


def _configure_members(kind: str, hyperparams: dict, seed: int,
                       n_classes: int) -> list[tuple[str, object]]:
    """(member kind, unfitted classifier) for each member of ``kind``, a
    single kind being its own one member; member i is seeded
    ``seed + SEED_OFFSET_MODEL + i``. A single kind reads ``hyperparams``
    flat, an ensemble a table keyed only by its own member kinds, each entry
    an object. Any key that no member would apply, or a value its
    constructor rejects, raises ConfigError."""
    members = ENSEMBLE_MEMBERS.get(kind, (kind,))
    tables = hyperparams if kind in ENSEMBLE_MEMBERS else {kind: hyperparams}
    stray = [key for key, table in tables.items()
             if key not in members or not isinstance(table, dict)]
    if stray:
        raise ConfigError(f"{kind} hyperparameters are keyed by member kind, one object for "
                          f"each of {', '.join(members)}; got {stray}")
    return [(member, make_classifier(member, tables.get(member, {}),
                                     seed + SEED_OFFSET_MODEL + i, n_classes))
            for i, member in enumerate(members)]


def _scaler_for(kind: str, setting: str, feature_dim: int) -> Optional[ColumnScaler]:
    """A member's input scaling: the lstm standardizes every column, other
    kinds only the audio block: the whole row when the setting reads audio
    alone, the eight clip features ahead of the TFIDF when it reads text too."""
    if kind == "lstm":
        return ColumnScaler("standard", feature_dim)
    widths = {("audio",): feature_dim, ("audio", "text"): len(AUDIO_FEATURE_NAMES)}
    block = widths.get(_blocks(setting), 0)
    if kind in _STANDARDIZED_KINDS and block > 0:
        return ColumnScaler("standard", block)
    if kind == "mnb" and block > 0:
        return ColumnScaler("minmax", block)
    return None


def train_bundle(bundle: ModelBundle, X, y: np.ndarray) -> ModelBundle:
    """Fit ``bundle``'s members on ``X`` and return that bundle. ``X`` is
    checked to be the bundle's input before any member fits. Members fit with
    numpy's BLAS on one thread, so the bytes do not depend on the host's core
    count (``emoforge._blas``)."""
    bundle._check_input(X, ConfigError)
    # a diverging fit overflows; its state is rejected below, with no numpy warning
    with single_blas_thread(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for member in bundle.members:
            member.fit(X, y)
            fault = member.state_fault()
            if fault is not None:
                raise ParameterError(f"{member.kind} fit diverged: its fitted {fault}; "
                                     f"try a smaller learning_rate")
    return bundle


# --- bundle persistence -----------------------------------------------------


def _header(bundle: ModelBundle) -> dict:
    """The JSON header of the bundle's model file: its design, the fields
    derived from it (combination, class names) and each member's entry.
    ``save_bundle`` writes it, and ``load_bundle`` takes a file only when its
    header is this one."""
    vocab, frames = bundle.vocab, bundle.frame_config
    return {
        "model_kind": bundle.kind, "setting": bundle.setting, "class_mode": bundle.class_mode,
        "seed": bundle.seed, "feature_dim": bundle.feature_dim,
        "hyperparameters": bundle.hyperparams,
        "vocab": None if vocab is None else {
            "terms": list(vocab.terms), "dfs": list(vocab.document_frequencies),
            "n_documents": vocab.n_documents},
        "frame_length": frames.frame_length, "hop_length": frames.hop_length,
        "l_harm": bundle.l_harm, "input_mode": bundle.input_mode,
        "combination": bundle.combination, "class_names": bundle.class_names,
        "members": [member.header_entry() for member in bundle.members],
    }


def _probe(member: _Member, feature_dim: int) -> np.ndarray:
    """The member's probabilities for all-zero input ``feature_dim`` columns
    wide, taken with numpy's BLAS on one thread: no row, or one for the lstm,
    which takes no empty batch. ParameterError when the member is not fitted."""
    rows = int(member.kind == "lstm")
    with single_blas_thread(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return member.predict_proba(np.zeros((rows, feature_dim)))


def save_bundle(path: str | Path, bundle: ModelBundle) -> None:
    """Write the bundle as a model file; each member is probed before its
    arrays are read, so an unfitted bundle raises ParameterError and writes
    nothing."""
    arrays: dict[str, np.ndarray] = {}
    for i, member in enumerate(bundle.members):
        _probe(member, bundle.feature_dim)
        scaled = {} if member.scaler is None else member.scaler._arrays()
        arrays.update({f"m{i}/{name}": arr for name, arr in member.classifier._arrays().items()})
        arrays.update({f"m{i}/scaler/{name}": arr for name, arr in scaled.items()})
    save_container(path, _header(bundle), arrays)


def _typed(path, obj: dict, expected: type, *keys: str) -> list:
    """``obj``'s values at ``keys``, each of exactly the ``expected`` type (a bool
    is no int); DataError otherwise."""
    values = [obj.get(key) for key in keys]
    for key, value in zip(keys, values):
        if type(value) is not expected:
            raise DataError(f"{path}: header key {key!r} is missing or not a {expected.__name__}")
    return values


def _under(arrays: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    """The arrays named ``prefix...``, keyed by the rest of their name."""
    return {name[len(prefix):]: arr for name, arr in arrays.items() if name.startswith(prefix)}


def load_bundle(path: str | Path) -> ModelBundle:
    """Rebuild a bundle from a container. A file loads only when its header
    is exactly the one ``save_bundle`` writes for the design it names: the
    bundle and its members are built from the header's design fields, as a
    caller builds the ``ModelBundle`` it passes to ``train_bundle``, and the
    header must equal ``_header`` of that bundle. Any other header raises
    DataError, and only an unknown model or member kind ModelError. A member
    that is not a tree model must then map ``feature_dim`` columns to one
    probability per class (``_probe``); a tree model's arrays pass
    ``check_trees`` as it takes them, with ``feature_dim`` importance columns."""
    header, arrays = load_container(path)
    kind, setting, class_mode = _typed(path, header, str, "model_kind", "setting", "class_mode")
    stored = header.get("members")
    kinds = [kind] + [e.get("kind") for e in (stored if isinstance(stored, list) else [])
                      if isinstance(e, dict)]
    unknown = [k for k in kinds if isinstance(k, str) and k not in MODEL_KINDS]
    if unknown:
        raise ModelError(f"{path}: header names unknown model kind {unknown[0]!r}")
    seed, frame_length, hop_length, l_harm = _typed(
        path, header, int, "seed", "frame_length", "hop_length", "l_harm")
    [hyperparams] = _typed(path, header, dict, "hyperparameters")
    vocab = header.get("vocab")
    try:
        if vocab is not None:
            [vocab] = _typed(path, header, dict, "vocab")
            terms, dfs = _typed(path, vocab, list, "terms", "dfs")
            vocab = Vocabulary(tuple(terms), tuple(dfs), vocab.get("n_documents"))
        bundle = ModelBundle(kind, setting, class_mode, seed, hyperparams, vocab,
                             FrameConfig(frame_length, hop_length), l_harm)
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc
    # compared as the JSON text the file holds, so neither true nor 1.0 passes for 1
    if json.dumps(header, sort_keys=True) != json.dumps(
            {**_header(bundle), "format_version": FORMAT_VERSION}, sort_keys=True):
        raise DataError(f"{path}: header is not the one that the design it names makes")
    for i, member in enumerate(bundle.members):
        try:
            member.classifier._set_arrays(_under(arrays, f"m{i}/"))
            if member.scaler is not None:
                member.scaler._set_arrays(_under(arrays, f"m{i}/scaler/"))
            fault = member.state_fault()
            if fault is not None:
                raise ValueError(fault)
            if member.kind in _TREE_KINDS:  # importances bound every split feature
                if member.classifier.feature_importances_.size != bundle.feature_dim:
                    raise ValueError(f"tree importances do not have {bundle.feature_dim} columns")
            elif _probe(member, bundle.feature_dim).shape[1:] != (len(bundle.class_names),):
                raise ValueError("arrays do not map feature_dim columns to the classes")
        except (KeyError, TypeError, ValueError, ParameterError) as exc:
            raise DataError(f"{path}: member {i} state is unusable ({exc!r})") from exc
    return bundle


# --- feature assembly --------------------------------------------------------


def _per_clip(dataset: Dataset, job) -> list:
    """``job(clip)`` for every example, run once per distinct audio object in
    first-appearance order; upsampling duplicates examples by reference, so
    identity dedups exactly those. A WAV path is decoded inside its job, so only
    clips in flight are held; a job's error cancels every clip not yet started."""
    unique: dict[int, AudioClip | Path] = {}
    for ex in dataset.examples:
        if ex.audio is None:
            raise ParameterError(f"example {ex.source_id!r} carries no audio")
        unique.setdefault(id(ex.audio), ex.audio)
    audios, workers = list(unique.values()), thread_count()

    def clip_job(audio):
        return job(resolve_clip(audio))

    if workers <= 1 or len(audios) <= 1:
        rows = [clip_job(audio) for audio in audios]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(clip_job, audios))
    cache = dict(zip(unique, rows))
    return [cache[id(ex.audio)] for ex in dataset.examples]


def audio_feature_matrix(
    dataset: Dataset,
    frame_config: FrameConfig,
    l_harm: int = DEFAULT_HARMONIC_WINDOW,
) -> np.ndarray:
    """Eight-feature rows for every example, computed once per distinct clip."""

    def job(clip: AudioClip) -> np.ndarray:
        return extract_audio_features(clip, frame_config, l_harm)

    return np.vstack(_per_clip(dataset, job))


def frame_sequences(
    dataset: Dataset,
    frame_config: FrameConfig,
    l_harm: int = DEFAULT_HARMONIC_WINDOW,
) -> list[np.ndarray]:
    def job(clip: AudioClip) -> np.ndarray:
        return extract_frame_sequence(clip, frame_config, l_harm)

    return _per_clip(dataset, job)


def read_dataset(entries: list[ManifestEntry], class_mode: str) -> Dataset:
    """The examples of the entries whose label survives mapping, each holding
    its WAV path undecoded; DataError when none survives. Every command reads
    its manifest entries through this."""
    dataset = build_dataset(entries, class_mode)
    if not len(dataset):
        raise DataError(f"none of {len(entries)} manifest entries has a {class_mode}-class label")
    return dataset


def documents(dataset: Dataset) -> list[list[str]]:
    """Normalized transcript tokens, one list per example."""
    return [normalize_text(ex.transcript or "") for ex in dataset.examples]


def setting_vocabulary(setting: str, dataset: Dataset) -> Optional[Vocabulary]:
    """The vocabulary a run fits: over ``dataset``'s transcripts exactly when
    ``setting`` reads text, else None."""
    return fit_vocabulary(documents(dataset)) if "text" in _blocks(setting) else None


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
    a model in "frames" mode on a setting that reads audio alone, otherwise
    one row per example holding the setting's blocks in ``SETTINGS`` order
    (the TFIDF block over ``vocab``).

    Training, evaluation, prediction and feature dumps all call this, so a
    bundle sees at serving time exactly the features it was trained on.
    """
    blocks = _blocks(setting)
    if blocks == ("audio",) and input_mode == "frames":
        return frame_sequences(dataset, frame_config, l_harm)
    matrices = [audio_feature_matrix(dataset, frame_config, l_harm) if block == "audio"
                else text_feature_matrix(dataset, vocab) for block in blocks]
    return matrices[0] if len(matrices) == 1 else fused_matrix(*matrices, vocab)


def feature_names(setting: str, vocab: Optional[Vocabulary]) -> list[str]:
    blocks = _blocks(setting)
    if "text" in blocks and vocab is None:
        raise ParameterError(f"setting {setting!r} requires a vocabulary")
    terms = vocab.terms if "text" in blocks else ()
    names = {"audio": AUDIO_FEATURE_NAMES, "text": [f"tfidf:{t}" for t in terms]}
    return [name for block in blocks for name in names[block]]


def features_csv(manifest: Path, setting: str, class_mode: str, frame_config: FrameConfig,
                 l_harm: int) -> str:
    """The manifest's feature rows as CSV text with 9 significant digits, a
    vocabulary fitted on its own transcripts, and source_id and label columns
    last. ``l_harm`` is checked before the manifest is read."""
    _check_window(l_harm)
    dataset = read_dataset(load_manifest(manifest), class_mode)
    vocab = setting_vocabulary(setting, dataset)
    X = featurize(dataset, setting, "vector", frame_config, l_harm, vocab)
    return csv_text([[*feature_names(setting, vocab), "source_id", "label"],
                     *([*(f"{v:.9g}" for v in row), ex.source_id, ex.label.value]
                       for row, ex in zip(X, dataset.examples))])


def csv_text(rows) -> str:
    """``rows`` as CSV text, each row ending in "\n"."""
    # csv quotes a field holding the delimiter, the quote or a character of
    # its line terminator, so rows are written with "\r\n", which quotes a
    # field holding \r or \n, and each row's terminator becomes "\n"
    lines = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def labels_to_indices(dataset: Dataset) -> np.ndarray:
    index = {label: i for i, label in enumerate(dataset.classes)}
    return np.asarray([index[ex.label] for ex in dataset.examples], dtype=np.int64)


def score(bundle: ModelBundle, X, dataset: Dataset) -> EvalReport:
    """The bundle's predictions on ``X``, ``dataset``'s features, scored against its labels."""
    predictions = bundle.predict(X)
    return evaluate(predictions, labels_to_indices(dataset), len(dataset.classes),
                    class_names=bundle.class_names)


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
    return csv_text([("rank", "feature", "importance"),
                     *((rank, name, f"{value:.9g}")
                       for rank, (name, value) in enumerate(ranked, 1))])


# --- experiment runner --------------------------------------------------------


@dataclass
class ExperimentConfig:
    manifest: Path
    setting: str = "audio_only"
    model_kind: str = "e1"
    class_mode: str = "six"
    seed: int = 0
    out_dir: Optional[Path] = None
    train_fraction: float = 0.8
    upsample_rho: float = DEFAULT_UPSAMPLE_RHO
    hyperparams: dict = field(default_factory=dict)
    frame_config: FrameConfig = field(default_factory=FrameConfig)
    l_harm: int = DEFAULT_HARMONIC_WINDOW

    def __post_init__(self):
        self.manifest = Path(self.manifest)
        if self.out_dir is not None:
            self.out_dir = Path(self.out_dir)
        # checked before the manifest is read, the design on a one-term placeholder
        # vocabulary; the run builds its bundle again on the true vocabulary
        placeholder = Vocabulary(("",), (1,), 1) if "text" in _blocks(self.setting) else None
        ModelBundle(self.model_kind, self.setting, self.class_mode, self.seed, self.hyperparams,
                    placeholder, self.frame_config, self.l_harm)
        _check_train_fraction(self.train_fraction)
        _check_rho(self.upsample_rho)


def run_experiment(config: ExperimentConfig) -> tuple[EvalReport, dict[str, Path]]:
    entries = load_manifest(config.manifest)
    if any(e.split_hint is not None for e in entries):  # split_by_hint rejects a mix
        train_ds, test_ds = (read_dataset(part, config.class_mode)
                             for part in split_by_hint(entries))
    else:
        dataset = read_dataset(entries, config.class_mode)
        train_ds, test_ds = split(dataset, config.train_fraction, config.seed + SEED_OFFSET_SPLIT)
    train_ds = upsample(train_ds, config.seed + SEED_OFFSET_UPSAMPLE, config.upsample_rho)

    vocab = setting_vocabulary(config.setting, train_ds)
    if _blocks(config.setting) == ("text",) and not len(vocab):
        raise DataError(f"setting {config.setting!r} reads text alone, but no transcript of "
                        f"the train split holds a token")
    # the bundle checks the size caps on the vocabulary's true width before any WAV is
    # read, and featurizes both splits before any member fits: a bad WAV exits untrained
    bundle = ModelBundle(config.model_kind, config.setting, config.class_mode, config.seed,
                         config.hyperparams, vocab, config.frame_config, config.l_harm)
    train_X, test_X = (bundle.features(ds) for ds in (train_ds, test_ds))
    train_bundle(bundle, train_X, labels_to_indices(train_ds))
    report = score(bundle, test_X, test_ds)

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
    write_report(report_path, bundle, report, seed=config.seed,
                 train_fraction=config.train_fraction,
                 upsample_train=bool(config.upsample_rho > 0), upsample_rho=config.upsample_rho,
                 train_size=train_size, test_size=test_size, feature_dim=bundle.feature_dim)
    artifacts["report"] = report_path

    cm_path = out / "confusion_matrix.csv"
    cm_path.write_text(csv_text([["true\\pred", *report.class_names],
                                 *([name, *row] for name, row in
                                   zip(report.class_names, report.confusion.tolist()))]),
                       encoding="utf-8")
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


def write_report(path: Path, bundle: ModelBundle, report: EvalReport, **fields) -> None:
    """Write ``report`` as JSON: the bundle's kind, setting and class mode, then
    ``fields`` in the order given, then the metrics."""
    payload = {"model_kind": bundle.kind, "setting": bundle.setting,
               "class_mode": bundle.class_mode, **fields, **report.to_dict()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# --- single-example prediction -------------------------------------------------


def check_example_inputs(setting: str, inputs: dict) -> None:
    """Raise ConfigError unless exactly the inputs ``setting`` reads are given:
    ``inputs`` maps the audio input's name, then the text input's, to its
    value or None."""
    for block, (name, given) in zip(("audio", "text"), inputs.items()):
        if (given is not None) != (block in _blocks(setting)):
            need = "requires" if given is None else "reads no"
            raise ConfigError(f"setting {setting!r} {need} {block} input ({name})")


def predict_example(
    bundle: ModelBundle,
    clip: Optional[AudioClip] = None,
    text: Optional[str] = None,
) -> tuple[str, dict[str, float]]:
    """Predict one example from exactly the raw inputs its setting reads
    (``check_example_inputs``), using the bundle's own protocol."""
    check_example_inputs(bundle.setting, {"clip": clip, "text": text})

    # the placeholder label satisfies Dataset and is never read
    example = Example(label=classes_for_mode(bundle.class_mode)[0], audio=clip, transcript=text)
    proba = bundle.predict_proba(bundle.features(Dataset([example], bundle.class_mode)))[0]
    names = bundle.class_names
    predicted = names[int(np.argmax(proba))]
    return predicted, {name: float(p) for name, p in zip(names, proba)}

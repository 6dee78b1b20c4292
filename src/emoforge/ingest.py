"""Manifest-driven dataset assembly.

A corpus is described by a JSONL manifest (one object per line) with fields
``audio`` (path, resolved relative to the manifest), ``text``, ``label`` and
optional ``split`` ("train" or "test"). Raw labels are mapped onto the six
emotion classes: "excited" folds into Happy, "others" and "frustration" are
dropped, and four-class mode additionally drops Fear and Surprise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from .audio_io import AudioClip, decode_wav
from .errors import (
    DegenerateClassError,
    ManifestError,
    ParameterError,
    SplitError,
    UnknownLabelError,
)


class EmotionLabel(Enum):
    ANGRY = "angry"
    HAPPY = "happy"
    SAD = "sad"
    FEAR = "fear"
    SURPRISE = "surprise"
    NEUTRAL = "neutral"


SIX_CLASSES = tuple(EmotionLabel)
FOUR_CLASSES = (
    EmotionLabel.ANGRY,
    EmotionLabel.HAPPY,
    EmotionLabel.SAD,
    EmotionLabel.NEUTRAL,
)

# "excited" merges into happy; "others" and "frustration" carry no usable
# class and are dropped.
_MERGED = {"excited": EmotionLabel.HAPPY}
_DROPPED = {"others", "frustration"}

# Full label alphabet a manifest may use.
LABEL_ALPHABET = frozenset({label.value for label in EmotionLabel} | _MERGED.keys() | _DROPPED)

DEFAULT_UPSAMPLE_RHO = 0.5  # upsample grows each class to at least rho times the largest


def classes_for_mode(class_mode: str) -> tuple[EmotionLabel, ...]:
    if class_mode == "six":
        return SIX_CLASSES
    if class_mode == "four":
        return FOUR_CLASSES
    raise ParameterError(f"class_mode must be 'six' or 'four', got {class_mode!r}")


def map_label(raw_label: str, class_mode: str = "six") -> Optional[EmotionLabel]:
    """Map a raw manifest label to an EmotionLabel, or None when dropped."""
    admissible = classes_for_mode(class_mode)
    key = raw_label.strip().lower()
    if key not in LABEL_ALPHABET:
        raise UnknownLabelError(f"label {raw_label!r} outside the declared alphabet")
    if key in _DROPPED:
        return None
    label = _MERGED.get(key, None)
    if label is None:
        label = EmotionLabel(key)
    if label not in admissible:
        return None
    return label


@dataclass(frozen=True)
class ManifestEntry:
    audio_path: Path
    transcript: str
    raw_label: str
    split_hint: Optional[str] = None


@dataclass(frozen=True)
class Example:
    """One labeled example: its audio and/or a transcript. ``audio`` is a
    clip in memory or the path of a WAV not yet decoded (``resolve_clip``)."""

    label: EmotionLabel
    audio: Optional[AudioClip | Path] = None
    transcript: Optional[str] = None
    source_id: str = ""


@dataclass
class Dataset:
    examples: list[Example]
    class_mode: str = "six"

    def __post_init__(self):
        admissible = set(classes_for_mode(self.class_mode))
        for ex in self.examples:
            if ex.label not in admissible:
                raise ParameterError(
                    f"label {ex.label} not admissible in {self.class_mode}-class mode"
                )

    def __len__(self) -> int:
        return len(self.examples)

    @property
    def classes(self) -> tuple[EmotionLabel, ...]:
        return classes_for_mode(self.class_mode)


def load_manifest(path: str | Path) -> list[ManifestEntry]:
    """Parse a JSONL manifest; audio paths must resolve at load time."""
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    entries: list[ManifestEntry] = []
    base = path.parent
    # bytes.splitlines breaks lines where text-mode reading would: \n, \r\n, \r
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            obj = json.loads(line)
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{path}:{lineno}: not UTF-8 text ({exc})") from exc
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, an over-long integer
            raise ManifestError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        if not isinstance(obj, dict):
            raise ManifestError(
                f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
        for key in ("audio", "text", "label"):
            if key not in obj:
                raise ManifestError(f"{path}:{lineno}: missing field {key!r}")
            if not isinstance(obj[key], str):
                raise ManifestError(f"{path}:{lineno}: field {key!r} must be a string")
        audio_path = Path(obj["audio"])
        if not audio_path.is_absolute():
            audio_path = base / audio_path
        try:
            found = audio_path.is_file()
        except OSError:  # a name the file system cannot hold, such as one too long
            found = False
        if not found:
            raise ManifestError(f"{path}:{lineno}: audio file not found: {audio_path}")
        split_hint = obj.get("split")
        if split_hint is not None and split_hint not in ("train", "test"):
            raise ManifestError(f"{path}:{lineno}: split must be 'train' or 'test'")
        entries.append(
            ManifestEntry(
                audio_path=audio_path,
                transcript=obj["text"],
                raw_label=obj["label"],
                split_hint=split_hint,
            )
        )
    return entries


def resolve_clip(audio: AudioClip | Path) -> AudioClip:
    """An example's audio as a clip: itself, or its WAV decoded by ``decode_wav``."""
    return audio if isinstance(audio, AudioClip) else decode_wav(audio)


def build_dataset(entries: list[ManifestEntry], class_mode: str = "six") -> Dataset:
    """A Dataset of the entries whose label maps to a class, each example
    holding its WAV path; no WAV is read here."""
    examples = []
    for entry in entries:
        label = map_label(entry.raw_label, class_mode)
        if label is None:
            continue
        examples.append(
            Example(
                label=label,
                audio=entry.audio_path,
                transcript=entry.transcript,
                source_id=entry.audio_path.stem,
            )
        )
    return Dataset(examples=examples, class_mode=class_mode)


def class_histogram(dataset: Dataset) -> dict[EmotionLabel, int]:
    """Per-class example counts over every admissible class (zeros included)."""
    counts = {label: 0 for label in dataset.classes}
    for ex in dataset.examples:
        counts[ex.label] += 1
    return counts


def _check_train_fraction(train_fraction: float) -> None:
    if not 0.0 < train_fraction < 1.0:
        raise ParameterError(f"train_fraction must be in (0, 1), got {train_fraction}")


def _check_rho(rho: float) -> None:
    if not 0.0 <= rho <= 1.0:
        raise ParameterError(f"rho must be in [0, 1], got {rho}")


def split(
    dataset: Dataset, train_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Seeded shuffle followed by a prefix split.

    Train size is round(train_fraction * N). Partitions are disjoint and
    exhaustive; an empty partition raises SplitError. Upsampling, when used,
    belongs after this step and on the train side only.
    """
    _check_train_fraction(train_fraction)
    n = len(dataset)
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(train_fraction * n))
    if n_train == 0 or n_train == n:
        raise SplitError(
            f"fraction {train_fraction} on {n} examples leaves an empty partition"
        )
    train = [dataset.examples[i] for i in order[:n_train]]
    test = [dataset.examples[i] for i in order[n_train:]]
    return (
        Dataset(train, class_mode=dataset.class_mode),
        Dataset(test, class_mode=dataset.class_mode),
    )


def split_by_hint(dataset_entries: list[ManifestEntry]) -> tuple[list[ManifestEntry], list[ManifestEntry]]:
    """Partition manifest entries by their split hints.

    Hints are all-or-nothing: mixing hinted and unhinted entries is ambiguous
    and rejected.
    """
    hinted = [e for e in dataset_entries if e.split_hint is not None]
    if not hinted:
        raise ManifestError("no split hints present in manifest")
    if len(hinted) != len(dataset_entries):
        raise ManifestError("manifest mixes hinted and unhinted entries")
    train = [e for e in dataset_entries if e.split_hint == "train"]
    test = [e for e in dataset_entries if e.split_hint == "test"]
    if not train or not test:
        raise SplitError("split hints leave an empty partition")
    return train, test


def upsample(dataset: Dataset, seed: int, rho: float = DEFAULT_UPSAMPLE_RHO) -> Dataset:
    """Grow minority classes by seeded duplication.

    Each class present is brought up to at least ceil(rho * max class count)
    by sampling its own examples uniformly with replacement; a class with no
    examples stays empty. Original examples are all kept, in their original
    order, with duplicates appended grouped by class in canonical class
    order. An empty dataset raises DegenerateClassError.
    """
    _check_rho(rho)
    if len(dataset) == 0:
        raise DegenerateClassError("cannot upsample an empty dataset")

    counts = class_histogram(dataset)
    present = [label for label in dataset.classes if counts[label] > 0]
    max_count = max(counts[label] for label in present)
    target = math.ceil(rho * max_count)
    rng = np.random.default_rng(seed)

    by_class: dict[EmotionLabel, list[int]] = {label: [] for label in present}
    for i, ex in enumerate(dataset.examples):
        by_class[ex.label].append(i)

    extra: list[Example] = []
    for label in present:
        deficit = target - counts[label]
        if deficit <= 0:
            continue
        pool = by_class[label]
        picks = rng.integers(0, len(pool), size=deficit)
        extra.extend(dataset.examples[pool[p]] for p in picks)

    return Dataset(examples=list(dataset.examples) + extra, class_mode=dataset.class_mode)

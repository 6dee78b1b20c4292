"""Workload definitions and their seeded inputs.

Every corpus comes from ``emoforge.synth.generate_corpus``. The benchmark then
writes its own manifest next to the generated one, with a ``split`` hint on
every line, so the held-out clips are known to the benchmark and the program
still sees only files. Prepared inputs are cached per (workload, seed) under
the work directory; preparation is outside every timed figure.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from emoforge.synth import generate_corpus

# bump when the preparation below changes, so stale caches are not reused;
# the cache key also covers every field of the workload
INPUT_VERSION = 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train": time `emoforge train`; "predict": time single requests
    model: str
    setting: str
    classes: int  # 6 or 4, the CLI's --classes
    per_class: int  # clips generated per synthetic class
    duration: float  # seconds per clip
    train_per_class: int  # the rest of each kept class is held out
    accuracy_floor: float  # correctness check on test_accuracy
    train_args: tuple[str, ...] = ()
    uneven: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="short_fused_e2", kind="train", model="e2", setting="audio_text",
            classes=6, per_class=24, duration=0.6, train_per_class=16,
            accuracy_floor=0.9,
        ),
        Workload(
            name="long_audio_e1", kind="train", model="e1", setting="audio_only",
            classes=4, per_class=12, duration=4.5, train_per_class=8,
            accuracy_floor=0.75, train_args=("--rho", "1.0"), uneven=True,
        ),
        Workload(
            name="predict_e2_fused", kind="predict", model="e2", setting="audio_text",
            classes=6, per_class=24, duration=0.6, train_per_class=16,
            accuracy_floor=0.9,
        ),
        Workload(
            name="lstm_frames", kind="train", model="lstm", setting="audio_only",
            # 24 held-out clips per class, so that accuracy moves in steps of
            # about 0.01 and its sampling noise stays small beside its bound
            classes=4, per_class=40, duration=2.0, train_per_class=16,
            accuracy_floor=0.5,
            # a fixed epoch count (no early stop) and a larger step keep the
            # accuracy from hinging on a handful of validation clips
            train_args=("--hp", "input_mode=frames", "--hp", "learning_rate=0.3",
                        "--hp", "epochs=30", "--hp", "patience=100"),
        ),
    )
}

FOUR_CLASS = ("angry", "happy", "sad", "neutral")


@dataclass(frozen=True)
class Inputs:
    manifest: Path  # the benchmark's manifest, every line split-hinted
    test: list[dict]  # held-out rows: {"audio": Path, "text": str, "label": str}


def _rewrite(rows: list[dict], workload: Workload, rng: np.random.Generator) -> list[dict]:
    """Assign split hints; for the uneven workload also thin classes, relabel
    some happy rows as the merged label and add rows whose labels are dropped."""
    by_label: dict[str, list[dict]] = {}
    for row in rows:
        by_label.setdefault(row["label"], []).append(row)
    out: list[dict] = []
    for label, group in by_label.items():
        if workload.classes == 4 and label not in FOUR_CLASS:
            # four-class mode drops these labels; keep two so dropping has work
            out.extend(dict(row, split="train") for row in group[:2])
            continue
        train, test = group[: workload.train_per_class], group[workload.train_per_class :]
        if workload.uneven:
            keep = {"angry": 1.0, "happy": 1.0, "sad": 0.625, "neutral": 0.5}[label]
            train = train[: max(2, int(round(keep * len(train))))]
            if label == "happy":
                train = [dict(row, label="excited") if i % 3 == 0 else row
                         for i, row in enumerate(train)]
        out.extend(dict(row, split="train") for row in train)
        out.extend(dict(row, split="test") for row in test)
    if workload.uneven:
        donors = [row for row in rows if row["label"] in ("fear", "surprise")]
        for i, label in enumerate(("others", "others", "frustration", "frustration")):
            out.append(dict(donors[i], label=label, split="train"))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def prepare(workload: Workload, seed: int, cache: Path) -> Inputs:
    """Generate (or reuse) the inputs of one workload for one seed."""
    digest = hashlib.sha256(f"{INPUT_VERSION} {workload!r}".encode()).hexdigest()[:12]
    final = cache / f"{workload.name}-s{seed}-{digest}"
    manifest = final / "bench_manifest.jsonl"
    if not manifest.is_file():
        staging = cache / f".staging-{workload.name}-s{seed}-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        generated = generate_corpus(
            staging, seed=seed, n_per_class=workload.per_class, duration=workload.duration
        )
        rows = [json.loads(line) for line in generated.read_text("utf-8").splitlines() if line]
        rows = _rewrite(rows, workload, np.random.default_rng(seed + 7919))
        (staging / manifest.name).write_text(
            "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
        )
        shutil.rmtree(final, ignore_errors=True)
        staging.rename(final)
    test = []
    for line in manifest.read_text("utf-8").splitlines():
        row = json.loads(line)
        if row["split"] == "test":
            test.append({"audio": final / row["audio"], "text": row["text"], "label": row["label"]})
    return Inputs(manifest=manifest, test=test)

"""Synthetic six-class corpus with disjoint modality cues.

Three classes (angry, happy, sad) differ only in their audio signature:
loudness, burstiness, and silence fraction; their transcripts are drawn from
one shared filler pool. The other three (fear, surprise, neutral) share a
single audio distribution and differ only through class-exclusive keywords
in the transcript. Audio-only models can therefore separate the first group
but not the second, text-only models the reverse, and fusing both cues
should beat either alone.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .audio_io import check_wav_rate, encode_wav
from .errors import ParameterError

AUDIO_CUE_CLASSES = ("angry", "happy", "sad")
TEXT_CUE_CLASSES = ("fear", "surprise", "neutral")

# (amplitude range, silence-fraction range); text classes all use _SHARED_AUDIO
_AUDIO_PROFILES = {
    "angry": ((0.75, 0.90), (0.00, 0.10)),
    "happy": ((0.65, 0.80), (0.35, 0.45)),
    "sad": ((0.15, 0.30), (0.55, 0.65)),
}
_SHARED_AUDIO = ((0.45, 0.55), (0.25, 0.32))

_FILLER = (
    "the", "we", "went", "to", "store", "again", "today", "and", "then",
    "it", "was", "time", "for", "them", "over", "there", "with", "some",
    "other", "people", "before", "after", "while", "talking",
)

_KEYWORDS = {
    "fear": ("terrified", "dread", "shiver", "panic"),
    "surprise": ("astonished", "unexpected", "stunned", "gasp"),
    "neutral": ("routine", "ordinary", "schedule", "plain"),
}


def _render_clip(rng: np.random.Generator, label: str, sample_rate: int, duration: float) -> np.ndarray:
    (amp_lo, amp_hi), (sil_lo, sil_hi) = _AUDIO_PROFILES.get(label, _SHARED_AUDIO)
    amp = rng.uniform(amp_lo, amp_hi)
    silence = rng.uniform(sil_lo, sil_hi)
    freq = rng.uniform(120.0, 350.0)
    n = int(round(sample_rate * duration))
    t = np.arange(n) / sample_rate
    phase = rng.uniform(0.0, 2.0 * np.pi)
    samples = amp * np.sin(2.0 * np.pi * freq * t + phase)
    samples += 0.02 * amp * rng.standard_normal(n)

    n_silent = int(round(silence * n))
    if n_silent > 0:
        start = int(rng.integers(0, n - n_silent + 1))
        samples[start : start + n_silent] = 0.0
    return np.clip(samples, -1.0, 1.0)


def _render_text(rng: np.random.Generator, label: str) -> str:
    words = list(rng.choice(_FILLER, size=int(rng.integers(6, 11))))
    if label in _KEYWORDS:
        pool = _KEYWORDS[label]
        for _ in range(int(rng.integers(2, 4))):
            kw = pool[int(rng.integers(0, len(pool)))]
            words.insert(int(rng.integers(0, len(words) + 1)), kw)
    return " ".join(words)


#: The most samples one clip may hold: 2**24, about 17 minutes at 16 kHz. Each
#: clip is rendered as several float64 arrays of that length.
MAX_CLIP_SAMPLES = 2**24


def generate_corpus(
    out_dir: str | Path,
    seed: int = 0,
    n_per_class: int = 100,
    sample_rate: int = 16000,
    duration: float = 0.6,
) -> Path:
    """Write wavs plus manifest.jsonl and meta.json; returns the manifest path.
    ParameterError, before any file is written, for settings out of range,
    among them clips of more than ``MAX_CLIP_SAMPLES`` samples."""
    check_wav_rate(sample_rate, 16)  # first, so that the rate is small enough for a float
    n_samples = sample_rate * duration if np.isfinite(duration) else 0.0
    if not (seed >= 0 and n_per_class >= 1 and np.isfinite(n_samples)
            and 1 <= round(n_samples) <= MAX_CLIP_SAMPLES):
        raise ParameterError(f"corpus needs seed >= 0, per-class >= 1, 1 to {MAX_CLIP_SAMPLES} "
                             f"samples per clip; got {seed}, {n_per_class}, {sample_rate}, "
                             f"{duration}")
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    labels = list(AUDIO_CUE_CLASSES + TEXT_CUE_CLASSES)
    records = []
    for label in labels:
        for i in range(n_per_class):
            samples = _render_clip(rng, label, sample_rate, duration)
            name = f"{label}_{i:03d}.wav"
            encode_wav(wav_dir / name, samples, sample_rate, bits=16)
            records.append(
                {"audio": f"wavs/{name}", "text": _render_text(rng, label), "label": label}
            )

    order = rng.permutation(len(records))
    manifest_path = out_dir / "manifest.jsonl"
    with manifest_path.open("w", encoding="utf-8") as fh:
        for i in order:
            fh.write(json.dumps(records[i]) + "\n")

    meta = {
        "seed": seed,
        "n_per_class": n_per_class,
        "sample_rate": sample_rate,
        "duration": duration,
        "audio_cue_classes": list(AUDIO_CUE_CLASSES),
        "text_cue_classes": list(TEXT_CUE_CLASSES),
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return manifest_path

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from emoforge._blas import openblas
from emoforge.audio_io import AudioClip, encode_wav


@pytest.fixture(autouse=True)
def blas_threads_unchanged():
    """Fail any test that leaves numpy's OpenBLAS thread count changed, and
    set it back so the next test starts from the same count."""
    lib = openblas()
    if lib is None:
        yield
        return
    before = lib.get_num_threads()
    yield
    after = lib.get_num_threads()
    if after != before:
        lib.set_num_threads(before)
        pytest.fail(f"the test left numpy's OpenBLAS on {after} threads, not {before}")


def make_tone(freq: float, sample_rate: int = 22050, duration: float = 0.5,
              amplitude: float = 1.0, phase: float = 0.0) -> AudioClip:
    t = np.arange(int(round(sample_rate * duration))) / sample_rate
    samples = amplitude * np.sin(2 * np.pi * freq * t + phase)
    return AudioClip(samples=samples, sample_rate=sample_rate, source_id=f"tone{freq:g}")


def write_manifest(tmp_path: Path, rows: list[dict], sample_rate: int = 8000) -> Path:
    """Write a manifest plus a tiny wav per row; rows need text/label and may
    set 'samples' (defaults to a short ramp) and 'split'."""
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir(exist_ok=True)
    manifest = tmp_path / "manifest.jsonl"
    with manifest.open("w", encoding="utf-8") as fh:
        for i, row in enumerate(rows):
            name = f"clip_{i:03d}.wav"
            samples = row.get("samples")
            if samples is None:
                samples = 0.2 * np.sin(np.linspace(0, 40, 1600))
            encode_wav(wav_dir / name, samples, sample_rate)
            entry = {"audio": f"wavs/{name}", "text": row["text"], "label": row["label"]}
            if "split" in row:
                entry["split"] = row["split"]
            fh.write(json.dumps(entry) + "\n")
    return manifest


MANIFEST_ROWS = [
    {"text": "hello there", "label": "sad", "split": "train"},
    {"text": "so glad", "label": "happy", "split": "train"},
    {"text": "why me", "label": "sad", "split": "test"},
    {"text": "great news", "label": "excited", "split": "test"},
]

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=5,
)


@st.composite
def mutated_manifest(draw):
    """The bytes of a manifest of MANIFEST_ROWS, whose wavs ``write_manifest``
    writes, with fields set to other JSON values or deleted, other JSON
    values as whole lines, and single bytes replaced."""
    rows = [{"audio": f"wavs/clip_{i:03d}.wav", **row} for i, row in enumerate(MANIFEST_ROWS)]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        key = draw(st.sampled_from(["audio", "text", "label", "split"]))
        if draw(st.booleans()):
            row.pop(key, None)
        else:
            row[key] = draw(_JSON_VALUES | st.sampled_from(
                ["wavs/clip_001.wav", "wavs", "", "angry", "bored", "test", "TRAIN"]))
    lines = [json.dumps(row).encode() for row in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), json.dumps(draw(_JSON_VALUES)).encode())
    data = bytearray(b"\n".join(lines) + b"\n")
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    """A directory holding the wavs of MANIFEST_ROWS, for ``mutated_manifest``."""
    root = tmp_path_factory.mktemp("manifest-fuzz")
    write_manifest(root, MANIFEST_ROWS)
    return root


@pytest.fixture(scope="session")
def synth_corpus(tmp_path_factory):
    """Small shared synthetic corpus for pipeline and CLI tests."""
    from emoforge.synth import generate_corpus

    root = tmp_path_factory.mktemp("corpus")
    manifest = generate_corpus(root, seed=11, n_per_class=12)
    return manifest


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """A 24-clip synthetic corpus, four clips per class, for tests that count
    what one run does rather than how well it scores."""
    from emoforge.synth import generate_corpus

    return generate_corpus(tmp_path_factory.mktemp("tiny-corpus"), seed=11, n_per_class=4)


#: Light e2 hyperparameters for runs that only count what they do.
E2_LIGHT_HP = {"rf": {"n_trees": 3, "max_depth": 3}, "xgb": {"n_rounds": 2},
               "mlp": {"epochs": 3, "hidden_sizes": (4,)}, "lr": {"epochs": 3}}

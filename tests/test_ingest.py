import json

import pytest
from hypothesis import given, settings

from emoforge import ingest
from emoforge.errors import (
    DataError,
    DegenerateClassError,
    ManifestError,
    SplitError,
    UnknownLabelError,
)
from emoforge.ingest import (
    Dataset,
    EmotionLabel,
    Example,
    build_dataset,
    class_histogram,
    load_manifest,
    map_label,
    resolve_clip,
    split,
    split_by_hint,
    upsample,
)

from conftest import mutated_manifest, write_manifest


def _dataset(counts: dict[EmotionLabel, int], class_mode="six") -> Dataset:
    examples = []
    for label, n in counts.items():
        for i in range(n):
            examples.append(Example(label=label, source_id=f"{label.value}_{i}"))
    return Dataset(examples=examples, class_mode=class_mode)


# --- label mapping


def test_excited_merges_into_happy():
    assert map_label("excited") is EmotionLabel.HAPPY


def test_others_and_frustration_are_dropped():
    assert map_label("others") is None
    assert map_label("frustration") is None


def test_fear_dropped_in_four_class_mode():
    assert map_label("fear", "four") is None
    assert map_label("surprise", "four") is None
    assert map_label("fear", "six") is EmotionLabel.FEAR


def test_direct_labels_map_to_enum():
    for raw in ("angry", "happy", "sad", "fear", "surprise", "neutral"):
        assert map_label(raw).value == raw


def test_unknown_label_raises():
    with pytest.raises(UnknownLabelError):
        map_label("bored")


def test_map_label_total_and_admissible():
    from emoforge.ingest import LABEL_ALPHABET, classes_for_mode

    for mode in ("six", "four"):
        admissible = set(classes_for_mode(mode))
        for raw in LABEL_ALPHABET:
            label = map_label(raw, mode)
            assert label is None or label in admissible


# --- manifest loading


def test_manifest_roundtrip(tmp_path):
    manifest = write_manifest(
        tmp_path,
        [
            {"text": "hello there", "label": "happy"},
            {"text": "go away", "label": "angry", "split": "test"},
        ],
    )
    entries = load_manifest(manifest)
    assert len(entries) == 2
    assert entries[0].transcript == "hello there"
    assert entries[1].split_hint == "test"
    ds = build_dataset(entries)
    assert [ex.label for ex in ds.examples] == [EmotionLabel.HAPPY, EmotionLabel.ANGRY]
    assert len(resolve_clip(ds.examples[0].audio)) == 1600


def test_build_dataset_reads_no_wav(tmp_path, monkeypatch):
    # a clip is decoded where it is featurized, so a dataset holds paths only
    manifest = write_manifest(tmp_path, [{"text": "a", "label": "sad"}])

    def no_decode(path):
        raise AssertionError(f"{path} decoded by build_dataset")

    monkeypatch.setattr(ingest, "decode_wav", no_decode)
    ds = build_dataset(load_manifest(manifest))
    assert ds.examples[0].audio == tmp_path / "wavs" / "clip_000.wav"


def test_manifest_missing_audio(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({"audio": "nope.wav", "text": "x", "label": "sad"}) + "\n")
    with pytest.raises(ManifestError):
        load_manifest(manifest)


def test_manifest_bad_json(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("{not json\n")
    with pytest.raises(ManifestError, match=":1:"):
        load_manifest(manifest)


def test_manifest_bad_split_value(tmp_path):
    manifest = write_manifest(tmp_path, [{"text": "x", "label": "sad"}])
    row = json.loads(manifest.read_text())
    row["split"] = "validation"
    manifest.write_text(json.dumps(row) + "\n")
    with pytest.raises(ManifestError):
        load_manifest(manifest)


@pytest.mark.parametrize("line", [
    b'{"audio": "wavs/clip_000.wav", "text": "caf\xe9", "label": "sad"}',
    b"1",
    b"null",
    b'["wavs/clip_000.wav", "x", "sad"]',
    b'{"audio": true, "text": "x", "label": "sad"}',
    b'{"audio": "wavs/clip_000.wav", "text": null, "label": "sad"}',
    b'{"audio": "wavs/clip_000.wav", "text": "x", "label": 3}',
    b'{"audio": "wavs/clip_000.wav", "text": "x", "label": "sad", "n": 1' + b"0" * 5000 + b"}",
    b"[" * 100_000,
    b'{"audio": "' + b"a" * 300 + b'.wav", "text": "x", "label": "sad"}',
], ids=["latin1-byte", "number", "null", "array", "audio-bool", "text-null", "label-int",
        "huge-integer", "deep-nesting", "long-file-name"])
def test_manifest_malformed_line_is_manifest_error(tmp_path, line):
    manifest = write_manifest(tmp_path, [{"text": "x", "label": "sad"}])
    manifest.write_bytes(manifest.read_bytes() + line + b"\n")
    with pytest.raises(ManifestError, match=":2:"):
        load_manifest(manifest)


def test_manifest_keeps_text_line_breaks(tmp_path):
    manifest = write_manifest(tmp_path, [{"text": t, "label": "sad"} for t in ("a", "b")])
    lines = manifest.read_bytes().splitlines()
    manifest.write_bytes(lines[0] + b"\r\n\r\n" + lines[1] + b"\r")
    assert [e.transcript for e in load_manifest(manifest)] == ["a", "b"]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=mutated_manifest())
def test_mutated_manifest_raises_only_data_errors(manifest_dir, data):
    path = manifest_dir / "fuzzed.jsonl"
    path.write_bytes(data)
    try:
        entries = load_manifest(path)
        for ex in build_dataset(entries).examples:
            resolve_clip(ex.audio)
    except DataError:
        return
    for entry in entries:
        assert isinstance(entry.transcript, str) and isinstance(entry.raw_label, str)


def test_dropped_labels_leave_dataset(tmp_path):
    manifest = write_manifest(
        tmp_path,
        [
            {"text": "a", "label": "others"},
            {"text": "b", "label": "excited"},
            {"text": "c", "label": "frustration"},
        ],
    )
    ds = build_dataset(load_manifest(manifest))
    assert [ex.label for ex in ds.examples] == [EmotionLabel.HAPPY]


def test_split_by_hint_all_or_nothing(tmp_path):
    manifest = write_manifest(
        tmp_path,
        [
            {"text": "a", "label": "sad", "split": "train"},
            {"text": "b", "label": "happy"},
        ],
    )
    with pytest.raises(ManifestError):
        split_by_hint(load_manifest(manifest))


# --- splitting


def test_split_sizes_80_20():
    ds = _dataset({EmotionLabel.SAD: 10})
    train, test = split(ds, 0.8, seed=1)
    assert (len(train), len(test)) == (8, 2)


def test_split_half_of_two():
    ds = _dataset({EmotionLabel.SAD: 2})
    train, test = split(ds, 0.5, seed=0)
    assert (len(train), len(test)) == (1, 1)


def test_split_deterministic_and_partitioning():
    ds = _dataset({EmotionLabel.SAD: 7, EmotionLabel.ANGRY: 6})
    a_train, a_test = split(ds, 0.7, seed=42)
    b_train, b_test = split(ds, 0.7, seed=42)
    ids = lambda d: [ex.source_id for ex in d.examples]
    assert ids(a_train) == ids(b_train) and ids(a_test) == ids(b_test)
    assert sorted(ids(a_train) + ids(a_test)) == sorted(ids(ds))
    assert not set(ids(a_train)) & set(ids(a_test))


def test_split_empty_partition_raises():
    ds = _dataset({EmotionLabel.SAD: 1})
    with pytest.raises(SplitError):
        split(ds, 0.8, seed=0)


# --- upsampling


def test_upsample_balanced_unchanged():
    ds = _dataset({EmotionLabel.ANGRY: 10, EmotionLabel.HAPPY: 10})
    for rho in (0.1, 0.5, 1.0):
        out = upsample(ds, seed=0, rho=rho)
        assert len(out) == 20


def test_upsample_grows_minority_to_target():
    ds = _dataset({EmotionLabel.ANGRY: 10, EmotionLabel.HAPPY: 2})
    out = upsample(ds, seed=0, rho=0.5)
    counts = class_histogram(out)
    assert counts[EmotionLabel.ANGRY] == 10
    assert counts[EmotionLabel.HAPPY] == 5


def test_upsample_deterministic_order():
    ds = _dataset({EmotionLabel.ANGRY: 9, EmotionLabel.HAPPY: 2, EmotionLabel.SAD: 3})
    a = [ex.source_id for ex in upsample(ds, seed=5).examples]
    b = [ex.source_id for ex in upsample(ds, seed=5).examples]
    assert a == b


def test_upsample_rho_zero_keeps_the_same_examples_in_order():
    ds = _dataset({EmotionLabel.ANGRY: 8, EmotionLabel.HAPPY: 1, EmotionLabel.SAD: 3})
    out = upsample(ds, seed=3, rho=0.0)
    assert len(out.examples) == len(ds.examples)
    assert all(a is b for a, b in zip(out.examples, ds.examples))


def test_upsample_keeps_originals_and_adds_only_copies():
    ds = _dataset({EmotionLabel.ANGRY: 8, EmotionLabel.HAPPY: 1})
    out = upsample(ds, seed=3, rho=1.0)
    assert [ex.source_id for ex in out.examples[: len(ds)]] == [
        ex.source_id for ex in ds.examples
    ]
    originals = {ex.source_id for ex in ds.examples}
    assert all(ex.source_id in originals for ex in out.examples)


def test_upsample_degenerate_cases():
    with pytest.raises(DegenerateClassError):
        upsample(Dataset(examples=[]), seed=0)


# --- histogram


def test_histogram_empty_is_all_zeros():
    counts = class_histogram(Dataset(examples=[]))
    assert set(counts.values()) == {0}
    assert len(counts) == 6


def test_histogram_counts_and_total():
    ds = _dataset({EmotionLabel.SAD: 3})
    counts = class_histogram(ds)
    assert counts[EmotionLabel.SAD] == 3
    assert sum(counts.values()) == len(ds)


def test_histogram_four_class_mode_keys():
    ds = _dataset({EmotionLabel.SAD: 1}, class_mode="four")
    assert len(class_histogram(ds)) == 4

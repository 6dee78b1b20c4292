import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoforge.audio_features import extract_audio_features
from emoforge.audio_io import decode_wav, encode_wav
from emoforge.errors import AudioFormatError, DataError, EmptyAudioError, UnsupportedAudioError


def _raw_wav(fmt_code, channels, sample_rate, bits, payload):
    block = channels * (bits // 8)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, fmt_code, channels, sample_rate, sample_rate * block, block, bits,
        b"data", len(payload),
    )
    return header + payload


_GUID_TAIL = bytes.fromhex("0000 1000 8000 00aa00389b71")


def _as_extensible(plain: bytes, guid: bytes | None = None, fmt_size: int = 40) -> bytes:
    """``plain`` (a ``_raw_wav``/``encode_wav`` file) with its fmt chunk
    rewritten as WAVE_FORMAT_EXTENSIBLE, cut to ``fmt_size`` bytes."""
    code, channels, rate, byte_rate, block, bits = struct.unpack_from("<HHIIHH", plain, 20)
    if guid is None:
        guid = struct.pack("<I", code) + _GUID_TAIL
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, channels, rate, byte_rate, block, bits,
                      22, bits, 0x4) + guid
    fmt = fmt[:fmt_size] + b"\0" * (fmt_size & 1)
    body = b"WAVE" + b"fmt " + struct.pack("<I", fmt_size) + fmt + plain[36:]
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_16bit_constant_scaling(tmp_path):
    path = tmp_path / "const.wav"
    payload = struct.pack("<100h", *([16384] * 100))
    path.write_bytes(_raw_wav(1, 1, 8000, 16, payload))
    clip = decode_wav(path)
    assert clip.sample_rate == 8000
    assert np.allclose(clip.samples, 0.5, atol=2**-15)


def test_stereo_downmix_cancels(tmp_path):
    path = tmp_path / "stereo.wav"
    frames = []
    for _ in range(50):
        frames += [16384, -16384]  # +0.5 left, -0.5 right
    payload = struct.pack(f"<{len(frames)}h", *frames)
    path.write_bytes(_raw_wav(1, 2, 8000, 16, payload))
    clip = decode_wav(path)
    assert len(clip) == 50
    assert np.all(clip.samples == 0.0)


def test_full_scale_sine_roundtrip(tmp_path):
    sr = 44100
    t = np.arange(sr // 2) / sr
    source = np.sin(2 * np.pi * 440.0 * t)
    path = tmp_path / "sine.wav"
    encode_wav(path, source, sr, bits=16)
    clip = decode_wav(path)
    assert clip.sample_rate == sr
    assert np.max(np.abs(clip.samples - source)) <= 1.0 / 32768
    assert 0.99 <= np.max(np.abs(clip.samples)) <= 1.0


@pytest.mark.parametrize(
    "bits,float_format,step",
    [(8, False, 1 / 128), (16, False, 1 / 32768), (24, False, 2**-23), (32, True, 2**-23)],
)
def test_roundtrip_within_one_step(tmp_path, bits, float_format, step):
    rng = np.random.default_rng(bits)
    source = rng.uniform(-1, 1, size=333)
    path = tmp_path / f"rt{bits}.wav"
    encode_wav(path, source, 16000, bits=bits, float_format=float_format)
    clip = decode_wav(path)
    assert len(clip) == source.size
    assert np.max(np.abs(clip.samples - source)) <= step


def test_not_riff_is_format_error(tmp_path):
    path = tmp_path / "bogus.wav"
    path.write_bytes(b"OggS" + b"\x00" * 64)
    with pytest.raises(AudioFormatError):
        decode_wav(path)


def test_truncated_chunk_is_format_error(tmp_path):
    path = tmp_path / "trunc.wav"
    good = _raw_wav(1, 1, 8000, 16, struct.pack("<10h", *range(10)))
    path.write_bytes(good[:-12])
    with pytest.raises(AudioFormatError):
        decode_wav(path)


def test_unsupported_encoding(tmp_path):
    path = tmp_path / "i32.wav"
    path.write_bytes(_raw_wav(1, 1, 8000, 32, b"\x00" * 32))  # 32-bit int PCM
    with pytest.raises(UnsupportedAudioError):
        decode_wav(path)
    path.write_bytes(_raw_wav(1, 4, 8000, 16, b"\x00" * 32))  # 4 channels
    with pytest.raises(UnsupportedAudioError):
        decode_wav(path)


def test_empty_data_chunk(tmp_path):
    path = tmp_path / "empty.wav"
    path.write_bytes(_raw_wav(1, 1, 8000, 16, b""))
    with pytest.raises(EmptyAudioError):
        decode_wav(path)


def test_float_wav_is_clipped(tmp_path):
    path = tmp_path / "hot.wav"
    payload = np.array([1.5, -2.0, 0.25], dtype="<f4").tobytes()
    path.write_bytes(_raw_wav(3, 1, 8000, 32, payload))
    clip = decode_wav(path)
    assert np.array_equal(clip.samples, [1.0, -1.0, 0.25])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_float_wav_rejects_non_finite_samples(tmp_path, bad):
    path = tmp_path / "bad.wav"
    payload = np.array([0.5, bad, 0.25], dtype="<f4").tobytes()
    path.write_bytes(_raw_wav(3, 1, 8000, 32, payload))
    with pytest.raises(AudioFormatError, match="bad.wav"):
        decode_wav(path)


@pytest.mark.parametrize("bits, float_format", [(16, False), (24, False), (32, True)],
                         ids=["pcm16", "pcm24", "float32"])
def test_extensible_decodes_like_plain_format(tmp_path, bits, float_format):
    rng = np.random.default_rng(bits)
    plain = tmp_path / "plain.wav"
    encode_wav(plain, rng.uniform(-1, 1, size=301), 16000, bits=bits, float_format=float_format)
    extensible = tmp_path / "extensible.wav"
    extensible.write_bytes(_as_extensible(plain.read_bytes()))
    expected, clip = decode_wav(plain), decode_wav(extensible)
    assert clip.sample_rate == expected.sample_rate == 16000
    assert np.array_equal(clip.samples, expected.samples)


@pytest.mark.parametrize("guid", [
    struct.pack("<I", 2) + _GUID_TAIL,  # ADPCM
    struct.pack("<I", 1) + _GUID_TAIL[:-1] + b"\x72",  # PCM code, foreign tail
    bytes(16),
], ids=["adpcm", "foreign-tail", "zeros"])
def test_extensible_other_subformat_unsupported(tmp_path, guid):
    path = tmp_path / "other.wav"
    path.write_bytes(_as_extensible(_BASE_WAVS["pcm16"], guid=guid))
    with pytest.raises(UnsupportedAudioError):
        decode_wav(path)


@pytest.mark.parametrize("fmt_size", [16, 18, 24, 39])
def test_extensible_short_fmt_chunk_is_format_error(tmp_path, fmt_size):
    path = tmp_path / "short.wav"
    path.write_bytes(_as_extensible(_BASE_WAVS["pcm16"], fmt_size=fmt_size))
    with pytest.raises(AudioFormatError, match="extensible"):
        decode_wav(path)


# --- mutated and truncated WAV bytes

_SOURCE = 0.6 * np.sin(np.linspace(0.0, 60.0, 600))
_BASE_WAVS = {
    "pcm8": _raw_wav(1, 1, 8000, 8, (np.round(_SOURCE * 127) + 128).astype(np.uint8).tobytes()),
    "pcm16": _raw_wav(1, 1, 8000, 16, np.round(_SOURCE * 32767).astype("<i2").tobytes()),
    "pcm24": _raw_wav(
        1, 1, 8000, 24,
        b"".join(int(v).to_bytes(3, "little", signed=True) for v in np.round(_SOURCE * 8388607)),
    ),
    "float32": _raw_wav(3, 1, 8000, 32, _SOURCE.astype("<f4").tobytes()),
}
_BASE_WAVS["extensible16"] = _as_extensible(_BASE_WAVS["pcm16"])


@st.composite
def _mutated_wav(draw):
    data = bytearray(_BASE_WAVS[draw(st.sampled_from(sorted(_BASE_WAVS)))])
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            # half the byte edits land in the 44-byte header, where one byte decides the most
            pos = draw(st.one_of(st.integers(0, 43), st.integers(0, len(data) - 1)))
            data[pos] = draw(st.integers(0, 255))
        else:
            # an aligned float32 word: drawn floats favour NaN, infinities and extremes
            pos = 4 * draw(st.integers(0, len(data) // 4 - 1))
            data[pos : pos + 4] = struct.pack("<f", draw(st.floats(width=32)))
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))) :]
    return bytes(data)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "clip.wav"


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=_mutated_wav())
def test_mutated_wav_raises_only_data_errors(fuzz_path, data):
    fuzz_path.write_bytes(data)
    try:
        extract_audio_features(decode_wav(fuzz_path))
    except DataError:
        pass

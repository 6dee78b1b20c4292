import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoforge.audio_features import extract_audio_features
from emoforge.audio_io import AudioClip, decode_wav, encode_wav
from emoforge.errors import (
    AudioFormatError, DataError, EmptyAudioError, ParameterError, UnsupportedAudioError,
)


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


def _pcm_codes(bits):
    """Every signed 8- and 16-bit code; for 24 bits every 256th code plus the edges."""
    top = 1 << (bits - 1)
    if bits < 24:
        return list(range(-top, top))
    return [*range(-top, top, 256), -top + 1, -1, 0, 1, top - 2, top - 1]


def _pcm_bytes(bits, code):
    if bits == 8:
        return bytes([code + 128])  # offset binary
    return code.to_bytes(bits // 8, "little", signed=True)


@pytest.mark.parametrize("bits", [8, 16, 24])
@pytest.mark.parametrize("channels, trailing", [(1, False), (2, False), (1, True), (2, True)],
                         ids=["mono", "stereo", "mono-odd-byte", "stereo-odd-byte"])
def test_pcm_decode_is_code_over_half_range(tmp_path, bits, channels, trailing):
    # every code (or the 24-bit sweep) decodes to code / 2**(bits-1), computed
    # with Python ints; stereo interleaves the codes with their reverse
    scale = 1 << (bits - 1)
    codes = _pcm_codes(bits)
    if channels == 2:
        codes = [c for pair in zip(codes, reversed(codes)) for c in pair]
    payload = b"".join(_pcm_bytes(bits, c) for c in codes)
    if trailing:
        payload += b"\x7f"  # at 8 bits a whole sample, at 16 and 24 a partial one
        if bits == 8:
            codes.append(0x7F - 128)
    path = tmp_path / "codes.wav"
    path.write_bytes(_raw_wav(1, channels, 8000, bits, payload))
    samples = decode_wav(path).samples
    if channels == 1:
        want = [c / scale for c in codes]
    else:
        want = [(a / scale + b / scale) / 2 for a, b in zip(codes[0::2], codes[1::2])]
    assert samples.tolist() == want


@pytest.mark.parametrize("bits", [8, 16, 24])
def test_pcm_encode_matches_struct_pack_of_round_half_up(tmp_path, bits):
    # ±1, every half step (every 256th at 24 bits), values out of range and
    # a uniform grid, against floor(clip(x) * 2**(bits-1) + 0.5) packed by struct
    scale = 1 << (bits - 1)
    halves = [(c + 0.5) / scale for c in _pcm_codes(bits)]
    edges = [1.0, -1.0, 0.0, -0.0, 1.5, -1.5, 1e300, -1e300, np.inf, -np.inf,
             1 - 0.5 / scale, -1 + 0.5 / scale, 5e-324, -5e-324]
    grid = [*halves, *edges, *np.linspace(-1.25, 1.25, 4001).tolist()]
    path = tmp_path / "grid.wav"
    encode_wav(path, np.array(grid), 16000, bits=bits)
    payload = b""
    for x in grid:
        code = min(scale - 1, max(-scale, math.floor(min(1.0, max(-1.0, x)) * scale + 0.5)))
        payload += struct.pack("<B", code + 128) if bits == 8 else struct.pack("<i", code)[
            : bits // 8]
    assert path.read_bytes() == _raw_wav(1, 1, 16000, bits, payload)


@pytest.mark.parametrize("bits, float_format", [(8, False), (16, False), (24, False), (32, True)])
def test_encode_rejects_nan_samples(tmp_path, bits, float_format):
    # a NaN has no integer code, and a float file holding one would not decode
    path = tmp_path / "nan.wav"
    with pytest.raises(ParameterError, match="NaN"):
        encode_wav(path, np.array([0.5, np.nan, -0.5]), 16000, bits=bits,
                   float_format=float_format)
    assert not path.exists()


def test_not_riff_is_format_error(tmp_path):
    path = tmp_path / "bogus.wav"
    path.write_bytes(b"OggS" + b"\x00" * 64)
    with pytest.raises(AudioFormatError):
        decode_wav(path)


@pytest.mark.parametrize("data", [
    _raw_wav(1, 1, 8000, 16, b"")[:36],  # a fmt chunk and no data chunk
    _raw_wav(1, 1, 0, 16, struct.pack("<4h", 1, 2, 3, 4)),
], ids=["no-data-chunk", "rate-zero"])
def test_header_without_data_or_rate_is_format_error(tmp_path, data):
    path = tmp_path / "bad.wav"
    path.write_bytes(data)
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


@pytest.mark.parametrize("rate, bits", [
    (2**32, 8), (2**31, 16), (2**32 // 3 + 1, 24), (2**30, 32), (0, 16),
], ids=["rate-8bit", "byte-rate-16bit", "byte-rate-24bit", "byte-rate-float", "rate-zero"])
def test_encode_rejects_a_rate_the_header_cannot_hold(tmp_path, rate, bits):
    # the header's sample-rate and byte-rate fields are unsigned 32-bit
    path = tmp_path / "x.wav"
    with pytest.raises(ParameterError):
        encode_wav(path, np.zeros(4), rate, bits=bits, float_format=bits == 32)
    assert not path.exists()
    top = (2**32 - 1) // (bits // 8)
    encode_wav(path, np.zeros(4), top, bits=bits, float_format=bits == 32)
    assert decode_wav(path).sample_rate == top


@pytest.mark.parametrize("bits, float_format", [(16, True), (12, False)],
                         ids=["float-16bit", "pcm-12bit"])
def test_encode_rejects_a_format_it_cannot_write(tmp_path, bits, float_format):
    path = tmp_path / "x.wav"
    with pytest.raises(ParameterError):
        encode_wav(path, np.zeros(4), 16000, bits=bits, float_format=float_format)
    assert not path.exists()


@pytest.mark.parametrize("samples, rate", [(np.zeros(0), 8000), (np.array([0.5, np.nan]), 8000),
                                           (np.zeros(4), 0)], ids=["empty", "nan", "rate-zero"])
def test_audio_clip_rejects_empty_or_nan_samples_and_rate_zero(samples, rate):
    with pytest.raises(ParameterError):
        AudioClip(samples, rate)


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

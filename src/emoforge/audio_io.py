"""RIFF/WAVE decoding and encoding.

Supports the uncompressed subset needed here: PCM integer at 8/16/24 bit,
IEEE float at 32 bit, mono or stereo, in a plain fmt chunk or in a
WAVE_FORMAT_EXTENSIBLE (0xFFFE) one whose subformat GUID names PCM or IEEE
float. Decoded samples are normalized to [-1, 1]; stereo is downmixed by
channel mean. Spec: RIFF chunks as in
http://soundfile.sapp.org/doc/WaveFormat/ with the fmt/data chunk walk
generalized (extra chunks are skipped, odd chunks are padded).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AudioFormatError, DataError, EmptyAudioError, ParameterError, UnsupportedAudioError,
)

_FORMAT_PCM = 1
_FORMAT_IEEE_FLOAT = 3
_FORMAT_EXTENSIBLE = 0xFFFE
# an extensible fmt chunk's subformat GUID is a 32-bit format code followed
# by these 12 bytes (KSDATAFORMAT_SUBTYPE_PCM is {00000001-0000-0010-8000-00AA00389B71})
_SUBFORMAT_GUID_TAIL = bytes.fromhex("0000 1000 8000 00aa00389b71")


@dataclass(frozen=True)
class AudioClip:
    """Decoded mono signal with its sample rate.

    samples are dimensionless amplitudes in [-1, 1]; source_id is an opaque
    identifier (usually the file stem) used for caching and CSV dumps.
    """

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ParameterError("AudioClip requires a non-empty 1-D sample array")
        if not np.isfinite(samples).all():
            raise ParameterError("AudioClip samples must be finite")
        if self.sample_rate <= 0:
            raise ParameterError("AudioClip sample_rate must be positive")

    def __len__(self) -> int:
        return int(self.samples.size)


def _read_chunks(data: bytes):
    """Yield (chunk_id, payload) for every top-level RIFF sub-chunk."""
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        payload = data[pos + 8 : pos + 8 + size]
        if len(payload) < size:
            raise AudioFormatError(f"chunk {cid!r} truncated: claims {size} bytes")
        yield cid, payload
        pos += 8 + size + (size & 1)  # chunks are word-aligned


def _subformat(path: Path, fmt_chunk: bytes) -> int:
    """The plain format code that an extensible fmt chunk's GUID names."""
    if len(fmt_chunk) < 40:
        raise AudioFormatError(f"{path}: extensible fmt chunk too short")
    guid = fmt_chunk[24:40]
    (code,) = struct.unpack_from("<I", guid)
    if guid[4:] != _SUBFORMAT_GUID_TAIL or code not in (_FORMAT_PCM, _FORMAT_IEEE_FLOAT):
        raise UnsupportedAudioError(f"{path}: extensible subformat {guid.hex()} unsupported")
    return code


def decode_wav(path: str | Path) -> AudioClip:
    """Decode a WAV file into a normalized mono AudioClip.

    A WAVE_FORMAT_EXTENSIBLE file decodes exactly like the plain format its
    subformat GUID names. Raises DataError for a file that cannot be read,
    AudioFormatError for a malformed container (an extensible fmt chunk
    shorter than 40 bytes among them) or a NaN or infinite float sample,
    UnsupportedAudioError for encodings outside PCM
    8/16/24-bit int and 32-bit float (1-2 channels) or any other subformat,
    and EmptyAudioError when the data chunk holds no frames.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read WAV {path}: {exc}") from exc
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise AudioFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    pcm = None
    for cid, payload in _read_chunks(data):
        if cid == b"fmt ":
            if len(payload) < 16:
                raise AudioFormatError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", payload, 0)
            if fmt[0] == _FORMAT_EXTENSIBLE:
                fmt = (_subformat(path, payload), *fmt[1:])
        elif cid == b"data":
            pcm = payload
            if fmt is not None:
                break
    if fmt is None:
        raise AudioFormatError(f"{path}: missing fmt chunk")
    if pcm is None:
        raise AudioFormatError(f"{path}: missing data chunk")

    audio_format, n_channels, sample_rate, _byte_rate, block_align, bits = fmt
    if n_channels not in (1, 2):
        raise UnsupportedAudioError(f"{path}: {n_channels} channels unsupported")
    if sample_rate <= 0:
        raise AudioFormatError(f"{path}: invalid sample rate {sample_rate}")

    if audio_format == _FORMAT_PCM and bits in (8, 16, 24):
        # little-endian, top byte signed (8-bit PCM is offset binary: its top bit
        # is flipped first); codes are built in place in float64, which is exact
        width = bits // 8
        b = np.frombuffer(pcm, np.uint8, len(pcm) - len(pcm) % width).reshape(-1, width)
        samples = (b[:, -1] ^ 0x80 if bits == 8 else b[:, -1]).view(np.int8).astype(np.float64)
        for k in range(width - 2, -1, -1):
            samples *= 256.0
            samples += b[:, k]
        samples /= float(1 << (bits - 1))
    elif audio_format == _FORMAT_IEEE_FLOAT and bits == 32:
        usable = len(pcm) - (len(pcm) % 4)
        samples = np.frombuffer(pcm[:usable], dtype="<f4").astype(np.float64)
        if not np.isfinite(samples).all():
            raise AudioFormatError(f"{path}: float samples must be finite")
        samples = np.clip(samples, -1.0, 1.0)
    else:
        raise UnsupportedAudioError(
            f"{path}: format code {audio_format} at {bits} bit unsupported"
        )

    if n_channels == 2:
        usable = samples.size - (samples.size % 2)
        samples = samples[:usable].reshape(-1, 2).mean(axis=1)
    if samples.size == 0:
        raise EmptyAudioError(f"{path}: data chunk holds no samples")
    if block_align and block_align != n_channels * (bits // 8):
        raise AudioFormatError(f"{path}: block alignment inconsistent with format")

    return AudioClip(samples=samples, sample_rate=int(sample_rate), source_id=path.stem)


def check_wav_rate(sample_rate: int, bits: int) -> None:
    """ParameterError unless a mono ``bits``-bit WAV header's 32-bit fields hold the rate."""
    if not 0 < int(sample_rate) * (bits // 8) <= 0xFFFFFFFF:
        raise ParameterError(f"sample rate {sample_rate} does not fit a {bits}-bit WAV header")


def encode_wav(
    path: str | Path,
    samples: np.ndarray,
    sample_rate: int,
    bits: int = 16,
    float_format: bool = False,
) -> None:
    """Write a mono WAV file; values outside [-1, 1] are clipped.

    Integer depths quantize to floor(x * 2**(bits-1) + 0.5) (round half up),
    so decoding reproduces the input to within one quantization step; 8-bit
    codes are stored offset by 128. ParameterError for a NaN sample, an
    unsupported depth or a rate the header cannot hold (``check_wav_rate``).
    """
    samples = np.clip(np.asarray(samples, dtype=np.float64).ravel(), -1.0, 1.0)
    if np.isnan(samples).any():
        raise ParameterError("WAV samples must not be NaN")
    if float_format:
        if bits != 32:
            raise ParameterError("float WAV output is 32-bit only")
        payload = samples.astype("<f4").tobytes()
        fmt_code, block = _FORMAT_IEEE_FLOAT, 4
    elif bits in (8, 16, 24):
        scale = float(1 << (bits - 1))
        q = np.clip(np.floor(samples * scale + 0.5), -scale, scale - 1).astype("<i4")
        if bits == 8:
            q += 128  # offset binary
        payload = q.view(np.uint8).reshape(-1, 4)[:, : bits // 8].tobytes()
        fmt_code, block = _FORMAT_PCM, bits // 8
    else:
        raise ParameterError(f"unsupported bit depth for encoding: {bits}")
    check_wav_rate(sample_rate, bits)

    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        fmt_code,
        1,
        int(sample_rate),
        int(sample_rate) * block,
        block,
        bits,
        b"data",
        len(payload),
    )
    Path(path).write_bytes(header + payload)

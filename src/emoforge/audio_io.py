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

from .errors import AudioFormatError, EmptyAudioError, ParameterError, UnsupportedAudioError

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

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


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
    subformat GUID names. Raises AudioFormatError for a malformed container
    (an extensible fmt chunk shorter than 40 bytes among them) or a NaN or
    infinite float sample, UnsupportedAudioError for encodings outside PCM
    8/16/24-bit int and 32-bit float (1-2 channels) or any other subformat,
    and EmptyAudioError when the data chunk holds no frames.
    """
    path = Path(path)
    data = path.read_bytes()
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

    if audio_format == _FORMAT_PCM and bits == 8:
        raw = np.frombuffer(pcm, dtype=np.uint8).astype(np.float64)
        samples = (raw - 128.0) / 128.0
    elif audio_format == _FORMAT_PCM and bits == 16:
        usable = len(pcm) - (len(pcm) % 2)
        raw = np.frombuffer(pcm[:usable], dtype="<i2").astype(np.float64)
        samples = raw / 32768.0
    elif audio_format == _FORMAT_PCM and bits == 24:
        usable = len(pcm) - (len(pcm) % 3)
        b = np.frombuffer(pcm[:usable], dtype=np.uint8).reshape(-1, 3)
        raw = (
            b[:, 0].astype(np.int32)
            | (b[:, 1].astype(np.int32) << 8)
            | (b[:, 2].astype(np.int32) << 16)
        )
        raw = np.where(raw >= 1 << 23, raw - (1 << 24), raw)
        samples = raw.astype(np.float64) / float(1 << 23)
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


def encode_wav(
    path: str | Path,
    samples: np.ndarray,
    sample_rate: int,
    bits: int = 16,
    float_format: bool = False,
) -> None:
    """Write a mono WAV file; values outside [-1, 1] are clipped.

    Integer depths quantize with round-half-away-from-zero so that decoding
    reproduces the input to within one quantization step.
    """
    samples = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    if float_format:
        if bits != 32:
            raise ParameterError("float WAV output is 32-bit only")
        payload = samples.astype("<f4").tobytes()
        fmt_code, block = _FORMAT_IEEE_FLOAT, 4
    elif bits == 8:
        q = np.clip(np.floor(samples * 128.0 + 0.5), -128, 127)
        payload = (q + 128).astype(np.uint8).tobytes()
        fmt_code, block = _FORMAT_PCM, 1
    elif bits == 16:
        q = np.clip(np.floor(samples * 32768.0 + 0.5), -32768, 32767)
        payload = q.astype("<i2").tobytes()
        fmt_code, block = _FORMAT_PCM, 2
    elif bits == 24:
        q = np.clip(np.floor(samples * float(1 << 23) + 0.5), -(1 << 23), (1 << 23) - 1)
        q = q.astype(np.int32)
        b = np.empty((q.size, 3), dtype=np.uint8)
        b[:, 0] = q & 0xFF
        b[:, 1] = (q >> 8) & 0xFF
        b[:, 2] = (q >> 16) & 0xFF
        payload = b.tobytes()
        fmt_code, block = _FORMAT_PCM, 3
    else:
        raise ParameterError(f"unsupported bit depth for encoding: {bits}")

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

"""Time-domain audio features.

Eight scalars summarize a clip: mean and standard deviation of the per-frame
normalized-autocorrelation pitch peaks, the mean of the harmonic-enhanced
spectrogram, mean and standard deviation of per-frame RMS energy, the pause
ratio, and the amplitude mean and standard deviation. A per-frame 6-vector
variant of the same quantities feeds the sequence classifier.

Standard deviations are population (divide by N) throughout so single-frame
clips stay finite. Clips shorter than one frame are zero-padded to exactly
one frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import AudioClip
from .config import (
    DEFAULT_FRAME_LENGTH,
    DEFAULT_HARMONIC_WINDOW,
    DEFAULT_HOP_LENGTH,
    DEFAULT_PITCH_FMAX,
    DEFAULT_PITCH_FMIN,
)
from .errors import ParameterError

#: Canonical field order; also the CSV column order for feature dumps.
AUDIO_FEATURE_NAMES = (
    "autocorr_peak_mean",
    "autocorr_peak_std",
    "harmonic_mean",
    "rmse_mean",
    "rmse_std",
    "pause_ratio",
    "amp_mean",
    "amp_std",
)

FRAME_FEATURE_NAMES = (
    "autocorr_peak",
    "rmse",
    "harmonic_mean_of_frame",
    "pause_indicator",
    "amp_mean",
    "amp_std",
)

_MAX_MEDIAN_WINDOW = 1 << 16
_BLOCK_ELEMENTS = 1 << 18  # sorted-core float64s per block of the median filter


@dataclass(frozen=True)
class FrameConfig:
    """Analysis framing: rectangular windows of frame_length every hop_length."""

    frame_length: int = DEFAULT_FRAME_LENGTH
    hop_length: int = DEFAULT_HOP_LENGTH

    def __post_init__(self):
        if self.frame_length < 1:
            raise ParameterError("frame_length must be >= 1")
        if not 0 < self.hop_length <= self.frame_length:
            raise ParameterError("hop_length must satisfy 0 < hop <= frame_length")

    def frame_count(self, n_samples: int) -> int:
        if n_samples < self.frame_length:
            return 1  # short clips are zero-padded to one frame
        return (n_samples - self.frame_length) // self.hop_length + 1


@dataclass(frozen=True)
class AudioFeatureVector:
    autocorr_peak_mean: float
    autocorr_peak_std: float
    harmonic_mean: float
    rmse_mean: float
    rmse_std: float
    pause_ratio: float
    amp_mean: float
    amp_std: float

    def __post_init__(self):
        arr = self.to_array()
        if not np.isfinite(arr).all():
            raise ParameterError("audio features must be finite")
        if not 0.0 <= self.pause_ratio <= 1.0:
            raise ParameterError("pause_ratio must lie in [0, 1]")
        if min(self.rmse_mean, self.rmse_std, self.amp_std) < 0.0:
            raise ParameterError("rmse and amplitude spreads must be non-negative")

    def to_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in AUDIO_FEATURE_NAMES], dtype=np.float64)


@dataclass(frozen=True)
class Spectrogram:
    """Magnitude spectrogram; rows are frequency bins, columns time steps."""

    magnitudes: np.ndarray
    fft_size: int
    hop_length: int

    def __post_init__(self):
        if self.magnitudes.ndim != 2:
            raise ParameterError("magnitudes must be 2-D")
        if not np.isfinite(self.magnitudes).all() or (self.magnitudes < 0).any():
            raise ParameterError("magnitudes must be finite and non-negative")


@dataclass(frozen=True)
class FrameFeatureSequence:
    """Per-frame 6-vectors in FRAME_FEATURE_NAMES order, shape (frames, 6)."""

    vectors: np.ndarray

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[1] != len(FRAME_FEATURE_NAMES):
            raise ParameterError("frame feature sequence must have shape (frames, 6)")
        if self.vectors.shape[0] < 1:
            raise ParameterError("frame feature sequence must hold at least one frame")
        if not np.isfinite(self.vectors).all():
            raise ParameterError("frame features must be finite")

    @property
    def frame_count(self) -> int:
        return int(self.vectors.shape[0])


def frame_signal(samples: np.ndarray, config: FrameConfig) -> np.ndarray:
    """Slice a signal into rectangular frames, shape (n_frames, frame_length).

    The frames are a read-only view of the samples (overlapping frames share
    memory, so nothing is copied); a clip shorter than one frame comes back
    as one zero-padded frame of its own.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < config.frame_length:
        padded = np.zeros(config.frame_length, dtype=np.float64)
        padded[: samples.size] = samples
        return padded[np.newaxis, :]
    n_frames = config.frame_count(samples.size)
    strides = (samples.strides[0] * config.hop_length, samples.strides[0])
    return np.lib.stride_tricks.as_strided(
        samples, shape=(n_frames, config.frame_length), strides=strides, writeable=False
    )


def center_clip(frame: np.ndarray, clip_level: float) -> np.ndarray:
    """Center-clip a signal: shrink samples beyond +-clip_level toward zero,
    zero out everything inside the band."""
    if clip_level < 0:
        raise ParameterError("clip_level must be >= 0")
    y = np.asarray(frame, dtype=np.float64)
    return np.where(
        y >= clip_level,
        y - clip_level,
        np.where(y <= -clip_level, y + clip_level, 0.0),
    )


def _autocorrelate(x: np.ndarray) -> np.ndarray:
    """Raw autocorrelation r[tau] = sum_n x[n] x[n+tau] for tau in [0, len)."""
    n = x.size
    size = 1
    while size < 2 * n:
        size <<= 1
    spectrum = np.fft.rfft(x, size)
    r = np.fft.irfft(spectrum * np.conj(spectrum), size)[:n]
    return r


def autocorr_pitch(
    frame: np.ndarray,
    sample_rate: int,
    f_min: float = DEFAULT_PITCH_FMIN,
    f_max: float = DEFAULT_PITCH_FMAX,
) -> tuple[float, int]:
    """Pitch peak of a frame via autocorrelation of the center-clipped signal.

    The clip level is half the mean absolute amplitude. Each autocorrelation
    lag is normalized by the energies of the two overlapped segments, which
    bounds values to [-1, 1] (Cauchy-Schwarz) and keeps the peak of a pure
    tone at its true period; normalizing by the lag-0 value alone lets the
    shrinking overlap drag low-frequency peaks more than a sample off. The
    maximum over lags corresponding to [f_min, f_max] is returned as
    (peak_value, peak_lag). Silent frames give (0.0, 0).
    """
    y = np.asarray(frame, dtype=np.float64)
    if y.size == 0:
        raise ParameterError("frame must be non-empty")
    level = 0.5 * np.mean(np.abs(y))
    clipped = center_clip(y, level)
    r = _autocorrelate(clipped)
    if r[0] <= 0.0:
        return 0.0, 0
    lag_min = max(1, int(round(sample_rate / f_max)))
    lag_max = min(y.size - 1, int(round(sample_rate / f_min)))
    if lag_min > lag_max:
        return 0.0, 0
    # per-lag energies of the overlapping head and tail segments
    sq = clipped**2
    head = np.cumsum(sq)  # head[k] = energy of clipped[: k + 1]
    total = head[-1]
    lags = np.arange(lag_min, lag_max + 1)
    energy_head = head[y.size - 1 - lags]
    energy_tail = total - np.concatenate(([0.0], head))[lags]
    denom = np.sqrt(energy_head * energy_tail)
    window = np.divide(r[lags], denom, out=np.zeros(lags.size), where=denom > 0)
    best = int(np.argmax(window))
    best_value = float(window[best])
    if best_value > 0.0:
        # multiples of a tone's period score near-identically, and an even
        # multiple can edge out a half-integral true period; walk the integer
        # submultiples of the winning lag and keep the shortest one whose
        # local peak is within tolerance of the maximum (2% absorbs the
        # half-sample grid deficit across the 50-500 Hz search band)
        tolerance = 0.02 * best_value
        best_lag = int(lags[best])
        for k in range(best_lag // lag_min, 1, -1):
            candidate = best_lag / k
            lo = max(0, int(np.floor(candidate)) - 1 - lag_min)
            hi = min(window.size, int(np.ceil(candidate)) + 2 - lag_min)
            if lo >= hi:
                continue
            local = lo + int(np.argmax(window[lo:hi]))
            if window[local] >= best_value - tolerance:
                best = local
                break
    return float(window[best]), int(lags[best])


def median_filter_1d(x: np.ndarray, l: int) -> np.ndarray:
    """Sliding median of a 1-D signal; see _median_filter_time."""
    x = np.asarray(x, dtype=np.float64)
    return _median_filter_time(x.reshape(1, -1), l).reshape(x.shape)


def _rank(core, p, x, r):
    """Rank r of each window made of sorted core[:, p, 1:-1] and one element x."""
    return np.maximum(core[:, p, r], np.minimum(x, core[:, p, r + 1]))


def _pair_medians(padded, core, start, stop, left, right, out):
    """Filter columns start..stop-1 of a block of +inf-padded rows into out.

    Columns i and i+1 (i - start even) share the core padded[i+1 : i+w] of
    their two width-w windows. The core is sorted once into core[:, p, 1:w];
    core[:, p, 0] = -inf and core[:, p, w] = +inf bound it, so rank r of a
    window is max(core[:, p, r], min(x, core[:, p, r + 1])), with x the one
    element of the window outside the core.
    """
    n = padded.shape[1] - left - right - 1
    width = left + right + 1
    pairs = (stop - start + 1) // 2
    sorted_core = core[:, :pairs, 1:width]
    windows = np.lib.stride_tricks.sliding_window_view(padded, width - 1, axis=1)
    np.copyto(sorted_core, windows[:, start + 1 : start + 2 * pairs : 2])
    sorted_core.sort(axis=-1)
    for parity in (0, 1):
        cols = np.arange(start + parity, stop, 2)
        p = (cols - start) // 2
        x = padded[:, cols + parity * (width - 1)]
        m = np.minimum(n, cols + right + 1) - np.maximum(0, cols - left)
        median = _rank(core, p, x, (m - 1) // 2)
        even = np.flatnonzero(m % 2 == 0)
        if even.size:
            # the upper middle rank, averaged as np.mean averages two values
            upper = _rank(core, p[even], x[:, even], m[even] // 2)
            with np.errstate(invalid="ignore"):  # -inf and +inf give NaN
                median[:, even] = (median[:, even] + upper) / 2
        out[:, start + parity : stop : 2] = median


def _median_filter_time(magnitudes: np.ndarray, l: int) -> np.ndarray:
    """Median-filter every row of a (rows, time) matrix along time, with
    window length l and edge-clamped windows.

    Odd l takes the window [n-k, n+k] with k = (l-1)/2; even l uses one extra
    element on the right and the mean-of-middle-two rule. Windows shrink at
    the boundaries instead of padding. A window holding NaN gives NaN, as
    np.median does.

    Algorithm: the extents are capped at n-1, which changes no clamped
    window, and each row is padded with +inf, so every window has one width
    w <= 2n-1. Pads sort last, so a window of true length m keeps its ranks
    (m-1)//2 and m//2. Columns whose window is the whole row share one row
    median. The others go in pairs that sort their shared core of w-1
    elements once and take each window's two middle ranks from it with one
    min and one max (Adams 2021, separable sorting networks). Rows go in
    blocks whose sorted cores hold at most _BLOCK_ELEMENTS float64s, through
    one core buffer per call, so the working set is O(_BLOCK_ELEMENTS +
    rows * n) whatever l is.

    The output has the input's memory order. Spectrogram magnitudes are
    Fortran-ordered (a transposed rfft), and harmonic_feature's means sum in
    memory order, so a C-ordered output would change harmonic_mean's bits.
    """
    if l < 1:
        raise ParameterError("window length must be >= 1")
    if l > _MAX_MEDIAN_WINDOW:
        raise ParameterError(f"window length above {_MAX_MEDIAN_WINDOW}")
    rows, n = magnitudes.shape
    if l == 1 or n <= 1:
        return magnitudes.copy()
    left = min((l - 1) // 2, n - 1)
    right = min(l // 2, n - 1)  # inclusive extent to the right
    out = np.empty_like(magnitudes)
    # the windows of columns first..last are the whole row
    first, last = max(0, n - 1 - right), min(n - 1, left)
    spans = [(0, n)]
    if first <= last:
        ordered = np.sort(magnitudes, axis=1)
        whole = ordered[:, (n - 1) // 2]
        if n % 2 == 0:
            with np.errstate(invalid="ignore"):
                whole = (whole + ordered[:, n // 2]) / 2
        out[:, first : last + 1] = whole[:, np.newaxis]
        spans = [(0, first), (last + 1, n)]
    spans = [(start, stop) for start, stop in spans if start < stop]
    if spans:
        width = left + right + 1
        pairs = max((stop - start + 1) // 2 for start, stop in spans)
        block = max(1, min(rows, _BLOCK_ELEMENTS // (pairs * (width + 1))))
        core = np.empty((block, pairs, width + 1))
        core[..., 0] = -np.inf
        core[..., width] = np.inf
        padded = np.full((block, left + n + right + 1), np.inf)
        for lo in range(0, rows, block):
            hi = min(rows, lo + block)
            padded[: hi - lo, left : left + n] = magnitudes[lo:hi]
            for start, stop in spans:
                _pair_medians(padded[: hi - lo], core[: hi - lo], start, stop, left, right,
                              out[lo:hi])
    nan = np.isnan(magnitudes)
    if nan.any():
        seen = np.concatenate([np.zeros((rows, 1)), np.cumsum(nan, axis=1)], axis=1)
        cols = np.arange(n)
        in_window = seen[:, np.minimum(n, cols + right + 1)] - seen[:, np.maximum(0, cols - left)]
        out[in_window > 0] = np.nan
    return out


def spectrogram(clip: AudioClip, config: FrameConfig) -> Spectrogram:
    """Rectangular-window magnitude spectrogram with FFT size = frame_length."""
    frames = frame_signal(clip.samples, config)
    mags = np.abs(np.fft.rfft(frames, n=config.frame_length, axis=1)).T
    return Spectrogram(magnitudes=mags, fft_size=config.frame_length, hop_length=config.hop_length)


def harmonic_feature(
    clip: AudioClip,
    config: FrameConfig,
    l_harm: int = DEFAULT_HARMONIC_WINDOW,
) -> tuple[float, np.ndarray]:
    """Harmonic-enhanced spectrogram summary.

    Each frequency slice is median-filtered along time with window l_harm,
    which suppresses transients and keeps sustained partials. Returns the
    global mean of the filtered spectrogram and the per-frame mean across
    frequency.
    """
    spec = spectrogram(clip, config)
    enhanced = _median_filter_time(spec.magnitudes, l_harm)
    per_frame = enhanced.mean(axis=0)
    return float(enhanced.mean()), per_frame


def rmse(clip: AudioClip, config: FrameConfig) -> tuple[float, float, np.ndarray]:
    """Frame-wise root mean square energy: (mean, std, per-frame values)."""
    frames = frame_signal(clip.samples, config)
    per_frame = np.sqrt(np.mean(frames**2, axis=1))
    return float(per_frame.mean()), float(per_frame.std()), per_frame


def clip_energy(clip: AudioClip) -> float:
    """Whole-clip RMS energy."""
    return float(np.sqrt(np.mean(clip.samples**2)))


def pause_ratio(clip: AudioClip, threshold_factor: float = 0.4) -> float:
    """Fraction of samples whose magnitude falls below 0.4x the clip energy.

    A silent clip has zero energy and therefore ratio 0: no sample is
    strictly below a zero threshold.
    """
    t = threshold_factor * clip_energy(clip)
    return float(np.mean(np.abs(clip.samples) < t))


def central_moments(clip: AudioClip) -> tuple[float, float]:
    """Amplitude mean and population standard deviation of the raw samples."""
    return float(clip.samples.mean()), float(clip.samples.std())


def _analyze_clip(clip: AudioClip, config: FrameConfig | None, l_harm: int):
    """The per-frame work shared by the clip summary and the frame sequence,
    run once: (frames, pitch peaks, harmonic_feature(...), rmse(...))."""
    config = config or FrameConfig()
    frames = frame_signal(clip.samples, config)
    peaks = np.array([autocorr_pitch(frame, clip.sample_rate)[0] for frame in frames])
    return frames, peaks, harmonic_feature(clip, config, l_harm), rmse(clip, config)


def extract_audio_features(
    clip: AudioClip,
    config: FrameConfig | None = None,
    l_harm: int = DEFAULT_HARMONIC_WINDOW,
) -> AudioFeatureVector:
    """Assemble the eight-feature summary for one clip."""
    _, peaks, (harmonic_mean, _), (rmse_mean, rmse_std, _) = _analyze_clip(clip, config, l_harm)
    amp_mean, amp_std = central_moments(clip)
    return AudioFeatureVector(
        autocorr_peak_mean=float(peaks.mean()),
        autocorr_peak_std=float(peaks.std()),
        harmonic_mean=harmonic_mean,
        rmse_mean=rmse_mean,
        rmse_std=rmse_std,
        pause_ratio=pause_ratio(clip),
        amp_mean=amp_mean,
        amp_std=amp_std,
    )


def extract_frame_sequence(
    clip: AudioClip,
    config: FrameConfig | None = None,
    l_harm: int = DEFAULT_HARMONIC_WINDOW,
) -> FrameFeatureSequence:
    """Per-frame 6-vectors: pitch peak, RMSE, harmonic mean of the frame,
    pause indicator (frame RMSE below 0.4x clip energy), amplitude mean/std."""
    frames, peaks, (_, harmonic_per_frame), (_, _, rmse_per_frame) = _analyze_clip(
        clip, config, l_harm
    )
    pause_flags = (rmse_per_frame < 0.4 * clip_energy(clip)).astype(np.float64)
    vectors = np.column_stack(
        [
            peaks,
            rmse_per_frame,
            harmonic_per_frame,
            pause_flags,
            frames.mean(axis=1),
            frames.std(axis=1),
        ]
    )
    return FrameFeatureSequence(vectors=vectors)

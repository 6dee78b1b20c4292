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
_PITCH_BLOCK_POINTS = 1 << 16  # FFT points per block of the pitch kernel


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
    return _center_clip(np.asarray(frame, dtype=np.float64), clip_level)


def _center_clip(y: np.ndarray, level) -> np.ndarray:
    """center_clip without the check; level broadcasts against y.

    sign(y) * max(|y| - level, 0) is y - level above the band and y + level
    below it to the last bit, and + 0.0 turns the -0.0 of a negative sample
    inside the band into 0.0.
    """
    clipped = np.abs(y)
    clipped -= level
    np.maximum(clipped, 0.0, out=clipped)
    np.copysign(clipped, y, out=clipped)
    clipped += 0.0
    return clipped


def _smooth_size(minimum: int) -> int:
    """The smallest 2**a * 3**b * 5**c that is >= minimum."""
    best = 1 << max(0, minimum - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:
            best = min(best, odd << max(0, -(-minimum // odd) - 1).bit_length())
            odd *= 3
        fives *= 5
    return best


def _pitch_lags(n: int, sample_rate, f_min, f_max) -> tuple[int, int]:
    """Check the pitch settings and return the searched lags [lag_min, lag_max]."""
    if not (np.isfinite(sample_rate) and sample_rate > 0):
        raise ParameterError("sample_rate must be positive and finite")
    for name, f in (("f_min", f_min), ("f_max", f_max)):
        if not (np.isfinite(f) and f > 0):
            raise ParameterError(f"{name} must be positive and finite")
    if not f_min < f_max:
        raise ParameterError("f_min must be below f_max")
    if n < 1:
        raise ParameterError("frame must be non-empty")
    lag_min = max(1, int(round(sample_rate / f_max)))
    ratio = sample_rate / f_min  # inf for a subnormal f_min
    lag_max = n - 1 if ratio >= n - 1 else int(round(ratio))
    return lag_min, lag_max


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

    The autocorrelation is a circular one through a zero-padded FFT of the
    smallest 5-smooth length N >= n + lag_max, with lag_max =
    round(sample_rate / f_min) capped at n - 1; a circular correlation of
    length N >= n + lag_max equals the linear one at every lag it reads.
    This is a one-row call of _pitch_peaks, which states the algorithm.
    ParameterError rejects an empty frame, a non-positive sample_rate, a
    non-finite or non-positive f_min or f_max, and f_min >= f_max.
    """
    y = np.asarray(frame, dtype=np.float64).reshape(1, -1)
    values, lags = _pitch_peaks(y, sample_rate, f_min, f_max)
    return float(values[0]), int(lags[0])


def _pitch_peaks(
    frames: np.ndarray,
    sample_rate: int,
    f_min: float = DEFAULT_PITCH_FMIN,
    f_max: float = DEFAULT_PITCH_FMAX,
) -> tuple[np.ndarray, np.ndarray]:
    """autocorr_pitch of every row of a (rows, n) frame matrix: (values, lags).

    Per row, clipped = center_clip(row, mean(|row|) / 2) and
    r[tau] = sum_t clipped[t] clipped[t + tau]. The searched window is
    r[tau] / sqrt(E_head(tau) E_tail(tau)) over lags lag_min..lag_max, where
    E_head and E_tail are the energies of clipped[: n - tau] and
    clipped[tau:], read from one cumsum of squares per row. Its arg-max is
    walked down to a submultiple (_walk_submultiples). A row with r[0] <= 0
    is silent and gives (0.0, 0).

    r comes from one rfft/irfft pair of length N = _smooth_size(n + lag_max)
    (2400 for 2048-sample frames at 16 kHz, 2500 at 22.05 kHz). The circular
    correlation of a zero-padded length-N DFT is the linear one at every lag
    tau <= N - n, so it is exact at every lag read.

    Rows go through the FFT in blocks of max(1, _PITCH_BLOCK_POINTS // N),
    so the working set is O(_PITCH_BLOCK_POINTS + rows) floats. A batched
    FFT does not round a row as a one-row call does, so the block boundaries
    depend on nothing but the row count and N: a clip's values never depend
    on the thread count or on the clips featurized beside it.
    """
    rows, n = frames.shape
    lag_min, lag_max = _pitch_lags(n, sample_rate, f_min, f_max)
    values = np.zeros(rows)
    peak_lags = np.zeros(rows, dtype=np.int64)
    if lag_min > lag_max:
        return values, peak_lags
    size = _smooth_size(n + lag_max)
    block = max(1, _PITCH_BLOCK_POINTS // size)
    for lo in range(0, rows, block):
        y = frames[lo : lo + block]
        clipped = _center_clip(y, 0.5 * np.abs(y).mean(axis=1, keepdims=True))
        spectrum = np.fft.rfft(clipped, size, axis=1)
        power, imag = spectrum.real, spectrum.imag  # |X|^2 in place, as a complex array
        np.square(power, out=power)
        power += np.square(imag, out=imag)
        imag[...] = 0.0
        r = np.fft.irfft(spectrum, size, axis=1)[:, : lag_max + 1]
        del spectrum, power, imag  # the block's largest array goes before the energies
        voiced = np.flatnonzero(r[:, 0] > 0.0)
        if voiced.size < r.shape[0]:
            clipped, r = clipped[voiced], r[voiced]
        # head[:, k] is the energy of clipped[:, : k + 1]; lag tau overlaps
        # clipped[:, : n - tau] (head[:, n - 1 - tau]) with clipped[:, tau:]
        head = np.square(clipped, out=clipped)
        np.cumsum(head, axis=1, out=head)
        energy_tail = head[:, -1:] - head[:, lag_min - 1 : lag_max]
        denom = np.sqrt(head[:, ::-1][:, lag_min : lag_max + 1] * energy_tail)
        window = np.divide(r[:, lag_min : lag_max + 1], denom, out=np.zeros(denom.shape),
                           where=denom > 0)
        best = _walk_submultiples(window, lag_min)
        values[lo + voiced] = window[np.arange(voiced.size), best]
        peak_lags[lo + voiced] = best + lag_min
    return values, peak_lags


def _walk_submultiples(window: np.ndarray, lag_min: int) -> np.ndarray:
    """Column of each row's pitch peak in a (rows, lags) normalized window
    whose column j is lag lag_min + j.

    Multiples of a tone's period score near-identically, and an even
    multiple can edge out a half-integral true period. So from the arg-max
    lag L, for k = L // lag_min down to 2, take the first maximum of the
    window over lags floor(L/k) - 1 .. ceil(L/k) + 1 and stop at the first
    one within 2% of the maximum (2% absorbs the half-sample grid deficit
    across the 50-500 Hz search band). A row whose maximum is not positive
    keeps it. All (row, k) pairs are scored at once.
    """
    rows, width = window.shape
    row = np.arange(rows)
    best = np.argmax(window, axis=1)
    best_value = window[row, best]
    best_lag = best + lag_min
    ks = np.arange(int(best_lag.max(initial=0)) // lag_min, 1, -1)
    if not ks.size:
        return best
    candidate = best_lag[:, np.newaxis] / ks  # (rows, k), k descending
    lo = np.maximum(0, np.floor(candidate).astype(np.int64) - 1 - lag_min)
    hi = np.minimum(width, np.ceil(candidate).astype(np.int64) + 2 - lag_min)
    cols = lo[..., np.newaxis] + np.arange(4)  # hi - lo <= 4
    local = np.where(cols < hi[..., np.newaxis],
                     window[row[:, np.newaxis, np.newaxis], np.minimum(cols, width - 1)],
                     -np.inf)
    pick = np.argmax(local, axis=2)
    found = np.take_along_axis(local, pick[..., np.newaxis], axis=2)[..., 0] >= (
        best_value - 0.02 * best_value)[:, np.newaxis]
    found &= (ks <= best_lag[:, np.newaxis] // lag_min) & (best_value > 0.0)[:, np.newaxis]
    first = np.argmax(found, axis=1)  # the largest k that passes
    hit = np.flatnonzero(found[row, first])
    best[hit] = lo[hit, first[hit]] + pick[hit, first[hit]]
    return best


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
    peaks, _ = _pitch_peaks(frames, clip.sample_rate)
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

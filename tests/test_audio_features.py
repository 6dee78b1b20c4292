import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from emoforge import audio_features
from emoforge.audio_features import (
    AUDIO_FEATURE_NAMES,
    MAX_FRAME_LENGTH,
    FrameConfig,
    _frame_moments,
    _median_filter_in_place,
    _pitch_peaks,
    _smooth_size,
    _walk_submultiples,
    autocorr_pitch,
    center_clip,
    central_moments,
    extract_audio_features,
    extract_frame_sequence,
    frame_signal,
    harmonic_feature,
    median_filter_1d,
    pause_ratio,
    rmse,
    spectrogram,
)
from emoforge.audio_io import AudioClip, decode_wav
from emoforge.errors import ParameterError
from emoforge.synth import generate_corpus

from conftest import make_tone

# an overflow or a 0/0 fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SR = 22050


def clip_of(samples, sr=SR, source_id="t"):
    return AudioClip(np.asarray(samples, dtype=np.float64), sr, source_id)


# --- center clipping


def test_center_clip_paper_cases():
    assert center_clip(np.array([0.6]), 0.5)[0] == pytest.approx(0.1)
    assert center_clip(np.array([-0.6]), 0.5)[0] == pytest.approx(-0.1)
    assert center_clip(np.array([0.3]), 0.5)[0] == 0.0


def test_center_clip_zero_level_is_identity():
    x = np.random.default_rng(0).uniform(-1, 1, 100)
    assert np.array_equal(center_clip(x, 0.0), x)


def test_center_clip_casewise_oracle():
    rng = np.random.default_rng(42)
    y = rng.uniform(-2, 2, 10_000)
    levels = rng.uniform(0, 1.5, 10_000)
    for yi, ci, out in zip(y, levels, (center_clip(np.array([v]), c)[0] for v, c in zip(y, levels))):
        if yi >= ci:
            assert out == yi - ci
        elif yi <= -ci:
            assert out == yi + ci
        else:
            assert out == 0.0


def test_center_clip_is_odd():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, 500)
    for level in (0.0, 0.1, 0.5):
        assert np.array_equal(center_clip(-x, level), -center_clip(x, level))


# --- median filter


def _median_oracle(x, l):
    left, right = (l - 1) // 2, l // 2
    out = []
    for i in range(len(x)):
        w = sorted(x[max(0, i - left) : min(len(x), i + right + 1)])
        m = len(w)
        out.append(w[m // 2] if m % 2 else 0.5 * (w[m // 2 - 1] + w[m // 2]))
    return np.array(out)


def test_median_filter_worked_example():
    out = median_filter_1d(np.array([1.0, 9, 1, 9, 1]), 3)
    assert np.array_equal(out, [5, 1, 9, 1, 5])


def test_median_filter_identity_and_constant():
    x = np.array([3.0, 1, 4, 1, 5])
    assert np.array_equal(median_filter_1d(x, 1), x)
    const = np.full(20, 2.5)
    for l in (1, 2, 3, 8, 15):
        assert np.array_equal(median_filter_1d(const, l), const)


def test_median_filter_matches_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        l = int(rng.integers(1, 16))
        x = rng.uniform(-10, 10, n)
        assert np.array_equal(median_filter_1d(x, l), _median_oracle(x, l))


def test_median_filter_idempotent_on_monotone_interior():
    # the clamped boundary windows are pinned by the worked example above and
    # keep re-smoothing the first/last (l-1)/2 entries; the interior is a
    # fixed point in the classical root-signal sense
    x = np.linspace(0, 1, 30)
    for l in (3, 5, 9):
        once = median_filter_1d(x, l)
        twice = median_filter_1d(once, l)
        left, right = (l - 1) // 2, l // 2
        assert np.array_equal(twice[left : 30 - right], once[left : 30 - right])
        assert np.array_equal(once[left : 30 - right], x[left : 30 - right])


def _reference_median_filter_time(magnitudes, l):
    """The np.median body the selection filter replaced, kept as its oracle."""
    n = magnitudes.shape[1]
    if l == 1 or n <= 1:
        return magnitudes.copy()
    left = (l - 1) // 2
    right = l // 2
    out = np.empty_like(magnitudes)
    interior_start = left
    interior_stop = n - right
    if interior_stop > interior_start and l <= n:
        windows = np.lib.stride_tricks.sliding_window_view(magnitudes, l, axis=1)
        out[:, interior_start:interior_stop] = np.median(windows, axis=2)
    else:
        interior_start, interior_stop = 0, 0
    for i in range(0, interior_start):
        out[:, i] = np.median(magnitudes[:, max(0, i - left) : min(n, i + right + 1)], axis=1)
    for i in range(max(interior_stop, interior_start), n):
        out[:, i] = np.median(magnitudes[:, max(0, i - left) : min(n, i + right + 1)], axis=1)
    return out


def _filtered_copy(magnitudes, l):
    """A copy of ``magnitudes`` in its own memory order, median-filtered in place."""
    return _median_filter_in_place(magnitudes.copy(order="K"), l)


def _assert_same_filter_output(got, want):
    assert np.array_equal(got, want, equal_nan=True)
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert got.flags.c_contiguous == want.flags.c_contiguous


def test_median_filter_2d_matches_np_median_body():
    rng = np.random.default_rng(5)
    for case in range(300):
        rows = int(rng.choice([1, 3, 63, 64, 65, int(rng.integers(100, 200))]))
        n = int(rng.choice([0, 1, 2, int(rng.integers(3, 90))]))
        l = int(rng.choice([1, 2, n + 1, n + 2, rng.integers(1, 40), 2 * rng.integers(1, 20)]))
        if case % 2:
            x = rng.integers(0, 4, (rows, n)).astype(np.float64)  # many ties
        else:
            x = rng.uniform(0.0, 10.0, (rows, n))
        if case % 5 == 0 and x.size:
            x[rng.integers(rows), rng.integers(n)] = np.nan
        for order in ("C", "F"):
            data = np.asarray(x, order=order)
            want = _reference_median_filter_time(data, l)
            _assert_same_filter_output(_filtered_copy(data, l), want)


def _noisy_tone(seconds, sr=16_000, seed=9):
    rng = np.random.default_rng(seed)
    t = np.arange(int(round(seconds * sr))) / sr
    samples = 0.4 * np.sin(2 * np.pi * 180.0 * t) + 0.1 * rng.standard_normal(t.size)
    return clip_of(np.clip(samples, -1.0, 1.0), sr=sr)


def test_harmonic_feature_matches_np_median_body(monkeypatch):
    # at 16 kHz with the default framing and l = 31: 0.6 s is 15 frames, so
    # every window is the whole row; 2.0 s is 59 frames and 4.5 s is 137,
    # with interior and edge columns. Magnitudes are Fortran-ordered.
    config = FrameConfig()
    for seconds in (0.6, 2.0, 4.5):
        clip = _noisy_tone(seconds)
        assert spectrogram(clip, config).flags.f_contiguous
        got_mean, got_frames = harmonic_feature(clip, config)
        with monkeypatch.context() as patch:
            patch.setattr(audio_features, "_median_filter_in_place",
                          _reference_median_filter_time)
            want_mean, want_frames = harmonic_feature(clip, config)
        assert got_mean == want_mean
        assert np.array_equal(got_frames, want_frames)


def test_median_filter_whole_row_windows_match_np_median_body():
    # n <= min(left, right) + 1: every clamped window is the whole row, so all
    # columns share one row median; then the rows just past that, where only
    # the middle columns see the whole row
    rng = np.random.default_rng(21)
    for l in (2, 3, 30, 31, 64):
        for n in range(2, l + 3):
            for ties in (False, True):
                x = rng.uniform(0.0, 3.0, (5, n))
                if ties:
                    x = np.round(x)
                for order in ("C", "F"):
                    data = np.asarray(x, order=order)
                    want = _reference_median_filter_time(data, l)
                    _assert_same_filter_output(_filtered_copy(data, l), want)


def test_median_filter_longest_window_on_short_rows_stays_small():
    # the window extents are capped at n - 1, so l = 1 << 16 on a 40-sample
    # row works on rows x 40 values, never on rows x l
    rng = np.random.default_rng(22)
    for n in (2, 3, 17, 40):
        for l in (1 << 16, (1 << 16) - 1):
            x = rng.uniform(0.0, 1.0, (256, n))
            want = _reference_median_filter_time(x, l)
            tracemalloc.start()
            try:
                got = _filtered_copy(x, l)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            _assert_same_filter_output(got, want)
            assert peak <= 6 * x.nbytes + (1 << 16)


def test_median_filter_infinities_match_np_median_body():
    # +inf entries tie with the +inf padding and -inf with the buffer's
    # lower bound; a window whose middle ranks are -inf and +inf is NaN
    rng = np.random.default_rng(23)
    for case in range(120):
        rows = int(rng.integers(1, 20))
        n = int(rng.integers(2, 80))
        l = int(rng.choice([2, 3, 4, 31, n, n + 1, 2 * n]))
        x = rng.uniform(-1.0, 1.0, (rows, n))
        x[rng.random(x.shape) < 0.2] = np.inf
        x[rng.random(x.shape) < 0.2] = -np.inf
        if case % 3 == 0:
            x[rng.integers(rows), rng.integers(n)] = np.nan
        for order in ("C", "F"):
            data = np.asarray(x, order=order)
            with np.errstate(invalid="ignore"):
                want = _reference_median_filter_time(data, l)
            _assert_same_filter_output(_filtered_copy(data, l), want)


def test_median_filter_working_set_is_bounded_by_the_block(monkeypatch):
    # sorting every pair's core at once would hold rows * n/2 * l values
    # (14.8 MB for n = 60, l = 59); blocks keep it to the block plus the output
    monkeypatch.setattr(audio_features, "_BLOCK_ELEMENTS", 1 << 16)
    rng = np.random.default_rng(25)
    for n, l in ((60, 59), (137, 31)):
        x = np.asfortranarray(rng.uniform(0.0, 1.0, (1025, n)))
        tracemalloc.start()
        try:
            _filtered_copy(x, l)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (1 << 16) + 2 * x.nbytes + (1 << 16)


@pytest.mark.parametrize("block_elements", [1, 97, 2000])
def test_median_filter_blocks_that_do_not_divide_the_rows(monkeypatch, block_elements):
    # one row per block, and blocks that leave a short last block
    monkeypatch.setattr(audio_features, "_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(24)
    for rows, n, l in ((7, 50, 31), (65, 20, 31), (13, 40, 6), (3, 9, 4), (101, 33, 5), (0, 40, 7)):
        x = rng.uniform(0.0, 5.0, (rows, n))
        if rows:
            x[rng.integers(rows), rng.integers(n)] = np.nan
        for order in ("C", "F"):
            data = np.asarray(x, order=order)
            want = _reference_median_filter_time(data, l)
            _assert_same_filter_output(_filtered_copy(data, l), want)


@pytest.mark.parametrize("block_elements", [1, 97, 2000])
def test_median_filter_in_place_matches_out_of_place(monkeypatch, block_elements):
    # a block reads its rows (into the padded buffer, the NaN mask and the
    # whole-row median) before it writes them: n = 20, l = 31 has whole-row
    # columns 4..15 between partial ones, n = 60, l = 7 has partial columns
    # only, n = 5, l = 31 whole-row columns only, and 1 and 97 elements give
    # many blocks with a short last one
    monkeypatch.setattr(audio_features, "_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(26)
    for rows, n, l in ((9, 20, 31), (40, 20, 30), (17, 60, 7), (33, 5, 31), (5, 17, 31),
                       (70, 3, 4), (0, 20, 31), (3, 40, 6)):
        x = np.asfortranarray(rng.uniform(0.0, 5.0, (rows, n)))
        if rows:
            x[rng.integers(rows), rng.integers(n)] = np.nan
            x[rng.integers(rows), 0] = np.nan
        want = _reference_median_filter_time(x, l)
        scratch = x.copy(order="F")
        got = _median_filter_in_place(scratch, l)
        assert got is scratch
        _assert_same_filter_output(got, want)
        assert got.tobytes() == want.tobytes()


def test_median_filter_leaves_the_callers_array_unchanged():
    # median_filter_1d filters a float64 copy: a contiguous row, a strided
    # row of a Fortran-ordered matrix and a float32 row stay as they were
    rng = np.random.default_rng(27)
    for l in (1, 4, 31):
        matrix = np.asfortranarray(rng.uniform(0.0, 1.0, (6, 25)))
        matrix[2, 7] = np.nan
        for row in (rng.uniform(0.0, 1.0, 25), matrix[2], matrix[3].astype(np.float32)):
            before = row.copy()
            got = median_filter_1d(row, l)
            assert np.array_equal(row, before, equal_nan=True)
            want = _reference_median_filter_time(row.astype(np.float64)[np.newaxis], l)[0]
            assert np.array_equal(got, want, equal_nan=True)


def test_median_filter_bad_window():
    with pytest.raises(ParameterError):
        median_filter_1d(np.zeros(4), 0)
    with pytest.raises(ParameterError):
        median_filter_1d(np.zeros(4), 1 << 17)


# --- autocorrelation pitch


def test_pitch_lag_of_pure_tones():
    for f in (80, 120, 220, 400):
        tone = make_tone(f, SR, 0.5)
        for frame in frame_signal(tone.samples, FrameConfig()):
            value, lag = autocorr_pitch(frame, SR)
            assert abs(lag - SR / f) <= 1
            assert -1.0 <= value <= 1.0 + 1e-12


def test_pitch_peak_values_bounded():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(64, 4097))
        if rng.random() < 0.5:
            y = rng.standard_normal(n)
        else:
            y = np.zeros(n)  # sparse spike trains stress the normalization
            y[rng.integers(0, n, size=max(1, n // 200))] = 1.0
        value, _ = autocorr_pitch(y, SR)
        assert -1.0 <= value <= 1.0 + 1e-12


def test_noise_peak_below_tone_peak():
    noise = np.random.default_rng(0).standard_normal(2048)
    tone = make_tone(220, SR, 2048 / SR).samples
    noise_peak, _ = autocorr_pitch(noise, SR)
    tone_peak, _ = autocorr_pitch(tone, SR)
    assert noise_peak < tone_peak


def test_pitch_silence_returns_zero_pair():
    assert autocorr_pitch(np.zeros(2048), SR) == (0.0, 0)


def test_pitch_rejects_empty_frame():
    with pytest.raises(ParameterError):
        autocorr_pitch(np.array([]), SR)


@pytest.mark.parametrize("sample_rate", [0, -16000, np.inf, np.nan])
def test_pitch_rejects_bad_settings(sample_rate):
    y = make_tone(220, 16000, 2048 / 16000).samples
    with pytest.raises(ParameterError):
        autocorr_pitch(y, sample_rate)
    with pytest.raises(ParameterError):
        _pitch_peaks(y[np.newaxis], sample_rate)


# --- the batched pitch kernel against the per-frame oracle
#
# The oracle is the per-frame pitch of earlier versions: one power-of-two
# FFT of length >= 2n per frame and a Python walk over the submultiples.


def _reference_autocorrelate(x):
    """Raw autocorrelation r[tau] = sum_n x[n] x[n+tau] for tau in [0, len)."""
    n = x.size
    size = 1
    while size < 2 * n:
        size <<= 1
    spectrum = np.fft.rfft(x, size)
    return np.fft.irfft(spectrum * np.conj(spectrum), size)[:n]


def _reference_window(frame, sample_rate, f_min=50.0, f_max=500.0):
    """(lag_min, normalized window over lag_min..lag_max) of one frame, or
    None for a silent frame or an empty lag range."""
    y = np.asarray(frame, dtype=np.float64)
    clipped = center_clip(y, 0.5 * np.mean(np.abs(y)))
    r = _reference_autocorrelate(clipped)
    if r[0] <= 0.0:
        return None
    lag_min = max(1, int(round(sample_rate / f_max)))
    lag_max = min(y.size - 1, int(round(sample_rate / f_min)))
    if lag_min > lag_max:
        return None
    head = np.cumsum(clipped**2)
    lags = np.arange(lag_min, lag_max + 1)
    energy_head = head[y.size - 1 - lags]
    energy_tail = head[-1] - np.concatenate(([0.0], head))[lags]
    denom = np.sqrt(energy_head * energy_tail)
    return lag_min, np.divide(r[lags], denom, out=np.zeros(lags.size), where=denom > 0)


def _reference_walk(window, lag_min):
    best = int(np.argmax(window))
    best_value = float(window[best])
    if best_value > 0.0:
        tolerance = 0.02 * best_value
        best_lag = best + lag_min
        for k in range(best_lag // lag_min, 1, -1):
            candidate = best_lag / k
            lo = max(0, int(np.floor(candidate)) - 1 - lag_min)
            hi = min(window.size, int(np.ceil(candidate)) + 2 - lag_min)
            if lo >= hi:
                continue
            local = lo + int(np.argmax(window[lo:hi]))
            if window[local] >= best_value - tolerance:
                return local
    return best


def _reference_pitch(frame, sample_rate, f_min=50.0, f_max=500.0):
    found = _reference_window(frame, sample_rate, f_min, f_max)
    if found is None:
        return 0.0, 0
    lag_min, window = found
    best = _reference_walk(window, lag_min)
    return float(window[best]), best + lag_min


def _assert_pitch_matches_oracle(frames, sample_rate, ties=False):
    """The kernel's rows against the oracle: values within 1e-12, the same
    silent rows, and equal lags. With ties=True a lag may differ where the
    oracle's own window scores the kernel's lag within 1e-12 of its pick:
    there the choice rests on the last bits of the FFT's rounding (a DC
    frame's window is 1 at every lag, spikes score equal or zero). Returns
    the kernel's values and lags and the oracle's silent rows."""
    values, lags = _pitch_peaks(frames, sample_rate)
    want = [_reference_pitch(frame, sample_rate) for frame in frames]
    want_values = np.array([v for v, _ in want])
    want_lags = np.array([lag for _, lag in want], dtype=np.int64)
    want_silent = (want_values == 0) & (want_lags == 0)
    assert values.shape == lags.shape == (frames.shape[0],)
    assert np.abs(values - want_values).max(initial=0.0) <= 1e-12
    assert np.array_equal((values == 0) & (lags == 0), want_silent)
    for i in np.flatnonzero(lags != want_lags):
        assert ties, (i, lags[i], want_lags[i])
        lag_min, window = _reference_window(frames[i], sample_rate)
        assert abs(window[lags[i] - lag_min] - want_values[i]) <= 1e-12
    return values, lags, want_silent


def _tone_frames(f, sample_rate, seconds=0.5):
    return frame_signal(make_tone(f, sample_rate, seconds).samples, FrameConfig())


@pytest.mark.parametrize("sample_rate", [8000, 16000, 22050, 44100, 48000])
def test_pitch_kernel_matches_oracle_on_tones(sample_rate):
    for f in (50.0, 73.4, 110.0, 220.0, 333.3, 500.0):
        _, lags, _ = _assert_pitch_matches_oracle(_tone_frames(f, sample_rate), sample_rate)
        assert np.all(np.abs(lags - sample_rate / f) <= 1)


@pytest.mark.parametrize("sample_rate", [8000, 16000, 22050, 44100, 48000])
def test_pitch_kernel_matches_oracle_on_noise_silence_and_denormals(sample_rate):
    rng = np.random.default_rng(sample_rate)
    n = sample_rate // 2
    noise = rng.standard_normal(n)
    tiny = rng.standard_normal(n) * 1e-310  # squares underflow: silent frames
    gated = np.where(np.arange(n) % 6000 < 3000, noise, 0.0)  # silent and voiced frames
    for samples in (noise, np.zeros(n), tiny, gated, noise * 1e-150):
        _assert_pitch_matches_oracle(frame_signal(samples, FrameConfig()), sample_rate)
    values, lags = _pitch_peaks(frame_signal(tiny, FrameConfig()), sample_rate)
    assert not values.any() and not lags.any()


@pytest.mark.parametrize("sample_rate", [8000, 16000, 22050, 44100, 48000])
def test_pitch_kernel_matches_oracle_on_dc_spikes_and_impulses(sample_rate):
    rng = np.random.default_rng(sample_rate + 1)
    n = sample_rate // 2
    period = int(sample_rate / 140)
    pulses = np.zeros(n)
    pulses[::period] = 0.8  # a 140-Hz pulse train has one answer
    _, lags, _ = _assert_pitch_matches_oracle(frame_signal(pulses, FrameConfig()), sample_rate)
    assert np.all(lags == period)
    spikes = np.zeros(n)
    spikes[rng.integers(0, n, 30)] = rng.choice([-1.0, 1.0], 30)
    impulse = np.zeros(n)
    impulse[n // 3] = 1.0
    for samples in (np.full(n, 0.25), np.full(n, -1.0), spikes, impulse):
        _assert_pitch_matches_oracle(frame_signal(samples, FrameConfig()), sample_rate, ties=True)


@pytest.mark.parametrize("length", [1, 2, 31, 500, 2047])
def test_pitch_kernel_matches_oracle_on_clips_shorter_than_a_frame(length):
    rng = np.random.default_rng(length)
    for samples in (rng.uniform(-1, 1, length), np.sin(np.arange(length) / 7.0)):
        frames = frame_signal(samples, FrameConfig())
        assert frames.shape == (1, 2048)
        _assert_pitch_matches_oracle(frames, 16000)


@pytest.mark.parametrize("frame_length", [1, 2, 16, 32, 33])
def test_pitch_kernel_matches_oracle_on_frames_shorter_than_lag_min(frame_length):
    # at 16 kHz lag_min is 32: frames of at most 32 samples search no lag
    # (lag_max = n - 1 < lag_min) and 33 samples search lag 32 alone
    rng = np.random.default_rng(frame_length)
    config = FrameConfig(frame_length=frame_length, hop_length=1)
    for samples in (rng.uniform(-1, 1, 200), np.zeros(200)):
        values, lags, _ = _assert_pitch_matches_oracle(frame_signal(samples, config), 16000)
        if frame_length <= 32:
            assert not values.any() and not lags.any()


@pytest.mark.parametrize("points", [1, 2400 * 3, 2400 * 7, 2400 * 40])
def test_pitch_kernel_blocks_that_do_not_divide_the_frames(monkeypatch, points):
    # 1 point: one row per block; 3 and 7 rows leave a short last block of 2
    # and 6 of 59 frames; 40 rows hold them all
    monkeypatch.setattr(audio_features, "_FRAME_BLOCK_POINTS", points)
    rng = np.random.default_rng(7)
    samples = 0.6 * make_tone(180, 16000, 2.0).samples * rng.uniform(0.2, 1.0, 32000)
    samples[10000:16000] = 0.0
    frames = frame_signal(samples, FrameConfig())
    assert frames.shape[0] == 59
    _assert_pitch_matches_oracle(frames, 16000)


def test_pitch_fft_size_is_the_smallest_5_smooth_length():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    sizes = [_smooth_size(m) for m in range(1, 6001)]
    for m, size in zip(range(1, 6001), sizes):
        assert size >= m and smooth(size)
        assert not any(smooth(k) for k in range(m, size))
    assert _smooth_size(2048 + 320) == 2400
    assert _smooth_size(2048 + 441) == 2500


@pytest.mark.parametrize("sample_rate, size", [(16000, 2400), (22050, 2500), (48000, 3072)])
def test_pitch_kernel_blocks_depend_only_on_rows_and_fft_size(monkeypatch, sample_rate, size):
    """One rfft per block of max(1, _FRAME_BLOCK_POINTS // N) rows at the
    5-smooth length N >= n + lag_max; the last block takes the rest."""
    calls = []
    rfft = np.fft.rfft

    def spy(a, n=None, axis=-1, **kwargs):
        calls.append((a.shape[0], n))
        return rfft(a, n, axis, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    frames = _tone_frames(200.0, sample_rate, seconds=3.0)
    _pitch_peaks(frames, sample_rate)
    block = audio_features._FRAME_BLOCK_POINTS // size
    rows = frames.shape[0]
    assert size >= 2048 + min(2047, round(sample_rate / 50.0))
    assert calls == [(min(block, rows - lo), size) for lo in range(0, rows, block)]


def test_autocorr_pitch_is_a_one_row_kernel_call():
    for frame in _tone_frames(150.0, 16000)[:3]:
        values, lags = _pitch_peaks(frame[np.newaxis], 16000)
        assert autocorr_pitch(frame, 16000) == (values[0], lags[0])
    assert autocorr_pitch(np.zeros(2048), 16000) == (0.0, 0)


def test_walk_submultiples_matches_reference_walk():
    """The vectorized walk picks the oracle walk's lag on any window,
    including the flat and tied windows of DC, spikes and impulses."""
    rng = np.random.default_rng(12)
    windows = []
    for samples in (np.full(8000, 0.5), rng.standard_normal(8000), np.sin(np.arange(8000) / 9.0)):
        for frame in frame_signal(samples, FrameConfig())[:4]:
            found = _reference_window(frame, 16000)
            windows.append((found[0], found[1][np.newaxis]))
    for _ in range(300):
        lag_min = int(rng.integers(1, 50))
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 300)))
        window = np.round(rng.uniform(-1.0, 1.0, shape), int(rng.integers(1, 4)))
        if rng.random() < 0.3:  # periodic peaks with multiples that score alike
            period = rng.uniform(2.0, 40.0)
            window = np.abs(np.cos(np.pi * np.arange(shape[1]) / period)) * rng.uniform(
                0.97, 1.0, shape)
        windows.append((lag_min, window))
    for lag_min, window in windows:
        want = [_reference_walk(row, lag_min) for row in window]
        assert _walk_submultiples(window, lag_min).tolist() == want


@pytest.mark.parametrize("seconds", [0.6, 2.0, 4.5])
def test_pitch_kernel_frame_and_silent_totals_match_oracle_on_a_corpus(tmp_path, seconds):
    """A synthetic corpus at a benchmark workload's clip length: per clip the
    kernel matches the oracle, and the frame and silent-frame totals agree."""
    manifest = generate_corpus(tmp_path, seed=5, n_per_class=2, duration=seconds)
    frames_total = silent = want_silent = 0
    for line in manifest.read_text().splitlines():
        clip = decode_wav(tmp_path / json.loads(line)["audio"])
        frames = frame_signal(clip.samples, FrameConfig())
        values, lags, oracle_silent = _assert_pitch_matches_oracle(
            frames, clip.sample_rate, ties=True)
        frames_total += frames.shape[0]
        silent += int(np.count_nonzero((values == 0) & (lags == 0)))
        want_silent += int(np.count_nonzero(oracle_silent))
    assert frames_total == 12 * FrameConfig().frame_count(int(round(16000 * seconds)))
    assert silent == want_silent > 0


# --- harmonic feature


def test_harmonic_silence_is_zero():
    hm, per_frame = harmonic_feature(clip_of(np.zeros(8000)), FrameConfig())
    assert hm == 0.0
    assert np.all(per_frame == 0.0)


def test_harmonic_steady_aligned_tone_matches_raw_mean():
    # 32 cycles per 2048-sample frame keeps every frame's spectrum identical
    config = FrameConfig()
    f = 32 * SR / config.frame_length
    tone = make_tone(f, SR, 1.0)
    hm, _ = harmonic_feature(tone, config, l_harm=31)
    raw = spectrogram(tone, config).mean()
    assert abs(hm - raw) / raw < 1e-6


def test_harmonic_prefers_sustained_tone_over_impulses():
    n = SR
    impulses = np.zeros(n)
    impulses[::6400] = 1.0
    tone = make_tone(220, SR, 1.0).samples
    tone *= np.sqrt(np.mean(impulses**2)) / np.sqrt(np.mean(tone**2))
    config = FrameConfig()
    hm_impulse, _ = harmonic_feature(clip_of(impulses), config, 31)
    hm_tone, _ = harmonic_feature(clip_of(tone), config, 31)
    assert hm_tone > hm_impulse


def test_harmonic_per_frame_matches_median_rows():
    rng = np.random.default_rng(1)
    clip = clip_of(rng.uniform(-0.5, 0.5, 6000), sr=8000)
    config = FrameConfig(frame_length=512, hop_length=256)
    spec = spectrogram(clip, config)
    filtered = np.vstack([median_filter_1d(row, 5) for row in spec])
    _, per_frame = harmonic_feature(clip, config, l_harm=5)
    assert np.allclose(per_frame, filtered.mean(axis=0))


# seconds, framing, l_harm and noise seed of two clips where filtering the
# spectrogram in place went wrong once, and the frozen bits of their 8-vector
# (float.hex) and of their frame sequence (sha256 of its bytes)
_EDGE_CLIPS = [
    ((0.05, 512, 128, 4, 31),
     ["0x1.2995ec045e28bp-3", "0x1.62f8bedb7aaafp-6", "0x1.7471172ce08ffp+2",
      "0x1.28555a618e57fp-2", "0x1.45e5cecea6a01p-9", "0x1.d47ae147ae148p-3",
      "0x1.c1c57875dbfd7p-8", "0x1.28ca635e0d97dp-2"],
     "226b22f9e8e9a969d3be29d28b326b49344f306e7df78f5dc2caf8f6871309ac"),
    ((17 * 4096 / 16000, 4096, 4096, 31, 32),
     ["0x1.76bc36ad3ed02p-5", "0x1.e58eecad57666p-8", "0x1.ed9a82b145d9cp+3",
      "0x1.26fff1c9a3422p-2", "0x1.2bdf6658df118p-9", "0x1.d8e1e1e1e1e1ep-3",
      "0x1.0ff2b553de5fap-13", "0x1.27025178b81bdp-2"],
     "df611b58489e417cb090d0d3908b106272f0cb1c61939766d033e7f8eefa3081"),
]


@pytest.mark.parametrize("clip_args, vector, sequence_sha", _EDGE_CLIPS,
                         ids=["3-frames-l4", "17-frames-l31"])
def test_edge_clips_match_frozen_features(clip_args, vector, sequence_sha):
    # 3 frames of 512/128 with l_harm 4, and 17 frames of 4096/4096 with
    # l_harm 31: each has whole-row columns beside partial ones
    seconds, frame_length, hop_length, l_harm, seed = clip_args
    n = int(round(seconds * 16000))
    clip = clip_of(np.random.default_rng(seed).uniform(-0.5, 0.5, n), sr=16000)
    config = FrameConfig(frame_length, hop_length)
    got = extract_audio_features(clip, config, l_harm)
    assert [float(v).hex() for v in got] == vector
    frames = extract_frame_sequence(clip, config, l_harm)
    assert hashlib.sha256(frames.tobytes()).hexdigest() == sequence_sha


@pytest.mark.parametrize("frame_length, hop_length", [(2048, 512), (512, 128), (256, 64)])
def test_per_frame_kernels_do_not_depend_on_the_block(monkeypatch, frame_length, hop_length):
    # blocks of 1 frame, of 7 (a short last block) and of every frame give
    # the bits of the unblocked formulas
    clip = _noisy_tone(1.5, seed=12)
    config = FrameConfig(frame_length, hop_length)
    frames = frame_signal(clip.samples, config)
    want_mags = np.abs(np.fft.rfft(frames, axis=1)).T
    want_rmse = np.sqrt(np.mean(frames**2, axis=1))
    want_moments = frames.mean(axis=1), frames.std(axis=1)
    for block in (1, 7, frames.shape[0]):
        monkeypatch.setattr(audio_features, "_FRAME_BLOCK_POINTS", block * frame_length)
        mags = spectrogram(clip, config)
        assert mags.flags.f_contiguous
        assert mags.tobytes(order="F") == want_mags.tobytes(order="F")
        assert rmse(clip, config)[2].tobytes() == want_rmse.tobytes()
        for got, want in zip(_frame_moments(frames), want_moments):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seconds", [4.5, 30.0])
def test_clip_working_set_is_one_spectrogram_and_fixed_blocks(seconds):
    # one float64 magnitude spectrogram (1.1 MB at 4.5 s, 7.7 MB at 30 s) and
    # at most 3 MB of block buffers, whatever the clip length
    clip = _noisy_tone(seconds, seed=13)
    config = FrameConfig()
    spectrogram_bytes = 8 * (config.frame_length // 2 + 1) * config.frame_count(
        clip.samples.size)
    for extract in (extract_audio_features, extract_frame_sequence):
        tracemalloc.start()
        try:
            extract(clip)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= spectrogram_bytes + 3 * 2**20, (extract.__name__, peak)


# --- RMSE


def test_rmse_constant_signal():
    mean, std, _ = rmse(clip_of(np.full(5000, -0.4)), FrameConfig())
    assert mean == pytest.approx(0.4)
    assert std == pytest.approx(0.0, abs=1e-12)


def test_rmse_full_scale_sine():
    mean, _, _ = rmse(make_tone(220, SR, 1.0), FrameConfig())
    assert abs(mean - 1 / np.sqrt(2)) < 1e-3


def test_rmse_silence():
    mean, std, per_frame = rmse(clip_of(np.zeros(4096)), FrameConfig())
    assert mean == 0.0 and std == 0.0
    assert np.all(per_frame == 0.0)


def test_rmse_never_exceeds_peak():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-1, 1, int(rng.integers(100, 9000)))
        mean, _, per_frame = rmse(clip_of(x), FrameConfig())
        assert mean <= np.max(np.abs(x)) + 1e-12
        assert np.all(per_frame <= np.max(np.abs(x)) + 1e-12)


# --- pause ratio


def test_pause_ratio_thirty_percent_zeros():
    samples = np.concatenate([np.zeros(300), np.ones(700)])
    assert pause_ratio(clip_of(samples)) == 0.3


def test_pause_ratio_constant_is_zero():
    assert pause_ratio(clip_of(np.ones(1000))) == 0.0


def test_pause_ratio_silence_degenerate_zero():
    assert pause_ratio(clip_of(np.zeros(1000))) == 0.0


def test_pause_ratio_scale_invariant():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, 2000)
    base = pause_ratio(clip_of(x))
    for scale in (0.5, 0.01, 3.0):
        assert pause_ratio(clip_of(scale * x)) == base


# --- central moments


def test_central_moments_constant():
    assert central_moments(clip_of(np.full(100, 0.25))) == (0.25, 0.0)


def test_central_moments_alternating():
    mean, std = central_moments(clip_of(np.tile([-1.0, 1.0], 50)))
    assert mean == pytest.approx(0.0)
    assert std == pytest.approx(1.0)


def test_central_moments_uniform_noise_bound():
    n = 100_000
    x = np.random.default_rng(12).uniform(-1, 1, n)
    mean, std = central_moments(clip_of(x))
    sigma = 1 / np.sqrt(3)  # stdev of U(-1, 1)
    assert abs(mean) < 3 * sigma / np.sqrt(n)


# --- full extraction


def test_extract_silence_all_zero():
    vec = extract_audio_features(clip_of(np.zeros(6000)))
    assert np.array_equal(vec, np.zeros(8))


def test_extract_shape_and_finiteness():
    rng = np.random.default_rng(4)
    vec = extract_audio_features(clip_of(rng.uniform(-1, 1, 7000)))
    assert vec.shape == (len(AUDIO_FEATURE_NAMES),)
    assert np.isfinite(vec).all()


def test_extract_pause_unchanged_under_scaling():
    tone = make_tone(150, SR, 0.4, amplitude=0.8)
    half = clip_of(0.5 * tone.samples)
    idx = AUDIO_FEATURE_NAMES.index("pause_ratio")
    assert extract_audio_features(tone)[idx] == extract_audio_features(half)[idx]


def test_extract_is_pure():
    tone = make_tone(97, SR, 0.3, amplitude=0.6)
    a = extract_audio_features(tone)
    b = extract_audio_features(tone)
    assert np.array_equal(a, b)


def test_extractors_reject_samples_that_overflow_the_features():
    # 1e200 squared overflows to inf; a decoded WAV's samples stay within float32's
    # 3.4e38, whose square is finite, so only a library clip gets here
    clip = AudioClip(1e200 * np.sin(np.arange(5000)), 16000)
    with np.errstate(over="ignore", invalid="ignore"):
        for extract in (extract_audio_features, extract_frame_sequence):
            with pytest.raises(ParameterError, match="features must be finite"):
                extract(clip)


# --- framing and sequences


def test_frame_count_short_clip_pads_to_one():
    config = FrameConfig(frame_length=2048, hop_length=512)
    assert config.frame_count(100) == 1
    frames = frame_signal(np.ones(100), config)
    assert frames.shape == (1, 2048)
    assert frames[0, 100:].sum() == 0.0


def test_frame_signal_is_a_read_only_view():
    samples = np.random.default_rng(6).uniform(-1, 1, 2048 + 5 * 512 + 100)
    frames = frame_signal(samples, FrameConfig())
    assert frames.shape == (6, 2048)
    assert np.shares_memory(frames, samples)
    assert np.array_equal(frames[3], samples[3 * 512 : 3 * 512 + 2048])
    with pytest.raises(ValueError):
        frames[0, 0] = 1.0


@pytest.mark.parametrize("seconds", [0.6, 2.0, 4.5])
def test_features_on_frame_views_match_copied_frames(monkeypatch, seconds):
    clip = _noisy_tone(seconds, seed=10)
    want = extract_audio_features(clip), extract_frame_sequence(clip)
    viewing = audio_features.frame_signal

    def copying(samples, config):
        return np.ascontiguousarray(viewing(samples, config))

    monkeypatch.setattr(audio_features, "frame_signal", copying)
    got = extract_audio_features(clip), extract_frame_sequence(clip)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def test_frame_count_closed_form():
    config = FrameConfig(frame_length=2048, hop_length=512)
    n = 2048 + 3 * 512
    seq = extract_frame_sequence(clip_of(np.random.default_rng(0).uniform(-1, 1, n)))
    assert seq.shape[0] == 4


def test_frame_sequence_exact_length_single_frame():
    seq = extract_frame_sequence(clip_of(np.ones(2048)))
    assert seq.shape[0] == 1


def test_frame_sequence_silence_zero():
    seq = extract_frame_sequence(clip_of(np.zeros(4096)))
    assert np.all(seq == 0.0)


@pytest.mark.parametrize("seconds, l_harm", [(0.05, 31), (0.6, 31), (2.0, 4)])
def test_frame_sequence_reduces_to_clip_summary(seconds, l_harm):
    """Both summaries come from one per-frame pass: the sequence's pitch and
    RMSE columns reduce exactly to the 8-vector's means and spreads."""
    rng = np.random.default_rng(8)
    n = int(SR * seconds)
    samples = 0.5 * np.sin(2 * np.pi * 180 * np.arange(n) / SR) * rng.uniform(0, 1, n)
    clip = clip_of(samples)
    vec = dict(zip(AUDIO_FEATURE_NAMES, extract_audio_features(clip, l_harm=l_harm)))
    seq = extract_frame_sequence(clip, l_harm=l_harm)
    assert seq[:, 0].mean() == vec["autocorr_peak_mean"]
    assert seq[:, 0].std() == vec["autocorr_peak_std"]
    assert seq[:, 1].mean() == vec["rmse_mean"]
    assert seq[:, 1].std() == vec["rmse_std"]
    assert np.allclose(seq[:, 2].mean(), vec["harmonic_mean"], rtol=1e-12, atol=0.0)


def test_frame_config_validation():
    with pytest.raises(ParameterError):
        FrameConfig(frame_length=0)
    with pytest.raises(ParameterError):
        FrameConfig(frame_length=128, hop_length=256)


def test_frame_length_is_capped():
    # a frame the block budget of the per-frame kernels can hold
    assert FrameConfig(frame_length=MAX_FRAME_LENGTH, hop_length=1).frame_length == 1 << 16
    for frame_length in (MAX_FRAME_LENGTH + 1, 2_000_000_000):
        with pytest.raises(ParameterError, match=r"frame_length must be in \[1, 65536\]"):
            FrameConfig(frame_length=frame_length)

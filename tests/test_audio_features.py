import tracemalloc

import numpy as np
import pytest

from emoforge import audio_features
from emoforge.audio_features import (
    AUDIO_FEATURE_NAMES,
    FrameConfig,
    _median_filter_time,
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
from emoforge.audio_io import AudioClip
from emoforge.errors import ParameterError

from conftest import make_tone

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
            _assert_same_filter_output(_median_filter_time(data, l), want)


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
        assert spectrogram(clip, config).magnitudes.flags.f_contiguous
        got_mean, got_frames = harmonic_feature(clip, config)
        with monkeypatch.context() as patch:
            patch.setattr(audio_features, "_median_filter_time", _reference_median_filter_time)
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
                    _assert_same_filter_output(_median_filter_time(data, l), want)


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
                got = _median_filter_time(x, l)
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
            _assert_same_filter_output(_median_filter_time(data, l), want)


def test_median_filter_working_set_is_bounded_by_the_block(monkeypatch):
    # sorting every pair's core at once would hold rows * n/2 * l values
    # (14.8 MB for n = 60, l = 59); blocks keep it to the block plus the output
    monkeypatch.setattr(audio_features, "_BLOCK_ELEMENTS", 1 << 16)
    rng = np.random.default_rng(25)
    for n, l in ((60, 59), (137, 31)):
        x = np.asfortranarray(rng.uniform(0.0, 1.0, (1025, n)))
        tracemalloc.start()
        try:
            _median_filter_time(x, l)
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
            _assert_same_filter_output(_median_filter_time(data, l), want)


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
    raw = spectrogram(tone, config).magnitudes.mean()
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
    filtered = np.vstack([median_filter_1d(row, 5) for row in spec.magnitudes])
    _, per_frame = harmonic_feature(clip, config, l_harm=5)
    assert np.allclose(per_frame, filtered.mean(axis=0))


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
    vec = extract_audio_features(clip_of(np.zeros(6000))).to_array()
    assert np.array_equal(vec, np.zeros(8))


def test_extract_shape_and_finiteness():
    rng = np.random.default_rng(4)
    vec = extract_audio_features(clip_of(rng.uniform(-1, 1, 7000))).to_array()
    assert vec.shape == (len(AUDIO_FEATURE_NAMES),)
    assert np.isfinite(vec).all()


def test_extract_pause_unchanged_under_scaling():
    tone = make_tone(150, SR, 0.4, amplitude=0.8)
    half = clip_of(0.5 * tone.samples)
    idx = AUDIO_FEATURE_NAMES.index("pause_ratio")
    assert extract_audio_features(tone).to_array()[idx] == extract_audio_features(half).to_array()[idx]


def test_extract_is_pure():
    tone = make_tone(97, SR, 0.3, amplitude=0.6)
    a = extract_audio_features(tone).to_array()
    b = extract_audio_features(tone).to_array()
    assert np.array_equal(a, b)


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
    want = extract_audio_features(clip).to_array(), extract_frame_sequence(clip).vectors
    viewing = audio_features.frame_signal

    def copying(samples, config):
        return np.ascontiguousarray(viewing(samples, config))

    monkeypatch.setattr(audio_features, "frame_signal", copying)
    got = extract_audio_features(clip).to_array(), extract_frame_sequence(clip).vectors
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def test_frame_count_closed_form():
    config = FrameConfig(frame_length=2048, hop_length=512)
    n = 2048 + 3 * 512
    seq = extract_frame_sequence(clip_of(np.random.default_rng(0).uniform(-1, 1, n)))
    assert seq.frame_count == 4


def test_frame_sequence_exact_length_single_frame():
    seq = extract_frame_sequence(clip_of(np.ones(2048)))
    assert seq.frame_count == 1


def test_frame_sequence_silence_zero():
    seq = extract_frame_sequence(clip_of(np.zeros(4096)))
    assert np.all(seq.vectors == 0.0)


@pytest.mark.parametrize("seconds, l_harm", [(0.05, 31), (0.6, 31), (2.0, 4)])
def test_frame_sequence_reduces_to_clip_summary(seconds, l_harm):
    """Both summaries come from one per-frame pass: the sequence's pitch and
    RMSE columns reduce exactly to the 8-vector's means and spreads."""
    rng = np.random.default_rng(8)
    n = int(SR * seconds)
    samples = 0.5 * np.sin(2 * np.pi * 180 * np.arange(n) / SR) * rng.uniform(0, 1, n)
    clip = clip_of(samples)
    vec = dict(zip(AUDIO_FEATURE_NAMES, extract_audio_features(clip, l_harm=l_harm).to_array()))
    seq = extract_frame_sequence(clip, l_harm=l_harm).vectors
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

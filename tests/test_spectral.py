"""Fourier basis, STFT, sliding DFT, band-energy maps, VIBMAP01."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import naive_stft, naive_window_dft, trailing_window_bins
from vibeline import (
    DetectConfig,
    FormatError,
    SizeMismatchError,
    SlidingDft,
    ValidationError,
    band_energy_from_frames,
    detect_frames,
    detect_with_timing,
    dft_basis,
    nearest_band,
    read_vibmap,
    stft,
    window_count,
    write_vibmap,
)
from vibeline import spectral
from vibeline.core import _snapped_cos_sin, _unit_float
from vibeline.phantom import needle_geometry, synth_sequence
from vibeline.spectral import RATIO_EPS, _energy_ratio

from helpers import small_vibrating_spec


# --------------------------------------------------------------------------
# Basis
# --------------------------------------------------------------------------

def test_basis_len4_matches_hand_derived_matrix_exactly():
    rows = dft_basis(4).rows
    expect = np.array([
        [1.0, 1.0, 1.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, -1.0, 0.0],
        [0.0, -1.0, 0.0, 1.0],
    ])
    assert rows.shape == (4, 4)
    assert np.array_equal(rows, expect)


@pytest.mark.parametrize("n", [4, 8, 10, 16])
def test_basis_rows_follow_defining_formula(n):
    rows = dft_basis(n).rows
    assert rows.shape == (2 * (n // 2), n)
    for k in range(n // 2):
        for i in range(n):
            ang = 2.0 * math.pi * i * k / n
            assert rows[2 * k, i] == pytest.approx(math.cos(ang), abs=1e-12)
            assert rows[2 * k + 1, i] == pytest.approx(-math.sin(ang), abs=1e-12)


@pytest.mark.parametrize("n", [4, 8, 10, 16])
def test_basis_orthogonality_and_norms(n):
    rows = dft_basis(n).rows
    for k in range(1, n // 2):
        cos_row = rows[2 * k]
        sin_row = rows[2 * k + 1]
        assert abs(cos_row @ sin_row) <= 1e-10
        assert abs(cos_row @ cos_row - n / 2) <= 1e-10
        assert abs(sin_row @ sin_row - n / 2) <= 1e-10


# The quarter-turn table the basis used before the snap moved into core,
# kept verbatim as the oracle the shared rule must reproduce bit for bit.
_COS_QUARTER = np.array([1.0, 0.0, -1.0, 0.0])
_SIN_QUARTER = np.array([0.0, 1.0, 0.0, -1.0])


def _quarter_table_cos_sin(num, den: int):
    num = np.asarray(num, dtype=np.int64) % den
    ang = 2.0 * np.pi * num / den
    c = np.cos(ang)
    s = np.sin(ang)
    quad, rem = np.divmod(4 * num, den)
    exact = rem == 0
    quad = np.where(exact, quad, 0)
    c = np.where(exact, _COS_QUARTER[quad], c)
    s = np.where(exact, _SIN_QUARTER[quad], s)
    return c, s


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def test_snap_reproduces_the_quarter_table_for_every_phase():
    # every phase any basis of N <= 2048 uses is some 2*pi*r/N, 0 <= r < N
    for n in range(2, 2049):
        num = np.arange(n)
        got = _snapped_cos_sin(2.0 * np.pi * num / n)
        want = _quarter_table_cos_sin(num, n)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1]), n


@pytest.mark.parametrize("n", [*range(2, 65), 97, 360, 1000, 1023, 2048])
def test_basis_and_sliding_rotation_equal_the_quarter_table(n):
    rows = np.empty((2 * (n // 2), n))
    for k in range(n // 2):
        c, s = _quarter_table_cos_sin(k * np.arange(n), n)
        rows[2 * k], rows[2 * k + 1] = c, -s
    assert _same_bits(dft_basis(n).rows, rows)
    c, s = _quarter_table_cos_sin(np.arange(n // 2), n)
    assert _same_bits(SlidingDft(n)._rot, c + 1j * s)


def test_basis_bin_freqs():
    basis = dft_basis(10)
    assert basis.n_bins == 5
    assert np.allclose(basis.bin_freqs(30.0), [0.0, 3.0, 6.0, 9.0, 12.0])


def test_basis_rejects_tiny_window():
    with pytest.raises(ValidationError):
        dft_basis(1)


def test_basis_is_built_once_per_length_and_shared_read_only():
    basis = dft_basis(10)
    assert dft_basis(10) is basis
    assert not basis.rows.flags.writeable
    with pytest.raises(ValueError):
        basis.rows[0, 0] = 2.0
    same = dft_basis(np.int64(10))
    assert same.window_len == 10 and type(same.window_len) is int
    assert _same_bits(same.rows, basis.rows)


def test_a_basis_whose_table_cannot_be_allocated_raises_validation_error():
    # 8e24 bytes, past numpy's size limit, so nothing is allocated
    basis = dft_basis(10)
    cached = spectral._cached_basis.cache_info().currsize
    with pytest.raises(ValidationError,
                       match=r"^window_len 1000000000000 needs a "
                             r"8000000000000000000000000-byte basis table"):
        dft_basis(10**12)
    assert spectral._cached_basis.cache_info().currsize == cached
    assert dft_basis(10) is basis


@pytest.mark.parametrize("bad", [10.0, True, 1, "10"])
def test_a_cached_basis_still_rejects_a_bad_length(bad):
    dft_basis(10)
    with pytest.raises(ValidationError, match="^window_len must be"):
        dft_basis(bad)


def test_constant_signal_hits_only_bin_zero():
    rows = dft_basis(4).rows
    bins = rows @ np.ones(4)
    assert np.array_equal(bins, [4.0, 0.0, 0.0, 0.0])


def test_single_tone_len8_lands_on_bin_one():
    n = 8
    x = np.cos(2.0 * math.pi * np.arange(n) / n)
    bins = dft_basis(n).rows @ x
    expect = np.zeros(2 * (n // 2))
    expect[2] = n / 2  # bin 1, real part
    assert np.allclose(bins, expect, atol=1e-12)


# --------------------------------------------------------------------------
# STFT
# --------------------------------------------------------------------------

def test_window_count_examples():
    assert window_count(30, 10, 1) == 21
    assert window_count(30, 10, 2) == 11
    assert window_count(10, 10, 1) == 1


def test_stft_shape_and_hop():
    x = np.random.default_rng(0).normal(size=30)
    spec = stft(x, 10, hop=1)
    assert spec.values.shape == (10, 21)
    assert stft(x, 10, hop=2).values.shape == (10, 11)


def test_stft_matches_naive_dft_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = rng.normal(size=30)
        got = stft(x, 10, hop=1).values
        want = naive_stft(x, 10, hop=1)
        assert np.max(np.abs(got - want)) <= 1e-6


def test_stft_hop_three_matches_naive_oracle():
    x = np.random.default_rng(7).normal(size=32)
    got = stft(x, 8, hop=3).values
    want = naive_stft(x, 8, hop=3)
    assert got.shape == want.shape == (8, 9)
    assert np.max(np.abs(got - want)) <= 1e-6


def test_stft_agrees_with_numpy_rfft():
    x = np.random.default_rng(5).normal(size=10)
    col = stft(x, 10, hop=1).values[:, 0]
    ref = np.fft.rfft(x)
    for k in range(5):
        assert col[2 * k] == pytest.approx(ref[k].real, abs=1e-9)
        assert col[2 * k + 1] == pytest.approx(ref[k].imag, abs=1e-9)


def test_stft_constant_signal_energy_in_dc_only():
    spec = stft(np.full(30, 0.7), 10, hop=1)
    power = spec.power()
    assert np.allclose(power[0], (0.7 * 10) ** 2)
    assert np.max(power[1:]) <= 1e-20


def test_stft_rejects_short_signal_and_bad_hop():
    with pytest.raises(ValidationError):
        stft(np.zeros(9), 10)
    with pytest.raises(ValidationError):
        stft(np.zeros(30), 10, hop=0)
    with pytest.raises(ValidationError):
        stft(np.zeros((5, 6)), 4)


# --------------------------------------------------------------------------
# Sliding DFT
# --------------------------------------------------------------------------

def test_sliding_dft_of_zeros_is_zero():
    sd = SlidingDft(10)
    for _ in range(10):
        bins = sd.push(0.0)
    assert np.array_equal(bins, np.zeros(5, dtype=np.complex128))


def test_sliding_dft_matches_trailing_window_oracle():
    rng = np.random.default_rng(11)
    x = rng.normal(size=200)
    sd = SlidingDft(10)
    for t in range(200):
        got = sd.push(x[t]).copy()
        want = trailing_window_bins(x, t + 1, 10)
        assert np.max(np.abs(got - want)) <= 1e-5


@pytest.mark.parametrize("n", [4, 8])
def test_sliding_dft_oracle_other_window_lengths(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=50)
    sd = SlidingDft(n)
    for t in range(50):
        got = sd.push(x[t]).copy()
        want = trailing_window_bins(x, t + 1, n)
        assert np.max(np.abs(got - want)) <= 1e-6


def test_sliding_dft_tone_magnitude_converges():
    n = 10
    amp = 0.7
    sd = SlidingDft(n)
    for t in range(25):
        bins = sd.push(amp * math.sin(2.0 * math.pi * t / n))
        if t >= n - 1:
            assert abs(abs(bins[1]) - amp * n / 2) <= 1e-9


def test_sliding_dft_rows_match_batch_stft_column():
    x = np.random.default_rng(13).normal(size=30)
    sd = SlidingDft(10)
    for t in range(30):
        sd.push(x[t])
        if t >= 9:
            want = stft(x[: t + 1], 10, hop=1).values[:, -1]
            assert np.max(np.abs(sd.bins.real - want[0::2])) <= 1e-8
            assert np.max(np.abs(sd.bins.imag - want[1::2])) <= 1e-8


def test_sliding_dft_rejects_tiny_window():
    with pytest.raises(ValidationError):
        SlidingDft(1)


# --------------------------------------------------------------------------
# Band energy
# --------------------------------------------------------------------------

@pytest.mark.parametrize("fs", [math.inf, math.nan, 0.0, -30.0])
def test_nearest_band_rejects_a_non_finite_or_non_positive_fps(fs):
    with pytest.raises(ValidationError):
        nearest_band(10, fs, 3.0)


def test_nearest_band_picks_closest_non_dc_bin():
    # 10-sample window at 30 fps: bins at 0, 3, 6, 9, 12 Hz.
    assert nearest_band(10, 30.0, 2.5) == 1
    assert nearest_band(10, 30.0, 7.0) == 2
    assert nearest_band(10, 30.0, 4.5) == 1  # tie breaks to the lower bin


def _argmin_band(window_len, fs, target_freq):
    """nearest_band as an argmin over every non-DC bin centre: the oracle."""
    freqs = np.arange(1, window_len // 2) * float(fs) / window_len
    return 1 + int(np.argmin(np.abs(freqs - target_freq)))


_BAND_FS = st.floats(1e-3, 1e5, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 4096), _BAND_FS, st.floats(0.0, 1.0, exclude_min=True,
                                                 exclude_max=True))
@example(10, 30.0, 4.5 / 15.0)   # the midpoint of bins 1 and 2: 4.5 Hz
@example(4, 30.0, 0.999999)      # one non-DC bin
def test_nearest_band_equals_the_argmin_over_every_bin(window_len, fs, share):
    target = share * fs / 2.0
    assume(0.0 < target < fs / 2.0)
    assert nearest_band(window_len, fs, target) == _argmin_band(
        window_len, fs, target)


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 4096), _BAND_FS, st.integers(1, 2046))
@example(10, 30.0, 1)
def test_nearest_band_keeps_the_lower_bin_at_a_midpoint(window_len, fs, k):
    # (k + 1/2) fs / N lies half-way between bins k and k + 1, up to rounding
    # on either side, which the oracle resolves bit for bit
    k = max(1, min(k, window_len // 2 - 2))
    target = (k + 0.5) * fs / window_len
    assume(0.0 < target < fs / 2.0)
    want = _argmin_band(window_len, fs, target)
    assert nearest_band(window_len, fs, target) == want
    if (window_len, fs) == (10, 30.0):
        assert want == 1  # 4.5 Hz: 3 and 6 Hz are 1.5 Hz away


def test_nearest_band_of_a_huge_window_returns_at_once():
    # the argmin over every bin would build 5e11 floats
    assert nearest_band(10**12, 30.0, 2.5) == 83_333_333_333


def test_constant_sequence_gives_zero_map():
    # A constant pixel leaves only rounding dust in the non-DC bins (mean
    # power <= ~1.3e-30 over the uint8 levels), below RATIO_EPS.
    values, k_star = band_energy_from_frames(np.full((12, 16, 16), 0.5),
                                             30.0, 2.5)
    assert k_star == 1
    assert np.array_equal(values, np.zeros((16, 16)))
    # the same holds at a level with no exact binary form
    values, _ = band_energy_from_frames(np.full((12, 16, 16), 0.4), 30.0, 2.5)
    assert np.array_equal(values, np.zeros((16, 16)))


def test_energy_ratio_zeroes_dust_and_keeps_nan():
    m = 3
    num = np.array([1e-70, 2e-12, 1.0, np.nan, 0.0, 1e-13])
    den = np.array([3e-60, 4e-12, 2.0, 0.0, np.nan, 3e-12])
    values = _energy_ratio(num, den, m)
    # mean non-DC power <= RATIO_EPS scores 0, anything above it the ratio
    assert values[0] == 0.0 and values[5] == 0.0
    assert values[1] == (num[1] / m) / (den[1] / m + RATIO_EPS)
    assert values[2] == (1.0 / m) / (2.0 / m + RATIO_EPS)
    assert np.isnan(values[3]) and np.isnan(values[4])


# every non-DC bin k < N//2, for even and odd N: the maps correlate only
# the non-DC pairs, so bin k is row k - 1 of their power
@pytest.mark.parametrize("n,k", [(n, k) for n in (4, 5, 7, 10, 11, 16)
                                 for k in range(1, n // 2)])
def test_pure_bin_tone_gives_ratio_one(n, k):
    t = np.arange(30)
    tone = 0.5 + 0.2 * np.sin(2.0 * math.pi * k * t / n)  # k * 30/n Hz
    frames = np.broadcast_to(tone[:, None, None], (30, 16, 16)).copy()
    values, k_star = band_energy_from_frames(frames, 30.0, k * 30.0 / n, n)
    assert k_star == k
    assert np.max(np.abs(values - 1.0)) <= 1e-9


def test_band_energy_values_stay_in_unit_interval():
    rng = np.random.default_rng(17)
    frames = rng.uniform(size=(30, 20, 22))
    values, _ = band_energy_from_frames(frames, 30.0, 2.5)
    assert values.min() >= 0.0 and values.max() <= 1.0


def test_band_energy_is_affine_invariant():
    rng = np.random.default_rng(19)
    frames = rng.uniform(size=(30, 14, 15))
    base, _ = band_energy_from_frames(frames, 30.0, 2.5)
    # no mean is removed, so the offset rides through the correlation and
    # cancels only in the basis rows' zero sums
    for affine in (0.5 * frames + 0.1, frames + 1e3):
        moved, _ = band_energy_from_frames(affine, 30.0, 2.5)
        assert np.max(np.abs(base - moved)) <= 1e-6


def test_band_energy_rejects_out_of_range_target():
    frames = np.zeros((12, 16, 16))
    with pytest.raises(ValidationError):
        band_energy_from_frames(frames, 30.0, 0.0)
    with pytest.raises(ValidationError):
        band_energy_from_frames(frames, 30.0, 15.0)
    with pytest.raises(ValidationError):
        band_energy_from_frames(frames[:5], 30.0, 2.5, window_len=10)
    for bad in (frames[:, 0], frames[..., None]):  # 2-D and 4-D
        with pytest.raises(ValidationError, match=r"\(T, H, W\)"):
            band_energy_from_frames(bad, 30.0, 2.5)


@pytest.mark.parametrize("hop", [0, -1])
def test_band_energy_rejects_hop_below_one(hop):
    # hop 0 once divided by zero in window_count; hop -1 returned -0.0s
    frames = np.random.default_rng(8).uniform(size=(30, 8, 8))
    with pytest.raises(ValidationError, match="hop must be >= 1"):
        band_energy_from_frames(frames, 30.0, 2.5, hop=hop)


def _whole_image_band_energy(frames01, k_star, window_len, hop):
    """band_energy_from_frames' formula on all pixels at once (no blocks)."""
    basis = dft_basis(window_len)
    t, h, w = frames01.shape
    z = frames01.reshape(t, h * w)
    m = window_count(t, window_len, hop)
    num = np.zeros(h * w)
    den = np.zeros(h * w)
    for j in range(m):
        spec = basis.rows @ z[j * hop: j * hop + window_len]
        power = spec[0::2] ** 2 + spec[1::2] ** 2
        num += power[k_star]
        den += power[1:].sum(axis=0)
    values = (num / m) / (den / m + RATIO_EPS)
    values *= den / m > RATIO_EPS  # a static pixel's rounding dust scores 0
    np.clip(values, 0.0, 1.0, out=values)
    return values.reshape(h, w)


# 2000 pixels (one partial block), exactly 4096 (one full block), 4690
# (a full block plus a partial one) and 4097 (a one-column tail, once sent
# alone to the matmul's gemv path, which rounds differently); with one
# moving pixel, that pixel alone reaches the kernel.  T == window_len is
# the one window a stream push correlates
@pytest.mark.parametrize("h,w", [(40, 50), (64, 64), (70, 67), (17, 241)])
@pytest.mark.parametrize("window_len,hop", [(10, 1), (10, 3), (12, 1), (12, 3)])
def test_pixel_blocks_match_whole_image_formula_bit_for_bit(h, w, window_len, hop):
    rng = np.random.default_rng(h * w + window_len + hop)
    frames = rng.uniform(size=(31, h, w))
    one_moving = np.broadcast_to(frames[0], frames.shape).copy()
    one_moving[:, h // 2, w // 3] = rng.uniform(size=31)
    for stack in (frames, one_moving):
        for t in (31, window_len):
            values, k_star = band_energy_from_frames(stack[:t], 30.0, 2.5,
                                                     window_len, hop)
            assert np.array_equal(values, _whole_image_band_energy(
                stack[:t], k_star, window_len, hop))


def _oracle_band_power_sums(rows, frames, k_star, hop=1):
    """spectral._band_power_sums as it stood before it reused buffers: each
    window's spectrum, squares, power and bin sum freshly allocated."""
    n = rows.shape[1]
    t, p = frames.shape
    if p == 1:
        return _oracle_band_power_sums(rows, np.repeat(frames, 2, 1), k_star,
                                       hop)[:, :1]
    sums = np.zeros((2, p), dtype=np.float64)
    edges = [*range(0, p - 1, 4096), p]
    for b0, b1 in zip(edges, edges[1:]):
        block = frames[:, b0: b1]
        num_b, den_b = sums[:, b0: b1]
        for j in range(window_count(t, n, hop)):
            spec = rows[2:] @ block[j * hop: j * hop + n]
            power = spec[0::2] ** 2 + spec[1::2] ** 2
            num_b += power[k_star - 1]
            den_b += power.sum(axis=0)
    return sums


# every window length 4-64 (odd ones too), P across the 4096-column block
# edges, uint8 levels or any floats in [0, 1], and a NaN sample or one
# whose power overflows float64
@settings(max_examples=60, deadline=None)
@given(window_len=st.integers(4, 64), hop=st.integers(1, 3),
       extra=st.floats(0.0, 2.0), p=st.sampled_from(
           [1, 2, 3, 4095, 4096, 4097, 8193]), k=st.integers(1, 31),
       levels=st.booleans(), nan=st.booleans(), overflow=st.booleans())
@example(window_len=10, hop=1, extra=0.0, p=4097, k=1, levels=True,
         nan=False, overflow=False)
@example(window_len=64, hop=1, extra=0.0, p=8193, k=31, levels=False,
         nan=True, overflow=True)
def test_the_kernel_returns_the_bits_of_its_oracle(
        window_len, hop, extra, p, k, levels, nan, overflow):
    t = window_len + round(extra * window_len)  # N to 3N samples
    k_star = 1 + (k - 1) % (window_len // 2 - 1)  # a non-DC bin
    rng = np.random.default_rng([window_len, hop, t, p, k])
    frames = (_unit_float(rng.integers(0, 256, (t, p), dtype=np.uint8))
              if levels else rng.uniform(size=(t, p)))
    if nan:
        frames[rng.integers(t), rng.integers(p)] = np.nan
    if overflow:
        frames[rng.integers(t), rng.integers(p)] = 1e200
    rows = dft_basis(window_len).rows
    with np.errstate(invalid="ignore", over="ignore"):
        got = spectral._band_power_sums(rows, frames, k_star, hop)
        want = _oracle_band_power_sums(rows, frames, k_star, hop)
    assert got.shape == want.shape == (2, p)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got.view(np.uint64)[~np.isnan(got)],
                          want.view(np.uint64)[~np.isnan(want)])


# frames in [0, 1] with a random set of exactly static pixels, including
# none, all, and all but one; with none static the kernel reads the frames
# in place, else a packed copy of the moving columns.  At least two
# pixels, so the whole-image oracle never multiplies a single column
@st.composite
def _frames_with_static_pixels(draw):
    window_len, hop = draw(st.sampled_from([(10, 1), (10, 3), (12, 1)]))
    t = draw(st.integers(window_len, window_len + 8))
    h, w = draw(st.integers(1, 9)), draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = rng.uniform(size=(t, h, w))
    static = draw(st.sampled_from([
        rng.uniform(size=(h, w)) < 0.5, rng.uniform(size=(h, w)) < 0.9,
        np.zeros((h, w), bool),
        np.ones((h, w), bool), np.arange(h * w).reshape(h, w) != h * w // 2,
    ]))
    frames[:, static] = frames[0, static]
    return frames, window_len, hop


@settings(max_examples=150, deadline=None)
@given(_frames_with_static_pixels())
def test_static_pixel_skip_matches_whole_image_formula_bit_for_bit(case):
    frames, window_len, hop = case
    values, k_star = band_energy_from_frames(frames, 30.0, 2.5, window_len, hop)
    assert np.array_equal(values.view(np.int64), _whole_image_band_energy(
        frames, k_star, window_len, hop).view(np.int64))


@settings(max_examples=40, deadline=None)
@given(_frames_with_static_pixels(), st.sampled_from([np.inf, -np.inf]))
def test_a_pixel_inf_in_every_frame_is_rejected_without_a_warning(case, inf):
    # an inf pixel is constant but not static: the kernel makes it NaN
    frames, window_len, hop = case
    frames[:, 0, -1] = inf
    cfg = DetectConfig(window_len=window_len, hop=hop)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite"):
            detect_frames(frames, 30.0, cfg)


# one NaN, inf or -inf sample at a drawn (t, y, x) of a stack read in
# place or as a packed copy, at hop 1 and 3.  t is drawn
# from the samples some window reads: one after the last window (or, at
# hop > window_len, between two windows) is never read, so no map can
# show it, and it lies outside the rule
@settings(max_examples=60, deadline=None)
@given(_frames_with_static_pixels(), st.sampled_from([np.nan, np.inf, -np.inf]),
       st.data())
def test_a_non_finite_sample_in_a_window_is_rejected_without_a_warning(
        case, bad, data):
    frames, window_len, hop = case
    t, h, w = frames.shape
    read = (window_count(t, window_len, hop) - 1) * hop + window_len
    frames[data.draw(st.integers(0, read - 1)), data.draw(st.integers(0, h - 1)),
           data.draw(st.integers(0, w - 1))] = bad
    cfg = DetectConfig(window_len=window_len, hop=hop)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match=r"^1 pixel\(s\) have a non-finite sample;"):
            band_energy_from_frames(frames, 30.0, 2.5, window_len, hop)
        with pytest.raises(ValidationError, match="non-finite"):
            detect_frames(frames, 30.0, cfg)


# finite frames far outside [0, 1]: every pixel moving (no column copy),
# or one of 64 (a copy of that column)
@pytest.mark.parametrize("scale", [1e200, 1e155])
@pytest.mark.parametrize("moving", [64, 1])
def test_window_power_past_float64_is_rejected_without_a_warning(scale, moving):
    frames = np.random.default_rng(5).uniform(size=(12, 64))
    frames[:, moving:] = frames[0, moving:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match=r"^the window power overflows float64; "
                                 r"frames belong in \[0, 1\]$"):
            band_energy_from_frames(frames.reshape(12, 8, 8) * scale, 30.0, 3.0)


def test_a_scale_whose_power_fits_float64_keeps_the_map():
    frames = np.random.default_rng(5).uniform(size=(12, 8, 8))
    base, _ = band_energy_from_frames(frames, 30.0, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled, _ = band_energy_from_frames(frames * 1e153, 30.0, 3.0)
        # a static pixel scores 0 at any level, though its dust overflows
        frames[:, 0, 0] = 1e200
        static, _ = band_energy_from_frames(frames, 30.0, 3.0)
    assert np.max(np.abs(scaled - base)) <= 1e-12
    assert static[0, 0] == 0.0
    assert np.array_equal(static.ravel()[1:], base.ravel()[1:])


@settings(max_examples=20, deadline=None)
@given(_frames_with_static_pixels(), st.booleans())
def test_the_kernel_gets_the_stack_itself_only_when_every_pixel_moves(
        case, clipped):
    # with no static pixel the kernel reads the frames in place; one static
    # pixel sends it a packed, C-ordered copy of the other P - 1 columns
    frames, window_len, hop = case
    frames[-1] = (frames[0] + 0.5) % 1.0  # no pixel is static
    if clipped:  # but one, as a pixel clipped at 0 in every frame would be
        frames[:, 0, 0] = 0.0
    seen = []
    kernel = spectral._band_power_sums

    def recorded(rows, flat, *args):
        seen.append(flat)
        return kernel(rows, flat, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_band_power_sums", recorded)
        values, k_star = band_energy_from_frames(frames, 30.0, 2.5,
                                                 window_len, hop)
    assert len(seen) == 1 + (seen[0].shape[1] == 1)  # a lone column re-enters
    t, h, w = frames.shape
    if clipped:
        assert seen[0].shape == (t, h * w - 1) and seen[0].flags.c_contiguous
        assert seen[0].flags.owndata and not np.shares_memory(seen[0], frames)
    else:
        assert seen[0].base is frames
    assert np.array_equal(values, _whole_image_band_energy(
        frames, k_star, window_len, hop))


# uint8 stacks with every count of moving pixels, all and all but one
# included, so the kernel gets both the frames in place and a packed copy;
# 1x1 and one-column images, T == window_len and hop > 1 among them
@st.composite
def _uint8_frames_with_static_pixels(draw):
    window_len, hop = draw(st.sampled_from([(10, 1), (10, 3), (12, 1), (12, 2)]))
    t = draw(st.sampled_from([window_len, window_len + 1, window_len + 7]))
    h, w = draw(st.sampled_from([(1, 1), (9, 1), (1, 9)])
                | st.tuples(st.integers(1, 9), st.integers(1, 9)))
    n_moving = draw(st.sampled_from([h * w - 1, h * w])
                    | st.integers(0, h * w))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = rng.integers(0, 256, size=(t, h * w), dtype=np.uint8)
    static = rng.permutation(h * w) >= n_moving
    frames[:, static] = frames[0, static]
    return frames.reshape(t, h, w), window_len, hop


@settings(max_examples=200, deadline=None)
@given(_uint8_frames_with_static_pixels())
def test_uint8_frames_give_the_map_of_their_floats_bit_for_bit(case):
    frames, window_len, hop = case
    got, k_got = band_energy_from_frames(frames, 30.0, 2.5, window_len, hop)
    want, k_want = band_energy_from_frames(_unit_float(frames), 30.0, 2.5,
                                           window_len, hop)
    assert k_got == k_want
    assert got.tobytes() == want.tobytes()


def test_a_nested_list_of_frames_gives_the_map_of_its_array():
    # a list once raised AttributeError: 'list' object has no attribute 'ndim'
    frames = np.random.default_rng(3).integers(0, 256, (12, 5, 6)) / 255.0
    got, k_got = band_energy_from_frames(frames.tolist(), 30.0, 3.0)
    want, k_want = band_energy_from_frames(frames, 30.0, 3.0)
    assert k_got == k_want
    assert got.tobytes() == want.tobytes()
    with pytest.raises(ValidationError, match=r"shape \(T, H, W\)"):
        band_energy_from_frames(frames[0].tolist(), 30.0, 3.0)


@pytest.mark.parametrize("seed", [2, 7])
def test_detect_frames_on_uint8_equals_detect_frames_on_floats(seed):
    seq, _ = synth_sequence(small_vibrating_spec(seed=seed))
    cfg = DetectConfig(vib_freq=3.0)
    got = detect_with_timing(seq.frames, seq.fps, cfg)
    want = detect_with_timing(seq.frames_float(), seq.fps, cfg)
    assert got[0] == want[0]
    assert detect_frames(seq.frames, seq.fps, cfg)[0] == want[0]
    assert got[2].tobytes() == want[2].tobytes()  # energy map


def test_vibrating_segment_dominates_energy_map():
    # Invisible needle: the energy ratio along the segment must stand far
    # above the static background, which is what detection relies on.
    spec = small_vibrating_spec(seed=2)
    seq, _ = synth_sequence(spec)
    values, _ = band_energy_from_frames(seq.frames_float(), seq.fps,
                                        spec.vib_freq)
    entry, direction, _, _ = needle_geometry(spec)
    ys, xs = np.mgrid[0: spec.height, 0: spec.width]
    rel = np.stack([xs - entry[0], ys - entry[1]], axis=-1)
    along = rel @ direction
    perp = np.abs(rel[..., 0] * (-direction[1]) + rel[..., 1] * direction[0])
    on_segment = (perp <= 1.0) & (along >= 0) & (along <= spec.needle_length)
    far = perp >= 5.0 * spec.motion_sigma
    assert np.median(values[on_segment]) > 5.0 * np.median(values[far])


# --------------------------------------------------------------------------
# VIBMAP01
# --------------------------------------------------------------------------

def test_vibmap_round_trip_2d(tmp_path):
    arr = np.random.default_rng(29).normal(size=(9, 11)).astype(np.float32)
    path = tmp_path / "m.vibmap"
    write_vibmap(path, arr)
    back = read_vibmap(path)
    assert back.shape == (1, 9, 11)
    assert np.array_equal(back[0], arr)


def test_vibmap_round_trip_multichannel(tmp_path):
    arr = np.random.default_rng(31).normal(size=(3, 5, 7)).astype(np.float32)
    path = tmp_path / "m.vibmap"
    write_vibmap(path, arr)
    assert np.array_equal(read_vibmap(path), arr)


def test_vibmap_bad_magic(tmp_path):
    path = tmp_path / "bad.vibmap"
    path.write_bytes(b"WRONG000" + b"\x00" * 32)
    with pytest.raises(FormatError):
        read_vibmap(path)


def test_vibmap_truncated(tmp_path):
    arr = np.ones((4, 4), np.float32)
    path = tmp_path / "t.vibmap"
    write_vibmap(path, arr)
    path.write_bytes(path.read_bytes()[:-6])
    with pytest.raises(SizeMismatchError):
        read_vibmap(path)


def test_vibmap_rejects_bad_rank(tmp_path):
    with pytest.raises(ValidationError):
        write_vibmap(tmp_path / "x.vibmap", np.zeros((2, 2, 2, 2), np.float32))

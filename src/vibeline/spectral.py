"""Fixed Fourier basis, STFT as correlation, sliding DFT, band energy maps.

The transform never calls an FFT: every window is correlated with an
explicit matrix of cosine / negative-sine rows (one pair per bin
k < N//2, see SpectralBasis), so the tests' oracles can redo the arithmetic.
Batch and stream energy maps share one kernel, _band_power_sums, which
correlates the raw frames with the non-DC pairs alone (detection reads
only non-DC power); the STFT uses every row.  No temporal mean is
removed: the non-DC rows cancel a constant up to rounding dust, which
the energy ratio zeroes (see RATIO_EPS); batch maps convert, correlate
and score exactly the pixels that move, copied out unless all move, so a
static pixel is 0 at any offset, and reject non-finite samples.

Trig values go through core's snap, so a phase that is an exact quarter
turn gives exactly -1, 0 or 1; floating-point pi makes np.cos(pi/2) a
6e-17 dust value otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import _snapped_cos_sin, _unit_float
from .errors import ValidationError, _check_band, _check_setting

# Division guard, and the mean non-DC power at or below which a pixel
# scores exactly 0: a static pixel's is rounding dust (at most ~1.3e-30
# over the uint8 levels; batch maps zero static pixels outright), far
# below that of any pixel that moves.
RATIO_EPS = 1e-12

# Pixels per column block of _band_power_sums, for cache locality (~0.3
# MB per window): on a 328x335x30 phantom the batch spectral stage took
# 45.6 ms of CPU time in blocks against 66.4 ms as one whole-frame matmul
# per window (a repeat: 48.1 vs 69.3 ms; one BLAS thread, 2-core VM).
_PIXEL_BLOCK = 4096

# Window lengths whose basis stays cached; batch and stream detection use
# one length per config, and the basis of a long window is large (N^2
# floats: 32 MB at N = 2048).
_BASIS_LENGTHS = 4

@dataclass(frozen=True)
class SpectralBasis:
    """Correlation kernels for one window length.

    rows[2k]   = cos(2*pi*n*k/N) over n = 0..N-1
    rows[2k+1] = -sin(2*pi*n*k/N)
    so correlating a window with the pair (2k, 2k+1) yields the real and
    imaginary parts of the standard forward DFT bin k.  k runs over
    0..floor(N/2)-1: for even N that excludes the Nyquist bin N/2.  Odd
    N has no Nyquist bin, yet bin (N-1)/2, below fs/2, is dropped too,
    so the energy ratio's non-DC total then omits that bin's power.
    """

    window_len: int
    rows: np.ndarray = field(repr=False)

    @property
    def n_bins(self) -> int:
        return self.rows.shape[0] // 2

    def bin_freqs(self, fs: float) -> np.ndarray:
        """Center frequency of every retained bin in Hz."""
        return np.arange(self.n_bins) * float(fs) / self.window_len


def dft_basis(window_len: int) -> SpectralBasis:
    """The basis for window_len samples, built on the first call for that
    length and then shared: the same read-only object on every later call
    while it stays cached (_BASIS_LENGTHS most recent lengths).  An
    integer-valued float, a bool or a str is rejected, cached or not, and
    a length whose table cannot be allocated raises ValidationError."""
    _check_setting("window_len", window_len, 2, lo_closed=True, integer=True)
    return _cached_basis(int(window_len))


@functools.lru_cache(maxsize=_BASIS_LENGTHS)
def _cached_basis(window_len: int) -> SpectralBasis:
    n_bins = window_len // 2
    try:
        rows = np.empty((2 * n_bins, window_len), dtype=np.float64)
    except (MemoryError, ValueError):  # ValueError: past numpy's size limit
        raise ValidationError(
            f"window_len {window_len} needs a {16 * n_bins * window_len}-byte "
            "basis table, which could not be allocated") from None
    n = np.arange(window_len)
    for k in range(n_bins):
        c, s = _snapped_cos_sin(2.0 * np.pi * (k * n % window_len) / window_len)
        rows[2 * k] = c
        rows[2 * k + 1] = -s
    rows.setflags(write=False)
    return SpectralBasis(window_len=window_len, rows=rows)


def _check_window_band(window_len, fs, target_freq) -> None:
    """nearest_band's checks, in its order."""
    _check_setting("window_len", window_len, 4, lo_closed=True, integer=True)
    _check_setting("fps", fs, 0)
    _check_band(target_freq, fs)


def nearest_band(window_len: int, fs: float, target_freq: float) -> int:
    """Index of the non-DC bin whose center is closest to target_freq.

    Ties break toward the lower bin.  Requires at least one non-DC bin
    and target_freq in (0, fs/2) (errors._check_band); every detection
    entry point resolves its band here.
    """
    _check_window_band(window_len, fs, target_freq)
    # the bin centres k fs / N rise with k, so their distance to the target
    # falls, then rises: the nearest lies among the two bins either side of
    # target N / fs, whatever that quotient's rounding
    k = math.floor(target_freq * window_len / fs)
    ks = np.arange(max(k - 1, 1), min(k + 3, window_len // 2))
    freqs = ks * float(fs) / window_len
    return int(ks[np.argmin(np.abs(freqs - target_freq))])


@dataclass(frozen=True)
class Spectrogram:
    """K x M matrix of interleaved (real, imag) bin rows over M windows."""

    values: np.ndarray = field(repr=False)

    def power(self) -> np.ndarray:
        """Per-bin squared magnitude, shape (n_bins, M)."""
        return self.values[0::2] ** 2 + self.values[1::2] ** 2


def window_count(length: int, window_len: int, hop: int) -> int:
    """Number of valid windows: floor((L - N) / hop) + 1."""
    return (length - window_len) // hop + 1


def stft(signal, window_len: int, hop: int = 1) -> Spectrogram:
    """Rectangular-window STFT by correlation with the basis rows.

    Column m holds the DFT of samples[m*hop : m*hop + window_len].
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError(f"signal must be 1-D, got shape {x.shape}")
    _check_setting("hop", hop, 1, lo_closed=True, integer=True)
    # dft_basis's check, then the length, before N^2 floats are built
    _check_setting("window_len", window_len, 2, lo_closed=True, integer=True)
    if x.size < window_len:
        raise ValidationError(
            f"signal length {x.size} shorter than window {window_len}"
        )
    basis = dft_basis(window_len)
    m = window_count(x.size, window_len, hop)
    starts = hop * np.arange(m)
    segs = x[starts[:, None] + np.arange(window_len)[None, :]]  # (M, N)
    values = segs @ basis.rows.T  # (M, 2K)
    return Spectrogram(values=np.ascontiguousarray(values.T))


class SlidingDft:
    """O(bins) per-sample DFT of the trailing window (rectangular).

    Update per bin: X_k <- (X_k + x_new - x_oldest) * exp(+2j*pi*k/N).
    After at least N pushes the state equals the batch DFT of the last N
    samples (the ring starts zero-filled, so earlier states correspond to
    a zero-padded history).
    """

    def __init__(self, window_len: int):
        _check_setting("window_len", window_len, 2, lo_closed=True, integer=True)
        self.window_len = window_len
        n_bins = window_len // 2
        c, s = _snapped_cos_sin(2.0 * np.pi * np.arange(n_bins) / window_len)
        self._rot = c + 1j * s
        self._ring = np.zeros(window_len, dtype=np.float64)
        self._pos = 0
        self.bins = np.zeros(n_bins, dtype=np.complex128)

    def push(self, sample: float) -> np.ndarray:
        """Absorb one sample; returns the current complex bin vector."""
        oldest = self._ring[self._pos]
        self._ring[self._pos] = sample
        self._pos = (self._pos + 1) % self.window_len
        self.bins = (self.bins + (sample - oldest)) * self._rot
        return self.bins


def band_energy_from_frames(frames01: np.ndarray, fps: float, target_freq: float,
                            window_len: int = 10, hop: int = 1):
    """Vibration-band energy ratio image of a (T, H, W) frame stack.

    frames01, an array or a nested list, holds real values in [0, 1] or
    uint8 samples, which become floats by core's one rule, _unit_float
    (value / 255), so both give the same map bit for bit.  Returns (values, target_bin) where values
    is the H x W map: mean-over-windows power in the target bin divided
    by mean-over-windows total non-DC power (+ eps), clipped to [0, 1].
    A pixel whose T samples are all equal and finite scores exactly 0 at
    any level; exactly the moving pixels are converted, correlated and
    scored, copied out unless all move.  A NaN or inf sample in a window
    raises ValidationError, and so does a window power past float64.
    """
    frames01 = np.asarray(frames01)
    _check_window_band(window_len, fps, target_freq)
    _check_setting("hop", hop, 1, lo_closed=True, integer=True)
    if frames01.ndim != 3 or frames01.shape[0] < window_len:
        raise ValidationError(f"frames must have shape (T, H, W) with "
                              f"T >= {window_len}, got {frames01.shape}")
    k_star = nearest_band(window_len, fps, target_freq)
    if frames01.dtype.kind not in "biuf":  # the matmul upcasts these exactly
        raise ValidationError(f"frames must be real numbers, got {frames01.dtype}")
    t, h, w = frames01.shape
    flat, rows = frames01.reshape(t, h * w), dft_basis(window_len).rows
    as_float = _unit_float if flat.dtype == np.uint8 else np.asarray
    moving = ~np.isfinite(flat[0])  # so the kernel NaNs a constant inf
    for frame in flat[1:]:
        moving |= frame != flat[0]
    # a C-ordered copy of the moving columns (flat[:, moving] is F), unless
    # every pixel moves, as on a noisy stack: then no copy at all
    cols = as_float(flat if moving.all() else np.compress(moving, flat, 1))
    # inf * 0 in the matmul is NaN; power past float64 is inf
    with np.errstate(invalid="ignore", over="ignore"):
        sums = _band_power_sums(rows, cols, k_star, hop)
    bad = np.count_nonzero(~np.isfinite(sums[1]))  # its bins include the target's
    if bad:  # only now look for the inf or NaN sample a window read
        raise ValidationError(
            "the window power overflows float64; frames belong in [0, 1]"
            if np.isfinite(flat).all() else
            f"{bad} pixel(s) have a non-finite sample; frames must be finite")
    values = np.zeros(h * w)
    values[moving] = _energy_ratio(*sums, window_count(t, window_len, hop))
    return values.reshape(h, w), k_star


def _band_power_sums(rows: np.ndarray, frames: np.ndarray, k_star: int,
                     hop: int = 1) -> np.ndarray:
    """(2, P) per-column k_star power and non-DC power of a (T, P) array,
    each summed oldest first over its windows of len(rows[0]) samples.

    rows is a dft_basis table; its DC pair (rows 0 and 1) is skipped.
    Blocks, none one column wide, change speed, not a bit of output.
    Every window is correlated, squared in place and paired into buffers
    made once per call: a bin's power is its cosine row's square plus its
    sine row's, one add, and a window's non-DC power is summed over the
    bins by one reduction, as power.sum(axis=0) sums them.
    """
    n = rows.shape[1]
    t, p = frames.shape
    if p == 1:  # numpy sends a one-column matmul to gemv, which rounds apart
        return _band_power_sums(rows, np.repeat(frames, 2, 1), k_star, hop)[:, :1]
    sums = np.zeros((2, p), dtype=np.float64)
    edges = [*range(0, p - 1, _PIXEL_BLOCK), p]  # a one-column tail joins its block
    basis = rows[2:]  # bins 1..K-1, cosine and sine rows interleaved
    widest = max((b1 - b0 for b0, b1 in zip(edges, edges[1:])), default=0)
    spec_buf = np.empty(len(basis) * widest)
    power_buf = np.empty(len(basis) // 2 * widest)
    bin_sum_buf = np.empty(widest)
    for b0, b1 in zip(edges, edges[1:]):
        width = b1 - b0  # each buffer's head as a C-ordered block
        spec = spec_buf[:len(basis) * width].reshape(-1, width)
        power = power_buf[:spec.size // 2].reshape(-1, width)
        bin_sum = bin_sum_buf[:width]
        re, im, target = spec[0::2], spec[1::2], power[k_star - 1]
        block = frames[:, b0: b1]
        num_b, den_b = sums[:, b0: b1]
        for j in range(window_count(t, n, hop)):
            np.matmul(basis, block[j * hop: j * hop + n], out=spec)
            np.square(spec, out=spec)
            np.add(re, im, out=power)
            num_b += target
            np.sum(power, axis=0, out=bin_sum)
            den_b += bin_sum
    return sums


def _energy_ratio(num: np.ndarray, den: np.ndarray, m: int) -> np.ndarray:
    """Mean target power over mean non-DC power of m windows, in [0, 1].

    A pixel whose mean non-DC power is <= RATIO_EPS scores exactly 0; a
    NaN in num or den stays NaN, for the caller to reject.
    """
    mean_den = den / m
    scored = mean_den > RATIO_EPS
    mean_den += RATIO_EPS
    values = np.divide(num, m)
    values /= mean_den
    values *= scored
    np.clip(values, 0.0, 1.0, out=values)
    return values

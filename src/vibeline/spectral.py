"""Fixed Fourier basis, STFT as correlation, sliding DFT, band energy maps.

The transform never calls an FFT: every window is correlated with an
explicit matrix of cosine / negative-sine rows (one pair per retained
bin, Nyquist excluded), so the tests' oracles can redo the arithmetic.
Batch and stream energy maps share one kernel, _band_power_sums, which
correlates the raw frames with the non-DC pairs alone (detection reads
only non-DC power); the STFT uses every row.  No temporal mean is
removed: the non-DC rows cancel a constant up to rounding dust, which
the energy ratio zeroes (see RATIO_EPS).

All trig values whose phase is an exact quarter turn are snapped to
{-1, 0, 1}; floating-point pi makes np.cos(pi/2) a 6e-17 dust value
otherwise, and small-window bases are nicer to reason about when the
zeros are real zeros.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, SizeMismatchError, ValidationError

# Division guard, and the mean non-DC power at or below which a pixel
# scores exactly 0: a static pixel's is rounding dust (at most ~1.3e-30
# over the uint8 levels, in batch and stream alike), far below that of
# any pixel that moves.
RATIO_EPS = 1e-12

# Pixels per column block of _band_power_sums, for cache locality (~0.3
# MB per window): on a 328x335x30 phantom the batch spectral stage took
# 45.6 ms of CPU time in blocks against 66.4 ms as one whole-frame matmul
# per window (a repeat: 48.1 vs 69.3 ms; one BLAS thread, 2-core VM).
_PIXEL_BLOCK = 4096

_COS_QUARTER = np.array([1.0, 0.0, -1.0, 0.0])
_SIN_QUARTER = np.array([0.0, 1.0, 0.0, -1.0])


def _cos_sin_exact(num, den: int):
    """cos / sin of 2*pi*num/den with exact values at quarter turns.

    num is an integer array (any sign); den a positive integer.
    """
    num = np.asarray(num, dtype=np.int64) % den
    ang = 2.0 * np.pi * num / den
    c = np.cos(ang)
    s = np.sin(ang)
    quad, rem = np.divmod(4 * num, den)
    exact = rem == 0
    quad = np.where(exact, quad, 0)  # keep the table index in range
    c = np.where(exact, _COS_QUARTER[quad], c)
    s = np.where(exact, _SIN_QUARTER[quad], s)
    return c, s


@dataclass(frozen=True)
class SpectralBasis:
    """Correlation kernels for one window length.

    rows[2k]   = cos(2*pi*n*k/N) over n = 0..N-1
    rows[2k+1] = -sin(2*pi*n*k/N)
    so correlating a window with the pair (2k, 2k+1) yields the real and
    imaginary parts of the standard forward DFT bin k.  k runs over
    0..floor(N/2)-1: the Nyquist bin is excluded.
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
    if window_len < 2:
        raise ValidationError(f"window_len must be >= 2, got {window_len}")
    n_bins = window_len // 2
    n = np.arange(window_len)
    rows = np.empty((2 * n_bins, window_len), dtype=np.float64)
    for k in range(n_bins):
        c, s = _cos_sin_exact(k * n, window_len)
        rows[2 * k] = c
        rows[2 * k + 1] = -s
    rows.setflags(write=False)
    return SpectralBasis(window_len=window_len, rows=rows)


def nearest_band(window_len: int, fs: float, target_freq: float) -> int:
    """Index of the non-DC bin whose center is closest to target_freq.

    Ties break toward the lower bin.  Requires at least one non-DC bin
    and target_freq in (0, fs/2); every detection entry point resolves
    its band here, so this is the one place that check lives.
    """
    if not (0 < target_freq < fs / 2):
        raise ValidationError(
            f"frequency {target_freq} Hz must lie in (0, fps/2) = (0, {fs / 2}) Hz"
        )
    n_bins = window_len // 2
    if n_bins < 2:
        raise ValidationError(
            f"window_len={window_len} leaves no non-DC bin to target"
        )
    freqs = np.arange(1, n_bins) * float(fs) / window_len
    return 1 + int(np.argmin(np.abs(freqs - target_freq)))


@dataclass(frozen=True)
class Spectrogram:
    """K x M matrix of interleaved (real, imag) bin rows over M windows."""

    values: np.ndarray = field(repr=False)
    window_len: int = 0
    hop: int = 1

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
    if hop < 1:
        raise ValidationError(f"hop must be >= 1, got {hop}")
    if x.size < window_len:
        raise ValidationError(
            f"signal length {x.size} shorter than window {window_len}"
        )
    basis = dft_basis(window_len)
    m = window_count(x.size, window_len, hop)
    starts = hop * np.arange(m)
    segs = x[starts[:, None] + np.arange(window_len)[None, :]]  # (M, N)
    values = segs @ basis.rows.T  # (M, 2K)
    return Spectrogram(values=np.ascontiguousarray(values.T),
                       window_len=window_len, hop=hop)


class SlidingDft:
    """O(bins) per-sample DFT of the trailing window (rectangular).

    Update per bin: X_k <- (X_k + x_new - x_oldest) * exp(+2j*pi*k/N).
    After at least N pushes the state equals the batch DFT of the last N
    samples (the ring starts zero-filled, so earlier states correspond to
    a zero-padded history).
    """

    def __init__(self, window_len: int):
        if window_len < 2:
            raise ValidationError(f"window_len must be >= 2, got {window_len}")
        self.window_len = window_len
        self.n_bins = window_len // 2
        c, s = _cos_sin_exact(np.arange(self.n_bins), window_len)
        self._rot = c + 1j * s
        self._ring = np.zeros(window_len, dtype=np.float64)
        self._pos = 0
        self.count = 0
        self.bins = np.zeros(self.n_bins, dtype=np.complex128)

    def push(self, sample: float) -> np.ndarray:
        """Absorb one sample; returns the current complex bin vector."""
        oldest = self._ring[self._pos]
        self._ring[self._pos] = sample
        self._pos = (self._pos + 1) % self.window_len
        self.count += 1
        self.bins = (self.bins + (sample - oldest)) * self._rot
        return self.bins

    def as_rows(self) -> np.ndarray:
        """Interleaved (real, imag) vector matching the stft row layout."""
        out = np.empty(2 * self.n_bins, dtype=np.float64)
        out[0::2] = self.bins.real
        out[1::2] = self.bins.imag
        return out


def band_energy_from_frames(frames01: np.ndarray, fps: float, target_freq: float,
                            window_len: int = 10, hop: int = 1):
    """Vibration-band energy ratio image of float frames in [0, 1].

    frames01 has shape (T, H, W).  Returns (values, target_bin) where
    values is the H x W map: mean-over-windows power in the target bin
    divided by mean-over-windows total non-DC power (+ eps), clipped to
    [0, 1].  An exactly static pixel scores exactly 0 (see RATIO_EPS).
    """
    k_star = nearest_band(window_len, fps, target_freq)
    if frames01.ndim != 3 or frames01.shape[0] < window_len:
        raise ValidationError(f"frames must have shape (T, H, W) with "
                              f"T >= {window_len}, got {frames01.shape}")
    t, h, w = frames01.shape
    num, den = _band_power_sums(dft_basis(window_len).rows,
                                frames01.reshape(t, h * w), k_star, hop)
    m = window_count(t, window_len, hop)
    return _energy_ratio(num, den, m).reshape(h, w), k_star


def _band_power_sums(rows: np.ndarray, frames: np.ndarray, k_star: int,
                     hop: int = 1) -> np.ndarray:
    """(2, P) per-column k_star power and non-DC power of a (T, P) array,
    each summed oldest first over its windows of len(rows[0]) samples.

    rows is a dft_basis table; its DC pair (rows 0 and 1) is skipped.
    The column blocks change speed, not a bit of output.
    """
    n = rows.shape[1]
    t, p = frames.shape
    sums = np.zeros((2, p), dtype=np.float64)
    for b0 in range(0, p, _PIXEL_BLOCK):
        block = frames[:, b0: b0 + _PIXEL_BLOCK]
        num_b, den_b = sums[:, b0: b0 + _PIXEL_BLOCK]
        for j in range(window_count(t, n, hop)):
            spec = rows[2:] @ block[j * hop: j * hop + n]  # bins 1..K-1
            power = spec[0::2] ** 2 + spec[1::2] ** 2
            num_b += power[k_star - 1]
            den_b += power.sum(axis=0)
    return sums


def _energy_ratio(num: np.ndarray, den: np.ndarray, m: int) -> np.ndarray:
    """Mean target power over mean non-DC power of m windows, in [0, 1].

    A pixel whose mean non-DC power is <= RATIO_EPS scores exactly 0; a
    NaN in num or den stays NaN, so the vote can reject the map.
    """
    values = (num / m) / (den / m + RATIO_EPS)
    values *= den / m > RATIO_EPS
    np.clip(values, 0.0, 1.0, out=values)
    return values


# --------------------------------------------------------------------------
# VIBMAP01: small float-image container used for energy maps, spectrograms
# and Hough channels.
# --------------------------------------------------------------------------

VIBMAP_MAGIC = b"VIBMAP01"
_VIBMAP_HEADER = struct.Struct("<III")  # rows, cols, channels


def write_vibmap(path, array: np.ndarray) -> None:
    """Write a (rows, cols) or (channels, rows, cols) array as VIBMAP01.

    Data is stored as little-endian float32, channel-major then row-major.
    """
    arr = np.asarray(array, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3:
        raise ValidationError(f"expected 2-D or 3-D array, got shape {arr.shape}")
    ch, rows, cols = arr.shape
    with open(path, "wb") as fh:
        fh.write(VIBMAP_MAGIC)
        fh.write(_VIBMAP_HEADER.pack(rows, cols, ch))
        fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_vibmap(path) -> np.ndarray:
    """Read a VIBMAP01 file; always returns shape (channels, rows, cols)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(VIBMAP_MAGIC) or blob[: len(VIBMAP_MAGIC)] != VIBMAP_MAGIC:
        raise FormatError(f"{path}: not a VIBMAP01 file (bad magic)")
    off = len(VIBMAP_MAGIC)
    if len(blob) < off + _VIBMAP_HEADER.size:
        raise SizeMismatchError(f"{path}: truncated header")
    rows, cols, ch = _VIBMAP_HEADER.unpack_from(blob, off)
    off += _VIBMAP_HEADER.size
    need = rows * cols * ch * 4
    if len(blob) - off != need:
        raise SizeMismatchError(
            f"{path}: header promises {need} data bytes, file has {len(blob) - off}"
        )
    data = np.frombuffer(blob, dtype="<f4", count=rows * cols * ch, offset=off)
    return data.reshape(ch, rows, cols).copy()

"""Batch and streaming detection: frames -> energy -> Hough -> shaft/tip.

The detector is fully deterministic.  Its confidence is the ratio of the
Hough peak to the mean Hough cell, taken from vote conservation as the
energy map's mass / rho_bins.  Batch and stream find the argmax cell
and the peak by one rule, _vote_or_search, which alone votes a Hough
image: a clean map's; a dense (noisy) one is searched by hough._peak.
_decode reads either, and no detection returns the image.  The default
threshold below sits under the weakest clean true-needle confidence and
above that of a Hough map of uniform noise, so a scene with no coherent
vibration, or a true shaft under sensor noise, raises the low-confidence
flag rather than a hard error.  The Detection record and its JSON form
are in metrics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (UsSequence, _bilinear_clamped, _inward, _snapped_cos_sin,
                   _unit_float)
from .errors import GeometryError, NoTipError, ValidationError, _check_setting
from .hough import (HoughGrid, HoughMap, _check_steps, _peak, hough_transform,
                    line_from_cell, render_tip_gt, shaft_from_hough)
# moved to metrics; perfbench resolves pipeline.Detection
from .metrics import Detection
from .spectral import (_band_power_sums, _energy_ratio,
                       band_energy_from_frames, dft_basis, nearest_band,
                       window_count)

CONFIDENCE_EPS = 1e-12

# The no-needle phantom is noise-free: every pixel is static and scores
# exactly 0, so its confidence is 0 and carries no usable margin.  The
# frozen default instead sits an order of magnitude below the weakest
# clean true-needle confidence measured across 300 default-preset seeds
# (~150) and above that of a Hough map of uniform random noise (~6).
# Sensor noise flags genuine detections too: at 328x335 with sigma = 1
# grey level, seeds 1000-1002 decode the true shaft (30 deg, rho 140)
# yet score 6.96-7.30.  The peak/mean ratio also shrinks with the image:
# on a 16x16 noisy scene with a clear 2.5 Hz line batch finds the shaft
# (118 deg) yet flags it at confidence 8.742.
DEFAULT_CONFIDENCE_MIN = 12.0

DEFAULT_WARMUP = 30  # frames before a stream emits detections


@dataclass(frozen=True)
class DetectConfig:
    vib_freq: float = 2.5
    window_len: int = 10
    hop: int = 1
    theta_step: float = 1.0
    rho_step: float = 1.0
    entry_side: str = "left"
    profile_threshold: float = 0.3
    profile_smooth: int = 5
    confidence_min: float = DEFAULT_CONFIDENCE_MIN
    tip_sigma: float = 2.0

    def __post_init__(self):
        # window_len >= 4 leaves a non-DC bin to target
        for name, lo in (("window_len", 4), ("hop", 1), ("profile_smooth", 1)):
            _check_setting(name, getattr(self, name), lo, lo_closed=True,
                           integer=True)
        for name in ("vib_freq", "tip_sigma"):
            _check_setting(name, getattr(self, name), 0)
        _check_steps(self.theta_step, self.rho_step)
        _check_setting("profile_threshold", self.profile_threshold, 0, 1)
        _check_setting("confidence_min", self.confidence_min)
        _inward(self.entry_side)


def _clip_line(theta: float, rho: float, h: int, w: int):
    """Parametric range of x cos + y sin = rho inside [0,w-1]x[0,h-1].

    Returns (base, direction, s0, s1) with points p(s) = base + s * dir.
    """
    rad = np.deg2rad(np.array([theta], dtype=np.float64))
    cos_t, sin_t = _snapped_cos_sin(rad)
    c, s = float(cos_t[0]), float(sin_t[0])
    base = np.array([rho * c, rho * s])
    d = np.array([-s, c])
    t0, t1 = -math.inf, math.inf
    for axis, hi in ((0, w - 1.0), (1, h - 1.0)):
        if d[axis] == 0.0:
            if not (0.0 <= base[axis] <= hi):
                raise GeometryError(
                    f"line (theta={theta}, rho={rho}) misses the image"
                )
            continue
        ta = (0.0 - base[axis]) / d[axis]
        tb = (hi - base[axis]) / d[axis]
        lo, hi_t = (ta, tb) if ta <= tb else (tb, ta)
        t0 = max(t0, lo)
        t1 = min(t1, hi_t)
    if not (t0 <= t1) or math.isinf(t0) or math.isinf(t1):
        raise GeometryError(f"line (theta={theta}, rho={rho}) misses the image")
    return base, d, t0, t1


def _percentile95(profile: np.ndarray) -> float:
    """np.percentile(profile, 95) bit for bit, without importing numpy.ma."""
    s = np.sort(profile)
    pos = (s.size - 1) * 0.95
    i = int(pos)
    if i + 1 >= s.size:
        return float(s[-1])
    a, b, t = s[i], s[i + 1], pos - i
    d = b - a
    return float(b - d * (1.0 - t) if t >= 0.5 else a + d * t)


def tip_along_line(energy_values: np.ndarray, theta: float, rho: float,
                   cfg: DetectConfig):
    """Locate the far end of the energized stretch of a line.

    Samples the energy image along the line at 1-px steps (bilinear),
    smooths with a centered, zero-padded moving average, thresholds at
    profile_threshold times the profile's 95th percentile, takes the
    longest above-threshold run (the first on a tie), and returns its
    end farther into the image from the configured entry border.
    """
    h, w = energy_values.shape
    base, d, t0, t1 = _clip_line(theta, rho, h, w)
    n = int(math.floor(t1 - t0)) + 1
    svals = t0 + np.arange(n, dtype=np.float64)
    xs = base[0] + svals * d[0]
    ys = base[1] + svals * d[1]
    profile = _bilinear_clamped(np.asarray(energy_values, dtype=np.float64), xs, ys)
    k = cfg.profile_smooth
    # the centred n samples of the full convolution: mode="same" for n >= k,
    # and aligned with the line's samples for n < k too; one tap is exact
    profile = np.convolve(profile, np.full(k, 1.0 / k))[(k - 1) // 2:][:n]
    threshold = cfg.profile_threshold * _percentile95(profile)
    # runs of above-threshold samples, ends exclusive
    edges = np.flatnonzero(np.diff(profile > threshold,
                                   prepend=False, append=False))
    if edges.size == 0:
        raise NoTipError("no above-threshold run along the line")
    starts, ends = edges[0::2], edges[1::2]
    best = int(np.argmax(ends - starts))  # first of the longest runs
    lo, hi = starts[best], ends[best] - 1
    p_lo, p_hi = np.array([xs[lo], ys[lo]]), np.array([xs[hi], ys[hi]])
    tip = p_hi if (p_hi - p_lo) @ _inward(cfg.entry_side) >= 0 else p_lo
    # an end on the border can land a rounding step outside the image
    tip = np.clip(tip, 0.0, (w - 1.0, h - 1.0))
    return float(tip[0]), float(tip[1])


def _decode(values: np.ndarray, grid: HoughGrid, image, cell,
            cfg: DetectConfig) -> Detection:
    """Decode step of batch and stream detection: shaft, tip, confidence.

    image and cell are _vote_or_search's pair: the peak is image.max() or
    cell[2], and the shaft is read only when the peak is > 0.  The mean
    Hough cell is the map's mass / rho_bins, as every pixel votes once
    per theta row.
    """
    peak = float(image.max()) if cell is None else cell[2]
    if peak <= 0.0:
        return Detection(theta=0.0, rho=0.0, tip_x=None, tip_y=None,
                         confidence=0.0, low_confidence_flag=True)
    mean = float(values.sum()) / grid.rho_bins
    confidence = peak / (mean + CONFIDENCE_EPS)
    flagged = confidence < cfg.confidence_min
    theta, rho = (shaft_from_hough(image, grid) if cell is None
                  else line_from_cell(grid, *cell[:2]))
    try:
        tip_x, tip_y = tip_along_line(values, theta, rho, cfg)
    except (NoTipError, GeometryError):
        tip_x = tip_y = None
        flagged = True
    return Detection(theta=theta, rho=rho, tip_x=tip_x, tip_y=tip_y,
                     confidence=confidence, low_confidence_flag=bool(flagged))


def _vote_or_search(values: np.ndarray, grid: HoughGrid):
    """(image, cell) by batch's and stream's one peak rule.  A map at most a
    quarter non-zero (every clean map) votes its image, which then costs
    what its peak would, and cell is None.  A denser map builds no image
    (None); cell is hough._peak's (theta_idx, rho_idx, peak), the bits of
    that image's argmax and max."""
    if np.count_nonzero(values != 0) <= values.size // 4:  # one cheap mask
        return hough_transform(values, grid), None
    return None, _peak(values, grid)


def detect_with_timing(frames01: np.ndarray, fps: float,
                       cfg: DetectConfig | None = None):
    """One timed batch run: (Detection, timing, energy, grid).

    frames01 is a (T, H, W) stack of uint8 samples or of values in
    [0, 1] of any real dtype, passed on as it is: float32, int16 or bool
    frames give the result of their float64 copy, and a NaN or inf
    sample is rejected by band_energy_from_frames.  Callers that export
    the maps reuse the energy map the detection came from, and vote its
    Hough image with hough_transform(energy, grid); perfbench/tracing.py
    wraps this name.  Timing is reported per stage in milliseconds;
    hough_ms times _vote_or_search alone: a clean map's vote, or a dense
    one's whole peak search.
    """
    cfg = cfg or DetectConfig()
    frames = np.asarray(frames01)
    # a grid the image size rejects fails before any frame work; a frame
    # stack that is not 3-D is named by band_energy_from_frames
    grid = HoughGrid(*frames.shape[1:], cfg.theta_step,
                     cfg.rho_step) if frames.ndim == 3 else None
    t0 = time.perf_counter()
    values, _ = band_energy_from_frames(frames, fps, cfg.vib_freq,
                                        cfg.window_len, cfg.hop)
    t1 = time.perf_counter()
    image, cell = _vote_or_search(values, grid)
    t2 = time.perf_counter()
    det = _decode(values, grid, image, cell, cfg)
    t3 = time.perf_counter()
    timing = {
        "spectral_ms": (t1 - t0) * 1000.0,
        "hough_ms": (t2 - t1) * 1000.0,
        "post_ms": (t3 - t2) * 1000.0,
        "total_ms": (t3 - t0) * 1000.0,
    }
    return det, timing, values, grid


def detect_frames(frames01: np.ndarray, fps: float, cfg: DetectConfig | None = None):
    """Detection on frames (T, H, W); returns (Detection, timing).

    Frames are floats in [0, 1] or uint8 samples, which give the same
    result bit for bit as their UsSequence.frames_float().  A static
    pixel scores exactly 0 at any offset: on the fullsize preset shaft
    and tip held up to +1e12.  Scaling by a > 0 holds only while moving
    pixels' mean non-DC power stays far above the absolute RATIO_EPS: on
    a fullsize phantom shaft and tip held for a in [1e-2, 1e6], but the
    tip moved at 1e-5 and nothing was detected at 1e-6.
    """
    return detect_with_timing(frames01, fps, cfg)[:2]


def detect(seq: UsSequence, cfg: DetectConfig | None = None) -> Detection:
    """End-to-end batch detection on a sequence."""
    return detect_frames(seq.frames, seq.fps, cfg)[0]


def _hough_channels(det: Detection, grid: HoughGrid, hough: np.ndarray,
                    cfg: DetectConfig, gt) -> HoughMap:
    """Two-channel Hough-space output of an already decoded run.

    Shaft channel: the Hough image, max-normalized to [0, 1].  Tip
    channel: the blurred tip curve rendered at the detected tip, or at
    the ground-truth tip when gt is given (useful to build aligned
    scoring targets).  Raises NoTipError when the run produced no tip to
    render.
    """
    peak = hough.max()
    shaft = hough / peak if peak > 0 else hough
    at = det if gt is None else gt
    if at.tip_x is None:
        raise NoTipError("detection produced no tip to render")
    tip = render_tip_gt(grid, at.tip_x, at.tip_y, cfg.tip_sigma)
    return HoughMap(shaft=shaft, tip=tip)


class StreamState:
    """Frame-by-frame detection on the trailing `warmup` frames.

    Each push runs batch's kernel, _band_power_sums, on the N-frame ring
    as one window, so an emission is batch detection of the last
    `warmup` frames at hop 1 (cfg.hop must be 1) up to rounding, with no
    recurrence to drift.  The ring holds frames in write order, a
    circular shift of the window, and running sums of the last
    warmup - N + 1 window powers are updated in place and re-summed from
    their ring once per turn; both differ from batch only in rounding.
    The frame ring, the power ring and the sums are views of one block.
    An emission decodes by batch's _vote_or_search and _decode, so a
    noisy map builds no Hough image, and takes the mean cell from vote
    conservation as batch does.
    """

    def __init__(self, height: int, width: int, fps: float,
                 cfg: DetectConfig | None = None, warmup: int = DEFAULT_WARMUP):
        if cfg is None:
            cfg = DetectConfig()
        self._grid = HoughGrid(height, width, cfg.theta_step, cfg.rho_step)
        _check_setting("warmup", warmup, cfg.window_len, lo_closed=True,
                       integer=True)
        if cfg.hop != 1:
            raise ValidationError(f"stream hop must be 1, got {cfg.hop}")
        self.cfg = cfg
        self.height = int(height)
        self.width = int(width)
        self.warmup = int(warmup)
        self.frames_seen = 0
        n = cfg.window_len
        npix = height * width
        self.k_star = nearest_band(n, fps, cfg.vib_freq)
        self._rows = dft_basis(n).rows
        self._stat_len = window_count(self.warmup, n, 1)
        # one block, 47.5 MB at 328x335: past glibc's 32 MB mmap ceiling, so
        # it is mapped and handed back whole rather than kept on the heap
        sizes = (n * npix, self._stat_len * 2 * npix, 2 * npix)
        try:
            block = np.zeros(sum(sizes), dtype=np.float64)
        except (MemoryError, ValueError):  # ValueError: past numpy's size limit
            raise ValidationError(
                f"warmup {self.warmup} needs a {8 * sum(sizes)}-byte ring "
                "block, which could not be allocated") from None
        frames, powers, sums = np.split(block, np.cumsum(sizes[:-1]))
        self._frame_ring = frames.reshape(n, npix)
        self._power_ring = powers.reshape(self._stat_len, 2, npix)
        self._sums = sums.reshape(2, npix)  # num, den

    def push(self, frame: np.ndarray):
        """Absorb one uint8 (H, W) frame; returns a Detection once warmed up.

        The ring slot of the oldest window power is the update's scratch:
        it takes power - oldest, which the sums add, then power itself, so
        the update allocates no (2, H*W) temporary.
        """
        frame = np.asarray(frame)
        if frame.shape != (self.height, self.width):
            raise ValidationError(
                f"frame shape {frame.shape} does not match stream "
                f"{(self.height, self.width)}"
            )
        if frame.dtype != np.uint8:
            raise ValidationError(
                f"stream frames must be uint8, got {frame.dtype}"
            )
        n = self.cfg.window_len
        _unit_float(frame, out=self._frame_ring[self.frames_seen % n]
                    .reshape(self.height, self.width))
        self.frames_seen += 1
        if self.frames_seen < n:
            return None
        power = _band_power_sums(self._rows, self._frame_ring, self.k_star)
        pos = (self.frames_seen - n) % self._stat_len
        slot = self._power_ring[pos]  # the oldest power, then the scratch
        np.subtract(power, slot, out=slot)
        self._sums += slot
        slot[...] = power
        if pos == self._stat_len - 1:
            np.sum(self._power_ring, axis=0, out=self._sums)
        if self.frames_seen < self.warmup:
            return None
        values = _energy_ratio(*self._sums, self._stat_len)
        values = values.reshape(self.height, self.width)
        return _decode(values, self._grid,
                       *_vote_or_search(values, self._grid), self.cfg)


def stream_push(state: StreamState, frame: np.ndarray):
    """Functional alias for StreamState.push."""
    return state.push(frame)


"""Discrete line transform between image space and (theta, rho) space.

Conventions, fixed across the package:
  * x is the column, y the row, origin at the top-left pixel center.
  * A line is x*cos(theta) + y*sin(theta) = rho with theta in [0, 180)
    degrees, so theta is the direction of the line's normal.
  * Quantization always uses floor(v + 0.5) (round half up), both when a
    pixel votes for a rho bin and when a cell is rasterized back to
    pixels.  Using one rule on both sides is what makes the forward and
    inverse transforms agree to within a pixel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import _EXP_ZERO_REACH, _reach_slice, _snapped_cos_sin
from .errors import NoDetectionError, ValidationError, _check_setting

# a theta or rho bin index fits in 2 bytes, so the rho-index table is uint16
_MAX_BINS = 65536


@dataclass(frozen=True)
class HoughGrid:
    """Discretization of (theta, rho) for one image size."""

    image_h: int
    image_w: int
    theta_step: float = 1.0
    rho_step: float = 1.0
    theta_bins: int = field(init=False)
    rho_bins: int = field(init=False)
    rho_offset: int = field(init=False)

    def __post_init__(self):
        for name in ("image_h", "image_w"):
            _check_setting(name, getattr(self, name), 1, lo_closed=True,
                           integer=True)
        _check_steps(self.theta_step, self.rho_step)
        diag = math.hypot(self.image_h, self.image_w)
        # theta_bins = ceil(180 / step), rho_bins = 2 ceil(diag / step) + 1
        for name, span, units in (("theta_step", 180.0, _MAX_BINS),
                                  ("rho_step", diag, _MAX_BINS // 2 - 1)):
            step, least = getattr(self, name), span / units
            while span / least > units:  # the quotient rounded up
                least = math.nextafter(least, math.inf)
            if span / step > units:
                raise ValidationError(
                    f"{name} must be >= {least!r} on a {self.image_h}x"
                    f"{self.image_w} image (at most {_MAX_BINS} bins), "
                    f"got {step}")
        object.__setattr__(self, "theta_bins", math.ceil(180.0 / self.theta_step))
        half = math.ceil(diag / self.rho_step)
        object.__setattr__(self, "rho_bins", 2 * half + 1)
        object.__setattr__(self, "rho_offset", half)

    def theta_trig(self):
        return _snapped_cos_sin(
            np.deg2rad(np.arange(self.theta_bins) * self.theta_step))

    def shape(self):
        return (self.theta_bins, self.rho_bins)


def _check_steps(theta_step: float, rho_step: float) -> None:
    """The grid's resolution rule, which DetectConfig applies as well."""
    _check_setting("theta_step", theta_step, 0, 180, hi_closed=True)
    _check_setting("rho_step", rho_step, 0)


@dataclass(frozen=True)
class HoughMap:
    """Two-channel Hough-space image: shaft peak and tip curve."""

    shaft: np.ndarray = field(repr=False)
    tip: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.shaft.shape != self.tip.shape:
            raise ValidationError(
                f"channel shapes differ: {self.shaft.shape} vs {self.tip.shape}"
            )


# Grids whose rho-index table stays cached; dense batch maps reuse one
# grid per image size, so one table is enough.
_RHO_TABLE_GRIDS = 1

# _peak's floor: the map's 90th percentile, so that about a tenth of the
# pixels vote their excess over it sparsely
_FLOOR_SHARE = 0.9


def _rho_bin(grid: HoughGrid, cos_t, sin_t, x, y, out=None) -> np.ndarray:
    """Rho bin of (x, y) at each angle, as floats (in out if given):
    floor(cos*(1/step)*x + sin*(1/step)*y + 0.5) + rho_offset.  The vote's
    table and the tip curve share it, so they break half-bin ties alike."""
    inv_step = 1.0 / grid.rho_step
    v = np.add((cos_t * inv_step) * x, (sin_t * inv_step) * y, out=out)
    v += 0.5
    np.floor(v, out=v)
    v += grid.rho_offset
    return v


def _row_vote(grid: HoughGrid, c, s, xs, ys, weights, out) -> np.ndarray:
    """One theta row: the weights summed into the _rho_bin of (xs, ys), in
    row-major pixel order; out holds the bins as floats."""
    idx = _rho_bin(grid, c, s, xs, ys, out=out).astype(np.intp).ravel()
    return np.bincount(idx, weights=weights, minlength=grid.rho_bins)


@functools.lru_cache(maxsize=_RHO_TABLE_GRIDS)
def _rho_index_table(grid: HoughGrid) -> np.ndarray:
    """Read-only (theta_bins, H*W) rho bin (_rho_bin) of every row-major
    pixel per theta."""
    xs = np.arange(grid.image_w, dtype=np.float64)[None, :]
    ys = np.arange(grid.image_h, dtype=np.float64)[:, None]
    cos_t, sin_t = grid.theta_trig()
    table = np.empty((grid.theta_bins, grid.image_h * grid.image_w),
                     dtype=np.min_scalar_type(grid.rho_bins - 1))
    rho_units = np.empty((grid.image_h, grid.image_w), dtype=np.float64)
    for i in range(grid.theta_bins):
        table[i] = _rho_bin(grid, cos_t[i], sin_t[i], xs, ys,
                            out=rho_units).ravel()
    table.setflags(write=False)
    return table


def _vote(grid: HoughGrid, voters: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(theta_bins, rho_bins) image of weights[i] voted by the row-major
    pixel voters[i], one _row_vote per theta row."""
    ys, xs = (v.astype(np.float64) for v in np.divmod(voters, grid.image_w))
    rho_units = np.empty(voters.size)
    acc = np.empty(grid.shape(), dtype=np.float64)
    for i, (c, s) in enumerate(zip(*grid.theta_trig())):
        acc[i] = _row_vote(grid, c, s, xs, ys, weights, rho_units)
    return acc


@functools.lru_cache(maxsize=1)
def _cell_counts(grid: HoughGrid) -> np.ndarray:
    """Read-only (theta_bins, rho_bins) float count of the pixels that vote
    into each cell: 1.4 MB at 328x335 with 1-degree steps."""
    npix = grid.image_h * grid.image_w
    counts = _vote(grid, np.arange(npix), np.ones(npix))
    counts.setflags(write=False)
    return counts


def _checked_feature(feature, grid: HoughGrid) -> np.ndarray:
    """The feature as float64 once it has the grid's image shape and no
    NaN or inf pixel, which would spread NaN over the whole image."""
    feat = np.asarray(feature, dtype=np.float64)
    if feat.shape != (grid.image_h, grid.image_w):
        raise ValidationError(
            f"feature shape {feat.shape} does not match grid "
            f"{(grid.image_h, grid.image_w)}"
        )
    bad = feat.size - np.count_nonzero(np.isfinite(feat))
    if bad:
        raise ValidationError(f"energy map has {bad} non-finite value(s); "
                              "frames must be finite")
    return feat


def hough_transform(feature: np.ndarray, grid: HoughGrid) -> np.ndarray:
    """Soft-voting line transform of a non-negative feature image.

    Every pixel adds its value to exactly one rho bin per theta column,
    so each theta column sums to the total feature mass (vote
    conservation).  Returns a (theta_bins, rho_bins) float64 image.
    A NaN or inf pixel is rejected with ValidationError.  Batch
    detection and --emit-hough vote here; a stream emission needs only
    the argmax and the peak, and finds them with _peak.

    When at most a quarter of the pixels are non-zero (a clean batch
    map), only those vote: each theta row computes their bins with
    _rho_bin and builds no table.  One boolean mask, weights != 0, both
    counts the non-zero pixels and finds them, so the float map is
    scanned once; -0.0 is zero to it and a subnormal is not.  A denser
    map (noisy batch input) votes every pixel through the rho-index
    table, built on the first such call for a grid and cached for the
    most recent grid only; it holds theta_bins * H * W bin indices of 2
    bytes each (1 byte when rho_bins <= 256): ~40 MB at 328x335 with
    1-degree steps.  The two give the same bits: a table entry is the
    same _rho_bin expression of the same float (x, y), both bincounts add
    in row-major pixel order, and a skipped zero only ever adds 0.0 to a
    sum.
    """
    weights = _checked_feature(feature, grid).ravel()
    nz = weights != 0
    if np.count_nonzero(nz) <= weights.size // 4:
        voters = np.flatnonzero(nz)  # only they vote, in the same order
        return _vote(grid, voters, weights[voters])
    acc = np.empty(grid.shape(), dtype=np.float64)
    for i, idx in enumerate(_rho_index_table(grid)):
        acc[i] = np.bincount(idx, weights=weights, minlength=grid.rho_bins)
    return acc


def _floor_vote(weights: np.ndarray, grid: HoughGrid):
    """(floor, vote): the flat map's _FLOOR_SHARE quantile, and the sparse
    vote of each pixel's excess over it.  At floor 0 the excess of each
    non-zero pixel is its value, so the vote is hough_transform's image."""
    k = int(weights.size * _FLOOR_SHARE)
    floor = float(np.partition(weights, k)[k])
    voters = np.flatnonzero(weights > floor if floor else weights != 0)
    return floor, _vote(grid, voters, weights[voters] - floor)


def _row_bounds(floor: float, excess_vote: np.ndarray,
                grid: HoughGrid) -> np.ndarray:
    """An upper bound on each theta row's maximum of a non-negative map.

    A cell's sum splits into its pixels' parts up to the floor, at most
    floor * (pixel count), and their excess over it.  Each bound is
    padded by 2 (H*W + 2) eps relative, more than the rounding of a sum
    of H*W terms on either side, so rounding cannot prune the true row.
    """
    bound = (excess_vote + floor * _cell_counts(grid)).max(axis=1)
    pad = 2.0 * (grid.image_h * grid.image_w + 2) * np.finfo(np.float64).eps
    return bound * (1.0 + pad)


def _peak(values: np.ndarray, grid: HoughGrid):
    """(theta_idx, rho_idx, peak) of hough_transform(values, grid) bit for
    bit, without building the image: its argmax cell, the first (theta,
    rho) on a tie, and its value.  values must be non-negative.

    Rows are visited in falling _row_bounds order; each is voted exactly,
    every pixel through _row_vote in row-major order as hough_transform
    votes it, and the search stops once the next bound is below the best
    exact value.  On a noisy stream map about three rows are voted; with
    no vibrating line a few dozen are.  When the floor is 0 the sparse
    vote already is the image.  A NaN or inf pixel raises as in
    hough_transform.
    """
    feat = _checked_feature(values, grid)
    weights = feat.ravel()
    floor, vote = _floor_vote(weights, grid)
    if floor == 0.0:
        ti, ri = divmod(int(np.argmax(vote)), grid.rho_bins)
        return ti, ri, float(vote[ti, ri])
    bound = _row_bounds(floor, vote, grid)
    xs = np.arange(grid.image_w, dtype=np.float64)[None, :]
    ys = np.arange(grid.image_h, dtype=np.float64)[:, None]
    rho_units = np.empty(feat.shape)
    cos_t, sin_t = grid.theta_trig()
    best, cell = -math.inf, (0, 0)
    for ti in np.argsort(-bound, kind="stable").tolist():
        if bound[ti] < best:
            break
        row = _row_vote(grid, cos_t[ti], sin_t[ti], xs, ys, weights, rho_units)
        ri = int(np.argmax(row))
        if row[ri] > best or (row[ri] == best and ti < cell[0]):
            best, cell = float(row[ri]), (ti, ri)
    return (*cell, best)


def line_from_cell(grid: HoughGrid, theta_idx: int, rho_idx: int):
    """Bin-center (theta_deg, rho_px) of one grid cell."""
    if not (0 <= theta_idx < grid.theta_bins and 0 <= rho_idx < grid.rho_bins):
        raise ValidationError(
            f"cell ({theta_idx}, {rho_idx}) outside grid {grid.shape()}"
        )
    return (theta_idx * grid.theta_step,
            (rho_idx - grid.rho_offset) * grid.rho_step)


def render_shaft_gt(grid: HoughGrid, theta: float, rho: float,
                    sigma: float = 2.0) -> np.ndarray:
    """Isotropic Gaussian peak at the (continuous) cell of a target line.

    Distances are measured in bin units on both axes; the peak reaches
    exactly 1 when the target sits on a bin center.  No wrap-around in
    theta: a target near the 0/180 seam blurs toward one side only.

    Only the cells within sigma * _EXP_ZERO_REACH bins of the target on
    both axes are evaluated; the Gaussian is exactly 0.0 everywhere else.
    A non-finite theta or rho is rejected.
    """
    _check_setting("sigma", sigma, 0)
    _check_setting("theta", theta)
    _check_setting("rho", rho)
    tc = theta / grid.theta_step
    rc = rho / grid.rho_step + grid.rho_offset
    reach = sigma * _EXP_ZERO_REACH
    rows = _reach_slice(tc - reach, tc + reach, grid.theta_bins)
    cols = _reach_slice(rc - reach, rc + reach, grid.rho_bins)
    ti = np.arange(rows.start, rows.stop, dtype=np.float64)
    ri = np.arange(cols.start, cols.stop, dtype=np.float64)
    d2 = (ti - tc)[:, None] ** 2 + (ri - rc)[None, :] ** 2
    img = np.zeros(grid.shape(), dtype=np.float64)
    img[rows, cols] = np.exp(-d2 / (2.0 * sigma * sigma))
    return img


def render_tip_gt(grid: HoughGrid, tip_x: float, tip_y: float,
                  sigma: float = 2.0) -> np.ndarray:
    """Blurred sinusoid of a tip point: one 1-D Gaussian per theta row.

    Each row's Gaussian is centered on the bin the tip votes into
    (_rho_bin), so every row attains exactly 1.0 there.  Each row is a
    slice of one Gaussian over the offsets -(rho_bins - 1) .. rho_bins - 1.
    """
    _check_setting("sigma", sigma, 0)
    if not (0 <= tip_x <= grid.image_w - 1 and 0 <= tip_y <= grid.image_h - 1):
        raise ValidationError(
            f"tip ({tip_x}, {tip_y}) outside image "
            f"{grid.image_w}x{grid.image_h}"
        )
    centers = _rho_bin(grid, *grid.theta_trig(), tip_x, tip_y).astype(np.intp)
    n = grid.rho_bins
    offsets = np.arange(1 - n, n, dtype=np.float64)
    profile = np.exp(-offsets ** 2 / (2.0 * sigma * sigma))
    # an in-image tip keeps every center in [0, n), so no slice runs off
    return sliding_window_view(profile, n)[n - 1 - centers]


def _decodable(channel, grid: HoughGrid, name: str) -> np.ndarray:
    """A channel as float64 once the decoders' checks pass: the grid's
    shape, finite cells (np.argmax takes a NaN first) and not all zero."""
    chan = np.asarray(channel, dtype=np.float64)
    if chan.shape != grid.shape():
        raise ValidationError(
            f"channel shape {chan.shape} does not match grid {grid.shape()}")
    bad = chan.size - np.count_nonzero(np.isfinite(chan))
    if bad:
        raise ValidationError(f"{name} channel has {bad} non-finite value(s)")
    if not chan.any():
        raise NoDetectionError(f"all-zero {name} channel")
    return chan


def shaft_from_hough(shaft_channel: np.ndarray, grid: HoughGrid):
    """Decode the global argmax cell to (theta_deg, rho_px).

    Ties break toward the smallest (theta_idx, rho_idx); a NaN or inf
    cell raises ValidationError, an all-zero channel NoDetectionError.
    """
    flat = int(np.argmax(_decodable(shaft_channel, grid, "shaft")))
    ti, ri = divmod(flat, grid.rho_bins)
    return line_from_cell(grid, ti, ri)


def _raster_cell(grid: HoughGrid, c: float, s: float, rho: float):
    """Pixel coordinates of a cell's 1-px line, forward-consistent.

    Steps per column when the line is closer to horizontal (sin >= |cos|)
    and per row otherwise, rounding the free coordinate with
    floor(v + 0.5).  Returns (xs, ys) integer arrays inside the image.
    """
    if s >= abs(c):
        xs = np.arange(grid.image_w)
        ys = np.floor((rho - xs * c) / s + 0.5).astype(np.intp)
        keep = (ys >= 0) & (ys < grid.image_h)
        return xs[keep], ys[keep]
    ys = np.arange(grid.image_h)
    xs = np.floor((rho - ys * s) / c + 0.5).astype(np.intp)
    keep = (xs >= 0) & (xs < grid.image_w)
    return xs[keep], ys[keep]


def inverse_hough_accumulate(cells, grid: HoughGrid) -> np.ndarray:
    """Sum of weighted rasterized lines for (theta_idx, rho_idx, weight).

    Linear in the weights; an empty cell list yields a zero image.
    """
    acc = np.zeros((grid.image_h, grid.image_w), dtype=np.float64)
    cos_t, sin_t = grid.theta_trig()
    for theta_idx, rho_idx, weight in cells:
        _, rho = line_from_cell(grid, theta_idx, rho_idx)
        xs, ys = _raster_cell(grid, float(cos_t[theta_idx]), float(sin_t[theta_idx]), rho)
        acc[ys, xs] += weight
    return acc


def tip_from_hough(tip_channel: np.ndarray, grid: HoughGrid,
                   top_p: float = 1.0):
    """Probability-weighted inverse transform of the strongest cells.

    Takes the ceil(top_p% of cells) highest-intensity cells (stable
    order, so equal intensities prefer smaller (theta_idx, rho_idx)),
    rasterizes each weighted by its intensity, and returns the argmax
    pixel of the accumulator as (tip_x, tip_y).  Ties break toward the
    smallest (y, then x).  Channels are checked as in shaft_from_hough.
    """
    _check_setting("top_p", top_p, 0, 100, hi_closed=True)
    flat = _decodable(tip_channel, grid, "tip").ravel()
    n_top = math.ceil(top_p / 100.0 * flat.size)
    order = np.argsort(-flat, kind="stable")[:n_top]
    cells = ((*divmod(int(cell), grid.rho_bins), flat[cell]) for cell in order)
    acc = inverse_hough_accumulate(cells, grid)
    best = int(np.argmax(acc))
    y, x = divmod(best, grid.image_w)
    return float(x), float(y)


def render_truth_map(grid: HoughGrid, theta: float, rho: float,
                     tip_x: float, tip_y: float,
                     shaft_sigma: float = 2.0, tip_sigma: float = 2.0) -> HoughMap:
    """Rendered two-channel ground truth for scoring a prediction."""
    return HoughMap(
        shaft=render_shaft_gt(grid, theta, rho, shaft_sigma),
        tip=render_tip_gt(grid, tip_x, tip_y, tip_sigma),
    )

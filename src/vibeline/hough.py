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
import heapq
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import _EXP_ZERO_REACH, _reach_slice, _snapped_cos_sin
from .errors import NoDetectionError, ValidationError, _check_setting

# bins per axis: a finer step fails naming the least one, not as an image
# numpy refuses (rho_step 1e-300) or a vote over millions of theta rows
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


# _peak's floors, coarse to fine: the map's 95th and 85th percentiles.  The
# coarse one bounds every theta row from ~5% of the pixels, voted in blocks
# of _BLOCK_ROWS rows; the fine one tightens a row's bound before it is voted
# exactly.  In a noisy fullsize emission's search, blocks of 4 to 10 rows
# timed within ~2% of one another, and blocks of 1 or 16 rows 5-23% slower;
# 6 rows split 180 evenly, with no padded row
_FLOOR_SHARES = (0.95, 0.85)
_BLOCK_ROWS = 6


def _rho_bin(grid: HoughGrid, cos_t, sin_t, x, y, out=None,
             shift=0) -> np.ndarray:
    """Rho bin of (x, y) at each angle, as floats (in out if given):
    floor(cos*(1/step)*x + sin*(1/step)*y + 0.5) + rho_offset, plus shift,
    whole numbers that _vote adds in the same exact float add.  The vote
    and the tip curve share it, so they break half-bin ties alike."""
    inv_step = 1.0 / grid.rho_step
    v = np.multiply(cos_t * inv_step, x, out=out)
    v += (sin_t * inv_step) * y
    v += 0.5
    np.floor(v, out=v)
    v += grid.rho_offset + shift
    return v


def _row_vote(grid: HoughGrid, c, s, xs, ys, weights, out) -> np.ndarray:
    """One theta row: the weights summed into the _rho_bin of (xs, ys) in
    the order given; out holds the bins as floats."""
    idx = _rho_bin(grid, c, s, xs, ys, out=out).astype(np.intp).ravel()
    return np.bincount(idx, weights=weights, minlength=grid.rho_bins)


def _above(weights: np.ndarray, floor: float) -> np.ndarray:
    """Mask of the weights above floor; at floor 0, of the non-zero ones
    (-0.0 is zero, a subnormal is not)."""
    return weights > floor if floor else weights != 0


def _excess(grid: HoughGrid, weights: np.ndarray, floor: float):
    """(xs, ys, excess) of the flat map's pixels above floor (_above), in
    row-major order: their coordinates as floats and weights - floor.  At
    floor 0 they are the non-zero pixels, whose vote is hough_transform's
    image."""
    voters = np.flatnonzero(_above(weights, floor))
    ys, xs = (v.astype(np.float64) for v in np.divmod(voters, grid.image_w))
    return xs, ys, weights[voters] - floor


def _vote(grid: HoughGrid, xs, ys, weights, block: int = 1) -> np.ndarray:
    """(theta_bins, rho_bins) image of weights[i] voted by pixel (xs[i],
    ys[i]); of 1 per pixel when weights is None.  Each block of theta rows
    takes one _rho_bin chain and one bincount: row j of a block adds
    j * rho_bins to its floored bins, an exact float add, so every cell sums
    its pixels in the order given, as a vote one row at a time does.  The
    last block is padded with rows of cos = sin = 0, voted and dropped.  One
    row per block hands _rho_bin scalar angles and a flat buffer, which cost
    least per call."""
    rows, cols = grid.theta_bins, grid.rho_bins
    cos_t, sin_t = grid.theta_trig()
    tiled, shift, rho_units = weights, 0, np.empty(xs.size)
    if block > 1:  # each block's angles as a column, a row of bins apiece
        cos_t, sin_t = (np.pad(t, (0, -rows % block)).reshape(-1, block, 1)
                        for t in (cos_t, sin_t))
        tiled = None if weights is None else np.tile(weights, block)
        shift = np.arange(block, dtype=np.float64)[:, None] * cols
        rho_units = np.empty((block, xs.size))
    acc = np.empty((len(cos_t), block * cols), dtype=np.float64)
    for i, (c, s) in enumerate(zip(cos_t, sin_t)):
        bins = _rho_bin(grid, c, s, xs, ys, out=rho_units, shift=shift)
        acc[i] = np.bincount(bins.astype(np.intp).ravel(), weights=tiled,
                             minlength=block * cols)
    return acc.reshape(-1, cols)[:rows]


@functools.lru_cache(maxsize=1)
def _cell_counts(grid: HoughGrid) -> np.ndarray:
    """Read-only (theta_bins, rho_bins) float count of the pixels that vote
    into each cell: 1.4 MB at 328x335 with 1-degree steps.  An unweighted
    count gives the integer bits of the vote of a map of ones."""
    xs, ys, _ = _excess(grid, np.ones(grid.image_h * grid.image_w), 0.0)
    counts = _vote(grid, xs, ys, None)
    counts.setflags(write=False)
    return counts


# theta rows whose _row_bins stay cached, across grids: 5.3 MB of uint16 at
# 328x335.  A noisy emission votes the same few rows exactly, in much the
# same order each time: ~3 with the needle vibrating, 8-21 (median 15-16)
# with it still on seven fullsize phantoms.  A cache smaller than a search
# evicts each row before the next emission asks for it again: 16 rows
# missed 6-16% of those phantoms' requests, 24 only the first of each row
_CACHED_ROWS = 24


@functools.lru_cache(maxsize=_CACHED_ROWS)
def _row_bins(grid: HoughGrid, ti: int) -> np.ndarray:
    """Read-only _rho_bin of every pixel at theta row ti, flat in row-major
    order, in the narrowest unsigned dtype that holds rho_bins - 1 (uint16,
    220 KB at 328x335).  They depend on the grid and the angle alone, so
    _peak's exact rows read them here rather than recompute them per map."""
    cos_t, sin_t = grid.theta_trig()
    xs = np.arange(grid.image_w, dtype=np.float64)[None, :]
    ys = np.arange(grid.image_h, dtype=np.float64)[:, None]
    out = np.empty((grid.image_h, grid.image_w))
    bins = _rho_bin(grid, cos_t[ti], sin_t[ti], xs, ys, out=out).ravel()
    bins = bins.astype(np.min_scalar_type(grid.rho_bins - 1))
    bins.setflags(write=False)
    return bins


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
    A NaN or inf pixel is rejected with ValidationError.  Only the
    non-zero pixels vote, found by one mask, weights != 0 (-0.0 is zero to
    it, a subnormal is not); a skipped zero would only add 0.0.  Each theta
    row bins them with _rho_bin and adds their weights with one bincount,
    in row-major pixel order: ~2-3 ms on a clean 328x335 map (1.2%
    non-zero), ~85-105 ms on a dense one.  It votes one row per bincount:
    _vote's blocks of 8 rows take a clean map's vote from ~2.1 to ~1.9 ms,
    but perfbench's traced batch run checks this span against --timing's
    hough_ms, and the tracer's fixed cost per call, a larger share of a
    faster vote, then takes that check from ~7% to ~9% of its 10% limit;
    past ~16k voters blocks are slower.  Detection builds this image only
    for a clean map (pipeline._vote_or_search); --emit-hough and the tests
    vote here.
    """
    weights = _checked_feature(feature, grid).ravel()
    return _vote(grid, *_excess(grid, weights, 0.0))


def _levels(grid: HoughGrid, weights: np.ndarray) -> list:
    """_peak's levels, coarse to fine: (floor, *_excess over it) for each
    _FLOOR_SHARES quantile of the flat map, each > 0 on every map that
    detection sends (pipeline._vote_or_search).  One partition at the
    finest share, and one more of the slice above it per coarser share,
    find them: 0.18 ms at 328x335, where one partition with both kth
    values took 1.26 ms.  The map is scanned once, at the finest floor; a
    coarser level is the subset of those voters above its floor, in the
    same row-major order and with the same weights - floor."""
    floors, rest, lo = [], weights, 0
    for share in reversed(_FLOOR_SHARES):
        k = int(weights.size * share)
        rest = np.partition(rest, k - lo)[k - lo:]
        floors.insert(0, float(rest[0]))
        lo = k
    voters = np.flatnonzero(_above(weights, floors[-1]))
    ys, xs = (v.astype(np.float64) for v in np.divmod(voters, grid.image_w))
    vals = weights[voters]
    levels = [(floors[-1], xs, ys, vals - floors[-1])]
    for f in reversed(floors[:-1]):
        keep = np.flatnonzero(_above(vals, f))  # faster than a mask's gather
        levels.insert(0, (f, xs[keep], ys[keep], vals[keep] - f))
    return levels


def _row_bounds(floor: float, vote: np.ndarray, counts: np.ndarray,
                grid: HoughGrid):
    """An upper bound on the maximum of each theta row of a non-negative
    map, from the vote of its excess over floor and the rows' counts.

    A cell's sum splits into its pixels' parts up to the floor, at most
    floor * (pixel count), and their excess over it.  Each bound is
    padded by 2 (H*W + 2) eps relative, more than the rounding of a sum
    of H*W terms on either side, so rounding cannot prune the true row.
    """
    pad = 2.0 * (grid.image_h * grid.image_w + 2) * np.finfo(np.float64).eps
    total = np.multiply(counts, floor)
    total += vote
    return total.max(axis=-1) * (1.0 + pad)


def _peak(values: np.ndarray, grid: HoughGrid):
    """(theta_idx, rho_idx, peak) of hough_transform(values, grid) bit for
    bit, without building the image: its argmax cell, the first (theta,
    rho) on a tie, and its value.  values must be non-negative.

    A best-first search over _levels.  The excess over the coarsest floor
    is voted in blocks of _BLOCK_ROWS theta rows, and _row_bounds bounds
    every row from it.  A heap holds (bound, theta, level) and pops the
    highest bound: a row at a coarser level is voted at the next floor and
    pushed back with that bound, and a row at the finest level is voted
    exactly: one bincount of every pixel's cached _row_bins, in row-major
    order as hough_transform votes it.  The search stops once the top
    bound is below the best exact value.  On a noisy fullsize map with a
    vibrating needle about 3 rows are voted exactly; with the vibration
    off 8-21, 12 on a map where one 90th-percentile floor left ~35.  A
    sparse or tied map (detection sends none) costs more rows, not bits.
    The first call on a grid builds _cell_counts (~80-100 ms at 328x335 with
    1-degree steps, cached for one grid), and the first exact vote of a
    row its _row_bins (~1 ms).  A NaN or inf pixel raises as in
    hough_transform.
    """
    weights = _checked_feature(values, grid).ravel()
    levels = _levels(grid, weights)
    floor, *coarse = levels[0]
    vote = _vote(grid, *coarse, _BLOCK_ROWS)
    counts = _cell_counts(grid)
    heap = [(-b, ti, 0) for ti, b in
            enumerate(_row_bounds(floor, vote, counts, grid).tolist())]
    heapq.heapify(heap)
    rho_units = np.empty(levels[-1][1].size)  # a row's bins at a finer level
    cos_t, sin_t = grid.theta_trig()
    best, cell = -math.inf, (0, 0)
    while heap and -heap[0][0] >= best:
        _, ti, lv = heapq.heappop(heap)
        if lv + 1 < len(levels):
            lv += 1
            floor, fxs, fys, excess = levels[lv]
            row = _row_vote(grid, cos_t[ti], sin_t[ti], fxs, fys, excess,
                            rho_units[:fxs.size])
            bound = _row_bounds(floor, row, counts[ti], grid)
            heapq.heappush(heap, (-float(bound), ti, lv))
            continue
        row = np.bincount(_row_bins(grid, ti), weights=weights,
                          minlength=grid.rho_bins)
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

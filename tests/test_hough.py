"""Hough voting, rendering, decoding, and inverse rasterization."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import brute_hough
from vibeline import (
    HoughGrid,
    HoughMap,
    NoDetectionError,
    ValidationError,
    hough_transform,
    inverse_hough_accumulate,
    line_from_cell,
    render_shaft_gt,
    render_tip_gt,
    render_truth_map,
    shaft_from_hough,
    tip_from_hough,
)


def small_grid(h=24, w=31, theta_step=1.0, rho_step=1.0):
    return HoughGrid(image_h=h, image_w=w,
                     theta_step=theta_step, rho_step=rho_step)


# --------------------------------------------------------------------------
# Grid geometry
# --------------------------------------------------------------------------

def test_grid_bin_counts():
    grid = small_grid()
    assert grid.theta_bins == 180
    half = math.ceil(math.hypot(24, 31))
    assert grid.rho_bins == 2 * half + 1
    assert grid.rho_offset == half
    assert HoughGrid(image_h=10, image_w=10, theta_step=2.0).theta_bins == 90


def test_every_pixel_maps_in_range_for_every_theta():
    grid = small_grid()
    feat = np.ones((grid.image_h, grid.image_w))
    acc = hough_transform(feat, grid)  # would raise on an out-of-range bin
    assert acc.shape == grid.shape()


def test_grid_validation():
    with pytest.raises(ValidationError):
        HoughGrid(image_h=0, image_w=5)
    with pytest.raises(ValidationError):
        HoughGrid(image_h=5, image_w=5, theta_step=0.0)
    with pytest.raises(ValidationError):
        HoughGrid(image_h=5, image_w=5, rho_step=-1.0)


@pytest.mark.parametrize("name, step", [("rho_step", 1e-300),
                                        ("rho_step", 5e-324),
                                        ("theta_step", 1e-6)])
def test_grid_rejects_more_bins_than_a_two_byte_index(name, step):
    # numpy refused a 1e-300 rho step's array; a tiny theta step would
    # loop over millions of theta rows before any check
    with pytest.raises(ValidationError) as info:
        HoughGrid(image_h=16, image_w=16, **{name: step})
    msg = str(info.value)
    assert msg.startswith(f"{name} must be >= ") and "16x16" in msg
    least = float(msg.split(">= ")[1].split()[0])
    grid = HoughGrid(image_h=16, image_w=16, **{name: least})
    assert max(grid.theta_bins, grid.rho_bins) <= 65536
    with pytest.raises(ValidationError):
        HoughGrid(image_h=16, image_w=16, **{name: math.nextafter(least, 0)})


def test_grid_at_the_smallest_rho_step_votes_with_two_byte_indices():
    with pytest.raises(ValidationError) as info:
        HoughGrid(image_h=16, image_w=16, rho_step=1e-300)
    least = float(str(info.value).split(">= ")[1].split()[0])
    grid = HoughGrid(image_h=16, image_w=16, theta_step=30.0, rho_step=least)
    feat = np.zeros((16, 16))
    feat[3, 5] = 1.0
    assert hough_transform(feat, grid).sum() == grid.theta_bins
    assert grid.rho_bins - 1 <= np.iinfo(np.uint16).max


# --------------------------------------------------------------------------
# Forward transform
# --------------------------------------------------------------------------

def test_single_pixel_votes_once_per_theta():
    grid = small_grid()
    feat = np.zeros((grid.image_h, grid.image_w))
    feat[7, 12] = 2.5
    acc = hough_transform(feat, grid)
    for i in range(grid.theta_bins):
        col = acc[i]
        assert np.count_nonzero(col) == 1
        assert col.sum() == pytest.approx(2.5)


def test_vote_conservation_on_random_images():
    rng = np.random.default_rng(37)
    for _ in range(10):
        h = int(rng.integers(16, 40))
        w = int(rng.integers(16, 40))
        grid = small_grid(h, w)
        feat = rng.uniform(size=(h, w))
        acc = hough_transform(feat, grid)
        total = feat.sum()
        rel = np.abs(acc.sum(axis=1) - total) / total
        assert np.max(rel) <= 1e-6


def test_forward_transform_matches_brute_force_oracle():
    rng = np.random.default_rng(41)
    grid = small_grid(h=17, w=19, theta_step=7.5, rho_step=2.0)
    feat = rng.uniform(size=(17, 19))
    got = hough_transform(feat, grid)
    want = brute_hough(feat, grid.theta_step, grid.rho_step,
                       grid.rho_offset, grid.theta_bins, grid.rho_bins)
    assert np.max(np.abs(got - want)) <= 1e-9


def _recomputed_vote(feat, grid):
    """The vote of every pixel, each rho bin computed over the whole grid."""
    xs = np.arange(grid.image_w, dtype=np.float64)
    ys = np.arange(grid.image_h, dtype=np.float64)
    cos_t, sin_t = grid.theta_trig()
    inv_step = 1.0 / grid.rho_step
    acc = np.empty(grid.shape(), dtype=np.float64)
    for i in range(grid.theta_bins):
        rho_units = ((cos_t[i] * inv_step) * xs[None, :]
                     + (sin_t[i] * inv_step) * ys[:, None])
        idx = np.floor(rho_units + 0.5).astype(np.intp).ravel() + grid.rho_offset
        acc[i] = np.bincount(idx, weights=feat.ravel(), minlength=grid.rho_bins)
    return acc


def test_cached_vote_is_bit_identical_to_recomputed_bins():
    rng = np.random.default_rng(43)
    steps = [(t, r) for t in (1.0, 0.5, 7.0) for r in (1.0, 0.7, 2.5)]
    cases = [((16, 16), steps), ((37, 53), steps),
             ((328, 335), [(1.0, 1.0), (0.5, 0.7), (7.0, 2.5)])]
    grids = [(HoughGrid(h, w, t, r), rng.uniform(size=(h, w)))
             for (h, w), grid_steps in cases for t, r in grid_steps]
    # dense maps, every pixel a voter; every call switches grid, and the
    # second pass revisits each grid
    for _ in range(2):
        for grid, feat in grids:
            got = hough_transform(feat, grid)
            assert np.array_equal(got, _recomputed_vote(feat, grid)), grid


def _voted_by_the_pipeline_rule(feat, grid, dense):
    """The peak detection finds, read as pipeline._decode reads it:
    _vote_or_search builds no image past a quarter of the pixels non-zero,
    and otherwise hough_transform's."""
    from vibeline.pipeline import _vote_or_search

    image, cell = _vote_or_search(feat, grid)
    assert (image is None) == dense
    if image is not None:
        assert np.array_equal(image.view(np.uint64),
                              hough_transform(feat, grid).view(np.uint64))
    return float(image.max()) if cell is None else cell[2]


@settings(max_examples=150, deadline=None)
@given(h=st.integers(1, 40), w=st.integers(1, 40),
       # 7 and 0.7 do not divide 180, so the last row sits off the seam's
       # grid (175, 179.3 degrees); rows 0 and theta_bins - 1 are compared
       # on every example
       theta_step=st.sampled_from([1.0, 0.7, 3.0, 7.0, 45.0]),
       rho_step=st.sampled_from([0.5, 0.7, 1.0, 2.0, 3.0]),
       share=st.one_of(st.sampled_from(["none", "one", "quarter",
                                        "quarter+1", "all"]),
                       st.floats(0.0, 1.0)),
       ties=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
# a 4x4 map with exactly a quarter (4 pixels) non-zero keeps its image in
# detection, and one more pixel does not
@example(h=4, w=4, theta_step=1.0, rho_step=1.0, share="quarter",
         ties=True, seed=0)
@example(h=4, w=4, theta_step=1.0, rho_step=1.0, share="quarter+1",
         ties=True, seed=0)
@example(h=1, w=1, theta_step=1.0, rho_step=1.0, share="one", ties=False,
         seed=0)
@example(h=40, w=40, theta_step=0.7, rho_step=1.0, share="none", ties=False,
         seed=0)
# at rho_step 2 every odd column sits on a half-bin tie at 0 degrees and
# every odd row at 90; pixel (0, 3) sits at rho 1.5 px at 30 degrees, a
# tie at step 3 that dividing by the step after the sum rounds the other
# way
@example(h=40, w=40, theta_step=1.0, rho_step=2.0, share=0.2, ties=False,
         seed=1)
@example(h=40, w=40, theta_step=1.0, rho_step=3.0, share="one",
         ties=True, seed=2)
def test_sparse_vote_equals_the_recomputed_vote_bit_for_bit(
        h, w, theta_step, rho_step, share, ties, seed):
    grid = HoughGrid(h, w, theta_step, rho_step)
    n = h * w
    count = {"none": 0, "one": 1, "quarter": n // 4, "quarter+1": n // 4 + 1,
             "all": n}[share] if isinstance(share, str) else round(share * n)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    if ties:  # (x, y) = (0, 3) and (3, 0) vote first: rho 1.5 px at 30, 60
        tied = np.array([i for i, inside in ((3 * w, h > 3), (3, w > 3))
                         if inside], dtype=np.intp)
        order = np.concatenate([tied, order[~np.isin(order, tied)]])
    feat = np.zeros(n)
    # weights over 16 decades, so a different summation order shows
    feat[order[:count]] = (rng.uniform(0.5, 1.0, count)
                           * 10.0 ** rng.integers(-8, 8, count))
    feat = feat.reshape(h, w)
    got = hough_transform(feat, grid)
    assert np.array_equal(got.view(np.uint64),
                          _recomputed_vote(feat, grid).view(np.uint64))
    peak = _voted_by_the_pipeline_rule(feat, grid, count > n // 4)
    assert np.float64(peak).view(np.uint64) == got.max().view(np.uint64)


# (non-zero pixels, of them 5e-324, -0.0 pixels, dense) on the fullsize
# 328x335 grid, where a quarter is 27,470 pixels
@pytest.mark.parametrize("count, subnormal, negative_zero, dense", [
    (1318, 50, 5000, False),  # ~1.2% non-zero, as a clean batch map
    (27470, 50, 0, False),
    (27471, 50, 0, True),
    (27470, 50, 27470, False),  # -0.0 pixels do not count toward a quarter
    (1, 1, 328 * 335 - 1, False),  # one smallest subnormal, -0.0 elsewhere
], ids=["sparse", "quarter", "quarter+1", "quarter+negative_zeros",
        "one_subnormal"])
def test_mask_scan_votes_the_nonzero_pixels_bit_for_bit(
        count, subnormal, negative_zero, dense):
    grid = HoughGrid(328, 335)
    n = 328 * 335
    rng = np.random.default_rng(count + negative_zero)
    order = rng.permutation(n)
    feat = np.zeros(n)
    feat[order[:count]] = (rng.uniform(0.5, 1.0, count)
                           * 10.0 ** rng.integers(-8, 8, count))
    feat[order[:subnormal]] = 5e-324
    feat[order[count:count + negative_zero]] = -0.0
    feat = feat.reshape(328, 335)
    got = hough_transform(feat, grid)
    want = _recomputed_vote(feat, grid)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    peak = _voted_by_the_pipeline_rule(feat, grid, dense)
    assert np.float64(peak).view(np.uint64) == got.max().view(np.uint64)
    if count == 1:  # the subnormal lands in one bin per theta row
        assert (got == 5e-324).sum(axis=1).tolist() == [1] * grid.theta_bins
        assert np.count_nonzero(got) == grid.theta_bins


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forward_rejects_a_non_finite_feature(bad):
    grid = small_grid()
    feat = np.zeros((grid.image_h, grid.image_w))
    feat[3, 4] = bad
    feat[5, 6] = bad
    with pytest.raises(ValidationError,
                       match=r"^energy map has 2 non-finite value\(s\); "
                             r"frames must be finite$"):
        hough_transform(feat, grid)


def test_line_mask_peaks_at_its_own_cell():
    # 80 bright pixels on the line theta=45, rho=40.
    grid = small_grid(h=80, w=80)
    feat = np.zeros((80, 80))
    c = s = math.cos(math.radians(45.0))
    count = 0
    for x in range(80):
        y = (40.0 - x * c) / s
        yi = int(math.floor(y + 0.5))
        if 0 <= yi < 80 and count < 80:
            feat[yi, x] = 1.0
            count += 1
    acc = hough_transform(feat, grid)
    ti, ri = np.unravel_index(np.argmax(acc), acc.shape)
    theta, rho = line_from_cell(grid, int(ti), int(ri))
    assert abs(theta - 45.0) <= grid.theta_step
    assert abs(rho - 40.0) <= grid.rho_step


def test_forward_rejects_shape_mismatch():
    grid = small_grid()
    with pytest.raises(ValidationError):
        hough_transform(np.zeros((5, 5)), grid)


# --------------------------------------------------------------------------
# Pruned peak: the vote's argmax cell and peak without the image
# --------------------------------------------------------------------------

def _peak_map(h, w, share, values, seed):
    """A map with count non-zero pixels, drawn as test_sparse_vote_... does;
    (0, 3) and (3, 0) (rho 1.5 px at 30 and 60 degrees) come first, then
    -0.0 and the smallest subnormal on some of the zero pixels."""
    n = h * w
    count = {"none": 0, "one": 1, "quarter": n // 4, "all": n}[share] \
        if isinstance(share, str) else round(share * n)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    tied = np.array([i for i, inside in ((3 * w, h > 3), (3, w > 3))
                     if inside], dtype=np.intp)
    order = np.concatenate([tied, order[~np.isin(order, tied)]])
    feat = np.zeros(n)
    if values == "decades":  # a different summation order shows
        feat[order[:count]] = (rng.uniform(0.5, 1.0, count)
                               * 10.0 ** rng.integers(-8, 8, count))
    else:  # few levels: equal cells in many rows, so the tie rule shows
        feat[order[:count]] = rng.integers(1, 3, count).astype(np.float64)
    rest = order[count:]
    feat[rest[: rest.size // 3]] = -0.0
    feat[rest[rest.size // 3: rest.size // 3 + 2]] = 5e-324
    return feat.reshape(h, w)


def _level_bounds_hold(feat, grid, image):
    """Each level of _peak bounds every theta row's maximum from above;
    returns the levels' floors."""
    from vibeline.hough import _cell_counts, _levels, _row_bounds, _vote

    floors = []
    for floor, xs, ys, excess in _levels(grid, feat.ravel()):
        vote = _vote(grid, xs, ys, excess)
        bound = _row_bounds(floor, vote, _cell_counts(grid), grid)
        assert np.all(bound >= image.max(axis=1)), floor
        if floor == 0.0:  # the vote of the non-zero pixels is the image
            assert np.array_equal(vote.view(np.uint64), image.view(np.uint64))
        floors.append(floor)
    return floors


@settings(max_examples=150, deadline=None)
@given(h=st.integers(1, 40), w=st.integers(1, 40),
       theta_step=st.sampled_from([1.0, 0.7, 3.0, 7.0, 45.0]),
       rho_step=st.sampled_from([0.5, 0.7, 1.0, 2.0, 3.0]),
       share=st.one_of(st.sampled_from(["none", "one", "quarter", "all"]),
                       st.floats(0.0, 1.0)),
       values=st.sampled_from(["decades", "levels"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(h=1, w=1, theta_step=1.0, rho_step=1.0, share="one",
         values="decades", seed=0)
@example(h=40, w=40, theta_step=0.7, rho_step=1.0, share="all",
         values="levels", seed=0)
@example(h=40, w=40, theta_step=1.0, rho_step=2.0, share=0.2,
         values="decades", seed=1)
@example(h=40, w=40, theta_step=1.0, rho_step=3.0, share="quarter",
         values="levels", seed=2)
def test_peak_equals_the_vote_argmax_and_peak_bit_for_bit(
        h, w, theta_step, rho_step, share, values, seed):
    from vibeline.hough import _peak

    grid = HoughGrid(h, w, theta_step, rho_step)
    feat = _peak_map(h, w, share, values, seed)
    image = hough_transform(feat, grid)
    ti, ri, peak = _peak(feat, grid)
    # np.argmax takes the first cell: the smallest (theta, rho) on a tie
    assert (ti, ri) == divmod(int(np.argmax(image)), grid.rho_bins)
    assert np.float64(peak).view(np.uint64) == image.max().view(np.uint64)
    _level_bounds_hold(feat, grid, image)


@settings(max_examples=150, deadline=None)
@given(h=st.integers(1, 40), w=st.integers(1, 40),
       # 180, 258, 60, 26 and 4 theta rows: full and partial last blocks
       theta_step=st.sampled_from([1.0, 0.7, 3.0, 7.0, 45.0]),
       rho_step=st.sampled_from([0.5, 0.7, 1.0, 3.0]),
       block=st.sampled_from([1, 2, 7, 8, 180]),
       share=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       counted=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(h=40, w=40, theta_step=1.0, rho_step=1.0, block=180, share=0.0,
         counted=False, seed=0)
@example(h=40, w=40, theta_step=1.0, rho_step=1.0, block=7, share=1.0,
         counted=False, seed=1)
@example(h=40, w=40, theta_step=0.7, rho_step=0.5, block=8, share=0.3,
         counted=True, seed=2)
def test_blocked_vote_equals_the_recomputed_vote_bit_for_bit(
        h, w, theta_step, rho_step, block, share, counted, seed):
    from vibeline.hough import _vote

    grid = HoughGrid(h, w, theta_step, rho_step)
    rng = np.random.default_rng(seed)
    n = h * w
    voters = np.sort(rng.permutation(n)[:round(share * n)])
    ys, xs = (v.astype(np.float64) for v in np.divmod(voters, w))
    # weights over 16 decades, with -0.0 and the smallest subnormal
    weights = (rng.uniform(0.5, 1.0, voters.size)
               * 10.0 ** rng.integers(-8, 8, voters.size))
    weights[rng.random(voters.size) < 0.2] = -0.0
    weights[rng.random(voters.size) < 0.2] = 5e-324
    feat = np.zeros(n)  # a pixel that does not vote adds 0.0 below
    feat[voters] = 1.0 if counted else weights
    got = _vote(grid, xs, ys, None if counted else weights, block)
    want = _recomputed_vote(feat.reshape(h, w), grid)
    assert got.dtype == np.float64 and got.shape == grid.shape()
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(h=st.integers(1, 40), w=st.integers(1, 40), share=st.floats(0.0, 1.0),
       subnormal=st.floats(0.0, 1.0), negative_zero=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
# a quarter + 1 pixels non-zero, all of them the smallest subnormal, and
# -0.0 everywhere else
@example(h=4, w=4, share=0.0, subnormal=1.0, negative_zero=1.0, seed=0)
@example(h=40, w=40, share=0.0, subnormal=1.0, negative_zero=1.0, seed=1)
@example(h=1, w=1, share=0.0, subnormal=0.0, negative_zero=0.0, seed=2)
@example(h=40, w=40, share=1.0, subnormal=0.5, negative_zero=0.0, seed=3)
def test_every_map_detection_sends_to_peak_has_every_floor_above_zero(
        h, w, share, subnormal, negative_zero, seed):
    # _peak has no path for a 0 floor: _vote_or_search sends it only maps
    # more than a quarter non-zero, so both percentile floors are > 0
    from vibeline import pipeline
    from vibeline.hough import _FLOOR_SHARES, _levels

    grid = HoughGrid(h, w)
    n = h * w
    count = n // 4 + 1 + round(share * (n - n // 4 - 1))
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    feat = np.zeros(n)
    feat[order[:count]] = (rng.uniform(0.5, 1.0, count)
                           * 10.0 ** rng.integers(-8, 8, count))
    feat[order[:round(subnormal * count)]] = 5e-324
    rest = order[count:]
    feat[rest[:round(negative_zero * rest.size)]] = -0.0
    sent = []

    def spy(values, grid):
        sent.append(values.ravel())
        return 0, 0, 0.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_peak", spy)
        image, _ = pipeline._vote_or_search(feat.reshape(h, w), grid)
    assert image is None and len(sent) == 1
    floors = [level[0] for level in _levels(grid, sent[0])]
    assert len(floors) == len(_FLOOR_SHARES) and min(floors) > 0.0, floors


# (map, _levels' floors: one per share, equal or 0 as they fall); every
# map is 20x20
_PLATEAU = np.full(400, 2.0)
_PLATEAU[:40] = 1.0  # 90% at 2: nothing lies above either floor
_TOP_TIE = np.linspace(0.01, 0.99, 400)
_TOP_TIE[-80:] = 5.0  # the top 20% tie, so both floors are 5
_MID_TIE = np.linspace(0.01, 0.99, 400)
_MID_TIE[-64:-16] = 1.5  # the 84th-96th percentiles tie: equal floors
_MID_TIE[-16:] = np.linspace(2.0, 3.0, 16)
_SPARSE = np.zeros(400)
_SPARSE[-48:] = np.linspace(0.5, 4.0, 48)  # 12% non-zero: the fine floor is 0


@pytest.mark.parametrize("flat, floors", [
    (_PLATEAU, [2.0, 2.0]), (_TOP_TIE, [5.0, 5.0]), (_MID_TIE, [1.5, 1.5]),
    (_SPARSE, [float(_SPARSE[380]), 0.0]),
], ids=["plateau", "top_tie", "mid_tie", "zero_fine_floor"])
def test_peak_keeps_its_bits_with_equal_zero_and_empty_levels(flat, floors):
    from vibeline.hough import _levels, _peak, _voters

    grid = HoughGrid(20, 20)
    rng = np.random.default_rng(9)
    feat = flat[rng.permutation(400)].reshape(20, 20)
    image = hough_transform(feat, grid)
    assert _level_bounds_hold(feat, grid, image) == floors
    if floors[0] == flat.max():  # no pixel lies above the coarse floor
        assert _voters(grid, feat.ravel(), floors[0])[2].size == 0
        assert _levels(grid, feat.ravel())[0][1].size == 0
    ti, ri, peak = _peak(feat, grid)
    assert (ti, ri) == divmod(int(np.argmax(image)), grid.rho_bins)
    assert np.float64(peak).view(np.uint64) == image.max().view(np.uint64)


def _peak_and_exact_rows(feat, grid):
    """_peak's result and the theta rows it voted over every pixel, in the
    order voted: each exact row reads its bins from _row_bins."""
    from vibeline import hough

    exact = []
    row_bins = hough._row_bins

    def spy(grid, ti):
        exact.append(ti)
        return row_bins(grid, ti)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hough, "_row_bins", spy)
        result = hough._peak(feat, grid)
    return result, exact


def _one_floor_rows(feat, grid, peak):
    """The rows a single 90th-percentile floor leaves above the peak: those
    a search without a finer floor votes exactly."""
    from vibeline.hough import _cell_counts, _row_bounds, _vote, _voters

    weights = feat.ravel()
    k = int(weights.size * 0.9)
    floor = float(np.partition(weights, k)[k])
    xs, ys, above = _voters(grid, weights, floor)
    vote = _vote(grid, xs, ys, above - floor)
    bound = _row_bounds(floor, vote, _cell_counts(grid), grid)
    return int(np.count_nonzero(bound >= peak))


def test_peak_of_a_noisy_fullsize_map_votes_few_rows_exactly():
    grid = HoughGrid(328, 335)
    rng = np.random.default_rng(5)
    feat = rng.exponential(size=(328, 335))
    feat[np.arange(300), np.arange(300) + 20] += 8.0  # a line at 135 deg
    image = hough_transform(feat, grid)
    (ti, ri, peak), exact = _peak_and_exact_rows(feat, grid)
    assert (ti, ri) == divmod(int(np.argmax(image)), grid.rho_bins)
    assert peak == image.max() and ti == 135
    floors = _level_bounds_hold(feat, grid, image)
    assert len(floors) == 2 and floors[0] > floors[1] > 0.0
    assert 1 <= len(exact) <= 5


@functools.lru_cache(maxsize=1)
def _noisy_still_needle_map():
    """(energy map, grid, its Hough image) of a fullsize phantom with the
    vibration off and sigma = 1 sensor noise: every pixel non-zero, the
    peak search's loosest bounds among detection's maps."""
    from dataclasses import replace

    from vibeline import detect_with_timing, preset, synth_sequence

    spec = replace(preset("fullsize"), visibility=0.0, artifact_count=1,
                   vib_amplitude=0.0, seed=1201)
    seq, _ = synth_sequence(spec)
    rng = np.random.default_rng(7)
    noisy = np.clip(np.rint(seq.frames + rng.standard_normal(seq.frames.shape)),
                    0, 255).astype(np.uint8)
    _, _, feat, grid = detect_with_timing(noisy, seq.fps)
    assert np.count_nonzero(feat) == feat.size
    return feat, grid, hough_transform(feat, grid)


def _assert_peak_is_the_image_argmax(result, image, grid):
    ti, ri, peak = result
    assert (ti, ri) == divmod(int(np.argmax(image)), grid.rho_bins)
    assert np.float64(peak).view(np.uint64) == image.max().view(np.uint64)


def test_peak_of_a_noisy_still_needle_votes_fewer_rows_than_one_floor():
    # with no vibrating line the bound stays loose: the finer floor must
    # leave fewer rows to vote exactly than one 90th-percentile floor does
    feat, grid, image = _noisy_still_needle_map()
    result, exact = _peak_and_exact_rows(feat, grid)
    _assert_peak_is_the_image_argmax(result, image, grid)
    assert len(exact) < _one_floor_rows(feat, grid, result[2])


def test_a_repeated_still_needle_search_finds_every_exact_row_cached():
    # the row cache holds every row this still needle's search votes
    # exactly, so its next emission computes no row's bins again
    from vibeline import hough

    feat, grid, image = _noisy_still_needle_map()
    _, exact = _peak_and_exact_rows(feat, grid)
    assert len(set(exact)) == len(exact) <= hough._CACHED_ROWS
    before = hough._row_bins.cache_info()
    result, again = _peak_and_exact_rows(feat, grid)
    _assert_peak_is_the_image_argmax(result, image, grid)
    assert again == exact
    assert hough._row_bins.cache_info().hits - before.hits == len(exact)


def test_peak_keeps_its_bits_when_its_exact_rows_overflow_the_row_cache():
    # a cache of 4 rows under a search that votes 12 exactly: rows are
    # evicted within the search and between the two searches
    from vibeline import hough

    feat, grid, image = _noisy_still_needle_map()
    small = functools.lru_cache(maxsize=4)(hough._row_bins.__wrapped__)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hough, "_row_bins", small)
        for _ in range(2):
            result, exact = _peak_and_exact_rows(feat, grid)
            _assert_peak_is_the_image_argmax(result, image, grid)
            assert len(set(exact)) > small.cache_info().maxsize
    assert small.cache_info().misses > small.cache_info().maxsize


def test_peak_keeps_its_bits_on_two_grids_used_alternately():
    # one image size, two rho steps: a row's cached bins belong to one grid
    from vibeline.hough import _peak, _row_bins

    rng = np.random.default_rng(11)
    feat = rng.exponential(size=(40, 50))
    feat[np.arange(40), np.arange(40) + 5] += 6.0
    grids = [HoughGrid(40, 50), HoughGrid(40, 50, rho_step=0.7)]
    images = [hough_transform(feat, grid) for grid in grids]
    for _ in range(3):
        for grid, image in zip(grids, images):
            _assert_peak_is_the_image_argmax(_peak(feat, grid), image, grid)
    ti = int(np.argmax(images[0])) // grids[0].rho_bins
    assert not np.array_equal(_row_bins(grids[0], ti), _row_bins(grids[1], ti))


# rho_step on a 30x40 image (diagonal 50) for 255, 257 and 65,535 rho bins:
# the last bin 254 fits uint8, 256 and 65,534 need uint16
@pytest.mark.parametrize("rho_bins", [255, 257, 65535])
def test_row_bins_fit_the_narrowest_dtype_up_to_the_largest_grid(rho_bins):
    from vibeline.hough import _peak, _rho_bin, _row_bins

    grid = HoughGrid(30, 40, theta_step=45.0,
                     rho_step=50.0 / (rho_bins // 2 - 0.5))
    assert grid.rho_bins == rho_bins
    want = np.uint8 if rho_bins <= 256 else np.uint16
    feat = np.random.default_rng(rho_bins).exponential(size=(30, 40))
    feat[:, 7] += 4.0
    _assert_peak_is_the_image_argmax(_peak(feat, grid),
                                     hough_transform(feat, grid), grid)
    xs = np.arange(40, dtype=np.float64)[None, :]
    ys = np.arange(30, dtype=np.float64)[:, None]
    cos_t, sin_t = grid.theta_trig()
    for ti in range(grid.theta_bins):
        bins = _row_bins(grid, ti)
        assert bins.dtype == want
        floats = _rho_bin(grid, cos_t[ti], sin_t[ti], xs, ys,
                          out=np.empty((30, 40)))
        assert np.array_equal(bins, floats.astype(np.intp).ravel())
    if rho_bins == 65535:  # past int16, so a signed 16-bit bin would wrap
        assert max(int(_row_bins(grid, ti).max())
                   for ti in range(grid.theta_bins)) > 32767


def test_a_cached_row_is_handed_back_read_only():
    from vibeline.hough import _peak, _row_bins

    grid = small_grid()
    feat = np.random.default_rng(13).exponential(size=(24, 31))
    image = hough_transform(feat, grid)
    ti = int(np.argmax(image)) // grid.rho_bins
    bins = _row_bins(grid, ti)
    assert not bins.flags.writeable and _row_bins(grid, ti) is bins
    with pytest.raises(ValueError, match="read-only"):
        bins[0] = 0
    _assert_peak_is_the_image_argmax(_peak(feat, grid), image, grid)


def test_peak_of_an_all_zero_map_is_zero_at_the_first_cell():
    from vibeline.hough import _peak

    grid = small_grid()
    assert _peak(np.zeros((grid.image_h, grid.image_w)), grid) == (0, 0, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_peak_rejects_a_non_finite_map(bad):
    from vibeline.hough import _peak

    grid = small_grid()
    feat = np.ones((grid.image_h, grid.image_w))
    feat[3, 4] = bad
    with pytest.raises(ValidationError,
                       match=r"^energy map has 1 non-finite value\(s\); "
                             r"frames must be finite$"):
        _peak(feat, grid)


def test_cell_counts_are_the_vote_of_a_map_of_ones_and_read_only():
    from vibeline.hough import _cell_counts

    grid = small_grid(17, 19, theta_step=7.0, rho_step=0.7)
    counts = _cell_counts(grid)
    assert np.array_equal(counts, hough_transform(np.ones((17, 19)), grid))
    assert not counts.flags.writeable
    assert _cell_counts(grid) is counts


# --------------------------------------------------------------------------
# Cell decoding
# --------------------------------------------------------------------------

def test_line_from_cell_centers():
    grid = small_grid()
    assert line_from_cell(grid, 0, grid.rho_offset) == (0.0, 0.0)
    assert line_from_cell(grid, 30, grid.rho_offset) == (30.0, 0.0)
    assert line_from_cell(grid, 10, grid.rho_offset + 7) == (10.0, 7.0)


def test_line_from_cell_round_trip():
    grid = small_grid(theta_step=3.0, rho_step=1.5)
    for ti in range(0, grid.theta_bins, 7):
        for ri in range(0, grid.rho_bins, 11):
            theta, rho = line_from_cell(grid, ti, ri)
            assert int(round(theta / grid.theta_step)) == ti
            assert int(math.floor(rho / grid.rho_step + 0.5)) + grid.rho_offset == ri


def test_line_from_cell_rejects_out_of_range():
    grid = small_grid()
    with pytest.raises(ValidationError):
        line_from_cell(grid, grid.theta_bins, 0)
    with pytest.raises(ValidationError):
        line_from_cell(grid, 0, -1)


@pytest.mark.parametrize("cell", [(1.5, 10), (10, 10.0), (True, 10), (3, False)],
                         ids=["fraction", "integral_float", "bool", "bool_rho"])
def test_line_from_cell_rejects_an_index_that_is_not_an_integer(cell):
    # (1.5, 10) once decoded to (1.5, -19.0), and True passed as index 1
    grid = HoughGrid(20, 20)
    with pytest.raises(ValidationError,
                       match=rf"^cell \({cell[0]}, {cell[1]}\) is not a cell "
                             rf"of grid \(180, 59\)"):
        line_from_cell(grid, *cell)


def test_inverse_accumulate_names_a_non_integer_cell():
    # numpy's untyped IndexError used to escape from the raster step
    with pytest.raises(ValidationError, match=r"^cell \(1\.5, 10\)"):
        inverse_hough_accumulate([(1.5, 10, 1.0)], HoughGrid(20, 20))


def test_line_from_cell_takes_numpy_integer_indices():
    # numpy integers pass, as Python ints: a uint8 rho index below the
    # offset once wrapped around (rho 249.0 for -7.0)
    grid = HoughGrid(20, 20)
    got = line_from_cell(grid, np.int64(30), np.intp(grid.rho_offset + 7))
    assert got == line_from_cell(grid, 30, grid.rho_offset + 7) == (30.0, 7.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = line_from_cell(grid, np.uint8(30), np.uint8(grid.rho_offset - 7))
    assert got == (30.0, -7.0)


# --------------------------------------------------------------------------
# Ground-truth rendering
# --------------------------------------------------------------------------

def test_shaft_render_peaks_at_target_cell():
    grid = small_grid()
    img = render_shaft_gt(grid, 30.0, 5.0, sigma=2.0)
    ti, ri = np.unravel_index(np.argmax(img), img.shape)
    assert (ti, ri) == (30, grid.rho_offset + 5)
    assert img[ti, ri] == 1.0


def test_shaft_render_one_bin_away_value():
    grid = small_grid()
    img = render_shaft_gt(grid, 30.0, 5.0, sigma=2.0)
    assert img[30, grid.rho_offset + 6] == pytest.approx(math.exp(-1.0 / 8.0),
                                                         abs=1e-12)


def test_shaft_render_tiny_sigma_concentrates_mass():
    grid = small_grid()
    img = render_shaft_gt(grid, 30.0, 5.0, sigma=0.25)
    flat = np.sort(img.ravel())
    assert flat[-1] == 1.0
    assert flat[-2] < 0.001


def _dense_shaft_gt(grid, theta, rho, sigma):
    """The Gaussian evaluated on every cell, as render_shaft_gt once did."""
    tc = theta / grid.theta_step
    rc = rho / grid.rho_step + grid.rho_offset
    ti = np.arange(grid.theta_bins, dtype=np.float64)
    ri = np.arange(grid.rho_bins, dtype=np.float64)
    d2 = (ti - tc)[:, None] ** 2 + (ri - rc)[None, :] ** 2
    return np.exp(-d2 / (2.0 * sigma * sigma))


@st.composite
def _shaft_targets(draw):
    grid = HoughGrid(image_h=draw(st.integers(1, 60)),
                     image_w=draw(st.integers(1, 60)),
                     theta_step=draw(st.sampled_from([0.5, 1.0, 7.0, 180.0])),
                     rho_step=draw(st.sampled_from([0.25, 1.0, 3.0])))
    # on a bin center, anywhere on the grid, or well outside it
    on_grid = draw(st.booleans())
    theta_bin = draw(st.integers(-40, grid.theta_bins + 40) if on_grid else
                     st.floats(-3.0 * grid.theta_bins, 4.0 * grid.theta_bins))
    rho_bin = draw(st.integers(-40, grid.rho_bins + 40) if on_grid else
                   st.floats(-3.0 * grid.rho_bins, 4.0 * grid.rho_bins))
    theta = theta_bin * grid.theta_step
    rho = (rho_bin - grid.rho_offset) * grid.rho_step
    return grid, theta, rho, draw(st.floats(0.05, 200.0))


@settings(max_examples=300, deadline=None)
@given(_shaft_targets())
def test_shaft_render_equals_the_dense_gaussian_bit_for_bit(target):
    grid, theta, rho, sigma = target
    got = render_shaft_gt(grid, theta, rho, sigma)
    want = _dense_shaft_gt(grid, theta, rho, sigma)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("theta,rho", [(math.nan, 0.0), (30.0, math.inf),
                                       (-math.inf, 5.0)])
def test_shaft_render_rejects_a_non_finite_target(theta, rho):
    # NaN once rendered an all-NaN map and inf an all-zero one
    name = "theta" if not math.isfinite(theta) else "rho"
    with pytest.raises(ValidationError, match=f"^{name} must be finite"):
        render_shaft_gt(small_grid(), theta, rho, 2.0)


def test_shaft_render_evaluates_only_the_reach_of_the_target():
    # a sigma-2 peak is exactly 0.0 past 2 * sqrt(1492) ~ 77.3 bins
    grid = HoughGrid(image_h=328, image_w=335)
    img = render_shaft_gt(grid, 90.0, 0.0, sigma=2.0)
    rows, cols = np.nonzero(img)
    assert rows.min() >= 90 - 78 and rows.max() <= 90 + 78
    assert cols.min() >= grid.rho_offset - 78
    assert cols.max() <= grid.rho_offset + 78
    assert img[90 - 77, grid.rho_offset] > 0.0


def test_render_rejects_bad_sigma():
    grid = small_grid()
    with pytest.raises(ValidationError):
        render_shaft_gt(grid, 30.0, 5.0, sigma=0.0)
    with pytest.raises(ValidationError):
        render_tip_gt(grid, 5.0, 5.0, sigma=-1.0)


def test_tip_render_rows_peak_on_the_curve():
    grid = small_grid()
    tip_x, tip_y = 12.0, 8.0
    img = render_tip_gt(grid, tip_x, tip_y, sigma=2.0)
    for i in range(grid.theta_bins):
        theta = math.radians(i * grid.theta_step)
        rho = tip_x * math.cos(theta) + tip_y * math.sin(theta)
        j = int(math.floor(rho / grid.rho_step + 0.5)) + grid.rho_offset
        assert img[i, j] == 1.0
        assert np.argmax(img[i]) == j


def test_tip_render_at_origin_is_constant_center_column():
    grid = small_grid()
    img = render_tip_gt(grid, 0.0, 0.0, sigma=2.0)
    assert np.all(img[:, grid.rho_offset] == 1.0)
    assert np.all(np.argmax(img, axis=1) == grid.rho_offset)


@settings(max_examples=80, deadline=None)
@given(h=st.integers(1, 40), w=st.integers(1, 40),
       theta_step=st.sampled_from([1.0, 2.5, 7.5]),
       rho_step=st.sampled_from([0.3, 0.7, 1.0, 1.5, 2.0, 3.0, 4.5]),
       pixel=st.tuples(st.integers(0, 39), st.integers(0, 39)))
# pixel (0, 3) at rho_step 3 sits at rho 1.5 px, half a bin, at theta 30
# and 150 degrees: a tie that the vote's float expression rounds down
@example(h=64, w=80, theta_step=1.0, rho_step=3.0, pixel=(0, 3))
def test_each_tip_curve_row_peaks_in_the_bin_its_pixel_votes_into(
        h, w, theta_step, rho_step, pixel):
    grid = HoughGrid(h, w, theta_step, rho_step)
    x, y = pixel[0] % w, pixel[1] % h
    feat = np.zeros((h, w))
    feat[y, x] = 1.0
    votes = np.argmax(hough_transform(feat, grid), axis=1)
    peaks = np.argmax(render_tip_gt(grid, float(x), float(y)), axis=1)
    assert np.array_equal(peaks, votes)


def _tip_render_formula(grid, tip_x, tip_y, sigma):
    """Every cell's Gaussian computed on its own, centered on the vote's
    rho bin: floor((cos * (1/step)) x + (sin * (1/step)) y + 0.5)."""
    cos_t, sin_t = grid.theta_trig()
    inv = 1.0 / grid.rho_step
    rho_units = (cos_t * inv) * tip_x + (sin_t * inv) * tip_y
    centers = np.floor(rho_units + 0.5) + grid.rho_offset
    ri = np.arange(grid.rho_bins, dtype=np.float64)
    d2 = (ri[None, :] - centers[:, None]) ** 2
    return np.exp(-d2 / (2.0 * sigma * sigma))


@pytest.mark.parametrize("grid", [small_grid(),
                                  small_grid(40, 33, theta_step=2.5,
                                             rho_step=0.7)],
                         ids=["unit-steps", "coarse-theta-fine-rho"])
@pytest.mark.parametrize("sigma", [0.6, 2.0])
def test_tip_render_slices_equal_the_per_cell_formula(grid, sigma):
    w, h = grid.image_w - 1.0, grid.image_h - 1.0
    tips = [(0.0, 0.0), (w, 0.0), (0.0, h), (w, h),  # the corners
            (12.3, 8.6), (w / 2, h / 2 + 0.5)]
    for x, y in tips:
        got = render_tip_gt(grid, x, y, sigma)
        assert got.shape == grid.shape()
        assert got.tobytes() == _tip_render_formula(grid, x, y, sigma).tobytes()


def test_tip_render_rejects_outside_image():
    grid = small_grid()
    with pytest.raises(ValidationError):
        render_tip_gt(grid, -1.0, 5.0, sigma=2.0)
    with pytest.raises(ValidationError):
        render_tip_gt(grid, 5.0, grid.image_h + 3.0, sigma=2.0)


def test_render_truth_map_bundles_both_channels():
    grid = small_grid()
    hmap = render_truth_map(grid, 30.0, 5.0, 12.0, 8.0)
    assert isinstance(hmap, HoughMap)
    assert hmap.shaft.shape == grid.shape()
    assert hmap.tip.shape == grid.shape()


# --------------------------------------------------------------------------
# Shaft decoding
# --------------------------------------------------------------------------

def test_shaft_from_hough_recovers_rendered_peak():
    grid = small_grid()
    img = render_shaft_gt(grid, 30.0, 5.0, sigma=2.0)
    assert shaft_from_hough(img, grid) == (30.0, 5.0)


def test_shaft_argmax_tie_prefers_smaller_indices():
    grid = small_grid()
    img = np.zeros(grid.shape())
    img[10, grid.rho_offset + 3] = 1.0
    img[20, grid.rho_offset - 4] = 1.0
    assert shaft_from_hough(img, grid) == (10.0, 3.0)
    img2 = np.zeros(grid.shape())
    img2[10, grid.rho_offset - 4] = 1.0
    img2[10, grid.rho_offset + 3] = 1.0
    assert shaft_from_hough(img2, grid) == (10.0, -4.0)


def test_shaft_from_hough_rejects_all_zero():
    grid = small_grid()
    with pytest.raises(NoDetectionError):
        shaft_from_hough(np.zeros(grid.shape()), grid)


def test_shaft_argmax_is_monotone_invariant():
    rng = np.random.default_rng(43)
    grid = small_grid()
    chan = rng.uniform(size=grid.shape())
    base = shaft_from_hough(chan, grid)
    assert shaft_from_hough(np.exp(3.0 * chan), grid) == base
    assert shaft_from_hough(chan ** 3 + 0.2, grid) == base


# --------------------------------------------------------------------------
# Inverse transform
# --------------------------------------------------------------------------

def test_inverse_accumulate_empty_is_zero():
    grid = small_grid()
    img = inverse_hough_accumulate([], grid)
    assert np.array_equal(img, np.zeros((grid.image_h, grid.image_w)))


def test_inverse_accumulate_is_linear_in_weights():
    grid = small_grid()
    cell = (45, grid.rho_offset + 10)
    one = inverse_hough_accumulate([(cell[0], cell[1], 1.0)], grid)
    two = inverse_hough_accumulate([(cell[0], cell[1], 2.0)], grid)
    assert np.array_equal(two, 2.0 * one)


def test_inverse_accumulate_crossing_lines_peak_at_crossing():
    grid = small_grid(h=40, w=50)
    # theta=0 is the vertical line x=rho; theta=90 the horizontal y=rho.
    cells = [(0, grid.rho_offset + 33, 1.0), (90, grid.rho_offset + 21, 1.0)]
    img = inverse_hough_accumulate(cells, grid)
    peak = np.unravel_index(np.argmax(img), img.shape)
    assert img[peak] == 2.0
    assert peak == (21, 33)  # (y, x)
    assert np.count_nonzero(img == 2.0) == 1


def test_inverse_accumulate_rejects_bad_cell():
    grid = small_grid()
    with pytest.raises(ValidationError):
        inverse_hough_accumulate([(grid.theta_bins, 0, 1.0)], grid)


def test_delta_pixel_round_trip():
    # A single bright pixel becomes a sinusoid of cells; rasterizing the
    # per-theta argmax cells back must concentrate at the pixel.
    grid = small_grid(h=32, w=32)
    feat = np.zeros((32, 32))
    px, py = 20, 11
    feat[py, px] = 1.0
    acc = hough_transform(feat, grid)
    cells = [(i, int(np.argmax(acc[i])), 1.0) for i in range(grid.theta_bins)]
    img = inverse_hough_accumulate(cells, grid)
    by, bx = np.unravel_index(np.argmax(img), img.shape)
    assert math.hypot(bx - px, by - py) <= 1.0


# --------------------------------------------------------------------------
# Tip decoding
# --------------------------------------------------------------------------

def test_tip_round_trip_through_rendered_curve():
    grid = small_grid(h=96, w=120)
    tip = (72.0, 40.0)
    chan = render_tip_gt(grid, tip[0], tip[1], sigma=2.0)
    got = tip_from_hough(chan, grid, top_p=1.0)
    assert math.hypot(got[0] - tip[0], got[1] - tip[1]) <= 1.5


def test_tip_single_cell_argmax_lies_on_its_line():
    grid = small_grid(h=40, w=40)
    chan = np.zeros(grid.shape())
    ti, ri = 30, grid.rho_offset + 12
    chan[ti, ri] = 1.0
    x, y = tip_from_hough(chan, grid, top_p=0.01)
    theta = math.radians(ti * grid.theta_step)
    rho = ri - grid.rho_offset
    assert abs(x * math.cos(theta) + y * math.sin(theta) - rho) <= 0.5 + 1e-9


def test_tip_uniform_channel_hits_deterministic_tie_break():
    grid = small_grid(h=20, w=20)
    chan = np.full(grid.shape(), 0.5)
    first = tip_from_hough(chan, grid, top_p=1.0)
    second = tip_from_hough(chan, grid, top_p=1.0)
    assert first == second


@pytest.mark.parametrize("decode", [shaft_from_hough, tip_from_hough])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decoders_reject_a_non_finite_channel(decode, bad):
    # np.argmax takes the first NaN: an all-NaN shaft channel on a 4x4
    # grid once decoded to (0.0, -6.0)
    name = "shaft" if decode is shaft_from_hough else "tip"
    for grid in (small_grid(), small_grid(4, 4)):
        chan = np.zeros(grid.shape())
        chan[3, 4] = bad
        chan[1, 2] = bad
        with pytest.raises(ValidationError,
                           match=rf"^{name} channel has 2 non-finite value\(s\)$"):
            decode(chan, grid)
        with pytest.raises(ValidationError, match=rf"has {chan.size} non-finite"):
            decode(np.full(grid.shape(), bad), grid)


def test_tip_from_hough_validation():
    grid = small_grid()
    with pytest.raises(NoDetectionError):
        tip_from_hough(np.zeros(grid.shape()), grid)
    with pytest.raises(ValidationError):
        tip_from_hough(np.ones(grid.shape()), grid, top_p=0.0)
    with pytest.raises(ValidationError):
        tip_from_hough(np.ones(grid.shape()), grid, top_p=101.0)
    with pytest.raises(ValidationError):
        tip_from_hough(np.ones((3, 3)), grid)


def test_hough_map_rejects_mismatched_channels():
    with pytest.raises(ValidationError):
        HoughMap(shaft=np.zeros((4, 5)), tip=np.zeros((4, 6)))

"""Focal loss, its analytic gradient, and the hybrid combination."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vibeline import (
    HoughGrid,
    HoughMap,
    LossParams,
    ValidationError,
    focal_loss,
    focal_loss_grad,
    hybrid_loss,
    render_shaft_gt,
)
from vibeline.scoring import POSITIVE_CUTOFF


# --------------------------------------------------------------------------
# Closed forms
# --------------------------------------------------------------------------

def test_positive_cell_closed_form():
    # One cell, label 1, prediction 0.5, alpha 2:
    # loss = -(1 - 0.5)^2 * ln(0.5) = 0.25 * ln 2.
    loss = focal_loss(np.array([[0.5]]), np.array([[1.0]]),
                      LossParams(alpha=2.0))
    assert abs(loss - 0.25 * math.log(2.0)) <= 1e-9


def test_negative_cell_closed_form():
    # One cell, label 0, prediction 0.5, alpha 2, beta 4:
    # loss = -(1 - 0)^4 * 0.5^2 * ln(1 - 0.5) = 0.25 * ln 2.
    loss = focal_loss(np.array([[0.5]]), np.array([[0.0]]),
                      LossParams(alpha=2.0, beta=4.0))
    assert abs(loss - 0.25 * math.log(2.0)) <= 1e-9


def test_alpha_zero_reduces_to_binary_cross_entropy():
    rng = np.random.default_rng(47)
    pred = rng.uniform(0.05, 0.95, size=(16, 16))
    gt = (rng.uniform(size=(16, 16)) > 0.5).astype(np.float64)
    params = LossParams(alpha=0.0, beta=0.0)
    got = focal_loss(pred, gt, params)
    bce = -np.mean(gt * np.log(pred) + (1.0 - gt) * np.log1p(-pred))
    assert abs(got - bce) <= 1e-10


def test_loss_is_non_negative_and_near_zero_on_perfect_prediction():
    gt = np.zeros((8, 8))
    gt[3, 4] = 1.0
    pred = gt.copy()
    loss = focal_loss(pred, gt)
    assert loss >= 0.0
    assert loss <= 1e-10  # only clamp slack remains
    rng = np.random.default_rng(53)
    sloppy = np.clip(pred + rng.uniform(-0.3, 0.3, size=pred.shape), 0, 1)
    assert focal_loss(sloppy, gt) > loss


def test_mean_normalization_over_cells():
    # Same single-cell content padded with perfect zeros: the loss scales
    # as 1 / cell count.
    params = LossParams(alpha=2.0, beta=4.0, clamp_eps=1e-12)
    one = focal_loss(np.array([[0.5]]), np.array([[1.0]]), params)
    padded_pred = np.zeros((1, 10))
    padded_pred[0, 0] = 0.5
    padded_gt = np.zeros((1, 10))
    padded_gt[0, 0] = 1.0
    ten = focal_loss(padded_pred, padded_gt, params)
    assert abs(ten - one / 10.0) <= 1e-9


# --------------------------------------------------------------------------
# Gradient vs central finite differences of the shipped loss
# --------------------------------------------------------------------------

FD_STEP = 1e-4


def fd_probe(pred, gt, params, y, x):
    """Central finite difference of focal_loss at one cell."""
    hi = pred.copy()
    lo = pred.copy()
    hi[y, x] += FD_STEP
    lo[y, x] -= FD_STEP
    return (focal_loss(hi, gt, params) - focal_loss(lo, gt, params)) / (2 * FD_STEP)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(59)
    params = LossParams()
    worst = 0.0
    for _ in range(5):
        pred = rng.uniform(size=(32, 32))
        gt = rng.uniform(size=(32, 32))
        gt[rng.uniform(size=gt.shape) < 0.02] = 1.0  # exercise both branches
        grad = focal_loss_grad(pred, gt, params)
        # Probe cells where the difference quotient itself is trustworthy:
        # near 0 and 1 the per-cell term's curvature explodes and central
        # differences with a fixed step lose more than the 1e-4 we assert.
        ys, xs = np.where((pred >= 0.01) & (pred <= 0.99))
        pick = rng.choice(ys.size, size=40, replace=False)
        for y, x in zip(ys[pick], xs[pick]):
            fd = fd_probe(pred, gt, params, y, x)
            rel = abs(grad[y, x] - fd) / max(abs(grad[y, x]), abs(fd), 1e-8)
            worst = max(worst, rel)
    assert worst <= 1e-4


def test_gradient_closed_form_cell():
    # Label 1, prediction 0.5, alpha 2, one cell:
    # d/dp [-(1-p)^2 ln p] = 2(1-p) ln p + (1-p)^2 * (-1/p)... checked
    # against the finite-difference probe rather than quoted by hand.
    pred = np.array([[0.5]])
    gt = np.array([[1.0]])
    params = LossParams(alpha=2.0)
    grad = focal_loss_grad(pred, gt, params)[0, 0]
    fd = fd_probe(pred, gt, params, 0, 0)
    assert abs(grad - fd) / max(abs(fd), 1e-8) <= 1e-6


def test_gradient_is_zero_and_finite_on_clamped_cells():
    pred = np.array([[0.0, 1.0], [0.5, 1.0]])
    gt = np.array([[0.0, 1.0], [1.0, 0.0]])
    grad = focal_loss_grad(pred, gt)
    assert np.all(np.isfinite(grad))
    assert grad[0, 0] == 0.0 and grad[0, 1] == 0.0 and grad[1, 1] == 0.0
    assert grad[1, 0] != 0.0
    assert np.isfinite(focal_loss(pred, gt))


# --------------------------------------------------------------------------
# Equal bit for bit to the dense formulas
# --------------------------------------------------------------------------

def _dense_loss(pred, gt, params):
    """Both branches on every cell, then pick, as focal_loss once did."""
    p = np.clip(pred, params.clamp_eps, 1.0 - params.clamp_eps)
    term = np.where(
        gt >= POSITIVE_CUTOFF,
        (1.0 - p) ** params.alpha * np.log(p),
        (1.0 - gt) ** params.beta * p ** params.alpha * np.log1p(-p),
    )
    return float(-term.sum() / pred.size)


def _dense_grad(pred, gt, params):
    """Both gradient branches on every cell, clamped cells zeroed after."""
    p = np.clip(pred, params.clamp_eps, 1.0 - params.clamp_eps)
    a = params.alpha
    one_m_p = 1.0 - p
    grad_pos = a * one_m_p ** (a - 1.0) * np.log(p) - one_m_p ** a / p
    grad_neg = -((1.0 - gt) ** params.beta) * (
        a * p ** (a - 1.0) * np.log1p(-p) - p ** a / one_m_p
    )
    grad = np.where(gt >= POSITIVE_CUTOFF, grad_pos, grad_neg) / pred.size
    clamped = ((pred < params.clamp_eps)
               | (pred > 1.0 - params.clamp_eps))
    grad[clamped] = 0.0
    return grad


def _special_values(eps):
    """Exact 0 and 1, the clamp bounds and both sides of them, the positive
    cutoff, and both sides of the least Y whose 1 - Y rounds below 1.0
    (the next double above 2**-54)."""
    return [0.0, 1.0, eps, eps / 2.0, np.nextafter(eps, 0.0),
            np.nextafter(eps, 1.0), 1.0 - eps, np.nextafter(1.0 - eps, 1.0),
            5e-324, 1e-300, 2.0 ** -55, 2.0 ** -54,
            np.nextafter(2.0 ** -54, 1.0), 2.0 ** -53,
            POSITIVE_CUTOFF, np.nextafter(POSITIVE_CUTOFF, 0.0)]


@st.composite
def _loss_cases(draw):
    params = LossParams(alpha=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
                        beta=draw(st.sampled_from([0.0, 4.0])),
                        clamp_eps=draw(st.one_of(
                            st.sampled_from([1e-300, 1e-12, 1e-6, 0.49]),
                            st.floats(1e-9, 0.49))))
    eps = params.clamp_eps
    shape = draw(st.tuples(st.integers(1, 9), st.integers(1, 13)))
    mode = draw(st.sampled_from(["mixed", "background", "active"]))
    if mode == "background":  # gt 0 and pred at or below the lower clamp
        gt = np.zeros(shape)
        value = st.sampled_from([0.0, eps, eps / 2.0, 5e-324])
        pred = draw(arrays(np.float64, shape, elements=value))
    elif mode == "active":  # no cell is background
        gt = draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
        value = st.floats(np.nextafter(eps, 1.0), 1.0)
        pred = draw(arrays(np.float64, shape, elements=value))
    else:
        value = st.one_of(st.sampled_from(_special_values(eps)),
                          st.floats(0.0, 1.0))
        pred = draw(arrays(np.float64, shape, elements=value))
        gt = draw(arrays(np.float64, shape, elements=value))
    return pred, gt, params


@settings(max_examples=400, deadline=None)
@given(_loss_cases())
def test_loss_and_gradient_equal_the_dense_formulas_bit_for_bit(case):
    pred, gt, params = case
    with np.errstate(all="ignore"):  # the dense branches meet log(0)
        want_loss = _dense_loss(pred, gt, params)
        want_grad = _dense_grad(pred, gt, params)
        got_loss = focal_loss(pred, gt, params)
        got_grad = focal_loss_grad(pred, gt, params)
    assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
    assert got_grad.shape == want_grad.shape
    assert got_grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("y", [2.0 ** -55, 2.0 ** -54,
                               np.nextafter(2.0 ** -54, 1.0), 2.0 ** -53])
def test_one_cell_at_the_edge_where_one_minus_y_rounds_to_one(y):
    # a one-cell map, so no sum rounds a last-bit difference away: past
    # the edge (1 - Y)^beta < 1.0 and the term leaves the background's
    pred, gt, zero = np.array([[1e-7]]), np.array([[y]]), np.zeros((1, 1))
    got = focal_loss(pred, gt)
    assert got == _dense_loss(pred, gt, LossParams())
    assert (got != focal_loss(pred, zero)) == (1.0 - y != 1.0)


@pytest.mark.parametrize("sigma", [2.0, 40.0])
def test_rendered_maps_equal_the_dense_formulas_bit_for_bit(sigma):
    # the benchmark's pairs: rendered peaks, mostly background at sigma 2
    # and none at sigma 40, against a jittered or a random prediction
    grid = HoughGrid(image_h=64, image_w=64)
    gt = render_shaft_gt(grid, 30.0, 5.0, sigma)
    rng = np.random.default_rng(79)
    for pred in (render_shaft_gt(grid, 31.3, 3.2, sigma),
                 rng.uniform(size=gt.shape)):
        assert focal_loss(pred, gt) == _dense_loss(pred, gt, LossParams())
        assert (focal_loss_grad(pred, gt).tobytes()
                == _dense_grad(pred, gt, LossParams()).tobytes())


# --------------------------------------------------------------------------
# Hybrid loss
# --------------------------------------------------------------------------

def _random_maps(seed):
    rng = np.random.default_rng(seed)
    pred = HoughMap(shaft=rng.uniform(size=(12, 17)),
                    tip=rng.uniform(size=(12, 17)))
    gt = HoughMap(shaft=rng.uniform(size=(12, 17)),
                  tip=rng.uniform(size=(12, 17)))
    return pred, gt


def test_hybrid_extremes_select_single_channels():
    pred, gt = _random_maps(61)
    shaft_only = hybrid_loss(pred, gt, LossParams(gamma=1.0))
    tip_only = hybrid_loss(pred, gt, LossParams(gamma=0.0))
    assert shaft_only == pytest.approx(focal_loss(pred.shaft, gt.shaft))
    assert tip_only == pytest.approx(focal_loss(pred.tip, gt.tip))


def test_hybrid_is_linear_mix():
    pred, gt = _random_maps(67)
    params = LossParams(gamma=0.95)
    want = (0.95 * focal_loss(pred.shaft, gt.shaft)
            + 0.05 * focal_loss(pred.tip, gt.tip))
    assert hybrid_loss(pred, gt, params) == pytest.approx(want, rel=1e-12)


def test_hybrid_equal_channels_returns_common_value():
    rng = np.random.default_rng(71)
    chan_pred = rng.uniform(size=(9, 9))
    chan_gt = rng.uniform(size=(9, 9))
    pred = HoughMap(shaft=chan_pred, tip=chan_pred.copy())
    gt = HoughMap(shaft=chan_gt, tip=chan_gt.copy())
    common = focal_loss(chan_pred, chan_gt)
    assert hybrid_loss(pred, gt, LossParams(gamma=0.95)) == pytest.approx(common)


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

def test_loss_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        focal_loss(np.zeros((3, 3)), np.zeros((3, 4)))
    with pytest.raises(ValidationError):
        focal_loss(np.full((3, 3), 1.5), np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        focal_loss(np.zeros((3, 3)), np.full((3, 3), -0.1))
    with pytest.raises(ValidationError):
        focal_loss(np.full((3, 3), np.nan), np.zeros((3, 3)))


def _poked(value, at=(1, 2), fill=0.5):
    arr = np.full((3, 3), fill)
    arr[at] = value
    return arr


_BAD_PAIRS = {
    "shape": (np.zeros((3, 3)), np.zeros((3, 4)),
              r"shape mismatch: \(3, 3\) vs \(3, 4\)"),
    "pred-empty": (np.zeros((0, 3)), np.zeros((0, 3)), "pred is empty"),
    "pred-nan": (_poked(np.nan), np.zeros((3, 3)), "pred contains non-finite"),
    "pred-inf": (_poked(np.inf), np.zeros((3, 3)), "pred contains non-finite"),
    "pred-neg-inf": (_poked(-np.inf), np.zeros((3, 3)),
                     "pred contains non-finite"),
    "gt-nan": (np.zeros((3, 3)), _poked(np.nan), "gt contains non-finite"),
    "gt-inf": (np.zeros((3, 3)), _poked(np.inf), "gt contains non-finite"),
    "gt-neg-inf": (np.zeros((3, 3)), _poked(-np.inf), "gt contains non-finite"),
    # NaN beside an out-of-range value still names the NaN
    "pred-nan-and-high": (_poked(np.nan, fill=1.5), np.zeros((3, 3)),
                          "pred contains non-finite"),
    "pred-low-and-inf": (_poked(np.inf, fill=-0.5), np.zeros((3, 3)),
                         "pred contains non-finite"),
    "pred-high": (_poked(1.5), np.zeros((3, 3)), r"pred values must lie in"),
    "pred-low": (_poked(-1e-300), np.zeros((3, 3)), r"pred values must lie in"),
    "gt-high": (np.zeros((3, 3)), _poked(np.nextafter(1.0, 2.0)),
                r"gt values must lie in \[0, 1\]$"),
    "gt-low": (np.zeros((3, 3)), np.full((3, 3), -0.1),
               r"gt values must lie in \[0, 1\]$"),
}


@pytest.mark.parametrize("fn", [focal_loss, focal_loss_grad])
@pytest.mark.parametrize("pred,gt,message", _BAD_PAIRS.values(),
                         ids=_BAD_PAIRS.keys())
def test_loss_names_each_bad_input(fn, pred, gt, message):
    with pytest.raises(ValidationError, match=message):
        fn(pred, gt)


def test_loss_params_validation():
    with pytest.raises(ValidationError):
        LossParams(alpha=-1.0)
    with pytest.raises(ValidationError):
        LossParams(gamma=1.5)
    with pytest.raises(ValidationError):
        LossParams(clamp_eps=0.6)

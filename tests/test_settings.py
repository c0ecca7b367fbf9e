"""The one settings rule: type, finiteness and range, checked where a
value enters, for every numeric field of every settings class."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vibeline import (DetectConfig, HoughGrid, LossParams, ValidationError,
                      detect_with_timing, focal_loss_grad, hough_transform,
                      hybrid_loss, render_truth_map, synth_sequence)
from vibeline.errors import _check_setting
from vibeline.pipeline import _hough_channels

from helpers import small_vibrating_spec

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("value, kwargs", [
    (1, dict(lo=1, lo_closed=True, integer=True)),
    (np.int64(3), dict(lo=1, lo_closed=True, integer=True)),
    (0.5, dict(lo=0)),
    (np.float32(0.5), dict(lo=0)),
    (0, dict(lo=0, lo_closed=True)),
    (180, dict(lo=0, hi=180, hi_closed=True)),
    (-1e300, {}),
    (10 ** 400, dict(integer=True)),
])
def test_rule_accepts_a_real_number_in_range(value, kwargs):
    _check_setting("x", value, **kwargs)


@pytest.mark.parametrize("value, kwargs", [
    (NAN, {}), (INF, {}), (-INF, {}),
    (NAN, dict(lo=0)), (INF, dict(lo=0)), (0, dict(lo=0)),
    (0.0, dict(lo=0, hi=1)), (1.0, dict(lo=0, hi=1)),
    (180.5, dict(lo=0, hi=180, hi_closed=True)),
    (0, dict(lo=1, lo_closed=True, integer=True)),
    (2.5, dict(integer=True)), (3.0, dict(integer=True)),
    (NAN, dict(integer=True)),
    (True, {}), (False, dict(lo=0, lo_closed=True)),
    (np.True_, {}), ("2.5", {}), ("3", dict(integer=True)),
    (None, {}), ([1.0], {}), (1 + 0j, {}),
    # an int past the float range compares below inf, then overflows
    (10 ** 400, {}), (-10 ** 400, dict(lo=0)),
    # one past the int-to-str digit limit, which once broke the message
    pytest.param(10 ** 5000, dict(hi=5, integer=True), id="10**5000-hi5"),
    pytest.param(10 ** 5000, {}, id="10**5000"),
])
def test_rule_rejects_a_wrong_type_a_non_finite_or_out_of_range_value(
        value, kwargs):
    with pytest.raises(ValidationError, match=r"^x must be "):
        _check_setting("x", value, **kwargs)


@pytest.mark.parametrize("value, kwargs, text", [
    (0, dict(lo=1, lo_closed=True, integer=True),
     "hop must be >= 1 and an integer, got 0"),
    (INF, dict(lo=0), "hop must be > 0 and finite, got inf"),
    (NAN, {}, "hop must be finite, got nan"),
    (NAN, dict(lo=0, hi=180, hi_closed=True), "hop must be > 0 and <= 180, got nan"),
    (2.5, dict(integer=True), "hop must be an integer, got 2.5"),
    ("2.5", dict(lo=0, lo_closed=True), "hop must be >= 0 and finite, got '2.5'"),
    pytest.param(10 ** 5000, dict(hi=5, integer=True),
                 "hop must be < 5 and an integer, got a value too long to "
                 "print (int)", id="10**5000"),
])
def test_rule_message_names_the_setting_its_range_and_the_value(value, kwargs,
                                                                text):
    with pytest.raises(ValidationError) as info:
        _check_setting("hop", value, **kwargs)
    assert str(info.value) == text


def test_rule_message_can_be_replaced():
    with pytest.raises(ValidationError, match="^frames too small$"):
        _check_setting("h", 0, 1, lo_closed=True, message="frames too small")


# Values a flag, a JSON config or a library call can hand a setting:
# non-finite, zero, negative, bool, str, None, and fractional values
# for the integer fields.
BAD = st.sampled_from([NAN, INF, -INF, 0, 0.0, -1, -2.5, True, False,
                       "2.5", "3", None])
FRACTION = st.floats(-1e3, 1e3).filter(lambda v: not v.is_integer())


def _values(sane, integer=False):
    extra = [FRACTION] if integer else []
    return st.one_of(BAD, sane, *extra)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


DETECT_FIELDS = {
    "vib_freq": _values(_floats(0.5, 20.0)),
    "window_len": _values(st.integers(-2, 14), integer=True),
    "hop": _values(st.integers(-1, 4), integer=True),
    "theta_step": _values(st.sampled_from([0.5, 1.0, 7.5, 90.0, 180.0, 200.0])),
    "rho_step": _values(_floats(0.25, 8.0)),
    "profile_threshold": _values(_floats(-0.5, 1.5)),
    "profile_smooth": _values(st.integers(-1, 12), integer=True),
    "confidence_min": _values(_floats(-10.0, 1e6)),
    "tip_sigma": _values(_floats(0.25, 10.0)),
}
PHANTOM_FIELDS = {
    "height": _values(st.integers(8, 48), integer=True),
    "width": _values(st.integers(8, 48), integer=True),
    "frame_count": _values(st.integers(-1, 12), integer=True),
    "fps": _values(_floats(1.0, 60.0)),
    "pixel_spacing": _values(_floats(0.01, 1.0)),
    "needle_angle": _values(_floats(-10.0, 200.0)),
    "needle_length": _values(_floats(1.0, 60.0)),
    "vib_freq": _values(_floats(0.5, 20.0)),
    "vib_amplitude": _values(_floats(0.0, 3.0)),
    "motion_sigma": _values(_floats(0.25, 5.0)),
    "visibility": _values(_floats(-0.5, 1.5)),
    "artifact_count": _values(st.integers(-1, 2), integer=True),
    "speckle_grain": _values(_floats(0.5, 4.0)),
    "seed": _values(st.integers(-2, 2 ** 40), integer=True),
}
LOSS_FIELDS = {
    "alpha": _values(_floats(0.0, 6.0)),
    "beta": _values(_floats(0.0, 6.0)),
    "gamma": _values(_floats(-0.5, 1.5)),
    "clamp_eps": _values(_floats(1e-9, 0.6)),
}
GRID_FIELDS = {
    "image_h": _values(st.integers(-1, 24), integer=True),
    "image_w": _values(st.integers(-1, 24), integer=True),
    "theta_step": _values(st.sampled_from([0.5, 1.0, 7.5, 90.0, 180.0, 200.0])),
    "rho_step": _values(_floats(0.25, 8.0)),
}


def test_the_property_draws_cover_every_numeric_field():
    numeric = {"DetectConfig": (DetectConfig, DETECT_FIELDS),
               "LossParams": (LossParams, LOSS_FIELDS),
               "HoughGrid": (HoughGrid, GRID_FIELDS)}
    for cls, drawn in numeric.values():
        names = {f.name for f in fields(cls) if f.init} - {"entry_side"}
        assert names == set(drawn), cls
    spec_names = {f.name for f in fields(small_vibrating_spec())}
    assert spec_names - set(PHANTOM_FIELDS) == {"entry_side", "needle_entry"}


def _one_field(table):
    return st.sampled_from(sorted(table)).flatmap(
        lambda name: st.tuples(st.just(name), table[name]))


FRAMES = 0.5 + 0.2 * np.random.default_rng(5).standard_normal((12, 16, 16))
PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _accepted(build):
    """build() unless it raises ValidationError; other errors propagate."""
    try:
        return build()
    except ValidationError:
        return None


@PROPERTY
@given(_one_field(DETECT_FIELDS))
def test_detect_config_value_is_rejected_or_detects_cleanly(draw):
    name, value = draw
    cfg = _accepted(lambda: DetectConfig(**{name: value}))
    if cfg is None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # the cross-field rules (Nyquist, window against frames) may
        # still reject the run, by the same error type
        run = _accepted(lambda: detect_with_timing(FRAMES, 30.0, cfg))
        if run is not None and run[0].tip_x is not None:
            det, _, values, grid = run
            _hough_channels(det, grid, hough_transform(values, grid), cfg,
                            None)


@PROPERTY
@given(_one_field(PHANTOM_FIELDS))
def test_phantom_spec_value_is_rejected_or_synthesizes_cleanly(draw):
    name, value = draw
    small = dict(height=32, width=40, frame_count=6,
                 needle_entry=(0.0, 20.0), needle_length=20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        spec = _accepted(
            lambda: replace(small_vibrating_spec(), **{**small, name: value}))
        out = None if spec is None else _accepted(lambda: synth_sequence(spec))
    if out is not None:
        seq, _ = out
        assert seq.frames.shape == (spec.frame_count, spec.height, spec.width)


@PROPERTY
@given(_one_field(LOSS_FIELDS))
def test_loss_params_value_is_rejected_or_scores_cleanly(draw):
    name, value = draw
    params = _accepted(lambda: LossParams(**{name: value}))
    if params is None:
        return
    grid = HoughGrid(image_h=16, image_w=16, theta_step=15.0)
    truth = render_truth_map(grid, 30.0, 5.0, 8.0, 8.0)
    pred = render_truth_map(grid, 45.0, 7.0, 6.0, 9.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert math.isfinite(hybrid_loss(pred, truth, params))
        assert np.isfinite(focal_loss_grad(pred.shaft, truth.shaft, params)).all()


@PROPERTY
@given(_one_field(GRID_FIELDS))
def test_hough_grid_value_is_rejected_or_votes_cleanly(draw):
    name, value = draw
    grid = _accepted(lambda: HoughGrid(**{"image_h": 12, "image_w": 10,
                                          name: value}))
    if grid is None:
        return
    feature = np.random.default_rng(1).uniform(
        size=(grid.image_h, grid.image_w))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        votes = hough_transform(feature, grid)
    # vote conservation: every theta row holds the whole feature mass
    assert np.allclose(votes.sum(axis=1), feature.sum())

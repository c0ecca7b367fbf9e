"""Synthetic speckle phantoms: determinism, motion model, ground truth."""

import hashlib
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import small_vibrating_spec
from vibeline import (
    GroundTruth,
    PhantomSpec,
    ValidationError,
    ground_truth_of,
    load_ground_truth,
    preset,
    save_ground_truth,
    save_sequence,
    synth_sequence,
    warp_bilinear,
)
from vibeline import phantom
from vibeline.core import _bilinear_clamped
from vibeline.phantom import needle_geometry


# --------------------------------------------------------------------------
# Presets and validation
# --------------------------------------------------------------------------

def test_named_presets():
    p = preset("fullsize")
    assert (p.height, p.width, p.frame_count) == (328, 335, 30)
    assert p.fps == 30.0 and p.vib_freq == 2.5
    assert preset("bin-aligned").vib_freq == 3.0
    with pytest.raises(ValidationError):
        preset("nope")


def test_spec_validation_rejects_bad_geometry():
    with pytest.raises(ValidationError):  # entry not on the left border
        synth_sequence(small_vibrating_spec(needle_entry=(5.0, 100.0)))
    with pytest.raises(ValidationError,  # on the left border, below the image
                       match=r"^needle_entry \(0\.0, 400\.0\) outside image$"):
        PhantomSpec(needle_entry=(0.0, 400.0))
    with pytest.raises(ValidationError):  # tip would leave the image
        synth_sequence(small_vibrating_spec(needle_length=400.0))
    with pytest.raises(ValidationError):  # vibration above Nyquist
        synth_sequence(small_vibrating_spec(vib_freq=20.0))
    with pytest.raises(ValidationError):  # line parallel to its own border
        synth_sequence(small_vibrating_spec(
            needle_angle=90.0, needle_entry=(50.0, 0.0), entry_side="top"))
    with pytest.raises(ValidationError):
        synth_sequence(small_vibrating_spec(visibility=1.5))
    with pytest.raises(ValidationError):
        synth_sequence(small_vibrating_spec(speckle_grain=0.5))
    with pytest.raises(ValidationError):
        synth_sequence(small_vibrating_spec(entry_side="diagonal"))


@pytest.mark.parametrize("extra", [1, 10 ** 15])
def test_a_frame_stack_past_the_byte_limit_is_rejected_before_synthesis(
        monkeypatch, extra):
    # unbounded, a huge frame_count built an N-element amplitude list and
    # then an N x H x W stack; the check runs before the speckle is drawn
    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesis started")

    monkeypatch.setattr(phantom, "_speckle_from_rng", no_synthesis)
    spec = preset("fullsize")
    most = phantom._MAX_STACK_BYTES // (spec.height * spec.width)
    assert most * spec.height * spec.width <= 2 ** 30 and most > 30
    replace(spec, frame_count=most)  # valid: building it checks it
    with pytest.raises(ValidationError) as info:
        synth_sequence(replace(spec, frame_count=most + extra))
    assert str(info.value) == (
        f"frame_count must be <= {most} on a 328x335 image (a uint8 stack "
        f"of at most 1073741824 bytes), got {most + extra}")


@pytest.mark.parametrize("entry", [(0.0,), (0.0, 280.0, 5.0)])
def test_a_needle_entry_of_other_than_two_numbers_is_rejected(entry):
    with pytest.raises(ValidationError, match="needle_entry must be"):
        synth_sequence(PhantomSpec(needle_entry=entry))


# 32x32, valid but for the one field each case names
_SMALL = dict(height=32, width=32, frame_count=6, needle_entry=(0.0, 20.0),
              needle_length=20.0)


@pytest.mark.parametrize("field, value", [("needle_entry", (0.0, math.nan)),
                                          ("motion_sigma", -1.0)])
def test_synthesis_validates_its_spec(field, value):
    with pytest.raises(ValidationError, match=field):
        synth_sequence(PhantomSpec(**{**_SMALL, field: value}))


def test_a_list_entry_is_stored_as_a_tuple():
    # a list entry made the frozen spec unhashable
    spec = PhantomSpec(needle_entry=[0.0, 280.0])
    assert spec == PhantomSpec() and spec.needle_entry == (0.0, 280.0)
    assert hash(spec) == hash(PhantomSpec())


def test_a_spec_is_checked_when_built():
    # needle_geometry returned a NaN direction, tip and normal for the one,
    # and the off-image tip (-2.5, 284.3) for the other
    with pytest.raises(ValidationError, match="needle_angle"):
        PhantomSpec(needle_angle=math.nan)
    with pytest.raises(ValidationError, match="needle_length"):
        replace(PhantomSpec(), needle_length=-5.0)


def test_ground_truth_of_validates_its_spec():
    # an unchecked length of -5 put the tip at (-2.5, 284.3), off the image
    with pytest.raises(ValidationError, match="needle_length"):
        ground_truth_of(PhantomSpec(needle_length=-5.0))


# 16x16, a horizontal needle from (0, 8) to (10, 8)
_TINY_GEN = ["gen", "--height", "16", "--width", "16", "--frames", "2",
             "--angle-deg", "90", "--entry-x", "0", "--entry-y", "8",
             "--length", "10"]


def test_speckle_grain_is_bounded_by_the_image_side(tmp_path, capsys):
    from vibeline import cli

    over = repr(float(np.nextafter(16.0, np.inf)))
    out = tmp_path / "over.vibseq"
    assert cli.main(_TINY_GEN + ["--grain", over, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "speckle_grain must be >= 1 and <= 16" in err and over in err
    assert not out.exists()
    tiny = PhantomSpec(height=16, width=16, frame_count=2, needle_angle=90.0,
                       needle_entry=(0.0, 8.0), needle_length=10.0)
    with pytest.raises(ValidationError,
                       match=r"^speckle_grain must be >= 1 and <= 16"):
        synth_sequence(replace(tiny, speckle_grain=float(over)))
    out = tmp_path / "bound.vibseq"
    assert cli.main(_TINY_GEN + ["--grain", "16", "--out", str(out)]) == 0
    assert out.exists()
    seq, _ = synth_sequence(replace(tiny, speckle_grain=16.0))
    assert seq.frames.shape == (2, 16, 16)


# --------------------------------------------------------------------------
# Speckle texture
# --------------------------------------------------------------------------

def _speckle(h, w, grain, seed):
    """The texture synth_sequence draws first from a fresh seeded RNG."""
    return phantom._speckle_from_rng(np.random.default_rng(seed), h, w, grain)


def test_speckle_is_deterministic_per_seed():
    a = _speckle(64, 64, 2.0, seed=5)
    b = _speckle(64, 64, 2.0, seed=5)
    assert np.array_equal(a, b)
    # with nothing moving, lit or overlaid, every frame is the speckle
    spec = small_vibrating_spec(vib_amplitude=0.0, visibility=0.0, seed=5,
                                speckle_grain=2.0)
    seq, _ = synth_sequence(spec)
    tex = _speckle(spec.height, spec.width, 2.0, seed=5)
    assert np.array_equal(seq.frames[0], np.rint(tex * 255.0))
    assert np.all(seq.frames == seq.frames[0])


def test_speckle_seeds_differ():
    a = _speckle(64, 64, 2.0, seed=5)
    b = _speckle(64, 64, 2.0, seed=6)
    assert np.mean(a != b) >= 0.01


def test_speckle_range_and_mean():
    tex = _speckle(96, 80, 1.5, seed=7)
    assert tex.min() >= 0.0 and tex.max() <= 1.0
    assert 0.3 <= tex.mean() <= 0.7


@settings(max_examples=200, deadline=None)
@given(h=st.integers(16, 80), w=st.integers(16, 80),
       sigma=st.one_of(st.floats(1.0, 20.0), st.integers(1, 20)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_speckle_blur_equals_scipys_gaussian_filter_bit_for_bit(h, w, sigma,
                                                                seed):
    # past sigma 4 the radius int(4 sigma + 0.5) can exceed a 16-px side,
    # so the reflection wraps with period 2n
    gaussian_filter = pytest.importorskip("scipy.ndimage").gaussian_filter
    x = np.random.default_rng(seed).standard_normal((h, w))
    want = gaussian_filter(x, sigma, mode="reflect")
    assert phantom._gaussian_blur(x, sigma).tobytes() == want.tobytes()


def test_speckle_grain_controls_autocorrelation_length():
    def lag_corr(tex, lag):
        a = tex[:, :-lag].ravel() - tex.mean()
        b = tex[:, lag:].ravel() - tex.mean()
        return float(a @ b / math.sqrt((a @ a) * (b @ b)))

    fine = _speckle(128, 128, 1.0, seed=11)
    coarse = _speckle(128, 128, 8.0, seed=11)
    assert lag_corr(coarse, 4) > lag_corr(fine, 4)


# --------------------------------------------------------------------------
# Displacement field
# --------------------------------------------------------------------------

# Horizontal needle (angle 90: normal points down the rows) entering at
# (0, 60), 80 px long, so distances to the line are plain row offsets.
FLAT_SPEC = small_vibrating_spec(
    needle_angle=90.0, needle_entry=(0.0, 60.0), needle_length=80.0,
    vib_freq=2.5, motion_sigma=2.0,
)


def _frame_displacement(spec, t):
    """(H, W, 2) displacement of frame t, built from what synth_sequence
    runs: its amplitude rule, _co_motion_falloff and _displacement."""
    _, _, _, normal = needle_geometry(spec)
    amp = spec.vib_amplitude * math.sin(
        2.0 * math.pi * spec.vib_freq * t / spec.fps)
    box, envelope, _ = phantom._co_motion_falloff(spec, 0.0)
    full = np.zeros((spec.height, spec.width))
    full[box] = envelope
    return np.stack(phantom._displacement(amp, normal, full), axis=-1)


def test_zero_amplitude_means_zero_field():
    spec = replace(FLAT_SPEC, vib_amplitude=0.0)
    for t in (0, 7, 29):
        assert not _frame_displacement(spec, t).any()


def test_on_segment_peak_displacement_equals_amplitude():
    # 2.5 Hz at 30 fps: frame 3 sits at a quarter period, sin = 1.
    field = _frame_displacement(FLAT_SPEC, 3)
    mag = float(np.hypot(field[60, 40, 0], field[60, 40, 1]))
    assert mag == pytest.approx(FLAT_SPEC.vib_amplitude, abs=1e-12)


def test_displacement_follows_gaussian_falloff():
    field = _frame_displacement(FLAT_SPEC, 3)
    mag = float(np.hypot(field[64, 40, 0], field[64, 40, 1]))
    want = FLAT_SPEC.vib_amplitude * math.exp(-2.0)  # two sigma out
    assert mag == pytest.approx(want, abs=1e-9)


def test_displacement_is_along_the_line_normal():
    _, _, _, normal = needle_geometry(FLAT_SPEC)
    field = _frame_displacement(FLAT_SPEC, 3)
    vec = field[60, 40]
    cross = vec[0] * normal[1] - vec[1] * normal[0]
    assert abs(cross) <= 1e-12


def test_no_motion_past_the_tip_plane():
    # The tissue envelope ends at the tip; the abrupt stop is the feature
    # the tip locator keys on, so pin it.
    field = _frame_displacement(FLAT_SPEC, 3)
    assert not field[55:66, 85:].any()
    assert field[60, 79].any()
    # the synthesized frames hold still there too, at every amplitude
    seq, _ = synth_sequence(FLAT_SPEC)
    assert np.all(seq.frames[:, 55:66, 85:] == seq.frames[0, 55:66, 85:])
    assert np.any(seq.frames[:, 58:63, 40] != seq.frames[0, 58:63, 40])


# --------------------------------------------------------------------------
# Warping
# --------------------------------------------------------------------------

def test_warp_zero_field_is_identity():
    tex = _speckle(32, 40, 2.0, seed=13)
    field = np.zeros((32, 40, 2))
    assert np.array_equal(warp_bilinear(tex, field), tex)


def test_warp_unit_shift_moves_columns():
    tex = _speckle(24, 24, 1.0, seed=17)
    field = np.zeros((24, 24, 2))
    field[:, :, 0] = 1.0
    out = warp_bilinear(tex, field)
    assert np.allclose(out[:, 1:], tex[:, :-1])


def test_warp_half_pixel_on_linear_ramp():
    ramp = np.tile(np.arange(20, dtype=np.float64), (8, 1))
    field = np.zeros((8, 20, 2))
    field[:, :, 0] = 0.5
    out = warp_bilinear(ramp, field)
    assert np.allclose(out[:, 1:], ramp[:, 1:] - 0.5)
    assert np.allclose(out[:, 0], 0.0)  # clamped at the border


def test_warp_rejects_mismatched_field():
    with pytest.raises(ValidationError):
        warp_bilinear(np.zeros((8, 8)), np.zeros((8, 9, 2)))


def test_warp_takes_a_nested_list_field_as_its_array():
    tex = np.arange(20.0).reshape(4, 5)
    field = np.random.default_rng(5).uniform(-1.5, 1.5, (4, 5, 2))
    got = warp_bilinear(tex.tolist(), field.tolist())
    assert got.tobytes() == warp_bilinear(tex, field).tobytes()
    with pytest.raises(ValidationError,
                       match=r"^field shape \(4, 4, 2\) does not match "
                             r"texture \(4, 5\)$"):
        warp_bilinear(tex, np.zeros((4, 4, 2)).tolist())


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", [(0, 0), (3, 5), (7, 7)])
def test_warp_rejects_a_non_finite_texture(bad, where):
    # a texel weighted 0.0 would still turn its neighbours' samples into NaN
    tex = np.zeros((8, 8))
    tex[where] = bad
    with pytest.raises(ValidationError, match="texture must be finite"):
        warp_bilinear(tex, np.zeros((8, 8, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1])
def test_warp_rejects_a_non_finite_field(bad, axis):
    # NaN once raised a bare IndexError after a cast warning, and inf
    # silently sampled the clamped border
    tex = np.arange(16.0).reshape(4, 4)
    field = np.zeros((4, 4, 2))
    field[1, 2, axis] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^field must be finite$"):
            warp_bilinear(tex, field)


def _dense_warp(texture, field):
    """The sampler run on every pixel, written out here as the oracle for
    warp_bilinear and for synth_sequence's warp."""
    h, w = texture.shape
    xs = np.arange(w, dtype=np.float64)[None, :] - field[:, :, 0]
    ys = np.arange(h, dtype=np.float64)[:, None] - field[:, :, 1]
    return _bilinear_clamped(np.asarray(texture, dtype=np.float64), xs, ys)


def _field(kind, h, w, rng):
    field = np.zeros((h, w, 2))
    if kind == "zero":
        return field
    if kind == "dense":
        return rng.normal(scale=2.0, size=(h, w, 2))
    mask = rng.uniform(size=(h, w)) < 0.15
    field[mask] = rng.normal(scale=1.5, size=(mask.sum(), 2))
    if kind == "negative-zero":
        field[~mask] = -0.0
        field[mask, 1] = -0.0
    if kind == "tiny":  # absorbed: x - 1e-300 == x for x >= 1
        tiny = rng.choice([1e-300, -1e-300, 5e-324], size=(~mask).sum())
        field[~mask] = tiny[:, None]
    # a pixel on every border pushed outward, so its sample clamps, and
    # two that move along one axis only
    field[h // 2, 0] = (1.7, 0.4)
    field[h // 2, -1] = (-1.7, 0.3)
    field[0, w // 3] = (0.6, 2.5)
    field[-1, w // 3] = (-0.4, -2.5)
    field[h // 3, w // 2] = (0.0, 0.6)
    field[h // 3, w // 4] = (0.8, -0.0)
    return field


@pytest.mark.parametrize("h,w", [(16, 16), (37, 53)])
@pytest.mark.parametrize("kind", ["zero", "sparse", "negative-zero",
                                  "tiny", "dense"])
def test_warp_equals_the_dense_sampler_bit_for_bit(h, w, kind):
    rng = np.random.default_rng(h * w + len(kind))
    tex = rng.uniform(size=(h, w))
    field = _field(kind, h, w, rng)
    assert warp_bilinear(tex, field).tobytes() == _dense_warp(tex, field).tobytes()


# --------------------------------------------------------------------------
# Sequence synthesis
# --------------------------------------------------------------------------

def _dense_segment_fields(h, w, p0, p1):
    """Along-segment coordinate and point-to-segment distance, every pixel."""
    seg = p1 - p0
    length = float(np.hypot(*seg))
    d_hat = seg / length
    vx = np.arange(w, dtype=np.float64)[None, :] - p0[0]
    vy = np.arange(h, dtype=np.float64)[:, None] - p0[1]
    s = vx * d_hat[0] + vy * d_hat[1]
    t = np.clip(s, 0.0, length)
    return s, np.hypot(vx - t * d_hat[0], vy - t * d_hat[1]), length


def _dense_ridge(h, w, p0, p1):
    _, dist, _ = _dense_segment_fields(h, w, p0, p1)
    sigma = phantom.NEEDLE_RIDGE_SIGMA
    return phantom.NEEDLE_RIDGE_PEAK * np.exp(-(dist ** 2) / (2.0 * sigma * sigma))


def _speckle_and_artifact_segments(spec):
    """The speckle and the artifact segments (p0, p1), drawn from the seed
    in synth_sequence's order."""
    h, w = spec.height, spec.width
    rng = np.random.default_rng(spec.seed)
    base = phantom._speckle_from_rng(rng, h, w, spec.speckle_grain)
    segments = []
    for _ in range(spec.artifact_count):
        cx = rng.uniform(0.2 * w, 0.8 * w)
        cy = rng.uniform(0.2 * h, 0.8 * h)
        ang = rng.uniform(0.0, math.pi)
        half = rng.uniform(30.0, 90.0)
        d = np.array([math.cos(ang), math.sin(ang)])
        c = np.array([cx, cy])
        segments.append((c - half * d, c + half * d))
    return base, segments


def _dense_envelope(spec):
    """The co-motion envelope evaluated on every pixel."""
    entry, _, tip, _ = needle_geometry(spec)
    s, dist, length = _dense_segment_fields(spec.height, spec.width, entry, tip)
    envelope = np.exp(-(dist ** 2) / (2.0 * spec.motion_sigma ** 2))
    envelope[s > length] = 0.0
    return envelope


def _dense_synth(spec):
    """Frames of the full-frame loop that synth_sequence gathers from:
    warp every pixel, add the whole ridge and the artifacts, clip, round."""
    h, w = spec.height, spec.width
    base, segments = _speckle_and_artifact_segments(spec)
    artifacts = np.zeros((h, w))
    for p0, p1 in segments:
        np.maximum(artifacts, _dense_ridge(h, w, p0, p1), out=artifacts)
    entry, _, tip, normal = needle_geometry(spec)
    envelope = _dense_envelope(spec)
    frames = np.empty((spec.frame_count, h, w), dtype=np.uint8)
    field = np.empty((h, w, 2))
    for t in range(spec.frame_count):
        amp = spec.vib_amplitude * math.sin(
            2.0 * math.pi * spec.vib_freq * t / spec.fps)
        field[:, :, 0] = (amp * normal[0]) * envelope
        field[:, :, 1] = (amp * normal[1]) * envelope
        frame = _dense_warp(base, field)
        if spec.visibility > 0:
            shift = amp * normal
            frame = frame + spec.visibility * _dense_ridge(
                h, w, entry + shift, tip + shift)
        if spec.artifact_count > 0:
            frame = frame + artifacts
        np.clip(frame, 0.0, 1.0, out=frame)
        frames[t] = np.rint(frame * 255.0).astype(np.uint8)
    return frames


def _dense_case(**overrides):
    spec = dict(height=64, width=72, frame_count=10, needle_entry=(0.0, 50.0),
                needle_length=50.0, visibility=0.5, artifact_count=1, seed=23)
    spec.update(overrides)
    return small_vibrating_spec(**spec)


_DENSE_CASES = {
    "visibility-0": _dense_case(visibility=0.0),
    "visibility-0.5": _dense_case(),
    "visibility-1": _dense_case(visibility=1.0),
    "artifacts-0": _dense_case(artifact_count=0),
    "artifacts-3": _dense_case(artifact_count=3, visibility=1.0),
    "top": _dense_case(entry_side="top", needle_entry=(40.0, 0.0)),
    "right": _dense_case(entry_side="right", needle_entry=(71.0, 20.0),
                         needle_length=40.0),
    "bottom": _dense_case(entry_side="bottom", needle_entry=(30.0, 63.0)),
    "amplitude-0": _dense_case(vib_amplitude=0.0, visibility=1.0),
    "16x16": _dense_case(height=16, width=16, needle_entry=(0.0, 12.0),
                         needle_length=10.0, visibility=1.0),
    # a horizontal needle spanning the image: nothing lies past its tip
    "whole-frame-envelope": _dense_case(needle_angle=90.0,
                                        needle_entry=(0.0, 30.0),
                                        needle_length=71.0,
                                        motion_sigma=1000.0, vib_amplitude=2.5),
    "tip-on-border": _dense_case(entry_side="top", needle_angle=0.0,
                                 needle_entry=(30.0, 0.0), needle_length=63.0,
                                 visibility=1.0),
    # the per-frame set keeps the pixels that move at the smallest or the
    # largest frame amplitude
    "amplitude-1e-13": _dense_case(vib_amplitude=1e-13),
    "one-frame": _dense_case(frame_count=1),
    # sin(pi t / 5) over t = 0..6 peaks at +0.951 and -0.588
    "unequal-peaks": _dense_case(frame_count=7),
    # a zero normal component: cos 0 = 0 on y, and cos 90 deg ~ 6e-17 on x
    "angle-0": _dense_case(entry_side="top", needle_angle=0.0,
                           needle_entry=(30.0, 0.0)),
    "angle-90": _dense_case(needle_angle=90.0, needle_entry=(0.0, 30.0)),
    "motion-sigma-200": _dense_case(motion_sigma=200.0),
    # an artifact whose reach box the border clips, in a larger image
    "artifact-clipped": _dense_case(height=160, width=180,
                                    needle_entry=(0.0, 120.0),
                                    needle_length=60.0, seed=4),
    "fullsize-preset": preset("fullsize"),
}


@pytest.mark.parametrize("spec", _DENSE_CASES.values(), ids=_DENSE_CASES.keys())
def test_synth_matches_the_dense_frame_reference(spec):
    seq, _ = synth_sequence(spec)
    assert seq.frames.tobytes() == _dense_synth(spec).tobytes()


@pytest.mark.parametrize("name", ["visibility-0.5", "whole-frame-envelope",
                                  "angle-0", "motion-sigma-200"])
def test_displacement_field_equals_the_dense_envelope_bit_for_bit(name):
    # the expression _dense_synth warps by, over the whole image
    spec = _DENSE_CASES[name]
    _, _, _, normal = needle_geometry(spec)
    envelope = _dense_envelope(spec)
    for t in (0, 2, 7):  # amplitude 0, positive and negative
        amp = spec.vib_amplitude * math.sin(
            2.0 * math.pi * spec.vib_freq * t / spec.fps)
        want = np.stack([(amp * normal[0]) * envelope,
                         (amp * normal[1]) * envelope], axis=-1)
        assert _frame_displacement(spec, t).tobytes() == want.tobytes()


def test_dense_cases_cover_what_they_name():
    spec = _DENSE_CASES["whole-frame-envelope"]
    _, envelope, _ = phantom._co_motion_falloff(spec, 0.0)
    assert envelope.shape == (spec.height, spec.width)
    assert np.all(envelope != 0)
    _, _, _, normal = needle_geometry(_DENSE_CASES["angle-0"])
    assert normal[1] == 0.0
    peaks = [math.sin(math.pi * t / 5) for t in range(7)]
    assert max(peaks) != -min(peaks)
    spec = _DENSE_CASES["artifact-clipped"]
    [((x0, y0), (x1, y1))] = _speckle_and_artifact_segments(spec)[1]
    reach = phantom._RIDGE_REACH
    assert min(x0, x1, y0, y1) - reach < 0  # clipped at the border ...
    rows, cols = phantom._segment_box(np.array([x0, y0]), np.array([x1, y1]),
                                      reach, spec.height, spec.width)
    # ... and still short of the whole image
    assert (rows.stop - rows.start) * (cols.stop - cols.start) < 0.6 * (
        spec.height * spec.width)
    _, _, tip, _ = needle_geometry(_DENSE_CASES["tip-on-border"])
    assert tip[1] == 63.0
    still, _ = synth_sequence(_DENSE_CASES["amplitude-0"])
    assert np.all(still.frames == still.frames[0])


# the benchmark's gen phantoms: fullsize, invisible needle, one artifact
_GEN_REFERENCE = (Path(__file__).resolve().parents[1]
                  / "perfbench" / "gen_reference.json")


@pytest.mark.parametrize("index", [0, 51, 102, 153, 204, 255])
def test_fullsize_generator_matches_the_benchmark_digests(tmp_path, index):
    entry = json.loads(_GEN_REFERENCE.read_text())["full"][index]
    spec = replace(preset("fullsize"), height=328, width=335, frame_count=30,
                   needle_entry=(0.0, 280.0), needle_length=260.0,
                   visibility=0.0, artifact_count=1, seed=entry["seed"])
    seq, gt = synth_sequence(spec)
    save_sequence(seq, tmp_path / "s.vibseq")
    save_ground_truth(gt, tmp_path / "s.gt.json")
    for name, key in (("s.vibseq", "digest"), ("s.gt.json", "gt_digest")):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == entry[key], name


def test_synth_is_deterministic():
    spec = small_vibrating_spec(seed=19, artifact_count=2)
    seq_a, gt_a = synth_sequence(spec)
    seq_b, gt_b = synth_sequence(spec)
    assert seq_a == seq_b
    assert gt_a == gt_b


def test_static_scene_has_identical_frames():
    spec = small_vibrating_spec(visibility=1.0, vib_amplitude=0.0)
    seq, _ = synth_sequence(spec)
    assert np.array_equal(seq.frames[0], seq.frames[-1])


def test_visible_needle_brightens_the_line():
    dim, _ = synth_sequence(small_vibrating_spec(visibility=0.0,
                                                 vib_amplitude=0.0))
    lit, gt = synth_sequence(small_vibrating_spec(visibility=1.0,
                                                  vib_amplitude=0.0))
    mid = (np.array([0.0, 100.0]) + np.array([gt.tip_x, gt.tip_y])) / 2.0
    y, x = int(round(mid[1])), int(round(mid[0]))
    assert lit.frames[0, y, x] > dim.frames[0, y, x]


def _segment_mask(spec, max_perp=1.0):
    entry, direction, _, _ = needle_geometry(spec)
    ys, xs = np.mgrid[0: spec.height, 0: spec.width]
    rx = xs - entry[0]
    ry = ys - entry[1]
    along = rx * direction[0] + ry * direction[1]
    perp = np.abs(rx * (-direction[1]) + ry * direction[0])
    return (perp <= max_perp) & (along >= 0) & (along <= spec.needle_length), perp


def test_invisible_needle_still_modulates_temporal_std():
    spec = small_vibrating_spec(seed=23)
    seq, _ = synth_sequence(spec)
    stds = seq.frames_float().std(axis=0)
    on_line, perp = _segment_mask(spec)
    background = perp >= 5.0 * spec.motion_sigma
    assert np.median(stds[on_line]) > 3.0 * np.median(stds[background])


def test_invisible_needle_leaves_no_single_frame_signature():
    # Compare the frame of maximum displacement against its no-needle
    # twin (same seed, so the same tissue realization; the texture's
    # min-max renormalization makes histograms of different seeds differ
    # for reasons unrelated to the needle).  The needle must not show.
    ks_2samp = pytest.importorskip("scipy.stats").ks_2samp
    with_needle, _ = synth_sequence(small_vibrating_spec(seed=29))
    without, _ = synth_sequence(small_vibrating_spec(seed=29,
                                                     vib_amplitude=0.0))
    rng = np.random.default_rng(37)
    a = with_needle.frames[3].ravel()
    b = without.frames[3].ravel()
    stat = ks_2samp(rng.choice(a, 10000, replace=False),
                    rng.choice(b, 10000, replace=False)).statistic
    assert stat < 0.05


def _fundamental_fraction(spec):
    seq, _ = synth_sequence(spec)
    on_line, _ = _segment_mask(spec)
    signals = seq.frames_float()[:, on_line]  # (T, n_pixels)
    spectra = np.abs(np.fft.rfft(signals - signals.mean(axis=0), axis=0))
    peak_bins = np.argmax(spectra[1:], axis=0) + 1
    target_bin = int(round(spec.vib_freq * spec.frame_count / spec.fps))
    return float(np.mean(peak_bins == target_bin))


def test_vibration_frequency_dominates_on_segment_spectra():
    # Bilinear warping is kinked where the displacement crosses zero, so
    # every pixel signal carries an |sin| component whose energy sits on
    # even harmonics.  On smooth texture the one-sided slopes agree and
    # the fundamental wins nearly everywhere; the default grain of 1.5
    # keeps texture rough on purpose (sharp tip localization) and cedes
    # a fifth of the on-segment pixels to the second harmonic.  Detection
    # only needs the band ratio, not per-pixel spectral purity.
    assert _fundamental_fraction(small_vibrating_spec(seed=41,
                                                      speckle_grain=2.5)) >= 0.90
    assert _fundamental_fraction(small_vibrating_spec(seed=41)) >= 0.75


def test_artifacts_are_static_and_deterministic():
    plain, _ = synth_sequence(small_vibrating_spec(seed=43))
    with_lines, _ = synth_sequence(small_vibrating_spec(seed=43,
                                                        artifact_count=3))
    assert not np.array_equal(plain.frames[0], with_lines.frames[0])
    again, _ = synth_sequence(small_vibrating_spec(seed=43, artifact_count=3))
    assert np.array_equal(with_lines.frames, again.frames)


# --------------------------------------------------------------------------
# Ground truth
# --------------------------------------------------------------------------

def test_ground_truth_tip_lies_on_the_line():
    for seed in (1, 2, 3):
        spec = small_vibrating_spec(seed=seed)
        _, gt = synth_sequence(spec)
        theta = math.radians(gt.theta)
        dist = abs(gt.tip_x * math.cos(theta) + gt.tip_y * math.sin(theta)
                   - gt.rho)
        assert dist <= 0.5
        assert 0 <= gt.tip_x <= spec.width - 1
        assert 0 <= gt.tip_y <= spec.height - 1


def test_ground_truth_reports_rest_position():
    spec = small_vibrating_spec()
    _, gt = synth_sequence(spec)
    assert gt.theta == spec.needle_angle
    entry, _, tip, normal = needle_geometry(spec)
    assert gt.rho == pytest.approx(float(entry @ normal), abs=1e-12)
    assert (gt.tip_x, gt.tip_y) == pytest.approx((tip[0], tip[1]), abs=1e-12)
    assert gt.pixel_spacing == spec.pixel_spacing


def test_ground_truth_json_round_trip(tmp_path):
    gt = GroundTruth(theta=30.0, rho=242.487, tip_x=130.0, tip_y=54.9,
                     pixel_spacing=0.15)
    path = tmp_path / "a.gt.json"
    save_ground_truth(gt, path)
    assert load_ground_truth(path) == gt
    text = path.read_text()
    for key in ("theta_deg", "rho_px", "tip_x_px", "tip_y_px",
                "pixel_spacing_mm"):
        assert key in text


def test_default_spec_fits_its_own_image():
    # The stock geometry must be self-consistent; everything else in the
    # suite builds on it.
    seq, gt = synth_sequence(PhantomSpec(frame_count=2))
    assert seq.height == 328 and seq.width == 335
    assert 0 <= gt.tip_x < 335 and 0 <= gt.tip_y < 328

"""End-to-end detection: batch, streaming, emitted channels, timing."""

import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import challenging_phantom, small_vibrating_spec
from vibeline import (
    DEFAULT_CONFIDENCE_MIN,
    DEFAULT_WARMUP,
    DetectConfig,
    Detection,
    GeometryError,
    HoughGrid,
    HoughMap,
    NoTipError,
    StreamState,
    ValidationError,
    angle_error,
    band_energy_from_frames,
    detect,
    detect_frames,
    hough_transform,
    hybrid_loss,
    nearest_band,
    preset,
    read_vibmap,
    render_truth_map,
    save_ground_truth,
    save_sequence,
    stream_push,
    synth_sequence,
    tip_along_line,
    tip_from_hough,
)
from vibeline.core import _snapped_cos_sin
from vibeline.pipeline import _clip_line, _percentile95, detect_with_timing

CFG3 = DetectConfig(vib_freq=3.0)


def small_phantom(seed=3, **overrides):
    return synth_sequence(small_vibrating_spec(seed=seed, **overrides))


# --------------------------------------------------------------------------
# Batch detection quality
# --------------------------------------------------------------------------

def test_detect_recovers_invisible_needle_small():
    seq, gt = small_phantom(seed=3)
    det = detect(seq, CFG3)
    assert not det.low_confidence_flag
    assert angle_error(det.theta, gt.theta) <= 2.0
    assert math.hypot(det.tip_x - gt.tip_x, det.tip_y - gt.tip_y) <= 2.0


def test_detect_recovers_invisible_needle_full_size():
    spec = replace(preset("bin-aligned"), visibility=0.0, seed=5)
    seq, gt = synth_sequence(spec)
    det = detect(seq, CFG3)
    assert not det.low_confidence_flag
    assert angle_error(det.theta, gt.theta) <= 2.0
    assert math.hypot(det.tip_x - gt.tip_x, det.tip_y - gt.tip_y) <= 2.0


def test_detect_is_deterministic():
    seq, _ = small_phantom(seed=7)
    assert detect(seq, CFG3) == detect(seq, CFG3)


def test_vibration_off_flags_low_confidence():
    seq, _ = small_phantom(seed=9, vib_amplitude=0.0)
    det = detect(seq, CFG3)
    assert det.low_confidence_flag
    assert det.confidence < DEFAULT_CONFIDENCE_MIN


def test_all_zero_frames_give_flagged_empty_detection():
    frames = np.zeros((30, 64, 64))
    det, _ = detect_frames(frames, 30.0, CFG3)
    assert det.low_confidence_flag
    assert det.tip_x is None and det.tip_y is None
    assert det.confidence == 0.0


def test_constant_frames_score_zero_in_batch_and_stream():
    # a static pixel's non-DC power is rounding dust (<= ~1.3e-30 in
    # batch and stream alike), which must not vote a shaft; test_spectral
    # checks the stream's map itself
    frames = np.full((30, 64, 64), 102, dtype=np.uint8)
    values, _ = band_energy_from_frames(frames / 255.0, 30.0, 2.5)
    assert not values.any()
    batch, _ = detect_frames(frames / 255.0, 30.0)
    state = StreamState(64, 64, 30.0)
    for frame in frames:
        stream = state.push(frame)
    empty = Detection(theta=0.0, rho=0.0, tip_x=None, tip_y=None,
                      confidence=0.0, low_confidence_flag=True)
    assert batch == empty and stream == empty


def test_detect_is_affine_invariant():
    seq, _ = small_phantom(seed=11)
    frames = seq.frames_float()
    base, _ = detect_frames(frames, seq.fps, CFG3)
    scaled, _ = detect_frames(0.5 * frames + 0.1, seq.fps, CFG3)
    assert (scaled.theta, scaled.rho) == (base.theta, base.rho)
    assert math.hypot(scaled.tip_x - base.tip_x,
                      scaled.tip_y - base.tip_y) <= 1.0


def test_detect_holds_at_a_huge_offset():
    # static pixels score exactly 0 at any level; before they were skipped,
    # their rounding dust passed RATIO_EPS: confidence 28.5 at +1e9, and
    # a flag at 8.3 with the tip moved at +1e10
    seq, _ = synth_sequence(preset("fullsize"))
    frames = seq.frames_float()
    base, _ = detect_frames(frames, seq.fps)
    lifted, _ = detect_frames(frames + 1e10, seq.fps)
    assert not lifted.low_confidence_flag
    assert (lifted.theta, lifted.rho, lifted.tip_x, lifted.tip_y) == \
        (base.theta, base.rho, base.tip_x, base.tip_y)
    assert lifted.confidence == pytest.approx(base.confidence, rel=1e-4)


def test_detect_mirrored_scene_mirrors_the_line():
    seq, _ = small_phantom(seed=13)
    frames = seq.frames_float()
    base, _ = detect_frames(frames, seq.fps, CFG3)
    mirrored_cfg = replace(CFG3, entry_side="right")
    flip, _ = detect_frames(frames[:, :, ::-1], seq.fps, mirrored_cfg)
    want_theta = (180.0 - base.theta) % 180.0
    assert angle_error(flip.theta, want_theta) <= 1.0
    mirrored_tip_x = (seq.width - 1) - base.tip_x
    assert math.hypot(flip.tip_x - mirrored_tip_x,
                      flip.tip_y - base.tip_y) <= 1.0


@functools.lru_cache(maxsize=None)
def _affine_base():
    seq, _ = small_phantom(seed=11)
    frames = seq.frames_float()
    return frames, detect_frames(frames, seq.fps, CFG3)[0]


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.0, 6.0).map(lambda e: 10.0 ** e), st.floats(-1e3, 1e3))
def test_detect_holds_under_a_positive_affine_map(a, b):
    # not below a ~ 1e-3: RATIO_EPS is an absolute floor on a pixel's
    # non-DC power, so a tiny scale zeroes pixels that move
    frames, base = _affine_base()
    got, _ = detect_frames(a * frames + b, 30.0, CFG3)
    assert (got.theta, got.rho, got.low_confidence_flag) == \
        (base.theta, base.rho, base.low_confidence_flag)
    assert math.hypot(got.tip_x - base.tip_x, got.tip_y - base.tip_y) <= 1.0


_TRANSPOSED_SIDE = {"left": "top", "top": "left",
                    "right": "bottom", "bottom": "right"}
_TOP_ENTRY = dict(needle_angle=120.0, needle_entry=(20.0, 0.0),
                  entry_side="top")
_RIGHT_ENTRY = dict(needle_angle=150.0, needle_entry=(127.0, 100.0),
                    entry_side="right")


_TRANSPOSE_CASES = [
    *[pytest.param(small_phantom, dict(seed=s), 3.0, id=f"small-{s}")
      for s in range(8)],
    pytest.param(small_phantom, dict(seed=2, **_TOP_ENTRY), 3.0, id="top"),
    pytest.param(small_phantom, dict(seed=2, **_RIGHT_ENTRY), 3.0, id="right"),
    *[pytest.param(challenging_phantom, dict(seed=s), 2.5, id=f"fullsize-{s}")
      for s in range(3)],
]


@pytest.mark.parametrize("make, spec, vib_freq", _TRANSPOSE_CASES)
def test_transposed_frames_give_the_transposed_detection(make, spec, vib_freq):
    seq, _ = make(**spec)
    side = spec.get("entry_side", "left")
    cfg = DetectConfig(vib_freq=vib_freq, entry_side=side)
    det, _, values, _ = detect_with_timing(seq.frames, seq.fps, cfg)
    flip, _, flip_values, _ = detect_with_timing(
        seq.frames.transpose(0, 2, 1), seq.fps,
        replace(cfg, entry_side=_TRANSPOSED_SIDE[side]))
    assert flip_values.tobytes() == values.T.tobytes()
    # x cos t + y sin t = rho with x and y swapped is the normal 90 - t;
    # past 90 deg it wraps to 270 - t and the normal flips, so rho does
    assert flip.theta == (90.0 - det.theta) % 180.0
    assert flip.rho == (det.rho if det.theta <= 90.0 else -det.rho)
    assert math.hypot(flip.tip_x - det.tip_y, flip.tip_y - det.tip_x) <= 1.0
    # confidence is not pinned: sin 30 deg and cos 60 deg snap to either
    # side of 0.5, so a half-integer rho tie can fall in another bin


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.int16, np.bool_])
def test_detect_takes_a_real_dtype_as_its_float64_copy(dtype, noisy):
    # noise makes every pixel move: the whole-stack path, not the
    # moving-columns one
    seq, _ = small_phantom(seed=3)
    x = seq.frames_float()
    if noisy:
        x = x + 0.01 * np.random.default_rng(0).standard_normal(x.shape)
    frames = {np.float32: lambda: x.astype(np.float32),
              np.int16: lambda: np.rint(1000.0 * x).astype(np.int16),
              np.bool_: lambda: x > 0.5}[dtype]()
    got = detect_with_timing(frames, seq.fps, CFG3)
    want = detect_with_timing(frames.astype(np.float64), seq.fps, CFG3)
    assert got[0] == want[0]
    assert got[2].tobytes() == want[2].tobytes()


@pytest.mark.parametrize("dtype", [np.complex128, object, str])
def test_detect_rejects_frames_that_are_not_real_numbers(dtype):
    frames = np.full((12, 16, 16), 0.5).astype(dtype)
    with pytest.raises(ValidationError, match="frames must be real numbers"):
        detect_with_timing(frames, 30.0)


@pytest.mark.parametrize("freq, fps", [(15.0, 30.0), (20.0, 30.0),
                                       (2.5, 5.0), (7.0, 12.5)])
def test_generator_and_detector_reject_a_band_with_one_message(freq, fps):
    with pytest.raises(ValidationError) as gen:
        small_vibrating_spec(vib_freq=freq, fps=fps)
    with pytest.raises(ValidationError) as det:
        nearest_band(10, fps, freq)
    assert str(gen.value) == str(det.value)
    assert "Nyquist" in str(det.value)


@pytest.mark.parametrize("side", ["diagonal", "Left", ["left"], None, 1,
                                  {"left": 1}], ids=repr)
def test_generator_and_detector_reject_an_entry_side_with_one_message(side):
    # building the spec rejects the side, so no function of a spec sees it
    with pytest.raises(ValidationError) as gen:
        small_vibrating_spec(entry_side=side)
    with pytest.raises(ValidationError) as det:
        DetectConfig(entry_side=side)
    assert str(gen.value) == str(det.value)
    assert str(det.value).startswith("entry_side must be one of")


def test_detect_validates_frequency_against_fps(tmp_path):
    # one band check (nearest_band) guards every entry point
    from vibeline import cli

    seq, _ = small_phantom(seed=15)
    too_high = DetectConfig(vib_freq=20.0)
    with pytest.raises(ValidationError):
        detect(seq, too_high)
    with pytest.raises(ValidationError):
        StreamState(seq.height, seq.width, 30.0, too_high)
    seq_path, hough = tmp_path / "a.vibseq", tmp_path / "h.vibmap"
    save_sequence(seq, seq_path)
    assert cli.main(["detect", "--vib-hz", "20", str(seq_path),
                     "--emit-hough", str(hough)]) == 1
    assert not hough.exists()
    assert not seq_path.with_suffix(".json").exists()
    for target in (0.0, 15.0, 20.0):
        with pytest.raises(ValidationError):
            nearest_band(10, 30.0, target)


def test_detect_rejects_a_non_finite_fps():
    # at fps = inf every target lies below fs/2 and every bin sits at inf Hz
    seq, _ = small_phantom(seed=15)
    with pytest.raises(ValidationError, match="finite"):
        detect_frames(seq.frames_float(), math.inf)
    with pytest.raises(ValidationError, match="finite"):
        StreamState(seq.height, seq.width, fps=math.inf)


def test_timing_report_structure():
    seq, _ = small_phantom(seed=15)
    _, timing = detect_frames(seq.frames_float(), seq.fps, CFG3)
    assert set(timing) == {"spectral_ms", "hough_ms", "post_ms", "total_ms"}
    assert all(v >= 0.0 for v in timing.values())
    assert timing["total_ms"] >= timing["hough_ms"]


@pytest.mark.parametrize("amplitude", [0.8, 0.0], ids=["vibrating", "still"])
def test_a_noisy_fullsize_batch_detect_decodes_as_the_full_vote(amplitude):
    # sensor noise moves every pixel: the dense map's peak is found without
    # the Hough image, and decoding the full vote of the same map must give
    # the same detection, confidence bits included
    from vibeline.pipeline import _decode

    spec = replace(preset("fullsize"), visibility=0.0, artifact_count=1,
                   vib_amplitude=amplitude, seed=1203)
    seq, _ = synth_sequence(spec)
    clean = detect_with_timing(seq.frames, seq.fps)[2]
    assert np.count_nonzero(clean) <= clean.size // 4  # a clean map is voted
    det, _, values, grid = detect_with_timing(_noisy(seq.frames, seed=3),
                                              seq.fps)
    assert np.count_nonzero(values) == values.size
    want = _decode(values, grid, hough_transform(values, grid), None,
                   DetectConfig())
    assert (det.theta, det.rho, det.tip_x, det.tip_y) == \
        (want.theta, want.rho, want.tip_x, want.tip_y)
    assert det.low_confidence_flag == want.low_confidence_flag
    assert np.float64(det.confidence).view(np.uint64) == \
        np.float64(want.confidence).view(np.uint64)


# --------------------------------------------------------------------------
# Tip search along the line
# --------------------------------------------------------------------------

def test_tip_along_line_finds_far_end_of_bright_segment():
    energy = np.zeros((128, 128))
    energy[40, :60] = 1.0  # horizontal segment from the left border
    cfg = DetectConfig(entry_side="left")
    x, y = tip_along_line(energy, 90.0, 40.0, cfg)
    assert abs(x - 59.0) <= 1.0
    assert abs(y - 40.0) <= 0.5


def test_tip_along_line_respects_entry_side():
    energy = np.zeros((128, 128))
    energy[40, 68:128] = 1.0  # segment touching the right border
    cfg = DetectConfig(entry_side="right")
    x, y = tip_along_line(energy, 90.0, 40.0, cfg)
    assert abs(x - 68.0) <= 1.0
    assert abs(y - 40.0) <= 0.5


def test_a_tip_on_the_border_stays_inside_the_image():
    # this run's tip once came back at x = 15.000000000000002 on a 16 px
    # wide image, so rendering its tip channel raised "outside image"
    frames = 0.5 + 0.2 * np.random.default_rng(5).standard_normal((12, 16, 16))
    det, _ = detect_frames(frames, 30.0, DetectConfig(rho_step=8.0))
    assert 0.0 <= det.tip_x <= 15.0 and 0.0 <= det.tip_y <= 15.0
    assert det.tip_x == 15.0


@pytest.mark.parametrize("side, tip", [
    ("left", (79.0, 40.0)), ("right", (60.0, 40.0)),
    ("top", (40.0, 29.0)), ("bottom", (40.0, 10.0)),
])
def test_tip_along_line_takes_the_first_equal_run_and_its_inward_end(side,
                                                                     tip):
    # two 20-px runs on row or column 40; the horizontal line (theta 90)
    # is sampled from x = 127 down to 0, the vertical one (theta 0) from
    # y = 0 up to 127, so the first run along the line differs per axis
    energy = np.zeros((128, 128))
    if side in ("left", "right"):
        energy[40, 10:30] = energy[40, 60:80] = 1.0
        theta = 90.0
    else:
        energy[10:30, 40] = energy[60:80, 40] = 1.0
        theta = 0.0
    cfg = DetectConfig(entry_side=side, profile_smooth=1)
    assert tip_along_line(energy, theta, 40.0, cfg) == tip


@pytest.mark.parametrize("rho, hot", [(0.5, (1, 0)), (1.0, (2, 0))])
def test_tip_along_line_smooths_a_line_shorter_than_the_kernel(rho, hot):
    # theta 45 cuts the top-left corner in 2 (rho 0.5) or 3 (rho 1.0)
    # samples, the last of them hot; the zero-padded centred mean of 5
    # reaches it from every sample, so the run is the whole line and the
    # tip is its first sample, on the top border
    energy = np.zeros((20, 20))
    energy[hot] = 1.0
    x, y = tip_along_line(energy, 45.0, rho, DetectConfig(profile_smooth=5))
    assert (x, y) == pytest.approx((math.sqrt(2.0) * rho, 0.0), abs=1e-12)
    assert (x + y) * math.sqrt(0.5) == pytest.approx(rho, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 9])
def test_centred_full_convolution_is_same_mode_from_k_samples_on(k):
    # the tip walk's smoothing for lines of n >= k samples is unchanged
    rng = np.random.default_rng(k)
    kernel = np.full(k, 1.0 / k)
    for n in range(k, 60):
        profile = rng.uniform(size=n) * (rng.uniform(size=n) < 0.7)
        got = np.convolve(profile, kernel)[(k - 1) // 2:][:n]
        assert got.tobytes() == np.convolve(profile, kernel,
                                            mode="same").tobytes()


def test_percentile95_equals_numpy_percentile_bit_for_bit():
    rng = np.random.default_rng(41)
    for i in range(10_000):
        n = int(rng.integers(1, 601))
        profile = rng.uniform(size=n)
        if i % 3 == 0:
            profile = np.round(profile, 1)  # ties
        if i % 4 == 0:
            profile[rng.uniform(size=n) < 0.5] = 0.0
        want = np.float64(np.percentile(profile, 95))
        assert np.float64(_percentile95(profile)).tobytes() == want.tobytes()


def test_tip_along_line_rejects_flat_energy():
    cfg = DetectConfig()
    with pytest.raises(NoTipError):
        tip_along_line(np.zeros((64, 64)), 30.0, 20.0, cfg)


def test_tip_along_line_rejects_line_outside_image():
    cfg = DetectConfig()
    with pytest.raises(GeometryError):
        tip_along_line(np.ones((64, 64)), 90.0, 500.0, cfg)
    # a 45 deg line is parallel to no border, so both axes clip it
    with pytest.raises(GeometryError, match="misses the image"):
        tip_along_line(np.ones((32, 32)), 45.0, -100.0, cfg)


def _clip_line_loop(theta, rho, h, w):
    """_clip_line as it stood with a clipping loop of its own: the oracle."""
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
                    f"line (theta={theta}, rho={rho}) misses the image")
            continue
        ta = (0.0 - base[axis]) / d[axis]
        tb = (hi - base[axis]) / d[axis]
        lo, hi_t = (ta, tb) if ta <= tb else (tb, ta)
        t0 = max(t0, lo)
        t1 = min(t1, hi_t)
    if not (t0 <= t1) or math.isinf(t0) or math.isinf(t1):
        raise GeometryError(f"line (theta={theta}, rho={rho}) misses the image")
    return base, d, t0, t1


# (theta, rho, h, w): theta on the 1-degree grid or anywhere in [0, 180),
# rho across the image and beyond it, and axis-aligned lines on a border,
# a rounding step either side of it, and half a pixel off it
@st.composite
def _lines_to_clip(draw):
    h, w = draw(st.integers(16, 400)), draw(st.integers(16, 400))
    if draw(st.booleans()):
        theta = draw(st.sampled_from([0.0, 90.0]))
        edge = draw(st.sampled_from([0.0, (w if theta == 0.0 else h) - 1.0]))
        rho = draw(st.sampled_from([
            edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf),
            edge - 0.5, edge + 0.5]))
        return theta, rho, h, w
    theta = draw(st.integers(0, 179).map(float)
                 | st.floats(0.0, 180.0, exclude_max=True))
    diag = math.hypot(h, w)
    return theta, draw(st.floats(-1.5 * diag, 1.5 * diag)), h, w


def _clipped_or_raised(clip, theta, rho, h, w):
    try:
        base, d, t0, t1 = clip(theta, rho, h, w)
    except GeometryError as err:
        return "raised", str(err)
    return "clipped", (base.tobytes(), d.tobytes(), np.float64(t0).tobytes(),
                       np.float64(t1).tobytes())


@settings(max_examples=1000, deadline=None)
@given(_lines_to_clip())
def test_clip_line_matches_its_per_axis_loop_bit_for_bit(line):
    assert _clipped_or_raised(_clip_line, *line) == \
        _clipped_or_raised(_clip_line_loop, *line)


# --------------------------------------------------------------------------
# Streaming
# --------------------------------------------------------------------------

def test_stream_warms_up_then_matches_batch():
    seq, _ = small_phantom(seed=17)
    batch, _ = detect_frames(seq.frames_float(), seq.fps, CFG3)
    state = StreamState(seq.height, seq.width, seq.fps, CFG3)
    emitted = []
    for t in range(seq.frame_count):
        out = state.push(seq.frames[t])
        if t < 29:
            assert out is None
        if out is not None:
            emitted.append(out)
    assert len(emitted) == 1
    final = emitted[-1]
    assert (final.theta, final.rho) == (batch.theta, batch.rho)
    assert math.hypot(final.tip_x - batch.tip_x,
                      final.tip_y - batch.tip_y) <= 1.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(15.0, 100.0))
def test_stream_at_warmup_matches_batch_detect(seed, angle):
    # batch converts only the moving columns of the uint8 stack, while the
    # stream converts every frame; one emission at T == warmup must agree
    seq, _ = small_phantom(seed=seed, needle_angle=angle,
                           frame_count=DEFAULT_WARMUP)
    state = StreamState(seq.height, seq.width, seq.fps, CFG3)
    emitted = [state.push(frame) for frame in seq.frames]
    assert emitted[:-1] == [None] * (DEFAULT_WARMUP - 1)
    got, want = emitted[-1], detect(seq, CFG3)
    assert (got.theta, got.rho) == (want.theta, want.rho)
    if want.tip_x is None:
        assert got.tip_x is None
    else:
        assert math.hypot(got.tip_x - want.tip_x,
                          got.tip_y - want.tip_y) <= 1.0


def test_stream_push_alias():
    seq, _ = small_phantom(seed=17)
    state = StreamState(seq.height, seq.width, seq.fps, CFG3)
    assert stream_push(state, seq.frames[0]) is None


def test_stream_confidence_decays_on_static_scene():
    seq, _ = small_phantom(seed=19)
    state = StreamState(seq.height, seq.width, seq.fps, CFG3)
    for t in range(seq.frame_count):
        out = state.push(seq.frames[t])
    assert not out.low_confidence_flag
    static = seq.frames[-1]
    flagged_after = None
    for extra in range(1, 2 * seq.frame_count + 1):
        out = state.push(static)
        if out.low_confidence_flag:
            flagged_after = extra
            break
    assert flagged_after is not None and flagged_after <= 2 * seq.frame_count


def test_stream_rejects_wrong_frame_shape():
    state = StreamState(64, 64, 30.0, CFG3)
    with pytest.raises(ValidationError):
        state.push(np.zeros((64, 65), dtype=np.uint8))


@pytest.mark.parametrize("height,width", [(-3, 5), (0, 8), (8, 0)])
def test_stream_rejects_an_empty_frame_size(height, width):
    # (0, 8) used to be accepted and fail only at the first emission;
    # the stream's Hough grid owns the frame-size rule
    with pytest.raises(ValidationError,
                       match=r"^image_[hw] must be >= 1 and an integer"):
        StreamState(height, width, 30.0)


@pytest.mark.parametrize("warmup", [CFG3.window_len - 1, 2.5, True])
def test_stream_rejects_a_warmup_that_is_not_an_integer_from_window_len(warmup):
    with pytest.raises(ValidationError, match=r"^warmup must be >= 10 and an "
                                              r"integer"):
        StreamState(16, 16, 30.0, CFG3, warmup=warmup)


def test_stream_accepts_a_warmup_of_one_window():
    state = StreamState(16, 16, 30.0, CFG3, warmup=CFG3.window_len)
    assert state.warmup == CFG3.window_len


def test_stream_whose_ring_block_cannot_be_allocated_raises_validation_error():
    # 3.64 PiB, past the 128 TiB x86-64 user address space, so the request
    # fails at once on any host; numpy's MemoryError used to escape
    with pytest.raises(ValidationError, match=r"^warmup 1000000000000 needs a "
                                              r"4095999999987712-byte ring"):
        StreamState(16, 16, 30.0, warmup=10**12)


@pytest.mark.parametrize("warmup, nbytes", [
    (3 * 10**15, 12287999999999987712), (10**17, 409599999999999987712)])
def test_a_ring_block_past_numpys_size_limit_raises_validation_error(
        warmup, nbytes):
    # past the int64 byte count, numpy refuses the request with ValueError
    # before it allocates anything
    with pytest.raises(ValidationError, match=rf"^warmup {warmup} needs a "
                                              rf"{nbytes}-byte ring block"):
        StreamState(16, 16, 30.0, warmup=warmup)


def test_detect_frames_rejects_frames_that_are_not_3d():
    with pytest.raises(ValidationError, match=r"\(30, 64\)"):
        detect_frames(np.zeros((30, 64)), 30.0)


def test_stream_rejects_non_uint8_frames():
    # a float frame already in [0, 1] must not be divided by 255 again
    seq, _ = small_phantom(seed=21)
    state = StreamState(seq.height, seq.width, seq.fps, CFG3)
    with pytest.raises(ValidationError, match="uint8"):
        state.push(seq.frames[0] / 255.0)
    assert state.frames_seen == 0


def test_stream_names_the_dtype_of_a_frame_given_as_a_list():
    # a list once raised AttributeError: 'list' object has no attribute 'shape'
    state = StreamState(4, 5, 30.0, CFG3)
    frame = np.arange(20, dtype=np.uint8).reshape(4, 5)
    with pytest.raises(ValidationError,
                       match=r"^stream frames must be uint8, got int"):
        state.push(frame.tolist())
    with pytest.raises(ValidationError, match="does not match stream"):
        state.push(frame[:3].tolist())
    assert state.frames_seen == 0
    assert state.push(frame) is None and state.frames_seen == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_frames_raise_validation_error(bad):
    # the typed error is the whole report: numpy must not warn first
    seq, _ = small_phantom(seed=5)
    frames = seq.frames_float()
    frames[7, 40, 50] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite"):
            detect_frames(frames, seq.fps, CFG3)


def test_stream_rejects_a_non_finite_energy_map():
    # uint8 frames cannot carry NaN, so poison the running sum the next
    # emitted energy map is computed from (30 frames end a turn of the
    # 21-window ring, so frame 31 updates the sum without a rebuild)
    seq, _ = small_phantom(seed=5)
    state = StreamState(seq.height, seq.width, seq.fps, CFG3)
    for t in range(seq.frame_count):
        state.push(seq.frames[t])
    state._sums[0, 123] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        state.push(seq.frames[-1])


def _noisy(frames, seed):
    """Grey-level frames plus N(0, 1) noise, rounded and clipped to uint8."""
    rng = np.random.default_rng(seed)
    noisy = np.rint(frames + rng.standard_normal(frames.shape))
    return np.clip(noisy, 0, 255).astype(np.uint8)


def _assert_same_detection(got, want):
    assert (got.theta, got.rho) == (want.theta, want.rho)
    assert got.low_confidence_flag == want.low_confidence_flag
    assert got.confidence == pytest.approx(want.confidence, rel=1e-9)
    if want.tip_x is None:
        assert got.tip_x is None
    else:
        assert math.hypot(got.tip_x - want.tip_x,
                          got.tip_y - want.tip_y) <= 1.0


def test_every_stream_emission_matches_batch_on_its_trailing_window():
    # warmup 37: a 28-window power ring, not a multiple of window_len
    warmup = 37
    seq, _ = small_phantom(seed=17, frame_count=120)
    frames = _noisy(seq.frames, seed=5)
    state = StreamState(seq.height, seq.width, seq.fps, CFG3, warmup=warmup)
    emitted = 0
    for t in range(frames.shape[0]):
        out = state.push(frames[t])
        if t + 1 < warmup:
            assert out is None
            continue
        want, _ = detect_frames(frames[t + 1 - warmup: t + 1] / 255.0,
                                seq.fps, CFG3)
        _assert_same_detection(out, want)
        emitted += 1
    assert emitted == frames.shape[0] - warmup + 1


def test_long_stream_does_not_drift_from_batch():
    # 10,000 noisy frames: a 2.5 Hz line for the first half, then the
    # same background without vibration
    h = w = 16
    total, fps, warmup = 10_000, 30.0, 30
    cfg = DetectConfig(vib_freq=2.5)
    background = np.random.default_rng(29).uniform(60.0, 190.0, size=(h, w))
    line = np.zeros((h, w))
    for x in range(2, 14):
        line[min(x // 2 + 4, h - 1), x] = 1.0
    t = np.arange(total)
    tone = np.where(t < total // 2, np.sin(2 * np.pi * 2.5 * t / fps), 0.0)
    frames = _noisy(background + 40.0 * tone[:, None, None] * line, seed=31)
    checks = [warmup - 1, total // 2 - 1, total // 2 + warmup, total - 1]
    state = StreamState(h, w, fps, cfg, warmup=warmup)
    seen = {}
    for i in range(total):
        out = state.push(frames[i])
        if i in checks:
            want, _ = detect_frames(frames[i + 1 - warmup: i + 1] / 255.0,
                                    fps, cfg)
            _assert_same_detection(out, want)
            seen[i] = out
    assert list(seen) == checks
    # the vibrating line, normal (-1, 2), is what the stream found
    line_theta = math.degrees(math.atan2(2.0, -1.0))
    assert angle_error(seen[total // 2 - 1].theta, line_theta) <= 2.0


def test_stream_rejects_a_hop_other_than_one():
    # a trailing window moves one frame per push; batch's hop grid
    # cannot be followed, so the stream refuses it
    with pytest.raises(ValidationError, match="hop"):
        StreamState(64, 64, 30.0, replace(CFG3, hop=3))


def test_stream_longer_than_warmup_keeps_emitting():
    seq, _ = small_phantom(seed=21)
    state = StreamState(seq.height, seq.width, seq.fps, CFG3)
    count = 0
    for t in range(seq.frame_count):
        if state.push(seq.frames[t]) is not None:
            count += 1
    for t in range(5):
        if state.push(seq.frames[-1]) is not None:
            count += 1
    assert count == 6  # one at warm-up, one per frame afterwards


@pytest.mark.parametrize("amplitude", [0.8, 0.0], ids=["vibrating", "off"])
def test_every_noisy_fullsize_emission_decodes_as_the_full_vote(amplitude):
    # an emission finds the peak with _peak; decoding the full image of
    # the same map must give the same answer, and the conservation mean
    # the mean of that image up to rounding
    from vibeline import hough, pipeline
    from vibeline.pipeline import CONFIDENCE_EPS, _decode

    spec = replace(preset("fullsize"), visibility=0.0, artifact_count=1,
                   vib_amplitude=amplitude, frame_count=DEFAULT_WARMUP + 5,
                   seed=1201)
    seq, _ = synth_sequence(spec)
    frames = _noisy(seq.frames, seed=7)
    maps = []

    def spy(values, grid):
        maps.append(values.copy())
        return hough._peak(values, grid)

    def unvoted(values, grid):
        raise AssertionError("a dense emission voted the Hough image")

    state = StreamState(seq.height, seq.width, seq.fps)
    cfg, grid = state.cfg, HoughGrid(seq.height, seq.width)
    emitted = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_peak", spy)
        mp.setattr(pipeline, "hough_transform", unvoted)
        for frame in frames:
            out = state.push(frame)
            if out is not None:
                emitted.append(out)
    # every pixel moves, and no emission builds the Hough image
    assert len(emitted) == len(maps) == 6
    for got, values in zip(emitted, maps):
        image = hough.hough_transform(values, grid)
        peak = float(image.max())
        want = _decode(values, grid, image, None, cfg)
        assert (got.theta, got.rho, got.tip_x, got.tip_y) == \
            (want.theta, want.rho, want.tip_x, want.tip_y)
        assert got.low_confidence_flag == want.low_confidence_flag
        assert got.confidence == want.confidence
        assert got.confidence == pytest.approx(
            peak / (float(image.mean()) + CONFIDENCE_EPS), rel=1e-12, abs=0)


def _flagged_by_the_rule(det, cfg):
    # a detection is flagged exactly when its confidence is below the
    # threshold or it has no tip
    return det.confidence < cfg.confidence_min or det.tip_x is None


@pytest.mark.parametrize("scene, flagged", [
    ("clean", False), ("vibration off", True), ("noisy", True)])
def test_a_fullsize_batch_flag_follows_confidence_and_tip(scene, flagged):
    spec = replace(preset("fullsize"), seed=1000)
    if scene == "vibration off":
        spec = replace(spec, vib_amplitude=0.0)
    seq, _ = synth_sequence(spec)
    frames = _noisy(seq.frames, seed=1000) if scene == "noisy" else seq.frames
    cfg = DetectConfig()
    det, _ = detect_frames(frames, seq.fps, cfg)
    assert det.low_confidence_flag == _flagged_by_the_rule(det, cfg) == flagged


def test_every_noisy_stream_emission_flag_follows_confidence_and_tip():
    spec = replace(preset("fullsize"), seed=1000,
                   frame_count=DEFAULT_WARMUP + 5)
    seq, _ = synth_sequence(spec)
    state = StreamState(seq.height, seq.width, seq.fps)
    emitted = [det for det in map(state.push, _noisy(seq.frames, seed=1000))
               if det is not None]
    assert len(emitted) == 6
    for det in emitted:
        assert det.low_confidence_flag == _flagged_by_the_rule(det, state.cfg)


# --------------------------------------------------------------------------
# Emitted Hough channels
# --------------------------------------------------------------------------

def emitted_channels(tmp_path, seq, gt=None):
    """The channels `vibeline detect --emit-hough` writes for seq at 3 Hz."""
    from vibeline import cli

    seq_path, hough = tmp_path / "a.vibseq", tmp_path / "h.vibmap"
    save_sequence(seq, seq_path)
    extra = []
    if gt is not None:
        save_ground_truth(gt, tmp_path / "a.gt.json")
        extra = ["--hough-gt", str(tmp_path / "a.gt.json")]
    code = cli.main(["detect", "--vib-hz", "3", str(seq_path),
                     "--out", str(tmp_path / "a.json"),
                     "--emit-hough", str(hough)] + extra)
    assert code in (0, 3)
    shaft, tip = read_vibmap(hough)
    return HoughMap(shaft=shaft, tip=tip)


def test_emitted_channels_round_trip(tmp_path):
    seq, gt = small_phantom(seed=23)
    hmap = emitted_channels(tmp_path, seq)
    assert hmap.shaft.max() == 1.0
    det = detect(seq, CFG3)
    grid = HoughGrid(image_h=seq.height, image_w=seq.width,
                     theta_step=CFG3.theta_step, rho_step=CFG3.rho_step)
    tip = tip_from_hough(hmap.tip, grid)
    assert math.hypot(tip[0] - det.tip_x, tip[1] - det.tip_y) <= 1.5


def test_emitted_channels_can_target_ground_truth(tmp_path):
    seq, gt = small_phantom(seed=23)
    hmap = emitted_channels(tmp_path, seq, gt=gt)
    grid = HoughGrid(image_h=seq.height, image_w=seq.width)
    tip = tip_from_hough(hmap.tip, grid)
    assert math.hypot(tip[0] - gt.tip_x, tip[1] - gt.tip_y) <= 1.5


def test_accurate_detection_scores_better_than_perturbed(tmp_path):
    seq, gt = small_phantom(seed=25)
    hmap = emitted_channels(tmp_path, seq)
    grid = HoughGrid(image_h=seq.height, image_w=seq.width)
    truth = render_truth_map(grid, gt.theta, gt.rho, gt.tip_x, gt.tip_y,
                             shaft_sigma=2.0, tip_sigma=CFG3.tip_sigma)
    det = detect(seq, CFG3)
    skewed = render_truth_map(grid, det.theta + 10.0, det.rho,
                              det.tip_x, det.tip_y,
                              shaft_sigma=2.0, tip_sigma=CFG3.tip_sigma)
    good = hybrid_loss(hmap, truth)
    bad = hybrid_loss(skewed, truth)
    assert good < bad


# --------------------------------------------------------------------------
# Config, detection record, calibration
# --------------------------------------------------------------------------

def test_detection_dict_round_trip():
    det = Detection(theta=30.0, rho=50.0, tip_x=50.2, tip_y=13.0,
                    confidence=76.5, low_confidence_flag=False)
    d = det.to_dict()
    assert set(d) == {"theta_deg", "rho_px", "tip_x_px", "tip_y_px",
                      "confidence", "low_confidence"}


def test_detection_dict_none_tip_maps_to_null():
    det = Detection(theta=0.0, rho=0.0, tip_x=None, tip_y=None,
                    confidence=0.0, low_confidence_flag=True)
    d = det.to_dict()
    assert d["tip_x_px"] is None and d["tip_y_px"] is None


def test_detect_config_validation():
    with pytest.raises(ValidationError):
        DetectConfig(vib_freq=0.0)
    with pytest.raises(ValidationError):
        DetectConfig(window_len=1)
    with pytest.raises(ValidationError):
        DetectConfig(hop=0)
    with pytest.raises(ValidationError):
        DetectConfig(profile_threshold=1.5)
    with pytest.raises(ValidationError):
        DetectConfig(entry_side="middle")

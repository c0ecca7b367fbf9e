"""Sequence container, the shared VIBSEQ01/VIBMAP01 framing, the
intensity rule."""

import dataclasses
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vibeline import (
    BoundsError,
    FormatError,
    SizeMismatchError,
    UsSequence,
    ValidationError,
    load_sequence,
    pixel_signal,
    read_vibmap,
    save_sequence,
    write_vibmap,
)
from vibeline.core import _bilinear_clamped, _unit_float


def random_sequence(seed=0, t=7, h=20, w=24, fps=30.0, spacing=0.15):
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, size=(t, h, w), dtype=np.uint8)
    return UsSequence(frames, fps=fps, pixel_spacing=spacing)


# --------------------------------------------------------------------------
# Round-trips
# --------------------------------------------------------------------------

def test_save_load_round_trip_is_equal(tmp_path):
    seq = random_sequence(seed=3)
    path = tmp_path / "a.vibseq"
    save_sequence(seq, path)
    assert load_sequence(path) == seq


def test_save_is_byte_stable(tmp_path):
    seq = random_sequence(seed=4)
    p1 = tmp_path / "a.vibseq"
    p2 = tmp_path / "b.vibseq"
    save_sequence(seq, p1)
    save_sequence(load_sequence(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_floats_are_coerced_to_f32_at_construction(tmp_path):
    # fps and spacing travel as 32-bit floats on disk; the constructor
    # coerces up front so the round-trip compares equal field for field.
    seq = UsSequence(np.zeros((2, 16, 16), np.uint8),
                     fps=30.0000001, pixel_spacing=0.1)
    assert seq.fps == float(np.float32(30.0000001))
    assert seq.pixel_spacing == float(np.float32(0.1))
    path = tmp_path / "c.vibseq"
    save_sequence(seq, path)
    back = load_sequence(path)
    assert back.fps == seq.fps
    assert back.pixel_spacing == seq.pixel_spacing


def test_file_layout_is_frame_major_row_major(tmp_path):
    seq = random_sequence(seed=5, t=3, h=16, w=17)
    path = tmp_path / "d.vibseq"
    save_sequence(seq, path)
    blob = path.read_bytes()
    assert blob[:8] == b"VIBSEQ01"
    payload = np.frombuffer(blob[8 + 20:], dtype=np.uint8)
    assert np.array_equal(payload.reshape(3, 16, 17), seq.frames)


def test_header_stores_height_width_frames_in_that_order(tmp_path):
    # T, H and W all differ, so a swapped field order cannot round-trip
    seq = random_sequence(seed=6, t=3, h=17, w=19)
    path = tmp_path / "e.vibseq"
    save_sequence(seq, path)
    assert struct.unpack_from("<III", path.read_bytes(), 8) == (17, 19, 3)


# --------------------------------------------------------------------------
# Malformed files
# --------------------------------------------------------------------------

def test_bad_magic_raises_format_error(tmp_path):
    path = tmp_path / "bad.vibseq"
    path.write_bytes(b"NOTASEQ0" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_sequence(path)


def test_truncated_payload_raises_size_mismatch(tmp_path):
    seq = random_sequence(seed=6)
    path = tmp_path / "t.vibseq"
    save_sequence(seq, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(SizeMismatchError):
        load_sequence(path)
    # a header that lies about a huge payload fails before any allocation
    path.write_bytes(blob[:8] + struct.pack("<III ff", 2**32 - 1, 2**32 - 1,
                                            2**32 - 1, 30.0, 0.1) + b"\x00")
    with pytest.raises(SizeMismatchError):
        load_sequence(path)


def test_trailing_bytes_raise_size_mismatch(tmp_path):
    seq = random_sequence(seed=7)
    path = tmp_path / "t.vibseq"
    save_sequence(seq, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(SizeMismatchError):
        load_sequence(path)


def test_truncated_header_raises_size_mismatch(tmp_path):
    path = tmp_path / "h.vibseq"
    path.write_bytes(b"VIBSEQ01" + b"\x01\x02")
    with pytest.raises(SizeMismatchError):
        load_sequence(path)


def test_every_truncation_and_one_extra_byte_raise(tmp_path):
    seq_path, map_path = tmp_path / "f.vibseq", tmp_path / "f.vibmap"
    save_sequence(random_sequence(seed=14, t=1, h=16, w=16), seq_path)
    write_vibmap(map_path, np.arange(24, dtype=np.float32).reshape(2, 3, 4))
    for path, load in [(seq_path, load_sequence), (map_path, read_vibmap)]:
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            # a cut inside the magic is a bad magic; any later one a size error
            with pytest.raises(FormatError if cut < 8 else SizeMismatchError):
                load(path)
        path.write_bytes(blob + b"\x00")
        with pytest.raises(SizeMismatchError):
            load(path)


def test_lying_vibmap_header_raises_before_allocating(tmp_path, monkeypatch):
    path = tmp_path / "lie.vibmap"
    # 2**96 floats: allocating first would fail with a numpy error instead
    path.write_bytes(b"VIBMAP01" + struct.pack("<III", *[2**32 - 1] * 3)
                     + b"\x00" * 4)
    with pytest.raises(SizeMismatchError):
        read_vibmap(path)
    allocs = []
    real_empty = np.empty

    def spy(*args, **kw):
        allocs.append(args)
        return real_empty(*args, **kw)

    monkeypatch.setattr(np, "empty", spy)
    path.write_bytes(b"VIBMAP01" + struct.pack("<III", 4, 4, 2) + b"\x00" * 8)
    with pytest.raises(SizeMismatchError):
        read_vibmap(path)
    assert allocs == []


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_sequence(tmp_path / "nope.vibseq")


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

def test_too_small_image_rejected():
    with pytest.raises(ValidationError):
        UsSequence(np.zeros((2, 8, 8), np.uint8), 30.0, 0.1)


def test_nonpositive_fps_and_spacing_rejected():
    frames = np.zeros((2, 16, 16), np.uint8)
    with pytest.raises(ValidationError):
        UsSequence(frames, 0.0, 0.1)
    with pytest.raises(ValidationError):
        UsSequence(frames, 30.0, -1.0)


@pytest.mark.parametrize("fps, spacing", [
    (math.inf, 0.1), (30.0, math.inf), (math.nan, 0.1), (30.0, math.nan),
    (-math.inf, 0.1), (1e300, 0.1), (30.0, 1e300),  # 1e300 overflows float32
])
def test_non_finite_fps_and_spacing_rejected(fps, spacing):
    with pytest.raises(ValidationError):
        UsSequence(np.zeros((2, 16, 16), np.uint8), fps, spacing)


@pytest.mark.parametrize("field", [3, 4])  # fps, pixel spacing
def test_non_finite_header_field_rejected_on_load(tmp_path, field):
    path = tmp_path / "inf.vibseq"
    save_sequence(random_sequence(seed=15), path)
    blob = bytearray(path.read_bytes())
    fields = list(struct.unpack_from("<III ff", blob, 8))
    fields[field] = math.inf
    struct.pack_into("<III ff", blob, 8, *fields)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValidationError, match="finite"):
        load_sequence(path)


@pytest.mark.parametrize("shape", [(16, 16), (2, 16, 16, 1)])
def test_a_stack_that_is_not_three_dimensional_is_rejected(shape):
    # numpy's tuple unpacking raised a bare ValueError here
    with pytest.raises(ValidationError, match=re.escape(
            f"frames must be a (T, H, W) stack, got shape {shape}")):
        UsSequence(np.zeros(shape, np.uint8), 30.0, 0.1)


def test_wrong_dtype_rejected():
    with pytest.raises(ValidationError):
        UsSequence(np.zeros((2, 16, 16), np.float32), 30.0, 0.1)


@pytest.mark.parametrize("name", ["fps", "pixel_spacing"])
@pytest.mark.parametrize("value", ["30", True, None, 1e39, 1e-50, 10 ** 400,
                                   pytest.param(10 ** 5000, id="10**5000")])
def test_a_setting_that_is_not_a_positive_float32_is_rejected(name, value):
    # a str, a bool or None is not a number; 1e39 overflows float32 to
    # inf, 1e-50 underflows it to 0, 10**400 is past the float range, and
    # 10**5000 past the digits an int may print
    settings = {"fps": 30.0, "pixel_spacing": 0.1, name: value}
    with pytest.raises(ValidationError, match=name):
        UsSequence(np.zeros((2, 16, 16), np.uint8), **settings)


# --------------------------------------------------------------------------
# A sequence is its frames
# --------------------------------------------------------------------------

def test_the_fields_are_the_frames_and_two_settings():
    assert [f.name for f in dataclasses.fields(UsSequence)] == [
        "frames", "fps", "pixel_spacing"]


def test_the_shape_is_read_from_the_frames():
    seq = random_sequence(t=3, h=17, w=19)
    assert (seq.frame_count, seq.height, seq.width) == seq.frames.shape
    assert seq.frames.shape == (3, 17, 19)


def test_a_c_ordered_stack_is_shared_and_frozen():
    frames = np.zeros((2, 16, 16), np.uint8)
    seq = UsSequence(frames, 30.0, 0.1)
    assert np.shares_memory(seq.frames, frames)
    assert not frames.flags.writeable


def test_a_strided_view_is_stored_c_ordered_and_equals_its_copy():
    frames = np.random.default_rng(9).integers(0, 256, (2, 16, 18), np.uint8)
    view = frames[:, :, ::-1]
    seq = UsSequence(view, 30.0, 0.1)
    assert seq.frames.flags.c_contiguous
    assert not np.shares_memory(seq.frames, frames)
    assert frames.flags.writeable
    assert seq == UsSequence(view.copy(), 30.0, 0.1)
    assert (seq.height, seq.width) == (16, 18)


def test_frames_buffer_is_read_only():
    seq = random_sequence(seed=8)
    with pytest.raises(ValueError):
        seq.frames[0, 0, 0] = 1


# --------------------------------------------------------------------------
# pixel_signal
# --------------------------------------------------------------------------

def test_all_zero_frames_give_zero_signal():
    seq = UsSequence(np.zeros((6, 16, 16), np.uint8), 30.0, 0.1)
    sig = pixel_signal(seq, 5, 5)
    assert sig.shape == (6,)
    assert np.all(sig == 0.0)


def test_single_bright_frame_gives_unit_spike():
    frames = np.zeros((6, 16, 16), np.uint8)
    frames[3] = 255
    seq = UsSequence(frames, 30.0, 0.1)
    sig = pixel_signal(seq, 2, 9)
    assert np.array_equal(sig, [0, 0, 0, 1, 0, 0])


def test_pixel_signal_matches_direct_indexing():
    seq = random_sequence(seed=9)
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = int(rng.integers(0, seq.width))
        y = int(rng.integers(0, seq.height))
        expect = seq.frames[:, y, x].astype(np.float64) / 255.0
        assert np.array_equal(pixel_signal(seq, x, y), expect)


def test_pixel_signal_range_and_length():
    seq = random_sequence(seed=11, t=13)
    sig = pixel_signal(seq, 0, 0)
    assert sig.shape == (13,)
    assert sig.min() >= 0.0 and sig.max() <= 1.0


def test_pixel_signal_out_of_bounds():
    seq = random_sequence(seed=12)
    for x, y in [(-1, 0), (0, -1), (seq.width, 0), (0, seq.height)]:
        with pytest.raises(BoundsError):
            pixel_signal(seq, x, y)


@pytest.mark.parametrize("x, y, name", [(1.5, 2, "x"), (1, 2.0, "y"),
                                        (True, 2, "x"), ("1", 2, "x")])
def test_pixel_signal_rejects_a_coordinate_that_is_not_an_integer(x, y, name):
    # seq.frames[:, 2, 1.5] raised numpy's bare IndexError
    seq = random_sequence(seed=12)
    with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
        pixel_signal(seq, x, y)
    assert np.array_equal(pixel_signal(seq, np.int64(1), np.uint8(2)),
                          pixel_signal(seq, 1, 2))


def test_frames_float_matches_pixel_signal():
    seq = random_sequence(seed=13)
    f = seq.frames_float()
    assert f.shape == (seq.frame_count, seq.height, seq.width)
    assert np.array_equal(f[:, 4, 7], pixel_signal(seq, 7, 4))
    assert np.array_equal(f, seq.frames.astype(np.float64) / 255.0)


def test_unit_float_equals_astype_divide_on_every_level():
    levels = np.arange(256, dtype=np.uint8)
    expect = levels.astype(np.float64) / 255
    got = _unit_float(levels)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))
    # out= into a strided ring row, as a stream writes one frame
    ring = np.full((3, 512), np.nan)
    row = ring[1, ::2]
    assert _unit_float(levels, out=row) is row
    assert np.array_equal(row.view(np.int64), expect.view(np.int64))
    assert np.isnan(ring[1, 1::2]).all() and np.isnan(ring[[0, 2]]).all()
    square = ring[2].reshape(16, 32)[:, ::2]
    _unit_float(levels.reshape(16, 16), out=square)
    assert np.array_equal(square.ravel().view(np.int64), expect.view(np.int64))


# --------------------------------------------------------------------------
# Round trips of random files (Hypothesis)
# --------------------------------------------------------------------------

positive_f32 = st.floats(min_value=2.0**-100, max_value=2.0**100, width=32)


@settings(max_examples=40, deadline=None)
@given(frames=st.tuples(st.integers(1, 4), st.integers(16, 21),
                        st.integers(16, 21)).flatmap(
                            lambda shape: arrays(np.uint8, shape)),
       fps=positive_f32, spacing=positive_f32)
def test_vibseq_round_trip_is_bit_exact(tmp_path_factory, frames, fps, spacing):
    seq = UsSequence(frames, fps, spacing)
    path = tmp_path_factory.mktemp("seq") / "r.vibseq"
    save_sequence(seq, path)
    back = load_sequence(path)
    assert back == seq
    assert (back.fps, back.pixel_spacing) == (fps, spacing)
    assert path.stat().st_size == 8 + 20 + frames.size


@settings(max_examples=40, deadline=None)
@given(arr=st.tuples(st.integers(0, 3), st.integers(0, 6),
                     st.integers(0, 6)).flatmap(
                         lambda shape: arrays(np.float32, shape)))
def test_vibmap_round_trip_is_bit_exact(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("map") / "r.vibmap"
    write_vibmap(path, arr)
    back = read_vibmap(path)
    assert back.shape == arr.shape
    # bit patterns, so NaN payloads and -0.0 count too
    assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))
    if arr.shape[0] == 1:
        write_vibmap(path, arr[0])
        assert np.array_equal(read_vibmap(path).view(np.uint32),
                              arr.view(np.uint32))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
           lambda shape: arrays(np.float64, shape, elements=_FINITE)),
       st.sampled_from([0.0, -0.0, 1e-300, 5e-324]))
# neighbours whose difference overflows: a lerp v + (u - v) * 0.0 is NaN
@example(np.array([[1e308, -1e308], [-1e308, 1e308]]), 0.0)
def test_bilinear_sampler_returns_the_texel_at_an_integer_coordinate(img, d):
    # synthesis samples its moving pixels in every frame, relying on this;
    # x - d == x for the displacements d drawn here (clamped at x = 0)
    h, w = img.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    got = _bilinear_clamped(img, xs - d, ys - d)
    assert np.array_equal(got, img)
    # bit for bit, except that -0.0 may come back as +0.0
    signed = ~((img == 0.0) & np.signbit(img))
    assert got[signed].tobytes() == img[signed].tobytes()


def test_bilinear_sampler_clamps_copies_of_its_coordinates():
    img = np.arange(12.0).reshape(3, 4)  # img[y, x] = 4 y + x
    xs = np.array([-1.5, 0.25, 3.0, 7.0])
    ys = np.array([-2.0, 1.5, 2.0, 9.0])
    got = _bilinear_clamped(img, xs, ys)
    assert got.tolist() == [0.0, 6.25, 11.0, 11.0]
    assert xs.tolist() == [-1.5, 0.25, 3.0, 7.0]
    assert ys.tolist() == [-2.0, 1.5, 2.0, 9.0]

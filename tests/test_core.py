"""Sequence container and VIBSEQ01 round-trip behavior."""

import struct

import numpy as np
import pytest

from vibeline import (
    BoundsError,
    FormatError,
    SizeMismatchError,
    UsSequence,
    ValidationError,
    load_sequence,
    make_sequence,
    pixel_signal,
    save_sequence,
)


def random_sequence(seed=0, t=7, h=20, w=24, fps=30.0, spacing=0.15):
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, size=(t, h, w), dtype=np.uint8)
    return make_sequence(frames, fps=fps, pixel_spacing=spacing)


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
    seq = make_sequence(np.zeros((2, 16, 16), np.uint8),
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


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_sequence(tmp_path / "nope.vibseq")


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

def test_too_small_image_rejected():
    with pytest.raises(ValidationError):
        make_sequence(np.zeros((2, 8, 8), np.uint8), 30.0, 0.1)


def test_nonpositive_fps_and_spacing_rejected():
    frames = np.zeros((2, 16, 16), np.uint8)
    with pytest.raises(ValidationError):
        make_sequence(frames, 0.0, 0.1)
    with pytest.raises(ValidationError):
        make_sequence(frames, 30.0, -1.0)


def test_wrong_dtype_rejected():
    with pytest.raises(ValidationError):
        UsSequence(height=16, width=16, frame_count=2, fps=30.0,
                   pixel_spacing=0.1,
                   frames=np.zeros((2, 16, 16), np.float32))


def test_frames_buffer_is_read_only():
    seq = random_sequence(seed=8)
    with pytest.raises(ValueError):
        seq.frames[0, 0, 0] = 1


# --------------------------------------------------------------------------
# pixel_signal
# --------------------------------------------------------------------------

def test_all_zero_frames_give_zero_signal():
    seq = make_sequence(np.zeros((6, 16, 16), np.uint8), 30.0, 0.1)
    sig = pixel_signal(seq, 5, 5)
    assert sig.shape == (6,)
    assert np.all(sig == 0.0)


def test_single_bright_frame_gives_unit_spike():
    frames = np.zeros((6, 16, 16), np.uint8)
    frames[3] = 255
    seq = make_sequence(frames, 30.0, 0.1)
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


def test_frames_float_matches_pixel_signal():
    seq = random_sequence(seed=13)
    f = seq.frames_float()
    assert f.shape == (seq.frame_count, seq.height, seq.width)
    assert np.array_equal(f[:, 4, 7], pixel_signal(seq, 7, 4))
    assert np.array_equal(f, seq.frames.astype(np.float64) / 255.0)

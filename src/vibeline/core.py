"""Sequence container, the VIBSEQ01/VIBMAP01 formats, and shared rules.

A sequence is T grayscale frames of H x W 8-bit samples plus the two
acquisition constants everything downstream needs: frame rate (fps) and
pixel spacing (mm per pixel).  A UsSequence is its frames: it takes its
shape from them and checks itself when built.  Every uint8 sample
becomes a float by one rule, _unit_float (value / 255), and every snapped
cos / sin comes from _snapped_cos_sin.  Both file formats share one
framing, kept here; like every output file, a framed file is opened by
metrics._open_output.  The phantom generator and the detector share the
entry-border table, its one check (_inward), and the bilinear sampler
kept here, so detection never imports the generator.  The generator and
the Hough renderers share one Gaussian reach rule (_EXP_ZERO_REACH,
_reach_slice).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (BoundsError, FormatError, SizeMismatchError,
                     ValidationError, _check_setting)
from .metrics import _open_output

MAGIC = b"VIBSEQ01"
_HEADER = struct.Struct("<III ff")  # H, W, T, fps, pixel spacing (mm)
VIBMAP_MAGIC = b"VIBMAP01"
_VIBMAP_HEADER = struct.Struct("<III")  # rows, cols, channels

# exp(x) is exactly 0.0 in float64 for every x < -745.14, so a Gaussian
# exp(-d**2 / (2 sigma**2)) is exactly 0.0 wherever d > sigma * this
_EXP_ZERO_REACH = math.sqrt(2.0 * 746.0)

# entry side -> unit (x, y) vector from that border into the image
INWARD = {"left": (1.0, 0.0), "right": (-1.0, 0.0),
          "top": (0.0, 1.0), "bottom": (0.0, -1.0)}


def _inward(side) -> tuple:
    """INWARD[side]; one ValidationError for any side not among its keys."""
    if isinstance(side, str) and side in INWARD:
        return INWARD[side]
    raise ValidationError(
        f"entry_side must be one of {tuple(INWARD)}, got {side!r}")


@dataclass(frozen=True, eq=False)
class UsSequence:
    """Immutable stack of grayscale frames with acquisition metadata.

    frames has shape (T, H, W), dtype uint8, frame-major then row-major,
    matching the on-disk layout byte for byte; a C-ordered array is
    wrapped without a copy.  height, width and frame_count are read from
    its shape.
    """

    frames: np.ndarray = field(repr=False)
    fps: float
    pixel_spacing: float

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UsSequence):
            return NotImplemented
        return ((self.fps, self.pixel_spacing)
                == (other.fps, other.pixel_spacing)
                and np.array_equal(self.frames, other.frames))

    def __post_init__(self):
        frames = np.ascontiguousarray(self.frames)
        if frames.ndim != 3:
            raise ValidationError(
                f"frames must be a (T, H, W) stack, got shape {frames.shape}")
        object.__setattr__(self, "frames", frames)
        for name, lo in (("height", 16), ("width", 16), ("frame_count", 1)):
            _check_setting(name, getattr(self, name), lo, lo_closed=True, integer=True)
        if frames.dtype != np.uint8:
            raise ValidationError(f"frames must be uint8, got {frames.dtype}")
        # The file header stores fps and spacing as 32-bit floats; coerce
        # here so save -> load round-trips compare equal field for field.
        # The value is checked before (no bool, str or None) and after
        # (no overflow to inf, no underflow to 0) the coercion.
        for name in ("fps", "pixel_spacing"):
            _check_setting(name, getattr(self, name), 0)
            with np.errstate(over="ignore"):
                value = float(np.float32(getattr(self, name)))
            _check_setting(name, value, 0)
            object.__setattr__(self, name, value)
        # Freeze the pixel buffer so a loaded sequence is safe to share.
        frames.setflags(write=False)

    def frames_float(self) -> np.ndarray:
        """All frames as float64 in [0, 1], shape (T, H, W)."""
        return _unit_float(self.frames)


def _unit_float(u8: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """uint8 samples as float64 value / 255 in [0, 1], written into out if given."""
    return np.divide(u8, 255.0, out=out, dtype=np.float64)


def _snapped_cos_sin(rad: np.ndarray):
    """cos / sin of a 1-D angle array, snapped to exact 0 and +-1.

    Floating-point pi leaves np.cos(pi/2) a 6e-17 dust value; snapping
    |v| < 1e-14 to 0 and v within 1e-15 of +-1 to +-1 makes axis-aligned
    Hough lines and quarter-turn DFT phases exact.
    """
    c = np.cos(rad)
    s = np.sin(rad)
    for arr in (c, s):
        arr[np.abs(arr) < 1e-14] = 0.0
        arr[np.abs(arr - 1.0) < 1e-15] = 1.0
        arr[np.abs(arr + 1.0) < 1e-15] = -1.0
    return c, s


def _reach_slice(lo: float, hi: float, n: int) -> slice:
    """Slice of the indices 0 .. n-1 that lie in [lo - 1, hi + 1].

    The one-index margin absorbs rounding in the distances callers
    compare against a reach; a NaN bound selects every index.
    """
    if math.isnan(lo) or math.isnan(hi):
        return slice(0, n)
    start = math.ceil(min(max(lo - 1.0, 0.0), n))
    stop = math.floor(min(max(hi + 1.0, -1.0), n - 1.0)) + 1
    return slice(start, max(start, stop))


def _read_framed(path, magic: bytes, header: struct.Struct, dtype):
    """(header fields f, payload of shape (f[2], f[0], f[1])) of a framed file.

    A framed file is magic, a little-endian header, then the raw payload.
    Raises FormatError on a bad magic, SizeMismatchError on a truncated
    header or a payload of any size other than the header promises; both
    checks come before the payload buffer is allocated.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(magic) + header.size)
        if head[: len(magic)] != magic:
            raise FormatError(f"{path}: not a {magic.decode()} file (bad magic)")
        if len(head) < len(magic) + header.size:
            raise SizeMismatchError(f"{path}: truncated header")
        f = header.unpack_from(head, len(magic))
        shape = (f[2], f[0], f[1])
        need = math.prod(shape) * np.dtype(dtype).itemsize
        have = fh.seek(0, os.SEEK_END) - len(head)
        fh.seek(len(head))
        if have != need:
            raise SizeMismatchError(
                f"{path}: header promises {need} payload bytes, file has {have}"
            )
        payload = np.empty(shape, dtype=dtype)
        got = fh.readinto(payload)
        if got != need:
            raise SizeMismatchError(f"{path}: read {got} of {need} payload bytes")
    return f, payload


def _write_framed(path, magic: bytes, header: struct.Struct,
                  payload: np.ndarray, *extra) -> None:
    """Write magic, header (shape[1], shape[2], shape[0], *extra), payload."""
    t, h, w = payload.shape
    with _open_output(path, "wb") as fh:
        fh.write(magic)
        fh.write(header.pack(h, w, t, *extra))
        fh.write(np.ascontiguousarray(payload))


def load_sequence(path) -> UsSequence:
    """Read a VIBSEQ01 file.

    Raises FormatError on a bad magic, SizeMismatchError when the payload
    is shorter or longer than the header promises (checked before any
    pixel buffer is allocated), ValidationError on nonsense
    header fields.  A missing file raises the usual OSError family.
    """
    (*_, fps, spacing), frames = _read_framed(path, MAGIC, _HEADER, np.uint8)
    return UsSequence(frames, fps, spacing)


def save_sequence(seq: UsSequence, path) -> None:
    """Write a VIBSEQ01 file; load_sequence(save_sequence(x)) is bit-exact."""
    _write_framed(path, MAGIC, _HEADER, seq.frames, seq.fps, seq.pixel_spacing)


def write_vibmap(path, array: np.ndarray) -> None:
    """Write a (rows, cols) or (channels, rows, cols) array as VIBMAP01.

    VIBMAP01 holds energy maps, spectrograms and Hough channels as
    little-endian float32, channel-major then row-major.
    """
    arr = np.asarray(array, dtype="<f4")
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3:
        raise ValidationError(f"expected 2-D or 3-D array, got shape {arr.shape}")
    _write_framed(path, VIBMAP_MAGIC, _VIBMAP_HEADER, arr)


def read_vibmap(path) -> np.ndarray:
    """Read a VIBMAP01 file; always returns shape (channels, rows, cols)."""
    return _read_framed(path, VIBMAP_MAGIC, _VIBMAP_HEADER, "<f4")[1]


def pixel_signal(seq: UsSequence, x: int, y: int) -> np.ndarray:
    """Temporal signal of one pixel, normalized to [0, 1], length T.

    x is the column, y the row (integers), origin at the top-left corner.
    """
    for name, value in (("x", x), ("y", y)):
        _check_setting(name, value, integer=True)
    if not (0 <= x < seq.width and 0 <= y < seq.height):
        raise BoundsError(
            f"pixel ({x}, {y}) outside {seq.width}x{seq.height} image"
        )
    return _unit_float(seq.frames[:, y, x])


def _bilinear_clamped(img: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear samples of a float64 image at (xs, ys), edge-clamped.

    xs and ys are broadcast to one shape, which the result takes.  At an
    integer (x, y), border rows and columns too, a finite texel v comes
    back bit for bit (v * 1.0 + u * 0.0 == v), though -0.0 may become +0.0.
    The four texels are gathered by flat index."""
    h, w = img.shape
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    row0 = y0 * w
    row1 = np.minimum(y0 + 1, h - 1) * w
    fx = xs - x0
    fy = ys - y0
    top = img.take(row0 + x0) * (1.0 - fx) + img.take(row0 + x1) * fx
    bot = img.take(row1 + x0) * (1.0 - fx) + img.take(row1 + x1) * fx
    return top * (1.0 - fy) + bot * fy

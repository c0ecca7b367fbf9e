"""Sequence container and the VIBSEQ01 binary format.

A sequence is T grayscale frames of H x W 8-bit samples plus the two
acquisition constants everything downstream needs: frame rate (fps) and
pixel spacing (mm per pixel).  Intensities become floats as value / 255,
in `pixel_signal` / `frames_float` here and in `StreamState.push`.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsError, FormatError, SizeMismatchError, ValidationError

MAGIC = b"VIBSEQ01"
_HEADER = struct.Struct("<III ff")  # H, W, T, fps, pixel_spacing_mm


@dataclass(frozen=True, eq=False)
class UsSequence:
    """Immutable stack of grayscale frames with acquisition metadata.

    frames has shape (T, H, W), dtype uint8, frame-major then row-major,
    matching the on-disk layout byte for byte.
    """

    height: int
    width: int
    frame_count: int
    fps: float
    pixel_spacing: float
    frames: np.ndarray = field(repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UsSequence):
            return NotImplemented
        return (
            (self.height, self.width, self.frame_count,
             self.fps, self.pixel_spacing)
            == (other.height, other.width, other.frame_count,
                other.fps, other.pixel_spacing)
            and np.array_equal(self.frames, other.frames)
        )

    def __post_init__(self):
        # The file header stores fps and spacing as 32-bit floats; coerce
        # here so save -> load round-trips compare equal field for field.
        object.__setattr__(self, "fps", float(np.float32(self.fps)))
        object.__setattr__(self, "pixel_spacing", float(np.float32(self.pixel_spacing)))
        validate_sequence(self)
        # Freeze the pixel buffer so a loaded sequence is safe to share.
        self.frames.setflags(write=False)

    def frames_float(self) -> np.ndarray:
        """All frames as float64 in [0, 1], shape (T, H, W)."""
        out = self.frames.astype(np.float64)
        out /= 255.0
        return out


def validate_sequence(seq: UsSequence) -> None:
    if seq.height < 16 or seq.width < 16:
        raise ValidationError(
            f"image must be at least 16x16, got {seq.height}x{seq.width}"
        )
    if seq.frame_count < 1:
        raise ValidationError("frame_count must be positive")
    if not (seq.fps > 0):
        raise ValidationError(f"fps must be > 0, got {seq.fps}")
    if not (seq.pixel_spacing > 0):
        raise ValidationError(f"pixel_spacing must be > 0, got {seq.pixel_spacing}")
    if seq.frames.dtype != np.uint8:
        raise ValidationError(f"frames must be uint8, got {seq.frames.dtype}")
    expect = (seq.frame_count, seq.height, seq.width)
    if seq.frames.shape != expect:
        raise ValidationError(
            f"frames shape {seq.frames.shape} does not match header {expect}"
        )


def make_sequence(frames: np.ndarray, fps: float, pixel_spacing: float) -> UsSequence:
    """Wrap a (T, H, W) uint8 array without copying."""
    frames = np.ascontiguousarray(frames)
    t, h, w = frames.shape
    return UsSequence(
        height=h, width=w, frame_count=t, fps=float(fps),
        pixel_spacing=float(pixel_spacing), frames=frames,
    )


def load_sequence(path) -> UsSequence:
    """Read a VIBSEQ01 file.

    Raises FormatError on a bad magic, SizeMismatchError when the payload
    is shorter or longer than the header promises (checked before any
    pixel buffer is allocated), ValidationError on nonsense
    header fields.  A missing file raises the usual OSError family.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC) + _HEADER.size)
        if len(head) < len(MAGIC) or head[: len(MAGIC)] != MAGIC:
            raise FormatError(f"{path}: not a VIBSEQ01 file (bad magic)")
        if len(head) < len(MAGIC) + _HEADER.size:
            raise SizeMismatchError(f"{path}: truncated header")
        h, w, t, fps, spacing = _HEADER.unpack_from(head, len(MAGIC))
        need = t * h * w
        have = fh.seek(0, os.SEEK_END) - len(head)
        fh.seek(len(head))
        if have < need:
            raise SizeMismatchError(
                f"{path}: header promises {need} pixel bytes, file has {have}"
            )
        if have > need:
            raise SizeMismatchError(
                f"{path}: {have - need} trailing bytes after pixel payload"
            )
        # the one copy of the pixels: read straight into the frame buffer
        frames = np.empty((t, h, w), dtype=np.uint8)
        got = fh.readinto(frames)
        if got != need:
            raise SizeMismatchError(
                f"{path}: read {got} of {need} pixel bytes"
            )
    return UsSequence(
        height=h, width=w, frame_count=t, fps=fps,
        pixel_spacing=spacing, frames=frames,
    )


def save_sequence(seq: UsSequence, path) -> None:
    """Write a VIBSEQ01 file; load_sequence(save_sequence(x)) is bit-exact."""
    validate_sequence(seq)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(seq.height, seq.width, seq.frame_count,
                              seq.fps, seq.pixel_spacing))
        fh.write(seq.frames.tobytes())


def pixel_signal(seq: UsSequence, x: int, y: int) -> np.ndarray:
    """Temporal signal of one pixel, normalized to [0, 1], length T.

    x is the column, y the row, origin at the top-left corner.
    """
    if not (0 <= x < seq.width and 0 <= y < seq.height):
        raise BoundsError(
            f"pixel ({x}, {y}) outside {seq.width}x{seq.height} image"
        )
    return seq.frames[:, y, x].astype(np.float64) / 255.0

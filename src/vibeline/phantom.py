"""Synthetic vibrating-speckle sequences with exact ground truth.

The scene model is deliberately minimal: a spatially correlated speckle
texture, a straight needle segment entering from one border, tissue
around the shaft that co-moves with the needle's transverse vibration
(Gaussian falloff with distance from the segment, no motion past the
tip plane), optional static bright distractor lines, and an optional
additive ridge that makes the needle itself visible.  At visibility 0
the needle leaves no per-frame signature at all; only the warped
speckle carries it, which is the regime the detector is built for.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from .core import INWARD, _bilinear_clamped, make_sequence
from .errors import FormatError, ValidationError

NEEDLE_RIDGE_SIGMA = 1.0  # px, additive brightness profile of the shaft
NEEDLE_RIDGE_PEAK = 0.5


@dataclass(frozen=True)
class PhantomSpec:
    height: int = 328
    width: int = 335
    frame_count: int = 30
    fps: float = 30.0
    pixel_spacing: float = 0.15
    needle_angle: float = 30.0          # normal-form line angle, degrees
    needle_entry: tuple = (0.0, 280.0)  # (x, y) on the entry_side border
    needle_length: float = 260.0
    vib_freq: float = 2.5
    vib_amplitude: float = 0.8          # px, transverse displacement
    motion_sigma: float = 1.0           # px, co-moving tissue falloff
    visibility: float = 1.0
    artifact_count: int = 0
    speckle_grain: float = 1.5
    entry_side: str = "left"
    seed: int = 0


@dataclass(frozen=True)
class GroundTruth:
    theta: float
    rho: float
    tip_x: float
    tip_y: float
    pixel_spacing: float

    def to_dict(self) -> dict:
        return {
            "theta_deg": self.theta,
            "rho_px": self.rho,
            "tip_x_px": self.tip_x,
            "tip_y_px": self.tip_y,
            "pixel_spacing_mm": self.pixel_spacing,
        }

    @staticmethod
    def from_dict(d: dict) -> "GroundTruth":
        return GroundTruth(
            theta=float(d["theta_deg"]), rho=float(d["rho_px"]),
            tip_x=float(d["tip_x_px"]), tip_y=float(d["tip_y_px"]),
            pixel_spacing=float(d["pixel_spacing_mm"]),
        )


def save_ground_truth(gt: GroundTruth, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(gt.to_dict(), fh, indent=2)
        fh.write("\n")


def load_ground_truth(path) -> GroundTruth:
    """Read a .gt.json file; FormatError names a file that does not parse."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return GroundTruth.from_dict(json.load(fh))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: not a ground-truth record: {exc!r}") from exc


def preset(name: str) -> PhantomSpec:
    """Named parameter sets; see README for the rationale of each."""
    if name == "fullsize":
        return PhantomSpec()
    if name == "bin-aligned":
        # 3 Hz at 30 fps is exactly one cycle per 10-sample window: the
        # tone lands on bin 1 with zero leakage, which makes unit tests
        # maximally sharp.
        return replace(PhantomSpec(), vib_freq=3.0)
    raise ValidationError(
        f"unknown preset {name!r} (try 'fullsize' or 'bin-aligned')")


def needle_geometry(spec: PhantomSpec):
    """(entry, direction, tip, normal) of the rest-position needle.

    direction is the unit vector along the line pointing away from the
    entry border; normal is (cos theta, sin theta), the axis the needle
    vibrates along.
    """
    theta = math.radians(spec.needle_angle)
    normal = np.array([math.cos(theta), math.sin(theta)])
    direction = np.array([-math.sin(theta), math.cos(theta)])
    inward = float(direction @ INWARD[spec.entry_side])
    if abs(inward) < 1e-12:
        raise ValidationError(
            f"needle at {spec.needle_angle} deg runs along the "
            f"{spec.entry_side} border and never enters the image"
        )
    if inward < 0:
        direction = -direction
    entry = np.array(spec.needle_entry, dtype=np.float64)
    tip = entry + spec.needle_length * direction
    return entry, direction, tip, normal


def validate_spec(spec: PhantomSpec) -> None:
    if spec.height < 16 or spec.width < 16:
        raise ValidationError("phantom must be at least 16x16")
    if spec.frame_count < 1:
        raise ValidationError("frame_count must be positive")
    if spec.fps <= 0:
        raise ValidationError("fps must be positive")
    if spec.pixel_spacing <= 0:
        raise ValidationError("pixel_spacing must be positive")
    if not (0.0 <= spec.needle_angle < 180.0):
        raise ValidationError(
            f"needle_angle must be in [0, 180), got {spec.needle_angle}"
        )
    if not (spec.vib_freq < spec.fps / 2):
        raise ValidationError(
            f"vib_freq {spec.vib_freq} violates the Nyquist limit fps/2 = "
            f"{spec.fps / 2}"
        )
    if spec.vib_freq <= 0:
        raise ValidationError("vib_freq must be positive")
    if spec.vib_amplitude < 0:
        raise ValidationError("vib_amplitude must be >= 0")
    if spec.motion_sigma <= 0:
        raise ValidationError("motion_sigma must be positive")
    if not (0.0 <= spec.visibility <= 1.0):
        raise ValidationError(f"visibility must be in [0,1], got {spec.visibility}")
    if spec.artifact_count < 0:
        raise ValidationError("artifact_count must be >= 0")
    if spec.speckle_grain < 1:
        raise ValidationError("speckle_grain must be >= 1 px")
    if spec.entry_side not in INWARD:
        raise ValidationError(f"entry_side must be one of {tuple(INWARD)}")
    if spec.needle_length <= 0:
        raise ValidationError("needle_length must be positive")
    ex, ey = spec.needle_entry
    # distance from the entry border, along the one axis INWARD crosses
    border = sum(abs(p - (n - 1 if u < 0 else 0.0)) for p, u, n in zip(
        spec.needle_entry, INWARD[spec.entry_side], (spec.width, spec.height)) if u)
    if border > 1e-6:
        raise ValidationError(
            f"needle_entry {spec.needle_entry} is not on the "
            f"{spec.entry_side} border"
        )
    if not (0 <= ex <= spec.width - 1 and 0 <= ey <= spec.height - 1):
        raise ValidationError(f"needle_entry {spec.needle_entry} outside image")
    _, _, tip, _ = needle_geometry(spec)
    if not (0 <= tip[0] <= spec.width - 1 and 0 <= tip[1] <= spec.height - 1):
        raise ValidationError(
            f"needle tip {tuple(np.round(tip, 2))} falls outside the image; "
            "shorten needle_length or move the entry point"
        )


def _speckle_from_rng(rng: np.random.Generator, h: int, w: int,
                      grain: float) -> np.ndarray:
    noise = rng.standard_normal((h, w))
    smooth = gaussian_filter(noise, sigma=grain, mode="reflect")
    span = smooth.max() - smooth.min()
    if span == 0:
        return np.full((h, w), 0.5)
    return (smooth - smooth.min()) / span


def background_speckle(h: int, w: int, grain: float, seed: int) -> np.ndarray:
    """Spatially correlated texture in [0, 1]; deterministic per seed."""
    if h < 16 or w < 16:
        raise ValidationError("speckle image must be at least 16x16")
    if grain < 1:
        raise ValidationError("grain must be >= 1 px")
    return _speckle_from_rng(np.random.default_rng(seed), h, w, grain)


def _segment_fields(h: int, w: int, p0: np.ndarray, p1: np.ndarray):
    """Along-segment coordinate s and distance to the segment, per pixel.

    s is the projection onto the unit direction from p0 toward p1
    (s < 0 behind p0, s > |p1 - p0| past p1).  The distance is the true
    point-to-segment distance: perpendicular alongside, radial from the
    nearer endpoint beyond either end.
    """
    seg = p1 - p0
    length = float(np.hypot(*seg))
    d_hat = seg / length
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    vx = xs[None, :] - p0[0]
    vy = ys[:, None] - p0[1]
    s = vx * d_hat[0] + vy * d_hat[1]
    t = np.clip(s, 0.0, length)
    dx = vx - t * d_hat[0]
    dy = vy - t * d_hat[1]
    dist = np.hypot(dx, dy)
    return s, dist, length


def _co_motion_falloff(spec: PhantomSpec) -> np.ndarray:
    """Static spatial envelope of the tissue displacement, in [0, 1].

    Gaussian in the distance to the needle segment, hard zero past the
    tip plane: the shaft drags tissue along its length, but nothing
    pushes the tissue beyond the tip, and the sharp motion boundary
    there is what makes the tip localizable from energy alone.
    """
    entry, _, tip, _ = needle_geometry(spec)
    s, dist, length = _segment_fields(spec.height, spec.width, entry, tip)
    envelope = np.exp(-(dist ** 2) / (2.0 * spec.motion_sigma ** 2))
    envelope[s > length] = 0.0
    return envelope


def displacement_field(spec: PhantomSpec, t: int) -> np.ndarray:
    """(H, W, 2) displacement in pixels at frame t; zero when A = 0."""
    if not (0 <= t < spec.frame_count):
        raise ValidationError(f"frame index {t} outside 0..{spec.frame_count - 1}")
    _, _, _, normal = needle_geometry(spec)
    amp = spec.vib_amplitude * math.sin(2.0 * math.pi * spec.vib_freq * t / spec.fps)
    envelope = amp * _co_motion_falloff(spec)
    field = np.empty((spec.height, spec.width, 2), dtype=np.float64)
    field[:, :, 0] = envelope * normal[0]
    field[:, :, 1] = envelope * normal[1]
    return field


def warp_bilinear(texture: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Backward warp: output(p) = texture sampled at p - field(p).

    Bilinear interpolation with sample coordinates clamped to the image,
    so border pixels replicate edge values.
    """
    tex = np.asarray(texture, dtype=np.float64)
    h, w = tex.shape
    if field.shape != (h, w, 2):
        raise ValidationError(
            f"field shape {field.shape} does not match texture {(h, w)}"
        )
    xs = np.arange(w, dtype=np.float64)[None, :] - field[:, :, 0]
    ys = np.arange(h, dtype=np.float64)[:, None] - field[:, :, 1]
    return _bilinear_clamped(tex, xs, ys)


def _ridge(h: int, w: int, p0: np.ndarray, p1: np.ndarray,
           sigma: float = NEEDLE_RIDGE_SIGMA,
           peak: float = NEEDLE_RIDGE_PEAK) -> np.ndarray:
    """Gaussian-profile bright line segment between two points."""
    _, dist, _ = _segment_fields(h, w, p0, p1)
    return peak * np.exp(-(dist ** 2) / (2.0 * sigma * sigma))


def _artifact_image(spec: PhantomSpec, rng: np.random.Generator) -> np.ndarray:
    """Static distractor lines, same ridge profile as the needle."""
    img = np.zeros((spec.height, spec.width), dtype=np.float64)
    for _ in range(spec.artifact_count):
        cx = rng.uniform(0.2 * spec.width, 0.8 * spec.width)
        cy = rng.uniform(0.2 * spec.height, 0.8 * spec.height)
        ang = rng.uniform(0.0, math.pi)
        half = rng.uniform(30.0, 90.0)
        d = np.array([math.cos(ang), math.sin(ang)])
        p0 = np.array([cx, cy]) - half * d
        p1 = np.array([cx, cy]) + half * d
        np.maximum(img, _ridge(spec.height, spec.width, p0, p1), out=img)
    return img


def ground_truth_of(spec: PhantomSpec) -> GroundTruth:
    entry, _, tip, normal = needle_geometry(spec)
    rho = float(entry @ normal)
    return GroundTruth(
        theta=float(spec.needle_angle), rho=rho,
        tip_x=float(tip[0]), tip_y=float(tip[1]),
        pixel_spacing=float(spec.pixel_spacing),
    )


def synth_sequence(spec: PhantomSpec):
    """Generate (UsSequence, GroundTruth); pure function of the parameters.

    Frame t = clamp01(warp(speckle, displacement(t))
                      + visibility * needle_ridge(t) + artifacts) * 255,
    rounded to the nearest 8-bit value.  The RNG stream is consumed in a
    fixed order (speckle, then artifacts), so every field of the output
    is reproducible from the seed alone.
    """
    validate_spec(spec)
    rng = np.random.default_rng(spec.seed)
    base = _speckle_from_rng(rng, spec.height, spec.width, spec.speckle_grain)
    artifacts = _artifact_image(spec, rng)
    entry, _, tip, normal = needle_geometry(spec)
    envelope = _co_motion_falloff(spec)
    frames = np.empty((spec.frame_count, spec.height, spec.width), dtype=np.uint8)
    field = np.empty((spec.height, spec.width, 2), dtype=np.float64)
    for t in range(spec.frame_count):
        amp = spec.vib_amplitude * math.sin(
            2.0 * math.pi * spec.vib_freq * t / spec.fps
        )
        field[:, :, 0] = (amp * normal[0]) * envelope
        field[:, :, 1] = (amp * normal[1]) * envelope
        frame = warp_bilinear(base, field)
        if spec.visibility > 0:
            shift = amp * normal
            frame = frame + spec.visibility * _ridge(
                spec.height, spec.width, entry + shift, tip + shift
            )
        if spec.artifact_count > 0:
            frame = frame + artifacts
        np.clip(frame, 0.0, 1.0, out=frame)
        frames[t] = np.rint(frame * 255.0).astype(np.uint8)
    seq = make_sequence(frames, spec.fps, spec.pixel_spacing)
    return seq, ground_truth_of(spec)

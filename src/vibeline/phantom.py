"""Synthetic vibrating-speckle sequences with exact ground truth.

The scene model is deliberately minimal: a spatially correlated speckle
texture, a straight needle segment entering from one border, tissue
around the shaft that co-moves with the needle's transverse vibration
(Gaussian falloff with distance from the segment, no motion past the
tip plane), optional static bright distractor lines, and an optional
additive ridge that makes the needle itself visible.  At visibility 0
the needle leaves no per-frame signature at all; only the warped
speckle carries it, which is the regime the detector is built for.
A PhantomSpec checks every field when built, so no function here checks it.

Only the needle changes anything from frame to frame, so synthesis builds
the static frame once and recomputes only the pixels whose bytes can
change, a set fixed for the sequence, with the same bytes as a full-frame
computation (see synth_sequence).  The GroundTruth it returns, and its
.gt.json file, are defined in metrics.  Each frame's displacement is one
expression, _displacement.  Synthesis never calls warp_bilinear, the same
sampler over a whole (H, W, 2) field; perfbench's tracer wraps it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (UsSequence, _EXP_ZERO_REACH, _bilinear_clamped, _inward,
                   _reach_slice)
from .errors import ValidationError, _check_band, _check_setting
# moved to metrics; perfbench resolves phantom.save_ground_truth
from .metrics import GroundTruth, save_ground_truth

NEEDLE_RIDGE_SIGMA = 1.0  # px, additive brightness profile of the shaft
NEEDLE_RIDGE_PEAK = 0.5
# the ridge adds exactly 0.0 to every pixel farther than this from its
# segment
_RIDGE_REACH = NEEDLE_RIDGE_SIGMA * _EXP_ZERO_REACH
# bytes of the uint8 frame stack a spec may ask for (1 GiB); the fullsize
# preset's 30 frames take 3.3 MB
_MAX_STACK_BYTES = 2 ** 30


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

    def __post_init__(self):
        """Check every field; a list needle_entry is stored as a tuple."""
        for name, lo in (("height", 16), ("width", 16), ("frame_count", 1),
                         ("artifact_count", 0), ("seed", 0)):
            _check_setting(name, getattr(self, name), lo, lo_closed=True, integer=True)
        h, w = self.height, self.width
        most = _MAX_STACK_BYTES // (h * w)
        _check_setting("frame_count", self.frame_count, hi=most, hi_closed=True,
                       message=f"frame_count must be <= {most} on a {h}x{w} image "
                               f"(a uint8 stack of at most {_MAX_STACK_BYTES} "
                               f"bytes), got {self.frame_count}")
        for name in ("fps", "pixel_spacing", "vib_freq", "motion_sigma",
                     "needle_length"):
            _check_setting(name, getattr(self, name), 0)
        _check_setting("needle_angle", self.needle_angle, 0, 180, lo_closed=True)
        _check_setting("vib_amplitude", self.vib_amplitude, 0, lo_closed=True)
        _check_setting("visibility", self.visibility, 0, 1,
                       lo_closed=True, hi_closed=True)
        # a blur block gathers _BLUR_ROWS + 2 int(4 grain + 0.5) rows
        _check_setting("speckle_grain", self.speckle_grain, 1, max(h, w),
                       lo_closed=True, hi_closed=True)
        object.__setattr__(self, "needle_entry", _needle_entry(self.needle_entry))
        ex, ey = self.needle_entry
        _check_band(self.vib_freq, self.fps)
        # distance from the entry border, along the one axis it crosses
        border = sum(abs(p - (n - 1 if u < 0 else 0.0)) for p, u, n in zip(
            (ex, ey), _inward(self.entry_side), (w, h)) if u)
        if border > 1e-6:
            raise ValidationError(f"needle_entry {self.needle_entry} is not on "
                                  f"the {self.entry_side} border")
        if not (0 <= ex <= w - 1 and 0 <= ey <= h - 1):
            raise ValidationError(f"needle_entry {self.needle_entry} outside image")
        _, _, tip, _ = needle_geometry(self)
        if not (0 <= tip[0] <= w - 1 and 0 <= tip[1] <= h - 1):
            raise ValidationError(
                f"needle tip {tuple(np.round(tip, 2))} falls outside the image; "
                "shorten needle_length or move the entry point")


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
    inward = float(direction @ _inward(spec.entry_side))
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


def _needle_entry(entry) -> tuple:
    """A needle_entry as a checked (x, y) tuple; the CLI reads [x, y] by it."""
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise ValidationError(f"needle_entry must be (x, y), got {entry!r}")
    for axis, value in zip("xy", entry):
        _check_setting(f"needle_entry {axis}", value)
    return tuple(entry)


_BLUR_ROWS = 48  # output rows per block, so each block's passes stay in cache


def _reflect_index(n: int, r: int) -> np.ndarray:
    """Indices of a length-n axis extended by r on both sides, half-sample
    symmetric with period 2n (d c b a | a b c d | d c b a), so r may
    exceed n."""
    i = np.arange(-r, n + r) % (2 * n)
    return np.where(i < n, i, 2 * n - 1 - i)


def _gaussian_blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a 2-D float64 array, edges reflected.

    The bits equal scipy.ndimage.gaussian_filter(x, sigma, mode="reflect"):
    the same radius int(4 sigma + 0.5) and normalized weights, axis 0
    before axis 1, and the same symmetric correlation per output,
    w_0 x[i], then += (x[i - j] + x[i + j]) w_j for j = r down to 1.
    """
    r = int(4.0 * float(sigma) + 0.5)
    k = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * k ** 2)
    wts = (phi / phi.sum())[::-1][r:]  # wts[j]: weight at offset j
    h, w = x.shape
    rows, cols = _reflect_index(h, r), _reflect_index(w, r)
    out = np.empty((h, w), dtype=np.float64)
    for i0 in range(0, h, _BLUR_ROWS):
        n = min(_BLUR_ROWS, h - i0)
        ext = x[rows[i0:i0 + n + 2 * r]]  # rows i0 - r .. i0 + n + r - 1
        v = ext[r:r + n] * wts[0]
        for j in range(r, 0, -1):
            v += (ext[r - j:r - j + n] + ext[r + j:r + j + n]) * wts[j]
        ext = v[:, cols]
        blk = out[i0:i0 + n]
        np.multiply(ext[:, r:r + w], wts[0], out=blk)
        for j in range(r, 0, -1):
            blk += (ext[:, r - j:r - j + w] + ext[:, r + j:r + j + w]) * wts[j]
    return out


def _speckle_from_rng(rng: np.random.Generator, h: int, w: int,
                      grain: float) -> np.ndarray:
    noise = rng.standard_normal((h, w))
    smooth = _gaussian_blur(noise, grain)
    lo = smooth.min()
    span = smooth.max() - lo
    if span == 0:
        return np.full((h, w), 0.5)
    return (smooth - lo) / span


def _between(a: float, b: np.ndarray, lo: float, hi: float):
    """(first, last): the interval of u with lo <= a u + b <= hi, per entry
    of b; (inf, -inf) where it is empty."""
    if a == 0.0:
        inside = (lo <= b) & (b <= hi)
        return (np.where(inside, -np.inf, np.inf),
                np.where(inside, np.inf, -np.inf))
    with np.errstate(over="ignore"):  # a subnormal a: +-inf is the bound
        u0, u1 = (lo - b) / a, (hi - b) / a
    return (u0, u1) if a > 0 else (u1, u0)


def _capsule(p0: np.ndarray, p1: np.ndarray, reach: float, h: int, w: int):
    """(r, c): the pixels of an h x w image within reach + 1 of the segment
    p0-p1 (of non-zero length), in row-major order.

    The capsule is the union of a disk of radius reach + 1 around each end
    and the rectangle alongside the segment; it is convex, so each row
    meets it in one interval, the hull of the three pieces' intervals.  The
    margin of 1 absorbs rounding in the distances callers compare against
    reach.
    """
    big = reach + 1.0
    rows = _reach_slice(min(p0[1], p1[1]) - reach, max(p0[1], p1[1]) + reach, h)
    y = np.arange(rows.start, rows.stop, dtype=np.float64)
    seg = p1 - p0
    length = float(np.hypot(*seg))
    ex, ey = seg / length
    # alongside: 0 <= (p - p0) . e <= length and |(p - p0) x e| <= big
    a0, a1 = _between(ex, (y - p0[1]) * ey, 0.0, length)
    b0, b1 = _between(-ey, (y - p0[1]) * ex, -big, big)
    first, last = np.maximum(a0, b0) + p0[0], np.minimum(a1, b1) + p0[0]
    empty = first > last
    first[empty], last[empty] = np.inf, -np.inf
    for px, py in (p0, p1):
        sq = big * big - (y - py) ** 2
        half = np.sqrt(np.maximum(sq, 0.0))
        first = np.where(sq >= 0, np.minimum(first, px - half), first)
        last = np.where(sq >= 0, np.maximum(last, px + half), last)
    start = np.ceil(np.clip(first, 0.0, w)).astype(np.intp)
    stop = np.floor(np.clip(last, -1.0, w - 1.0)).astype(np.intp) + 1
    counts = np.maximum(stop - start, 0)
    r = np.repeat(np.arange(rows.start, rows.stop), counts)
    # each row's columns start .. stop - 1, laid end to end
    c = np.arange(r.size) + np.repeat(start - (np.cumsum(counts) - counts),
                                      counts)
    return r, c


def _segment_fields(xs: np.ndarray, ys: np.ndarray, p0: np.ndarray,
                    p1: np.ndarray):
    """Along-segment coordinate s and distance to the segment at (xs, ys).

    s is the projection onto the unit direction from p0 toward p1
    (s < 0 behind p0, s > |p1 - p0| past p1).  The distance is the true
    point-to-segment distance: perpendicular alongside, radial from the
    nearer endpoint beyond either end.  Each point's values depend on its
    own coordinates alone, so a gathered subset of pixels gets the same
    bits as the full grid.
    """
    seg = p1 - p0
    length = float(np.hypot(*seg))
    d_hat = seg / length
    vx = xs - p0[0]
    vy = ys - p0[1]
    s = vx * d_hat[0] + vy * d_hat[1]
    t = np.clip(s, 0.0, length)
    dx = vx - t * d_hat[0]
    dy = vy - t * d_hat[1]
    dist = np.hypot(dx, dy)
    return s, dist, length


def _co_motion_falloff(spec: PhantomSpec, reach: float):
    """(r, c, envelope, dist): the static spatial envelope of the tissue
    displacement, in [0, 1], and each pixel's distance to the rest-position
    segment, on the pixels (r, c) of its _capsule, row-major.

    The envelope is Gaussian in that distance, with a hard zero past the
    tip plane: the shaft drags tissue along its length, but nothing
    pushes the tissue beyond the tip, and the sharp motion boundary
    there is what makes the tip localizable from energy alone.  The
    capsule's reach is the larger of reach and the envelope's own,
    motion_sigma * _EXP_ZERO_REACH, so the envelope is exactly 0.0 off
    it, and every pixel within reach of the segment is on it.
    """
    entry, _, tip, _ = needle_geometry(spec)
    r, c = _capsule(entry, tip, max(reach, spec.motion_sigma * _EXP_ZERO_REACH),
                    spec.height, spec.width)
    s, dist, length = _segment_fields(c.astype(np.float64),
                                      r.astype(np.float64), entry, tip)
    envelope = np.exp(-(dist ** 2) / (2.0 * spec.motion_sigma ** 2))
    envelope[s > length] = 0.0
    return r, c, envelope, dist


def _displacement(amp: float, normal: np.ndarray, envelope: np.ndarray):
    """(dx, dy): the tissue displacement in pixels at frame amplitude amp,
    along the needle's normal, scaled by the co-motion envelope."""
    return (amp * normal[0]) * envelope, (amp * normal[1]) * envelope


def warp_bilinear(texture: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Backward warp: output(p) = texture sampled at p - field(p).

    Bilinear interpolation with sample coordinates clamped to the image,
    so border pixels replicate edge values.  A non-finite texture or field
    raises ValidationError: a texel weighted 0.0 still turns its neighbours'
    samples into NaN (inf * 0.0), and a NaN or inf shift has no texel.
    """
    tex = np.asarray(texture, dtype=np.float64)
    field = np.asarray(field, dtype=np.float64)
    h, w = tex.shape
    if field.shape != (h, w, 2):
        raise ValidationError(
            f"field shape {field.shape} does not match texture {(h, w)}"
        )
    for name, a in (("texture", tex), ("field", field)):
        if not np.isfinite(a).all():
            raise ValidationError(f"{name} must be finite")
    xs, ys = np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64)
    return _bilinear_clamped(tex, xs - field[:, :, 0],
                             ys[:, None] - field[:, :, 1])


def _ridge(xs: np.ndarray, ys: np.ndarray, p0: np.ndarray,
           p1: np.ndarray) -> np.ndarray:
    """Gaussian-profile bright line segment between two points, at (xs, ys);
    exactly 0.0 farther than _RIDGE_REACH from the segment."""
    _, dist, _ = _segment_fields(xs, ys, p0, p1)
    return NEEDLE_RIDGE_PEAK * np.exp(
        -(dist ** 2) / (2.0 * NEEDLE_RIDGE_SIGMA * NEEDLE_RIDGE_SIGMA))


def _artifact_image(spec: PhantomSpec, rng: np.random.Generator) -> np.ndarray:
    """Static distractor lines, same ridge profile as the needle; each is
    evaluated only on the _capsule where it can be non-zero."""
    img = np.zeros((spec.height, spec.width), dtype=np.float64)
    for _ in range(spec.artifact_count):
        cx = rng.uniform(0.2 * spec.width, 0.8 * spec.width)
        cy = rng.uniform(0.2 * spec.height, 0.8 * spec.height)
        ang = rng.uniform(0.0, math.pi)
        half = rng.uniform(30.0, 90.0)
        d = np.array([math.cos(ang), math.sin(ang)])
        p0 = np.array([cx, cy]) - half * d
        p1 = np.array([cx, cy]) + half * d
        r, c = _capsule(p0, p1, _RIDGE_REACH, spec.height, spec.width)
        img[r, c] = np.maximum(img[r, c], _ridge(c.astype(np.float64),
                                                 r.astype(np.float64), p0, p1))
    return img


def ground_truth_of(spec: PhantomSpec) -> GroundTruth:
    """The exact truth of a spec's needle."""
    entry, _, tip, normal = needle_geometry(spec)
    rho = float(entry @ normal)
    return GroundTruth(
        theta=float(spec.needle_angle), rho=rho,
        tip_x=float(tip[0]), tip_y=float(tip[1]),
        pixel_spacing=float(spec.pixel_spacing),
    )


def _to_uint8(frame: np.ndarray) -> np.ndarray:
    return np.rint(np.clip(frame, 0.0, 1.0) * 255.0).astype(np.uint8)


# a pixel displaced by less than this (px, |dx| + |dy|) samples inside its
# own clamped 3 x 3 block
_STATIC_SHIFT = 0.5
# grey levels added to the byte rule's bound; float rounding in a frame's
# value and in the bound itself comes to ~1e-13 grey levels
_BYTE_MARGIN = 1e-9


def _block_spread(img: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Largest |img.flat[i] - neighbour| over the clamped 3 x 3 block of
    each flat index i."""
    h, w = img.shape
    r, c = np.divmod(idx, w)
    centre = img.take(idx)
    spread = np.zeros_like(centre)
    for rr in (np.maximum(r - 1, 0), r, np.minimum(r + 1, h - 1)):
        for cc in (np.maximum(c - 1, 0), c, np.minimum(c + 1, w - 1)):
            np.maximum(spread, np.abs(img.take(rr * w + cc) - centre), out=spread)
    return spread


def _byte_may_change(u: np.ndarray, shift: np.ndarray, spread: np.ndarray,
                     ridge: np.ndarray) -> np.ndarray:
    """Whether a pixel's byte may differ from its static byte in some frame.

    u is its static value clip(speckle + artifact, 0, 1) * 255 before
    rounding, shift its largest displacement |dx| + |dy|, spread its
    _block_spread and ridge the largest ridge any frame can add to it.  A
    bilinear sample within shift < _STATIC_SHIFT of the pixel is a convex
    combination of texels of its 3 x 3 block whose non-centre weights sum
    to at most shift, so it differs from the pixel's texel by at most
    shift * spread; the ridge adds at most ridge; clip is 1-Lipschitz.  So
    a pixel whose u lies farther than 255 (shift * spread + ridge) +
    _BYTE_MARGIN from the nearest half grey level rounds to its static
    byte in every frame.
    """
    half_gap = np.abs(u - np.floor(u) - 0.5)
    bound = 255.0 * (shift * spread + ridge) + _BYTE_MARGIN
    return (shift >= _STATIC_SHIFT) | (half_gap <= bound)


def synth_sequence(spec: PhantomSpec):
    """Generate (UsSequence, GroundTruth); pure function of the parameters.

    Frame t = clamp01(warp(speckle, displacement(t))
                      + visibility * needle_ridge(t) + artifacts) * 255,
    rounded to the nearest 8-bit value.  The RNG stream is consumed in a
    fixed order (speckle, then artifacts), so every field of the output
    is reproducible from the seed alone.

    Every frame starts as a copy of the static frame (speckle plus
    artifacts); only the pixels whose byte can change are recomputed, with
    the same expression order as a full-frame computation, so the bytes
    equal its bytes.  A pixel can change only if its warp sample
    coordinate moves in some frame or, at visibility > 0, it lies within
    _RIDGE_REACH + vib_amplitude of the rest-position segment (the ridge
    adds 0.0 farther out).  Both kinds lie in the capsule on which
    _co_motion_falloff evaluates the envelope and the distance, the pixels
    within the larger reach + 1 of the segment, and no pixel off it is
    looked at; the capsule is row-major, so its pixels come in the order a
    full-frame scan finds them.  A pixel's displacement is a rounded
    product of the frame amplitude and its envelope, monotone in the
    amplitude, and so is its sample coordinate; a pixel that moves at neither the smallest
    nor the largest amplitude moves in no frame, and where its coordinate
    is its own the sampler gives its texel back bit for bit
    (core._bilinear_clamped).  Of those pixels, _byte_may_change keeps the
    ones whose byte the largest shift and ridge can move; the moving ones
    among them go through the sampler for all frames in one call.
    """
    gt = ground_truth_of(spec)
    rng = np.random.default_rng(spec.seed)
    base = _speckle_from_rng(rng, spec.height, spec.width, spec.speckle_grain)
    artifacts = _artifact_image(spec, rng)
    entry, _, tip, normal = needle_geometry(spec)
    ridge_reach = _RIDGE_REACH + spec.vib_amplitude
    r, c, envelope, dist = _co_motion_falloff(
        spec, ridge_reach if spec.visibility > 0 else 0.0)
    in_reach = (dist <= ridge_reach) & (spec.visibility > 0)
    keep = np.flatnonzero((envelope != 0) | in_reach)
    r, c, env, ridged, dist = (r[keep], c[keep], envelope[keep],
                               in_reach[keep], dist[keep])
    xs, ys = c.astype(np.float64), r.astype(np.float64)
    flat = r * spec.width + c
    amps = np.array([spec.vib_amplitude * math.sin(
        2.0 * math.pi * spec.vib_freq * t / spec.fps)
        for t in range(spec.frame_count)])
    moving = np.zeros(r.size, dtype=bool)
    for amp in {amps.min(), amps.max()}:
        dx, dy = _displacement(amp, normal, env)
        moving |= (xs - dx != xs) | (ys - dy != ys)  # the sample point moves
    # the byte rule, on the moving or ridged pixels only
    near = np.flatnonzero(moving | ridged)
    idx = flat[near]
    peak = float(np.abs(amps).max())
    peak_shift = peak * (abs(normal[0]) + abs(normal[1])) * env[near]
    # the shifted shaft comes no closer than dist - peak
    ridge_top = spec.visibility * NEEDLE_RIDGE_PEAK * np.exp(
        -np.maximum(dist[near] - peak, 0.0) ** 2
        / (2.0 * NEEDLE_RIDGE_SIGMA * NEEDLE_RIDGE_SIGMA))
    u = np.clip(base.take(idx) + artifacts.take(idx), 0.0, 1.0) * 255.0
    near = near[_byte_may_change(u, peak_shift, _block_spread(base, idx),
                                 ridge_top)]
    moving, ridged = moving[near], ridged[near]
    # gathered once, in three runs: moving only, moving and ridged, ridged
    # only; so the moving pixels are [:m] and the ridged ones [k:]
    runs = (moving & ~ridged, moving & ridged, ridged & ~moving)
    pick = near[np.concatenate([np.flatnonzero(run) for run in runs])]
    m, k = np.count_nonzero(moving), np.count_nonzero(runs[0])
    idx, xs, ys, env = flat[pick], xs[pick], ys[pick], env[pick]
    frames = np.empty((spec.frame_count, spec.height, spec.width), dtype=np.uint8)
    frames[:] = _to_uint8(base + artifacts)
    values = np.empty((spec.frame_count, idx.size))
    dx, dy = _displacement(amps[:, None], normal, env[:m])
    values[:, :m] = _bilinear_clamped(base, xs[:m] - dx, ys[:m] - dy)
    values[:, m:] = base.take(idx[m:])
    if spec.visibility > 0:
        for t, amp in enumerate(amps):
            shift = amp * normal
            values[t, k:] += spec.visibility * _ridge(xs[k:], ys[k:],
                                                      entry + shift, tip + shift)
    frames.reshape(spec.frame_count, -1)[:, idx] = _to_uint8(
        values + artifacts.take(idx))
    seq = UsSequence(frames, spec.fps, spec.pixel_spacing)
    return seq, gt

"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths: the
window DFT is a literal double loop over the defining sum, the Hough
reference is a triple loop, and the metrics recount is plain Python
arithmetic.  Tests freeze expectations against these, not against the
implementation.
"""

import functools
import math
import os
from dataclasses import replace

import numpy as np

from vibeline import PhantomSpec, preset, synth_sequence


# --------------------------------------------------------------------------
# Spectral oracles
# --------------------------------------------------------------------------

def naive_window_dft(window) -> np.ndarray:
    """Interleaved (re, im) DFT bins of one window, by the defining sum.

    re_k = sum_n x[n] cos(2 pi n k / N),  im_k = -sum_n x[n] sin(...),
    for k = 0 .. N//2 - 1.  Pure-Python double loop on purpose.
    """
    window = list(window)
    n = len(window)
    k_bins = n // 2
    out = np.empty(2 * k_bins, dtype=np.float64)
    for k in range(k_bins):
        re = 0.0
        im = 0.0
        for i, x in enumerate(window):
            ang = 2.0 * math.pi * i * k / n
            re += x * math.cos(ang)
            im -= x * math.sin(ang)
        out[2 * k] = re
        out[2 * k + 1] = im
    return out


def naive_stft(signal, window_len: int, hop: int) -> np.ndarray:
    """(2K, M) spectrogram from naive_window_dft per window."""
    signal = np.asarray(signal, dtype=np.float64)
    m = (signal.size - window_len) // hop + 1
    cols = [naive_window_dft(signal[j * hop: j * hop + window_len])
            for j in range(m)]
    return np.stack(cols, axis=1)


def trailing_window_bins(samples, upto: int, window_len: int) -> np.ndarray:
    """Complex DFT bins of the last window_len samples of samples[:upto].

    The window is chronological (oldest first) and zero-padded on the
    left while fewer than window_len samples have arrived, matching a
    ring buffer that starts out zero-filled.
    """
    window = np.zeros(window_len, dtype=np.float64)
    have = min(upto, window_len)
    if have:
        window[window_len - have:] = samples[upto - have: upto]
    k = np.arange(window_len // 2)
    n = np.arange(window_len)
    phases = np.exp(-2j * math.pi * np.outer(k, n) / window_len)
    return phases @ window


# --------------------------------------------------------------------------
# Hough oracle
# --------------------------------------------------------------------------

def brute_hough(feature: np.ndarray, theta_step: float, rho_step: float,
                rho_offset: int, theta_bins: int, rho_bins: int) -> np.ndarray:
    """Triple-loop voting accumulator; small inputs only."""
    h, w = feature.shape
    acc = np.zeros((theta_bins, rho_bins), dtype=np.float64)
    for i in range(theta_bins):
        theta = math.radians(i * theta_step)
        c, s = math.cos(theta), math.sin(theta)
        for y in range(h):
            for x in range(w):
                rho = x * c + y * s
                j = int(math.floor(rho / rho_step + 0.5)) + rho_offset
                acc[i, j] += feature[y, x]
    return acc


# --------------------------------------------------------------------------
# Metrics recount oracle
# --------------------------------------------------------------------------

def recount_report(records, angle_thresh: float, tip_thresh: float) -> dict:
    """Re-derive TER and mean/std aggregates with plain Python loops."""
    exceed = 0
    angles = []
    tips = []
    n_missing = 0
    for r in records:
        if r.missing:
            exceed += 1
            n_missing += 1
            continue
        if r.angle_error > angle_thresh or r.tip_error > tip_thresh:
            exceed += 1
        angles.append(r.angle_error)
        tips.append(r.tip_error)

    def mean_std(vals):
        if not vals:
            return None, None
        mu = sum(vals) / len(vals)
        var = sum((v - mu) ** 2 for v in vals) / len(vals)
        return mu, math.sqrt(var)

    am, asd = mean_std(angles)
    tm, tsd = mean_std(tips)
    return {
        "angle_mean": am, "angle_std": asd,
        "tip_mean": tm, "tip_std": tsd,
        "ter_percent": 100.0 * exceed / len(records),
        "n": len(records), "n_missing": n_missing,
    }


# --------------------------------------------------------------------------
# Phantom builders
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def challenging_phantom(seed: int, amplitude: float = 0.8,
                        artifact_count: int = 1):
    """Full-size invisible-needle phantom with one distractor line."""
    spec = replace(
        preset("fullsize"),
        visibility=0.0,
        vib_amplitude=amplitude,
        artifact_count=artifact_count,
        seed=seed,
    )
    return synth_sequence(spec)


def small_vibrating_spec(**overrides) -> PhantomSpec:
    """128x128 invisible-needle phantom tuned for fast unit tests.

    Uses a 3 Hz tone at 30 fps so the vibration lands exactly on a DFT
    bin of the default 10-sample window.
    """
    base = dict(
        height=128, width=128, frame_count=30, fps=30.0,
        pixel_spacing=0.15,
        needle_angle=30.0, needle_entry=(0.0, 100.0), needle_length=100.0,
        vib_freq=3.0, vib_amplitude=0.8, visibility=0.0,
        artifact_count=0, entry_side="left", seed=1,
    )
    base.update(overrides)
    return PhantomSpec(**base)


# --------------------------------------------------------------------------
# Output files
# --------------------------------------------------------------------------

# what lies at an output path before it is written
OUTPUT_CASES = ("new", "longer", "shorter", "symlink", "dangling-symlink",
                "hard-link", "read-only", "unlink-refused")
_OLD_BYTES = b"old output\n"


def _lay_out(d, case):
    """Make directory d hold case's files around d / "out"."""
    d.mkdir()
    out = d / "out"
    if case in ("longer", "hard-link", "read-only", "unlink-refused"):
        out.write_bytes(_OLD_BYTES * 100_000)
    elif case == "shorter":
        out.write_bytes(b"x")
    elif case.endswith("symlink"):
        if case == "symlink":
            (d / "target").write_bytes(_OLD_BYTES * 100_000)
        out.symlink_to("target")
    if case in ("hard-link", "unlink-refused"):
        os.link(out, d / "other")
    if case == "read-only":
        out.chmod(0o444)
    return out


def _outcome(write, path):
    """(exception type, errno) that write(path) raises, or None."""
    try:
        write(path)
    except OSError as exc:
        return type(exc), exc.errno
    return None


def _snapshot(d):
    """Each entry of d: (name, link target or None, bytes it reads)."""
    return [(p.name, os.readlink(p) if p.is_symlink() else None,
             p.read_bytes() if p.exists() else None)
            for p in sorted(d.iterdir())]


def check_output_write(tmp_path, monkeypatch, module, write, case):
    """write(path) over case's layout leaves what a plain open() write
    leaves (module._open_output replaced by open) and raises what it
    raises; a hard link to the old output alone keeps the old bytes."""
    with monkeypatch.context() as m:
        m.setattr(module, "_open_output", open)
        want = _outcome(write, _lay_out(tmp_path / "plain", case))
    out = _lay_out(tmp_path / "helper", case)
    with monkeypatch.context() as m:
        if case == "unlink-refused":
            def refuse(path, *args, **kwargs):
                raise PermissionError(13, "unlink refused", str(path))
            m.setattr(os, "unlink", refuse)
        assert _outcome(write, out) == want
    plain, got = _snapshot(tmp_path / "plain"), _snapshot(tmp_path / "helper")
    if case == "hard-link":
        # the plain write truncated the shared inode; the helper made a new
        # file, so the other link keeps the old bytes
        assert plain[0][2] == plain[1][2] != _OLD_BYTES * 100_000
        assert got[0] == ("other", None, _OLD_BYTES * 100_000)
        plain[0] = got[0]
    assert got == plain

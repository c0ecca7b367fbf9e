"""Command-line front end: gen, detect, stream, eval, spectro.

Only the standard library is imported at module level; the numeric
modules load after --threads has been applied to the BLAS environment
variables, so thread caps actually take effect.

Configuration precedence, lowest to highest: module defaults (or the
chosen preset for gen), --config JSON values, explicit flags.  The
config file is a flat JSON object whose keys are the field names of
PhantomSpec, DetectConfig and LossParams; unknown keys are rejected
before any work starts.

Exit codes: 0 success, 1 validation error, 2 I/O or file-format error,
3 no detection (including a low-confidence result).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (BoundsError, FormatError, GeometryError,
                     NoDetectionError, ValidationError)

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NO_DETECTION = 3


def _apply_threads_env(argv) -> None:
    """Honor --threads before numpy gets imported anywhere."""
    value = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            value = argv[i + 1]
        elif arg.startswith("--threads="):
            value = arg.split("=", 1)[1]
    if value is None:
        return
    try:
        n = int(value)
    except ValueError:
        return  # argparse will report it properly
    if n >= 1:
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(n)


def _config_keys():
    import dataclasses

    from .phantom import PhantomSpec
    from .pipeline import DetectConfig
    from .scoring import LossParams

    keys = {}
    for cls in (PhantomSpec, DetectConfig, LossParams):
        keys[cls] = {f.name for f in dataclasses.fields(cls)}
    return keys


def _load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise FormatError(f"config {path} must hold a JSON object")
    keys = _config_keys()
    known = set().union(*keys.values())
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValidationError(
            f"unknown config key(s): {', '.join(unknown)}"
        )
    return raw


def _subset(config: dict, field_names) -> dict:
    return {k: v for k, v in config.items() if k in field_names}


def _build_phantom_spec(args, config: dict):
    import dataclasses

    from .phantom import PhantomSpec, preset

    base = preset(args.preset) if args.preset else PhantomSpec()
    fields = {f.name for f in dataclasses.fields(PhantomSpec)}
    overlay = _subset(config, fields)
    if "needle_entry" in overlay:
        entry = overlay["needle_entry"]
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ValidationError("needle_entry must be a 2-element [x, y]")
        overlay["needle_entry"] = (float(entry[0]), float(entry[1]))
    spec = dataclasses.replace(base, **overlay)

    flag_map = {
        "height": args.height, "width": args.width,
        "frame_count": args.frames, "fps": args.fps,
        "pixel_spacing": args.spacing, "needle_angle": args.angle_deg,
        "needle_length": args.length, "vib_freq": args.vib_hz,
        "vib_amplitude": args.amplitude, "motion_sigma": args.motion_sigma,
        "visibility": args.visibility, "artifact_count": args.artifacts,
        "speckle_grain": args.grain, "entry_side": args.entry_side,
    }
    updates = {k: v for k, v in flag_map.items() if v is not None}
    if args.entry_x is not None or args.entry_y is not None:
        ex = spec.needle_entry[0] if args.entry_x is None else args.entry_x
        ey = spec.needle_entry[1] if args.entry_y is None else args.entry_y
        updates["needle_entry"] = (float(ex), float(ey))
    if args.seed is not None:
        updates["seed"] = args.seed
    return dataclasses.replace(spec, **updates)


def _build_detect_config(args, config: dict):
    import dataclasses

    from .pipeline import DetectConfig

    fields = {f.name for f in dataclasses.fields(DetectConfig)}
    cfg = dataclasses.replace(DetectConfig(), **_subset(config, fields))
    flag_map = {
        "vib_freq": args.vib_hz, "window_len": args.window, "hop": args.hop,
        "theta_step": args.theta_step, "rho_step": args.rho_step,
        "entry_side": args.entry_side,
        "profile_threshold": args.profile_threshold,
        "profile_smooth": args.profile_smooth,
        "confidence_min": args.confidence_min, "tip_sigma": args.tip_sigma,
    }
    updates = {k: v for k, v in flag_map.items() if v is not None}
    return dataclasses.replace(cfg, **updates)


def _gt_path_for(out_path: Path) -> Path:
    return out_path.with_suffix("").with_name(out_path.with_suffix("").name
                                              + ".gt.json")


def _prepared(path) -> Path:
    """Make the parent directory of a CLI output path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def cmd_gen(args, config: dict) -> int:
    from .core import save_sequence
    from .phantom import save_ground_truth, synth_sequence

    spec = _build_phantom_spec(args, config)
    seq, gt = synth_sequence(spec)
    out = _prepared(args.out)
    save_sequence(seq, out)
    save_ground_truth(gt, _gt_path_for(out))
    return EXIT_OK


def cmd_detect(args, config: dict) -> int:
    from .core import load_sequence
    from .pipeline import _detect_run, _hough_channels
    from .spectral import write_vibmap

    import numpy as np

    cfg = _build_detect_config(args, config)
    seq = load_sequence(args.input)
    # one run feeds the record and every --emit-* map
    det, timing, values, grid, hough = _detect_run(seq.frames_float(),
                                                   seq.fps, cfg)

    out = _prepared(args.out) if args.out \
        else Path(args.input).with_suffix(".json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(det.to_dict(), fh, indent=2)
        fh.write("\n")
    if args.timing:
        with open(_prepared(args.timing), "w", encoding="utf-8") as fh:
            json.dump(timing, fh, indent=2)
            fh.write("\n")
    if args.emit_energy:
        write_vibmap(_prepared(args.emit_energy), values)
    if args.emit_hough:
        gt = None
        if args.hough_gt:
            from .phantom import load_ground_truth
            gt = load_ground_truth(args.hough_gt)
        hmap = _hough_channels(det, grid, hough, cfg, gt)
        write_vibmap(_prepared(args.emit_hough), np.stack([hmap.shaft, hmap.tip]))
    if det.low_confidence_flag:
        print(f"low confidence ({det.confidence:.3g} < {cfg.confidence_min:g})",
              file=sys.stderr)
        return EXIT_NO_DETECTION
    return EXIT_OK


def cmd_stream(args, config: dict) -> int:
    from .core import load_sequence
    from .pipeline import StreamState, stream_push

    cfg = _build_detect_config(args, config)
    seq = load_sequence(args.input)
    state = StreamState(seq.height, seq.width, seq.fps, cfg,
                        warmup=args.warmup)
    last = None
    for t in range(seq.frame_count):
        det = stream_push(state, seq.frames[t])
        if det is not None:
            line = {"frame": t}
            line.update(det.to_dict())
            print(json.dumps(line))
            last = det
    if last is None:
        raise NoDetectionError(
            f"stream ended after {seq.frame_count} frames, before the "
            f"{args.warmup}-frame warm-up"
        )
    if last.low_confidence_flag:
        return EXIT_NO_DETECTION
    return EXIT_OK


def cmd_eval(args, config: dict) -> int:
    from .metrics import evaluate_batch, write_aggregate_json, write_report_csv

    records, agg, unmatched = evaluate_batch(
        args.pred, args.gt,
        angle_thresh=args.angle_thresh, tip_thresh=args.tip_thresh,
    )
    write_report_csv(records, _prepared(args.out_csv),
                     angle_thresh=args.angle_thresh,
                     tip_thresh=args.tip_thresh)
    write_aggregate_json(agg, _prepared(args.out_json))
    print(f"n={agg['n']} missing={agg['n_missing']} "
          f"ter={agg['ter_percent']:.1f}%")
    return EXIT_OK


def cmd_spectro(args, config: dict) -> int:
    import csv

    from .core import load_sequence, pixel_signal
    from .spectral import dft_basis, stft, write_vibmap

    cfg = _build_detect_config(args, config)
    seq = load_sequence(args.input)
    signal = pixel_signal(seq, args.x, args.y)
    signal = signal - signal.mean()
    spec = stft(signal, cfg.window_len, cfg.hop)
    power = spec.power()
    freqs = dft_basis(cfg.window_len).bin_freqs(seq.fps)
    if args.out_map:
        write_vibmap(_prepared(args.out_map), power)
    if args.out_csv:
        with open(_prepared(args.out_csv), "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["window_index", "bin_freq_hz", "power"])
            for w in range(power.shape[1]):
                for k in range(power.shape[0]):
                    out.writerow([w, f"{freqs[k]:.6f}", f"{power[k, w]:.9e}"])
    return EXIT_OK


def _add_detect_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vib-hz", type=float, default=None,
                   help="vibration frequency to look for (Hz)")
    p.add_argument("--window", type=int, default=None,
                   help="STFT window length in frames")
    p.add_argument("--hop", type=int, default=None,
                   help="window hop (stream: must be 1)")
    p.add_argument("--theta-step", type=float, default=None,
                   help="Hough angle resolution (deg)")
    p.add_argument("--rho-step", type=float, default=None,
                   help="Hough offset resolution (px)")
    p.add_argument("--entry-side", default=None,
                   choices=("left", "right", "top", "bottom"),
                   help="image border the needle enters from")
    p.add_argument("--profile-threshold", type=float, default=None,
                   help="tip profile threshold (fraction of the 95th pct)")
    p.add_argument("--profile-smooth", type=int, default=None,
                   help="tip profile moving-average width (samples)")
    p.add_argument("--confidence-min", type=float, default=None,
                   help="low-confidence flag threshold")
    p.add_argument("--tip-sigma", type=float, default=None,
                   help="blur of the rendered tip channel (bins)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vibeline",
        description="Detect a vibrating needle-like line and its tip in "
                    "grayscale image sequences.",
    )
    ap.add_argument("--config", default=None,
                    help="flat JSON config; flags override its values")
    ap.add_argument("--threads", type=int, default=None,
                    help="cap numeric library threads")
    ap.add_argument("--seed", type=int, default=None,
                    help="RNG seed (overrides config and preset)")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="synthesize a phantom sequence")
    g.add_argument("--out", required=True, help="output .vibseq path")
    g.add_argument("--preset", default=None,
                   help="named parameter set (fullsize, bin-aligned)")
    g.add_argument("--height", type=int, default=None)
    g.add_argument("--width", type=int, default=None)
    g.add_argument("--frames", type=int, default=None)
    g.add_argument("--fps", type=float, default=None)
    g.add_argument("--spacing", type=float, default=None,
                   help="pixel spacing (mm/px)")
    g.add_argument("--angle-deg", type=float, default=None,
                   help="needle line normal angle (deg)")
    g.add_argument("--entry-x", type=float, default=None)
    g.add_argument("--entry-y", type=float, default=None)
    g.add_argument("--length", type=float, default=None,
                   help="needle length (px)")
    g.add_argument("--vib-hz", type=float, default=None)
    g.add_argument("--amplitude", type=float, default=None,
                   help="vibration amplitude (px)")
    g.add_argument("--motion-sigma", type=float, default=None,
                   help="co-motion halo width (px)")
    g.add_argument("--visibility", type=float, default=None,
                   help="needle ridge brightness scale in [0, 1]")
    g.add_argument("--artifacts", type=int, default=None,
                   help="static bright line distractors")
    g.add_argument("--grain", type=float, default=None,
                   help="speckle grain size (px)")
    g.add_argument("--entry-side", default=None,
                   choices=("left", "right", "top", "bottom"))
    g.set_defaults(func=cmd_gen)

    d = sub.add_parser("detect", help="batch detection on a .vibseq file")
    d.add_argument("input", help="input .vibseq path")
    d.add_argument("--out", default=None,
                   help="detection JSON (default: input with .json)")
    d.add_argument("--timing", default=None, help="per-stage timing JSON")
    d.add_argument("--emit-energy", default=None,
                   help="write the band-energy map as VIBMAP01")
    d.add_argument("--emit-hough", default=None,
                   help="write shaft+tip Hough channels as VIBMAP01")
    d.add_argument("--hough-gt", default=None,
                   help="ground-truth JSON; render the tip channel there "
                        "instead of at the detected tip")
    _add_detect_flags(d)
    d.set_defaults(func=cmd_detect)

    s = sub.add_parser("stream", help="frame-by-frame detection replay")
    s.add_argument("input", help="input .vibseq path")
    s.add_argument("--warmup", type=int, default=30,
                   help="frames absorbed before detections are emitted")
    _add_detect_flags(s)
    s.set_defaults(func=cmd_stream)

    e = sub.add_parser("eval", help="score detection JSONs against truth")
    e.add_argument("--pred", required=True, help="directory of *.json")
    e.add_argument("--gt", required=True, help="directory of *.gt.json")
    e.add_argument("--out-csv", required=True)
    e.add_argument("--out-json", required=True)
    e.add_argument("--angle-thresh", type=float, default=15.0)
    e.add_argument("--tip-thresh", type=float, default=10.0)
    e.set_defaults(func=cmd_eval)

    sp = sub.add_parser("spectro",
                        help="export one pixel's spectrogram (mean removed)")
    sp.add_argument("input", help="input .vibseq path")
    sp.add_argument("--x", type=int, required=True, help="pixel column")
    sp.add_argument("--y", type=int, required=True, help="pixel row")
    sp.add_argument("--out-map", default=None,
                    help="bin-by-window power as VIBMAP01")
    sp.add_argument("--out-csv", default=None,
                    help="long-form CSV: window_index, bin_freq_hz, power")
    _add_detect_flags(sp)
    sp.set_defaults(func=cmd_spectro)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    _apply_threads_env(argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        return args.func(args, config)
    except (ValidationError, BoundsError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NoDetectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_DETECTION


if __name__ == "__main__":
    sys.exit(main())

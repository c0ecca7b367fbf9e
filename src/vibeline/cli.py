"""Command-line front end: gen, detect, stream, eval, spectro.

Importing this module loads no numeric library (the package resolves its
names lazily), so --threads reaches the BLAS environment variables before
numpy, the only one the package uses, loads; in a process that has loaded
numpy already, --threads exits 1 and writes no variable.

A command declares a flag for each PhantomSpec (gen) or DetectConfig
field it reads, which names its metavar: --vib-hz VIB_FREQ.
Precedence, lowest to highest: the dataclass defaults (or the chosen
preset for gen), --config JSON values, flags that were given.  The
config file, one for every command, is a flat JSON object whose keys are
the field names of PhantomSpec and DetectConfig; any other key is
rejected before any work starts.

Exit codes: 0 success, 1 validation error, 2 I/O or file-format error or
an argparse usage error, 3 no detection (including a low-confidence result).

Every main call in a process parses with the one parser build_parser caches.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

from .errors import (BoundsError, FormatError, GeometryError,
                     NoDetectionError, ValidationError, _check_setting)
from .metrics import (ANGLE_THRESH_DEG, GT_SUFFIX, TIP_THRESH_MM,
                      _open_output, _read_json, _write_json,
                      load_ground_truth, save_ground_truth)

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_ENTRY_SIDE_HELP = "image border the needle enters from: left, right, top or bottom"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NO_DETECTION = 3

# main's one handler: the exit code of each error family
_EXIT_CODES = {ValidationError: EXIT_VALIDATION, BoundsError: EXIT_VALIDATION,
               GeometryError: EXIT_VALIDATION, FormatError: EXIT_IO,
               OSError: EXIT_IO, NoDetectionError: EXIT_NO_DETECTION}


def _apply_threads(n) -> None:
    """Write --threads to the BLAS/OpenMP variables before numpy loads."""
    if n is None:
        return
    _check_setting("--threads", n, 1, lo_closed=True, integer=True)
    if "numpy" in sys.modules:
        raise ValidationError("--threads needs a fresh process: numpy is "
                              "already loaded, so the cap would not apply")
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(n)


def _load_config(path) -> dict:
    from .phantom import PhantomSpec
    from .pipeline import DetectConfig

    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise FormatError(f"config {path} must hold a JSON object")
    known = {f.name for cls in (PhantomSpec, DetectConfig)
             for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValidationError(
            f"unknown config key(s): {', '.join(unknown)}"
        )
    return raw


def _configured(base, args, config: dict):
    """Overlay the fields of `base` from the config, then the given flags."""
    names = {f.name for f in dataclasses.fields(base)}
    values = {k: v for k, v in config.items() if k in names}
    values.update((k, v) for k, v in vars(args).items()
                  if k in names and v is not None)
    return dataclasses.replace(base, **values)


def _build_phantom_spec(args, config: dict):
    from .phantom import PhantomSpec, _needle_entry, preset

    base = preset(args.preset) if args.preset else PhantomSpec()
    # --entry-x / --entry-y override one coordinate of the configured entry
    entry = _needle_entry(config.get("needle_entry", base.needle_entry))
    entry = tuple(v if flag is None else flag
                  for v, flag in zip(entry, (args.entry_x, args.entry_y)))
    return _configured(base, args, {**config, "needle_entry": entry})


def _build_detect_config(args, config: dict):
    from .pipeline import DetectConfig

    return _configured(DetectConfig(), args, config)


def _prepared(path) -> Path:
    """Make the parent directory of a CLI output path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _detection_exit(det, cfg) -> int:
    """EXIT_OK, or EXIT_NO_DETECTION with one stderr line naming each cause
    of the record's flag (pipeline._flag_reasons), joined by '; '."""
    from .pipeline import _flag_reasons

    reasons = _flag_reasons(det.confidence, det.tip_x, cfg.confidence_min)
    if not reasons:
        return EXIT_OK
    print("; ".join(reasons), file=sys.stderr)
    return EXIT_NO_DETECTION


def cmd_gen(args, config: dict) -> int:
    from .core import save_sequence
    from .phantom import synth_sequence

    spec = _build_phantom_spec(args, config)
    seq, gt = synth_sequence(spec)
    out = _prepared(args.out)
    save_sequence(seq, out)
    save_ground_truth(gt, out.with_name(out.stem + GT_SUFFIX))
    return EXIT_OK


def cmd_detect(args, config: dict) -> int:
    from .core import load_sequence, write_vibmap
    from .hough import hough_transform
    from .pipeline import _hough_channels, detect_with_timing

    cfg = _build_detect_config(args, config)
    seq = load_sequence(args.input)
    # one run feeds the record and every --emit-* map
    det, timing, values, grid = detect_with_timing(seq.frames, seq.fps, cfg)

    out = _prepared(args.out) if args.out \
        else Path(args.input).with_suffix(".json")
    _write_json(out, det.to_dict())
    if args.timing:
        _write_json(_prepared(args.timing), timing)
    if args.emit_energy:
        write_vibmap(_prepared(args.emit_energy), values)
    if args.emit_hough:
        gt = load_ground_truth(args.hough_gt) if args.hough_gt else None
        hmap = _hough_channels(det, grid, hough_transform(values, grid), cfg,
                               gt)
        write_vibmap(_prepared(args.emit_hough), [hmap.shaft, hmap.tip])
    return _detection_exit(det, cfg)


def cmd_stream(args, config: dict) -> int:
    from .core import load_sequence
    from .pipeline import DEFAULT_WARMUP, StreamState, stream_push

    cfg = _build_detect_config(args, config)
    warmup = DEFAULT_WARMUP if args.warmup is None else args.warmup
    seq = load_sequence(args.input)
    # a replay shorter than its warm-up emits nothing, and StreamState sizes
    # its rings by warmup; any other replay emits at its last frame
    if warmup > seq.frame_count:
        raise NoDetectionError(
            f"stream ended after {seq.frame_count} frames, before the "
            f"{warmup}-frame warm-up"
        )
    state = StreamState(seq.height, seq.width, seq.fps, cfg, warmup=warmup)
    for t in range(seq.frame_count):
        det = stream_push(state, seq.frames[t])
        if det is not None:
            line = {"frame": t}
            line.update(det.to_dict())
            print(json.dumps(line))
            last = det
    return _detection_exit(last, cfg)


def cmd_eval(args, config: dict) -> int:
    from .metrics import evaluate_batch, write_report_csv

    records, agg, unmatched = evaluate_batch(
        args.pred, args.gt,
        angle_thresh=args.angle_thresh, tip_thresh=args.tip_thresh,
    )
    write_report_csv(records, _prepared(args.out_csv),
                     angle_thresh=args.angle_thresh,
                     tip_thresh=args.tip_thresh)
    _write_json(_prepared(args.out_json), agg)
    print(f"n={agg['n']} missing={agg['n_missing']} "
          f"ter={agg['ter_percent']:.1f}%")
    return EXIT_OK


def cmd_spectro(args, config: dict) -> int:
    import csv

    from .core import load_sequence, pixel_signal, write_vibmap
    from .spectral import dft_basis, stft

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
        with _open_output(_prepared(args.out_csv), "w", newline="",
                          encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["window_index", "bin_freq_hz", "power"])
            for w in range(power.shape[1]):
                for k in range(power.shape[0]):
                    out.writerow([w, f"{freqs[k]:.6f}", f"{power[k, w]:.9e}"])
    return EXIT_OK


# each DetectConfig field's flag, type and help, in --help order
_DETECT_FLAGS = {
    "vib_freq": ("--vib-hz", float, "vibration frequency to look for (Hz)"),
    "window_len": ("--window", int, "STFT window length in frames"),
    "hop": ("--hop", int, "window hop"),
    "theta_step": ("--theta-step", float, "Hough angle resolution (deg)"),
    "rho_step": ("--rho-step", float, "Hough offset resolution (px)"),
    "entry_side": ("--entry-side", None, _ENTRY_SIDE_HELP),
    "profile_threshold": ("--profile-threshold", float,
                          "tip profile threshold (fraction of the 95th pct)"),
    "profile_smooth": ("--profile-smooth", int,
                       "tip profile moving-average width (samples)"),
    "confidence_min": ("--confidence-min", float, "low-confidence flag threshold"),
    "tip_sigma": ("--tip-sigma", float, "blur of the rendered tip channel (bins)"),
}


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser.  It rejects an argument it does not know
    itself, so the error comes with its own usage line; the root parser
    would print the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser every main call shares; callers must not mutate it."""
    ap = argparse.ArgumentParser(
        prog="vibeline",
        description="Detect a vibrating needle-like line and its tip in "
                    "grayscale image sequences.",
    )
    ap.add_argument("--config",
                    help="flat JSON config; flags override its values")
    ap.add_argument("--threads", type=int, help="cap numeric library threads")
    ap.add_argument("--seed", type=int,
                    help="RNG seed (overrides config and preset)")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_CommandParser)

    g = sub.add_parser("gen", help="synthesize a phantom sequence")
    g.add_argument("--out", required=True, help="output .vibseq path")
    g.add_argument("--preset",
                   help="named parameter set (fullsize, bin-aligned)")
    g.add_argument("--height", type=int)
    g.add_argument("--width", type=int)
    g.add_argument("--frames", dest="frame_count", type=int)
    g.add_argument("--fps", type=float)
    g.add_argument("--spacing", dest="pixel_spacing", type=float,
                   help="pixel spacing (mm/px)")
    g.add_argument("--angle-deg", dest="needle_angle", type=float,
                   help="needle line normal angle (deg)")
    g.add_argument("--entry-x", type=float)
    g.add_argument("--entry-y", type=float)
    g.add_argument("--length", dest="needle_length", type=float,
                   help="needle length (px)")
    g.add_argument("--vib-hz", dest="vib_freq", type=float)
    g.add_argument("--amplitude", dest="vib_amplitude", type=float,
                   help="vibration amplitude (px)")
    g.add_argument("--motion-sigma", type=float,
                   help="co-motion halo width (px)")
    g.add_argument("--visibility", type=float,
                   help="needle ridge brightness scale in [0, 1]")
    g.add_argument("--artifacts", dest="artifact_count", type=int,
                   help="static bright line distractors")
    g.add_argument("--grain", dest="speckle_grain", type=float,
                   help="speckle grain size (px)")
    g.add_argument("--entry-side", help=_ENTRY_SIDE_HELP)
    g.set_defaults(func=cmd_gen)

    d = sub.add_parser("detect", help="batch detection on a .vibseq file")
    d.add_argument("input", help="input .vibseq path")
    d.add_argument("--out", help="detection JSON (default: input with .json)")
    d.add_argument("--timing", help="per-stage timing JSON")
    d.add_argument("--emit-energy",
                   help="write the band-energy map as VIBMAP01")
    d.add_argument("--emit-hough",
                   help="write shaft+tip Hough channels as VIBMAP01")
    d.add_argument("--hough-gt",
                   help="ground-truth JSON; render the tip channel there "
                        "instead of at the detected tip")
    d.set_defaults(func=cmd_detect)

    s = sub.add_parser("stream", help="frame-by-frame detection replay")
    s.add_argument("input", help="input .vibseq path")
    s.add_argument("--warmup", type=int,
                   help="frames absorbed before detections are emitted "
                        "(default: pipeline.DEFAULT_WARMUP)")
    s.set_defaults(func=cmd_stream)

    e = sub.add_parser("eval", help="score detection JSONs against truth")
    e.add_argument("--pred", required=True, help="directory of *.json")
    e.add_argument("--gt", required=True, help="directory of *.gt.json")
    e.add_argument("--out-csv", required=True)
    e.add_argument("--out-json", required=True)
    e.add_argument("--angle-thresh", type=float, default=ANGLE_THRESH_DEG)
    e.add_argument("--tip-thresh", type=float, default=TIP_THRESH_MM)
    e.set_defaults(func=cmd_eval)

    sp = sub.add_parser("spectro",
                        help="export one pixel's spectrogram (mean removed)")
    sp.add_argument("input", help="input .vibseq path")
    sp.add_argument("--x", type=int, required=True, help="pixel column")
    sp.add_argument("--y", type=int, required=True, help="pixel row")
    sp.add_argument("--out-map", help="bin-by-window power as VIBMAP01")
    sp.add_argument("--out-csv",
                    help="long-form CSV: window_index, bin_freq_hz, power")
    sp.set_defaults(func=cmd_spectro)
    # the flags of the DetectConfig fields each command reads: a stream's
    # window moves one frame a push (hop 1), and only detect draws a tip map
    for p, fields in ((d, _DETECT_FLAGS), (sp, ("window_len", "hop")),
                      (s, _DETECT_FLAGS.keys() - {"hop", "tip_sigma"})):
        for dest, (flag, kind, text) in _DETECT_FLAGS.items():
            if dest in fields:
                p.add_argument(flag, dest=dest, type=kind, help=text)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_threads(args.threads)
        config = _load_config(args.config) if args.config else {}
        return args.func(args, config)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(c for e, c in _EXIT_CODES.items() if isinstance(exc, e))


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: subcommands, file outputs, exit codes."""

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from vibeline import (DetectConfig, HoughGrid, UsSequence, ValidationError,
                      band_energy_from_frames, hough_transform,
                      load_ground_truth, load_sequence, read_vibmap,
                      render_tip_gt, save_sequence)

VIBELINE = shutil.which("vibeline")
BASE = [VIBELINE] if VIBELINE else [sys.executable, "-m", "vibeline.cli"]

# Small, fast phantom: invisible needle vibrating at a bin-centered 3 Hz.
# --seed is a global flag, so it goes before the subcommand.
GEN_SMALL = [
    "--seed", "3", "gen", "--height", "128", "--width", "128", "--entry-x",
    "0", "--entry-y", "100", "--length", "100", "--vib-hz", "3",
    "--visibility", "0",
]
DETECT_3HZ = ["detect", "--vib-hz", "3"]


def run(args, **kw):
    return subprocess.run(BASE + args, capture_output=True, text=True, **kw)


def gen_small(path, *extra):
    proc = run(GEN_SMALL + ["--out", str(path)] + list(extra))
    assert proc.returncode == 0, proc.stderr
    return path


# --------------------------------------------------------------------------
# gen
# --------------------------------------------------------------------------

def test_gen_writes_sequence_and_ground_truth(tmp_path):
    out = gen_small(tmp_path / "a.vibseq")
    assert out.exists()
    gt = load_ground_truth(tmp_path / "a.gt.json")
    assert gt.theta == 30.0


def test_gen_is_byte_deterministic(tmp_path):
    a = gen_small(tmp_path / "a.vibseq")
    b = gen_small(tmp_path / "b.vibseq")
    assert a.read_bytes() == b.read_bytes()
    assert ((tmp_path / "a.gt.json").read_text()
            == (tmp_path / "b.gt.json").read_text())


def test_gen_seed_changes_output(tmp_path):
    a = gen_small(tmp_path / "a.vibseq")
    reseeded = ["--seed", "77"] + GEN_SMALL[2:]
    proc = run(reseeded + ["--out", str(tmp_path / "c.vibseq")])
    assert proc.returncode == 0
    assert a.read_bytes() != (tmp_path / "c.vibseq").read_bytes()


def test_gen_rejects_nyquist_violation(tmp_path):
    proc = run(["gen", "--vib-hz", "20", "--fps", "30",
                "--out", str(tmp_path / "x.vibseq")])
    assert proc.returncode == 1
    assert "Nyquist" in proc.stderr or "nyquist" in proc.stderr.lower()


def test_gen_preset_fullsize(tmp_path):
    proc = run(["--seed", "7", "gen", "--preset", "fullsize", "--visibility",
                "0", "--frames", "12", "--out", str(tmp_path / "p.vibseq")])
    assert proc.returncode == 0
    blob = (tmp_path / "p.vibseq").read_bytes()
    assert blob[:8] == b"VIBSEQ01"


# --------------------------------------------------------------------------
# detect
# --------------------------------------------------------------------------

def test_detect_round_trip_passes_metric_thresholds(tmp_path):
    seq = gen_small(tmp_path / "a.vibseq")
    out = tmp_path / "a.json"
    proc = run(DETECT_3HZ + [str(seq), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    pred = json.loads(out.read_text())
    gt = json.loads((tmp_path / "a.gt.json").read_text())
    d = abs(pred["theta_deg"] - gt["theta_deg"]) % 180.0
    assert min(d, 180.0 - d) <= 15.0
    tip_mm = gt["pixel_spacing_mm"] * math.hypot(
        pred["tip_x_px"] - gt["tip_x_px"], pred["tip_y_px"] - gt["tip_y_px"])
    assert tip_mm <= 10.0
    assert pred["low_confidence"] is False


def test_detect_optional_artifacts(tmp_path):
    seq = gen_small(tmp_path / "a.vibseq")
    energy = tmp_path / "e.vibmap"
    hough = tmp_path / "h.vibmap"
    timing = tmp_path / "t.json"
    proc = run(DETECT_3HZ + [str(seq), "--out", str(tmp_path / "a.json"),
                             "--emit-energy", str(energy),
                             "--emit-hough", str(hough),
                             "--timing", str(timing)])
    assert proc.returncode == 0, proc.stderr
    e = read_vibmap(energy)
    assert e.shape == (1, 128, 128)
    h = read_vibmap(hough)
    assert h.shape[0] == 2  # shaft + tip channels
    t = json.loads(timing.read_text())
    assert set(t) == {"spectral_ms", "hough_ms", "post_ms", "total_ms"}


def test_detect_emits_the_maps_its_detection_used(tmp_path, monkeypatch):
    # In process, so the stage calls can be counted where the pipeline
    # looks them up: one spectral pass and one Hough vote serve the
    # record, the timing and both emitted maps.
    from vibeline import cli, pipeline

    seq_path = gen_small(tmp_path / "a.vibseq")
    calls = {"band_energy_from_frames": 0, "hough_transform": 0}

    def counted(name):
        fn = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name, counted(name))
    energy, hough = tmp_path / "e.vibmap", tmp_path / "h.vibmap"
    code = cli.main(DETECT_3HZ + [str(seq_path),
                                  "--out", str(tmp_path / "a.json"),
                                  "--emit-energy", str(energy),
                                  "--emit-hough", str(hough),
                                  "--timing", str(tmp_path / "t.json")])
    monkeypatch.undo()
    assert code == 0
    assert calls == {"band_energy_from_frames": 1, "hough_transform": 1}

    seq = load_sequence(seq_path)
    values, _ = band_energy_from_frames(seq.frames_float(), seq.fps, 3.0)
    assert np.array_equal(read_vibmap(energy)[0], values.astype(np.float32))
    det = json.loads((tmp_path / "a.json").read_text())
    cfg = DetectConfig(vib_freq=3.0)
    grid = HoughGrid(image_h=seq.height, image_w=seq.width,
                     theta_step=cfg.theta_step, rho_step=cfg.rho_step)
    votes = hough_transform(values, grid)
    want_tip = render_tip_gt(grid, det["tip_x_px"], det["tip_y_px"],
                             cfg.tip_sigma)
    shaft, tip = read_vibmap(hough)
    assert np.array_equal(shaft, (votes / votes.max()).astype(np.float32))
    assert np.array_equal(tip, want_tip.astype(np.float32))


def test_detect_non_finite_frames_exit_1_without_a_record(tmp_path, monkeypatch):
    # a .vibseq holds uint8 pixels, so the NaN is injected where the CLI
    # hands its frames to detection; a NaN confidence would otherwise be
    # written as invalid JSON
    from vibeline import cli, pipeline
    from vibeline.core import _unit_float

    seq_path = gen_small(tmp_path / "a.vibseq")
    clean = pipeline.detect_with_timing

    def poisoned(frames01, fps, cfg=None):
        frames = _unit_float(frames01)
        frames[3, 64, 64] = np.nan
        return clean(frames, fps, cfg)

    monkeypatch.setattr(pipeline, "detect_with_timing", poisoned)
    out = tmp_path / "a.json"
    assert cli.main(DETECT_3HZ + [str(seq_path), "--out", str(out)]) == 1
    assert not out.exists()


def test_detect_missing_input_exits_2(tmp_path):
    missing = tmp_path / "absent.vibseq"
    proc = run(["detect", str(missing)])
    assert proc.returncode == 2
    assert "absent.vibseq" in proc.stderr


def test_detect_emit_hough_without_a_tip_exits_3(tmp_path, capsys):
    # black frames: an all-zero energy map, so no shaft and no tip
    from vibeline import cli

    seq_path = tmp_path / "flat.vibseq"
    save_sequence(UsSequence(np.zeros((30, 128, 128), dtype=np.uint8),
                             fps=30.0, pixel_spacing=0.1), seq_path)
    out, hough = tmp_path / "flat.json", tmp_path / "h.vibmap"
    args = DETECT_3HZ + [str(seq_path), "--out", str(out),
                         "--emit-hough", str(hough)]
    assert cli.main(args) == 3
    record = json.loads(out.read_text())
    assert record["tip_x_px"] is None and record["low_confidence"] is True
    assert not hough.exists()
    assert "no tip to render" in capsys.readouterr().err

    # a ground-truth tip needs no detected one: the file is written
    gt_path = gen_small(tmp_path / "g.vibseq").with_name("g.gt.json")
    assert cli.main(args + ["--hough-gt", str(gt_path)]) == 3
    grid = HoughGrid(image_h=128, image_w=128)
    assert read_vibmap(hough).shape == (2, *grid.shape())


@pytest.mark.parametrize("error", ["NoTipError", "GeometryError"])
def test_detect_whose_tip_walk_fails_exits_3_with_the_shaft_written(
        tmp_path, monkeypatch, capsys, error):
    # the shaft decodes, then the walk along it raises: the record keeps
    # the shaft and its confidence, with no tip, and is flagged
    from vibeline import cli, errors

    seq = gen_small(tmp_path / "a.vibseq")
    out = tmp_path / "a.json"
    assert cli.main(DETECT_3HZ + [str(seq), "--out", str(out)]) == 0
    want = json.loads(out.read_text())

    def fails(*args):
        raise getattr(errors, error)("tip walk failed")

    monkeypatch.setattr("vibeline.pipeline.tip_along_line", fails)
    capsys.readouterr()
    assert cli.main(DETECT_3HZ + [str(seq), "--out", str(out)]) == 3
    got = json.loads(out.read_text())
    assert got == {**want, "tip_x_px": None, "tip_y_px": None,
                   "low_confidence": True}
    # the confidence clears its threshold, so no comparison is printed
    assert capsys.readouterr().err == "no tip along the detected line\n"


def test_detect_vibration_off_exits_3_but_writes_record(tmp_path):
    seq = tmp_path / "still.vibseq"
    proc = run(GEN_SMALL + ["--amplitude", "0", "--out", str(seq)])
    assert proc.returncode == 0
    out = tmp_path / "still.json"
    proc = run(DETECT_3HZ + [str(seq), "--out", str(out)])
    assert proc.returncode == 3
    assert json.loads(out.read_text())["low_confidence"] is True
    # one line, led by a comparison that holds
    (line,) = proc.stderr.splitlines()
    confidence, threshold = re.match(
        r"low confidence \((\S+) < (\S+)\)", line).groups()
    assert float(confidence) < float(threshold) == 12.0


# --------------------------------------------------------------------------
# one parser per process: main reuses it, and no call leaves state in it
# --------------------------------------------------------------------------

def test_main_builds_its_parser_once_per_process(tmp_path):
    from vibeline import cli

    assert cli.build_parser() is cli.build_parser()
    seq = gen_small(tmp_path / "a.vibseq")
    cli.build_parser.cache_clear()
    for name in ("a.json", "b.json"):
        assert cli.main(DETECT_3HZ + [str(seq), "--out", str(tmp_path / name)]) == 0
    assert cli.build_parser.cache_info().misses == 1


def test_a_flag_of_one_call_does_not_reach_the_next(tmp_path):
    from vibeline import cli

    seq = gen_small(tmp_path / "a.vibseq")
    timing = tmp_path / "t.json"
    assert cli.main(DETECT_3HZ + [str(seq), "--out", str(tmp_path / "a.json"),
                                  "--timing", str(timing)]) == 0
    timing.unlink()
    plain = cli.build_parser().parse_args(["detect", str(seq)])
    assert plain.vib_freq is None and plain.timing is None
    second = tmp_path / "second.json"
    code = cli.main(["detect", str(seq), "--out", str(second)])
    assert not timing.exists()
    fresh = tmp_path / "fresh.json"
    proc = run(["detect", str(seq), "--out", str(fresh)])
    assert code == proc.returncode
    assert second.read_bytes() == fresh.read_bytes()


def test_a_call_argparse_rejects_leaves_the_parser_usable(tmp_path, capsys):
    from vibeline import cli

    seq = gen_small(tmp_path / "a.vibseq")
    with pytest.raises(SystemExit) as exc:
        cli.main(DETECT_3HZ + [str(seq), "--no-such-flag"])
    assert exc.value.code == 2
    assert "--no-such-flag" in capsys.readouterr().err
    out = tmp_path / "a.json"
    assert cli.main(DETECT_3HZ + [str(seq), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["low_confidence"] is False


@pytest.mark.parametrize("command", [None, "gen", "detect", "stream", "eval",
                                     "spectro"])
def test_help_of_the_shared_parser_is_that_of_a_fresh_one(command, capsys,
                                                          monkeypatch):
    from vibeline import cli

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    cli.build_parser().parse_args(["--seed", "3", "gen", "--out", "x.vibseq"])
    argv = [command] if command else []
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--help"])
    assert exc.value.code == 0
    fresh = cli.build_parser.__wrapped__()
    if command:
        (sub,) = [a for a in fresh._actions
                  if isinstance(a, argparse._SubParsersAction)]
        fresh = sub.choices[command]
    assert capsys.readouterr().out == fresh.format_help()
    proc = run(argv + ["--help"], env={**os.environ, "COLUMNS": "80"})
    assert proc.returncode == 0 and proc.stdout == fresh.format_help()


# --------------------------------------------------------------------------
# stream
# --------------------------------------------------------------------------

def test_stream_emits_once_for_warmup_length_input(tmp_path):
    seq = gen_small(tmp_path / "a.vibseq")
    proc = run(["stream", str(seq), "--vib-hz", "3"])
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["frame"] == 29  # 0-based index of the frame just pushed


def test_stream_emits_each_frame_after_warmup(tmp_path):
    seq = tmp_path / "long.vibseq"
    proc = run(GEN_SMALL + ["--frames", "60", "--out", str(seq)])
    assert proc.returncode == 0
    proc = run(["stream", str(seq), "--vib-hz", "3"])
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    assert len(lines) == 31


def test_stream_final_line_matches_batch_detect(tmp_path):
    seq = gen_small(tmp_path / "a.vibseq")
    out = tmp_path / "batch.json"
    assert run(DETECT_3HZ + [str(seq), "--out", str(out)]).returncode == 0
    batch = json.loads(out.read_text())
    proc = run(["stream", str(seq), "--vib-hz", "3"])
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["theta_deg"] == batch["theta_deg"]
    assert last["rho_px"] == batch["rho_px"]
    assert math.hypot(last["tip_x_px"] - batch["tip_x_px"],
                      last["tip_y_px"] - batch["tip_y_px"]) <= 1.0


def test_stream_rejects_hop_other_than_one(tmp_path):
    # stream has no --hop flag; a config hop still reaches StreamState
    seq = gen_small(tmp_path / "a.vibseq")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hop": 3}))
    proc = run(["--config", str(cfg), "stream", str(seq), "--vib-hz", "3"])
    assert proc.returncode == 1
    assert "hop" in proc.stderr
    assert proc.stdout == ""


def test_config_top_p_is_an_unknown_key(tmp_path):
    # top_p configured nothing the detector reads, so it was removed
    seq = gen_small(tmp_path / "a.vibseq")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"top_p": 1.0}))
    proc = run(["--config", str(cfg)] + DETECT_3HZ + [str(seq)])
    assert proc.returncode == 1
    assert "top_p" in proc.stderr


def test_stream_warmup_zero_exits_1(tmp_path, capsys):
    # an explicit 0 must reach StreamState, not fall back to the default
    from vibeline import cli

    seq = gen_small(tmp_path / "a.vibseq")
    assert cli.main(["stream", str(seq), "--vib-hz", "3",
                     "--warmup", "0"]) == 1
    assert "warmup" in capsys.readouterr().err


@pytest.mark.parametrize("field", [3, 4])  # fps, pixel spacing
def test_detect_on_a_non_finite_header_exits_1(tmp_path, capsys, field):
    from vibeline import cli

    seq = UsSequence(np.zeros((12, 16, 16), np.uint8), 30.0, 0.1)
    path = tmp_path / "inf.vibseq"
    save_sequence(seq, path)
    blob = bytearray(path.read_bytes())
    fields = list(struct.unpack_from("<III ff", blob, 8))
    fields[field] = math.inf
    struct.pack_into("<III ff", blob, 8, *fields)
    path.write_bytes(bytes(blob))
    out = tmp_path / "inf.json"
    assert cli.main(DETECT_3HZ + [str(path), "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scene", ["static", "noise"])
def test_stream_exit_3_prints_the_line_detect_prints(tmp_path, capsys, scene):
    # the last emission is batch detection of the same 30 frames
    from vibeline import cli

    seq = tmp_path / "a.vibseq"
    if scene == "static":
        frames = np.full((30, 32, 32), 90, dtype=np.uint8)
        save_sequence(UsSequence(frames, fps=30.0, pixel_spacing=0.1), seq)
    else:
        _noise_sequence(seq)
    assert cli.main(["detect", str(seq), "--out", str(tmp_path / "a.json")]) == 3
    line = capsys.readouterr().err
    assert cli.main(["stream", str(seq)]) == 3
    assert capsys.readouterr().err == line
    assert len(line.splitlines()) == 1 and line.startswith("low confidence (")
    if scene == "static":  # a zero Hough peak: no line was detected
        assert line == "low confidence (0 < 12); no energy in the vibration band\n"


def test_stream_too_short_input_exits_3(tmp_path):
    seq = tmp_path / "short.vibseq"
    proc = run(GEN_SMALL + ["--frames", "20", "--out", str(seq)])
    assert proc.returncode == 0
    proc = run(["stream", str(seq), "--vib-hz", "3"])
    assert proc.returncode == 3


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def test_eval_writes_csv_and_aggregate(tmp_path):
    pred_dir = tmp_path / "pred"
    gt_dir = tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    for seed in ("3", "4"):
        seq = tmp_path / f"s{seed}.vibseq"
        proc = run(["--seed", seed] + GEN_SMALL[2:] + ["--out", str(seq)])
        assert proc.returncode == 0
        (gt_dir / f"s{seed}.gt.json").write_text(
            (tmp_path / f"s{seed}.gt.json").read_text())
        proc = run(DETECT_3HZ + [str(seq), "--out",
                                 str(pred_dir / f"s{seed}.json")])
        assert proc.returncode == 0
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "agg.json"
    proc = run(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir),
                "--out-csv", str(csv_path), "--out-json", str(json_path)])
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(csv_path.read_text().splitlines()))
    assert rows[0] == ["sequence_id", "angle_err_deg", "tip_err_mm",
                       "exceeds_ter"]
    assert len(rows) == 3
    agg = json.loads(json_path.read_text())
    assert agg["n"] == 2
    assert agg["ter_percent"] == 0.0
    assert "ter=" in proc.stdout


GOOD_GT = {"theta_deg": 30.0, "rho_px": 50.0, "tip_x_px": 50.0,
           "tip_y_px": 13.4, "pixel_spacing_mm": 0.5}
GOOD_PRED = {"theta_deg": 31.0, "rho_px": 50.5, "tip_x_px": 53.0,
             "tip_y_px": 17.4, "confidence": 80.0, "low_confidence": False}
MALFORMED = {
    "list": b"[1, 2]",
    # a tip-less prediction
    "theta_only": json.dumps({"theta_deg": 1}).encode(),
    "no_theta": json.dumps({"tip_x_px": 1, "tip_y_px": 2}).encode(),
    "not_json": b"{not json",
    "text_theta": json.dumps({**GOOD_GT, **GOOD_PRED,
                              "theta_deg": "abc"}).encode(),
    # every field present, but the file is Latin-1, not UTF-8
    "not_utf8": json.dumps({**GOOD_GT, **GOOD_PRED, "note": "\u00e9"},
                           ensure_ascii=False).encode("latin-1"),
}


def _assert_one_format_error(capsys, path):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert str(path) in err[0]


@pytest.mark.parametrize("side, case", [
    (side, case) for side in ("pred", "gt") for case in sorted(MALFORMED)
    if (side, case) != ("pred", "theta_only")  # missing, not malformed
])
def test_eval_malformed_record_exits_2_and_writes_no_report(tmp_path, capsys,
                                                            side, case):
    from vibeline import cli

    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    pred, gt = pred_dir / "s.json", gt_dir / "s.gt.json"
    pred.write_text(json.dumps(GOOD_PRED))
    gt.write_text(json.dumps(GOOD_GT))
    bad = pred if side == "pred" else gt
    bad.write_bytes(MALFORMED[case])
    out_csv, out_json = tmp_path / "r.csv", tmp_path / "a.json"
    assert cli.main(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir),
                     "--out-csv", str(out_csv),
                     "--out-json", str(out_json)]) == 2
    _assert_one_format_error(capsys, bad)
    assert not out_csv.exists() and not out_json.exists()


def test_eval_malformed_truth_of_a_missing_prediction_exits_2(tmp_path,
                                                              capsys):
    # a flagged prediction is a missing record, but its truth must parse
    from vibeline import cli

    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    (pred_dir / "s.json").write_text(
        json.dumps({**GOOD_PRED, "low_confidence": True}))
    (gt_dir / "s.gt.json").write_bytes(MALFORMED["theta_only"])
    assert cli.main(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir),
                     "--out-csv", str(tmp_path / "r.csv"),
                     "--out-json", str(tmp_path / "a.json")]) == 2
    _assert_one_format_error(capsys, gt_dir / "s.gt.json")


def test_eval_truth_without_rho_px_exits_2(tmp_path, capsys):
    # every truth gen writes holds rho_px, and eval reads it as one record
    from vibeline import cli

    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    (pred_dir / "s.json").write_text(json.dumps(GOOD_PRED))
    truth = gt_dir / "s.gt.json"
    truth.write_text(json.dumps(
        {k: v for k, v in GOOD_GT.items() if k != "rho_px"}))
    out_csv, out_json = tmp_path / "r.csv", tmp_path / "a.json"
    assert cli.main(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir),
                     "--out-csv", str(out_csv),
                     "--out-json", str(out_json)]) == 2
    _assert_one_format_error(capsys, truth)
    assert not out_csv.exists() and not out_json.exists()


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_detect_malformed_hough_gt_exits_2_and_writes_no_hough(tmp_path,
                                                               capsys, case):
    from vibeline import cli

    seq_path = _noise_sequence(tmp_path / "a.vibseq")
    gt, hough = tmp_path / "a.gt.json", tmp_path / "h.vibmap"
    gt.write_bytes(MALFORMED[case])
    assert cli.main(DETECT_3HZ + [str(seq_path), "--out",
                                  str(tmp_path / "a.json"),
                                  "--emit-hough", str(hough),
                                  "--hough-gt", str(gt)]) == 2
    _assert_one_format_error(capsys, gt)
    assert not hough.exists()


# --------------------------------------------------------------------------
# spectro
# --------------------------------------------------------------------------

def _spectro_rows(tmp_path, seq, x, y):
    out_map = tmp_path / "s.vibmap"
    out_csv = tmp_path / "s.csv"
    proc = run(["spectro", str(seq), "--x", str(x), "--y", str(y),
                "--out-map", str(out_map), "--out-csv", str(out_csv)])
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(out_csv.read_text().splitlines()))
    assert read_vibmap(out_map).shape[2] == 21  # windows of a 30-frame run
    return rows


def _power_by_freq(rows):
    power = {}
    for row in rows:
        f = float(row["bin_freq_hz"])
        power[f] = power.get(f, 0.0) + float(row["power"])
    return power


def test_spectro_on_needle_pixel_peaks_at_vibration_bin(tmp_path):
    seq = gen_small(tmp_path / "a.vibseq")
    gt = json.loads((tmp_path / "a.gt.json").read_text())
    # Probe halfway down the shaft.
    x = int(round((0 + gt["tip_x_px"]) / 2))
    y = int(round((100 + gt["tip_y_px"]) / 2))
    power = _power_by_freq(_spectro_rows(tmp_path, seq, x, y))
    non_dc = {f: p for f, p in power.items() if f > 0}
    assert max(non_dc, key=non_dc.get) == 3.0


def test_spectro_background_pixel_has_no_dominant_bin(tmp_path):
    seq = gen_small(tmp_path / "a.vibseq")
    rows = _spectro_rows(tmp_path, seq, 120, 10)  # far from the needle
    by_window = {}
    for row in rows:
        by_window.setdefault(row["window_index"], []).append(
            float(row["power"]))
    for powers in by_window.values():
        med = sorted(powers)[len(powers) // 2]
        assert max(powers) <= max(3.0 * med, 1e-12)


def test_spectro_static_pixel_is_silent(tmp_path):
    seq = tmp_path / "still.vibseq"
    proc = run(GEN_SMALL + ["--amplitude", "0", "--out", str(seq)])
    assert proc.returncode == 0
    rows = _spectro_rows(tmp_path, seq, 64, 64)
    assert all(float(row["power"]) < 1e-10 for row in rows)


def test_spectro_rejects_out_of_bounds_pixel(tmp_path):
    seq = gen_small(tmp_path / "a.vibseq")
    proc = run(["spectro", str(seq), "--x", "500", "--y", "0",
                "--out-map", str(tmp_path / "s.vibmap"),
                "--out-csv", str(tmp_path / "s.csv")])
    assert proc.returncode == 1


def test_every_output_replaces_a_hard_linked_file(tmp_path):
    # each output path starts as a hard link to one old file; every command
    # writes a new file there, so the old file keeps its bytes
    from vibeline import cli

    old = tmp_path / "old"
    old.write_bytes(b"old output\n")
    (tmp_path / "gts").mkdir()
    (tmp_path / "preds").mkdir()
    outs = ["gts/a.vibseq", "gts/a.gt.json", "preds/a.json", "timing.json",
            "e.vibmap", "s.csv", "s.vibmap", "report.csv", "agg.json"]
    for name in outs:
        os.link(old, tmp_path / name)
    seq = str(tmp_path / "gts/a.vibseq")
    assert cli.main(GEN_SMALL + ["--out", seq]) == 0
    assert cli.main(DETECT_3HZ + [seq, "--out", str(tmp_path / "preds/a.json"),
                                  "--timing", str(tmp_path / "timing.json"),
                                  "--emit-energy",
                                  str(tmp_path / "e.vibmap")]) == 0
    assert cli.main(["spectro", seq, "--x", "3", "--y", "3", "--out-csv",
                     str(tmp_path / "s.csv"), "--out-map",
                     str(tmp_path / "s.vibmap")]) == 0
    assert cli.main(["eval", "--pred", str(tmp_path / "preds"), "--gt",
                     str(tmp_path / "gts"), "--out-csv",
                     str(tmp_path / "report.csv"), "--out-json",
                     str(tmp_path / "agg.json")]) == 0
    assert old.read_bytes() == b"old output\n"
    assert os.stat(old).st_nlink == 1
    for name in outs:
        assert (tmp_path / name).read_bytes() != b"old output\n", name


# --------------------------------------------------------------------------
# config file handling
# --------------------------------------------------------------------------

def _noise_sequence(path):
    frames = np.random.default_rng(7).integers(0, 256, (30, 32, 32),
                                               dtype=np.uint8)
    save_sequence(UsSequence(frames, fps=30.0, pixel_spacing=0.1), path)
    return path


@pytest.mark.parametrize("value", ["0", "-3"])
def test_threads_below_one_exits_1_and_writes_nothing(tmp_path, capsys, value):
    from vibeline import cli

    seq_path = _noise_sequence(tmp_path / "a.vibseq")
    out = tmp_path / "a.json"
    assert cli.main(["--threads", value] + DETECT_3HZ
                    + [str(seq_path), "--out", str(out)]) == 1
    assert not out.exists()
    assert "--threads" in capsys.readouterr().err


def test_threads_sets_every_thread_variable(tmp_path):
    # a fresh process: --threads must reach the variables before numpy loads
    from vibeline import cli

    seq_path = _noise_sequence(tmp_path / "a.vibseq")
    code = (
        "import json, os, sys\n"
        "from vibeline import cli\n"
        "assert 'numpy' not in sys.modules\n"
        f"code = cli.main(['--threads', '2', 'spectro', {str(seq_path)!r}, "
        f"'--x', '1', '--y', '1', '--out-csv', {str(tmp_path / 's.csv')!r}])\n"
        "print(json.dumps([code, {var: os.environ.get(var) "
        "for var in cli._THREAD_ENV_VARS}]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in cli._THREAD_ENV_VARS}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, dict.fromkeys(cli._THREAD_ENV_VARS,
                                                        "2")]


def test_threads_after_numpy_loaded_exits_1_and_leaves_the_environment(
        tmp_path, capsys):
    from vibeline import cli

    assert "numpy" in sys.modules  # this module imported it
    seq_path = _noise_sequence(tmp_path / "a.vibseq")
    out = tmp_path / "a.json"
    before = dict(os.environ)
    assert cli.main(["--threads", "3"] + DETECT_3HZ
                    + [str(seq_path), "--out", str(out)]) == 1
    assert dict(os.environ) == before
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --threads")
    assert "fresh process" in err[0]


def _command_args(command, tmp_path):
    """Arguments of a command that takes settings, writing under out/."""
    seq_path = _noise_sequence(tmp_path / "a.vibseq")
    out = tmp_path / "out"
    return {
        "gen": ["gen", "--out", str(out / "g.vibseq")],
        "detect": ["detect", str(seq_path), "--out", str(out / "d.json")],
        "stream": ["stream", str(seq_path)],
        "spectro": ["spectro", str(seq_path), "--x", "1", "--y", "1",
                    "--out-csv", str(out / "s.csv")],
    }[command]


@pytest.mark.parametrize("command", ["gen", "detect", "stream"])
def test_unknown_entry_side_exits_1_naming_the_sides(tmp_path, capsys,
                                                     command):
    # argparse holds no copy of the sides; the settings dataclass rejects
    from vibeline import cli

    args = _command_args(command, tmp_path)
    assert cli.main(args + ["--entry-side", "diagonal"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: entry_side")
    assert all(side in err[0] for side in ("left", "right", "top", "bottom"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen", "detect", "stream", "spectro"])
def test_an_entry_side_list_in_the_config_exits_1_with_one_line(tmp_path,
                                                                capsys,
                                                                command):
    from vibeline import cli

    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"entry_side": ["left"]}))
    args = ["--config", str(cfg)] + _command_args(command, tmp_path)
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: entry_side"), err
    assert not (tmp_path / "out").exists()


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    proc = run(["--config", str(cfg)] + GEN_SMALL
               + ["--out", str(tmp_path / "a.vibseq")])
    assert proc.returncode == 1
    assert "bogus_key" in proc.stderr


def test_config_malformed_json_is_io_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    proc = run(["--config", str(cfg)] + GEN_SMALL
               + ["--out", str(tmp_path / "a.vibseq")])
    assert proc.returncode == 2


def test_config_not_utf8_exits_2_naming_it(tmp_path, capsys):
    from vibeline import cli

    cfg = tmp_path / "cfg.json"
    cfg.write_bytes('{"seed": 4, "entry_side": "l\u00e9ft"}'.encode("latin-1"))
    out = tmp_path / "a.vibseq"
    assert cli.main(["--config", str(cfg), "gen", "--out", str(out)]) == 2
    _assert_one_format_error(capsys, cfg)
    assert not out.exists()


def test_flags_override_config_values(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"vib_amplitude": 0.0}))
    # Config alone: vibration off, so detection is low-confidence.
    still = tmp_path / "still.vibseq"
    proc = run(["--config", str(cfg)] + GEN_SMALL + ["--out", str(still)])
    assert proc.returncode == 0
    assert run(DETECT_3HZ + [str(still), "--out",
                             str(tmp_path / "s.json")]).returncode == 3
    # Flag wins over config: vibration back on.
    moving = tmp_path / "moving.vibseq"
    proc = run(["--config", str(cfg)] + GEN_SMALL
               + ["--amplitude", "0.8", "--out", str(moving)])
    assert proc.returncode == 0
    assert run(DETECT_3HZ + [str(moving), "--out",
                             str(tmp_path / "m.json")]).returncode == 0


@pytest.mark.parametrize("key", ["alpha", "beta", "gamma", "clamp_eps"])
def test_config_loss_params_keys_are_unknown(tmp_path, capsys, key):
    # no command builds a LossParams, so its fields configure nothing
    from vibeline import cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1.0}))
    assert cli.main(["--config", str(cfg)] + GEN_SMALL
                    + ["--out", str(tmp_path / "a.vibseq")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "a.vibseq").exists()


# (flag, field, flag value, parsed flag value, config value); each value
# differs from the field's default
GEN_SETTINGS = [
    ("--height", "height", "40", 40, 50),
    ("--width", "width", "41", 41, 51),
    ("--frames", "frame_count", "12", 12, 14),
    ("--fps", "fps", "25", 25.0, 20.0),
    ("--spacing", "pixel_spacing", "0.2", 0.2, 0.3),
    ("--angle-deg", "needle_angle", "45", 45.0, 60.0),
    ("--length", "needle_length", "90", 90.0, 80.0),
    ("--vib-hz", "vib_freq", "3", 3.0, 4.0),
    ("--amplitude", "vib_amplitude", "0.5", 0.5, 0.6),
    ("--motion-sigma", "motion_sigma", "2", 2.0, 3.0),
    ("--visibility", "visibility", "0.4", 0.4, 0.2),
    ("--artifacts", "artifact_count", "2", 2, 3),
    ("--grain", "speckle_grain", "2.5", 2.5, 3.5),
    ("--entry-side", "entry_side", "top", "top", "right"),
    ("--seed", "seed", "9", 9, 11),
]
# flags that keep every spec of a GEN_SETTINGS row valid: a 20 px needle
# from (0, 30) fits a 40 x 41 image, and an entry at the top-right corner
# lies on both the top and the right border
_SHORT_NEEDLE = ["--entry-y", "30", "--length", "20"]
GEN_CONTEXT = {"height": _SHORT_NEEDLE, "width": _SHORT_NEEDLE,
               "entry_side": ["--entry-x", "334", "--entry-y", "0"]}
DETECT_SETTINGS = [
    ("--vib-hz", "vib_freq", "3", 3.0, 4.0),
    ("--window", "window_len", "12", 12, 16),
    ("--hop", "hop", "2", 2, 3),
    ("--theta-step", "theta_step", "0.5", 0.5, 2.0),
    ("--rho-step", "rho_step", "0.7", 0.7, 2.0),
    ("--entry-side", "entry_side", "top", "top", "bottom"),
    ("--profile-threshold", "profile_threshold", "0.4", 0.4, 0.5),
    ("--profile-smooth", "profile_smooth", "3", 3, 7),
    ("--confidence-min", "confidence_min", "5", 5.0, 6.0),
    ("--tip-sigma", "tip_sigma", "1.5", 1.5, 3.0),
]
DETECT_COMMANDS = {
    "detect": ["detect", "in.vibseq"],
    "stream": ["stream", "in.vibseq"],
    "spectro": ["spectro", "in.vibseq", "--x", "1", "--y", "2"],
}
# the DetectConfig fields each command reads, so the flags it declares: a
# stream's window moves one frame a push (hop 1) and draws no tip channel
_DETECT_FIELDS = {f.name for f in dataclasses.fields(DetectConfig)}
DETECT_READS = {"detect": _DETECT_FIELDS,
                "stream": _DETECT_FIELDS - {"hop", "tip_sigma"},
                "spectro": {"window_len", "hop"}}


def _gen_spec(flags, config):
    from vibeline import cli

    globals_, local = [], []
    for i in range(0, len(flags), 2):
        # --seed is a global flag, so it goes before the subcommand
        (globals_ if flags[i] == "--seed" else local).extend(flags[i:i + 2])
    args = cli.build_parser().parse_args(
        globals_ + ["gen", "--out", "x.vibseq"] + local)
    return cli._build_phantom_spec(args, config)


def _detect_cfg(command, flags, config):
    from vibeline import cli

    args = cli.build_parser().parse_args(DETECT_COMMANDS[command] + flags)
    return cli._build_detect_config(args, config)


@pytest.mark.parametrize("flag, field, text, flag_value, cfg_value",
                         GEN_SETTINGS)
def test_gen_flag_and_config_key_set_their_field(flag, field, text,
                                                 flag_value, cfg_value):
    from vibeline import PhantomSpec

    context = GEN_CONTEXT.get(field, [])
    assert getattr(PhantomSpec(), field) not in (flag_value, cfg_value)
    assert getattr(_gen_spec([flag, text] + context, {}), field) == flag_value
    assert getattr(_gen_spec(context, {field: cfg_value}), field) == cfg_value
    both = _gen_spec([flag, text] + context, {field: cfg_value})
    assert getattr(both, field) == flag_value


@pytest.mark.parametrize("command", sorted(DETECT_COMMANDS))
@pytest.mark.parametrize("flag, field, text, flag_value, cfg_value",
                         DETECT_SETTINGS)
def test_detect_flag_and_config_key_set_their_field(command, flag, field,
                                                    text, flag_value,
                                                    cfg_value):
    # every command takes every key; only the flags it reads are declared
    assert getattr(DetectConfig(), field) not in (flag_value, cfg_value)
    cfg = _detect_cfg(command, [], {field: cfg_value})
    assert getattr(cfg, field) == cfg_value
    if field in DETECT_READS[command]:
        cfg = _detect_cfg(command, [flag, text], {})
        assert getattr(cfg, field) == flag_value
        cfg = _detect_cfg(command, [flag, text], {field: cfg_value})
        assert getattr(cfg, field) == flag_value


# a config value of each JSON type but a number, which no field takes
_NOT_A_NUMBER = [None, [], [1], ["left"], {"left": 1}, "1", True]


@pytest.mark.parametrize("value", _NOT_A_NUMBER, ids=repr)
def test_every_config_key_rejects_a_value_that_is_not_a_number(value):
    # the build step rejects it, before any synthesis
    from vibeline import PhantomSpec

    for key in sorted(f.name for f in dataclasses.fields(PhantomSpec)):
        with pytest.raises(ValidationError, match=key):
            _gen_spec([], {key: value})
    for key in sorted(f.name for f in dataclasses.fields(DetectConfig)):
        with pytest.raises(ValidationError, match=key):
            _detect_cfg("detect", [], {key: value})


def test_entry_flags_override_one_coordinate_of_the_configured_entry():
    # each flag moves the entry along the border its entry_side names
    right = {"needle_entry": [334, 50], "entry_side": "right"}
    assert _gen_spec([], right).needle_entry == (334.0, 50.0)
    assert _gen_spec(["--entry-y", "100"],
                     right).needle_entry == (334.0, 100.0)
    top = {"needle_entry": [200, 0], "entry_side": "top"}
    assert _gen_spec([], top).needle_entry == (200.0, 0.0)
    assert _gen_spec(["--entry-x", "150"], top).needle_entry == (150.0, 0.0)
    with pytest.raises(ValidationError, match="needle_entry"):
        _gen_spec([], {"needle_entry": [1, 2, 3]})


# options that configure the command itself, not a PhantomSpec or
# DetectConfig field
COMMAND_ARGS = {
    "config", "threads", "input", "out", "timing", "emit_energy",
    "emit_hough", "hough_gt", "warmup", "x", "y", "out_map", "out_csv",
    "preset", "entry_x", "entry_y", "pred", "gt", "out_json",
    "angle_thresh", "tip_thresh",
}


def test_every_option_is_a_settings_field_or_a_command_argument():
    # each command declares a flag for exactly the settings fields it reads
    from vibeline import PhantomSpec, cli

    reads = {**DETECT_READS, "eval": set(),
             # --seed is global, and --entry-x/--entry-y set needle_entry
             "gen": {f.name for f in dataclasses.fields(PhantomSpec)}
                    - {"seed", "needle_entry"}}

    def dests(parser):
        return [a.dest for a in parser._actions
                if not isinstance(a, (argparse._HelpAction,
                                      argparse._SubParsersAction))]

    ap = cli.build_parser()
    assert set(dests(ap)) - COMMAND_ARGS == {"seed"}
    (sub,) = [a for a in ap._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(reads)
    for command, parser in sub.choices.items():
        settings = [d for d in dests(parser) if d not in COMMAND_ARGS]
        assert len(settings) == len(set(settings)), command  # each declared once
        assert set(settings) == reads[command], command
    assert {c: len(reads[c]) for c in DETECT_READS} == {
        "detect": 10, "stream": 8, "spectro": 2}


# (command, a flag that sets a field the command does not read, its value)
REMOVED_FLAGS = [
    (command, flag, text)
    for command in ("stream", "spectro")
    for flag, field, text, _, _ in DETECT_SETTINGS
    if field not in DETECT_READS[command]
]


@pytest.mark.parametrize("command, flag, text", REMOVED_FLAGS)
def test_a_flag_of_a_field_the_command_does_not_read_exits_2(
        tmp_path, capsys, command, flag, text):
    from vibeline import cli

    args = _command_args(command, tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(args + [flag, text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the command's own usage, not the top-level one
    assert err.startswith(f"usage: vibeline {command} [-h]")
    assert f"vibeline {command}: error: unrecognized arguments: {flag} {text}\n" in err
    assert not (tmp_path / "out").exists()
    # the cached parser still runs the same call without the flag; on noise
    # a stream ends flagged
    assert cli.main(args) == {"stream": 3, "spectro": 0}[command]
    assert "error" not in capsys.readouterr().err


def test_output_directories_are_created(tmp_path):
    seq = gen_small(tmp_path / "deep" / "a.vibseq")
    out = tmp_path / "preds" / "nested" / "a.json"
    proc = run(DETECT_3HZ + [str(seq), "--out", str(out)])
    assert proc.returncode == 0
    assert out.exists()


# --------------------------------------------------------------------------
# settings: one error line naming the setting, and nothing written
# --------------------------------------------------------------------------

# (global flags, subcommand flags, config, the setting the error names)
BAD_SETTINGS = {
    # a NaN threshold turned the low-confidence flag off
    "confidence_min_nan": ([], ["--confidence-min", "nan"], None,
                           "confidence_min"),
    # wrote an all-NaN tip channel
    "tip_sigma_nan": ([], ["--tip-sigma", "nan"], None, "tip_sigma"),
    # these crashed with a traceback
    "rho_step_nan": ([], ["--rho-step", "nan"], None, "rho_step"),
    # more than 65,536 bins: numpy refused the array, or built a huge table
    "rho_step_tiny": ([], ["--rho-step", "1e-300"], None, "rho_step"),
    "theta_step_tiny": ([], ["--theta-step", "1e-6"], None, "theta_step"),
    "amplitude_nan": ([], ["--amplitude", "nan"], None, "vib_amplitude"),
    "motion_sigma_nan": ([], ["--motion-sigma", "nan"], None, "motion_sigma"),
    "seed_negative": (["--seed", "-1"], [], None, "seed"),
    "config_hop_nan": ([], [], '{"hop": NaN}', "hop"),
    "config_vib_freq_text": ([], [], '{"vib_freq": "2.5"}', "vib_freq"),
    "config_window_len_fraction": ([], [], '{"window_len": 10.5}',
                                   "window_len"),
    "config_frame_count_fraction": ([], [], '{"frame_count": 2.5}',
                                    "frame_count"),
    "config_seed_fraction": ([], [], '{"seed": 1.5}', "seed"),
    # an int past the float range overflowed in the Nyquist check
    "config_fps_huge_int": ([], [], '{"fps": 1%s}' % ("0" * 400), "fps"),
    # a uint8 stack past 1 GiB: built its amplitude list, then the stack
    "frame_count_huge": ([], ["--frames", "10000000000000"], None,
                         "frame_count"),
    # was truncated to 2
    "config_profile_smooth_fraction": ([], [], '{"profile_smooth": 2.5}',
                                       "profile_smooth"),
    # synthesized the whole sequence before the fps was rejected
    "fps_inf": ([], ["--fps", "inf"], None, "fps"),
    # reported a TER of 0% for a 40 degree error
    "angle_thresh_nan": ([], ["--angle-thresh", "nan"], None, "angle_thresh"),
    "tip_thresh_nan": ([], ["--tip-thresh", "nan"], None, "tip_thresh"),
}
GEN_FIELDS = {"vib_amplitude", "motion_sigma", "seed", "frame_count", "fps"}
EVAL_FIELDS = {"angle_thresh", "tip_thresh"}


@pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
def test_bad_setting_exits_1_naming_it_and_writes_nothing(tmp_path, capsys,
                                                          monkeypatch, case):
    from vibeline import cli, phantom

    global_flags, flags, config, name = BAD_SETTINGS[case]
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        global_flags = global_flags + ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    if name in GEN_FIELDS:
        args = ["gen", "--out", str(out / "g.vibseq")]
    elif name in EVAL_FIELDS:
        for d, record in (("pred", {**GOOD_PRED, "theta_deg": 70.0}),
                          ("gt", GOOD_GT)):
            (tmp_path / d).mkdir()
            suffix = ".json" if d == "pred" else ".gt.json"
            (tmp_path / d / f"a{suffix}").write_text(json.dumps(record))
        args = ["eval", "--pred", str(tmp_path / "pred"),
                "--gt", str(tmp_path / "gt"),
                "--out-csv", str(out / "r.csv"),
                "--out-json", str(out / "a.json")]
    else:
        seq_path = _noise_sequence(tmp_path / "a.vibseq")
        args = ["detect", str(seq_path), "--out", str(out / "d.json"),
                "--timing", str(out / "t.json"),
                "--emit-energy", str(out / "e.vibmap"),
                "--emit-hough", str(out / "h.vibmap")]

    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesis started")

    monkeypatch.setattr(phantom, "_speckle_from_rng", no_synthesis)
    assert cli.main(global_flags + args + flags) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name} must be "), err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command,owner,stage", [
    ("detect", "pipeline", "band_energy_from_frames"),  # ran it first
    ("stream", "StreamState", "push"),  # pushed the whole warm-up first
])
def test_a_grid_the_image_rejects_exits_1_before_any_frame_work(
        tmp_path, capsys, monkeypatch, command, owner, stage):
    from vibeline import cli, pipeline

    frames = np.random.default_rng(9).integers(0, 256, (40, 64, 64),
                                               dtype=np.uint8)
    seq_path = tmp_path / "n.vibseq"
    save_sequence(UsSequence(frames, fps=30.0, pixel_spacing=0.1), seq_path)
    owner = pipeline if owner == "pipeline" else pipeline.StreamState
    work, calls = getattr(owner, stage), []

    def counted(*args, **kwargs):
        calls.append(1)
        return work(*args, **kwargs)

    monkeypatch.setattr(owner, stage, counted)
    out = tmp_path / "d.json"
    args = [command, str(seq_path), "--rho-step", "1e-300"]
    if command == "detect":
        args += ["--out", str(out)]
    assert cli.main(args) == 1
    assert calls == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: rho_step must be ")
    assert not out.exists()


# (subcommand and its flags, exit code, error line, and the (module, name)
# that would allocate by the oversized setting); a 1e12 window's band list
# and basis or a 1e12-frame warm-up's rings run to TiB or PiB
_OVERSIZED = {
    "detect_window": (["detect", "--window", "1000000000000"], 1,
                      "error: frames must have shape (T, H, W) with "
                      "T >= 1000000000000, got (12, 16, 16)",
                      [("spectral", "nearest_band"), ("spectral", "dft_basis")]),
    "spectro_window": (["spectro", "--x", "3", "--y", "3", "--window",
                        "1000000000000"], 1,
                       "error: signal length 12 shorter than window "
                       "1000000000000", [("spectral", "dft_basis")]),
    "stream_warmup": (["stream", "--warmup", "1000000000000"], 3,
                      "error: stream ended after 12 frames, before the "
                      "1000000000000-frame warm-up",
                      [("pipeline", "StreamState")]),
}


@pytest.mark.parametrize("case", sorted(_OVERSIZED))
def test_an_oversized_window_or_warmup_exits_before_it_allocates(
        tmp_path, capsys, monkeypatch, case):
    # spies stand in for the allocating calls, so a regression fails here
    # rather than asking the host for the memory
    import importlib

    from vibeline import cli

    argv, code, line, allocators = _OVERSIZED[case]
    for module, name in allocators:
        def refused(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} ran")

        monkeypatch.setattr(importlib.import_module(f"vibeline.{module}"),
                            name, refused)
    frames = np.random.default_rng(11).integers(0, 256, (12, 16, 16),
                                                dtype=np.uint8)
    seq_path = tmp_path / "short.vibseq"
    save_sequence(UsSequence(frames, fps=30.0, pixel_spacing=0.1), seq_path)
    out = tmp_path / "out"
    outputs = {"detect": ["--out", str(out / "d.json")],
               "spectro": ["--out-csv", str(out / "s.csv")], "stream": []}
    args = [argv[0], str(seq_path), *argv[1:], *outputs[argv[0]]]
    assert cli.main(args) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line]
    assert captured.out == ""
    assert not out.exists()


def test_readme_quick_start_reproduces_its_printed_record(tmp_path,
                                                          monkeypatch):
    import shlex
    from pathlib import Path

    from vibeline import cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if re.match(r"vibeline (--seed \d+ )?(gen|detect) ", line)]
    assert len(commands) == 2
    # the record as printed: '#   "key": value,' lines
    shown = dict(re.findall(r'^#   "(\w+)": ([^,\n]+)', block, re.M))
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0
    record = json.loads((tmp_path / "demo.json").read_text())
    assert record.keys() == shown.keys()
    for key, value in record.items():
        text = shown[key]
        if text.endswith("..."):  # to the digits shown
            assert repr(value).startswith(text[:-3]), (key, value, text)
        else:
            assert value == json.loads(text), (key, value, text)

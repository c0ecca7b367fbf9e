"""Command-line surface: subcommands, file outputs, exit codes."""

import csv
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from vibeline import (DetectConfig, band_energy_from_frames,
                      emit_hough_channels, load_ground_truth, load_sequence,
                      read_vibmap)

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
    hmap = emit_hough_channels(seq, DetectConfig(vib_freq=3.0))
    shaft, tip = read_vibmap(hough)
    assert np.array_equal(shaft, hmap.shaft.astype(np.float32))
    assert np.array_equal(tip, hmap.tip.astype(np.float32))


def test_detect_non_finite_frames_exit_1_without_a_record(tmp_path, monkeypatch):
    # a .vibseq holds uint8 pixels, so the NaN is injected after loading;
    # a NaN confidence would otherwise be written as invalid JSON
    from vibeline import cli
    from vibeline.core import UsSequence

    seq_path = gen_small(tmp_path / "a.vibseq")
    clean = UsSequence.frames_float

    def poisoned(self):
        frames = clean(self)
        frames[3, 64, 64] = np.nan
        return frames

    monkeypatch.setattr(UsSequence, "frames_float", poisoned)
    out = tmp_path / "a.json"
    assert cli.main(DETECT_3HZ + [str(seq_path), "--out", str(out)]) == 1
    assert not out.exists()


def test_detect_missing_input_exits_2(tmp_path):
    missing = tmp_path / "absent.vibseq"
    proc = run(["detect", str(missing)])
    assert proc.returncode == 2
    assert "absent.vibseq" in proc.stderr


def test_detect_vibration_off_exits_3_but_writes_record(tmp_path):
    seq = tmp_path / "still.vibseq"
    proc = run(GEN_SMALL + ["--amplitude", "0", "--out", str(seq)])
    assert proc.returncode == 0
    out = tmp_path / "still.json"
    proc = run(DETECT_3HZ + [str(seq), "--out", str(out)])
    assert proc.returncode == 3
    assert json.loads(out.read_text())["low_confidence"] is True


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
    seq = gen_small(tmp_path / "a.vibseq")
    proc = run(["stream", str(seq), "--vib-hz", "3", "--hop", "3"])
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


# --------------------------------------------------------------------------
# spectro
# --------------------------------------------------------------------------

def _spectro_rows(tmp_path, seq, x, y):
    out_map = tmp_path / "s.vibmap"
    out_csv = tmp_path / "s.csv"
    proc = run(["spectro", str(seq), "--x", str(x), "--y", str(y),
                "--vib-hz", "3", "--out-map", str(out_map),
                "--out-csv", str(out_csv)])
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


# --------------------------------------------------------------------------
# config file handling
# --------------------------------------------------------------------------

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


def test_output_directories_are_created(tmp_path):
    seq = gen_small(tmp_path / "deep" / "a.vibseq")
    out = tmp_path / "preds" / "nested" / "a.json"
    proc = run(DETECT_3HZ + [str(seq), "--out", str(out)])
    assert proc.returncode == 0
    assert out.exists()

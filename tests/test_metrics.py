"""Angle/tip errors, threshold exceedance rate, batch reports."""

import csv
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import OUTPUT_CASES, check_output_write, recount_report
from vibeline import (
    Detection,
    ErrorRecord,
    GroundTruth,
    ValidationError,
    aggregate,
    angle_error,
    evaluate_batch,
    load_ground_truth,
    record_from_jsons,
    save_ground_truth,
    ter,
    tip_error,
    write_report_csv,
)
from vibeline import metrics
from vibeline.metrics import _write_json


def random_records(n, seed, missing_rate=0.1):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        if rng.random() < missing_rate:
            records.append(ErrorRecord(sequence_id=f"s{i:04d}", missing=True))
        else:
            records.append(ErrorRecord(
                sequence_id=f"s{i:04d}",
                angle_error=rng.uniform(0.0, 90.0),
                tip_error=rng.uniform(0.0, 30.0),
            ))
    return records


# --------------------------------------------------------------------------
# Elementary errors
# --------------------------------------------------------------------------

def test_angle_error_worked_examples():
    assert angle_error(30.0, 30.0) == 0.0
    assert angle_error(10.0, 170.0) == pytest.approx(20.0)
    assert angle_error(0.0, 90.0) == pytest.approx(90.0)


def test_angle_error_is_symmetric_and_bounded():
    rng = random.Random(5)
    for _ in range(200):
        a = rng.uniform(-360.0, 360.0)
        b = rng.uniform(-360.0, 360.0)
        e = angle_error(a, b)
        assert e == pytest.approx(angle_error(b, a))
        assert 0.0 <= e <= 90.0
    assert angle_error(179.5, 0.5) == pytest.approx(1.0)
    assert angle_error(213.0, 33.0) == pytest.approx(0.0)  # mod 180


def test_tip_error_worked_examples():
    assert tip_error((0.0, 0.0), (3.0, 4.0), 0.5) == pytest.approx(2.5)
    assert tip_error((7.0, 9.0), (7.0, 9.0), 0.3) == 0.0
    one = tip_error((1.0, 2.0), (4.0, 6.0), 0.2)
    assert tip_error((1.0, 2.0), (4.0, 6.0), 0.4) == pytest.approx(2.0 * one)


def test_tip_error_rejects_bad_spacing():
    with pytest.raises(ValidationError):
        tip_error((0.0, 0.0), (1.0, 1.0), 0.0)
    with pytest.raises(ValidationError):
        tip_error((0.0, 0.0), (1.0, 1.0), -0.5)


# --------------------------------------------------------------------------
# TER
# --------------------------------------------------------------------------

def _rec(sid, a, t):
    return ErrorRecord(sequence_id=sid, angle_error=a, tip_error=t)


def test_ter_worked_example():
    records = [
        _rec("a", 16.0, 1.0),
        _rec("b", 1.0, 1.0),
        _rec("c", 1.0, 11.0),
        _rec("d", 1.0, 1.0),
    ]
    assert ter(records, 15.0, 10.0) == 50.0


def test_ter_all_good_is_zero():
    records = [_rec(str(i), 0.0, 0.0) for i in range(8)]
    assert ter(records, 15.0, 10.0) == 0.0


def test_ter_missing_counts_as_exceeding():
    records = [
        _rec("a", 1.0, 1.0),
        ErrorRecord(sequence_id="b", missing=True),
    ]
    assert ter(records, 15.0, 10.0) == 50.0


def test_ter_rejects_empty_list():
    with pytest.raises(ValidationError):
        ter([], 15.0, 10.0)


def test_ter_monotone_as_thresholds_tighten():
    records = random_records(300, seed=7)
    prev = None
    for angle_t, tip_t in [(60.0, 25.0), (30.0, 15.0), (15.0, 10.0),
                           (5.0, 4.0), (1.0, 0.5)]:
        cur = ter(records, angle_t, tip_t)
        if prev is not None:
            assert cur >= prev
        prev = cur


def test_ter_matches_recount_oracle():
    records = random_records(1000, seed=11)
    want = recount_report(records, 15.0, 10.0)
    assert ter(records, 15.0, 10.0) == want["ter_percent"]


# --------------------------------------------------------------------------
# Aggregates
# --------------------------------------------------------------------------

def test_aggregate_single_record():
    agg = aggregate([_rec("a", 2.0, 1.0)])
    assert agg["angle_mean"] == 2.0 and agg["angle_std"] == 0.0
    assert agg["tip_mean"] == 1.0 and agg["tip_std"] == 0.0
    assert agg["ter_percent"] == 0.0
    assert agg["n"] == 1 and agg["n_missing"] == 0


def test_aggregate_two_records_population_std():
    agg = aggregate([_rec("a", 0.0, 0.0), _rec("b", 2.0, 2.0)])
    assert agg["angle_mean"] == pytest.approx(1.0)
    assert agg["angle_std"] == pytest.approx(1.0)  # population, not sample
    assert agg["tip_mean"] == pytest.approx(1.0)
    assert agg["tip_std"] == pytest.approx(1.0)


def test_aggregate_matches_recount_oracle():
    records = random_records(1000, seed=13)
    got = aggregate(records)
    want = recount_report(records, 15.0, 10.0)
    for key in ("angle_mean", "angle_std", "tip_mean", "tip_std"):
        assert got[key] == pytest.approx(want[key], rel=1e-12)
    assert got["ter_percent"] == want["ter_percent"]
    assert got["n"] == want["n"] and got["n_missing"] == want["n_missing"]


def test_aggregate_excludes_missing_from_means():
    records = [_rec("a", 4.0, 2.0), ErrorRecord(sequence_id="b", missing=True)]
    agg = aggregate(records)
    assert agg["angle_mean"] == 4.0
    assert agg["n_missing"] == 1
    assert agg["ter_percent"] == 50.0


def test_aggregate_all_missing_yields_null_stats():
    records = [ErrorRecord(sequence_id="a", missing=True)]
    agg = aggregate(records)
    assert agg["angle_mean"] is None and agg["tip_std"] is None
    assert agg["ter_percent"] == 100.0


# --------------------------------------------------------------------------
# Record construction and validation
# --------------------------------------------------------------------------

def test_error_record_validation():
    with pytest.raises(ValidationError):
        ErrorRecord(sequence_id="a", angle_error=91.0, tip_error=0.0)
    with pytest.raises(ValidationError):
        ErrorRecord(sequence_id="a", angle_error=1.0, tip_error=-2.0)
    with pytest.raises(ValidationError):
        ErrorRecord(sequence_id="a", angle_error=float("nan"), tip_error=0.0)
    with pytest.raises(ValidationError):
        ErrorRecord(sequence_id="a", angle_error=None, tip_error=1.0)


def test_record_exceeds_logic():
    assert not _rec("a", 15.0, 10.0).exceeds(15.0, 10.0)  # strict thresholds
    assert _rec("a", 15.1, 0.0).exceeds(15.0, 10.0)
    assert _rec("a", 0.0, 10.1).exceeds(15.0, 10.0)
    assert ErrorRecord(sequence_id="a", missing=True).exceeds(15.0, 10.0)


def test_record_from_jsons():
    gt = {"theta_deg": 30.0, "rho_px": 50.0, "tip_x_px": 50.0,
          "tip_y_px": 13.4, "pixel_spacing_mm": 0.5}
    pred = {"theta_deg": 31.0, "rho_px": 50.5, "tip_x_px": 53.0,
            "tip_y_px": 17.4, "confidence": 80.0, "low_confidence": False}
    rec = record_from_jsons("s1", pred, gt)
    assert rec.angle_error == pytest.approx(1.0)
    assert rec.tip_error == pytest.approx(0.5 * 5.0)
    assert not rec.missing


def test_record_from_jsons_flags_missing():
    gt = {"theta_deg": 30.0, "rho_px": 50.0, "tip_x_px": 50.0,
          "tip_y_px": 13.4, "pixel_spacing_mm": 0.5}
    no_tip = {"theta_deg": 31.0, "rho_px": 50.5, "tip_x_px": None,
              "tip_y_px": None, "confidence": 0.0, "low_confidence": False}
    flagged = {"theta_deg": 31.0, "rho_px": 50.5, "tip_x_px": 53.0,
               "tip_y_px": 17.4, "confidence": 2.0, "low_confidence": True}
    assert record_from_jsons("s1", no_tip, gt).missing
    assert record_from_jsons("s2", flagged, gt).missing


# the records' writers pinned against their readers
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_COORD = st.floats(-1e4, 1e4)


@settings(max_examples=100, deadline=None)
@given(gt=st.builds(GroundTruth, _FINITE, _FINITE, _FINITE, _FINITE, _FINITE))
def test_saved_ground_truth_loads_equal(tmp_path_factory, gt):
    path = tmp_path_factory.getbasetemp() / "round_trip.gt.json"
    save_ground_truth(gt, path)
    assert load_ground_truth(path) == gt


@settings(max_examples=200, deadline=None)
@given(det=st.builds(Detection, theta=st.floats(-720, 720), rho=_COORD,
                     tip_x=st.none() | _COORD, tip_y=st.none() | _COORD,
                     confidence=st.floats(0, 1e3),
                     low_confidence_flag=st.booleans()),
       gt=st.builds(GroundTruth, theta=st.floats(-720, 720), rho=_COORD,
                    tip_x=_COORD, tip_y=_COORD,
                    pixel_spacing=st.floats(1e-3, 10)))
def test_record_from_jsons_scores_the_written_records(det, gt):
    rec = record_from_jsons("s", json.loads(json.dumps(det.to_dict())),
                            gt.to_dict())
    if det.low_confidence_flag or det.tip_x is None or det.tip_y is None:
        assert rec.missing
        return
    assert not rec.missing
    assert rec.angle_error == angle_error(det.theta, gt.theta)
    assert rec.tip_error == tip_error((det.tip_x, det.tip_y),
                                      (gt.tip_x, gt.tip_y), gt.pixel_spacing)


# --------------------------------------------------------------------------
# Batch evaluation and report files
# --------------------------------------------------------------------------

def _write_pair(pred_dir, gt_dir, sid, pred, gt):
    (pred_dir / f"{sid}.json").write_text(json.dumps(pred))
    (gt_dir / f"{sid}.gt.json").write_text(json.dumps(gt))


GT = {"theta_deg": 30.0, "rho_px": 50.0, "tip_x_px": 50.0,
      "tip_y_px": 13.4, "pixel_spacing_mm": 0.5}
PRED = {"theta_deg": 31.0, "rho_px": 50.5, "tip_x_px": 53.0,
        "tip_y_px": 17.4, "confidence": 80.0, "low_confidence": False}


def test_evaluate_batch_pairs_by_sequence_id(tmp_path):
    pred_dir = tmp_path / "pred"
    gt_dir = tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    _write_pair(pred_dir, gt_dir, "a", PRED, GT)
    _write_pair(pred_dir, gt_dir, "b", PRED, GT)
    (pred_dir / "orphan.json").write_text(json.dumps(PRED))
    (gt_dir / "widow.gt.json").write_text(json.dumps(GT))
    with pytest.warns(UserWarning):
        records, agg, unmatched = evaluate_batch(pred_dir, gt_dir)
    assert [r.sequence_id for r in records] == ["a", "b"]
    assert sorted(unmatched) == ["orphan", "widow"]
    assert agg["n"] == 2


def test_evaluate_batch_rejects_disjoint_dirs(tmp_path):
    pred_dir = tmp_path / "pred"
    gt_dir = tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    (pred_dir / "only.json").write_text(json.dumps(PRED))
    with pytest.raises(ValidationError), pytest.warns(UserWarning):
        evaluate_batch(pred_dir, gt_dir)


def test_report_csv_layout(tmp_path):
    records = [
        _rec("a", 1.0, 0.5),
        ErrorRecord(sequence_id="b", missing=True),
        _rec("c", 20.0, 1.0),
    ]
    path = tmp_path / "report.csv"
    write_report_csv(records, path)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["sequence_id", "angle_err_deg", "tip_err_mm",
                       "exceeds_ter"]
    assert rows[1][0] == "a" and rows[1][3] == "false"
    assert rows[2] == ["b", "", "", "true"]  # missing detection
    assert rows[3][0] == "c" and rows[3][3] == "true"
    assert float(rows[1][1]) == 1.0


def test_aggregate_json_round_trip(tmp_path):
    agg = aggregate(random_records(40, seed=17))
    path = tmp_path / "agg.json"
    _write_json(path, agg)
    back = json.loads(path.read_text())
    assert back == json.loads(json.dumps(agg))
    assert set(back) == {"angle_mean", "angle_std", "tip_mean", "tip_std",
                         "ter_percent", "n", "n_missing"}


@pytest.mark.parametrize("case", OUTPUT_CASES)
@pytest.mark.parametrize("write", ["truth", "json", "csv"])
def test_a_record_replaces_a_regular_file_and_writes_through_others(
        tmp_path, monkeypatch, write, case):
    # the bytes of a plain open(path, "w") write, in every layout
    records = random_records(5, seed=3)
    writers = {
        "truth": lambda path: save_ground_truth(
            GroundTruth(30.0, 242.5, 130.0, 54.9, 0.15), path),
        "json": lambda path: _write_json(path, aggregate(records)),
        "csv": lambda path: write_report_csv(records, path),
    }
    check_output_write(tmp_path, monkeypatch, metrics, writers[write], case)


def test_numpy_inputs_are_accepted():
    # Detection code hands over numpy scalars; they must not break the
    # pure-Python arithmetic.
    e = angle_error(np.float64(10.0), np.float64(170.0))
    assert e == pytest.approx(20.0)
    assert tip_error((np.float64(0.0), np.float64(0.0)),
                     (np.float64(3.0), np.float64(4.0)), 0.5) == 2.5

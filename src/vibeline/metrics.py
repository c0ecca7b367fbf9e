"""Detection quality metrics, batch reports, and every JSON record.

The detection, the ground truth (<stem>.gt.json) and the report records are
spelled, read and written here alone, as UTF-8 JSON with indent 2 and a
trailing newline; a file that does not parse raises FormatError naming it.
Every output file of the package, these and core's framed files, is
opened by _open_output, which replaces an existing regular file.

All arithmetic here is plain Python floats (sum loops, math.sqrt) so a
recount with an independent loop reproduces every aggregate bit for
bit.  Reported std is the population standard deviation.

Records where the detector declined (low confidence, or no tip found)
are marked missing: they count against the threshold exceedance rate
but are excluded from the mean/std aggregates, with the exclusion count
reported as n_missing.
"""

from __future__ import annotations

import csv
import json
import math
import os
import stat
import warnings
from dataclasses import dataclass
from pathlib import Path

from .errors import FormatError, ValidationError, _check_setting

ANGLE_THRESH_DEG = 15.0
TIP_THRESH_MM = 10.0

GT_SUFFIX = ".gt.json"

CSV_HEADER = ["sequence_id", "angle_err_deg", "tip_err_mm", "exceeds_ter"]


# each record's JSON key -> dataclass field, in the order the file lists them
_DETECTION_FIELDS = {"theta_deg": "theta", "rho_px": "rho",
                     "tip_x_px": "tip_x", "tip_y_px": "tip_y",
                     "confidence": "confidence",
                     "low_confidence": "low_confidence_flag"}
_TRUTH_FIELDS = {"theta_deg": "theta", "rho_px": "rho", "tip_x_px": "tip_x",
                 "tip_y_px": "tip_y", "pixel_spacing_mm": "pixel_spacing"}


@dataclass(frozen=True)
class Detection:
    theta: float
    rho: float
    tip_x: float | None
    tip_y: float | None
    confidence: float
    low_confidence_flag: bool

    def to_dict(self) -> dict:
        return {k: getattr(self, f) for k, f in _DETECTION_FIELDS.items()}


@dataclass(frozen=True)
class GroundTruth:
    theta: float
    rho: float
    tip_x: float
    tip_y: float
    pixel_spacing: float

    def to_dict(self) -> dict:
        return {k: getattr(self, f) for k, f in _TRUTH_FIELDS.items()}

    @staticmethod
    def from_dict(d: dict) -> "GroundTruth":
        return GroundTruth(**{f: float(d[k])
                              for k, f in _TRUTH_FIELDS.items()})


def _open_output(path, mode: str, **kwargs):
    """open(path, mode, **kwargs) for an output file, made anew if it exists.

    An existing regular file the process may write is unlinked first, so
    the write creates a new file instead of truncating the old one (on
    ext4, truncating and rewriting a file flushes it at close).  A hard
    link to the old file keeps the old bytes, and the new file takes the
    default mode.  Any other path (missing, a symlink, a FIFO or device,
    a file the process may not write, or one whose unlink is refused) is
    opened as it is, so a symlink is written through.  A killed write
    leaves a short file, which load_sequence rejects by its size check.
    """
    try:
        if (stat.S_ISREG(os.lstat(path).st_mode)
                and os.access(path, os.W_OK)):
            os.unlink(path)
    except OSError:
        pass
    return open(path, mode, **kwargs)


def _write_json(path, obj) -> None:
    with _open_output(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc


def save_ground_truth(gt: GroundTruth, path) -> None:
    _write_json(path, gt.to_dict())


def load_ground_truth(path) -> GroundTruth:
    """Read a .gt.json file; FormatError names a file that does not parse."""
    d = _read_json(path)
    try:
        return GroundTruth.from_dict(d)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: not a ground-truth record: {exc!r}") from exc


@dataclass(frozen=True)
class ErrorRecord:
    sequence_id: str
    angle_error: float | None = None
    tip_error: float | None = None
    missing: bool = False

    def __post_init__(self):
        if self.missing:
            return
        if self.angle_error is None or self.tip_error is None:
            raise ValidationError(
                f"record {self.sequence_id!r} lacks errors but is not missing"
            )
        _check_setting("angle_error", self.angle_error, 0, 90,
                       lo_closed=True, hi_closed=True)
        _check_setting("tip_error", self.tip_error, 0, lo_closed=True)

    def exceeds(self, angle_thresh: float = ANGLE_THRESH_DEG,
                tip_thresh: float = TIP_THRESH_MM) -> bool:
        if self.missing:
            return True
        return self.angle_error > angle_thresh or self.tip_error > tip_thresh


def angle_error(pred_theta: float, gt_theta: float) -> float:
    """Undirected line-angle distance in degrees, in [0, 90]."""
    d = abs(pred_theta - gt_theta) % 180.0
    return min(d, 180.0 - d)


def tip_error(pred: tuple, gt: tuple, spacing: float) -> float:
    """Euclidean tip distance in mm given a mm/px spacing."""
    _check_setting("spacing", spacing, 0)
    return spacing * math.hypot(pred[0] - gt[0], pred[1] - gt[1])


def ter(records: list, angle_thresh: float = ANGLE_THRESH_DEG,
        tip_thresh: float = TIP_THRESH_MM) -> float:
    """Threshold exceedance rate in percent; missing records exceed."""
    if not records:
        raise ValidationError("ter of an empty record list")
    count = sum(r.exceeds(angle_thresh, tip_thresh) for r in records)
    return 100.0 * count / len(records)


def _mean_std(values: list):
    n = len(values)
    if n == 0:
        return None, None
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def aggregate(records: list, angle_thresh: float = ANGLE_THRESH_DEG,
              tip_thresh: float = TIP_THRESH_MM) -> dict:
    """Mean/std over present records plus TER over all of them.

    Values are None (JSON null) when every record is missing.
    """
    present = [r for r in records if not r.missing]
    angle_mean, angle_std = _mean_std([r.angle_error for r in present])
    tip_mean, tip_std = _mean_std([r.tip_error for r in present])
    return {
        "angle_mean": angle_mean,
        "angle_std": angle_std,
        "tip_mean": tip_mean,
        "tip_std": tip_std,
        "ter_percent": ter(records, angle_thresh, tip_thresh),
        "n": len(records),
        "n_missing": len(records) - len(present),
    }


def record_from_jsons(sequence_id: str, pred: dict, gt: dict) -> ErrorRecord:
    """ErrorRecord of a detection and a ground-truth JSON dict; a flagged or
    tip-less prediction is missing, a malformed record a FormatError."""
    what = "ground truth"
    try:
        truth = GroundTruth.from_dict(gt)
        what = "prediction"
        if pred.get("low_confidence") or pred.get("tip_x_px") is None \
                or pred.get("tip_y_px") is None:
            return ErrorRecord(sequence_id=sequence_id, missing=True)
        theta, x, y = (float(pred[k])
                       for k in ("theta_deg", "tip_x_px", "tip_y_px"))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{what} {sequence_id!r} is malformed: {exc!r}") from exc
    return ErrorRecord(sequence_id=sequence_id,
                       angle_error=angle_error(theta, truth.theta),
                       tip_error=tip_error((x, y), (truth.tip_x, truth.tip_y),
                                           truth.pixel_spacing))


def evaluate_batch(pred_dir, gt_dir, angle_thresh: float = ANGLE_THRESH_DEG,
                   tip_thresh: float = TIP_THRESH_MM):
    """Pair *.json predictions with *.gt.json truths by sequence id.

    Returns (records, aggregate_dict, unmatched_ids).  Ids present on
    only one side are excluded and reported with a warning; FormatError
    names a file that is not a well-formed record.
    """
    _check_setting("angle_thresh", angle_thresh, 0, lo_closed=True)
    _check_setting("tip_thresh", tip_thresh, 0, lo_closed=True)
    pred_dir = Path(pred_dir)
    gt_dir = Path(gt_dir)
    preds = {
        p.name[:-len(".json")]: p
        for p in sorted(pred_dir.glob("*.json"))
        if not p.name.endswith(GT_SUFFIX)
    }
    gts = {
        p.name[:-len(GT_SUFFIX)]: p
        for p in sorted(gt_dir.glob(f"*{GT_SUFFIX}"))
    }
    ids = sorted(preds.keys() & gts.keys())
    unmatched = sorted(preds.keys() ^ gts.keys())
    if unmatched:
        warnings.warn(
            f"{len(unmatched)} unmatched sequence id(s) excluded: "
            + ", ".join(unmatched)
        )
    records = []
    for sid in ids:
        pred, gt = _read_json(preds[sid]), _read_json(gts[sid])
        try:
            records.append(record_from_jsons(sid, pred, gt))
        except FormatError as exc:
            raise FormatError(f"{preds[sid]} / {gts[sid]}: {exc}") from exc
    if not records:
        raise ValidationError(
            f"no matched prediction/ground-truth pairs under {pred_dir} / {gt_dir}"
        )
    return records, aggregate(records, angle_thresh, tip_thresh), unmatched


def write_report_csv(records: list, path,
                     angle_thresh: float = ANGLE_THRESH_DEG,
                     tip_thresh: float = TIP_THRESH_MM) -> None:
    with _open_output(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(CSV_HEADER)
        for r in records:
            out.writerow([
                r.sequence_id,
                "" if r.missing else f"{r.angle_error:.6f}",
                "" if r.missing else f"{r.tip_error:.6f}",
                "true" if r.exceeds(angle_thresh, tip_thresh) else "false",
            ])

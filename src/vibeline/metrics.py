"""Detection quality metrics and batch report generation.

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
import warnings
from dataclasses import dataclass
from pathlib import Path

from .errors import FormatError, ValidationError

ANGLE_THRESH_DEG = 15.0
TIP_THRESH_MM = 10.0

GT_SUFFIX = ".gt.json"

CSV_HEADER = ["sequence_id", "angle_err_deg", "tip_err_mm", "exceeds_ter"]


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
        if not (math.isfinite(self.angle_error)
                and 0.0 <= self.angle_error <= 90.0):
            raise ValidationError(
                f"angle_error {self.angle_error} outside [0, 90]"
            )
        if not (math.isfinite(self.tip_error) and self.tip_error >= 0.0):
            raise ValidationError(f"tip_error {self.tip_error} must be >= 0")

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
    if not spacing > 0:
        raise ValidationError(f"spacing must be > 0, got {spacing}")
    return spacing * math.hypot(pred[0] - gt[0], pred[1] - gt[1])


def ter(records: list, angle_thresh: float = ANGLE_THRESH_DEG,
        tip_thresh: float = TIP_THRESH_MM) -> float:
    """Threshold exceedance rate in percent; missing records exceed."""
    if not records:
        raise ValidationError("ter of an empty record list")
    count = 0
    for r in records:
        if r.exceeds(angle_thresh, tip_thresh):
            count += 1
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
        gt_theta, gt_x, gt_y, spacing = (float(gt[k]) for k in (
            "theta_deg", "tip_x_px", "tip_y_px", "pixel_spacing_mm"))
        what = "prediction"
        if pred.get("low_confidence") or pred.get("tip_x_px") is None \
                or pred.get("tip_y_px") is None:
            return ErrorRecord(sequence_id=sequence_id, missing=True)
        theta, x, y = (float(pred[k])
                       for k in ("theta_deg", "tip_x_px", "tip_y_px"))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{what} {sequence_id!r} is malformed: {exc!r}") from exc
    return ErrorRecord(sequence_id=sequence_id,
                       angle_error=angle_error(theta, gt_theta),
                       tip_error=tip_error((x, y), (gt_x, gt_y), spacing))


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc


def evaluate_batch(pred_dir, gt_dir, angle_thresh: float = ANGLE_THRESH_DEG,
                   tip_thresh: float = TIP_THRESH_MM):
    """Pair *.json predictions with *.gt.json truths by sequence id.

    Returns (records, aggregate_dict, unmatched_ids).  Ids present on
    only one side are excluded and reported with a warning; FormatError
    names a file that is not a well-formed record.
    """
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
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(CSV_HEADER)
        for r in records:
            out.writerow([
                r.sequence_id,
                "" if r.missing else f"{r.angle_error:.6f}",
                "" if r.missing else f"{r.tip_error:.6f}",
                "true" if r.exceeds(angle_thresh, tip_thresh) else "false",
            ])


def write_aggregate_json(agg: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(agg, fh, indent=2)
        fh.write("\n")

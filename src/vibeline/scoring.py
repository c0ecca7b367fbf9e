"""Heatmap focal loss and the shaft/tip hybrid objective.

Ground-truth heatmaps here are Gaussian-blurred, so "positive" cells are
those with Y >= 1 - 1e-9 and every other cell takes the soft-negative
branch weighted by (1 - Y)^beta.  Losses are plain evaluation scores in
this package (there is nothing to train), but the analytic gradient is
provided and verified so the objective is usable for optimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _check_setting

POSITIVE_CUTOFF = 1.0 - 1e-9


@dataclass(frozen=True)
class LossParams:
    alpha: float = 2.0
    beta: float = 4.0
    gamma: float = 0.95
    clamp_eps: float = 1e-6

    def __post_init__(self):
        for name in ("alpha", "beta"):
            _check_setting(name, getattr(self, name), 0, lo_closed=True)
        _check_setting("gamma", self.gamma, 0, 1, lo_closed=True, hi_closed=True)
        _check_setting("clamp_eps", self.clamp_eps, 0, 0.5)


def _check_pair(pred: np.ndarray, gt: np.ndarray):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValidationError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    for name, arr in (("pred", pred), ("gt", gt)):
        if arr.size == 0:
            raise ValidationError(f"{name} is empty")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} contains non-finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValidationError(f"{name} values must lie in [0, 1]")
    return pred, gt


def focal_loss(pred, gt, params: LossParams = LossParams()) -> float:
    """Mean focal term over all cells; non-negative, finite.

    Positive cells (Y ~ 1):   -(1 - Yh)^alpha * log(Yh)
    All other cells:          -(1 - Y)^beta * Yh^alpha * log(1 - Yh)
    with Yh first clamped to [clamp_eps, 1 - clamp_eps].
    """
    pred, gt = _check_pair(pred, gt)
    p = np.clip(pred, params.clamp_eps, 1.0 - params.clamp_eps)
    pos = gt >= POSITIVE_CUTOFF
    term = np.where(
        pos,
        (1.0 - p) ** params.alpha * np.log(p),
        (1.0 - gt) ** params.beta * p ** params.alpha * np.log1p(-p),
    )
    return float(-term.sum() / pred.size)


def focal_loss_grad(pred, gt, params: LossParams = LossParams()) -> np.ndarray:
    """Elementwise d(focal_loss)/d(pred).

    The derivative is of the clamped loss, so cells whose prediction was
    clipped get exactly zero gradient.
    """
    pred, gt = _check_pair(pred, gt)
    p = np.clip(pred, params.clamp_eps, 1.0 - params.clamp_eps)
    pos = gt >= POSITIVE_CUTOFF
    a = params.alpha
    one_m_p = 1.0 - p
    # d/dp of the positive branch term (1-p)^a log p, negated and averaged
    grad_pos = a * one_m_p ** (a - 1.0) * np.log(p) - one_m_p ** a / p
    # d/dp of the soft-negative branch term (1-Y)^b p^a log(1-p)
    grad_neg = -((1.0 - gt) ** params.beta) * (
        a * p ** (a - 1.0) * np.log1p(-p) - p ** a / one_m_p
    )
    grad = np.where(pos, grad_pos, grad_neg) / pred.size
    clamped = (pred < params.clamp_eps) | (pred > 1.0 - params.clamp_eps)
    grad[clamped] = 0.0
    return grad


def hybrid_loss(pred_map, gt_map, params: LossParams = LossParams()) -> float:
    """gamma * focal(shaft channels) + (1 - gamma) * focal(tip channels)."""
    shaft = focal_loss(pred_map.shaft, gt_map.shaft, params)
    tip = focal_loss(pred_map.tip, gt_map.tip, params)
    return params.gamma * shaft + (1.0 - params.gamma) * tip

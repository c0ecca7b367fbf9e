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
        # min and max propagate NaN, and an inf is one of them
        lo, hi = arr.min(), arr.max()
        if not (lo >= 0.0 and hi <= 1.0):
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValidationError(f"{name} contains non-finite values")
            raise ValidationError(f"{name} values must lie in [0, 1]")
    return pred, gt


def _cells(mask: np.ndarray, *arrays):
    """Flat indices where mask holds (None when it holds everywhere),
    then each array's values there as a 1-D array."""
    if mask.all():
        return (None, *(a.reshape(-1) for a in arrays))
    idx = np.flatnonzero(mask)
    return (idx, *(a.reshape(-1)[idx] for a in arrays))


def _spread(vals: np.ndarray, idx, fill: float, like: np.ndarray):
    """A map shaped like `like` holding vals at the flat indices idx (at
    every cell when idx is None) and fill everywhere else."""
    if idx is None:
        return vals.reshape(like.shape)
    out = np.full(like.size, fill)
    out[idx] = vals
    return out.reshape(like.shape)


def _by_branch(p, g, pos_fn, neg_fn):
    """pos_fn(p, g) on the positive cells, neg_fn(p, g) on the others.

    Gaussian truth maps hold few positive cells, so the negative branch
    runs on every cell and the positive one only on its own cells, which
    then overwrite theirs: the same values as evaluating both everywhere
    and picking, without a gather of the negatives.
    """
    pos = g >= POSITIVE_CUTOFF
    out = neg_fn(p, g)
    if pos.any():
        out[pos] = pos_fn(p[pos], g[pos])
    return out


def focal_loss(pred, gt, params: LossParams = LossParams()) -> float:
    """Mean focal term over all cells; non-negative, finite.

    Positive cells (Y ~ 1):   -(1 - Yh)^alpha * log(Yh)
    All other cells:          -(1 - Y)^beta * Yh^alpha * log(1 - Yh)
    with Yh first clamped to [clamp_eps, 1 - clamp_eps].

    A background cell (Y = 0, Yh clamped up to clamp_eps) has the same
    term as every other, so that term is evaluated once; the terms are
    then summed over the full map in row-major order.
    """
    pred, gt = _check_pair(pred, gt)
    eps, a, b = params.clamp_eps, params.alpha, params.beta

    def pos_term(p, g):
        return (1.0 - p) ** a * np.log(p)

    def neg_term(p, g):
        return (1.0 - g) ** b * p ** a * np.log1p(-p)

    idx, p, g = _cells((gt != 0.0) | (pred > eps), pred, gt)
    vals = _by_branch(np.clip(p, eps, 1.0 - eps), g, pos_term, neg_term)
    background = neg_term(np.full(1, eps), np.zeros(1))[0]
    return float(-_spread(vals, idx, background, pred).sum() / pred.size)


def focal_loss_grad(pred, gt, params: LossParams = LossParams()) -> np.ndarray:
    """Elementwise d(focal_loss)/d(pred).

    The derivative is of the clamped loss, so cells whose prediction was
    clipped get exactly zero gradient; only the others are evaluated.
    """
    pred, gt = _check_pair(pred, gt)
    eps, a, b = params.clamp_eps, params.alpha, params.beta

    def grad_pos(p, g):
        # d/dp of the positive branch term (1-p)^a log p, negated and averaged
        one_m_p = 1.0 - p
        return a * one_m_p ** (a - 1.0) * np.log(p) - one_m_p ** a / p

    def grad_neg(p, g):
        # d/dp of the soft-negative branch term (1-Y)^b p^a log(1-p)
        one_m_p = 1.0 - p
        return -((1.0 - g) ** b) * (
            a * p ** (a - 1.0) * np.log1p(-p) - p ** a / one_m_p
        )

    idx, p, g = _cells((pred >= eps) & (pred <= 1.0 - eps), pred, gt)
    vals = _by_branch(p, g, grad_pos, grad_neg)
    vals /= pred.size
    return _spread(vals, idx, 0.0, pred)


def hybrid_loss(pred_map, gt_map, params: LossParams = LossParams()) -> float:
    """gamma * focal(shaft channels) + (1 - gamma) * focal(tip channels)."""
    shaft = focal_loss(pred_map.shaft, gt_map.shaft, params)
    tip = focal_loss(pred_map.tip, gt_map.tip, params)
    return params.gamma * shaft + (1.0 - params.gamma) * tip

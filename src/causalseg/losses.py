"""Segmentation losses and evaluation metrics.

Losses operate on a probability map tensor of shape (N, 2, H, W) whose
channel axis is (background, nucleus) and a binary label array of shape
(N, H, W); they return differentiable scalars. Metrics operate on binary
numpy masks and return plain percentages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DomainError, NonFiniteError, ShapeError
from .tensor import Tensor

PROB_EPS = 1e-7  # probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before logs


@dataclass
class LossConfig:
    alpha_t: float = 0.8       # focal weight on nucleus pixels; background gets 1 - alpha_t
    gamma: float = 2.0         # focal down-weighting exponent
    lam: float = 0.5           # dice share of the combined loss; focal gets 1 - lam
    dice_smooth: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.alpha_t < 1.0:
            raise ConfigError(f"alpha_t must lie in (0,1), got {self.alpha_t}")
        if self.gamma < 0.0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must lie in [0,1], got {self.lam}")
        if self.dice_smooth <= 0.0:
            raise ConfigError(f"dice_smooth must be positive, got {self.dice_smooth}")


def _check_pair(op: str, probs: Tensor, target: np.ndarray) -> np.ndarray:
    target = np.asarray(target)
    if probs.data.ndim != 4 or probs.shape[1] != 2:
        raise ShapeError(op, probs.shape, detail="probability map must be (N,2,H,W)")
    if target.shape != (probs.shape[0], probs.shape[2], probs.shape[3]):
        raise ShapeError(op, probs.shape, target.shape)
    if not np.all((target == 0) | (target == 1)):
        raise DomainError(f"{op}: labels must be binary")
    return target.astype(np.float64)


def _true_class_prob(probs: Tensor, fg: np.ndarray) -> Tensor:
    """Per-pixel probability assigned to the correct class, clamped away from 0/1."""
    n, _, h, w = probs.shape
    p_bg = T.reshape(T.slice_axis(probs, 1, 0, 1), (n, h, w))
    p_fg = T.reshape(T.slice_axis(probs, 1, 1, 2), (n, h, w))
    fg_t = Tensor(fg)
    bg_t = Tensor(1.0 - fg)
    p_true = T.add(T.mul(p_fg, fg_t), T.mul(p_bg, bg_t))
    return T.clip(p_true, PROB_EPS, 1.0 - PROB_EPS)


def ce_per_sample(probs: Tensor, target: np.ndarray) -> Tensor:
    """Mean pixelwise cross-entropy of each sample; returns a length-N tensor."""
    fg = _check_pair("ce_per_sample", probs, target)
    p_true = _true_class_prob(probs, fg)
    return T.reduce_mean(T.mul(T.log(p_true), Tensor(-1.0)), (1, 2))


def dice_loss(probs: Tensor, target: np.ndarray, cfg: LossConfig) -> Tensor:
    """Smooth soft-dice on the nucleus channel, aggregated over the batch."""
    fg = _check_pair("dice_loss", probs, target)
    n, _, h, w = probs.shape
    p_fg = T.reshape(T.slice_axis(probs, 1, 1, 2), (n, h, w))
    inter = T.total_sum(T.mul(p_fg, Tensor(fg)))
    denom = T.total_sum(p_fg) + float(fg.sum())
    s = cfg.dice_smooth
    return 1.0 - (2.0 * inter + s) / (denom + s)


def focal_loss(probs: Tensor, target: np.ndarray, cfg: LossConfig) -> Tensor:
    """Class-balanced focal term, averaged over every pixel of every sample."""
    fg = _check_pair("focal_loss", probs, target)
    p_true = _true_class_prob(probs, fg)
    alpha = Tensor(np.where(fg == 1.0, cfg.alpha_t, 1.0 - cfg.alpha_t))
    hard = T.power(1.0 - p_true, cfg.gamma)
    per_pixel = T.mul(T.mul(alpha, hard), T.mul(T.log(p_true), Tensor(-1.0)))
    return T.total_mean(per_pixel)


def total_loss(l_cim, l_dice, l_fl, cfg: LossConfig) -> Tensor:
    """Combined objective: reweighted CE plus lam*dice plus (1-lam)*focal."""
    terms = {"l_cim": l_cim, "l_dice": l_dice, "l_fl": l_fl}
    for name, t in terms.items():
        val = t.item() if isinstance(t, Tensor) else float(t)
        if not np.isfinite(val):
            raise NonFiniteError(f"total_loss: {name} is non-finite")
    l_cim, l_dice, l_fl = (t if isinstance(t, Tensor) else Tensor(float(t)) for t in (l_cim, l_dice, l_fl))
    return l_cim + cfg.lam * l_dice + (1.0 - cfg.lam) * l_fl


# ---------------------------------------------------------------------------
# metrics


def _check_masks(op: str, pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred, gt = np.asarray(pred), np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeError(op, pred.shape, gt.shape)
    for name, m in (("pred", pred), ("gt", gt)):
        if not np.all((m == 0) | (m == 1)):
            raise DomainError(f"{op}: {name} mask must be binary")
    return pred.astype(bool), gt.astype(bool)


def miou(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean IoU over background and nucleus, in percent.

    A class absent from both masks contributes IoU 1.
    """
    pred, gt = _check_masks("miou", pred, gt)
    ious = []
    for cls_pred, cls_gt in ((~pred, ~gt), (pred, gt)):
        union = np.count_nonzero(cls_pred | cls_gt)
        if union == 0:
            ious.append(1.0)
        else:
            ious.append(np.count_nonzero(cls_pred & cls_gt) / union)
    return 100.0 * float(np.mean(ious))


def dsc(pred: np.ndarray, gt: np.ndarray) -> float:
    """Dice coefficient on the nucleus class, in percent; 100 when both masks are empty."""
    pred, gt = _check_masks("dsc", pred, gt)
    total = np.count_nonzero(pred) + np.count_nonzero(gt)
    if total == 0:
        return 100.0
    return 100.0 * 2.0 * np.count_nonzero(pred & gt) / total


def summarize(values) -> tuple[float, float]:
    """Per-image mean and sample standard deviation (0 for fewer than 2 values)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise DomainError("summarize: no values")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std

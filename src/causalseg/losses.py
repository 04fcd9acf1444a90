"""Segmentation losses and evaluation metrics.

Losses operate on a probability map tensor of shape (N, 2, H, W) whose
channel axis is (background, nucleus) and a binary label array of shape
(N, H, W); they return differentiable scalars. Metrics operate on binary
numpy masks and return plain percentages.

Each loss term is one tape node with an edge to the probabilities only. Its
forward is numpy, and its backward repeats, in order, the arithmetic of the
composite of tape ops it replaces, so gradients round as the composite's did.
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
        if not 0.0 <= self.gamma < np.inf:
            raise ConfigError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must lie in [0,1], got {self.lam}")
        if not 0.0 < self.dice_smooth < np.inf:
            raise ConfigError(f"dice_smooth must be finite and positive, got {self.dice_smooth}")


def _check_pair(op: str, probs: Tensor, target: np.ndarray) -> np.ndarray:
    target = np.asarray(target)
    if probs.data.ndim != 4 or probs.shape[1] != 2:
        raise ShapeError(op, probs.shape, detail="probability map must be (N,2,H,W)")
    if target.shape != (probs.shape[0], probs.shape[2], probs.shape[3]):
        raise ShapeError(op, probs.shape, target.shape)
    if probs.size == 0:
        raise ShapeError(op, probs.shape, detail="no samples or no pixels")
    if not np.all((target == 0) | (target == 1)):
        raise DomainError(f"{op}: labels must be binary")
    if not np.all(np.isfinite(probs.data)):
        raise NonFiniteError(f"{op}: probabilities are non-finite")
    return target.astype(np.float64)


def _true_class_prob(probs: np.ndarray, fg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-hot true class, its probability clamped away from 0/1, and the mask of pixels inside the clamp."""
    one_hot = np.stack([1.0 - fg, fg], axis=1)
    p_true = (probs * one_hot).sum(axis=1)  # one product per pixel is exactly 0, so the sum is exact
    inside = (p_true > PROB_EPS) & (p_true < 1.0 - PROB_EPS)
    return one_hot, np.clip(p_true, PROB_EPS, 1.0 - PROB_EPS), inside


def ce_per_sample(probs: Tensor, target: np.ndarray) -> Tensor:
    """Mean pixelwise cross-entropy of each sample; returns a length-N tensor."""
    fg = _check_pair("ce_per_sample", probs, target)
    one_hot, p_true, inside = _true_class_prob(probs.data, fg)
    pixels = fg[0].size
    out = Tensor(-np.log(p_true).mean(axis=(1, 2)))
    return T._record(out, (probs, lambda g: (-(g / pixels)[:, None, None] / p_true * inside)[:, None] * one_hot))


def dice_loss(probs: Tensor, target: np.ndarray, cfg: LossConfig) -> Tensor:
    """Smooth soft-dice on the nucleus channel, aggregated over the batch."""
    fg = _check_pair("dice_loss", probs, target)
    p_fg = probs.data[:, 1].copy()  # summed contiguous: a strided view sums in another order
    num = 2.0 * (p_fg * fg).sum() + cfg.dice_smooth
    den = p_fg.sum() + fg.sum() + cfg.dice_smooth

    def back(g):
        return np.stack([np.zeros_like(fg), g * num / (den * den) - g / den * 2.0 * fg], axis=1)

    return T._record(Tensor(1.0 - num / den), (probs, back))


def focal_loss(probs: Tensor, target: np.ndarray, cfg: LossConfig) -> Tensor:
    """Class-balanced focal term, averaged over every pixel of every sample."""
    fg = _check_pair("focal_loss", probs, target)
    one_hot, p_true, inside = _true_class_prob(probs.data, fg)
    alpha = np.where(fg == 1.0, cfg.alpha_t, 1.0 - cfg.alpha_t)
    gamma, easy, nll = float(cfg.gamma), 1.0 - p_true, -np.log(p_true)
    weight = alpha * easy ** gamma

    def back(g):
        share = g / fg.size
        # the log's path, then the power's: the order of the composite's reverse sweep
        grad = -(share * weight) / p_true - share * nll * alpha * gamma * easy ** (gamma - 1.0)
        return (grad * inside)[:, None] * one_hot

    return T._record(Tensor((weight * nll).mean()), (probs, back))


def total_loss(l_cim: Tensor, l_dice: Tensor, l_fl: Tensor, cfg: LossConfig) -> Tensor:
    """Combined objective: reweighted CE plus lam*dice plus (1-lam)*focal."""
    for name, t in (("l_cim", l_cim), ("l_dice", l_dice), ("l_fl", l_fl)):
        if t.size != 1:
            raise ShapeError("total_loss", t.shape, detail=f"{name} must be a scalar")
        if not np.isfinite(t.item()):
            raise NonFiniteError(f"total_loss: {name} is non-finite")
    return l_cim + cfg.lam * l_dice + (1.0 - cfg.lam) * l_fl


# ---------------------------------------------------------------------------
# metrics


def _check_masks(op: str, pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred, gt = np.asarray(pred), np.asarray(gt)
    if pred.shape != gt.shape or pred.size == 0:
        raise ShapeError(op, pred.shape, gt.shape, detail="masks must have one shape and hold pixels")
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
    """Dice coefficient on the nucleus class, in percent; 100 when neither mask marks a nucleus."""
    pred, gt = _check_masks("dsc", pred, gt)
    total = np.count_nonzero(pred) + np.count_nonzero(gt)
    if total == 0:
        return 100.0
    return 100.0 * 2.0 * np.count_nonzero(pred & gt) / total


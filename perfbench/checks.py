"""Correctness checks the benchmark makes on every run.

Each compares the library's output with a computation made here, apart from
the library, or with a property the method must have. Each returns True when
the output passes.
"""

from __future__ import annotations

import numpy as np

from causalseg import tensor as T
from causalseg.tensor import Tensor

import harness as H
from trace import NoTrace

GRAD_EPS = 1e-6           # finite-difference step on a parameter entry
GRAD_ENTRIES = 16
# (absolute, relative): tape gradient vs a difference quotient. Kinks on both
# sides of a stencil left errors of at most 3e-4 relative in 1,792 entries
# drawn over 28 seeds at these shapes; a wrong backward is off by far more.
GRAD_TOL = (1e-7, 1e-2)
OBJECTIVE_RTOL = 1e-10    # library objective vs the Gram-matrix closed form
SIMPLEX_TOL = 1e-9        # |sum(w) - n|, as the library's own contract
FORWARD_TOL = 1e-12       # taped vs tape-free, alone vs in batch
METRIC_TOL = 1e-9         # percent


def gradient_pairs(model: H.Model, x, y, weights, rng):
    """(tape gradient, (central, forward, backward difference)) of the step
    loss for ``GRAD_ENTRIES`` parameter entries drawn by ``rng``; the sample
    weights stay fixed."""
    params = model.params()

    def loss_at():
        probs, _ = model.forward(Tensor(x), NoTrace())
        return H.step_loss(probs, y, weights).item()

    with T.Tape() as tape:
        probs, _ = model.forward(Tensor(x), NoTrace())
        loss = H.step_loss(probs, y, weights)
    grads = T.backward(loss, tape)
    for p in params:
        p.zero_grad()
    base, h, pairs = loss.item(), GRAD_EPS, []
    for _ in range(GRAD_ENTRIES):
        p = params[int(rng.integers(len(params)))]
        i = int(rng.integers(p.size))
        orig, values = p.data, []
        for step in (h, -h):
            moved = orig.copy()
            moved.flat[i] += step
            p.data = moved
            values.append(loss_at())
        p.data = orig
        up, down = values
        pairs.append((float(grads[p].flat[i]), ((up - down) / (2 * h), (up - base) / h, (base - down) / h)))
    return pairs


def gradients_agree(pairs) -> bool:
    """Every tape gradient matches one of its difference quotients.

    The loss has kinks (ReLU, probability clipping). With one inside the
    stencil the central difference is off by up to half the slope jump, but
    the one-sided difference away from the kink still equals the gradient up
    to curvature, so any of the three may match.
    """
    return all(any(abs(a - n) <= GRAD_TOL[0] + GRAD_TOL[1] * max(abs(a), abs(n)) for n in quotients)
               for a, quotients in pairs)


def loss_fell(first_round, last_round) -> bool:
    """Mean loss over the last round of batches is below the first round's."""
    return float(np.mean(last_round)) < float(np.mean(first_round))


def on_simplex(w: np.ndarray) -> bool:
    return bool(np.all(w >= 0.0)) and abs(float(np.sum(w)) - w.size) <= SIMPLEX_TOL


def closed_form_objective(feats: np.ndarray, banks, w: np.ndarray) -> float:
    """1/2 ||S - blockdiag(S)||_F^2, S the Gram matrix (divisor n-1) of the
    centred, sample-weighted random-cosine lifts of all features side by side."""
    n, m = feats.shape
    lifts = [np.sqrt(2.0) * np.cos(np.outer(feats[:, k], banks[k].omega) + banks[k].phi) for k in range(m)]
    z = w[:, None] * np.hstack(lifts)
    z = z - z.mean(axis=0)
    s = z.T @ z / (n - 1)
    for k, lift in enumerate(lifts):
        lo = k * lift.shape[1]
        s[lo:lo + lift.shape[1], lo:lo + lift.shape[1]] = 0.0
    return 0.5 * float(np.sum(s * s))


def objective_matches(library_value: float, closed_form: float) -> bool:
    return abs(library_value - closed_form) <= OBJECTIVE_RTOL * max(abs(closed_form), 1e-300)


def no_worse_than_uniform(learned: float, uniform: float) -> bool:
    return learned <= uniform


def forward_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and float(np.max(np.abs(a - b))) <= FORWARD_TOL


def confusion_metrics(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """(mIoU %, DSC %) from confusion counts; a class absent from both masks scores 100."""
    p, g = pred.astype(bool), gt.astype(bool)
    tp, fp = np.count_nonzero(p & g), np.count_nonzero(p & ~g)
    fn, tn = np.count_nonzero(~p & g), np.count_nonzero(~p & ~g)
    iou_fg = tp / (tp + fp + fn) if tp + fp + fn else 1.0
    iou_bg = tn / (tn + fp + fn) if tn + fp + fn else 1.0
    dice = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0
    return 50.0 * (iou_fg + iou_bg), 100.0 * dice


def metrics_match(library: tuple[float, float], own: tuple[float, float]) -> bool:
    return all(abs(a - b) <= METRIC_TOL for a, b in zip(library, own))


def beats_background(miou_value: float, masks) -> bool:
    """mIoU above that of an all-background prediction on the same batches of masks."""
    return miou_value > float(np.mean([confusion_metrics(np.zeros_like(g), g)[0] for g in masks]))

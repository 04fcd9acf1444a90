"""Finite-difference check of tape gradients, for the tests only.

The tests are not a package, so pytest puts this directory on ``sys.path``
and they import it as ``from gradcheck import grad_check``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from causalseg.errors import DomainError, NonFiniteError, ShapeError
from causalseg.tensor import Tape, Tensor, backward


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients of f at x and central differences.

    Error per element: |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"grad_check: step {eps!r} must be finite and positive")
    leaf = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(leaf)
    if not isinstance(y, Tensor) or y.data.size != 1:
        raise ShapeError("grad_check", getattr(y, "shape", ()), detail="f must return a scalar tensor")
    grads = backward(y, tape)
    analytic = grads.get(leaf)
    if analytic is None:
        analytic = np.zeros_like(leaf.data)

    flat = leaf.data.reshape(-1)
    ana = analytic.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(Tensor(leaf.data.copy())).item()
        flat[i] = orig - eps
        lo = f(Tensor(leaf.data.copy())).item()
        flat[i] = orig
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NonFiniteError("grad_check: non-finite evaluation", index=i)
        numeric = (hi - lo) / (2.0 * eps)
        err = abs(ana[i] - numeric) / max(1.0, abs(ana[i]), abs(numeric))
        worst = max(worst, err)
    return worst

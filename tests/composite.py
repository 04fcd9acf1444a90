"""Taped ops that only the slow oracles use, for the tests only.

The composites that the fast paths replaced (group and layer norm, the
per-image transformer block, the CIM objective) are chains of these. Each
records one node through ``T._record`` and checks nothing: the oracles pass
them valid inputs. Imported as ``composite``, like ``gradcheck``.
"""

from __future__ import annotations

import math

import numpy as np

from causalseg import tensor as T
from causalseg.tensor import Tensor


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape
    return T._record(Tensor(a.data - b.data), (a, lambda g: T._reduce_to(g, sa)), (b, lambda g: T._reduce_to(-g, sb)))


def div(a: Tensor, b: Tensor) -> Tensor:
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    return T._record(Tensor(ad / bd), (a, lambda g: T._reduce_to(g / bd, sa)),
                     (b, lambda g: T._reduce_to(-g * ad / (bd * bd), sb)))


def power(a: Tensor, p: float) -> Tensor:
    ad = a.data
    return T._record(Tensor(ad ** p), (a, lambda g: g * p * ad ** (p - 1.0)))


def mean(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """The mean over ``axes``, given as sorted non-negative integers."""
    n, shape = math.prod(x.shape[a] for a in axes), x.shape
    return T._record(Tensor(x.data.mean(axis=axes)),
                     (x, lambda g: np.broadcast_to(np.expand_dims(g / n, axes), shape).copy()))


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    slicer, shape = (slice(None),) * axis + (slice(start, stop),), x.shape

    def back(g):
        gx = np.zeros(shape)
        gx[slicer] = g
        return gx

    return T._record(Tensor(x.data[slicer].copy()), (x, back))

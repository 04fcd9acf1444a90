"""Dense float64 tensors with tape-based reverse-mode autodiff.

Design notes:
  * All data lives in row-major float64 numpy arrays; there is no other dtype.
  * Differentiable ops record onto the innermost ``Tape`` opened in the
    same thread. With no tape active, ops are plain forward evaluations.
  * Broadcasting is deliberately restricted. A binary elementwise op's result
    always has the shape of one operand; the other is either a single element
    or has the same rank with extent 1 on every axis where the two differ,
    and its gradient is summed over those axes. Anything else (rank
    promotion, broadcasting on both sides, a mismatch where neither extent
    is 1) raises ``ShapeError``.
  * Gradients accumulate additively into ``Tensor.grad``; callers zero them
    between optimization steps.
"""

from __future__ import annotations

import contextvars
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, NonFiniteError, ShapeError, TapeError

_EXP_MAX = 709.0  # exp() overflows float64 just above this
NORM_EPS = 1e-5  # added to the variance in affine_norm

# Each thread sees its own stack of open tapes.
_active_tapes: contextvars.ContextVar[tuple["Tape", ...]] = contextvars.ContextVar("active_tapes", default=())


class Tensor:
    """A dense float64 array plus an optional gradient buffer."""

    __slots__ = ("_data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value) -> None:
        # Always an ndarray: a 0-d update such as ``t.data - lr * g`` yields a
        # numpy scalar, and writes through ``.flat`` on a scalar are lost.
        self._data = np.asarray(value, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError("item", self.shape, detail="expected a single element")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    # Operator sugar. Python scalars are wrapped as constant tensors.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Node:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of differentiable ops; replayed in reverse by backward().

    Used as a context manager. Tapes nest; ops record onto the innermost one
    only. A tape may be consumed by at most one backward pass.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _active_tapes.set(_active_tapes.get() + (self,))
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _active_tapes.get()
        if not stack or stack[-1] is not self:
            raise TapeError("tape exited out of order: it is not the innermost active tape")
        _active_tapes.set(stack[:-1])

    def __len__(self) -> int:
        return len(self._nodes)


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Attach a node to the active tape if any input participates in autodiff."""
    stack = _active_tapes.get()
    if stack and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        stack[-1]._nodes.append(_Node(out, inputs, backward_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> dict[Tensor, np.ndarray]:
    """Reverse-replay ``tape`` from scalar ``loss``; returns {leaf: gradient}.

    Leaf gradients are also accumulated into each leaf's ``.grad``. Gradients
    add across fan-out and across repeated backward calls until zeroed.
    """
    if loss.data.size != 1:
        raise ShapeError("backward", loss.shape, detail="loss must be a scalar")
    if tape._consumed:
        raise TapeError("backward called twice on the same tape")
    tape._consumed = True

    # Only tensors that require gradients hold one; constants are skipped.
    produced = {id(n.out) for n in tape._nodes}
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)} if loss.requires_grad else {}
    holders: dict[int, Tensor] = {id(loss): loss}

    for node in reversed(tape._nodes):
        g_out = grads.pop(id(node.out), None)
        if g_out is None:
            continue  # dead branch: output never influenced the loss
        input_grads = node.backward_fn(g_out)
        for inp, g in zip(node.inputs, input_grads):
            if g is None or not inp.requires_grad:
                continue
            key = id(inp)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
                holders[key] = inp

    result: dict[Tensor, np.ndarray] = {}
    for key, g in grads.items():
        t = holders[key]
        if key not in produced:
            result[t] = g
            t.grad = g.copy() if t.grad is None else t.grad + g
    return result


# ---------------------------------------------------------------------------
# elementwise ops


def _binary_shapes(op: str, a: Tensor, b: Tensor) -> tuple[int, ...]:
    """Result shape of a binary op: the shape of one operand (see design notes)."""
    if a.shape == b.shape:
        return a.shape
    for big, small in ((b, a), (a, b)):
        if small.size == 1 and small.data.ndim <= big.data.ndim:
            return big.shape
        if small.data.ndim == big.data.ndim and all(ss == 1 or ss == sb for sb, ss in zip(big.shape, small.shape)):
            return big.shape
    raise ShapeError(op, a.shape, b.shape)


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes its operand was broadcast along."""
    if g.shape == shape:
        return g
    if math.prod(shape) == 1:
        return np.sum(g).reshape(shape)
    return g.sum(axis=tuple(ax for ax, s in enumerate(shape) if s != g.shape[ax]), keepdims=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("add", a, b)
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda g: (_reduce_to(g, a.shape), _reduce_to(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("sub", a, b)
    out = Tensor(a.data - b.data)
    return _record(out, (a, b), lambda g: (_reduce_to(g, a.shape), _reduce_to(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("mul", a, b)
    out = Tensor(a.data * b.data)

    def back(g):
        return _reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)

    return _record(out, (a, b), back)


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("div", a, b)
    if np.any(b.data == 0.0):
        raise DomainError("div: zero divisor")
    out = Tensor(a.data / b.data)

    def back(g):
        ga = _reduce_to(g / b.data, a.shape)
        gb = _reduce_to(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _record(out, (a, b), back)


def exp(a: Tensor) -> Tensor:
    if np.max(a.data, initial=-np.inf) > _EXP_MAX:
        raise DomainError("exp: argument overflows float64")
    out = Tensor(np.exp(a.data))
    return _record(out, (a,), lambda g: (g * out.data,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("log: non-positive argument")
    out = Tensor(np.log(a.data))
    return _record(out, (a,), lambda g: (g / a.data,))


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise a**p for a fixed scalar exponent."""
    p = float(exponent)
    if p != int(p):
        if np.any(a.data <= 0.0):
            raise DomainError("pow: non-integer exponent needs positive base")
    elif p < 0 and np.any(a.data == 0.0):
        raise DomainError("pow: zero base with negative exponent")
    out = Tensor(a.data ** p)

    def back(g):
        return (g * p * a.data ** (p - 1.0),) if p != 0.0 else (np.zeros_like(a.data),)

    return _record(out, (a,), back)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # piecewise form avoids exp overflow for large |x|
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out = Tensor(s)
    return _record(out, (a,), lambda g: (g * out.data * (1.0 - out.data),))


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    return _record(out, (a,), lambda g: (g * (a.data > 0.0),))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient is 1 inside the interval, 0 outside."""
    if not lo < hi:
        raise DomainError(f"clip: empty interval [{lo}, {hi}]")
    out = Tensor(np.clip(a.data, lo, hi))
    inside = (a.data > lo) & (a.data < hi)
    return _record(out, (a,), lambda g: (g * inside,))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; operands of rank > 2 are stacks of matrices.

    ``b`` has the same leading (batch) axes as ``a``, or is a single matrix
    shared by every batch entry, in which case its gradient sums over the batch.
    """
    if a.data.ndim < 2 or b.data.ndim not in (2, a.data.ndim):
        raise ShapeError("matmul", a.shape, b.shape, detail="b must be a matrix or match a's rank")
    if b.data.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError("matmul", a.shape, b.shape, detail="batch axes disagree")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError("matmul", a.shape, b.shape, detail="inner dimensions disagree")
    out = Tensor(a.data @ b.data)

    def back(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        if b.data.ndim == a.data.ndim:
            return ga, np.swapaxes(a.data, -1, -2) @ g
        return ga, a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])

    return _record(out, (a, b), back)


# ---------------------------------------------------------------------------
# reductions


def _normalize_axes(op: str, axes: Iterable[int], rank: int) -> tuple[int, ...]:
    norm = []
    for ax in axes:
        a = ax + rank if ax < 0 else ax
        if not 0 <= a < rank:
            raise ShapeError(op, (rank,), detail=f"axis {ax} out of range for rank {rank}")
        norm.append(a)
    if len(set(norm)) != len(norm):
        raise ShapeError(op, (rank,), detail="duplicate reduction axis")
    return tuple(sorted(norm))


def _expand_like(g: np.ndarray, shape: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
    for ax in axes:
        g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def reduce_sum(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = _normalize_axes("sum", axes, x.data.ndim)
    if not axes:
        return x
    out = Tensor(x.data.sum(axis=axes))
    return _record(out, (x,), lambda g: (_expand_like(g, x.shape, axes).copy(),))


def reduce_mean(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = _normalize_axes("mean", axes, x.data.ndim)
    if not axes:
        return x
    n = int(np.prod([x.shape[a] for a in axes]))
    out = Tensor(x.data.mean(axis=axes))
    return _record(out, (x,), lambda g: (_expand_like(g / n, x.shape, axes).copy(),))


def total_sum(x: Tensor) -> Tensor:
    return reduce_sum(x, tuple(range(x.data.ndim)))


def total_mean(x: Tensor) -> Tensor:
    return reduce_mean(x, tuple(range(x.data.ndim)))


# ---------------------------------------------------------------------------
# shape ops


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError("reshape", x.shape, shape, detail="element count changes")
    out = Tensor(x.data.reshape(shape))
    return _record(out, (x,), lambda g: (g.reshape(x.shape),))


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError("transpose", x.shape, detail=f"invalid permutation {axes}")
    inv = np.argsort(axes)
    out = Tensor(np.ascontiguousarray(x.data.transpose(axes)))
    return _record(out, (x,), lambda g: (np.ascontiguousarray(g.transpose(inv)),))


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if len(parts) == 0:
        raise ShapeError("concat", (), detail="no parts")
    if len(parts) == 1:
        return parts[0]
    rank = parts[0].data.ndim
    axis = axis + rank if axis < 0 else axis
    if not 0 <= axis < rank:
        raise ShapeError("concat", parts[0].shape, detail=f"axis {axis} out of range")
    for p in parts[1:]:
        if p.data.ndim != rank:
            raise ShapeError("concat", parts[0].shape, p.shape, detail="rank mismatch")
        for ax in range(rank):
            if ax != axis and p.shape[ax] != parts[0].shape[ax]:
                raise ShapeError("concat", parts[0].shape, p.shape, detail=f"axis {ax} differs")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]

    def back(g):
        offsets = np.cumsum([0] + sizes)
        slicer = [slice(None)] * rank
        gs = []
        for i in range(len(parts)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            gs.append(g[tuple(slicer)].copy())
        return tuple(gs)

    return _record(out, tuple(parts), back)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    rank = x.data.ndim
    axis = axis + rank if axis < 0 else axis
    if not 0 <= axis < rank:
        raise ShapeError("slice", x.shape, detail=f"axis {axis} out of range")
    if not 0 <= start < stop <= x.shape[axis]:
        raise ShapeError("slice", x.shape, detail=f"bounds [{start},{stop}) invalid on axis {axis}")
    slicer = [slice(None)] * rank
    slicer[axis] = slice(start, stop)
    out = Tensor(x.data[tuple(slicer)].copy())

    def back(g):
        gx = np.zeros_like(x.data)
        gx[tuple(slicer)] = g
        return (gx,)

    return _record(out, (x,), back)






# ---------------------------------------------------------------------------
# normalisation


def affine_norm(x: Tensor, scale: Tensor, shift: Tensor, groups: int) -> Tensor:
    """Normalise over groups of axis 1 plus all trailing axes, then scale and shift.

    Per sample and group: (x - mean) / (biased variance + NORM_EPS) ** 0.5. ``scale``
    and ``shift`` hold one entry per index of axis 1. Group norm is an NCHW
    input; layer norm is a (tokens, width) input with one group.
    """
    if x.data.ndim < 2:
        raise ShapeError("affine_norm", x.shape, detail="rank >= 2 required")
    n, c = x.shape[:2]
    if groups < 1 or c % groups:
        raise ShapeError("affine_norm", x.shape, detail=f"{groups} groups do not divide {c} channels")
    if scale.shape != (c,) or shift.shape != (c,):
        raise ShapeError("affine_norm", scale.shape, shift.shape, detail=f"need one entry per channel ({c})")
    xg = x.data.reshape(n, groups, c // groups, *x.shape[2:])
    axes = tuple(range(2, xg.ndim))
    centered = xg - xg.mean(axis=axes, keepdims=True)
    std = (np.mean(centered * centered, axis=axes, keepdims=True) + NORM_EPS) ** 0.5
    xhat = centered / std
    per_channel = (1, c) + (1,) * (x.data.ndim - 2)
    out = Tensor(xhat.reshape(x.shape) * scale.data.reshape(per_channel) + shift.data.reshape(per_channel))

    def back(g):
        # closed form of the normalisation's backward (Wu & He, 2018)
        summed = (0,) + tuple(range(2, g.ndim))
        gxhat = (g * scale.data.reshape(per_channel)).reshape(xg.shape)
        gx = (gxhat - gxhat.mean(axis=axes, keepdims=True)
              - xhat * np.mean(gxhat * xhat, axis=axes, keepdims=True)) / std
        return gx.reshape(x.shape), (g * xhat.reshape(x.shape)).sum(axis=summed), g.sum(axis=summed)

    return _record(out, (x, scale, shift), back)


# ---------------------------------------------------------------------------
# convolution


def _conv_out_extent(extent: int, k: int, stride: int, pad: int) -> int:
    return (extent + 2 * pad - k) // stride + 1


def _im2col(x: np.ndarray, k: int, stride: int, pad: int, ho: int, wo: int) -> np.ndarray:
    """(N,C,H,W) -> contiguous windows (N, C, k, k, Ho, Wo)."""
    n, c, h, w = x.shape
    if k == 1 and stride == 1 and pad == 0:
        return x.reshape(n, c, 1, 1, h, w)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, k, k, ho, wo))
    for ki in range(k):
        for kj in range(k):
            cols[:, :, ki, kj] = x[:, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride]
    return cols


def _col2im(gcols: np.ndarray, xshape: tuple, stride: int, pad: int) -> np.ndarray:
    """Scatter-add window gradients (N, C, k, k, Ho, Wo) back onto the input."""
    n, c, h, w = xshape
    k, ho, wo = gcols.shape[2], gcols.shape[4], gcols.shape[5]
    if k == 1 and stride == 1 and pad == 0:
        return gcols.reshape(xshape)
    gx = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    for ki in range(k):
        for kj in range(k):
            gx[:, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += gcols[:, :, ki, kj]
    return gx[:, :, pad:pad + h, pad:pad + w]


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with an OCKK kernel (no kernel flip)."""
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("conv2d", x.shape, kernel.shape, detail="NCHW input and OCKK kernel required")
    n, c, h, w = x.shape
    o, ck, kh, kw = kernel.shape
    if kh != kw:
        raise ShapeError("conv2d", kernel.shape, detail="square kernels only")
    if ck != c:
        raise ShapeError("conv2d", x.shape, kernel.shape, detail=f"kernel expects {ck} channels, input has {c}")
    if stride < 1 or padding < 0:
        raise ShapeError("conv2d", x.shape, detail=f"stride {stride} / padding {padding} invalid")
    ho = _conv_out_extent(h, kh, stride, padding)
    wo = _conv_out_extent(w, kw, stride, padding)
    if ho < 1 or wo < 1:
        raise ShapeError("conv2d", x.shape, kernel.shape, detail=f"output extent {ho}x{wo} non-positive")

    cols = _im2col(x.data, kh, stride, padding, ho, wo).reshape(n, c * kh * kw, ho * wo)
    wmat = kernel.data.reshape(o, c * kh * kw)
    out = Tensor((wmat @ cols).reshape(n, o, ho, wo))

    def back(g):
        g2 = g.reshape(n, o, ho * wo)
        gw = (g2 @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(kernel.shape)
        gcols = (wmat.T @ g2).reshape(n, c, kh, kw, ho, wo)
        return _col2im(gcols, x.shape, stride, padding), gw

    return _record(out, (x, kernel), back)


def depthwise_conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Per-channel convolution: NCHW input, (C,K,K) kernel, channel i filters channel i."""
    if x.data.ndim != 4 or kernel.data.ndim != 3:
        raise ShapeError("depthwise_conv2d", x.shape, kernel.shape, detail="NCHW input and CKK kernel required")
    n, c, h, w = x.shape
    ck, kh, kw = kernel.shape
    if kh != kw:
        raise ShapeError("depthwise_conv2d", kernel.shape, detail="square kernels only")
    if ck != c:
        raise ShapeError("depthwise_conv2d", x.shape, kernel.shape, detail="channel counts differ")
    ho = _conv_out_extent(h, kh, stride, padding)
    wo = _conv_out_extent(w, kw, stride, padding)
    if ho < 1 or wo < 1:
        raise ShapeError("depthwise_conv2d", x.shape, kernel.shape, detail="non-positive output extent")

    cols = _im2col(x.data, kh, stride, padding, ho, wo).reshape(n, c, kh * kw, ho * wo)
    kmat = kernel.data.reshape(c, 1, kh * kw)
    out = Tensor((kmat @ cols).reshape(n, c, ho, wo))

    def back(g):
        g2 = g.reshape(n, c, 1, ho * wo)
        gk = (g2 @ cols.transpose(0, 1, 3, 2)).sum(axis=0).reshape(kernel.shape)
        gcols = (kmat.reshape(c, kh * kw, 1) * g2).reshape(n, c, kh, kw, ho, wo)
        return _col2im(gcols, x.shape, stride, padding), gk

    return _record(out, (x, kernel), back)


# ---------------------------------------------------------------------------
# composites


def softmax(x: Tensor, axis: int) -> Tensor:
    """Numerically stable softmax along one axis (max shift is a constant)."""
    rank = x.data.ndim
    axis = axis + rank if axis < 0 else axis
    e = exp(sub(x, Tensor(x.data.max(axis=axis, keepdims=True))))
    total = reduce_sum(e, (axis,))
    return div(e, reshape(total, tuple(1 if i == axis else s for i, s in enumerate(x.shape))))


def upsample_nearest2x(x: Tensor) -> Tensor:
    """Double both spatial extents of an NCHW tensor by pixel replication."""
    if x.data.ndim != 4:
        raise ShapeError("upsample_nearest2x", x.shape, detail="NCHW tensor required")
    n, c, h, w = x.shape
    out = Tensor(np.broadcast_to(x.data.reshape(n, c, h, 1, w, 1), (n, c, h, 2, w, 2)).reshape(n, c, 2 * h, 2 * w))
    return _record(out, (x,), lambda g: (g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)),))


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients of f at x and central differences.

    Error per element: |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
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

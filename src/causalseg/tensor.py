"""Dense float64 tensors with tape-based reverse-mode autodiff.

Design notes:
  * All data lives in row-major float64 numpy arrays; there is no other dtype.
  * Differentiable ops record onto the innermost active ``Tape``. With no
    tape active, ops are plain forward evaluations.
  * Broadcasting is deliberately restricted: binary elementwise ops accept
    identical shapes or one single-element operand, nothing else. Any other
    mismatch raises ``ShapeError``. Shape-changing broadcasts must go through
    the explicit ``expand`` op.
  * Gradients accumulate additively into ``Tensor.grad``; callers zero them
    between optimization steps.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    DomainError,
    NonFiniteError,
    ShapeError,
    TapeError,
)

_EXP_MAX = 709.0  # exp() overflows float64 just above this

_active_tapes: list["Tape"] = []


class Tensor:
    """A dense float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError("item", self.shape, detail="expected a single element")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

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
        _active_tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if not _active_tapes or _active_tapes[-1] is not self:
            raise TapeError("tape exited out of order: it is not the innermost active tape")
        _active_tapes.pop()

    def __len__(self) -> int:
        return len(self._nodes)


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Attach a node to the active tape if any input participates in autodiff."""
    if _active_tapes and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _active_tapes[-1]._nodes.append(_Node(out, inputs, backward_fn))
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

    produced = {id(n.out) for n in tape._nodes}
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}

    for node in reversed(tape._nodes):
        g_out = grads.pop(id(node.out), None)
        if g_out is None:
            continue  # dead branch: output never influenced the loss
        input_grads = node.backward_fn(g_out)
        for inp, g in zip(node.inputs, input_grads):
            if g is None:
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
        if t.requires_grad and key not in produced:
            result[t] = g
            t.grad = g.copy() if t.grad is None else t.grad + g
    return result


# ---------------------------------------------------------------------------
# elementwise ops


def _binary_shapes(op: str, a: Tensor, b: Tensor) -> tuple[int, ...]:
    if a.shape == b.shape:
        return a.shape
    if a.size == 1:
        return b.shape
    if b.size == 1:
        return a.shape
    raise ShapeError(op, a.shape, b.shape)


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Collapse a gradient onto a single-element operand's shape."""
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


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
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul", a.shape, b.shape, detail="rank-2 operands required")
    if a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape, detail="inner dimensions disagree")
    out = Tensor(a.data @ b.data)

    def back(g):
        return g @ b.data.T, a.data.T @ g

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


def reduce_var(x: Tensor, axes: Sequence[int]) -> Tensor:
    """Unbiased variance (divisor n-1) over ``axes``."""
    axes = _normalize_axes("var", axes, x.data.ndim)
    if not axes:
        return x
    n = int(np.prod([x.shape[a] for a in axes]))
    if n < 2:
        raise DegenerateInputError("var: unbiased variance needs at least 2 elements")
    mean = x.data.mean(axis=axes, keepdims=True)
    centered = x.data - mean
    out = Tensor(np.sum(centered * centered, axis=axes) / (n - 1))

    def back(g):
        return (_expand_like(g, x.shape, axes) * 2.0 * centered / (n - 1),)

    return _record(out, (x,), back)


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


def expand(x: Tensor, shape: Sequence[int]) -> Tensor:
    """Explicit broadcast: size-1 axes of x may grow to the target extents."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != x.data.ndim:
        raise ShapeError("expand", x.shape, shape, detail="rank must match")
    grown = []
    for ax, (have, want) in enumerate(zip(x.shape, shape)):
        if have == want:
            continue
        if have != 1:
            raise ShapeError("expand", x.shape, shape, detail=f"axis {ax} is not 1")
        grown.append(ax)
    if not grown:
        return x
    out = Tensor(np.broadcast_to(x.data, shape).copy())
    gset = tuple(grown)
    return _record(out, (x,), lambda g: (g.sum(axis=gset, keepdims=True),))


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


def split(x: Tensor, sizes: Sequence[int], axis: int) -> list[Tensor]:
    """Inverse of concat: cut ``x`` into consecutive blocks along ``axis``."""
    rank = x.data.ndim
    axis = axis + rank if axis < 0 else axis
    if sum(sizes) != x.shape[axis]:
        raise ShapeError("split", x.shape, detail=f"sizes {tuple(sizes)} do not cover axis {axis}")
    parts, off = [], 0
    for s in sizes:
        parts.append(slice_axis(x, axis, off, off + s))
        off += s
    return parts


def pad2d(x: Tensor, pad: int) -> Tensor:
    """Zero-pad the last two axes of an NCHW tensor by ``pad`` on every side."""
    if x.data.ndim != 4:
        raise ShapeError("pad2d", x.shape, detail="NCHW tensor required")
    if pad < 0:
        raise ShapeError("pad2d", x.shape, detail="negative pad")
    if pad == 0:
        return x
    out = Tensor(np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))))
    return _record(out, (x,), lambda g: (g[:, :, pad:-pad, pad:-pad].copy(),))


def crop2d(x: Tensor, crop: int) -> Tensor:
    """Remove ``crop`` pixels from every side of the last two axes (inverse of pad2d)."""
    if x.data.ndim != 4:
        raise ShapeError("crop2d", x.shape, detail="NCHW tensor required")
    if crop < 0:
        raise ShapeError("crop2d", x.shape, detail="negative crop")
    if crop == 0:
        return x
    if x.shape[2] <= 2 * crop or x.shape[3] <= 2 * crop:
        raise ShapeError("crop2d", x.shape, detail=f"crop {crop} leaves nothing")
    out = Tensor(x.data[:, :, crop:-crop, crop:-crop].copy())

    def back(g):
        gx = np.zeros_like(x.data)
        gx[:, :, crop:-crop, crop:-crop] = g
        return (gx,)

    return _record(out, (x,), back)


# ---------------------------------------------------------------------------
# convolution


def _conv_out_extent(extent: int, k: int, stride: int, pad: int) -> int:
    return (extent + 2 * pad - k) // stride + 1


def _sliding_cols(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """(N,C,H,W) -> windows (N, C, Ho, Wo, k, k)."""
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def _col2im(gcols: np.ndarray, xshape: tuple, k: int, stride: int, pad: int) -> np.ndarray:
    """Scatter-add window gradients (N,C,Ho,Wo,k,k) back onto the input."""
    n, c, h, w = xshape
    gx = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    ho, wo = gcols.shape[2], gcols.shape[3]
    for ki in range(k):
        for kj in range(k):
            gx[:, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += gcols[:, :, :, :, ki, kj]
    if pad > 0:
        gx = gx[:, :, pad:-pad, pad:-pad]
    return gx


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

    win = _sliding_cols(x.data, kh, stride, padding)  # (N,C,Ho,Wo,k,k)
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n, ho * wo, c * kh * kw)
    wmat = kernel.data.reshape(o, c * kh * kw)
    out_data = np.matmul(cols, wmat.T).transpose(0, 2, 1).reshape(n, o, ho, wo)
    out = Tensor(out_data)

    def back(g):
        g2 = g.reshape(n, o, ho * wo)  # (N,O,L)
        gw = np.tensordot(g2, cols, axes=([0, 2], [0, 1])).reshape(o, c, kh, kw)
        gcols = np.matmul(g2.transpose(0, 2, 1), wmat)  # (N,L,CKK)
        gcols = gcols.reshape(n, ho, wo, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
        gx = _col2im(gcols, x.shape, kh, stride, padding)
        return gx, gw

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

    win = _sliding_cols(x.data, kh, stride, padding)  # (N,C,Ho,Wo,k,k)
    out = Tensor(np.einsum("nchwij,cij->nchw", win, kernel.data, optimize=True))

    def back(g):
        gk = np.einsum("nchw,nchwij->cij", g, win, optimize=True)
        gcols = g[:, :, :, :, None, None] * kernel.data[None, :, None, None, :, :]
        gx = _col2im(gcols, x.shape, kh, stride, padding)
        return gx, gk

    return _record(out, (x, kernel), back)


# ---------------------------------------------------------------------------
# composites


def softmax(x: Tensor, axis: int) -> Tensor:
    """Numerically stable softmax along one axis (max shift is a constant)."""
    rank = x.data.ndim
    axis = axis + rank if axis < 0 else axis
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    e = exp(sub(x, expand(shift, x.shape)))
    total = reduce_sum(e, (axis,))
    total = expand(reshape(total, _keep_shape(x.shape, axis)), x.shape)
    return div(e, total)


def _keep_shape(shape: tuple[int, ...], axis: int) -> tuple[int, ...]:
    return tuple(1 if i == axis else s for i, s in enumerate(shape))


def upsample_nearest2x(x: Tensor) -> Tensor:
    """Double both spatial extents of an NCHW tensor by pixel replication."""
    if x.data.ndim != 4:
        raise ShapeError("upsample_nearest2x", x.shape, detail="NCHW tensor required")
    n, c, h, w = x.shape
    y = reshape(x, (n, c, h, 1, w, 1))
    y = expand(y, (n, c, h, 2, w, 2))
    return reshape(y, (n, c, 2 * h, 2 * w))


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

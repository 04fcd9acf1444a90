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
  * The tape holds only what backward reads. An op records one gradient
    function per input that requires a gradient, none for a constant. A node
    names its output, and each edge its input, by the key the tape gave the
    tensor it produced; a leaf (a parameter, or a tensor this tape did not
    produce) is held as itself. Gradient functions capture the shapes and
    arrays they read, never an input ``Tensor``.
  * Convolutions are GEMMs over an im2col buffer that is zero only where a
    window leaves the input; no padded copy of the input or its gradient is
    made, and the tape keeps no buffer: the kernel gradient rebuilds it from
    ``x``. A kernel is dense, (O, C, K, K), or depthwise, (C, 1, K, K): one
    group per channel.
"""

from __future__ import annotations

import contextvars
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, NonFiniteError, ShapeError, TapeError

NORM_EPS = 1e-5  # added to the variance in affine_norm

# Each thread sees its own stack of open tapes.
_active_tapes: contextvars.ContextVar[tuple["Tape", ...]] = contextvars.ContextVar("active_tapes", default=())


class Tensor:
    """A dense float64 array plus an optional gradient buffer."""

    __slots__ = ("_data", "requires_grad", "grad", "_key")

    def __init__(self, data, requires_grad: bool = False):
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._key: _Key | None = None  # set by the tape that records the op producing this tensor

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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Key:
    """Names a tensor that a tape produced, by the tape's token and never the tape:
    a Tensor -> key -> tape -> closure -> Tensor cycle waits for the cyclic GC."""

    __slots__ = ("token",)

    def __init__(self, token: object):
        self.token = token


class _Node:
    __slots__ = ("out", "edges")

    def __init__(self, out: _Key, edges: tuple[tuple[_Key | Tensor, Callable], ...]):
        self.out = out
        self.edges = edges  # (input's key, or a leaf input itself; output gradient -> that input's gradient)


class Tape:
    """Ordered record of differentiable ops; replayed in reverse by backward().

    Used as a context manager. Tapes nest; ops record onto the innermost one
    only. A tape may be consumed by at most one backward pass, and is not
    entered again after it.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._token = object()
        self._consumed = False

    def __enter__(self) -> "Tape":
        if self._consumed:
            raise TapeError("tape already consumed by backward: open a new one")
        _active_tapes.set(_active_tapes.get() + (self,))
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _active_tapes.get()
        if not stack or stack[-1] is not self:
            raise TapeError("tape exited out of order: it is not the innermost active tape")
        _active_tapes.set(stack[:-1])

    def __len__(self) -> int:
        return len(self._nodes)

    def _name(self, t: Tensor) -> _Key | Tensor:
        """The key of a tensor this tape produced; any other tensor is a leaf, named by itself."""
        key = t._key
        return key if key is not None and key.token is self._token else t


def _record(out: Tensor, *edges: tuple[Tensor, Callable]) -> Tensor:
    """Attach a node to the active tape if any input participates in autodiff.

    Each edge pairs one input with the function that maps the output's
    gradient to that input's gradient. Edges of inputs that need no gradient
    are dropped here, with whatever their functions captured.
    """
    stack = _active_tapes.get()
    if stack:
        tape = stack[-1]
        kept = tuple((tape._name(t), fn) for t, fn in edges if t.requires_grad)
        if kept:
            out.requires_grad = True
            out._key = _Key(tape._token)
            tape._nodes.append(_Node(out._key, kept))
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

    # Keyed by the tape's names: the key of a produced tensor, or a leaf itself.
    grads: dict[_Key | Tensor, np.ndarray] = {tape._name(loss): np.ones_like(loss.data)} if loss.requires_grad else {}

    for node in reversed(tape._nodes):
        g_out = grads.pop(node.out, None)
        if g_out is None:
            continue  # dead branch: output never influenced the loss
        # Compute all of a node's gradients before accumulating any. The other
        # order frees and allocates the large arrays differently, and on a
        # train_conv step it left glibc's heap about 6 MB (3%) larger in
        # resident memory for the same live arrays.
        input_grads = [(name, fn(g_out)) for name, fn in node.edges]
        for name, g in input_grads:
            grads[name] = grads[name] + g if name in grads else g

    result = {t: g for t, g in grads.items() if isinstance(t, Tensor)}
    for t, g in result.items():
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
    out, sa, sb = Tensor(a.data + b.data), a.shape, b.shape
    return _record(out, (a, lambda g: _reduce_to(g, sa)), (b, lambda g: _reduce_to(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("sub", a, b)
    out, sa, sb = Tensor(a.data - b.data), a.shape, b.shape
    return _record(out, (a, lambda g: _reduce_to(g, sa)), (b, lambda g: _reduce_to(-g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("mul", a, b)
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    out = Tensor(ad * bd)
    return _record(out, (a, lambda g: _reduce_to(g * bd, sa)), (b, lambda g: _reduce_to(g * ad, sb)))


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("div", a, b)
    if np.any(b.data == 0.0):
        raise DomainError("div: zero divisor")
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    out = Tensor(ad / bd)
    return _record(out, (a, lambda g: _reduce_to(g / bd, sa)), (b, lambda g: _reduce_to(-g * ad / (bd * bd), sb)))


def log(a: Tensor) -> Tensor:
    ad = a.data
    if not np.all(ad > 0.0):  # NaN fails this test too
        raise DomainError("log: non-positive or NaN argument")
    out = Tensor(np.log(ad))
    return _record(out, (a, lambda g: g / ad))


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise a**p for a fixed scalar exponent."""
    p = float(exponent)
    if not math.isfinite(p):
        raise DomainError(f"pow: non-finite exponent {p}")
    ad = a.data
    if p != int(p):
        if not np.all(ad > 0.0):  # NaN fails this test too
            raise DomainError("pow: non-integer exponent needs positive, non-NaN base")
    elif p < 0 and np.any(ad == 0.0):
        raise DomainError("pow: zero base with negative exponent")
    out = Tensor(ad ** p)
    return _record(out, (a, lambda g: g * p * ad ** (p - 1.0) if p != 0.0 else np.zeros_like(ad)))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # piecewise form avoids exp overflow for large |x|
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(s)
    return _record(out, (a, lambda g: g * out.data * (1.0 - out.data)))


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    return _record(out, (a, lambda g: g * (out.data > 0.0)))  # the mask of a > 0, NaN included


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient is 1 inside the interval, 0 outside."""
    if not lo < hi:
        raise DomainError(f"clip: empty interval [{lo}, {hi}]")
    out = Tensor(np.clip(a.data, lo, hi))
    inside = (a.data > lo) & (a.data < hi)
    return _record(out, (a, lambda g: g * inside))


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
    ad, bd = a.data, b.data

    def grad_b(g):
        if bd.ndim == ad.ndim:
            return np.swapaxes(ad, -1, -2) @ g
        return ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])

    return _record(Tensor(ad @ bd), (a, lambda g: g @ np.swapaxes(bd, -1, -2)), (b, grad_b))


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
    axes = _normalize_axes("reduce_sum", axes, x.data.ndim)
    if not axes:
        return x
    out, shape = Tensor(x.data.sum(axis=axes)), x.shape
    return _record(out, (x, lambda g: _expand_like(g, shape, axes).copy()))


def reduce_mean(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = _normalize_axes("reduce_mean", axes, x.data.ndim)
    if not axes:
        return x
    n, shape = int(np.prod([x.shape[a] for a in axes])), x.shape
    out = Tensor(x.data.mean(axis=axes))
    return _record(out, (x, lambda g: _expand_like(g / n, shape, axes).copy()))


def total_sum(x: Tensor) -> Tensor:
    return reduce_sum(x, tuple(range(x.data.ndim)))


def total_mean(x: Tensor) -> Tensor:
    return reduce_mean(x, tuple(range(x.data.ndim)))


# ---------------------------------------------------------------------------
# shape ops


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if any(s < 0 for s in shape):
        raise ShapeError("reshape", x.shape, shape, detail="negative extent")
    if int(np.prod(shape)) != x.size:
        raise ShapeError("reshape", x.shape, shape, detail="element count changes")
    out, xshape = Tensor(x.data.reshape(shape)), x.shape
    return _record(out, (x, lambda g: g.reshape(xshape)))


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError("transpose", x.shape, detail=f"invalid permutation {axes}")
    inv = np.argsort(axes)
    out = Tensor(np.ascontiguousarray(x.data.transpose(axes)))
    return _record(out, (x, lambda g: np.ascontiguousarray(g.transpose(inv))))


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if len(parts) == 0:
        raise ShapeError("concat", (), detail="no parts")
    rank = parts[0].data.ndim
    if not -rank <= axis < rank:
        raise ShapeError("concat", parts[0].shape, detail=f"axis {axis} out of range for rank {rank}")
    axis %= rank
    if len(parts) == 1:
        return parts[0]
    for p in parts[1:]:
        if p.data.ndim != rank:
            raise ShapeError("concat", parts[0].shape, p.shape, detail="rank mismatch")
        for ax in range(rank):
            if ax != axis and p.shape[ax] != parts[0].shape[ax]:
                raise ShapeError("concat", parts[0].shape, p.shape, detail=f"axis {ax} differs")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    bounds = np.cumsum([0] + [p.shape[axis] for p in parts]).tolist()

    def grad_part(i):
        slicer = [slice(None)] * rank
        slicer[axis] = slice(bounds[i], bounds[i + 1])
        slicer = tuple(slicer)
        return lambda g: g[slicer].copy()

    return _record(out, *((p, grad_part(i)) for i, p in enumerate(parts)))


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    rank = x.data.ndim
    axis = axis + rank if axis < 0 else axis
    if not 0 <= axis < rank:
        raise ShapeError("slice_axis", x.shape, detail=f"axis {axis} out of range")
    if not 0 <= start < stop <= x.shape[axis]:
        raise ShapeError("slice_axis", x.shape, detail=f"bounds [{start},{stop}) invalid on axis {axis}")
    slicer = [slice(None)] * rank
    slicer[axis] = slice(start, stop)
    out, xshape = Tensor(x.data[tuple(slicer)].copy()), x.shape

    def back(g):
        gx = np.zeros(xshape)
        gx[tuple(slicer)] = g
        return gx

    return _record(out, (x, back))


# ---------------------------------------------------------------------------
# normalisation


def softmax(x: Tensor, axis: int) -> Tensor:
    """Numerically stable softmax along one axis, recorded as one node.

    The backward repeats, in order, the arithmetic of the composite
    exp(x - max) / sum, so gradients round as the composite's did.
    """
    (axis,) = _normalize_axes("softmax", (axis,), x.data.ndim)
    e = np.exp(x.data - x.data.max(axis=axis, keepdims=True))
    total = e.sum(axis=axis, keepdims=True)
    out = Tensor(e / total)
    return _record(out, (x, lambda g: (g / total + np.sum(-g * e / (total * total), axis=axis, keepdims=True)) * e))


def affine_norm(x: Tensor, scale: Tensor, shift: Tensor, groups: int, op: str = "affine_norm") -> Tensor:
    """Normalise over groups of axis 1 plus all trailing axes, then scale and shift.

    Per sample and group: (x - mean) / (biased variance + NORM_EPS) ** 0.5. ``scale``
    and ``shift`` hold one entry per index of axis 1. Group norm is an NCHW
    input; layer norm is a (tokens, width) input with one group. Errors name ``op``.
    """
    if x.data.ndim < 2:
        raise ShapeError(op, x.shape, detail="rank >= 2 required")
    n, c = x.shape[:2]
    if groups < 1 or c % groups:
        raise ShapeError(op, x.shape, detail=f"{groups} groups do not divide {c} channels")
    if scale.shape != (c,) or shift.shape != (c,):
        raise ShapeError(op, x.shape, scale.shape, shift.shape, detail=f"need one entry per channel ({c})")
    xg = x.data.reshape(n, groups, c // groups, *x.shape[2:])
    axes = tuple(range(2, xg.ndim))
    xhat = xg - xg.mean(axis=axes, keepdims=True)
    std = (np.mean(xhat * xhat, axis=axes, keepdims=True) + NORM_EPS) ** 0.5
    xhat /= std
    per_channel = (1, c) + (1,) * (x.data.ndim - 2)
    gain = scale.data.reshape(per_channel)
    y = xhat.reshape(x.shape) * gain
    y += shift.data.reshape(per_channel)
    out, xshape, gshape = Tensor(y), x.shape, xg.shape

    def grad_x(g):
        # closed form of the normalisation's backward (Wu & He, 2018), on the
        # owned gx and one scratch buffer
        gx = (g * gain).reshape(gshape)
        scratch = gx * xhat
        k = np.mean(scratch, axis=axes, keepdims=True)
        gx -= gx.mean(axis=axes, keepdims=True)
        np.multiply(xhat, k, out=scratch)
        gx -= scratch
        gx /= std
        return gx.reshape(xshape)

    summed = (0,) + tuple(range(2, x.data.ndim))
    return _record(out, (x, grad_x),
                   (scale, lambda g: (g.reshape(gshape) * xhat).reshape(xshape).sum(axis=summed)),
                   (shift, lambda g: g.sum(axis=summed)))


# ---------------------------------------------------------------------------
# convolution


def _conv_out_extent(extent: int, k: int, stride: int, pad: int) -> int:
    return (extent + 2 * pad - k) // stride + 1


def _inside(extent: int, k: int, stride: int, pad: int, out_extent: int) -> list[tuple[int, int, slice]]:
    """Per kernel offset: the output range [lo, hi) whose window tap lies inside
    the input along one axis, and the input slice that range reads."""
    ranges = []
    for off in range(k):
        lo = min(out_extent, max(0, -((off - pad) // stride)))
        hi = max(lo, min(out_extent, (extent - 1 + pad - off) // stride + 1))
        start = lo * stride + off - pad
        ranges.append((lo, hi, slice(start, start + (hi - lo - 1) * stride + 1, stride)))
    return ranges


def _im2col(x: np.ndarray, k: int, stride: int, pad: int, ho: int, wo: int) -> np.ndarray:
    """(N,C,H,W) -> contiguous windows (N, C, k, k, Ho, Wo), zero where a window leaves the input."""
    n, c, h, w = x.shape
    if k == 1 and stride == 1 and pad == 0:
        return x.reshape(n, c, 1, 1, h, w)
    cols = np.empty((n, c, k, k, ho, wo))
    cranges = _inside(w, k, stride, pad, wo)
    for ki, (r0, r1, rows) in enumerate(_inside(h, k, stride, pad, ho)):
        for kj, (c0, c1, cs) in enumerate(cranges):
            dst = cols[:, :, ki, kj]
            dst[:, :, :r0] = 0.0
            dst[:, :, r1:] = 0.0
            dst[:, :, r0:r1, :c0] = 0.0
            dst[:, :, r0:r1, c1:] = 0.0
            if r0 < r1 and c0 < c1:
                dst[:, :, r0:r1, c0:c1] = x[:, :, rows, cs]
    return cols


def _col2im(gcols: np.ndarray, xshape: tuple, stride: int, pad: int) -> np.ndarray:
    """Scatter-add window gradients (N, C, k, k, Ho, Wo) back onto the (N, C, H, W) input."""
    n, c, h, w = xshape
    k, ho, wo = gcols.shape[2], gcols.shape[4], gcols.shape[5]
    if k == 1 and stride == 1 and pad == 0:
        return gcols.reshape(xshape)
    gx = np.zeros(xshape)
    cranges = _inside(w, k, stride, pad, wo)
    for ki, (r0, r1, rows) in enumerate(_inside(h, k, stride, pad, ho)):
        for kj, (c0, c1, cs) in enumerate(cranges):
            if r0 < r1 and c0 < c1:
                gx[:, :, rows, cs] += gcols[:, :, ki, kj, r0:r1, c0:c1]
    return gx


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with a kernel (no kernel flip).

    The kernel is dense, (O, C, K, K), or depthwise, (C, 1, K, K), where
    output channel i filters input channel i alone. Either way the op is a
    grouped GEMM over G = C / kernel.shape[1] groups: G is 1 or C.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("conv2d", x.shape, kernel.shape, detail="NCHW input and OCKK kernel required")
    n, c, h, w = x.shape
    o, ck, kh, kw = kernel.shape
    if kh != kw:
        raise ShapeError("conv2d", kernel.shape, detail="square kernels only")
    if ck != c and (o, ck) != (c, 1):
        raise ShapeError("conv2d", x.shape, kernel.shape,
                         detail=f"kernel expects {ck} channels, input has {c}, and is not depthwise ({c}, 1, K, K)")
    if not all(isinstance(v, (int, np.integer)) for v in (stride, padding)) or stride < 1 or padding < 0:
        raise ShapeError("conv2d", x.shape, detail=f"stride {stride!r} / padding {padding!r} invalid")
    ho = _conv_out_extent(h, kh, stride, padding)
    wo = _conv_out_extent(w, kw, stride, padding)
    if ho < 1 or wo < 1:
        raise ShapeError("conv2d", x.shape, kernel.shape, detail=f"output extent {ho}x{wo} non-positive")

    groups, xd, xshape, kshape = c // ck, x.data, x.shape, kernel.shape

    def windows():  # built again by the kernel gradient, so the tape holds no im2col buffer
        return _im2col(xd, kh, stride, padding, ho, wo).reshape(n, groups, ck * kh * kw, ho * wo)

    wmat = kernel.data.reshape(groups, o // groups, ck * kh * kw)
    out = Tensor((wmat @ windows()).reshape(n, o, ho, wo))
    gmat = (n, groups, o // groups, ho * wo)  # the output gradient as per-group GEMM outputs

    def grad_x(g):
        wt, gg = wmat.transpose(0, 2, 1), g.reshape(gmat)
        # With one output channel per group (depthwise) the GEMM's inner dimension
        # is 1 and numpy runs n * groups tiny products; the broadcast is equal.
        gcols = wt * gg if o == groups else wt @ gg
        return _col2im(gcols.reshape(n, c, kh, kw, ho, wo), xshape, stride, padding)

    def grad_kernel(g):
        return (g.reshape(gmat) @ windows().transpose(0, 1, 3, 2)).sum(axis=0).reshape(kshape)

    return _record(out, (x, grad_x), (kernel, grad_kernel))


# ---------------------------------------------------------------------------
# composites


def _parity_fold() -> np.ndarray:
    """(9, 36) map from a 3x3 kernel to four parity kernels over low-res 3x3 windows.

    Output row 2i+a of a 3x3 pad-1 conv on the nearest 2x upsample reads
    low-res rows (i-1, i, i) for a = 0 and (i, i, i+1) for a = 1; columns
    fold the same way. Kernel taps that land on the same low-res tap add up.
    """
    one_axis = np.eye(3)[[[0, 1, 1], [1, 1, 2]]]  # (parity, kernel tap, low-res tap)
    fold = np.einsum("aik,bjl->ijabkl", one_axis, one_axis).reshape(9, 36)
    fold.flags.writeable = False  # a shared constant, never a buffer
    return fold


_PARITY_FOLD = _parity_fold()


def upsample_conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """3x3 stride-1 pad-1 conv of the nearest 2x upsample of NCHW ``x``.

    A sub-pixel convolution (Shi et al., arXiv 1609.05158): the kernel folds
    into four parity kernels, one 3x3 ``conv2d`` runs them on ``x`` at low
    resolution, and a pixel shuffle interleaves the four outputs into
    (N, O, 2H, 2W). The upsampled tensor is never built.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("upsample_conv2d", x.shape, kernel.shape, detail="NCHW input and OCKK kernel required")
    n, c, h, w = x.shape
    o, ck, kh, kw = kernel.shape
    if (kh, kw) != (3, 3):
        raise ShapeError("upsample_conv2d", kernel.shape, detail="3x3 kernel required")
    if ck != c:
        raise ShapeError("upsample_conv2d", x.shape, kernel.shape, detail=f"kernel expects {ck} channels, input has {c}")
    # (O*C, 9) @ (9, 36) -> (O, C, a, b, 3, 3) -> parity kernels (a, b, O) x (C, 3, 3)
    folded = reshape(matmul(reshape(kernel, (o * c, 9)), Tensor(_PARITY_FOLD)), (o, c, 4, 9))
    folded = reshape(transpose(folded, (2, 0, 1, 3)), (4 * o, c, 3, 3))
    y = reshape(conv2d(x, folded, 1, 1), (n, 2, 2, o, h, w))
    return reshape(transpose(y, (0, 3, 4, 1, 5, 2)), (n, o, 2 * h, 2 * w))


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

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
  * The tape holds only what backward reads, and backward pops each node as
    it runs it. An op records one gradient function per input that requires a
    gradient, none for a constant. A node names its output, and each edge its
    input, by the key the tape gave the tensor it produced; a leaf (a
    parameter, or a tensor this tape did not produce) is held as itself.
    Gradient functions capture the shapes and arrays they read, never a Tensor.
  * An op may record a ``prep`` with its node. Backward applies it to the
    node's output gradient once, hands the result to every edge and drops it
    when the node is done, so work that the edges share runs once per node:
    ``conv2d`` lays the gradient out for its path, ``upsample_conv2d``
    unshuffles it onto its parity grids, and ``affine_norm`` sums g * xc.
  * A kernel is dense, (O, C, K, K), or depthwise, (C, 1, K, K), and a
    convolution runs one of two ways; the tape keeps only x and the kernel.
    - Gathered taps, for a depthwise kernel, a stride above 1, or C < O with
      K > 1: each tap's window of every output is copied from a strided view
      of x, zero where it reads padding, for one GEMM per group. The input
      gradient is the gather's exact adjoint: each tap's share of the output
      gradient (one GEMM of a dense kernel's transpose, or a depthwise
      kernel's product per tap), then a scatter that sums the taps landing on
      each stride x stride phase of x in tap order and writes that phase
      once. The kernel gradient reduces the output gradient against the taps,
      gathered again from x: one batched GEMM, or one einsum if depthwise.
    - Per tap, otherwise (a dense kernel at stride 1 with C >= O, or K = 1):
      x is zero-padded into one flat plane of Wq-wide rows, with K - 1 zeros
      after it, so each tap is a zero-copy view of the plane and runs its own
      (O, C) GEMM into an Ho x Wq grid, cropped once to Wo columns. Backward
      adds each tap's share of the gradient on that grid into a zeroed plane
      and crops x's gradient from it; the kernel gradient builds the plane
      again.
  * The decoder's 3x3 conv of a nearest 2x upsample is one node: four 2x2
    parity kernels run as one conv on the low-res input, and backward runs
    that conv's own gradient maps (see ``upsample_conv2d``).
  * One non-finite rule: an op that must not pass NaN or inf on checks the
    values it computes with ``check_finite``, never numpy's floating-point
    flags, which belong to the calling thread alone (not to a BLAS worker)
    and which a NaN input does not set. Arithmetic that may meet such a value
    runs under ``np.errstate(..."ignore")`` only so that numpy does not warn.
"""

from __future__ import annotations

import contextvars
import math
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError, TapeError

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

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def check_finite(op: str, what: str, values: np.ndarray, *shapes: tuple[int, ...]) -> None:
    """Raise a ``NonFiniteError`` naming ``op``, ``what`` and the input shapes if ``values`` holds NaN or inf."""
    if not np.isfinite(values).all():
        raise NonFiniteError(f"{op}: NaN or inf in {what}, for inputs {' and '.join(map(str, shapes))}")


def is_int(*values) -> bool:
    """True when every value is a Python or numpy integer: extents, axes, strides, counts."""
    return all(isinstance(v, (int, np.integer)) for v in values)


class _Key:
    """Names a tensor that a tape produced, by the tape's token and never the tape:
    a Tensor -> key -> tape -> closure -> Tensor cycle waits for the cyclic GC."""

    __slots__ = ("token",)

    def __init__(self, token: object):
        self.token = token


class _Node:
    """One recorded op: its output's key, one edge per input that needs a
    gradient, and the op's ``prep``, if any, which backward applies to the
    output's gradient once before all the edges read it (see the design notes)."""

    __slots__ = ("out", "edges", "prep")

    def __init__(self, out: _Key, edges: tuple[tuple[_Key | Tensor, Callable], ...], prep: Callable | None):
        self.out = out
        self.edges = edges  # (input's key, or a leaf input itself; prepared output gradient -> that input's gradient)
        self.prep = prep


class Tape:
    """Ordered record of differentiable ops; replayed in reverse by backward().

    Used as a context manager. Tapes nest; ops record onto the innermost one
    only. A tape may be consumed by at most one backward pass, which leaves it
    holding no nodes, and is not entered again after it.
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


def _record(out: Tensor, *edges: tuple[Tensor, Callable], prep: Callable | None = None) -> Tensor:
    """Attach a node to the active tape if any input participates in autodiff.

    Each edge pairs one input with the function that maps the output's
    gradient, passed through ``prep`` first if given, to that input's
    gradient. Edges of inputs that need no gradient are dropped here, with
    whatever their functions captured.
    """
    stack = _active_tapes.get()
    if stack:
        tape = stack[-1]
        kept = tuple((tape._name(t), fn) for t, fn in edges if t.requires_grad)
        if kept:
            out.requires_grad = True
            out._key = _Key(tape._token)
            tape._nodes.append(_Node(out._key, kept, prep))
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

    while tape._nodes:
        node = tape._nodes.pop()  # what its edges captured is freed before the next node's edges run
        g_out = grads.pop(node.out, None)
        if g_out is None:
            continue  # dead branch: output never influenced the loss
        if node.prep is not None:
            g_out = node.prep(g_out)  # once per node; dropped when the next node's gradient is popped
        for name, fn in node.edges:
            g = fn(g_out)
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


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("mul", a, b)
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    out = Tensor(ad * bd)
    return _record(out, (a, lambda g: _reduce_to(g * bd, sa)), (b, lambda g: _reduce_to(g * ad, sb)))


def relu(a: Tensor) -> Tensor:
    y = np.maximum(a.data, 0.0)
    return _record(Tensor(y), (a, lambda g: g * (y > 0.0)))  # the mask of a > 0, NaN included


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
    if a.shape[-1] != b.shape[-2] or a.shape[-1] == 0:
        raise ShapeError("matmul", a.shape, b.shape, detail="inner dimensions disagree or are 0")
    ad, bd = a.data, b.data

    def grad_b(g):
        if bd.ndim == ad.ndim:
            return np.swapaxes(ad, -1, -2) @ g
        return ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])

    return _record(Tensor(ad @ bd), (a, lambda g: g @ np.swapaxes(bd, -1, -2)), (b, grad_b))


# ---------------------------------------------------------------------------
# reductions


def _normalize_axis(op: str, axis: int, shape: tuple[int, ...]) -> int:
    rank = len(shape)
    if not is_int(axis) or not -rank <= axis < rank:
        raise ShapeError(op, shape, detail=f"axis {axis!r} is not an integer in [{-rank}, {rank})")
    return axis % rank


def total_sum(x: Tensor) -> Tensor:
    out, shape = Tensor(x.data.sum()), x.shape
    return _record(out, (x, lambda g: np.full(shape, g)))


def total_mean(x: Tensor) -> Tensor:
    if x.size == 0:
        raise ShapeError("total_mean", x.shape, detail="no entries to average")
    out, shape, n = Tensor(x.data.mean()), x.shape, x.size
    return _record(out, (x, lambda g: np.full(shape, g / n)))


# ---------------------------------------------------------------------------
# shape ops


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if not is_int(*shape) or any(s < 0 for s in shape):
        raise ShapeError("reshape", x.shape, shape, detail="extents must be non-negative integers")
    if int(np.prod(shape)) != x.size:
        raise ShapeError("reshape", x.shape, shape, detail="element count changes")
    out, xshape = Tensor(x.data.reshape(shape)), x.shape
    return _record(out, (x, lambda g: g.reshape(xshape)))


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if not is_int(*axes) or sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError("transpose", x.shape, detail=f"invalid permutation {axes}")
    inv = np.argsort(axes)
    out = Tensor(np.ascontiguousarray(x.data.transpose(axes)))
    return _record(out, (x, lambda g: np.ascontiguousarray(g.transpose(inv))))


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if len(parts) == 0:
        raise ShapeError("concat", (), detail="no parts")
    rank = parts[0].data.ndim
    axis = _normalize_axis("concat", axis, parts[0].shape)
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


# ---------------------------------------------------------------------------
# normalisation


def softmax(x: Tensor, axis: int) -> Tensor:
    """Numerically stable softmax along one axis, recorded as one node."""
    axis = _normalize_axis("softmax", axis, x.shape)
    if x.shape[axis] == 0:
        raise ShapeError("softmax", x.shape, detail=f"axis {axis} has no entries")
    out, grad_x = _softmax(x.data, axis)
    return _record(Tensor(out), (x, grad_x))


def _softmax(x: np.ndarray, axis: int) -> tuple[np.ndarray, Callable]:
    """x's softmax and the map from its gradient to x's, which rounds as the composite exp(x - max) / sum did.
    A slice's sum is finite, in [1, extent], exactly when its maximum is: -inf beside a finite entry is legal."""
    peak = x.max(axis=axis, keepdims=True)
    check_finite("softmax", "the maximum of a slice", peak, x.shape)
    with np.errstate(over="ignore"):  # x - peak may overflow only to -inf, and exp(-inf) is exactly 0
        e = np.exp(x - peak)
    total = e.sum(axis=axis, keepdims=True)
    return e / total, lambda g: (g / total + (-g * e / (total * total)).sum(axis=axis, keepdims=True)) * e


def affine_norm(x: Tensor, scale: Tensor, shift: Tensor, groups: int, op: str = "affine_norm") -> Tensor:
    """Normalise over groups of axis 1 plus all trailing axes, then scale and shift.

    Per sample and group: (x - mean) / (biased variance + NORM_EPS) ** 0.5. ``scale``
    and ``shift`` hold one entry per index of axis 1. Group norm is an NCHW
    input; layer norm is a (tokens, width) input with one group. Errors name ``op``.
    """
    if x.data.ndim < 2:
        raise ShapeError(op, x.shape, detail="rank >= 2 required")
    n, c = x.shape[:2]
    if not is_int(groups) or groups < 1 or c % groups:
        raise ShapeError(op, x.shape, detail=f"{groups!r} groups do not divide {c} channels")
    if scale.shape != (c,) or shift.shape != (c,):
        raise ShapeError(op, x.shape, scale.shape, shift.shape, detail=f"need one entry per channel ({c})")
    xshape, cg = x.shape, c // groups
    if x.size == 0:
        raise ShapeError(op, x.shape, detail="no entries to normalise")
    size = math.prod(xshape[1:]) // groups  # entries per (sample, group)
    xg = x.data.reshape(n, groups, size)
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or inf entry, inf - inf or overflow: checked below
        xc = xg - xg.mean(axis=2, keepdims=True)
        var = np.einsum("ngm,ngm->ng", xc, xc) / size
    check_finite(op, "the variance of a group", var, xshape)  # finite only if every entry, mean and square is
    inv = (var + NORM_EPS) ** -0.5  # 1 / std per (sample, group)
    xc = xc.reshape(n, groups, cg, -1)  # axes: sample, group, channel in group, the rest
    gain = scale.data.reshape(groups, cg)
    y = xc * (gain[..., None] * inv[:, :, None, None])
    y += shift.data.reshape(groups, cg, 1)

    def prep(g):  # g, and its per-(sample, group, channel) sum of g * xc, which x's and scale's gradients share
        return g, np.einsum("ngcr,ngcr->ngc", g.reshape(xc.shape), xc)

    def grad_x(prepped):
        # closed form of the normalisation's backward (Wu & He, 2018), from the
        # per-(sample, channel) sums of g and of g * xc
        g, gxc = prepped
        g = g.reshape(xc.shape)
        mean_g = np.einsum("ngc,gc->ng", np.einsum("ngcr->ngc", g), gain)[:, :, None, None] / size
        mean_gxc = np.einsum("ngc,gc->ng", gxc, gain)[:, :, None, None] / size
        inv4 = inv[:, :, None, None]
        gx = g * (gain[..., None] * inv4)
        t = xc * (-inv4 ** 3 * mean_gxc)
        t -= inv4 * mean_g
        gx += t
        return gx.reshape(xshape)

    def grad_scale(prepped):
        return np.einsum("ngc,ng->gc", prepped[1], inv).reshape(c)

    summed = (0,) + tuple(range(2, x.data.ndim))
    return _record(Tensor(y.reshape(xshape)), (x, grad_x), (scale, grad_scale),
                   (shift, lambda prepped: prepped[0].sum(axis=summed)), prep=prep)


# ---------------------------------------------------------------------------
# convolution


def _conv_out_extent(extent: int, k: int, stride: int, pad: int) -> int:
    return (extent + 2 * pad - k) // stride + 1


def _spans(extent: int, count: int, k: int, stride: int, pad: int) -> list[tuple[int, int, int]]:
    """Per kernel offset on one axis: the outputs [lo, hi) whose window reads
    inside the input there, and the input index that output lo reads."""
    out = []
    for offset in range(-pad, k - pad):
        lo = min(count, max(0, -(offset // stride)))
        hi = max(lo, min(count, (extent - 1 - offset) // stride + 1))
        out.append((lo, hi, stride * lo + offset))
    return out


def _windows(xshape: tuple, k: int, stride: int, pad: int, ho: int, wo: int) -> list:
    """Per kernel tap, in tap order: its row and its column ``_spans``."""
    return [(r, c) for r in _spans(xshape[2], ho, k, stride, pad) for c in _spans(xshape[3], wo, k, stride, pad)]


def _fill(buf: np.ndarray, block: np.ndarray, i: int, j: int) -> None:
    """Write ``block`` into ``buf`` from row i, column j of their last two axes, and 0 around it."""
    r, c = block.shape[-2:]
    buf[..., i:i + r, j:j + c] = block
    if i:
        buf[..., :i, :] = 0.0
    if i + r < buf.shape[-2]:
        buf[..., i + r:, :] = 0.0
    if j:
        buf[..., :j] = 0.0
    if j + c < buf.shape[-1]:
        buf[..., j + c:] = 0.0


def _gather(x: np.ndarray, k: int, stride: int, pad: int, ho: int, wo: int) -> np.ndarray:
    """Each tap's window of every output, copied from a strided view of x:
    (N, C, K * K, Ho, Wo), 0 where the window reads padding."""
    cols = np.empty(x.shape[:2] + (k * k, ho, wo))
    for t, ((r0, r1, xr), (c0, c1, xc)) in enumerate(_windows(x.shape, k, stride, pad, ho, wo)):
        _fill(cols[:, :, t], x[..., xr:xr + stride * (r1 - r0):stride, xc:xc + stride * (c1 - c0):stride], r0, c0)
    return cols


def _scatter(cols: np.ndarray, xshape: tuple, k: int, stride: int, pad: int) -> np.ndarray:
    """The adjoint of ``_gather``: each tap's window gradients added back onto x.

    A tap's windows land on one phase of x, the pixels at rows a + stride * i
    and columns b + stride * j. Each phase sums its taps in tap order, in one
    buffer written to x once unless the phase is all of x or has one tap;
    pixels that no window reads get 0.
    """
    ho, wo = cols.shape[-2:]
    windows = [(t, r, c) for t, (r, c) in enumerate(_windows(xshape, k, stride, pad, ho, wo))
               if r[1] > r[0] and c[1] > c[0]]  # taps that read x at all
    gx = np.empty(xshape)
    for a, b in np.ndindex(stride, stride):
        phase = gx[..., a::stride, b::stride]
        taps = [(cols[:, :, t, r0:r1, c0:c1], xr // stride, xc // stride)
                for t, (r0, r1, xr), (c0, c1, xc) in windows if xr % stride == a and xc % stride == b]
        if not taps:
            phase[...] = 0.0
            continue
        acc = phase if stride == 1 or len(taps) == 1 else np.empty(phase.shape)
        _fill(acc, *taps[0])
        for block, i, j in taps[1:]:
            acc[..., i:i + block.shape[-2], j:j + block.shape[-1]] += block
        if acc is not phase:
            phase[...] = acc
    return gx


def _plane(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    """x zero-padded by ``pad`` into one flat (N, C, Hp * Wq + K - 1) plane, for
    padded extents Hp x Wq: tap (ki, kj) of a stride-1 conv reads it from ki * Wq + kj."""
    n, c, h, w = x.shape
    hp, wq = h + 2 * pad, w + 2 * pad
    if k == 1 and pad == 0:  # x is its own plane
        return x.reshape(n, c, hp * wq)
    p = np.empty((n, c, hp * wq + k - 1))
    _fill(p[..., :hp * wq].reshape(n, c, hp, wq), x, pad, pad)
    p[..., hp * wq:] = 0.0
    return p


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with a kernel (no kernel flip).

    The kernel is dense, (O, C, K, K), or depthwise, (C, 1, K, K), where
    output channel i filters input channel i alone. Each kernel tap reads
    windows gathered from x or a view of x's zero-padded plane (see the design notes).
    """
    with np.errstate(invalid="ignore", over="ignore"):  # inf times a zero tap, or an overflow: checked below
        y, prep, grad_x, grad_kernel = _conv2d(x.data, kernel.data, stride, padding)
    out = Tensor(np.ascontiguousarray(y))
    check_finite("conv2d", "the output", out.data, x.shape, kernel.shape)
    return _record(out, (x, grad_x), (kernel, grad_kernel), prep=prep)


def _conv2d(xd: np.ndarray, kd: np.ndarray, s: int, padding: int) -> tuple[np.ndarray, Callable, Callable, Callable]:
    """``conv2d`` on arrays, with its checks: the output, which may be a view of
    a wider grid, and its backward: ``prep``, which lays the output's gradient
    out once per node, and the maps from that to x's and the kernel's gradients."""
    if xd.ndim != 4 or kd.ndim != 4:
        raise ShapeError("conv2d", xd.shape, kd.shape, detail="NCHW input and OCKK kernel required")
    xshape, kshape = xd.shape, kd.shape
    (n, c, h, w), (o, ck, kh, kw) = xshape, kshape
    if kh != kw:
        raise ShapeError("conv2d", kshape, detail="square kernels only")
    if ck != c and (o, ck) != (c, 1):
        raise ShapeError("conv2d", xshape, kshape,
                         detail=f"kernel expects {ck} channels, input has {c}, and is not depthwise ({c}, 1, K, K)")
    if not is_int(s, padding) or s < 1 or padding < 0:
        raise ShapeError("conv2d", xshape, detail=f"stride {s!r} / padding {padding!r} invalid")
    ho, wo = _conv_out_extent(h, kh, s, padding), _conv_out_extent(w, kw, s, padding)
    if ho < 1 or wo < 1 or xd.size == 0 or kd.size == 0:
        raise ShapeError("conv2d", xshape, kshape, detail=f"no entries in x or kernel, or output extent {ho}x{wo}")
    kk, depthwise = kh * kw, ck == 1 and o == c
    if depthwise or s > 1 or c < o and kh > 1:  # gathered taps: one GEMM per group of channels
        def taps():  # (N, C, K * K, Ho * Wo), gathered again by the kernel gradient, so the tape holds only x
            return _gather(xd, kh, s, padding, ho, wo).reshape(n, c, kk, ho * wo)

        def scatter_x(g):  # each tap's share of g, a product per tap if depthwise, then the gather's exact adjoint
            cols = kd.reshape(c, kk, 1) * g[:, :, None] if depthwise else kd.reshape(o, c * kk).T @ g
            return _scatter(cols.reshape(n, c, kk, ho, wo), xshape, kh, s, padding)

        def reduce_kernel(g):  # g against each tap: one einsum if depthwise, one batched GEMM otherwise
            if depthwise:
                return np.einsum("ncm,nctm->ct", g, taps()).reshape(kshape)
            return (g @ taps().reshape(n, c * kk, ho * wo).transpose(0, 2, 1)).sum(axis=0).reshape(kshape)

        y = kd.reshape(c, 1, kk) @ taps() if depthwise else kd.reshape(o, c * kk) @ taps().reshape(n, c * kk, ho * wo)
        return y.reshape(n, o, ho, wo), lambda g: g.reshape(n, o, ho * wo), scatter_x, reduce_kernel

    hp, wq = h + 2 * padding, w + 2 * padding  # stride 1: x's zero-padded extents
    m = ho * wq  # a tap's view: Ho rows of Wq entries, whose columns past Wo are cropped
    offsets = [ki * wq + kj for ki in range(kh) for kj in range(kw)]
    wt = np.ascontiguousarray(kd.reshape(o, c, kk).transpose(2, 0, 1))  # per tap (O, C)
    p = _plane(xd, kh, padding)  # one (O, C) GEMM per tap, added into the output
    y, scratch = wt[0] @ p[..., :m], None
    for t in range(1, kk):
        scratch = np.matmul(wt[t], p[..., offsets[t]:offsets[t] + m], out=scratch)
        y += scratch
    y = y.reshape(n, o, ho, wq)[..., :wo]

    def grid(g):  # the output gradient on the Ho x Wq grid, zero past Wo
        if wq == wo:
            return g.reshape(n, o, m)
        gg = np.empty((n, o, ho, wq))
        _fill(gg, g, 0, 0)
        return gg.reshape(n, o, m)

    def tap_x(gg):
        if kh == 1 and padding == 0:  # direct: x is its own plane
            return (wt[0].T @ gg).reshape(xshape)
        gp, scratch = np.zeros((n, c, hp * wq + kh - 1)), None
        for t, off in enumerate(offsets):
            scratch = np.matmul(wt[t].T, gg, out=scratch)
            gp[..., off:off + m] += scratch
        return gp[..., :hp * wq].reshape(n, c, hp, wq)[..., padding:padding + h, padding:padding + w].copy()

    def tap_kernel(gg):  # the plane built again, so the tape holds only x
        p = _plane(xd, kh, padding)
        per_tap = [(gg @ p[..., off:off + m].transpose(0, 2, 1)).sum(axis=0) for off in offsets]
        return np.stack(per_tap, axis=-1).reshape(kshape)

    return y, grid, tap_x, tap_kernel


# ---------------------------------------------------------------------------
# composites


def _parity_fold() -> np.ndarray:
    """(9, 16) map from a 3x3 kernel to four parity kernels over low-res 2x2 windows.

    Output row 2i+a of a 3x3 pad-1 conv on the nearest 2x upsample reads
    low-res rows (i-1, i, i) for a = 0 and (i, i, i+1) for a = 1: a 2x2
    window from row i-1+a. Columns fold the same way. Kernel taps that land
    on the same window tap add up.
    """
    one_axis = np.eye(2)[[[0, 1, 1], [0, 0, 1]]]  # (parity, kernel tap, window tap)
    fold = np.einsum("aiu,bjv->ijabuv", one_axis, one_axis).reshape(9, 16)
    fold.flags.writeable = False  # a shared constant, never a buffer
    return fold


_PARITY_FOLD = _parity_fold()


def upsample_conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """3x3 stride-1 pad-1 conv of the nearest 2x upsample of NCHW ``x``, as one node.

    A sub-pixel convolution (Shi et al., arXiv 1609.05158): the kernel folds
    into four parity kernels over 2x2 low-res windows, one 2x2 pad-1 conv
    runs them on ``x`` into (H + 1) x (W + 1) grids, and a pixel shuffle
    writes each parity's H x W crop into (N, O, 2H, 2W). Backward unshuffles
    the output gradient onto the grids once per node and runs the conv's own
    gradient maps on it. The upsampled tensor is never built.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("upsample_conv2d", x.shape, kernel.shape, detail="NCHW input and OCKK kernel required")
    n, c, h, w = x.shape
    o, ck, kh, kw = kernel.shape
    if (kh, kw) != (3, 3):
        raise ShapeError("upsample_conv2d", kernel.shape, detail="3x3 kernel required")
    if ck != c:
        raise ShapeError("upsample_conv2d", x.shape, kernel.shape, detail=f"kernel expects {ck} channels, input has {c}")
    if x.size == 0 or kernel.size == 0:
        raise ShapeError("upsample_conv2d", x.shape, kernel.shape, detail="no entries in x or kernel")
    with np.errstate(invalid="ignore", over="ignore"):  # inf times a zero tap, or an overflow: checked below
        # (O*C, 9) @ (9, 16) -> (O, C, a, b, 2, 2) -> parity kernels (a, b, O) x (C, 2, 2)
        folded = (kernel.data.reshape(o * c, 9) @ _PARITY_FOLD).reshape(o, c, 4, 4).transpose(2, 0, 1, 3)
        y, conv_prep, conv_grad_x, conv_grad_kernel = _conv2d(x.data, folded.reshape(4 * o, c, 2, 2), 1, 1)
    grids, out = y.reshape(n, 2, 2, o, h + 1, w + 1), np.empty((n, o, h, 2, w, 2))
    for a, b in np.ndindex(2, 2):  # parity (a, b) is the crop of its grid from row a, column b
        out[:, :, :, a, :, b] = grids[:, a, b, :, a:a + h, b:b + w]

    def unshuffle(g):  # the output gradient on the conv's grids, zero outside each parity's crop
        g, gg = g.reshape(n, o, h, 2, w, 2), np.empty((n, 2, 2, o, h + 1, w + 1))
        for a, b in np.ndindex(2, 2):
            _fill(gg[:, a, b], g[:, :, :, a, :, b], a, b)
        return conv_prep(gg.reshape(n, 4 * o, h + 1, w + 1))

    def grad_kernel(gg):
        gk = conv_grad_kernel(gg).reshape(4, o, c, 4).transpose(1, 2, 0, 3)
        return (gk.reshape(o * c, 16) @ _PARITY_FOLD.T).reshape(o, c, 3, 3)

    out = Tensor(out.reshape(n, o, 2 * h, 2 * w))
    check_finite("upsample_conv2d", "the output", out.data, x.shape, kernel.shape)
    return _record(out, (x, conv_grad_x), (kernel, grad_kernel), prep=unshuffle)

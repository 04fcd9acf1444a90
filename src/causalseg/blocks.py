"""Network building blocks: downsampling branches, attention, decoder.

Every block is a pure function of (input, parameters). Parameters live in a
``BlockParams`` bag of tensors that require gradients, seeded by the builders
from a numpy Generator; a block reads its channel counts from their shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, DegenerateInputError, ShapeError
from .tensor import Tensor

MBCONV_EXPANSION = 4


@dataclass
class SimamConfig:
    """Energy-based attention regularizer; lam keeps the variance term positive."""

    lam: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.lam < np.inf:
            raise ConfigError(f"simam lam must be finite and positive, got {self.lam}")


@dataclass
class BlockParams:
    """Named learnable tensors of one block; its channel counts are their shapes."""

    stride: int = 1
    params: dict[str, Tensor] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self.params[name]
        except KeyError:
            raise ShapeError("block_params", (), detail=f"missing parameter '{name}'") from None

    def tensors(self) -> dict[str, Tensor]:
        return self.params


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    if not T.is_int(fan_in, *shape) or min((fan_in, *shape)) < 1:
        raise ConfigError(f"parameter {shape} with fan-in {fan_in}: extents and fan-in must be positive integers")
    bound = (1.0 / fan_in) ** 0.5
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def norm_groups(channels: int) -> int:
    """Largest group count <= 8 that divides the channel count."""
    for g in range(min(8, channels), 0, -1):
        if channels % g == 0:
            return g
    return 1


def group_norm(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """Group norm of an NCHW tensor over ``norm_groups(C)`` groups of its C channels."""
    if x.data.ndim != 4:
        raise ShapeError("group_norm", x.shape, detail="NCHW tensor required")
    return T.affine_norm(x, scale, shift, norm_groups(x.shape[1]), op="group_norm")


def layer_norm(tokens: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    if tokens.data.ndim != 2:
        raise ShapeError("layer_norm", tokens.shape, detail="(tokens, width) matrix required")
    return T.affine_norm(tokens, scale, shift, 1, op="layer_norm")


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a per-channel bias to an NCHW tensor."""
    return T.add(x, T.reshape(bias, (1, x.shape[1], 1, 1)))


# ---------------------------------------------------------------------------
# SimAM attention


def simam(x: Tensor, cfg: SimamConfig) -> Tensor:
    """Reweight activations by a sigmoid energy score; parameter-free, one tape node.

    Per channel, each position's squared deviation from the channel mean is
    compared against the channel variance (divisor H*W-1):
        a = sigmoid(d / (4 * (v + lam)) + 0.5),  output = x * a
    The energy is at least 0.5, so the plain logistic cannot overflow; the
    coefficients lie in (0, 1) up to rounding near 1. The tape keeps x and a:
    the backward rebuilds d with the forward's own calls, then repeats, in
    order, the arithmetic of the elementwise composite, so it rounds alike.
    """
    if x.data.ndim != 4:
        raise ShapeError("simam", x.shape, detail="NCHW tensor required")
    hw = x.shape[2] * x.shape[3]
    if hw < 2:
        raise DegenerateInputError("simam: each channel needs at least 2 spatial positions")
    xd = x.data
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or inf entry, inf - inf or overflow: checked below
        dev = xd - xd.mean(axis=(2, 3), keepdims=True)
        d = dev * dev
        den = (d.sum(axis=(2, 3), keepdims=True) / (hw - 1) + cfg.lam) * 4.0
        den2 = den * den  # the backward divides by it
    # NaN or inf anywhere in a channel, or a variance too large to differentiate, makes its den2 so
    T.check_finite("simam", "the squared variance term of a channel", den2, x.shape)
    a = 1.0 / (1.0 + np.exp(-(d / den + 0.5)))

    def grad_x(g):
        dev = xd - xd.mean(axis=(2, 3), keepdims=True)
        d = dev * dev
        ge = g * xd * a * (1.0 - a)  # the energy's gradient
        gdev = (ge / den + (-ge * d / den2).sum(axis=(2, 3), keepdims=True) * 4.0 / (hw - 1)) * dev
        gdev += gdev  # d = dev * dev: one term per factor
        return g * a + gdev + (-gdev).sum(axis=(2, 3), keepdims=True) / hw

    return T._record(Tensor(xd * a), (x, grad_x))


# ---------------------------------------------------------------------------
# convolutional branches


def make_cnn_down_params(rng, in_channels: int, out_channels: int) -> BlockParams:
    p = BlockParams(stride=2)
    p.params["kernel"] = _uniform(rng, (out_channels, in_channels, 3, 3), in_channels * 9)
    # No conv bias: the group norm's per-channel shift takes its place.
    p.params["scale"] = _ones((out_channels,))
    p.params["shift"] = _zeros((out_channels,))
    return p


def cnn_down(x: Tensor, params: BlockParams) -> Tensor:
    """3x3 stride-2 convolution (pad 1) followed by group norm and ReLU."""
    kernel = params["kernel"]
    if x.data.ndim != 4 or x.shape[1] != kernel.shape[1]:
        raise ShapeError("cnn_down", x.shape, kernel.shape, detail="NCHW tensor with the kernel's channels required")
    h, w = x.shape[2:]
    if h < 2 or w < 2 or h % 2 or w % 2:
        raise ShapeError("cnn_down", x.shape, detail="spatial extents must be even and >= 2")
    y = T.conv2d(x, kernel, stride=2, padding=1)
    y = group_norm(y, params["scale"], params["shift"])
    return T.relu(y)


def make_mbconv_params(rng, in_channels: int, out_channels: int, stride: int) -> BlockParams:
    hidden = MBCONV_EXPANSION * in_channels
    p = BlockParams(stride=stride)
    p.params["expand_kernel"] = _uniform(rng, (hidden, in_channels, 1, 1), in_channels)
    p.params["expand_scale"] = _ones((hidden,))
    p.params["expand_shift"] = _zeros((hidden,))
    p.params["dw_kernel"] = _uniform(rng, (hidden, 1, 3, 3), 9)
    p.params["dw_scale"] = _ones((hidden,))
    p.params["dw_shift"] = _zeros((hidden,))
    p.params["project_kernel"] = _uniform(rng, (out_channels, hidden, 1, 1), hidden)
    p.params["project_scale"] = _ones((out_channels,))
    p.params["project_shift"] = _zeros((out_channels,))
    return p


def mbconv(x: Tensor, params: BlockParams, stride: int) -> Tensor:
    """Inverted bottleneck: 1x1 expand, depthwise 3x3, linear 1x1 projection.

    The projection has no activation; a residual is added when the block
    keeps both resolution and channel count.
    """
    if stride not in (1, 2):
        raise ConfigError(f"mbconv stride must be 1 or 2, got {stride}")
    cin = params["expand_kernel"].shape[1]
    if x.data.ndim != 4 or x.shape[1] != cin:
        raise ShapeError("mbconv", x.shape, detail=f"NCHW tensor with {cin} channels required")
    y = T.conv2d(x, params["expand_kernel"])
    y = group_norm(y, params["expand_scale"], params["expand_shift"])
    y = T.relu(y)
    y = T.conv2d(y, params["dw_kernel"], stride=stride, padding=1)
    y = group_norm(y, params["dw_scale"], params["dw_shift"])
    y = T.relu(y)
    y = T.conv2d(y, params["project_kernel"])
    y = group_norm(y, params["project_scale"], params["project_shift"])
    if stride == 1 and y.shape[1] == cin:
        y = T.add(y, x)
    return y


# ---------------------------------------------------------------------------
# token mixer


def make_transformer_params(rng, channels: int, image_extent: int, patch: int, heads: int) -> BlockParams:
    if not T.is_int(patch, heads) or min(patch, heads) < 1:
        raise ConfigError(f"patch {patch!r} and heads {heads!r} must be positive integers")
    if image_extent % patch != 0:
        raise ConfigError(f"patch {patch} does not divide extent {image_extent}")
    width = channels * patch * patch
    if width % heads != 0:
        raise ConfigError(f"{heads} heads do not divide token width {width}")
    tokens = (image_extent // patch) ** 2
    p = BlockParams()
    p.params["pos"] = _uniform(rng, (1, tokens, width), width)
    for name in ("wq", "wk", "wv", "wo"):
        p.params[name] = _uniform(rng, (width, width), width)
    # The token MLP's hidden layer is as wide as a token.
    p.params["mlp_w1"] = _uniform(rng, (width, width), width)
    p.params["mlp_b1"] = _uniform(rng, (1, width), width)
    p.params["mlp_w2"] = _uniform(rng, (width, width), width)
    p.params["mlp_b2"] = _uniform(rng, (1, width), width)
    p.params["ln1_scale"] = _ones((width,))
    p.params["ln1_shift"] = _zeros((width,))
    p.params["ln2_scale"] = _ones((width,))
    p.params["ln2_shift"] = _zeros((width,))
    return p


def _patchify(x: Tensor, patch: int) -> Tensor:
    """Space-to-depth: (N,C,H,W) -> (N*T, C*p*p), image by image, with no learned weights."""
    n, c, h, w = x.shape
    gh, gw = h // patch, w // patch
    y = T.reshape(x, (n, c, gh, patch, gw, patch))
    y = T.transpose(y, (0, 2, 4, 1, 3, 5))
    return T.reshape(y, (n * gh * gw, c * patch * patch))


def _unpatchify(tokens: Tensor, shape: tuple, patch: int) -> Tensor:
    n, c, h, w = shape
    gh, gw = h // patch, w // patch
    y = T.reshape(tokens, (n, gh, gw, c, patch, patch))
    y = T.transpose(y, (0, 3, 1, 4, 2, 5))
    return T.reshape(y, (n, c, h, w))


def transformer_block(x: Tensor, params: BlockParams, patch: int, heads: int) -> Tensor:
    """One pre-norm encoder layer over non-overlapping patches.

    Patchify/unpatchify are pure reshapes, so with all projection weights at
    zero the block is the identity. The residual stream is (N*T, D) tokens.
    Positional embeddings, stored as (1, T, D), feed only the attention branch.
    """
    if x.data.ndim != 4:
        raise ShapeError("transformer_block", x.shape, detail="NCHW tensor required")
    n, c, h, w = x.shape
    if not T.is_int(patch, heads) or min(patch, heads) < 1:
        raise ShapeError("transformer_block", x.shape,
                         detail=f"patch {patch!r} and heads {heads!r} must be positive integers")
    if h % patch or w % patch:
        raise ShapeError("transformer_block", x.shape, detail=f"patch {patch} does not divide spatial extents")
    width = c * patch * patch
    if width % heads != 0:
        raise ShapeError("transformer_block", x.shape, detail=f"{heads} heads do not divide width {width}")
    dh = width // heads
    scale = 1.0 / float(np.sqrt(dh))

    t_count = (h // patch) * (w // patch)
    if params["pos"].shape != (1, t_count, width):
        raise ShapeError("transformer_block", params["pos"].shape, (1, t_count, width),
                         detail="positional table built for another token grid")
    t = _patchify(x, patch)  # (N*T, D)
    a_in = T.add(T.reshape(layer_norm(t, params["ln1_scale"], params["ln1_shift"]), (n, t_count, width)), params["pos"])
    # (N, T, D) -> (N, heads, T, dh); keys come out transposed, (N, heads, dh, T)
    q, k, v = (T.transpose(T.reshape(T.matmul(a_in, params[nm]), (n, t_count, heads, dh)), perm)
               for nm, perm in (("wq", (0, 2, 1, 3)), ("wk", (0, 2, 3, 1)), ("wv", (0, 2, 1, 3))))
    attn = T.softmax(T.matmul(q, k) * scale, axis=3)
    ctx = T.reshape(T.transpose(T.matmul(attn, v), (0, 2, 1, 3)), t.shape)
    t1 = T.add(t, T.matmul(ctx, params["wo"]))
    m_in = layer_norm(t1, params["ln2_scale"], params["ln2_shift"])
    hidden = T.relu(T.add(T.matmul(m_in, params["mlp_w1"]), params["mlp_b1"]))
    mlp = T.add(T.matmul(hidden, params["mlp_w2"]), params["mlp_b2"])
    return _unpatchify(T.add(t1, mlp), x.shape, patch)


# ---------------------------------------------------------------------------
# decoder


def make_decoder_params(rng, up_channels: int, skip_channels: int, out_channels: int) -> BlockParams:
    cin = up_channels + skip_channels
    p = BlockParams()
    kernel = _uniform(rng, (out_channels, cin, 3, 3), cin * 9).data  # one draw for the concat, split per part
    p.params["up_kernel"] = Tensor(kernel[:, :up_channels].copy(), requires_grad=True)
    p.params["skip_kernel"] = Tensor(kernel[:, up_channels:].copy(), requires_grad=True)
    # No conv bias: the group norm's per-channel shift takes its place.
    p.params["scale"] = _ones((out_channels,))
    p.params["shift"] = _zeros((out_channels,))
    return p


def decoder_block(x: Tensor, skip: Tensor, params: BlockParams) -> Tensor:
    """Upsample x2, concatenate the skip, then 3x3 conv + group norm + ReLU.

    The conv over the concatenation is the sum of a conv over each part, so
    each part has its own kernel. The x part runs as one sub-pixel
    ``upsample_conv2d`` node, four 2x2 parity kernels on x at low resolution,
    and neither the upsampled nor the concatenated tensor is built.
    """
    up_kernel, skip_kernel = params["up_kernel"], params["skip_kernel"]
    if x.data.ndim != 4 or skip.data.ndim != 4:
        raise ShapeError("decoder_block", x.shape, skip.shape, detail="NCHW tensors required")
    n, cu, h, w = x.shape
    if skip.shape[0] != n or skip.shape[2:] != (2 * h, 2 * w):
        raise ShapeError("decoder_block", x.shape, skip.shape, detail="skip extents must match upsampled input")
    if (cu, skip.shape[1]) != (up_kernel.shape[1], skip_kernel.shape[1]):
        raise ShapeError("decoder_block", x.shape, skip.shape, up_kernel.shape, skip_kernel.shape,
                         detail="x and skip channels must match up_kernel and skip_kernel")
    y = T.add(T.upsample_conv2d(x, up_kernel), T.conv2d(skip, skip_kernel, stride=1, padding=1))
    y = group_norm(y, params["scale"], params["shift"])
    return T.relu(y)

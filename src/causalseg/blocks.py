"""Network building blocks: downsampling branches, attention, decoder.

Every block is a pure function of (input, parameters). Parameters live in a
``BlockParams`` bag whose tensors all require gradients; builders seed them
from a numpy Generator so construction is reproducible.
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
        if self.lam <= 0.0:
            raise ConfigError(f"simam lam must be positive, got {self.lam}")


@dataclass
class BlockParams:
    """Named learnable tensors of one block plus its channel geometry."""

    in_channels: int
    out_channels: int
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


def group_norm(x: Tensor, scale: Tensor, shift: Tensor, groups: int) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError("group_norm", x.shape, detail="NCHW tensor required")
    return T.affine_norm(x, scale, shift, groups)


def layer_norm(tokens: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    if tokens.data.ndim != 2:
        raise ShapeError("layer_norm", tokens.shape, detail="(tokens, width) matrix required")
    return T.affine_norm(tokens, scale, shift, 1)


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a per-channel bias to an NCHW tensor."""
    return T.add(x, T.reshape(bias, (1, x.shape[1], 1, 1)))


# ---------------------------------------------------------------------------
# SimAM attention


def simam(x: Tensor, cfg: SimamConfig) -> Tensor:
    """Reweight activations by a sigmoid energy score; parameter-free.

    Per channel, each position's squared deviation from the channel mean is
    compared against the channel variance (divisor H*W-1):
        a = sigmoid(d / (4 * (v + lam)) + 0.5),  output = x * a
    Coefficients always lie strictly inside (0, 1).
    """
    if x.data.ndim != 4:
        raise ShapeError("simam", x.shape, detail="NCHW tensor required")
    n, c, h, w = x.shape
    hw = h * w
    if hw < 2:
        raise DegenerateInputError("simam: each channel needs at least 2 spatial positions")
    dev = T.sub(x, T.reshape(T.reduce_mean(x, (2, 3)), (n, c, 1, 1)))
    d = T.mul(dev, dev)
    v = T.reshape(T.reduce_sum(d, (2, 3)), (n, c, 1, 1)) / float(hw - 1)
    energy = T.div(d, (v + cfg.lam) * 4.0) + 0.5
    return T.mul(x, T.sigmoid(energy))


# ---------------------------------------------------------------------------
# convolutional branches


def make_cnn_down_params(rng, in_channels: int, out_channels: int) -> BlockParams:
    p = BlockParams(in_channels, out_channels, stride=2)
    fan = in_channels * 9
    p.params["kernel"] = _uniform(rng, (out_channels, in_channels, 3, 3), fan)
    p.params["bias"] = _uniform(rng, (out_channels,), fan)
    p.params["scale"] = _ones((out_channels,))
    p.params["shift"] = _zeros((out_channels,))
    return p


def cnn_down(x: Tensor, params: BlockParams) -> Tensor:
    """3x3 stride-2 convolution (pad 1) followed by group norm and ReLU."""
    n, c, h, w = x.shape
    if h < 2 or w < 2 or h % 2 or w % 2:
        raise ShapeError("cnn_down", x.shape, detail="spatial extents must be even and >= 2")
    y = T.conv2d(x, params["kernel"], stride=2, padding=1)
    y = add_bias(y, params["bias"])
    y = group_norm(y, params["scale"], params["shift"], norm_groups(params.out_channels))
    return T.relu(y)


def make_mbconv_params(rng, in_channels: int, out_channels: int, stride: int) -> BlockParams:
    hidden = MBCONV_EXPANSION * in_channels
    p = BlockParams(in_channels, out_channels, stride=stride)
    p.params["expand_kernel"] = _uniform(rng, (hidden, in_channels, 1, 1), in_channels)
    p.params["expand_scale"] = _ones((hidden,))
    p.params["expand_shift"] = _zeros((hidden,))
    p.params["dw_kernel"] = _uniform(rng, (hidden, 3, 3), 9)
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
    hidden = MBCONV_EXPANSION * params.in_channels
    if params["expand_kernel"].shape != (hidden, params.in_channels, 1, 1):
        raise ShapeError("mbconv", params["expand_kernel"].shape,
                         (hidden, params.in_channels, 1, 1), detail="expand kernel")
    y = T.conv2d(x, params["expand_kernel"])
    y = group_norm(y, params["expand_scale"], params["expand_shift"], norm_groups(hidden))
    y = T.relu(y)
    y = T.depthwise_conv2d(y, params["dw_kernel"], stride=stride, padding=1)
    y = group_norm(y, params["dw_scale"], params["dw_shift"], norm_groups(hidden))
    y = T.relu(y)
    y = T.conv2d(y, params["project_kernel"])
    y = group_norm(y, params["project_scale"], params["project_shift"], norm_groups(params.out_channels))
    if stride == 1 and params.in_channels == params.out_channels:
        y = T.add(y, x)
    return y


# ---------------------------------------------------------------------------
# token mixer


def make_transformer_params(rng, channels: int, image_extent: int, patch: int, heads: int) -> BlockParams:
    if image_extent % patch != 0:
        raise ConfigError(f"patch {patch} does not divide extent {image_extent}")
    width = channels * patch * patch
    if width % heads != 0:
        raise ConfigError(f"{heads} heads do not divide token width {width}")
    tokens = (image_extent // patch) ** 2
    p = BlockParams(channels, channels, stride=1)
    p.params["pos"] = _uniform(rng, (tokens, width), width)
    for name in ("wq", "wk", "wv", "wo"):
        p.params[name] = _uniform(rng, (width, width), width)
    # The token MLP's hidden layer is as wide as a token.
    p.params["mlp_w1"] = _uniform(rng, (width, width), width)
    p.params["mlp_b1"] = _uniform(rng, (width,), width)
    p.params["mlp_w2"] = _uniform(rng, (width, width), width)
    p.params["mlp_b2"] = _uniform(rng, (width,), width)
    p.params["ln1_scale"] = _ones((width,))
    p.params["ln1_shift"] = _zeros((width,))
    p.params["ln2_scale"] = _ones((width,))
    p.params["ln2_shift"] = _zeros((width,))
    return p


def _patchify(x: Tensor, patch: int) -> Tensor:
    """Space-to-depth: (N,C,H,W) -> (N, T, C*p*p) with no learned weights."""
    n, c, h, w = x.shape
    gh, gw = h // patch, w // patch
    y = T.reshape(x, (n, c, gh, patch, gw, patch))
    y = T.transpose(y, (0, 2, 4, 1, 3, 5))
    return T.reshape(y, (n, gh * gw, c * patch * patch))


def _unpatchify(tokens: Tensor, shape: tuple, patch: int) -> Tensor:
    n, c, h, w = shape
    gh, gw = h // patch, w // patch
    y = T.reshape(tokens, (n, gh, gw, c, patch, patch))
    y = T.transpose(y, (0, 3, 1, 4, 2, 5))
    return T.reshape(y, (n, c, h, w))


def _linear(tokens: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    y = T.matmul(tokens, weight)
    if bias is not None:
        y = T.add(y, T.reshape(bias, (1, bias.shape[0])))
    return y


def transformer_block(x: Tensor, params: BlockParams, patch: int, heads: int,
                      attn_out: list | None = None) -> Tensor:
    """One pre-norm encoder layer over non-overlapping patches.

    Patchify/unpatchify are pure reshapes, so with all projection weights at
    zero the block is the identity. Positional embeddings feed only the
    attention branch. When ``attn_out`` is given, the per-image, per-head
    softmax matrices are appended to it as numpy arrays.
    """
    n, c, h, w = x.shape
    if h % patch or w % patch:
        raise ShapeError("transformer_block", x.shape, detail=f"patch {patch} does not divide spatial extents")
    width = c * patch * patch
    if width % heads != 0:
        raise ShapeError("transformer_block", x.shape, detail=f"{heads} heads do not divide width {width}")
    dh = width // heads
    scale = 1.0 / float(np.sqrt(dh))

    tokens = _patchify(x, patch)  # (N, T, D)
    t_count = tokens.shape[1]
    t = T.reshape(tokens, (n * t_count, width))
    pos = T.reshape(params["pos"], (1, t_count, width))
    a_in = T.add(T.reshape(layer_norm(t, params["ln1_scale"], params["ln1_shift"]), tokens.shape), pos)
    # (N, T, D) -> (N, heads, T, dh); keys come out transposed, (N, heads, dh, T)
    q, k, v = (T.transpose(T.reshape(T.matmul(a_in, params[nm]), (n, t_count, heads, dh)), perm)
               for nm, perm in (("wq", (0, 2, 1, 3)), ("wk", (0, 2, 3, 1)), ("wv", (0, 2, 1, 3))))
    attn = T.softmax(T.matmul(q, k) * scale, axis=3)
    if attn_out is not None:
        attn_out.extend(attn.data.reshape(n * heads, t_count, t_count).copy())
    ctx = T.reshape(T.transpose(T.matmul(attn, v), (0, 2, 1, 3)), t.shape)
    t1 = T.add(t, _linear(ctx, params["wo"]))
    m_in = layer_norm(t1, params["ln2_scale"], params["ln2_shift"])
    mlp = _linear(T.relu(_linear(m_in, params["mlp_w1"], params["mlp_b1"])),
                  params["mlp_w2"], params["mlp_b2"])
    return _unpatchify(T.add(t1, mlp), x.shape, patch)


# ---------------------------------------------------------------------------
# decoder


def make_decoder_params(rng, up_channels: int, skip_channels: int, out_channels: int) -> BlockParams:
    cin = up_channels + skip_channels
    p = BlockParams(cin, out_channels, stride=1)
    fan = cin * 9
    p.params["kernel"] = _uniform(rng, (out_channels, cin, 3, 3), fan)
    p.params["bias"] = _uniform(rng, (out_channels,), fan)
    p.params["scale"] = _ones((out_channels,))
    p.params["shift"] = _zeros((out_channels,))
    return p


def decoder_block(x: Tensor, skip: Tensor, params: BlockParams) -> Tensor:
    """Upsample x2, concatenate the skip, then 3x3 conv + group norm + ReLU."""
    up = T.upsample_nearest2x(x)
    if up.shape[0] != skip.shape[0] or up.shape[2:] != skip.shape[2:]:
        raise ShapeError("decoder_block", up.shape, skip.shape, detail="skip extents must match upsampled input")
    y = T.concat([up, skip], axis=1)
    y = T.conv2d(y, params["kernel"], stride=1, padding=1)
    y = add_bias(y, params["bias"])
    y = group_norm(y, params["scale"], params["shift"], norm_groups(params.out_channels))
    return T.relu(y)

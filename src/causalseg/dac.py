"""Diversified aggregation: weighted branch concat, SimAM, fusion convolution.

Each encoder level owns one ``DacLayer``: two learned scalar branch weights
(both starting at exactly 1.0) and a 3x3 fusion kernel and bias. The kernel's
(out, in, 3, 3) shape maps the concatenated branch channels onto the level's
output width, at unchanged resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import SimamConfig, simam, _uniform
from .errors import ShapeError
from .tensor import Tensor


@dataclass
class DacLayer:
    k1: Tensor
    k2: Tensor
    kernel: Tensor
    bias: Tensor
    layer_index: int

    def tensors(self) -> dict[str, Tensor]:
        return {"k1": self.k1, "k2": self.k2, "kernel": self.kernel, "bias": self.bias}


def make_dac_layer(rng: np.random.Generator, c1: int, c2: int, out_channels: int,
                   layer_index: int) -> DacLayer:
    cin = c1 + c2
    return DacLayer(  # arguments run in order: the kernel is drawn before the bias
        k1=Tensor(np.array(1.0), requires_grad=True),
        k2=Tensor(np.array(1.0), requires_grad=True),
        kernel=_uniform(rng, (out_channels, cin, 3, 3), cin * 9),
        bias=_uniform(rng, (1, out_channels, 1, 1), cin * 9),  # as the fused NCHW map adds it
        layer_index=layer_index,
    )


def _check_branches(op: str, f1: Tensor, f2: Tensor) -> None:
    if f1.data.ndim != 4 or f2.data.ndim != 4:
        raise ShapeError(op, f1.shape, f2.shape, detail="NCHW tensors required")
    if f1.shape[0] != f2.shape[0] or f1.shape[2:] != f2.shape[2:]:
        raise ShapeError(op, f1.shape, f2.shape, detail="batch and spatial extents must match")


def concat_stage(f1: Tensor, f2: Tensor, k1: Tensor, k2: Tensor) -> Tensor:
    """Channel concat of the branch features scaled by their learned weights."""
    _check_branches("concat_stage", f1, f2)
    return T.concat([T.mul(f1, k1), T.mul(f2, k2)], axis=1)


def dac_fuse(f1: Tensor, f2: Tensor, layer: DacLayer, simam_cfg: SimamConfig) -> Tensor:
    """Fused level output: 3x3 conv (pad 1) over SimAM-reweighted scaled concat."""
    _check_branches("dac_fuse", f1, f2)
    if f1.shape[1] + f2.shape[1] != layer.kernel.shape[1]:
        raise ShapeError("dac_fuse", f1.shape, f2.shape, layer.kernel.shape, detail="channels must match the kernel's")
    stacked = concat_stage(f1, f2, layer.k1, layer.k2)
    attended = simam(stacked, simam_cfg)
    out = T.conv2d(attended, layer.kernel, stride=1, padding=1)
    return T.add(out, layer.bias)

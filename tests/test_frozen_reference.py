"""conv2d, affine_norm, simam and the loss terms against the frozen library copy in perfbench/reference.

The copy is the library the benchmark's ``step_vs_ref`` divides by: its conv
is an einsum over sliding windows with a strided scatter back, and its group
and layer norms are chains of reduce, expand and elementwise ops. It is
loaded read-only under another package name, so it never shadows
``causalseg``. Every shape is one that a benchmark workload passes to the op.
Forwards and every gradient must agree to 1e-12 of the largest value of each
array. Simam's and the loss terms', whose backwards repeat the copy's
arithmetic in order, must agree bit for bit: as numbers, so a zero may differ
in sign.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from causalseg import blocks as B
from causalseg import losses as L
from causalseg import tensor as T
from causalseg.tensor import Tape, Tensor, backward

FROZEN = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "causalseg"


@pytest.fixture(scope="module")
def frozen():
    """The frozen package as ``causalseg_frozen``, with its tensor, blocks and losses
    modules; no bytecode is written next to it."""
    spec = importlib.util.spec_from_file_location("causalseg_frozen", FROZEN / "__init__.py",
                                                  submodule_search_locations=[str(FROZEN)])
    package = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules["causalseg_frozen"] = package
    try:
        spec.loader.exec_module(package)
        for name in ("tensor", "blocks", "losses"):
            importlib.import_module(f"causalseg_frozen.{name}")
        yield package
    finally:
        sys.dont_write_bytecode = saved
        for name in [m for m in sys.modules if m == "causalseg_frozen" or m.startswith("causalseg_frozen.")]:
            del sys.modules[name]


# (input shape, kernel shape, stride, padding) of each conv2d call
CONVS = [
    ((8, 3, 64, 64), (8, 3, 3, 3), 2, 1), ((8, 3, 64, 64), (12, 3, 1, 1), 1, 0),
    ((8, 12, 64, 64), (12, 1, 3, 3), 2, 1), ((8, 12, 32, 32), (8, 12, 1, 1), 1, 0),
    ((8, 16, 32, 32), (8, 16, 3, 3), 1, 1), ((8, 8, 32, 32), (16, 8, 3, 3), 2, 1),
    ((8, 8, 32, 32), (32, 8, 1, 1), 1, 0), ((8, 32, 32, 32), (32, 1, 3, 3), 2, 1),
    ((8, 32, 16, 16), (16, 32, 1, 1), 1, 0), ((8, 32, 16, 16), (16, 32, 3, 3), 1, 1),
    ((8, 16, 16, 16), (32, 16, 3, 3), 1, 1), ((8, 8, 32, 32), (8, 8, 3, 3), 1, 1),
    ((8, 8, 32, 32), (32, 8, 3, 3), 1, 1), ((8, 3, 64, 64), (8, 3, 3, 3), 1, 1),
    ((8, 8, 64, 64), (2, 8, 1, 1), 1, 0),
]
# (input shape, groups) of each group norm, then the two layer norms
NORMS = [
    ((8, 8, 32, 32), 8), ((8, 12, 64, 64), 6), ((8, 12, 32, 32), 6), ((8, 8, 32, 32), 8),
    ((8, 16, 16, 16), 8), ((8, 32, 32, 32), 8), ((8, 32, 16, 16), 8), ((8, 16, 16, 16), 8),
    ((512, 64), 1), ((512, 64), 1), ((8, 8, 32, 32), 8), ((8, 8, 64, 64), 8),
]
# input shape of each simam call in the DAC layers of the three workloads
SIMAMS = [(8, 16, 32, 32), (8, 32, 16, 16), (8, 16, 16, 16), (8, 32, 8, 8), (32, 16, 16, 16), (32, 32, 8, 8)]
# (N, H, W) of the training batches: train_cim's and train_conv's
LOSS_SHAPES = [(8, 32, 32), (8, 64, 64)]
# each loss term, given the losses module of either library
LOSS_TERMS = {
    "ce": lambda lib, p, y: lib.ce_per_sample(p, y),
    "dice": lambda lib, p, y: lib.dice_loss(p, y, lib.LossConfig()),
    "focal-gamma2": lambda lib, p, y: lib.focal_loss(p, y, lib.LossConfig()),
    "focal-gamma0": lambda lib, p, y: lib.focal_loss(p, y, lib.LossConfig(gamma=0.0)),
}


def output_and_grads(lib, fn, arrays, cotangent):
    leaves = [lib.Tensor(a.copy(), requires_grad=True) for a in arrays]
    with lib.Tape() as tape:
        y = fn(*leaves)
        loss = lib.total_sum(lib.mul(y, lib.Tensor(cotangent)))
    grads = lib.backward(loss, tape)
    return [y.data] + [grads[t] for t in leaves]


def assert_close(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.max(np.abs(b)))


@pytest.mark.parametrize("x_shape,k_shape,stride,pad", CONVS)
def test_conv2d_matches_frozen(frozen, x_shape, k_shape, stride, pad):
    ref = frozen.tensor
    g = np.random.default_rng(51)
    x, kernel = g.normal(size=x_shape), g.normal(size=k_shape)
    ho = (x_shape[2] + 2 * pad - k_shape[2]) // stride + 1
    cotangent = g.normal(size=(x_shape[0], k_shape[0], ho, ho))
    got = output_and_grads(T, lambda a, b: T.conv2d(a, b, stride, pad), [x, kernel], cotangent)
    if k_shape[1] == 1 and x_shape[1] != 1:  # depthwise: the copy takes a (C, K, K) kernel
        want = output_and_grads(ref, lambda a, b: ref.depthwise_conv2d(a, b, stride, pad), [x, kernel[:, 0]], cotangent)
        want[2] = want[2][:, None]
    else:
        want = output_and_grads(ref, lambda a, b: ref.conv2d(a, b, stride, pad), [x, kernel], cotangent)
    assert_close(got, want)


@pytest.mark.parametrize("x_shape,groups", NORMS)
def test_affine_norm_matches_frozen(frozen, x_shape, groups):
    ref, ref_blocks = frozen.tensor, frozen.blocks
    g = np.random.default_rng(52)
    c = x_shape[1]
    arrays = [g.normal(size=x_shape) * 3.0 + 1.0, g.normal(size=c), g.normal(size=c)]
    cotangent = g.normal(size=x_shape)
    got = output_and_grads(T, lambda a, s, b: T.affine_norm(a, s, b, groups), arrays, cotangent)
    if len(x_shape) == 2:
        want = output_and_grads(ref, ref_blocks.layer_norm, arrays, cotangent)
    else:
        want = output_and_grads(ref, lambda a, s, b: ref_blocks.group_norm(a, s, b, groups), arrays, cotangent)
    assert_close(got, want)


@pytest.mark.parametrize("x_shape", SIMAMS)
def test_simam_matches_frozen_exactly(frozen, x_shape):
    ref, ref_blocks = frozen.tensor, frozen.blocks
    g = np.random.default_rng(53)
    x, cotangent = g.normal(size=x_shape) * 2.0, g.normal(size=x_shape)
    got = output_and_grads(T, lambda a: B.simam(a, B.SimamConfig()), [x], cotangent)
    want = output_and_grads(ref, lambda a: ref_blocks.simam(a, ref_blocks.SimamConfig()), [x], cotangent)
    for a, b in zip(got, want, strict=True):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("shape", LOSS_SHAPES)
@pytest.mark.parametrize("term", LOSS_TERMS)
def test_losses_match_frozen_exactly(frozen, term, shape):
    # Several draws: a sum that runs in another order rounds differently on only some of them.
    g, fn = np.random.default_rng(54), LOSS_TERMS[term]
    for _ in range(16):
        fg = g.uniform(size=shape)
        saturated = g.random(shape) < 0.1  # at exactly 0 or 1, outside the clamp
        fg[saturated] = g.integers(0, 2, size=np.count_nonzero(saturated))
        probs, target = np.stack([1.0 - fg, fg], axis=1), g.integers(0, 2, size=shape)
        cotangent = g.normal(size=shape[:1] if term == "ce" else ())
        got = output_and_grads(T, lambda p: fn(L, p, target), [probs], cotangent)
        want = output_and_grads(frozen.tensor, lambda p: fn(frozen.losses, p, target), [probs], cotangent)
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)


def test_frozen_copy_is_not_the_library(frozen):
    ref = frozen.tensor
    assert Path(ref.__file__).resolve().parent == FROZEN.resolve()
    assert ref.Tensor is not Tensor and ref.Tape is not Tape and ref.backward is not backward

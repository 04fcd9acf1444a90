"""Fast paths against the slow composites they replaced.

The oracles below are the earlier implementations: group and layer norm as
chains of reduce, reshape and broadcasting elementwise tape ops, the
transformer block as a loop over images and heads, the convolution over
sliding windows of a padded copy with a strided scatter back, and the
decoder as a nearest 2x upsample, a concat and a 3x3 conv. Forwards must
agree to 1e-12 relative. Gradients must agree to 1e-12 * max|g| over the
block's inputs and parameters: the gradient reaching a group norm's input
sums to 0 over each group, so entries near 0 are common and an entry-wise
relative bound means nothing there.
"""

import itertools

import numpy as np
import pytest

from causalseg import blocks as B
from causalseg import losses as L
from causalseg import tensor as T
from causalseg.errors import ShapeError
from causalseg.tensor import Tape, Tensor, backward
import composite as C
from gradcheck import grad_check


def rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# oracles


def oracle_group_norm(x, scale, shift, groups):
    n, c, h, w = x.shape
    xg = T.reshape(x, (n, groups, c // groups, h, w))
    mu = C.mean(xg, (2, 3, 4))
    centered = C.sub(xg, T.reshape(mu, (n, groups, 1, 1, 1)))
    var = C.mean(T.mul(centered, centered), (2, 3, 4))
    std = T.reshape(C.power(var + T.NORM_EPS, 0.5), (n, groups, 1, 1, 1))
    normed = T.reshape(C.div(centered, std), (n, c, h, w))
    return T.add(T.mul(normed, T.reshape(scale, (1, c, 1, 1))), T.reshape(shift, (1, c, 1, 1)))


def oracle_layer_norm(tokens, scale, shift):
    t, d = tokens.shape
    centered = C.sub(tokens, T.reshape(C.mean(tokens, (1,)), (t, 1)))
    var = C.mean(T.mul(centered, centered), (1,))
    normed = C.div(centered, T.reshape(C.power(var + T.NORM_EPS, 0.5), (t, 1)))
    return T.add(T.mul(normed, T.reshape(scale, (1, d))), T.reshape(shift, (1, d)))


def oracle_transformer_block(x, params, patch, heads):
    n, c, h, w = x.shape
    width = c * patch * patch
    dh = width // heads
    scale = 1.0 / float(np.sqrt(dh))
    tokens_all = B._patchify(x, patch)  # (N*T, D), image by image
    t_count = tokens_all.shape[0] // n
    pos = T.reshape(params["pos"], (t_count, width))
    outs = []
    for i in range(n):
        t = C.slice_axis(tokens_all, 0, i * t_count, (i + 1) * t_count)
        a_in = T.add(oracle_layer_norm(t, params["ln1_scale"], params["ln1_shift"]), pos)
        q = T.matmul(a_in, params["wq"])
        k = T.matmul(a_in, params["wk"])
        v = T.matmul(a_in, params["wv"])
        head_ctx = []
        for hd in range(heads):
            lo, hi = hd * dh, (hd + 1) * dh
            qh = C.slice_axis(q, 1, lo, hi)
            kh = C.slice_axis(k, 1, lo, hi)
            vh = C.slice_axis(v, 1, lo, hi)
            attn = T.softmax(T.matmul(qh, T.transpose(kh, (1, 0))) * scale, axis=1)
            head_ctx.append(T.matmul(attn, vh))
        t1 = T.add(t, T.matmul(T.concat(head_ctx, axis=1), params["wo"]))
        m_in = oracle_layer_norm(t1, params["ln2_scale"], params["ln2_shift"])
        hidden = T.relu(T.add(T.matmul(m_in, params["mlp_w1"]), params["mlp_b1"]))
        outs.append(T.add(t1, T.add(T.matmul(hidden, params["mlp_w2"]), params["mlp_b2"])))
    tokens_out = T.concat(outs, axis=0) if n > 1 else outs[0]
    return B._unpatchify(tokens_out, x.shape, patch)


def oracle_sliding_cols(x, k, stride, pad):
    """(N,C,H,W) -> windows (N, C, Ho, Wo, k, k)."""
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def oracle_col2im(gcols, xshape, k, stride, pad):
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


def oracle_conv2d_grads(x, kernel, g, stride, pad):
    n, c = x.shape[:2]
    o, _, k, _ = kernel.shape
    win = oracle_sliding_cols(x, k, stride, pad)
    ho, wo = win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n, ho * wo, c * k * k)
    wmat = kernel.reshape(o, c * k * k)
    g2 = g.reshape(n, o, ho * wo)
    gw = np.tensordot(g2, cols, axes=([0, 2], [0, 1])).reshape(kernel.shape)
    gcols = np.matmul(g2.transpose(0, 2, 1), wmat)
    gcols = gcols.reshape(n, ho, wo, c, k, k).transpose(0, 3, 1, 2, 4, 5)
    return oracle_col2im(gcols, x.shape, k, stride, pad), gw


def oracle_depthwise_grads(x, kernel, g, stride, pad):
    k = kernel.shape[1]
    win = oracle_sliding_cols(x, k, stride, pad)
    gk = np.einsum("nchw,nchwij->cij", g, win, optimize=True)
    gcols = g[:, :, :, :, None, None] * kernel[None, :, None, None, :, :]
    return oracle_col2im(gcols, x.shape, k, stride, pad), gk


def oracle_conv2d(x, kernel, stride, pad):
    return np.einsum("nchwij,ocij->nohw", oracle_sliding_cols(x, kernel.shape[2], stride, pad), kernel)


def oracle_depthwise(x, kernel, stride, pad):
    return np.einsum("nchwij,cij->nchw", oracle_sliding_cols(x, kernel.shape[1], stride, pad), kernel)


def upsample_nearest2x(x):
    """Double both spatial extents of an NCHW tensor by pixel replication."""
    n, c, h, w = x.shape
    out = Tensor(np.broadcast_to(x.data.reshape(n, c, h, 1, w, 1), (n, c, h, 2, w, 2)).reshape(n, c, 2 * h, 2 * w))
    return T._record(out, (x, lambda g: g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))))


def oracle_decoder_block(x, skip, params):
    y = T.concat([upsample_nearest2x(x), skip], axis=1)
    kernel = T.concat([params["up_kernel"], params["skip_kernel"]], axis=1)  # on the tape: both get gradients
    y = T.conv2d(y, kernel, stride=1, padding=1)
    y = B.group_norm(y, params["scale"], params["shift"])
    return T.relu(y)


# ---------------------------------------------------------------------------
# helpers


def fwd_bwd(fn, inputs, params=()):
    """Output and gradients (inputs first, then params) under a fixed random cotangent."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in inputs]
    with Tape() as tape:
        y = fn(*leaves)
        loss = T.total_sum(T.mul(y, Tensor(rng(99).normal(size=y.shape))))
    grads = backward(loss, tape)
    out = [grads[t] for t in [*leaves, *params]]
    for p in params:
        p.zero_grad()
    return y.data, out


def assert_same(fast, slow, y_atol=0.0):
    (y_fast, g_fast), (y_slow, g_slow) = fast, slow
    np.testing.assert_allclose(y_fast, y_slow, rtol=1e-12, atol=y_atol)
    atol = 1e-12 * max(np.max(np.abs(g)) for g in g_slow)
    assert len(g_fast) == len(g_slow)
    for a, b in zip(g_fast, g_slow):
        np.testing.assert_allclose(a, b, rtol=0, atol=atol)


# ---------------------------------------------------------------------------
# norms


class TestNorms:
    @pytest.mark.parametrize("shape,groups", [((2, 8, 4, 4), 4), ((3, 6, 5, 3), 3), ((1, 4, 2, 2), 1)])
    def test_group_norm_matches_composite(self, shape, groups):
        g = rng(1)
        x = g.normal(size=shape) * 3.0 + 1.0
        scale = Tensor(g.normal(size=shape[1]), requires_grad=True)
        shift = Tensor(g.normal(size=shape[1]), requires_grad=True)
        fast = fwd_bwd(lambda t: T.affine_norm(t, scale, shift, groups, op="group_norm"), [x], [scale, shift])
        slow = fwd_bwd(lambda t: oracle_group_norm(t, scale, shift, groups), [x], [scale, shift])
        assert_same(fast, slow)

    def test_layer_norm_matches_composite(self):
        g = rng(2)
        x = g.normal(size=(12, 16)) * 2.0 - 0.5
        scale = Tensor(g.normal(size=16), requires_grad=True)
        shift = Tensor(g.normal(size=16), requires_grad=True)
        fast = fwd_bwd(lambda t: B.layer_norm(t, scale, shift), [x], [scale, shift])
        slow = fwd_bwd(lambda t: oracle_layer_norm(t, scale, shift), [x], [scale, shift])
        assert_same(fast, slow)

    @pytest.mark.parametrize("block", ["cnn_down", "mbconv", "decoder_block"])
    def test_blocks_match_composite_norm(self, block, monkeypatch):
        g = rng(3)
        x = g.normal(size=(2, 4, 8, 8))
        if block == "cnn_down":
            p = B.make_cnn_down_params(rng(4), 4, 8)
            fn, inputs = (lambda t: B.cnn_down(t, p)), [x]
        elif block == "mbconv":
            p = B.make_mbconv_params(rng(5), 4, 4, 1)
            fn, inputs = (lambda t: B.mbconv(t, p, 1)), [x]
        else:
            p = B.make_decoder_params(rng(6), 4, 3, 8)
            skip = g.normal(size=(2, 3, 16, 16))
            fn, inputs = (lambda t, s: B.decoder_block(t, s, p)), [x, skip]
        params = list(p.tensors().values())
        fast = fwd_bwd(fn, inputs, params)
        monkeypatch.setattr(B, "group_norm", lambda y, s, b: oracle_group_norm(y, s, b, B.norm_groups(y.shape[1])))
        slow = fwd_bwd(fn, inputs, params)
        assert_same(fast, slow)


# ---------------------------------------------------------------------------
# attention


class TestTransformerBatched:
    @pytest.mark.parametrize("n,heads", [(1, 2), (3, 4)])
    def test_matches_per_image_per_head_loop(self, n, heads):
        p = B.make_transformer_params(rng(7), 4, 8, patch=2, heads=heads)
        x = rng(8).normal(size=(n, 4, 8, 8))
        params = list(p.tensors().values())
        fast = fwd_bwd(lambda t: B.transformer_block(t, p, 2, heads), [x], params)
        slow = fwd_bwd(lambda t: oracle_transformer_block(t, p, 2, heads), [x], params)
        assert_same(fast, slow)


# ---------------------------------------------------------------------------
# convolution


# Kernel size, stride and padding. The first six cases are the original
# grid; the rest cover k in {1, 3, 5}, stride in {1, 2} and pad in
# {0, 1, 2, k}, where pad = k puts whole windows in the padding. The
# einsum oracles sum in another order, so forwards are also allowed
# 1e-12 * max|y| absolute on outputs near 0.
CONV_CASES = [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0), (2, 2, 0), (3, 1, 0)]
CONV_CASES += [(k, s, p) for k, s in itertools.product((1, 3, 5), (1, 2)) for p in sorted({0, 1, 2, k})
               if (k, s, p) not in CONV_CASES]
EXTENTS = [(6, 6), (7, 5)]  # even and odd


class TestConvBackward:
    @pytest.mark.parametrize("k,stride,pad", CONV_CASES)
    def test_conv2d_matches_sliding_windows(self, k, stride, pad):
        g = rng(11)
        for (h, w), o in itertools.product(EXTENTS, (4, 1)):  # o = 1 takes the one-output-per-group branch
            x, kernel = g.normal(size=(2, 3, h, w)), g.normal(size=(o, 3, k, k))
            kt = Tensor(kernel, requires_grad=True)
            y, (gx, gw) = fwd_bwd(lambda t: T.conv2d(t, kt, stride, pad), [x], [kt])
            expected = oracle_conv2d(x, kernel, stride, pad)
            np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))
            ox, ow = oracle_conv2d_grads(x, kernel, rng(99).normal(size=y.shape), stride, pad)
            atol = 1e-12 * max(np.max(np.abs(ox)), np.max(np.abs(ow)))
            np.testing.assert_allclose(gx, ox, rtol=0, atol=atol)
            np.testing.assert_allclose(gw, ow, rtol=0, atol=atol)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_depthwise_matches_sliding_windows(self, stride):
        g = rng(12)
        for (h, w), k in itertools.product(EXTENTS, (1, 3, 5)):
            for pad in sorted({0, 1, 2, k}):
                x, kernel = g.normal(size=(2, 3, h, w)), g.normal(size=(3, k, k))
                kt = Tensor(kernel[:, None], requires_grad=True)
                y, (gx, gk) = fwd_bwd(lambda t: T.conv2d(t, kt, stride, pad), [x], [kt])
                expected = oracle_depthwise(x, kernel, stride, pad)
                np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))
                ox, ok = oracle_depthwise_grads(x, kernel, rng(99).normal(size=y.shape), stride, pad)
                atol = 1e-12 * max(np.max(np.abs(ox)), np.max(np.abs(ok)))
                np.testing.assert_allclose(gx, ox, rtol=0, atol=atol)
                np.testing.assert_allclose(gk, ok[:, None], rtol=0, atol=atol)

    # Backward computes no input gradient for a constant x. Each path has its
    # own input-gradient map: on gathered taps (depthwise, strided, or C < O
    # with K > 1, as in the 3 -> 4 conv and the sub-pixel conv's parity
    # kernels) it ends in ``_scatter``, the gather's adjoint; on the per-tap
    # path (dense C >= O at stride 1) it crops the padded plane's gradient and
    # calls no ``_scatter``.
    @pytest.mark.parametrize("op", ["conv2d", "depthwise", "dense", "dense-strided", "upsample_conv2d"])
    def test_constant_input_gets_no_gradient(self, op, monkeypatch):
        g = rng(13)
        kshape = {"depthwise": (3, 1, 3, 3), "dense": (2, 3, 3, 3), "dense-strided": (2, 3, 3, 3)}.get(op, (4, 3, 3, 3))
        x, kernel = g.normal(size=(2, 3, 4, 5)), g.normal(size=kshape)
        conv = {"conv2d": lambda t, k: T.conv2d(t, k, 1, 1), "depthwise": lambda t, k: T.conv2d(t, k, 2, 1),
                "dense": lambda t, k: T.conv2d(t, k, 1, 1), "dense-strided": lambda t, k: T.conv2d(t, k, 2, 1),
                "upsample_conv2d": T.upsample_conv2d}[op]
        maps, scatters, real_conv, real_scatter = [], [], T._conv2d, T._scatter

        def spied_conv(*a):  # counts calls of the input-gradient map that the path hands the tape
            y, prep, grad_x, grad_kernel = real_conv(*a)
            return y, prep, lambda gg: maps.append(op) or grad_x(gg), grad_kernel

        monkeypatch.setattr(T, "_conv2d", spied_conv)
        monkeypatch.setattr(T, "_scatter", lambda *a: scatters.append(a) or real_scatter(*a))
        kernel_grads = []
        for x_requires_grad in (True, False):
            xt, kt = Tensor(x, requires_grad=x_requires_grad), Tensor(kernel, requires_grad=True)
            with Tape() as tape:
                loss = T.total_sum(T.mul(conv(xt, kt), T.relu(conv(xt, kt))))
            grads = backward(loss, tape)
            assert (xt in grads) == x_requires_grad
            assert len(maps) == (2 if x_requires_grad else 0)
            assert len(scatters) == (0 if op == "dense" or not x_requires_grad else 2)
            maps.clear()
            scatters.clear()
            kernel_grads.append(grads[kt])
        np.testing.assert_array_equal(kernel_grads[1], kernel_grads[0])


# Both conv paths against the sliding-window oracles: strides 1-3, pads 0-2
# plus one wider than K // 2 for every K, even and odd extents, and each
# kind of kernel: dense with C < O and depthwise (gathered taps), and dense
# with C >= O (one GEMM per tap at stride 1, gathered taps above it).
SWEEP = [(k, s, p) for k, s in itertools.product((1, 3, 5), (1, 2, 3)) for p in sorted({0, 1, 2, k // 2 + 1})]
SWEEP_CHANNELS = [(2, 5), (5, 3), (4, 4), "depthwise"]  # (C, O)


class TestConvSweep:
    @pytest.mark.parametrize("k,stride,pad", SWEEP)
    def test_matches_oracles(self, k, stride, pad):
        g = rng(41)
        for (h, w), channels in itertools.product([(8, 8), (7, 9)], SWEEP_CHANNELS):
            depthwise = channels == "depthwise"
            c, o = (3, 3) if depthwise else channels
            x, kernel = g.normal(size=(2, c, h, w)), g.normal(size=(o, 1 if depthwise else c, k, k))
            kt = Tensor(kernel, requires_grad=True)
            y, (gx, gk) = fwd_bwd(lambda t: T.conv2d(t, kt, stride, pad), [x], [kt])
            cotangent = rng(99).normal(size=y.shape)
            if depthwise:
                expected = [oracle_depthwise(x, kernel[:, 0], stride, pad)]
                ox, ok = oracle_depthwise_grads(x, kernel[:, 0], cotangent, stride, pad)
                expected += [ox, ok[:, None]]
            else:
                expected = [oracle_conv2d(x, kernel, stride, pad), *oracle_conv2d_grads(x, kernel, cotangent, stride, pad)]
            for got, want in zip((y, gx, gk), expected):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    # Metamorphic: at stride 1 with symmetric padding a cross-correlation
    # commutes with a horizontal flip, and with a 90 degree rotation of a
    # square input, once the kernel is flipped or rotated the same way.
    @pytest.mark.parametrize("channels", SWEEP_CHANNELS[:2] + ["depthwise"])
    @pytest.mark.parametrize("k,pad", [(3, 1), (3, 0), (5, 2), (1, 1)])
    def test_flip_and_rotation_equivariant(self, channels, k, pad):
        g = rng(42)
        depthwise = channels == "depthwise"
        c, o = (4, 4) if depthwise else channels
        x, kernel = g.normal(size=(2, c, 7, 7)), g.normal(size=(o, 1 if depthwise else c, k, k))
        y = T.conv2d(Tensor(x), Tensor(kernel), 1, pad).data
        for move in (lambda a: np.flip(a, 3), lambda a: np.rot90(a, 1, axes=(2, 3))):
            moved = T.conv2d(Tensor(move(x).copy()), Tensor(move(kernel).copy()), 1, pad).data
            np.testing.assert_allclose(moved, move(y), rtol=0, atol=1e-12 * np.max(np.abs(y)))


# The 15 convs of a train_conv step (64x64, batch 8): x's shape, the kernel's,
# stride and padding.
MODEL_CONVS = [
    ((8, 3, 64, 64), (8, 3, 3, 3), 2, 1), ((8, 3, 64, 64), (12, 3, 1, 1), 1, 0),
    ((8, 12, 64, 64), (12, 1, 3, 3), 2, 1), ((8, 12, 32, 32), (8, 12, 1, 1), 1, 0),
    ((8, 16, 32, 32), (8, 16, 3, 3), 1, 1), ((8, 8, 32, 32), (16, 8, 3, 3), 2, 1),
    ((8, 8, 32, 32), (32, 8, 1, 1), 1, 0), ((8, 32, 32, 32), (32, 1, 3, 3), 2, 1),
    ((8, 32, 16, 16), (16, 32, 1, 1), 1, 0), ((8, 32, 16, 16), (16, 32, 3, 3), 1, 1),
    ((8, 16, 16, 16), (32, 16, 2, 2), 1, 1), ((8, 8, 32, 32), (8, 8, 3, 3), 1, 1),
    ((8, 8, 32, 32), (32, 8, 2, 2), 1, 1), ((8, 3, 64, 64), (8, 3, 3, 3), 1, 1),
    ((8, 8, 64, 64), (2, 8, 1, 1), 1, 0),
]


def padded_taps(x, k, stride, pad, ho, wo):
    """Each tap's Ho x Wo windows, oracle for ``T._gather``: strided slices of
    x zero-padded by ``pad`` and wide enough that every window fits."""
    far = stride * max(ho, wo) + k  # zeros past the bottom and right edges
    big = np.pad(x, ((0, 0), (0, 0), (pad, far), (pad, far)))
    taps = [big[:, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] for ki, kj in np.ndindex(k, k)]
    return np.stack(taps, axis=2)


def padded_plane(x, k, pad):
    """The per-tap path's plane, oracle for ``T._plane``: x zero-padded by
    ``pad`` and flattened per channel, then K - 1 zeros."""
    n, c = x.shape[:2]
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))).reshape(n, c, -1)
    return np.concatenate([padded, np.zeros((n, c, k - 1))], axis=2)


class TestGatherScatter:
    @pytest.mark.parametrize("k,stride,pad", SWEEP)
    def test_scatter_is_the_gathers_adjoint(self, k, stride, pad):
        # <gather(x), G> = <x, scatter(G)> for every x and G: scatter is the
        # gather's transpose, so it is x's exact gradient for any kernel. At
        # stride 1, the per-tap path's plane is padded x, bit for bit.
        g = rng(43)
        for h, w in [(8, 8), (7, 9)]:
            ho, wo = T._conv_out_extent(h, k, stride, pad), T._conv_out_extent(w, k, stride, pad)
            x, cols = g.normal(size=(2, 3, h, w)), g.normal(size=(2, 3, k * k, ho, wo))
            gathered, scattered = T._gather(x, k, stride, pad, ho, wo), T._scatter(cols, x.shape, k, stride, pad)
            assert gathered.shape == cols.shape and scattered.shape == x.shape
            np.testing.assert_allclose(np.vdot(gathered, cols), np.vdot(x, scattered), rtol=1e-12, atol=0)
            if stride == 1:
                np.testing.assert_array_equal(T._plane(x, k, pad), padded_plane(x, k, pad))

    # At the model's convs, bit for bit: the gather against the padded-slice
    # oracle, and each conv's output against GEMMs on the oracle's taps: the
    # gathered convs' GEMM per group of channels, and the per-tap convs' GEMM
    # per tap on views of the padded plane.
    @pytest.mark.parametrize("xshape,kshape,stride,pad", MODEL_CONVS)
    def test_gathered_forward_matches_planes(self, xshape, kshape, stride, pad):
        g = rng(44)
        x, kernel = g.normal(size=xshape), g.normal(size=kshape)
        (n, c, h, w), (o, ck, k, _) = xshape, kshape
        ho, wo = T._conv_out_extent(h, k, stride, pad), T._conv_out_extent(w, k, stride, pad)
        cols = padded_taps(x, k, stride, pad, ho, wo)
        np.testing.assert_array_equal(T._gather(x, k, stride, pad, ho, wo), cols)
        y_now = T.conv2d(Tensor(x), Tensor(kernel), stride, pad).data
        if ck == 1 or stride > 1 or (c < o and k > 1):  # gathered taps: GEMMs on the oracle's taps
            groups = c // ck
            y = kernel.reshape(groups, o // groups, ck * k * k) @ cols.reshape(n, groups, ck * k * k, ho * wo)
            np.testing.assert_array_equal(y_now, y.reshape(n, o, ho, wo))
            return
        wq, plane = w + 2 * pad, padded_plane(x, k, pad)
        np.testing.assert_array_equal(T._plane(x, k, pad), plane)
        y = sum(kernel[:, :, ki, kj] @ plane[..., ki * wq + kj:ki * wq + kj + ho * wq] for ki, kj in np.ndindex(k, k))
        np.testing.assert_array_equal(y_now, y.reshape(n, o, ho, wq)[..., :wo])

    # Which path each conv takes: the gathered path's forward gathers its
    # taps once, and the per-tap path's gathers nothing. The model's
    # depthwise and strided convs and its dense convs with C < O and K > 1
    # are gathered, and so is a strided dense conv with C >= O, which no
    # model conv is.
    @pytest.mark.parametrize("index", range(len(MODEL_CONVS) + 1))
    def test_each_conv_takes_its_path(self, index, monkeypatch):
        xshape, kshape, stride, pad = (MODEL_CONVS + [((8, 16, 32, 32), (8, 16, 3, 3), 2, 1)])[index]
        gathered = index in (0, 2, 5, 7, 10, 12, 13, 15)
        calls, real_gather = [], T._gather
        monkeypatch.setattr(T, "_gather", lambda *a: calls.append(a) or real_gather(*a))
        g = rng(45)
        T.conv2d(Tensor(g.normal(size=(1,) + xshape[1:])), Tensor(g.normal(size=kshape)), stride, pad)
        assert len(calls) == (1 if gathered else 0)


class TestConstantEdges:
    def test_no_edge_runs_for_a_constant_input(self, monkeypatch):
        """The decoder and the three losses under one tape: every gradient
        function handed to the tape for a constant input (the skip input) is
        swapped for one that raises. The tape records no edge that names a
        constant, and backward neither calls one nor changes a gradient."""

        def constant_edge(g):
            raise AssertionError("gradient computed for a constant input")

        constants = []
        record = T._record

        def guarded(out, *edges, **prep):
            constants.extend(t for t, _ in edges if not t.requires_grad)
            return record(out, *((t, fn if t.requires_grad else constant_edge) for t, fn in edges), **prep)

        def run():
            g = rng(21)
            x = Tensor(g.normal(size=(2, 8, 4, 4)), requires_grad=True)
            skip = Tensor(g.normal(size=(2, 4, 8, 8)))
            target = g.integers(0, 2, size=(2, 8, 8))
            p = B.make_decoder_params(rng(22), 8, 4, 2)
            cfg = L.LossConfig()
            with Tape() as tape:
                probs = T.softmax(B.decoder_block(x, skip, p), axis=1)
                loss = L.total_loss(T.total_mean(L.ce_per_sample(probs, target)), L.dice_loss(probs, target, cfg),
                                    L.focal_loss(probs, target, cfg), cfg)
            leaves = [t for node in tape._nodes for t, _ in node.edges if isinstance(t, Tensor)]
            assert all(t.requires_grad for t in leaves)
            assert {id(t) for t in leaves} == {id(t) for t in (x, *p.tensors().values())}
            grads = backward(loss, tape)
            assert skip not in grads
            return skip, [grads[t] for t in (x, *p.tensors().values())]

        _, plain = run()
        monkeypatch.setattr(T, "_record", guarded)
        skip, patched = run()
        assert not any(t.data is T._PARITY_FOLD for t in constants)  # the fold never reaches the tape
        assert any(t is skip for t in constants)
        for a, b in zip(patched, plain):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# sub-pixel decoder


class TestSubPixelDecoder:
    def test_upsample_nearest(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = upsample_nearest2x(x)
        expected = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=float)
        np.testing.assert_array_equal(out.data[0, 0], expected)

    def test_upsample_grad(self):
        g = rng(7)
        x = Tensor(g.normal(size=(2, 3, 2, 3)))
        weight = Tensor(g.normal(size=(2, 3, 4, 6)))
        assert grad_check(lambda t: T.total_sum(T.mul(upsample_nearest2x(t), weight)), x) < 1e-8

    @pytest.mark.parametrize("n,c", [(1, 1), (1, 4), (3, 1), (3, 4)])
    @pytest.mark.parametrize("h,w", [(3, 3), (4, 4), (2, 5), (5, 4), (1, 1), (1, 5), (4, 1)])
    def test_matches_upsample_then_conv(self, n, c, h, w):
        g = rng(14)
        x = g.normal(size=(n, c, h, w))
        kt = Tensor(g.normal(size=(3, c, 3, 3)), requires_grad=True)
        fast = fwd_bwd(lambda t: T.upsample_conv2d(t, kt), [x], [kt])
        slow = fwd_bwd(lambda t: T.conv2d(upsample_nearest2x(t), kt, 1, 1), [x], [kt])
        assert fast[0].shape == (n, 3, 2 * h, 2 * w)
        # The parity kernels sum the taps in another order than the conv of
        # the upsample, so the forward bound is relative to the largest output.
        assert_same(fast, slow, y_atol=1e-12 * np.max(np.abs(slow[0])))

    @pytest.mark.parametrize("x_requires_grad", [True, False])
    def test_one_node(self, x_requires_grad):
        g = rng(23)
        x = Tensor(g.normal(size=(2, 3, 4, 5)), requires_grad=x_requires_grad)
        with Tape() as tape:
            T.upsample_conv2d(x, Tensor(g.normal(size=(4, 3, 3, 3)), requires_grad=True))
        assert len(tape) == 1

    @pytest.mark.parametrize("up,skip_c,out", [(16, 8, 8), (8, 3, 8)])
    def test_decoder_matches_composite(self, up, skip_c, out):
        g = rng(15)
        x, skip = g.normal(size=(2, up, 4, 4)), g.normal(size=(2, skip_c, 8, 8))
        p = B.make_decoder_params(rng(16), up, skip_c, out)
        params = list(p.tensors().values())
        fast = fwd_bwd(lambda t, s: B.decoder_block(t, s, p), [x, skip], params)
        slow = fwd_bwd(lambda t, s: oracle_decoder_block(t, s, p), [x, skip], params)
        # The conv sums in another order here, and the group norm's centring
        # turns that rounding into a large relative error on outputs near 0,
        # so the forward bound is relative to the largest output.
        assert_same(fast, slow, y_atol=1e-12 * np.max(np.abs(slow[0])))

    def test_grad_check(self):
        g = rng(17)
        x, kernel = g.normal(size=(2, 3, 3, 4)), g.normal(size=(2, 3, 3, 3))
        weight = Tensor(g.normal(size=(2, 2, 6, 8)))
        assert grad_check(lambda t: T.total_sum(T.mul(T.upsample_conv2d(t, Tensor(kernel)), weight)),
                          Tensor(x)) < 1e-8
        assert grad_check(lambda t: T.total_sum(T.mul(T.upsample_conv2d(Tensor(x), t), weight)),
                          Tensor(kernel)) < 1e-8

    @pytest.mark.parametrize("x_shape,k_shape", [
        ((1, 3, 4, 4), (2, 3, 5, 5)),   # not 3x3
        ((1, 3, 4, 4), (2, 3, 1, 1)),
        ((1, 3, 4, 4), (2, 4, 3, 3)),   # channel mismatch
        ((3, 4, 4), (2, 3, 3, 3)),      # not NCHW
        ((1, 3, 4, 4), (3, 3, 3)),
    ])
    def test_shape_errors(self, x_shape, k_shape):
        with pytest.raises(ShapeError) as err:
            T.upsample_conv2d(Tensor(np.zeros(x_shape)), Tensor(np.zeros(k_shape)))
        assert err.value.op == "upsample_conv2d"

    # Metamorphic: a nearest 2x upsample and a pad-1 3x3 conv both commute
    # with a flip of H or W once the kernel is flipped too, and so do the
    # group norm and ReLU of the decoder.
    @pytest.mark.parametrize("axis", [2, 3])
    def test_flip_equivariant(self, axis):
        g = rng(18)
        x, kernel = g.normal(size=(2, 3, 4, 5)), g.normal(size=(4, 3, 3, 3))
        y = T.upsample_conv2d(Tensor(x), Tensor(kernel)).data
        y_flipped = T.upsample_conv2d(Tensor(np.flip(x, axis)), Tensor(np.flip(kernel, axis))).data
        np.testing.assert_allclose(y_flipped, np.flip(y, axis), rtol=1e-12, atol=1e-12 * np.max(np.abs(y)))

    @pytest.mark.parametrize("axis", [2, 3])
    def test_decoder_flip_equivariant(self, axis):
        g = rng(19)
        x, skip = g.normal(size=(2, 8, 4, 5)), g.normal(size=(2, 4, 8, 10))
        p = B.make_decoder_params(rng(20), 8, 4, 8)
        y = B.decoder_block(Tensor(x), Tensor(skip), p).data
        for name in ("up_kernel", "skip_kernel"):
            p.params[name] = Tensor(np.flip(p[name].data, axis))
        y_flipped = B.decoder_block(Tensor(np.flip(x, axis)), Tensor(np.flip(skip, axis)), p).data
        np.testing.assert_allclose(y_flipped, np.flip(y, axis), rtol=1e-12, atol=1e-12 * np.max(np.abs(y)))

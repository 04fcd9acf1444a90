"""Fast paths against the slow composites they replaced.

The oracles below are the earlier implementations: group and layer norm as
chains of reduce, reshape and broadcasting elementwise tape ops, the
transformer block as a loop over images and heads, and the convolution
backward over sliding windows with a strided scatter. Forwards must agree to 1e-12 relative. Gradients must agree to
1e-12 * max|g| over the block's inputs and parameters: a bias that feeds a
per-channel group norm has an analytic gradient of 0, so an entry-wise
relative bound means nothing there.
"""

import numpy as np
import pytest

from causalseg import blocks as B
from causalseg import tensor as T
from causalseg.tensor import Tape, Tensor, backward


def rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# oracles


def oracle_group_norm(x, scale, shift, groups):
    n, c, h, w = x.shape
    xg = T.reshape(x, (n, groups, c // groups, h, w))
    mu = T.reduce_mean(xg, (2, 3, 4))
    centered = T.sub(xg, T.reshape(mu, (n, groups, 1, 1, 1)))
    var = T.reduce_mean(T.mul(centered, centered), (2, 3, 4))
    std = T.reshape(T.power(var + T.NORM_EPS, 0.5), (n, groups, 1, 1, 1))
    normed = T.reshape(T.div(centered, std), (n, c, h, w))
    return T.add(T.mul(normed, T.reshape(scale, (1, c, 1, 1))), T.reshape(shift, (1, c, 1, 1)))


def oracle_layer_norm(tokens, scale, shift):
    t, d = tokens.shape
    centered = T.sub(tokens, T.reshape(T.reduce_mean(tokens, (1,)), (t, 1)))
    var = T.reduce_mean(T.mul(centered, centered), (1,))
    normed = T.div(centered, T.reshape(T.power(var + T.NORM_EPS, 0.5), (t, 1)))
    return T.add(T.mul(normed, T.reshape(scale, (1, d))), T.reshape(shift, (1, d)))


def oracle_transformer_block(x, params, patch, heads, attn_out=None):
    n, c, h, w = x.shape
    width = c * patch * patch
    dh = width // heads
    scale = 1.0 / float(np.sqrt(dh))
    tokens_all = B._patchify(x, patch)
    t_count = tokens_all.shape[1]
    outs = []
    for i in range(n):
        t = T.reshape(T.slice_axis(tokens_all, 0, i, i + 1), (t_count, width))
        a_in = T.add(oracle_layer_norm(t, params["ln1_scale"], params["ln1_shift"]), params["pos"])
        q = B._linear(a_in, params["wq"])
        k = B._linear(a_in, params["wk"])
        v = B._linear(a_in, params["wv"])
        head_ctx = []
        for hd in range(heads):
            lo, hi = hd * dh, (hd + 1) * dh
            qh = T.slice_axis(q, 1, lo, hi)
            kh = T.slice_axis(k, 1, lo, hi)
            vh = T.slice_axis(v, 1, lo, hi)
            attn = T.softmax(T.matmul(qh, T.transpose(kh, (1, 0))) * scale, axis=1)
            if attn_out is not None:
                attn_out.append(attn.data.copy())
            head_ctx.append(T.matmul(attn, vh))
        t1 = T.add(t, B._linear(T.concat(head_ctx, axis=1), params["wo"]))
        m_in = oracle_layer_norm(t1, params["ln2_scale"], params["ln2_shift"])
        mlp = B._linear(T.relu(B._linear(m_in, params["mlp_w1"], params["mlp_b1"])),
                        params["mlp_w2"], params["mlp_b2"])
        outs.append(T.reshape(T.add(t1, mlp), (1, t_count, width)))
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


def assert_same(fast, slow):
    (y_fast, g_fast), (y_slow, g_slow) = fast, slow
    np.testing.assert_allclose(y_fast, y_slow, rtol=1e-12, atol=0)
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
        fast = fwd_bwd(lambda t: B.group_norm(t, scale, shift, groups), [x], [scale, shift])
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
        monkeypatch.setattr(B, "group_norm", oracle_group_norm)
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

    def test_attn_out_image_major_head_minor(self):
        p = B.make_transformer_params(rng(9), 4, 8, patch=2, heads=4)
        x = Tensor(rng(10).normal(size=(3, 4, 8, 8)))
        fast, slow = [], []
        B.transformer_block(x, p, 2, 4, attn_out=fast)
        oracle_transformer_block(x, p, 2, 4, attn_out=slow)
        assert len(fast) == len(slow) == 12
        for a, b in zip(fast, slow):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# convolution


class TestConvBackward:
    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0), (2, 2, 0), (3, 1, 0)])
    def test_conv2d_matches_sliding_windows(self, k, stride, pad):
        g = rng(11)
        x, kernel = g.normal(size=(2, 3, 6, 6)), g.normal(size=(4, 3, k, k))
        kt = Tensor(kernel, requires_grad=True)
        y, (gx, gw) = fwd_bwd(lambda t: T.conv2d(t, kt, stride, pad), [x], [kt])
        ox, ow = oracle_conv2d_grads(x, kernel, rng(99).normal(size=y.shape), stride, pad)
        atol = 1e-12 * max(np.max(np.abs(ox)), np.max(np.abs(ow)))
        np.testing.assert_allclose(gx, ox, rtol=0, atol=atol)
        np.testing.assert_allclose(gw, ow, rtol=0, atol=atol)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_depthwise_matches_sliding_windows(self, stride):
        g = rng(12)
        x, kernel = g.normal(size=(2, 3, 6, 6)), g.normal(size=(3, 3, 3))
        kt = Tensor(kernel, requires_grad=True)
        y, (gx, gk) = fwd_bwd(lambda t: T.depthwise_conv2d(t, kt, stride, 1), [x], [kt])
        ox, ok = oracle_depthwise_grads(x, kernel, rng(99).normal(size=y.shape), stride, 1)
        atol = 1e-12 * max(np.max(np.abs(ox)), np.max(np.abs(ok)))
        np.testing.assert_allclose(gx, ox, rtol=0, atol=atol)
        np.testing.assert_allclose(gk, ok, rtol=0, atol=atol)

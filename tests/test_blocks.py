import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalseg import blocks as B
from causalseg import tensor as T
from causalseg.errors import DegenerateInputError, ShapeError
from causalseg.blocks import BlockParams, SimamConfig
from causalseg.tensor import Tensor, grad_check


def rng(seed=0):
    return np.random.default_rng(seed)


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


class TestSimam:
    def test_constant_channel(self):
        c = 3.7
        x = Tensor(np.full((1, 2, 3, 3), c))
        out = B.simam(x, SimamConfig())
        np.testing.assert_allclose(out.data, sigmoid(0.5) * c, rtol=1e-12)
        assert sigmoid(0.5) == pytest.approx(0.622459, abs=1e-6)

    def test_hot_pixel_energy_oracle(self):
        lam = 1e-4
        vals = np.array([10.0, 0.0, 0.0, 0.0])
        x = Tensor(vals.reshape(1, 1, 2, 2))
        out = B.simam(x, SimamConfig(lam=lam)).data.reshape(-1)
        # direct evaluation of the energy formula
        mu = vals.mean()
        d = (vals - mu) ** 2
        v = d.sum() / 3.0
        a = sigmoid(d / (4 * (v + lam)) + 0.5)
        np.testing.assert_allclose(out, vals * a, rtol=1e-12)
        assert a[0] > a[1:].max()

    def test_shape_preserved(self):
        x = Tensor(rng(1).normal(size=(2, 8, 16, 16)))
        assert B.simam(x, SimamConfig()).shape == (2, 8, 16, 16)

    def test_coefficients_strictly_inside_unit_interval(self):
        x = Tensor(rng(2).normal(size=(2, 3, 5, 5)) * 10)
        out = B.simam(x, SimamConfig())
        coeff = np.where(x.data != 0, out.data / x.data, np.nan)
        finite = coeff[np.isfinite(coeff)]
        assert np.all(finite > 0.0) and np.all(finite < 1.0)

    def test_scaling_keeps_argmax(self):
        vals = rng(3).normal(size=(1, 1, 4, 4))
        for alpha in (0.5, 3.0, 17.0):
            a = B.simam(Tensor(vals), SimamConfig())
            b = B.simam(Tensor(alpha * vals), SimamConfig())
            ca = a.data / vals
            cb = b.data / (alpha * vals)
            assert np.argmax(ca) == np.argmax(cb)

    def test_degenerate_channel(self):
        with pytest.raises(DegenerateInputError):
            B.simam(Tensor(np.ones((1, 2, 1, 1))), SimamConfig())

    def test_grad_check(self):
        x = Tensor(rng(4).normal(size=(1, 2, 3, 3)))
        assert grad_check(lambda t: T.total_sum(B.simam(t, SimamConfig())), x) < 1e-4


class TestGroupNorm:
    def test_norm_groups_divides(self):
        assert B.norm_groups(16) == 8
        assert B.norm_groups(12) == 6
        assert B.norm_groups(3) == 3
        assert B.norm_groups(7) == 7

    def test_zero_variance_is_safe(self):
        x = Tensor(np.full((1, 4, 2, 2), 5.0))
        out = B.group_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), 2)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_norms_record_one_node(self):
        x = Tensor(rng(6).normal(size=(2, 8, 4, 4)), requires_grad=True)
        with T.Tape() as tape:
            B.group_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)), 4)
        assert len(tape) == 1
        tokens = Tensor(rng(7).normal(size=(5, 8)), requires_grad=True)
        with T.Tape() as tape:
            B.layer_norm(tokens, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert len(tape) == 1

    def test_normalizes_per_group(self):
        x = Tensor(rng(5).normal(size=(2, 8, 4, 4)))
        out = B.group_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)), 4).data
        grouped = out.reshape(2, 4, 2, 4, 4)
        np.testing.assert_allclose(grouped.mean(axis=(2, 3, 4)), 0.0, atol=1e-9)


class TestCnnDown:
    def test_shape(self):
        p = B.make_cnn_down_params(rng(6), 3, 16)
        out = B.cnn_down(Tensor(rng(7).normal(size=(1, 3, 64, 64))), p)
        assert out.shape == (1, 16, 32, 32)

    def test_zero_input_finite(self):
        p = B.make_cnn_down_params(rng(8), 2, 4)
        out = B.cnn_down(Tensor(np.zeros((1, 2, 8, 8))), p)
        assert np.all(np.isfinite(out.data))

    def test_odd_extent_rejected(self):
        p = B.make_cnn_down_params(rng(9), 2, 4)
        with pytest.raises(ShapeError):
            B.cnn_down(Tensor(np.zeros((1, 2, 7, 8))), p)

    def test_grad_check(self):
        p = B.make_cnn_down_params(rng(10), 2, 4)
        x = Tensor(rng(11).normal(size=(1, 2, 4, 4)))
        assert grad_check(lambda t: T.total_sum(T.mul(B.cnn_down(t, p), B.cnn_down(t, p))), x) < 1e-4


class TestMbconv:
    def test_stride2_shape(self):
        p = B.make_mbconv_params(rng(12), 8, 16, stride=2)
        out = B.mbconv(Tensor(rng(13).normal(size=(1, 8, 32, 32))), p, stride=2)
        assert out.shape == (1, 16, 16, 16)

    def test_zero_weights_pass_identity(self):
        p = B.make_mbconv_params(rng(14), 4, 4, stride=1)
        for t in p.tensors().values():
            t.data[...] = 0.0
        x = Tensor(rng(15).normal(size=(1, 4, 6, 6)))
        out = B.mbconv(x, p, stride=1)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_no_residual_when_channels_change(self):
        p = B.make_mbconv_params(rng(16), 4, 6, stride=1)
        for t in p.tensors().values():
            t.data[...] = 0.0
        out = B.mbconv(Tensor(rng(17).normal(size=(1, 4, 6, 6))), p, stride=1)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_gradient_reaches_every_parameter(self):
        p = B.make_mbconv_params(rng(18), 2, 2, stride=1)
        x = Tensor(rng(19).normal(size=(1, 2, 4, 4)))
        for name, param in p.tensors().items():
            err = grad_check(lambda t, nm=name: T.total_sum(
                B.mbconv(x, _swap(p, nm, t), stride=1)), param)
            assert err < 1e-4, name


def _swap(params: BlockParams, name: str, replacement: Tensor) -> BlockParams:
    clone = BlockParams(params.in_channels, params.out_channels, params.stride,
                        dict(params.tensors()))
    clone.params[name] = replacement
    return clone


class TestTransformer:
    def test_shape_roundtrip(self):
        p = B.make_transformer_params(rng(20), 16, 32, patch=4, heads=2)
        x = Tensor(rng(21).normal(size=(1, 16, 32, 32)))
        assert B.transformer_block(x, p, patch=4, heads=2).shape == (1, 16, 32, 32)

    def test_attention_rows_stochastic(self):
        p = B.make_transformer_params(rng(22), 4, 8, patch=2, heads=2)
        x = Tensor(rng(23).normal(size=(2, 4, 8, 8)))
        mats = []
        B.transformer_block(x, p, patch=2, heads=2, attn_out=mats)
        assert len(mats) == 4  # 2 images x 2 heads
        for m in mats:
            np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_attention_mlp_weights_identity(self):
        p = B.make_transformer_params(rng(24), 4, 8, patch=2, heads=2)
        for name in ("wq", "wk", "wv", "wo", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"):
            p.params[name].data[...] = 0.0
        x = Tensor(rng(25).normal(size=(1, 4, 8, 8)))
        out = B.transformer_block(x, p, patch=2, heads=2)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_node_count_independent_of_batch(self):
        p = B.make_transformer_params(rng(38), 4, 8, patch=2, heads=2)
        counts = {}
        for n in (1, 2, 4):
            x = Tensor(rng(39).normal(size=(n, 4, 8, 8)), requires_grad=True)
            with T.Tape() as tape:
                B.transformer_block(x, p, patch=2, heads=2)
            counts[n] = len(tape)
        assert counts[1] == counts[2] == counts[4]
        assert counts[4] < 50

    def test_indivisible_patch_rejected(self):
        p = B.make_transformer_params(rng(26), 4, 8, patch=2, heads=2)
        with pytest.raises(ShapeError):
            B.transformer_block(Tensor(np.zeros((1, 4, 6, 6))), p, patch=4, heads=2)

    def test_grad_check_input(self):
        p = B.make_transformer_params(rng(27), 2, 4, patch=2, heads=2)
        x = Tensor(rng(28).normal(size=(1, 2, 4, 4)))
        f = lambda t: T.total_sum(T.mul(B.transformer_block(t, p, 2, 2),
                                        B.transformer_block(t, p, 2, 2)))
        assert grad_check(f, x) < 1e-4

    def test_grad_check_attention_weights(self):
        p = B.make_transformer_params(rng(29), 2, 4, patch=2, heads=2)
        x = Tensor(rng(30).normal(size=(1, 2, 4, 4)))
        for name in ("wq", "wo", "mlp_w1", "pos"):
            err = grad_check(lambda t, nm=name: T.total_sum(
                B.transformer_block(x, _swap(p, nm, t), 2, 2)), p.params[name])
            assert err < 1e-4, name


class TestDecoder:
    def test_shape(self):
        p = B.make_decoder_params(rng(31), 32, 16, 16)
        x = Tensor(rng(32).normal(size=(1, 32, 8, 8)))
        skip = Tensor(rng(33).normal(size=(1, 16, 16, 16)))
        assert B.decoder_block(x, skip, p).shape == (1, 16, 16, 16)

    def test_spatial_mismatch_rejected(self):
        p = B.make_decoder_params(rng(34), 4, 4, 4)
        with pytest.raises(ShapeError):
            B.decoder_block(Tensor(np.zeros((1, 4, 4, 4))), Tensor(np.zeros((1, 4, 16, 16))), p)

    def test_grad_flows_to_both_inputs(self):
        p = B.make_decoder_params(rng(35), 2, 2, 2)
        x = Tensor(rng(36).normal(size=(1, 2, 2, 2)))
        skip = Tensor(rng(37).normal(size=(1, 2, 4, 4)))
        assert grad_check(lambda t: T.total_sum(B.decoder_block(t, skip, p)), x) < 1e-4
        assert grad_check(lambda t: T.total_sum(B.decoder_block(x, t, p)), skip) < 1e-4


@given(st.integers(1, 2), st.sampled_from([4, 8]), st.integers(2, 6), st.integers(2, 6))
@settings(max_examples=20, deadline=None)
def test_shape_formulas_property(n, cin, half_h, half_w):
    h, w = 2 * half_h, 2 * half_w
    x = Tensor(np.zeros((n, cin, h, w)))
    down = B.cnn_down(x, B.make_cnn_down_params(rng(40), cin, 8))
    assert down.shape == (n, 8, h // 2, w // 2)
    mb = B.mbconv(x, B.make_mbconv_params(rng(41), cin, 8, 2), stride=2)
    assert mb.shape == (n, 8, h // 2, w // 2)
    dec = B.decoder_block(
        Tensor(np.zeros((n, 8, half_h, half_w))), x,
        B.make_decoder_params(rng(42), 8, cin, 8))
    assert dec.shape == (n, 8, h, w)

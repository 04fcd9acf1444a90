import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalseg import blocks as B
from causalseg import tensor as T
from causalseg.errors import ConfigError, DegenerateInputError, NonFiniteError, ShapeError
from causalseg.blocks import BlockParams, SimamConfig
from causalseg.dac import dac_fuse, make_dac_layer
from causalseg.tensor import Tensor
from gradcheck import grad_check


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

    @pytest.mark.parametrize("lam", [0.0, -1e-4, np.nan, np.inf])
    def test_config_validation(self, lam):
        with pytest.raises(ConfigError):
            SimamConfig(lam=lam)

    def test_grad_check(self):
        for shape in ((1, 2, 3, 3), (2, 3, 4, 5), (1, 1, 1, 2)):
            g = rng(4)
            x, weight = Tensor(g.normal(size=shape)), Tensor(g.normal(size=shape))
            assert grad_check(lambda t: T.total_sum(T.mul(B.simam(t, SimamConfig()), weight)), x) < 1e-8, shape

    def test_records_one_node(self):
        x = Tensor(rng(8).normal(size=(2, 3, 4, 4)), requires_grad=True)
        with T.Tape() as tape:
            B.simam(x, SimamConfig())
        assert len(tape) == 1

    def test_extremes_finite(self):
        """A hot pixel of 1e4, and a constant channel whose variance term is lam = 1e-12
        alone: the coefficients stay finite and inside (0, 1), with no floating-point warning."""
        x = np.ones((1, 2, 4, 4))
        x[0, 0, 1, 2] = 1e4
        x[0, 1] = 3.0
        leaf = Tensor(x, requires_grad=True)
        with np.errstate(all="raise"), T.Tape() as tape:
            out = B.simam(leaf, SimamConfig(lam=1e-12))
            loss = T.total_sum(out)
        with np.errstate(all="raise"):
            grad = T.backward(loss, tape)[leaf]
        coeff = out.data / x
        assert np.all(np.isfinite(coeff)) and np.all(coeff > 0.0) and np.all(coeff < 1.0)
        assert np.all(np.isfinite(grad))

    def test_forward_rejects_what_backward_cannot_differentiate(self):
        """One channel scaled by 1e60 to 1e160, under warnings as errors: the forward
        raises NonFiniteError, or the backward gives a finite gradient. The backward
        divides by den squared, which overflows from about 1e77 on."""
        g = rng(9)
        base, cotangent = g.normal(size=(1, 2, 4, 4)), g.normal(size=(1, 2, 4, 4))
        outcomes = []
        for exponent in range(60, 161):
            x = base.copy()
            x[0, 0] *= 10.0 ** exponent
            leaf = Tensor(x, requires_grad=True)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    with T.Tape() as tape:
                        loss = T.total_sum(T.mul(B.simam(leaf, SimamConfig()), Tensor(cotangent)))
                except NonFiniteError:
                    outcomes.append("rejected")
                    continue
                grad = T.backward(loss, tape)[leaf]
            assert np.all(np.isfinite(grad)), exponent
            outcomes.append("finite")
        assert outcomes[0] == "finite" and outcomes[-1] == "rejected"


class TestGroupNorm:
    def test_norm_groups_divides(self):
        assert B.norm_groups(16) == 8
        assert B.norm_groups(12) == 6
        assert B.norm_groups(3) == 3
        assert B.norm_groups(7) == 7

    def test_zero_variance_is_safe(self):
        x = Tensor(np.full((1, 4, 2, 2), 5.0))
        out = B.group_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_norms_record_one_node(self):
        x = Tensor(rng(6).normal(size=(2, 8, 4, 4)), requires_grad=True)
        with T.Tape() as tape:
            B.group_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert len(tape) == 1
        tokens = Tensor(rng(7).normal(size=(5, 8)), requires_grad=True)
        with T.Tape() as tape:
            B.layer_norm(tokens, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert len(tape) == 1

    def test_normalizes_per_group(self):
        # 12 channels: norm_groups picks 6 groups of 2, each normalised as one.
        x = Tensor(rng(5).normal(size=(2, 12, 4, 4)))
        out = B.group_norm(x, Tensor(np.ones(12)), Tensor(np.zeros(12))).data
        grouped = out.reshape(2, 6, 2, 4, 4)
        np.testing.assert_allclose(grouped.mean(axis=(2, 3, 4)), 0.0, atol=1e-9)
        np.testing.assert_allclose(grouped.var(axis=(2, 3, 4)), 1.0, rtol=1e-3)
        assert not np.allclose(out.reshape(2, 12, 16).mean(axis=2), 0.0, atol=1e-3)  # not one group per channel

    @pytest.mark.parametrize("op,x_shape,width,groups", [
        ("group_norm", (2, 6, 3, 3), 6, 4),   # 4 groups do not divide 6 channels
        ("group_norm", (2, 6, 3, 3), 5, None),   # 5-entry scale and shift on 6 channels
        ("layer_norm", (3, 4), 5, None),
    ], ids=["group_norm-groups", "group_norm-width", "layer_norm-width"])
    def test_width_and_group_errors_name_the_norm(self, op, x_shape, width, groups):
        x, scale, shift = Tensor(np.ones(x_shape)), Tensor(np.ones(width)), Tensor(np.zeros(width))
        with pytest.raises(ShapeError) as err:
            if groups is not None:  # a count group_norm would not choose: affine_norm takes it
                T.affine_norm(x, scale, shift, groups, op=op)
            elif op == "group_norm":
                B.group_norm(x, scale, shift)
            else:
                B.layer_norm(x, scale, shift)
        assert err.value.op == op
        assert err.value.shapes[0] == x_shape

    @pytest.mark.parametrize("magnitude", [1e-3, 1.0, 100.0])
    def test_per_channel_constant_cancels_with_one_channel_per_group(self, magnitude):
        # Why cnn_down and decoder_block have no conv bias: with one channel
        # per group, the group mean removes any per-channel constant.
        g = rng(12)
        x, scale, shift = g.normal(size=(2, 8, 4, 4)), Tensor(g.normal(size=8)), Tensor(g.normal(size=8))
        bias = magnitude * g.normal(size=(1, 8, 1, 1))
        expected = B.group_norm(Tensor(x), scale, shift).data
        out = B.group_norm(Tensor(x + bias), scale, shift).data
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


class TestCnnDown:
    @pytest.mark.parametrize("cin,cout", [(0, 8), (3, 0), (2.5, 8)])
    def test_zero_or_fractional_channels_rejected(self, cin, cout):
        with pytest.raises(ConfigError):
            B.make_cnn_down_params(rng(6), cin, cout)

    def test_shape(self):
        p = B.make_cnn_down_params(rng(6), 3, 16)
        out = B.cnn_down(Tensor(rng(7).normal(size=(1, 3, 64, 64))), p)
        assert out.shape == (1, 16, 32, 32)

    def test_zero_input_finite(self):
        p = B.make_cnn_down_params(rng(8), 2, 4)
        out = B.cnn_down(Tensor(np.zeros((1, 2, 8, 8))), p)
        assert np.all(np.isfinite(out.data))

    def test_params_and_node_count(self):
        p = B.make_cnn_down_params(rng(12), 3, 8)
        assert set(p.tensors()) == {"kernel", "scale", "shift"}
        with T.Tape() as tape:
            B.cnn_down(Tensor(rng(13).normal(size=(2, 3, 8, 8))), p)
        assert len(tape) == 3  # conv, group norm, ReLU

    def test_rank_rejected(self):
        p = B.make_cnn_down_params(rng(9), 4, 4)
        with pytest.raises(ShapeError) as err:
            B.cnn_down(Tensor(np.ones((3, 4, 4))), p)
        assert err.value.op == "cnn_down"

    def test_odd_extent_rejected(self):
        p = B.make_cnn_down_params(rng(9), 2, 4)
        with pytest.raises(ShapeError):
            B.cnn_down(Tensor(np.zeros((1, 2, 7, 8))), p)

    def test_channel_mismatch_rejected(self):
        # 6 or 2 channels into a 3 -> 8 kernel: the block names itself and both shapes.
        p = B.make_cnn_down_params(rng(9), 3, 8)
        for cin in (6, 2):
            with pytest.raises(ShapeError) as err:
                B.cnn_down(Tensor(np.zeros((1, cin, 8, 8))), p)
            assert err.value.op == "cnn_down"
            assert err.value.shapes == ((1, cin, 8, 8), (8, 3, 3, 3))

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

    @pytest.mark.parametrize("shape", [(4, 8, 8), (1, 8, 8, 8)])
    def test_rank_and_channels_rejected(self, shape):
        p = B.make_mbconv_params(rng(18), 4, 8, stride=1)
        with pytest.raises(ShapeError) as err:
            B.mbconv(Tensor(np.ones(shape)), p, stride=1)
        assert err.value.op == "mbconv"
        assert err.value.shapes == (shape,)

    def test_gradient_reaches_every_parameter(self):
        p = B.make_mbconv_params(rng(18), 2, 2, stride=1)
        x = Tensor(rng(19).normal(size=(1, 2, 4, 4)))
        for name, param in p.tensors().items():
            err = grad_check(lambda t, nm=name: T.total_sum(
                B.mbconv(x, _swap(p, nm, t), stride=1)), param)
            assert err < 1e-4, name


def _swap(params: BlockParams, name: str, replacement: Tensor) -> BlockParams:
    clone = BlockParams(params.stride, dict(params.tensors()))
    clone.params[name] = replacement
    return clone


class TestTransformer:
    def test_shape_roundtrip(self):
        p = B.make_transformer_params(rng(20), 16, 32, patch=4, heads=2)
        x = Tensor(rng(21).normal(size=(1, 16, 32, 32)))
        assert B.transformer_block(x, p, patch=4, heads=2).shape == (1, 16, 32, 32)

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
        assert counts[1] == counts[2] == counts[4] == 33

    def test_rank_rejected(self):
        p = B.make_transformer_params(rng(26), 4, 8, patch=2, heads=2)
        with pytest.raises(ShapeError) as err:
            B.transformer_block(Tensor(np.ones((4, 8, 8))), p, patch=2, heads=2)
        assert err.value.op == "transformer_block"

    def test_pos_table_for_another_extent_rejected(self):
        p = B.make_transformer_params(rng(26), 8, 8, patch=2, heads=2)  # 16 tokens of width 32
        with pytest.raises(ShapeError) as err:
            B.transformer_block(Tensor(np.zeros((1, 8, 4, 4))), p, patch=2, heads=2)
        assert err.value.op == "transformer_block"
        assert err.value.shapes == ((1, 16, 32), (1, 4, 32))

    @pytest.mark.parametrize("patch,heads", [(0, 2), (2, 0), (2.0, 2), (2, 2.0)])
    def test_zero_or_fractional_patch_or_heads_rejected(self, patch, heads):
        with pytest.raises(ConfigError):
            B.make_transformer_params(rng(26), 4, 8, patch=patch, heads=heads)
        p = B.make_transformer_params(rng(26), 4, 8, patch=2, heads=2)
        with pytest.raises(ShapeError) as err:
            B.transformer_block(Tensor(np.zeros((1, 4, 8, 8))), p, patch=patch, heads=heads)
        assert err.value.op == "transformer_block"

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

    def test_params_and_node_count(self):
        p = B.make_decoder_params(rng(38), 4, 3, 8)
        assert list(p.tensors()) == ["up_kernel", "skip_kernel", "scale", "shift"]
        # One draw of the concat's (8, 7, 3, 3) kernel, split on its input channels.
        joined = np.concatenate([p["up_kernel"].data, p["skip_kernel"].data], axis=1)
        np.testing.assert_array_equal(joined, B._uniform(rng(38), (8, 7, 3, 3), 7 * 9).data)
        assert p["up_kernel"].shape == (8, 4, 3, 3) and p["skip_kernel"].shape == (8, 3, 3, 3)
        with T.Tape() as tape:
            B.decoder_block(Tensor(rng(39).normal(size=(2, 4, 4, 4))), Tensor(rng(40).normal(size=(2, 3, 8, 8))), p)
        assert len(tape) == 5  # sub-pixel conv, skip conv, add, group norm, ReLU

    def test_spatial_mismatch_rejected(self):
        p = B.make_decoder_params(rng(34), 4, 4, 4)
        with pytest.raises(ShapeError):
            B.decoder_block(Tensor(np.zeros((1, 4, 4, 4))), Tensor(np.zeros((1, 4, 16, 16))), p)

    @pytest.mark.parametrize("x_shape,skip_shape", [
        ((1, 3, 4, 4), (1, 4, 8, 8)),   # 3 + 4 channels, kernel expects 8
        ((1, 4, 4, 4), (1, 5, 8, 8)),
        ((4, 4, 4), (1, 4, 8, 8)),      # not NCHW
        ((1, 4, 4, 4), (4, 8, 8)),
    ])
    def test_channel_and_rank_mismatch_rejected(self, x_shape, skip_shape):
        p = B.make_decoder_params(rng(34), 4, 4, 4)
        with pytest.raises(ShapeError) as err:
            B.decoder_block(Tensor(np.zeros(x_shape)), Tensor(np.zeros(skip_shape)), p)
        assert err.value.op == "decoder_block"

    def test_grad_flows_to_both_inputs(self):
        p = B.make_decoder_params(rng(35), 2, 2, 2)
        x = Tensor(rng(36).normal(size=(1, 2, 2, 2)))
        skip = Tensor(rng(37).normal(size=(1, 2, 4, 4)))
        assert grad_check(lambda t: T.total_sum(B.decoder_block(t, skip, p)), x) < 1e-4
        assert grad_check(lambda t: T.total_sum(B.decoder_block(x, t, p)), skip) < 1e-4


def test_no_node_reshapes_or_slices_a_parameter(monkeypatch):
    """Every block parameter is stored in the layout its op reads. The library
    has no slicing op, so a reshape is the only re-layout to watch for."""
    received = []

    def spy(op):
        def wrapped(x, *args):
            received.append(x)
            return op(x, *args)
        return wrapped

    monkeypatch.setattr(T, "reshape", spy(T.reshape))
    down, mb = B.make_cnn_down_params(rng(50), 3, 4), B.make_mbconv_params(rng(51), 3, 4, 2)
    layer = make_dac_layer(rng(52), 4, 4, 4, 0)
    tf, dec = B.make_transformer_params(rng(53), 4, 4, 2, 2), B.make_decoder_params(rng(54), 4, 3, 4)
    x = Tensor(rng(55).normal(size=(2, 3, 8, 8)), requires_grad=True)
    with T.Tape():
        h = dac_fuse(B.cnn_down(x, down), B.mbconv(x, mb, 2), layer, SimamConfig())
        B.decoder_block(B.transformer_block(h, tf, 2, 2), x, dec)
    params = [*down.tensors().values(), *mb.tensors().values(), *layer.tensors().values(),
              *tf.tensors().values(), *dec.tensors().values()]
    assert received  # the transformer's patchify reshapes its input
    assert not [p for p in params if any(r is p for r in received)]


@pytest.mark.parametrize("move", [lambda a: np.flip(a, 3), lambda a: np.rot90(a, 1, axes=(2, 3))],
                         ids=["flip", "rot90"])
@pytest.mark.parametrize("block", ["mbconv", "dac_fuse"])
def test_stride1_blocks_commute_with_flip_and_rotation(block, move):
    """Metamorphic: at stride 1, moving a square input by a horizontal flip or a 90
    degree rotation, and the 3x3 kernel the same way, moves the output alike. The 1x1
    convs, group norms, SimAM and the residual act per position or over whole planes."""
    g = rng(60)
    if block == "mbconv":
        p = B.make_mbconv_params(rng(61), 4, 4, stride=1)
        x = g.normal(size=(2, 4, 6, 6))
        y = B.mbconv(Tensor(x), p, stride=1).data
        p.params["dw_kernel"] = Tensor(move(p["dw_kernel"].data))
        y_moved = B.mbconv(Tensor(move(x)), p, stride=1).data
    else:
        layer = make_dac_layer(rng(62), 2, 3, 4, layer_index=0)
        f1, f2 = g.normal(size=(2, 2, 6, 6)), g.normal(size=(2, 3, 6, 6))
        y = dac_fuse(Tensor(f1), Tensor(f2), layer, SimamConfig()).data
        layer.kernel = Tensor(move(layer.kernel.data))
        y_moved = dac_fuse(Tensor(move(f1)), Tensor(move(f2)), layer, SimamConfig()).data
    np.testing.assert_allclose(y_moved, move(y), rtol=1e-12, atol=1e-12 * np.max(np.abs(y)))


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

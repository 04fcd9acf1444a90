import numpy as np
import pytest

from causalseg import tensor as T
from causalseg.blocks import SimamConfig, _uniform
from causalseg.dac import DacLayer, concat_stage, dac_fuse, make_dac_layer
from causalseg.errors import ShapeError
from causalseg.tensor import Tensor, Tape, backward
from gradcheck import grad_check


def rng(seed=0):
    return np.random.default_rng(seed)


def scalars(k1, k2):
    return Tensor(np.array(k1), requires_grad=True), Tensor(np.array(k2), requires_grad=True)


class TestConcatStage:
    def test_unit_weights_plain_concat(self):
        f1 = Tensor(rng(1).normal(size=(1, 2, 4, 4)))
        f2 = Tensor(rng(2).normal(size=(1, 3, 4, 4)))
        k1, k2 = scalars(1.0, 1.0)
        out = concat_stage(f1, f2, k1, k2)
        np.testing.assert_array_equal(out.data, np.concatenate([f1.data, f2.data], axis=1))

    def test_doubling_k1_scales_first_block_only(self):
        f1 = Tensor(rng(3).normal(size=(1, 2, 4, 4)))
        f2 = Tensor(rng(4).normal(size=(1, 2, 4, 4)))
        base = concat_stage(f1, f2, *scalars(1.0, 1.0)).data
        bumped = concat_stage(f1, f2, *scalars(2.0, 1.0)).data
        np.testing.assert_array_equal(bumped[:, :2], 2.0 * base[:, :2])
        np.testing.assert_array_equal(bumped[:, 2:], base[:, 2:])

    def test_symmetry(self):
        f = Tensor(rng(5).normal(size=(1, 2, 4, 4)))
        out = concat_stage(f, f, *scalars(1.5, 1.5)).data
        np.testing.assert_array_equal(out[:, :2], out[:, 2:])

    def test_linearity_in_branch_vs_weight(self):
        f1 = Tensor(rng(6).normal(size=(1, 2, 4, 4)))
        f2 = Tensor(rng(7).normal(size=(1, 2, 4, 4)))
        alpha = 3.25
        a = concat_stage(Tensor(alpha * f1.data), f2, *scalars(1.0, 1.0)).data
        b = concat_stage(f1, f2, *scalars(alpha, 1.0)).data
        np.testing.assert_array_equal(a, b)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            concat_stage(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 2, 5, 4))),
                         *scalars(1.0, 1.0))


class TestDacFuse:
    def test_records_six_nodes(self):
        """Two branch scalings, the concat, simam, the fusion conv and the bias add."""
        layer = make_dac_layer(rng(11), 2, 3, 4, layer_index=0)
        f1 = Tensor(rng(12).normal(size=(2, 2, 4, 4)), requires_grad=True)
        f2 = Tensor(rng(13).normal(size=(2, 3, 4, 4)), requires_grad=True)
        with Tape() as tape:
            dac_fuse(f1, f2, layer, SimamConfig())
        assert len(tape) == 6

    def test_output_shape(self):
        layer = make_dac_layer(rng(8), 16, 24, 32, layer_index=1)
        f1 = Tensor(rng(9).normal(size=(1, 16, 32, 32)))
        f2 = Tensor(rng(10).normal(size=(1, 24, 32, 32)))
        out = dac_fuse(f1, f2, layer, SimamConfig())
        assert out.shape == (1, 32, 32, 32)

    def test_fresh_layer_unit_weights(self):
        layer = make_dac_layer(rng(11), 4, 4, 8, layer_index=2)
        assert layer.k1.data == 1.0 and layer.k2.data == 1.0

    def test_zero_k2_zeroes_second_block_pre_simam(self):
        f1 = Tensor(rng(12).normal(size=(1, 2, 4, 4)))
        f2 = Tensor(rng(13).normal(size=(1, 3, 4, 4)))
        k1, k2 = scalars(1.0, 0.0)
        out = concat_stage(f1, f2, k1, k2)
        np.testing.assert_array_equal(out.data[:, 2:], 0.0)
        np.testing.assert_array_equal(out.data[:, :2], f1.data)

    def test_grad_check_branch_weights(self):
        layer = make_dac_layer(rng(14), 2, 2, 2, layer_index=1)
        f1 = Tensor(rng(15).normal(size=(1, 2, 4, 4)))
        f2 = Tensor(rng(16).normal(size=(1, 2, 4, 4)))
        cfg = SimamConfig()

        def f_k1(t):
            return T.total_sum(dac_fuse(f1, f2, DacLayer(t, layer.k2, layer.kernel, layer.bias, 1), cfg))

        def f_k2(t):
            return T.total_sum(dac_fuse(f1, f2, DacLayer(layer.k1, t, layer.kernel, layer.bias, 1), cfg))

        assert grad_check(f_k1, layer.k1) < 1e-4
        assert grad_check(f_k2, layer.k2) < 1e-4

    def test_grads_reach_everything(self):
        layer = make_dac_layer(rng(17), 2, 3, 4, layer_index=3)
        f1 = Tensor(rng(18).normal(size=(2, 2, 4, 4)), requires_grad=True)
        f2 = Tensor(rng(19).normal(size=(2, 3, 4, 4)), requires_grad=True)
        with Tape() as tape:
            loss = T.total_sum(dac_fuse(f1, f2, layer, SimamConfig()))
        grads = backward(loss, tape)
        for t in (f1, f2, layer.k1, layer.k2, layer.kernel, layer.bias):
            assert t in grads
            assert np.any(grads[t] != 0.0)

    def test_preserves_batch_and_spatial(self):
        layer = make_dac_layer(rng(20), 3, 5, 6, layer_index=4)
        f1 = Tensor(rng(21).normal(size=(3, 3, 6, 10)))
        f2 = Tensor(rng(22).normal(size=(3, 5, 6, 10)))
        assert dac_fuse(f1, f2, layer, SimamConfig()).shape == (3, 6, 6, 10)

    @pytest.mark.parametrize("c1,c2", [(3, 3), (2, 2), (4, 3)])
    def test_channel_mismatch_rejected(self, c1, c2):
        # Branches of c1 + c2 channels into a kernel built for 2 + 3 = 5.
        layer = make_dac_layer(rng(24), 2, 3, 4, layer_index=0)
        f1, f2 = Tensor(np.zeros((1, c1, 4, 4))), Tensor(np.zeros((1, c2, 4, 4)))
        with pytest.raises(ShapeError) as err:
            dac_fuse(f1, f2, layer, SimamConfig())
        assert err.value.op == "dac_fuse"
        assert err.value.shapes == ((1, c1, 4, 4), (1, c2, 4, 4), (4, 5, 3, 3))

    def test_parameter_order_and_draws(self):
        """The model's parameter list, the training hash and the benchmark's
        gradient draws read the tensors in this order, drawn in this order."""
        layer = make_dac_layer(rng(25), 2, 3, 4, layer_index=0)
        assert list(layer.tensors()) == ["k1", "k2", "kernel", "bias"]
        g = rng(25)
        kernel, bias = _uniform(g, (4, 5, 3, 3), 45), _uniform(g, (1, 4, 1, 1), 45)
        np.testing.assert_array_equal(layer.kernel.data, kernel.data)
        np.testing.assert_array_equal(layer.bias.data, bias.data)
        assert all(t.requires_grad for t in layer.tensors().values())

    def test_out_of_place_update_keeps_a_0d_array(self):
        layer = make_dac_layer(rng(23), 2, 2, 2, layer_index=0)
        layer.k1.data = layer.k1.data - 0.1  # numpy returns a scalar here
        assert isinstance(layer.k1.data, np.ndarray) and layer.k1.data.shape == ()
        layer.k1.data.flat[0] = 2.0
        assert layer.k1.item() == 2.0

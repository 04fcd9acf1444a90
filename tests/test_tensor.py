import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalseg import tensor as T
from causalseg.errors import DomainError, ShapeError, TapeError
from causalseg.tensor import Tensor, Tape, backward, grad_check


def rng(seed):
    return np.random.default_rng(seed)


class TestElementwise:
    def test_add(self):
        out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_mul_zero_annihilates(self):
        out = T.mul(Tensor([2.0, 3.0]), Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0])

    def test_scalar_broadcast(self):
        out = T.mul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor(2.0))
        np.testing.assert_array_equal(out.data, [[2.0, 4.0], [6.0, 8.0]])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError) as exc:
            T.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
        assert "(2,)" in str(exc.value) and "(3,)" in str(exc.value)

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            T.log(Tensor([1.0, 0.0]))

    def test_div_by_zero(self):
        with pytest.raises(DomainError):
            T.div(Tensor([1.0]), Tensor([0.0]))

    def test_exp_overflow_guard(self):
        with pytest.raises(DomainError):
            T.exp(Tensor([1000.0]))

    def test_sigmoid_extremes_finite(self):
        out = T.sigmoid(Tensor([-1e4, 1e4]))
        assert np.all(np.isfinite(out.data))
        assert 0.0 <= out.data[0] and out.data[1] <= 1.0

    @pytest.mark.parametrize("small_shape,big_shape", [((4, 1), (4, 3)), ((2, 3, 1, 1), (2, 3, 4, 5))])
    @pytest.mark.parametrize("op,ref", [(T.add, np.add), (T.sub, np.subtract), (T.mul, np.multiply),
                                        (T.div, np.divide)])
    def test_broadcast_axes_of_extent_one(self, op, ref, small_shape, big_shape):
        g = rng(16)
        small = g.uniform(0.5, 2.0, size=small_shape)
        big = g.uniform(0.5, 2.0, size=big_shape)
        weight = Tensor(g.normal(size=big_shape))
        for a, b in ((small, big), (big, small)):
            out = op(Tensor(a), Tensor(b))
            assert out.shape == big_shape
            np.testing.assert_array_equal(out.data, ref(a, b))
            assert grad_check(lambda t: T.total_sum(T.mul(op(t, Tensor(b)), weight)), Tensor(a)) < 1e-8
            assert grad_check(lambda t: T.total_sum(T.mul(op(Tensor(a), t), weight)), Tensor(b)) < 1e-8

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((3,), (2, 3)),    # no rank promotion
        ((4, 1), (1, 5)),  # no broadcasting on both sides
        ((2, 3), (2, 4)),  # neither extent is 1
        ((1, 1), (3,)),    # nor by a single element
    ])
    def test_broadcast_shape_errors(self, a_shape, b_shape):
        for a, b in ((a_shape, b_shape), (b_shape, a_shape)):
            with pytest.raises(ShapeError):
                T.add(Tensor(np.ones(a)), Tensor(np.ones(b)))

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=6),
        st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_silent_coercion(self, xs, ys):
        a, b = Tensor(xs), Tensor(ys)
        if len(xs) == len(ys) or len(xs) == 1 or len(ys) == 1:
            assert T.add(a, b).size == max(len(xs), len(ys))
        else:
            with pytest.raises(ShapeError):
                T.add(a, b)


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor(np.eye(2)), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])

    def test_hand_product(self):
        # hand arithmetic: [[1*5+2*7, 1*6+2*8], [3*5+4*7, 3*6+4*8]]
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zero_matrix(self):
        out = T.matmul(Tensor(np.zeros((2, 3))), Tensor(rng(0).normal(size=(3, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_batched_matches_per_entry(self):
        g = rng(20)
        a, b, shared = g.normal(size=(2, 3, 4, 5)), g.normal(size=(2, 3, 5, 2)), g.normal(size=(5, 2))
        per_batch = T.matmul(Tensor(a), Tensor(b)).data
        with_shared = T.matmul(Tensor(a), Tensor(shared)).data
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(per_batch[i, j], a[i, j] @ b[i, j], rtol=1e-14)
                np.testing.assert_allclose(with_shared[i, j], a[i, j] @ shared, rtol=1e-14)

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((2, 3, 4), (3, 4, 5)),     # leading axes differ
        ((2, 3, 4), (1, 4, 5)),     # no broadcasting of batch axes
        ((2, 2, 3, 4), (2, 4, 5)),  # rank of b neither 2 nor a's
        ((3, 4), (2, 4, 5)),        # a batched b needs a batched a
        ((4,), (4, 5)),             # vectors are not matrices
        ((2, 3, 4), (2, 5, 4)),     # inner dimensions
    ])
    def test_batched_shape_errors(self, a_shape, b_shape):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))


class TestConv2d:
    def test_one_by_one_identity(self):
        x = Tensor(rng(1).normal(size=(2, 1, 5, 5)))
        k = Tensor(np.ones((1, 1, 1, 1)))
        np.testing.assert_allclose(T.conv2d(x, k).data, x.data)

    def test_all_ones_sum(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        assert T.conv2d(x, k).item() == 9.0

    def test_stride2_shape(self):
        x = Tensor(rng(2).normal(size=(1, 1, 4, 4)))
        k = Tensor(rng(3).normal(size=(1, 1, 2, 2)))
        assert T.conv2d(x, k, stride=2).shape == (1, 1, 2, 2)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.ones((1, 3, 4, 4))), Tensor(np.ones((2, 2, 3, 3))))

    def test_nonpositive_output(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))))

    def test_matches_naive_loop(self):
        g = rng(4)
        x, k = g.normal(size=(2, 3, 6, 6)), g.normal(size=(4, 3, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(k), stride=2, padding=1).data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ref = np.zeros_like(out)
        for n in range(2):
            for o in range(4):
                for i in range(out.shape[2]):
                    for j in range(out.shape[3]):
                        patch = xp[n, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                        ref[n, o, i, j] = np.sum(patch * k[o])
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_depthwise_matches_naive(self):
        g = rng(5)
        x, k = g.normal(size=(2, 3, 5, 5)), g.normal(size=(3, 3, 3))
        out = T.depthwise_conv2d(Tensor(x), Tensor(k), stride=1, padding=1).data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ref = np.zeros_like(out)
        for n in range(2):
            for c in range(3):
                for i in range(5):
                    for j in range(5):
                        ref[n, c, i, j] = np.sum(xp[n, c, i:i + 3, j:j + 3] * k[c])
        np.testing.assert_allclose(out, ref, atol=1e-12)


class TestReduce:
    def test_mean(self):
        assert T.reduce_mean(Tensor([1.0, 2.0, 3.0]), (0,)).item() == 2.0

    def test_empty_axes_identity(self):
        x = Tensor([1.0, 2.0])
        assert T.reduce_sum(x, ()) is x


class TestShapeOps:
    def test_concat_extents(self):
        a = Tensor(np.ones((1, 2, 4, 4)))
        b = Tensor(np.ones((1, 3, 4, 4)))
        assert T.concat([a, b], axis=1).shape == (1, 5, 4, 4)

    def test_concat_single_identity(self):
        a = Tensor(np.ones((2, 2)))
        assert T.concat([a], axis=0) is a

    def test_concat_split_roundtrip(self):
        g = rng(6)
        a, b = g.normal(size=(1, 2, 3, 3)), g.normal(size=(1, 5, 3, 3))
        joined = T.concat([Tensor(a), Tensor(b)], axis=1)
        pa, pb = T.slice_axis(joined, 1, 0, 2), T.slice_axis(joined, 1, 2, 7)
        np.testing.assert_array_equal(pa.data, a)
        np.testing.assert_array_equal(pb.data, b)

    def test_concat_off_axis_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 2, 5, 4)))], axis=1)

    def test_upsample_nearest(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = T.upsample_nearest2x(x)
        expected = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=float)
        np.testing.assert_array_equal(out.data[0, 0], expected)

    def test_upsample_grad(self):
        g = rng(7)
        x = Tensor(g.normal(size=(2, 3, 2, 3)))
        weight = Tensor(g.normal(size=(2, 3, 4, 6)))
        assert grad_check(lambda t: T.total_sum(T.mul(T.upsample_nearest2x(t), weight)), x) < 1e-8


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor(rng(8).normal(size=(3, 4)), requires_grad=True)
        with Tape() as tape:
            loss = T.total_sum(x)
        grads = backward(loss, tape)
        np.testing.assert_array_equal(grads[x], np.ones((3, 4)))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_square_grad(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.total_sum(T.mul(x, x))
        grads = backward(loss, tape)
        np.testing.assert_array_equal(grads[x], [2.0, -4.0])

    def test_fanout_accumulates(self):
        x = Tensor([1.0, 1.0], requires_grad=True)
        with Tape() as tape:
            loss = T.total_sum(T.add(x, x))
        grads = backward(loss, tape)
        np.testing.assert_array_equal(grads[x], [2.0, 2.0])

    def test_nonscalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ShapeError):
            backward(y, tape)

    def test_consumed_tape_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            loss = T.total_sum(x)
        backward(loss, tape)
        with pytest.raises(TapeError):
            backward(loss, tape)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([3.0], requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                loss = T.total_sum(T.mul(x, x))
            backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [12.0])
        x.zero_grad()
        assert x.grad is None

    def test_no_tape_records_nothing(self):
        x = Tensor([1.0], requires_grad=True)
        y = T.mul(x, x)
        assert y.requires_grad is False

    def test_inner_tape_isolated(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as outer:
            y = T.mul(x, x)
            with Tape() as inner:
                z = T.total_sum(T.mul(x, Tensor([5.0])))
            backward(z, inner)
            loss = T.total_sum(y)
        np.testing.assert_array_equal(x.grad, [5.0])
        backward(loss, outer)
        np.testing.assert_array_equal(x.grad, [9.0])

    def test_tape_not_shared_across_threads(self):
        opened, release = threading.Event(), threading.Event()
        seen = {}

        def hold_tape_open():
            with Tape() as tape:
                opened.set()
                release.wait(timeout=10)
            seen["nodes"] = len(tape)

        worker = threading.Thread(target=hold_tape_open)
        worker.start()
        try:
            assert opened.wait(timeout=10)
            x = Tensor([1.0], requires_grad=True)
            assert T.mul(x, x).requires_grad is False
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen["nodes"] == 0

    def test_out_of_order_exit_rejected(self):
        outer, inner = Tape(), Tape()
        with outer:
            with inner:
                with pytest.raises(TapeError):
                    outer.__exit__(None, None, None)
        with pytest.raises(TapeError):
            outer.__exit__(None, None, None)  # no longer active
        x = Tensor([1.0], requires_grad=True)
        assert T.mul(x, x).requires_grad is False  # both tapes were closed


class TestGradCheck:
    def test_linear_exact(self):
        x = Tensor(rng(9).normal(size=(2, 3)))
        assert grad_check(T.total_sum, x, eps=1e-5) < 1e-10

    def test_sigmoid_sum(self):
        x = Tensor(rng(10).uniform(-2, 2, size=(3, 3)))
        assert grad_check(lambda t: T.total_sum(T.sigmoid(t)), x, eps=1e-5) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_primitives_battery(self, seed):
        g = rng(100 + seed)
        x = Tensor(g.uniform(0.5, 2.0, size=(2, 3)))
        numer = Tensor(g.normal(size=(2, 3)))
        checks = [
            lambda t: T.total_sum(T.exp(t)),
            lambda t: T.total_sum(T.log(t)),
            lambda t: T.total_sum(T.power(t, 1.7)),
            lambda t: T.total_sum(T.div(numer, t)),
            lambda t: T.total_sum(T.mul(T.softmax(t, axis=1), t)),
        ]
        for f in checks:
            assert grad_check(f, x, eps=1e-5) < 1e-6

    def test_conv_grads(self):
        g = rng(11)
        x = Tensor(g.normal(size=(1, 2, 4, 4)))
        k = Tensor(g.normal(size=(2, 2, 3, 3)))

        def loss_x(t):
            return T.total_sum(T.conv2d(t, k, stride=1, padding=1))

        def loss_k(t):
            return T.total_sum(T.conv2d(x, t, stride=2, padding=1))

        assert grad_check(loss_x, x, eps=1e-5) < 1e-8
        assert grad_check(loss_k, k, eps=1e-5) < 1e-8

    def test_depthwise_grads(self):
        g = rng(12)
        x = Tensor(g.normal(size=(1, 3, 4, 4)))
        k = Tensor(g.normal(size=(3, 3, 3)))
        assert grad_check(lambda t: T.total_sum(T.mul(T.depthwise_conv2d(t, k, 1, 1), t)), x) < 1e-8
        assert grad_check(lambda t: T.total_sum(T.depthwise_conv2d(x, t, 2, 1)), k) < 1e-8

    def test_matmul_concat_slice_grads(self):
        g = rng(13)
        a = Tensor(g.normal(size=(3, 2)))
        b = Tensor(g.normal(size=(2, 3)))

        def f(t):
            prod = T.matmul(t, b)
            joined = T.concat([prod, prod], axis=0)
            piece = T.slice_axis(joined, 0, 1, 4)
            return T.total_sum(T.mul(piece, piece))

        assert grad_check(f, a, eps=1e-5) < 1e-7

    @pytest.mark.parametrize("b_shape", [(2, 3, 4, 2), (4, 2)])
    def test_batched_matmul_grads(self, b_shape):
        g = rng(14)
        a = Tensor(g.normal(size=(2, 3, 3, 4)))
        b = Tensor(g.normal(size=b_shape))
        weight = Tensor(g.normal(size=(2, 3, 3, 2)))
        assert grad_check(lambda t: T.total_sum(T.mul(T.matmul(t, b), weight)), a) < 1e-8
        assert grad_check(lambda t: T.total_sum(T.mul(T.matmul(a, t), weight)), b) < 1e-8

    @pytest.mark.parametrize("shape,groups", [((2, 6, 3, 3), 3), ((2, 4, 3, 3), 1), ((5, 6), 1), ((2, 4, 5), 2)])
    def test_affine_norm_grads(self, shape, groups):
        g = rng(15)
        x = Tensor(g.normal(size=shape) * 2.0 + 0.5)
        scale = Tensor(g.normal(size=shape[1]))
        shift = Tensor(g.normal(size=shape[1]))
        weight = Tensor(g.normal(size=shape))

        def loss(x_, scale_, shift_):
            return T.total_sum(T.mul(T.affine_norm(x_, scale_, shift_, groups), weight))

        assert grad_check(lambda t: loss(t, scale, shift), x) < 1e-7
        assert grad_check(lambda t: loss(x, t, shift), scale) < 1e-7
        assert grad_check(lambda t: loss(x, scale, t), shift) < 1e-7

    def test_affine_norm_shape_errors(self):
        x = Tensor(np.ones((2, 6, 3, 3)))
        with pytest.raises(ShapeError):
            T.affine_norm(x, Tensor(np.ones(6)), Tensor(np.ones(6)), 4)
        with pytest.raises(ShapeError):
            T.affine_norm(x, Tensor(np.ones(3)), Tensor(np.ones(6)), 3)
        with pytest.raises(ShapeError):
            T.affine_norm(Tensor(np.ones(6)), Tensor(np.ones(6)), Tensor(np.ones(6)), 1)


def test_forward_determinism():
    g = rng(14)
    x, k = g.normal(size=(1, 2, 6, 6)), g.normal(size=(3, 2, 3, 3))
    a = T.conv2d(Tensor(x), Tensor(k), 2, 1).data
    b = T.conv2d(Tensor(x.copy()), Tensor(k.copy()), 2, 1).data
    assert np.array_equal(a, b)

import gc
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalseg import blocks as B
from causalseg import losses as L
from causalseg import tensor as T
from causalseg.errors import DomainError, NonFiniteError, ShapeError, TapeError
from causalseg.tensor import Tensor, Tape, backward
import composite as C
from gradcheck import grad_check


ROOT = Path(__file__).resolve().parents[1]


def rng(seed):
    return np.random.default_rng(seed)


class TestElementwise:
    def test_add(self):
        out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

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

    @pytest.mark.parametrize("small_shape,big_shape", [((4, 1), (4, 3)), ((2, 3, 1, 1), (2, 3, 4, 5))])
    @pytest.mark.parametrize("op,ref", [(T.add, np.add), (C.sub, np.subtract), (T.mul, np.multiply),
                                        (C.div, np.divide)])
    def test_broadcast_axes_of_extent_one(self, op, ref, small_shape, big_shape):
        # the library's add and mul, and the oracles' sub and div, whose gradients reduce alike
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

    @pytest.mark.parametrize("k_shape", [(3, 1, 3, 3), (4, 3, 3, 3)])
    @pytest.mark.parametrize("stride,padding", [(0, 1), (1, -1)])
    def test_invalid_stride_or_padding(self, k_shape, stride, padding):
        # Without the check, stride 0 divides by zero in the output extent and
        # padding -1 crops the input silently.
        with pytest.raises(ShapeError) as err:
            T.conv2d(Tensor(np.ones((1, 3, 5, 5))), Tensor(np.ones(k_shape)), stride, padding)
        assert err.value.op == "conv2d"

    @pytest.mark.parametrize("k_shape", [(6, 1, 3, 3), (3, 2, 3, 3), (4, 1, 3, 3)])
    def test_only_dense_or_depthwise_kernels(self, k_shape):
        # Neither (C*m, 1, K, K) channel multipliers nor other group counts.
        with pytest.raises(ShapeError) as err:
            T.conv2d(Tensor(np.ones((1, 3, 5, 5))), Tensor(np.ones(k_shape)), 1, 1)
        assert err.value.op == "conv2d"

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
        out = T.conv2d(Tensor(x), Tensor(k[:, None]), stride=1, padding=1).data
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
        assert T.total_mean(Tensor([[1.0, 2.0, 3.0]])).item() == 2.0

    @pytest.mark.parametrize("axis", [2, -3])
    def test_softmax_axis_out_of_range(self, axis):
        with pytest.raises(ShapeError) as err:
            T.softmax(Tensor(np.ones((2, 3))), axis=axis)
        assert err.value.op == "softmax"

    @pytest.mark.parametrize("logits", [
        rng(22).normal(size=(2, 3, 5, 5)),
        rng(23).choice([-700.0, 700.0], size=(2, 3, 5, 5)),
        np.concatenate([np.full((2, 3, 5, 1), -np.inf), rng(24).normal(size=(2, 3, 5, 4))], axis=3),
    ], ids=["normal", "pm700", "minus-inf"])
    def test_softmax_rows_sum_to_one(self, logits):
        out = T.softmax(Tensor(logits), axis=3).data
        np.testing.assert_allclose(out.sum(axis=3), 1.0, rtol=0, atol=1e-12)
        assert np.all(out[np.isneginf(logits)] == 0.0)

    def test_softmax_of_an_overflowing_spread_is_exact(self):
        """1e308 - -1e308 overflows to inf, so x - max is -inf, whose exp is exactly 0:
        the result is [1, 0], with no overflow warning (an error here)."""
        assert np.array_equal(T.softmax(Tensor([[1e308, -1e308]]), axis=1).data, [[1.0, 0.0]])

    @pytest.mark.parametrize("requires_grad,nodes", [(True, 1), (False, 0)])
    def test_softmax_is_one_node(self, requires_grad, nodes):
        x = Tensor(rng(25).normal(size=(2, 3, 4, 4)), requires_grad=requires_grad)
        with Tape() as tape:
            T.softmax(x, axis=1)
        assert len(tape) == nodes

    @pytest.mark.parametrize("scale", [1.0, 700.0], ids=["normal", "pm700"])
    @pytest.mark.parametrize("shape,axis", [((8,), 0), ((8, 2, 16, 16), 1), ((2, 2, 16, 16), 3)],
                             ids=["cim", "head", "attention"])
    def test_softmax_grad_matches_closed_form(self, shape, axis, scale):
        g = rng(26)
        logits = g.normal(size=shape) if scale == 1.0 else g.choice([-scale, scale], size=shape)
        upstream = g.normal(size=shape)
        x = Tensor(logits, requires_grad=True)
        with Tape() as tape:
            y = T.softmax(x, axis=axis)
            loss = T.total_sum(T.mul(y, Tensor(upstream)))
        grad = backward(loss, tape)[x]
        ref = y.data * (upstream - np.sum(upstream * y.data, axis=axis, keepdims=True))
        assert np.all(np.isfinite(grad))
        np.testing.assert_allclose(grad, ref, rtol=0, atol=1e-12)


class TestShapeOps:
    def test_concat_extents(self):
        a = Tensor(np.ones((1, 2, 4, 4)))
        b = Tensor(np.ones((1, 3, 4, 4)))
        assert T.concat([a, b], axis=1).shape == (1, 5, 4, 4)

    def test_concat_single_identity(self):
        a = Tensor(rng(7).normal(size=(2, 3)), requires_grad=True)
        upstream = rng(8).normal(size=(2, 3))
        with Tape() as tape:
            joined = T.concat([a], axis=1)
            loss = T.total_sum(T.mul(joined, Tensor(upstream)))
        np.testing.assert_array_equal(joined.data, a.data)
        np.testing.assert_array_equal(backward(loss, tape)[a], upstream)

    @pytest.mark.parametrize("n_parts,axis", [(1, 7), (2, 7), (1, -3), (2, -3)])
    def test_concat_axis_out_of_range(self, n_parts, axis):
        with pytest.raises(ShapeError) as err:
            T.concat([Tensor(np.ones((2, 2)))] * n_parts, axis=axis)
        assert err.value.op == "concat"
        assert f"axis {axis} " in str(err.value)

    def test_concat_split_roundtrip(self):
        g = rng(6)
        a, b = g.normal(size=(1, 2, 3, 3)), g.normal(size=(1, 5, 3, 3))
        joined = T.concat([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_array_equal(joined.data[:, :2], a)
        np.testing.assert_array_equal(joined.data[:, 2:], b)

    def test_concat_off_axis_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 2, 5, 4)))], axis=1)


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
        # y is produced on the outer tape; on the inner tape it is a leaf, and
        # the inner backward gives it a .grad as it gives one to x.
        x = Tensor([2.0], requires_grad=True)
        with Tape() as outer:
            y = T.mul(x, x)
            with Tape() as inner:
                z = T.total_sum(T.add(T.mul(x, Tensor([5.0])), T.mul(y, Tensor([3.0]))))
            inner_grads = backward(z, inner)
            loss = T.total_sum(y)
        assert set(map(id, inner_grads)) == {id(x), id(y)}
        np.testing.assert_array_equal(x.grad, [5.0])
        np.testing.assert_array_equal(y.grad, [3.0])
        assert set(map(id, backward(loss, outer))) == {id(x)}
        np.testing.assert_array_equal(x.grad, [9.0])
        np.testing.assert_array_equal(y.grad, [3.0])

    def test_consumed_tape_cannot_be_reopened(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            loss = T.total_sum(T.mul(x, x))
        backward(loss, tape)
        with pytest.raises(TapeError):
            with tape:
                T.mul(x, x)
        assert len(tape) == 0  # backward popped both nodes, and the refused reopen recorded none
        assert T.mul(x, x).requires_grad is False  # the refused tape is not left active

    def test_no_reference_cycle_through_the_tape(self):
        """A tape is freed by reference counting alone: no tensor it produced
        refers back to it, so a step's tape and its closures do not wait for
        the cyclic garbage collector."""

        def step():
            g = rng(31)
            x = Tensor(g.normal(size=(2, 3, 8, 8)), requires_grad=True)
            k = Tensor(g.normal(size=(4, 3, 3, 3)), requires_grad=True)
            scale, shift = Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)
            with Tape() as tape:
                h = T.relu(B.group_norm(T.conv2d(x, k, 1, 1), scale, shift))
                probs = T.softmax(B.simam(h, B.SimamConfig()), axis=1)
                loss = T.total_mean(T.mul(probs, probs))
            backward(loss, tape)
            return weakref.ref(tape), probs, loss

        gc.disable()
        try:
            tape, probs, loss = step()
            assert tape() is None  # the step's outputs do not hold it
        finally:
            gc.enable()

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


class TestTapeHolds:
    """The tape holds only what backward reads."""

    def test_conv_output_freed_while_tape_is_open(self):
        # group_norm's backward reads its own statistics, not its input, and a
        # node names its output by a key: once the forward drops the conv
        # output, nothing holds its array.
        g = rng(33)
        x = Tensor(g.normal(size=(2, 3, 8, 8)), requires_grad=True)
        k = Tensor(g.normal(size=(4, 3, 3, 3)), requires_grad=True)
        scale, shift = Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)
        with Tape() as tape:
            h = T.conv2d(x, k, 1, 1)
            buffer = weakref.ref(h.data if h.data.base is None else h.data.base)
            y = B.group_norm(h, scale, shift)
            del h
            assert buffer() is None
            loss = T.total_sum(T.mul(y, y))
        grads = backward(loss, tape)
        assert set(map(id, grads)) == {id(t) for t in (x, k, scale, shift)}

    def test_conv_keeps_no_im2col_buffer(self):
        # 3x3 windows over 16 channels: an im2col buffer would be 9x the input.
        # The kernel gradient rebuilds its padded plane from x, so the tape
        # holds the output and no buffer.
        g = rng(34)
        x = Tensor(g.normal(size=(2, 16, 16, 16)), requires_grad=True)
        k = Tensor(g.normal(size=(4, 16, 3, 3)), requires_grad=True)
        cols_bytes = 9 * x.data.nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss = T.total_sum(T.conv2d(x, k, 1, 1))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < cols_bytes
        backward(loss, tape)
        assert k.grad is not None and x.grad is not None


    def test_conv_forward_builds_no_im2col_buffer(self):
        # With at least as many input as output channels, at stride 1, each
        # 3x3 tap runs its own GEMM on a view of the padded plane: the
        # forward's peak stays below the 9x buffer an im2col conv would build.
        g = rng(35)
        x = Tensor(g.normal(size=(2, 16, 16, 16)), requires_grad=True)
        k = Tensor(g.normal(size=(8, 16, 3, 3)), requires_grad=True)
        cols_bytes = 9 * x.data.nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape():
                y = T.conv2d(x, k, 1, 1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert y.shape == (2, 8, 16, 16)
        assert peak < cols_bytes / 2

    def test_node_released_before_earlier_nodes_run(self):
        # The mul's edge captured c's array, and nothing else holds it: backward
        # pops the mul's node, so the array is dead when the node recorded
        # before it runs its edge.
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        seen = []
        with Tape() as tape:
            h = T._record(Tensor(x.data * 1.0), (x, lambda g: seen.append(captured() is None) or g))
            c = np.full(3, 2.0)
            captured = weakref.ref(c)
            loss = T.total_sum(T.mul(h, Tensor(c)))
            del c
        assert captured() is not None
        backward(loss, tape)
        assert seen == [True] and len(tape) == 0
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_backward_peak_above_what_forward_left(self):
        # cnn_down's strided conv, group norm and ReLU, then SimAM and softmax.
        # Backward frees each node once run, so its peak above what the forward
        # left is SimAM's temporaries, about 5.4 conv outputs here. Were every
        # node kept to the end, the conv's gathered taps would come on top of
        # the whole tape: about 8.8.
        g = rng(37)
        x = Tensor(g.normal(size=(4, 4, 64, 64)), requires_grad=True)
        k = Tensor(g.normal(size=(8, 4, 3, 3)), requires_grad=True)
        scale, shift = Tensor(np.ones(8), requires_grad=True), Tensor(np.zeros(8), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                h = T.conv2d(x, k, 2, 1)
                out_bytes = h.data.nbytes
                h = T.relu(B.group_norm(h, scale, shift))
                probs = T.softmax(B.simam(h, B.SimamConfig()), axis=1)
                loss = T.total_mean(T.mul(probs, probs))
                del h, probs
            left = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert x.grad is not None and k.grad is not None
        assert peak - left < 6.5 * out_bytes

    def test_simam_keeps_its_input_and_coefficients(self):
        # The tape keeps x's array, which x holds anyway, and the coefficients
        # a; backward rebuilds the deviations and their squares from x. With
        # the output, the op holds 2x x's bytes (4x when the tape kept them).
        x = Tensor(rng(38).normal(size=(2, 8, 32, 32)), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                y = B.simam(x, B.SimamConfig())
                held = tracemalloc.get_traced_memory()[0] - before
                loss = T.total_sum(y)
        finally:
            tracemalloc.stop()
        assert held < 3 * x.data.nbytes
        backward(loss, tape)
        assert x.grad is not None

    def test_relu_mask_ignores_a_later_rebind_of_its_output(self):
        # Gradient functions capture arrays, not tensors, as mul does: the mask
        # is read from the output's array, whatever y.data is rebound to later.
        x = Tensor([1.0, 2.0, -1.0], requires_grad=True)
        with Tape() as tape:
            y = T.relu(x)
            y.data = np.zeros(3)
            loss = T.total_sum(y)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 0.0])


class TestNodePrep:
    """A node's ``prep`` runs once per backward, however many of its inputs
    need a gradient, and backward keeps none of its results."""

    OPS = {  # x's shape, the weight's shape, and the op on (x, weight)
        "conv2d_per_tap": ((2, 4, 6, 6), (3, 4, 3, 3), lambda x, k: T.conv2d(x, k, 1, 1)),
        "conv2d_depthwise": ((2, 4, 6, 6), (4, 1, 3, 3), lambda x, k: T.conv2d(x, k, 2, 1)),
        "conv2d_gathered": ((2, 3, 6, 6), (5, 3, 3, 3), lambda x, k: T.conv2d(x, k, 2, 1)),
        "upsample_conv2d": ((2, 3, 4, 5), (4, 3, 3, 3), T.upsample_conv2d),
        "group_norm": ((2, 4, 3, 5), (4,), lambda x, scale: B.group_norm(x, scale, Tensor(np.zeros(4)))),
    }

    @pytest.mark.parametrize("x_requires_grad", [False, True])
    @pytest.mark.parametrize("op", list(OPS))
    def test_prep_runs_once_and_is_dropped(self, op, x_requires_grad, monkeypatch):
        xshape, wshape, fn = self.OPS[op]
        g = rng(36)
        x = Tensor(g.normal(size=xshape), requires_grad=x_requires_grad)
        weight = Tensor(g.normal(size=wshape), requires_grad=True)
        calls, results = [], []
        record = T._record

        def counting(out, *edges, prep=None):
            def counted(grad):
                prepped = prep(grad)
                calls.append(op)
                results.extend(weakref.ref(a) for a in (prepped if isinstance(prepped, tuple) else (prepped,)))
                return prepped

            return record(out, *edges, prep=counted if prep is not None else None)

        monkeypatch.setattr(T, "_record", counting)
        with Tape() as tape:
            y = fn(x, weight)
            loss = T.total_sum(T.mul(y, Tensor(g.normal(size=y.shape))))
        (node, *_) = tape._nodes
        assert node.prep is not None and len(node.edges) == 1 + x_requires_grad
        grads = backward(loss, tape)
        assert calls == [op]
        assert results and all(ref() is None for ref in results)
        assert (x in grads) == x_requires_grad and weight in grads


class TestGradCheck:
    def test_linear_exact(self):
        x = Tensor(rng(9).normal(size=(2, 3)))
        assert grad_check(T.total_sum, x, eps=1e-5) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_primitives_battery(self, seed):
        g = rng(100 + seed)
        x = Tensor(g.uniform(0.5, 2.0, size=(2, 3)))
        numer = Tensor(g.normal(size=(2, 3)))
        checks = [
            lambda t: T.total_sum(C.power(t, 1.7)),
            lambda t: T.total_sum(C.div(numer, t)),
            lambda t: T.total_mean(T.mul(t, numer)),
            lambda t: T.total_sum(T.mul(T.softmax(t, axis=1), t)),
        ]
        for f in checks:
            assert grad_check(f, x, eps=1e-5) < 1e-6

    @pytest.mark.parametrize("shape,axis", [((8,), 0), ((1, 2, 3, 4), 3)])
    def test_softmax_grads_on_other_axes(self, shape, axis):
        g = rng(27)
        x = Tensor(g.normal(size=shape))
        weight = Tensor(g.normal(size=shape))
        assert grad_check(lambda t: T.total_sum(T.mul(T.softmax(t, axis=axis), weight)), x) < 1e-8

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
        k = Tensor(g.normal(size=(3, 3, 3))[:, None])
        assert grad_check(lambda t: T.total_sum(T.mul(T.conv2d(t, k, 1, 1), t)), x) < 1e-8
        assert grad_check(lambda t: T.total_sum(T.conv2d(x, t, 2, 1)), k) < 1e-8

    def test_matmul_concat_slice_grads(self):
        g = rng(13)
        a = Tensor(g.normal(size=(3, 2)))
        b = Tensor(g.normal(size=(2, 3)))

        def f(t):
            prod = T.matmul(t, b)
            joined = T.concat([prod, prod], axis=0)
            piece = C.slice_axis(joined, 0, 1, 4)
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


def _poisoned(shape, *values):
    """Ones of ``shape`` whose first entries are ``values``."""
    x = np.ones(shape)
    x.flat[:len(values)] = values
    return x


@pytest.mark.parametrize("op,x,kernel,args", [
    (T.conv2d, np.full((1, 1, 4, 4), np.inf), np.zeros((2, 1, 3, 3)), (1, 1)),
    (T.conv2d, _poisoned((1, 2, 4, 4), np.inf), np.zeros((2, 2, 3, 3)), (1, 1)),
    (T.conv2d, _poisoned((1, 2, 4, 4), np.inf), np.zeros((2, 1, 3, 3)), (1, 1)),
    (T.conv2d, np.full((1, 2, 4, 4), 1e200), np.full((2, 2, 1, 1), 1e200), ()),
    (T.upsample_conv2d, _poisoned((1, 2, 4, 4), np.inf), np.zeros((3, 2, 3, 3)), ()),
    (T.upsample_conv2d, np.ones((1, 2, 4, 4)), _poisoned((3, 2, 3, 3), np.inf), ()),
], ids=["gathered-inf-times-0", "per-tap-inf-times-0", "depthwise-inf-times-0", "direct-overflow",
        "upsample-x-inf-times-0", "upsample-kernel-inf"])
def test_conv_non_finite_arithmetic_names_the_op(op, x, kernel, args):
    """An inf input against a zero kernel tap, or a product past float64's range:
    a NonFiniteError naming the op and both shapes, not numpy's RuntimeWarning
    (an error here, as under python -W error)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError) as err:
            op(Tensor(x), Tensor(kernel), *args)
    assert str(err.value).startswith(f"{op.__name__}: ") and f"{x.shape} and {kernel.shape}" in str(err.value)


_TWO_THREAD_PROBE = r"""
import json
import numpy as np
from causalseg import blocks as B, dac as D, tensor as T
from causalseg.errors import NonFiniteError
from causalseg.tensor import Tensor

def op_named(call):
    try:
        call()
    except NonFiniteError as err:
        return str(err).partition(":")[0]
    return None

g = np.random.default_rng(0)
x, k = g.standard_normal((8, 64, 64, 64)), g.standard_normal((64, 64, 3, 3))
k[:, 63] = 0.0  # inf times a zero tap is NaN
named = {}
for case, index, value in (("inf at 4,63,60,10", (4, 63, 60, 10), np.inf), ("inf at 7,63,60,10", (7, 63, 60, 10), np.inf),
                           ("inf at 0,63,10,10", (0, 63, 10, 10), np.inf), ("nan at 2,5,7,9", (2, 5, 7, 9), np.nan)):
    bad = x.copy()
    bad[index] = value
    named["conv2d " + case] = op_named(lambda: T.conv2d(Tensor(bad), Tensor(k), 1, 1))
del x, bad

image = g.standard_normal((2, 3, 8, 8))
for value in (np.nan, np.inf):
    bad = image.copy()
    bad[1, 2, 3, 4] = value
    named[f"cnn_down image {value}"] = op_named(lambda: B.cnn_down(Tensor(bad), B.make_cnn_down_params(g, 3, 8)))

cases = []  # (case, the kernel that gets a NaN, the block call)
p = B.make_cnn_down_params(g, 3, 8)
cases.append(("cnn_down kernel", p["kernel"], lambda p=p: B.cnn_down(Tensor(image), p)))
for name in ("expand_kernel", "dw_kernel", "project_kernel"):
    p = B.make_mbconv_params(g, 3, 8, 2)
    cases.append(("mbconv " + name, p[name], lambda p=p: B.mbconv(Tensor(image), p, 2)))
f1, f2, skip = g.standard_normal((2, 8, 4, 4)), g.standard_normal((2, 16, 4, 4)), g.standard_normal((2, 8, 8, 8))
layer = D.make_dac_layer(g, 8, 16, 16, 0)
cases.append(("dac_fuse kernel", layer.kernel, lambda: D.dac_fuse(Tensor(f1), Tensor(f2), layer, B.SimamConfig())))
for name in ("up_kernel", "skip_kernel"):
    p = B.make_decoder_params(g, 16, 8, 8)
    cases.append(("decoder_block " + name, p[name], lambda p=p: B.decoder_block(Tensor(f2), Tensor(skip), p)))
for case, kernel, call in cases:
    kernel.data.flat[0] = np.nan
    named[case] = op_named(call)
print(json.dumps(named))
"""


def test_non_finite_conv_outputs_raise_with_two_blas_threads():
    """With two BLAS threads set before numpy loads, every non-finite conv output raises a
    NonFiniteError naming the conv: an inf against a zero tap at three positions of a large
    input, a NaN input, a NaN or inf image, and a NaN in one kernel of each block kind.

    A check of floating-point flags misses a NaN input or kernel at any thread count, since NaN
    sets no flag, and an inf whose GEMM runs on a worker thread, whose flags never reach the
    caller. The first two inf positions show that second gap only where OpenBLAS runs two
    threads, so on a host with fewer than 2 cores they raise under either check."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONWARNINGS="error", PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", _TWO_THREAD_PROBE], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    named = json.loads(run.stdout)
    expected = {case: "upsample_conv2d" if case == "decoder_block up_kernel" else "conv2d" for case in named}
    assert len(named) == 13 and named == expected


@pytest.mark.parametrize("call,error,op", [
    (lambda: T.reshape(Tensor(np.ones(4)), (-2, -2)), ShapeError, "reshape"),  # product 4, as the input's
    (lambda: T.reshape(Tensor(np.ones(4)), (-1, -4)), ShapeError, "reshape"),
    (lambda: T.reshape(Tensor(np.ones(4)), (-1, 4)), ShapeError, "reshape"),
    (lambda: T.reshape(Tensor(np.ones((2, 4))), (4.9, 2)), ShapeError, "reshape"),  # int() would truncate to 4
    (lambda: T.softmax(Tensor(np.ones((2, 3))), axis=1.0), ShapeError, "softmax"),
    (lambda: T.transpose(Tensor(np.ones((2, 3))), (1.0, 0)), ShapeError, "transpose"),
    (lambda: T.concat([Tensor(np.ones((2, 3)))] * 2, axis=1.0), ShapeError, "concat"),
    (lambda: T.conv2d(Tensor(np.ones((1, 1, 5, 5))), Tensor(np.ones((1, 1, 3, 3))), stride=1.5), ShapeError, "conv2d"),
    (lambda: T.conv2d(Tensor(np.ones((1, 1, 5, 5))), Tensor(np.ones((1, 1, 3, 3))), stride=2.0), ShapeError, "conv2d"),
    (lambda: T.conv2d(Tensor(np.ones((1, 1, 5, 5))), Tensor(np.ones((1, 1, 3, 3))), padding=0.5), ShapeError, "conv2d"),
    (lambda: T.affine_norm(Tensor(np.ones((1, 4, 2, 2))), Tensor(np.ones(4)), Tensor(np.zeros(4)), 2.0,
                           op="group_norm"), ShapeError, "group_norm"),
    (lambda: T.affine_norm(Tensor(np.ones((1, 4, 2, 2))), Tensor(np.ones(4)), Tensor(np.zeros(4)), np.float64(2.0),
                           op="group_norm"), ShapeError, "group_norm"),
    (lambda: T.affine_norm(Tensor(np.ones((3, 4))), Tensor(np.ones(4)), Tensor(np.zeros(4)), 1.0, op="layer_norm"),
     ShapeError, "layer_norm"),
    (lambda: grad_check(T.total_sum, Tensor(np.ones(2)), eps=0.0), DomainError, None),
    (lambda: grad_check(T.total_sum, Tensor(np.ones(2)), eps=-1e-5), DomainError, None),
    (lambda: grad_check(T.total_sum, Tensor(np.ones(2)), eps=np.nan), DomainError, None),
    (lambda: grad_check(T.total_sum, Tensor(np.ones(2)), eps=np.inf), DomainError, None),
    (lambda: B.group_norm(Tensor(np.ones((2, 4, 0, 0))), Tensor(np.ones(4)), Tensor(np.zeros(4))),
     ShapeError, "group_norm"),
    (lambda: B.group_norm(Tensor(np.ones((0, 4, 2, 2))), Tensor(np.ones(4)), Tensor(np.zeros(4))),
     ShapeError, "group_norm"),
    (lambda: B.layer_norm(Tensor(np.ones((3, 0))), Tensor(np.ones(0)), Tensor(np.zeros(0))), ShapeError, "layer_norm"),
    (lambda: B.layer_norm(Tensor(np.ones((0, 4))), Tensor(np.ones(4)), Tensor(np.zeros(4))), ShapeError, "layer_norm"),
    (lambda: T.softmax(Tensor(np.ones((2, 0))), axis=1), ShapeError, "softmax"),
    (lambda: T.softmax(Tensor([[np.nan, 1.0]]), axis=1), NonFiniteError, "softmax"),
    (lambda: T.softmax(Tensor([[2.0], [np.inf]]), axis=0), NonFiniteError, "softmax"),
    (lambda: L.ce_per_sample(Tensor(np.ones((0, 2, 4, 4))), np.ones((0, 4, 4))), ShapeError, "ce_per_sample"),
    (lambda: L.ce_per_sample(Tensor(np.ones((2, 2, 0, 4))), np.ones((2, 0, 4))), ShapeError, "ce_per_sample"),
    (lambda: L.focal_loss(Tensor(np.ones((0, 2, 4, 4))), np.ones((0, 4, 4)), L.LossConfig()), ShapeError, "focal_loss"),
    (lambda: L.focal_loss(Tensor(np.ones((2, 2, 4, 0))), np.ones((2, 4, 0)), L.LossConfig()), ShapeError, "focal_loss"),
    (lambda: L.dice_loss(Tensor(np.ones((0, 2, 4, 4))), np.ones((0, 4, 4)), L.LossConfig()), ShapeError, "dice_loss"),
    (lambda: T.total_mean(Tensor(np.ones((2, 0)))), ShapeError, "total_mean"),
    (lambda: T.matmul(Tensor(np.ones((2, 0))), Tensor(np.ones((0, 3)))), ShapeError, "matmul"),
    (lambda: T.upsample_conv2d(Tensor(np.ones((1, 2, 0, 3))), Tensor(np.ones((4, 2, 3, 3)))), ShapeError,
     "upsample_conv2d"),
    (lambda: T.conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 0, 0)))), ShapeError, "conv2d"),
    (lambda: T.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((3, 2, 0, 0)))), ShapeError, "conv2d"),
    (lambda: T.conv2d(Tensor(np.ones((0, 2, 4, 4))), Tensor(np.ones((3, 2, 3, 3))), 1, 1), ShapeError, "conv2d"),
    (lambda: T.conv2d(Tensor(np.ones((1, 0, 4, 4))), Tensor(np.ones((3, 0, 3, 3))), 1, 1), ShapeError, "conv2d"),
    (lambda: T.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((0, 2, 3, 3))), 1, 1), ShapeError, "conv2d"),
    (lambda: T.upsample_conv2d(Tensor(np.ones((0, 2, 4, 4))), Tensor(np.ones((4, 2, 3, 3)))), ShapeError,
     "upsample_conv2d"),
    (lambda: T.upsample_conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((0, 2, 3, 3)))), ShapeError,
     "upsample_conv2d"),
    (lambda: B.group_norm(Tensor(_poisoned((2, 4, 3, 3), np.nan)), Tensor(np.ones(4)), Tensor(np.zeros(4))),
     NonFiniteError, "group_norm"),
    (lambda: B.group_norm(Tensor(_poisoned((2, 4, 3, 3), np.inf)), Tensor(np.ones(4)), Tensor(np.zeros(4))),
     NonFiniteError, "group_norm"),
    (lambda: B.group_norm(Tensor(_poisoned((2, 4, 3, 3), np.inf, -np.inf)), Tensor(np.ones(4)), Tensor(np.zeros(4))),
     NonFiniteError, "group_norm"),
    (lambda: B.layer_norm(Tensor(_poisoned((3, 4), np.nan)), Tensor(np.ones(4)), Tensor(np.zeros(4))),
     NonFiniteError, "layer_norm"),
    (lambda: B.layer_norm(Tensor(_poisoned((3, 4), np.inf)), Tensor(np.ones(4)), Tensor(np.zeros(4))),
     NonFiniteError, "layer_norm"),
    (lambda: B.group_norm(Tensor(_poisoned((2, 4, 3, 3), 1e160, -1e160)), Tensor(np.ones(4)), Tensor(np.zeros(4))),
     NonFiniteError, "group_norm"),
    (lambda: B.layer_norm(Tensor(_poisoned((3, 4), 1e160, -1e160)), Tensor(np.ones(4)), Tensor(np.zeros(4))),
     NonFiniteError, "layer_norm"),
    (lambda: B.simam(Tensor(_poisoned((2, 4, 3, 3), np.nan)), B.SimamConfig()), NonFiniteError, "simam"),
    (lambda: B.simam(Tensor(_poisoned((2, 4, 3, 3), np.inf)), B.SimamConfig()), NonFiniteError, "simam"),
    (lambda: B.simam(Tensor(_poisoned((2, 4, 3, 3), np.inf, -np.inf)), B.SimamConfig()), NonFiniteError, "simam"),
    (lambda: B.simam(Tensor(_poisoned((2, 4, 3, 3), 1e200, -1e200)), B.SimamConfig()), NonFiniteError, "simam"),
    (lambda: B.simam(Tensor(_poisoned((2, 4, 3, 3), 1e154, -1e154)), B.SimamConfig()), NonFiniteError, "simam"),
    (lambda: L.miou(np.zeros((0, 4, 4)), np.zeros((0, 4, 4))), ShapeError, "miou"),
    (lambda: L.dsc(np.zeros((2, 4, 0)), np.zeros((2, 4, 0))), ShapeError, "dsc"),
    (lambda: L.total_loss(Tensor(np.ones(2)), Tensor(1.0), Tensor(1.0), L.LossConfig()), ShapeError, "total_loss"),
], ids=["reshape-2-2", "reshape-1-4", "reshape-1_4", "reshape-4.9", "softmax-axis1.0", "transpose-axis1.0",
        "concat-axis1.0", "conv-stride1.5", "conv-stride2.0", "conv-pad0.5", "group-norm-2.0", "affine-norm-np2.0",
        "layer-norm-1.0", "grad-check-eps0", "grad-check-eps-neg", "grad-check-eps-nan", "grad-check-eps-inf", "group-norm-empty", "group-norm-no-samples",
        "layer-norm-empty", "layer-norm-no-tokens", "softmax-empty-axis",
        "softmax-nan", "softmax-inf", "ce-no-samples", "ce-no-pixels", "focal-no-samples", "focal-no-pixels",
        "dice-no-samples", "total-mean-empty", "matmul-inner-0", "upsample-conv-empty",
        "conv-kernel-0x0", "conv-kernel-3x2x0x0", "conv-no-samples", "conv-no-channels", "conv-no-outputs",
        "upsample-conv-no-samples", "upsample-conv-no-outputs", "group-norm-nan", "group-norm-inf",
        "group-norm-inf-minus-inf", "layer-norm-nan", "layer-norm-inf", "group-norm-variance-overflow",
        "layer-norm-variance-overflow", "simam-nan", "simam-inf",
        "simam-inf-minus-inf", "simam-overflow", "simam-overflow-in-sum",
        "miou-no-samples", "dsc-no-pixels", "total-loss-non-scalar"])
def test_structured_errors_at_the_boundary(call, error, op):
    with pytest.raises(error) as err:
        call()
    if op is not None:  # a ShapeError carries the op; other errors name it first in the message
        assert getattr(err.value, "op", str(err.value).partition(":")[0]) == op
    if error is NonFiniteError:
        assert ", for inputs (" in str(err.value)


def test_forward_determinism():
    g = rng(14)
    x, k = g.normal(size=(1, 2, 6, 6)), g.normal(size=(3, 2, 3, 3))
    a = T.conv2d(Tensor(x), Tensor(k), 2, 1).data
    b = T.conv2d(Tensor(x.copy()), Tensor(k.copy()), 2, 1).data
    assert np.array_equal(a, b)

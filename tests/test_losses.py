import math

import numpy as np
import pytest

from causalseg import tensor as T
from causalseg.errors import ConfigError, DomainError, NonFiniteError, ShapeError
from causalseg.losses import (
    PROB_EPS,
    LossConfig,
    ce_per_sample,
    dice_loss,
    dsc,
    focal_loss,
    miou,
    total_loss,
)
from causalseg.tensor import Tape, Tensor, backward
from gradcheck import grad_check


def prob_map(fg_probs):
    """Stack a foreground-probability array into an (N,2,H,W) map."""
    fg = np.asarray(fg_probs, dtype=np.float64)
    return Tensor(np.stack([1.0 - fg, fg], axis=1))


def random_probs(seed, n=2, h=4, w=4, lo=0.2, hi=0.8):
    g = np.random.default_rng(seed)
    fg = g.uniform(lo, hi, size=(n, h, w))
    return np.stack([1.0 - fg, fg], axis=1)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        target = np.array([[[1, 0], [0, 1]]])
        fg = target.astype(float)
        out = ce_per_sample(prob_map(fg), target)
        assert out.shape == (1,)
        assert out.data[0] == pytest.approx(1e-7, rel=1e-1)

    def test_uniform_prediction(self):
        target = np.zeros((3, 2, 2), dtype=int)
        out = ce_per_sample(prob_map(np.full((3, 2, 2), 0.5)), target)
        np.testing.assert_allclose(out.data, math.log(2.0), atol=1e-12)

    def test_two_pixel_hand_value(self):
        # true-class probs (0.5, 1.0): (ln 2 + ~0) / 2
        target = np.array([[[1, 1]]])
        fg = np.array([[[0.5, 1.0]]])
        out = ce_per_sample(prob_map(fg), target)
        assert out.data[0] == pytest.approx((math.log(2.0) + 1e-7) / 2, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ce_per_sample(prob_map(np.full((1, 2, 2), 0.5)), np.zeros((1, 3, 3), dtype=int))

    def test_nonnegative(self):
        g = np.random.default_rng(0)
        probs = Tensor(random_probs(1))
        target = g.integers(0, 2, size=(2, 4, 4))
        assert np.all(ce_per_sample(probs, target).data >= 0.0)


class TestDice:
    def test_perfect_overlap_near_zero(self):
        target = np.array([[[1, 0], [0, 1]]])
        loss = dice_loss(prob_map(target.astype(float)), target, LossConfig())
        assert abs(loss.item()) < 1e-6

    def test_disjoint_near_one(self):
        target = np.array([[[1, 0], [0, 0]]])
        fg = np.array([[[0.0, 1.0], [0.0, 0.0]]])
        loss = dice_loss(prob_map(fg), target, LossConfig())
        assert loss.item() == pytest.approx(1.0, abs=1e-5)

    def test_half_overlap_counting_oracle(self):
        # 100 predicted fg, 100 true fg, 50 shared: 1 - 2*50/200
        pred = np.zeros((1, 20, 20))
        pred[0, :5, :] = 1.0  # rows 0-4: 100 pixels
        target = np.zeros((1, 20, 20), dtype=int)
        target[0, 2:7, :] = 1  # rows 2-6: 100 pixels, 60... rows 2-4 shared = 60
        # adjust to exactly 50 shared: pred rows 0-4 (100 px), gt rows 2.5 impossible; use columns
        pred = np.zeros((1, 20, 20))
        pred[0, :10, :10] = 1.0  # 100
        target = np.zeros((1, 20, 20), dtype=int)
        target[0, 5:15, :10] = 1  # 100, overlap rows 5-9 => 50
        loss = dice_loss(prob_map(pred), target, LossConfig())
        assert loss.item() == pytest.approx(0.5, abs=1e-6)

    def test_range(self):
        g = np.random.default_rng(2)
        for seed in range(5):
            probs = Tensor(random_probs(seed))
            target = g.integers(0, 2, size=(2, 4, 4))
            val = dice_loss(probs, target, LossConfig()).item()
            assert 0.0 <= val < 1.0


class TestFocal:
    def test_certain_prediction_vanishes(self):
        target = np.array([[[1, 0]]])
        fg = target.astype(float)
        loss = focal_loss(prob_map(fg), target, LossConfig())
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_point_value_half(self):
        # -0.8 * (1-0.5)^2 * ln 0.5
        target = np.array([[[1]]])
        loss = focal_loss(prob_map(np.array([[[0.5]]])), target, LossConfig())
        assert loss.item() == pytest.approx(0.138629, abs=1e-6)

    def test_point_value_nine_tenths(self):
        target = np.array([[[1]]])
        loss = focal_loss(prob_map(np.array([[[0.9]]])), target, LossConfig())
        assert loss.item() == pytest.approx(0.000843, abs=1e-6)

    def test_background_alpha_weighting(self):
        # background pixel with p_t = 0.5 gets weight 1 - alpha_t
        target = np.array([[[0]]])
        loss = focal_loss(prob_map(np.array([[[0.5]]])), target, LossConfig())
        expected = -0.2 * 0.25 * math.log(0.5)
        assert loss.item() == pytest.approx(expected, abs=1e-9)

    def test_gamma_zero_reduces_to_weighted_ce(self):
        cfg = LossConfig(alpha_t=0.5, gamma=0.0)
        probs_arr = random_probs(3)
        target = np.random.default_rng(4).integers(0, 2, size=(2, 4, 4))
        fl = focal_loss(Tensor(probs_arr), target, cfg).item()
        ce = ce_per_sample(Tensor(probs_arr), target).data.mean()
        assert fl == pytest.approx(0.5 * ce, abs=1e-9)


class TestTotalLoss:
    def test_affine_combination(self):
        out = total_loss(Tensor(1.0), Tensor(0.4), Tensor(0.2), LossConfig())
        assert out.item() == pytest.approx(1.3, abs=1e-12)

    def test_boundary_lambdas(self):
        cfg1 = LossConfig(lam=1.0)
        cfg0 = LossConfig(lam=0.0)
        assert total_loss(Tensor(1.0), Tensor(0.4), Tensor(0.2), cfg1).item() == pytest.approx(1.4)
        assert total_loss(Tensor(1.0), Tensor(0.4), Tensor(0.2), cfg0).item() == pytest.approx(1.2)

    def test_linearity(self):
        cfg = LossConfig()
        base = total_loss(Tensor(1.0), Tensor(2.0), Tensor(3.0), cfg).item()
        bumped = total_loss(Tensor(1.0), Tensor(2.0 + 2.0), Tensor(3.0), cfg).item()
        assert bumped - base == pytest.approx(cfg.lam * 2.0, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError) as exc:
            total_loss(Tensor(1.0), Tensor(float("nan")), Tensor(0.2), LossConfig())
        assert "l_dice" in str(exc.value)


class TestMetrics:
    def test_perfect_prediction(self):
        m = np.random.default_rng(5).integers(0, 2, size=(6, 6))
        assert miou(m, m) == 100.0
        if m.sum() > 0:
            assert dsc(m, m) == 100.0

    def test_counting_oracle_4x4(self):
        gt = np.zeros((4, 4), dtype=int)
        gt[0, :4] = 1
        pred = np.zeros((4, 4), dtype=int)
        pred[0, 2:4] = 1
        pred[1, 0:2] = 1
        # fg: inter 2, union 6; bg: inter 10, union 14
        assert miou(pred, gt) == pytest.approx(100 * (2 / 6 + 10 / 14) / 2, abs=1e-4)
        assert dsc(pred, gt) == pytest.approx(50.0, abs=1e-9)

    def test_all_background(self):
        z = np.zeros((3, 3), dtype=int)
        assert miou(z, z) == 100.0
        assert dsc(z, z) == 100.0

    def test_disjoint_fg(self):
        a = np.zeros((2, 2), dtype=int)
        a[0, 0] = 1
        b = np.zeros((2, 2), dtype=int)
        b[1, 1] = 1
        assert dsc(a, b) == 0.0

    def test_non_binary_rejected(self):
        with pytest.raises(DomainError):
            miou(np.full((2, 2), 2), np.zeros((2, 2)))

    def test_brute_force_sample(self):
        # independent oracle: set counting on bit-packed 3x3 masks
        g = np.random.default_rng(6)
        for _ in range(300):
            p_bits, g_bits = int(g.integers(0, 512)), int(g.integers(0, 512))
            pred = np.array([(p_bits >> i) & 1 for i in range(9)]).reshape(3, 3)
            gt = np.array([(g_bits >> i) & 1 for i in range(9)]).reshape(3, 3)
            inter = bin(p_bits & g_bits).count("1")
            pu, gu = bin(p_bits).count("1"), bin(g_bits).count("1")
            union = pu + gu - inter
            fg_iou = 1.0 if union == 0 else inter / union
            bg_inter = 9 - union
            bg_union = (9 - pu) + (9 - gu) - bg_inter
            bg_iou = 1.0 if bg_union == 0 else bg_inter / bg_union
            expected_miou = 100.0 * (fg_iou + bg_iou) / 2.0
            expected_dsc = 100.0 if pu + gu == 0 else 100.0 * 2 * inter / (pu + gu)
            assert miou(pred, gt) == pytest.approx(expected_miou, abs=1e-12)
            assert dsc(pred, gt) == pytest.approx(expected_dsc, abs=1e-12)


class TestLossGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_grad_checks(self, seed):
        target = np.random.default_rng(seed).integers(0, 2, size=(2, 3, 3))
        probs_arr = random_probs(seed + 10, n=2, h=3, w=3, lo=0.25, hi=0.75)
        cfg = LossConfig()
        for fn in (
            lambda t: T.total_sum(ce_per_sample(t, target)),
            lambda t: dice_loss(t, target, cfg),
            lambda t: focal_loss(t, target, cfg),
        ):
            assert grad_check(fn, Tensor(probs_arr), eps=1e-5) < 1e-8


# Each loss term by the name its errors carry.
TERMS = {
    "ce_per_sample": ce_per_sample,
    "dice_loss": lambda probs, target: dice_loss(probs, target, LossConfig()),
    "focal_loss": lambda probs, target: focal_loss(probs, target, LossConfig()),
}


class TestOneNode:
    @pytest.mark.parametrize("name", TERMS)
    def test_one_node_with_a_gradient_none_without(self, name):
        target = np.random.default_rng(30).integers(0, 2, size=(2, 4, 4))
        for requires_grad, nodes in ((True, 1), (False, 0)):
            probs = Tensor(random_probs(31), requires_grad=requires_grad)
            with Tape() as tape:
                out = TERMS[name](probs, target)
            assert len(tape) == nodes
            assert out.requires_grad is requires_grad

    @pytest.mark.parametrize("name", ["ce_per_sample", "focal_loss"])
    def test_zero_gradient_outside_the_clamp(self, name):
        # True-class probabilities at and beyond each end of [PROB_EPS, 1 - PROB_EPS], and two inside:
        # on channel 1 in the nucleus row, on channel 0 in the background row.
        p_true = np.array([0.0, PROB_EPS / 2, PROB_EPS, 0.3, 0.7, 1.0 - PROB_EPS, 1.0])
        inside = np.array([False, False, False, True, True, False, False])
        target = np.array([[np.ones(7), np.zeros(7)]], dtype=int)
        arr = np.full((1, 2, 2, 7), 0.5)
        arr[0, 1, 0], arr[0, 0, 1] = p_true, p_true
        probs = Tensor(arr, requires_grad=True)
        with Tape() as tape:
            loss = T.total_sum(TERMS[name](probs, target))
        grad = backward(loss, tape)[probs]
        assert np.all(grad[0, 0, 0] == 0.0) and np.all(grad[0, 1, 1] == 0.0)  # the other class's channel
        true_grad = np.stack([grad[0, 1, 0], grad[0, 0, 1]])
        assert np.all(true_grad[:, ~inside] == 0.0)
        assert np.all(true_grad[:, inside] < 0.0)


class TestNonFiniteProbabilities:
    @pytest.mark.parametrize("channel", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", TERMS)
    def test_rejected_by_name(self, name, bad, channel):
        probs = random_probs(32)
        probs[1, channel, 2, 3] = bad
        target = np.random.default_rng(33).integers(0, 2, size=(2, 4, 4))
        with pytest.raises(NonFiniteError) as exc:
            TERMS[name](Tensor(probs), target)
        assert name in str(exc.value)


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        LossConfig(alpha_t=1.5)
    with pytest.raises(ConfigError):
        LossConfig(lam=1.2)
    with pytest.raises(ConfigError):
        LossConfig(dice_smooth=0.0)
    # Non-finite values would make the focal or dice value or gradient NaN.
    for bad in ({"gamma": np.nan}, {"gamma": np.inf}, {"dice_smooth": np.nan}, {"dice_smooth": np.inf}):
        with pytest.raises(ConfigError):
            LossConfig(**bad)

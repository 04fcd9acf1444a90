import numpy as np
import pytest

from causalseg import tensor as T
from causalseg.cim import (
    CimConfig,
    RFFBank,
    SampleWeights,
    cim_loss,
    extract_feature_vars,
    independence_objective,
    learn_weights,
    make_banks,
    objective_graph,
    rff_map,
)
from causalseg.errors import DegenerateInputError, ShapeError, SimplexError
from causalseg.tensor import Tape, Tensor, grad_check


def rng(seed=0):
    return np.random.default_rng(seed)


def simplex_weights(n, seed):
    x = rng(seed).uniform(0.1, 2.0, n)
    return SampleWeights(n * x / x.sum(), n)


def brute_force_weighted_cov(u, v, w):
    """Literal double-loop evaluation of the weighted centered outer-product sum."""
    n, du = u.shape
    dv = v.shape[1]
    mu_u = sum(w[j] * u[j] for j in range(n)) / n
    mu_v = sum(w[j] * v[j] for j in range(n)) / n
    total = np.zeros((du, dv))
    for i in range(n):
        total += np.outer(w[i] * u[i] - mu_u, w[i] * v[i] - mu_v)
    return total / (n - 1)


def pairwise_objective(features, banks, w):
    """Oracle: sum over feature pairs i < j of the squared Frobenius norm of
    their brute-force weighted cross-covariance."""
    m = features.shape[1]
    lifted = [rff_map(features[:, k], banks[k]) for k in range(m)]
    return sum(float(np.sum(brute_force_weighted_cov(lifted[i], lifted[j], w) ** 2))
               for i in range(m) for j in range(i + 1, m))


class TestRFF:
    def test_bank_reproducible(self):
        a, b = RFFBank(5, seed=42), RFFBank(5, seed=42)
        np.testing.assert_array_equal(a.omega, b.omega)
        np.testing.assert_array_equal(a.phi, b.phi)

    def test_mapping_bounded(self):
        bank = RFFBank(8, seed=1)
        out = rff_map(rng(2).normal(size=50) * 10, bank)
        assert out.shape == (50, 8)
        assert np.all(np.abs(out) <= np.sqrt(2.0) + 1e-12)

    def test_zero_frequency_constant_columns(self):
        bank = RFFBank(4, seed=3)
        bank.omega[:] = 0.0
        out = rff_map(rng(4).normal(size=10), bank)
        assert out.shape == (10, 4)
        # assert_allclose broadcasts only 0-d operands, so repeat the row explicitly.
        expected = np.broadcast_to(np.sqrt(2.0) * np.cos(bank.phi), out.shape)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_zero_input_row(self):
        bank = RFFBank(4, seed=5)
        out = rff_map(np.zeros(3), bank)
        expected = np.sqrt(2.0) * np.cos(bank.phi)
        for row in out:
            np.testing.assert_allclose(row, expected, atol=1e-15)

    def test_matches_scalar_reference(self):
        bank = RFFBank(6, seed=6)
        x = rng(7).normal(size=9)
        out = rff_map(x, bank)
        for i in range(9):
            for j in range(6):
                ref = np.sqrt(2.0) * np.cos(bank.omega[j] * x[i] + bank.phi[j])
                assert abs(out[i, j] - ref) < 1e-12


class TestCrossCov:
    """The objective against the pairwise cross-covariance definition."""

    def test_brute_force_double_loop(self):
        for n, m in [(2, 2), (2, 5), (4, 2), (5, 3), (9, 4), (12, 16)]:
            features = rng(14 + n).normal(size=(n, m))
            banks = make_banks(m, CimConfig(seed=n))
            w = simplex_weights(n, seed=16 + m)
            expected = pairwise_objective(features, banks, w.w)
            assert independence_objective(features, banks, w) == pytest.approx(expected, rel=1e-12)

    def test_unit_weights_reduce_to_unweighted(self):
        for seed in range(10):
            features = rng(seed).normal(size=(7, 3))
            banks = make_banks(3, CimConfig(seed=seed))
            lifted = [rff_map(features[:, k], banks[k]) for k in range(3)]
            cov = np.cov(np.hstack(lifted), rowvar=False)  # unweighted, divisor n-1
            d = banks[0].n_f
            expected = sum(np.sum(cov[d * i:d * i + d, d * j:d * j + d] ** 2)
                           for i in range(3) for j in range(i + 1, 3))
            got = independence_objective(features, banks, SampleWeights.uniform(7))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_identical_rows_zero(self):
        # A feature with the same value in every row has a constant lift, so
        # its pairs contribute nothing under unit weights.
        features = rng(8).normal(size=(5, 3))
        features[:, 0] = 0.7
        banks = make_banks(3, CimConfig())
        w = SampleWeights.uniform(5)
        rest = independence_objective(features[:, 1:], banks[1:], w)
        assert independence_objective(features, banks, w) == pytest.approx(rest, rel=1e-12)

    def test_hand_variance(self):
        u = np.array([[1.0], [2.0], [3.0]])  # variance 1, so S is all ones
        assert objective_graph([u, u], Tensor(np.ones(3))).item() == pytest.approx(1.0, abs=1e-15)

    def test_frobenius_symmetry(self):
        u, v = rng(10).normal(size=(6, 3)), rng(11).normal(size=(6, 5))
        w = Tensor(simplex_weights(6, seed=12).w)
        expected = np.sum(brute_force_weighted_cov(u, v, w.data) ** 2)
        assert objective_graph([u, v], w).item() == pytest.approx(expected, rel=1e-12)
        assert objective_graph([v, u], w).item() == pytest.approx(expected, rel=1e-12)

    def test_constant_weighted_rows_zero(self):
        w = simplex_weights(4, seed=12)
        u = 1.0 / w.w[:, None] * np.ones((4, 3))
        v = rng(13).normal(size=(4, 2))
        assert objective_graph([u, v], Tensor(w.w)).item() == pytest.approx(0.0, abs=1e-24)

    def test_too_few_rows(self):
        with pytest.raises(DegenerateInputError):
            independence_objective(np.ones((1, 2)), make_banks(2, CimConfig()), SampleWeights.uniform(1))

    def test_off_simplex_rejected(self):
        w = SampleWeights.uniform(3)
        w.w = np.array([1.0, 1.0, 2.0])  # sums to 4 with n=3
        with pytest.raises(SimplexError):
            independence_objective(np.ones((3, 2)), make_banks(2, CimConfig()), w)

    def test_negative_weight_rejected(self):
        with pytest.raises(SimplexError):
            SampleWeights(np.array([-0.5, 2.0, 1.5]), 3)


class TestObjective:
    def test_identical_samples_zero(self):
        features = np.tile(rng(17).normal(size=(1, 3)), (6, 1))
        banks = make_banks(3, CimConfig())
        assert independence_objective(features, banks, SampleWeights.uniform(6)) == pytest.approx(0.0, abs=1e-20)

    def test_duplicate_feature_scores_higher(self):
        cfg = CimConfig(seed=0)
        g = rng(18)
        a = g.standard_normal(50)
        dup = np.stack([a, a], axis=1)
        indep = np.stack([a, g.standard_normal(50)], axis=1)
        banks = make_banks(2, cfg)
        w = SampleWeights.uniform(50)
        assert independence_objective(dup, banks, w) > independence_objective(indep, banks, w)

    def test_order_invariance(self):
        features = rng(19).normal(size=(8, 2))
        banks = make_banks(2, CimConfig())
        w = simplex_weights(8, seed=20)
        fwd = independence_objective(features, banks, w)
        rev = independence_objective(features[:, ::-1], banks[::-1], w)
        assert fwd == pytest.approx(rev, abs=1e-12)

    def test_single_feature_rejected(self):
        with pytest.raises(DegenerateInputError):
            independence_objective(np.ones((4, 1)), make_banks(1, CimConfig()), SampleWeights.uniform(4))

    def test_graph_matches_numpy(self):
        features = rng(21).normal(size=(6, 3))
        banks = make_banks(3, CimConfig())
        w = simplex_weights(6, seed=22)
        lifted = [rff_map(features[:, k], banks[k]) for k in range(3)]
        with Tape():
            graph_val = objective_graph(lifted, Tensor(w.w, requires_grad=True)).item()
        assert graph_val == pytest.approx(pairwise_objective(features, banks, w.w), rel=1e-12)

    def test_weighted_cov_grad_check(self):
        # With m=2 the objective is the squared Frobenius norm of a single
        # weighted cross-covariance; the blocks have unequal widths.
        u, v = rng(23).normal(size=(5, 3)), rng(24).normal(size=(5, 4))
        w0 = simplex_weights(5, seed=25)
        assert grad_check(lambda t: objective_graph([u, v], t), Tensor(w0.w)) < 1e-4

    def test_objective_graph_grad_check(self):
        features = rng(26).normal(size=(5, 3))
        banks = make_banks(3, CimConfig())
        lifted = [rff_map(features[:, k], banks[k]) for k in range(3)]
        w0 = simplex_weights(5, seed=27)
        assert grad_check(lambda t: objective_graph(lifted, t), Tensor(w0.w)) < 1e-4

    def test_node_count_independent_of_m(self):
        counts = []
        for m in (2, 16):
            lifted = [rff_map(rng(m).normal(size=8), bank) for bank in make_banks(m, CimConfig())]
            with Tape() as tape:
                objective_graph(lifted, Tensor(np.ones(8), requires_grad=True))
            counts.append(len(tape))
        assert counts[0] == counts[1]


class TestLearnWeights:
    def test_uniform_start_exact(self):
        # 49 * (1/49) rounds below 1, so a start at n * softmax(0) is not exact.
        cfg = CimConfig(inner_steps=1, inner_lr=1e-30)
        w = learn_weights(rng(28).normal(size=(49, 2)), cfg)
        np.testing.assert_array_equal(w.w, np.ones(49))

    def test_never_worse_than_uniform(self):
        for seed in range(25):
            features = rng(seed).normal(size=(6, 3))
            cfg = CimConfig(seed=seed)
            w = learn_weights(features, cfg)
            banks = make_banks(3, cfg)
            obj = independence_objective(features, banks, w)
            uni = independence_objective(features, banks, SampleWeights.uniform(6))
            assert obj <= uni + 1e-15
            assert np.all(w.w >= 0.0)
            assert abs(w.w.sum() - 6.0) <= 1e-9

    def test_deterministic(self):
        features = rng(29).normal(size=(8, 4))
        cfg = CimConfig(seed=7)
        a = learn_weights(features, cfg)
        b = learn_weights(features, cfg)
        np.testing.assert_array_equal(a.w, b.w)

    def test_descends_on_dependent_instance(self):
        g = rng(30)
        a = g.standard_normal(8)
        features = np.stack([a, a + 0.05 * g.standard_normal(8)], axis=1)
        cfg = CimConfig(seed=3, inner_steps=50, inner_lr=0.2)
        w = learn_weights(features, cfg)
        banks = make_banks(2, cfg)
        assert independence_objective(features, banks, w) < independence_objective(
            features, banks, SampleWeights.uniform(8))


class TestFeatureVars:
    def test_gap_of_constant_channels(self):
        f5 = np.zeros((2, 4, 2, 2))
        for c in range(4):
            f5[:, c] = c + 1
        out = extract_feature_vars(f5, CimConfig(m_features=16), seed=0)
        np.testing.assert_allclose(out, [[1, 2, 3, 4], [1, 2, 3, 4]], atol=1e-15)

    def test_selection_deterministic(self):
        f5 = rng(31).normal(size=(3, 8, 2, 2))
        cfg = CimConfig(m_features=2)
        a = extract_feature_vars(f5, cfg, seed=5)
        b = extract_feature_vars(f5, cfg, seed=5)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3, 2)

    def test_gap_arithmetic(self):
        f5 = np.array([[[[1.0, 3.0], [5.0, 7.0]]]] * 2)
        out = extract_feature_vars(f5, CimConfig(m_features=1), seed=0)
        np.testing.assert_allclose(out, 4.0)

    def test_single_sample_rejected(self):
        with pytest.raises(DegenerateInputError):
            extract_feature_vars(np.ones((1, 4, 2, 2)), CimConfig(), seed=0)


class TestCimLoss:
    def test_unit_weights_is_mean_ce(self):
        ce = Tensor(np.array([0.3, 0.9, 0.6]))
        out = cim_loss(ce, SampleWeights.uniform(3))
        assert out.item() == pytest.approx(0.6, abs=1e-15)

    def test_weighted_example(self):
        out = cim_loss(Tensor(np.array([0.5, 0.7])), SampleWeights(np.array([2.0, 0.0]), 2))
        assert out.item() == pytest.approx(0.5, abs=1e-15)

    def test_zero_ce(self):
        out = cim_loss(Tensor(np.zeros(4)), simplex_weights(4, seed=32))
        assert out.item() == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            cim_loss(Tensor(np.zeros(3)), SampleWeights.uniform(4))

    def test_no_gradient_into_weights(self):
        ce = Tensor(np.array([0.5, 0.7]), requires_grad=True)
        w = SampleWeights(np.array([2.0, 0.0]), 2)
        assert grad_check(lambda t: cim_loss(t, w), ce) < 1e-10

import numpy as np
import pytest

from causalseg import cim
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
from causalseg.errors import ConfigError, DegenerateInputError, NonFiniteError, ShapeError, SimplexError
from causalseg.seeding import mix64
from causalseg.tensor import Tape, Tensor, backward
import composite as C
from gradcheck import grad_check


def rng(seed=0):
    return np.random.default_rng(seed)


def simplex_weights(n, seed):
    x = rng(seed).uniform(0.1, 2.0, n)
    return SampleWeights(n * x / x.sum(), n)


def brute_force_weighted_cov(u, v, w):
    """Literal double-loop cross-covariance of the w-scaled rows, centred without weights."""
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
    their brute-force cross-covariance under the weights."""
    m = features.shape[1]
    lifted = [rff_map(features[:, k], banks[k]) for k in range(m)]
    return sum(float(np.sum(brute_force_weighted_cov(lifted[i], lifted[j], w) ** 2))
               for i in range(m) for j in range(i + 1, m))


def composite_objective(lifted, w):
    """Slow oracle for objective_graph: the same objective as a 12-node
    composite of tape ops, differentiated by each op's own backward."""
    m, n = len(lifted), lifted[0].shape[0]
    z = np.hstack(lifted)
    d = z.shape[1]
    owner = np.repeat(np.arange(m), [u.shape[1] for u in lifted])
    off_block = Tensor((owner[:, None] != owner[None, :]).astype(np.float64))
    wz = T.mul(Tensor(z), T.reshape(w, (n, 1)))
    centred = C.sub(wz, T.reshape(C.mean(wz, (0,)), (1, d)))
    s = T.mul(C.div(T.matmul(T.transpose(centred, (1, 0)), centred), Tensor(float(n - 1))), off_block)
    return T.total_sum(T.mul(s, s)) * 0.5


def taped_learn_weights(features, cfg, objective=objective_graph):
    """Slow oracle for learn_weights: the loop it replaced. Each evaluation
    records softmax, ``* n`` and ``objective`` on a tape of its own, and
    ``backward`` gives theta's gradient; the banks are built and the columns
    lifted one at a time on every call."""
    features = np.asarray(features, dtype=np.float64)
    n, m = features.shape
    banks = make_banks(m, cfg)
    lifted = [rff_map(features[:, k], banks[k]) for k in range(m)]
    theta = Tensor(np.zeros(n), requires_grad=True)
    best_w = np.ones(n)
    for step in range(cfg.inner_steps + 1):
        with Tape() as tape:
            w = T.softmax(theta, axis=0) * float(n)
            obj = objective(lifted, w)
        value = obj.item()
        assert np.isfinite(value)
        if step == 0:
            uniform = best_obj = value
        elif value < best_obj:
            best_obj, best_w = value, w.data
        if step == cfg.inner_steps or uniform == 0.0:
            break
        backward(obj, tape)
        theta.data = theta.data - cim.STEP / uniform * theta.grad
        theta.zero_grad()
    return best_w


def standardised(x):
    return (x - x.mean(axis=0)) / x.std(axis=0)


OTHER_CFG = CimConfig(n_f=3, inner_steps=7, seed=5)


def learner_cases():
    """Features for the learner: 200 standardised (8, 16) draws, as
    extract_feature_vars returns them, then n in {2, 3, 64, 256} rows by
    m in {2, 7, 16} columns, two draws each."""
    cases = [standardised(rng(1000 + seed).normal(size=(8, 16))) for seed in range(200)]
    for n in (2, 3, 64, 256):
        for m in (2, 7, 16):
            cases += [standardised(rng(2000 + 31 * n + m + k).normal(size=(n, m))) for k in range(2)]
    return cases


def value_grad_nodes(objective, lifted, w):
    leaf = Tensor(np.array(w, dtype=np.float64), requires_grad=True)
    with Tape() as tape:
        out = objective(lifted, leaf)
    nodes = len(tape)  # read before backward, which pops every node
    backward(out, tape)
    return out.item(), leaf.grad, nodes


@pytest.mark.parametrize("bad", [{"m_features": 2.5}, {"m_features": 0}, {"n_f": 0}, {"n_f": np.nan},
                                 {"inner_steps": 1.0}, {"inner_steps": -1}, {"seed": 2.5}, {"seed": np.nan}])
def test_config_validation(bad):
    with pytest.raises(ConfigError):
        CimConfig(**bad)


@pytest.mark.parametrize("make", [
    lambda: RFFBank(2.5, 0), lambda: RFFBank(0, 0), lambda: RFFBank(2, 0.5), lambda: RFFBank(2, -1),
    lambda: SampleWeights.uniform(0), lambda: SampleWeights.uniform(-1), lambda: SampleWeights.uniform(2.0),
    lambda: SampleWeights(np.ones(2), 2.0), lambda: SampleWeights(np.ones(0), 0),
], ids=["bank-n_f2.5", "bank-n_f0", "bank-seed0.5", "bank-seed-1", "uniform0", "uniform-1", "uniform2.0",
        "weights-n2.0", "weights-empty"])
def test_counts_must_be_positive_integers(make):
    with pytest.raises(ConfigError):
        make()


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        # NaN fails both the sign and the sum test, so it is caught first
        w = np.ones(4)
        w[0] = bad
        with pytest.raises(NonFiniteError) as err:
            SampleWeights(w, 4)
        assert err.value.index == 0
        weights = SampleWeights.uniform(4)
        weights.w[2] = bad
        with pytest.raises(NonFiniteError) as err:
            cim_loss(Tensor(np.ones(4)), weights)
        assert err.value.index == 2


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
        # cross-covariance; the blocks have unequal widths.
        u, v = rng(23).normal(size=(5, 3)), rng(24).normal(size=(5, 4))
        w0 = simplex_weights(5, seed=25)
        assert grad_check(lambda t: objective_graph([u, v], t), Tensor(w0.w)) < 1e-8

    def test_objective_graph_grad_check(self):
        features = rng(26).normal(size=(5, 3))
        banks = make_banks(3, CimConfig())
        lifted = [rff_map(features[:, k], banks[k]) for k in range(3)]
        w0 = simplex_weights(5, seed=27)
        assert grad_check(lambda t: objective_graph(lifted, t), Tensor(w0.w)) < 1e-8

    def test_node_count_independent_of_m(self):
        # One node for a weight vector that needs a gradient, none for a constant.
        for m in (2, 16):
            lifted = [rff_map(rng(m).normal(size=8), bank) for bank in make_banks(m, CimConfig())]
            with Tape() as tape:
                objective_graph(lifted, Tensor(np.ones(8), requires_grad=True))
            assert len(tape) == 1
            with Tape() as tape:
                objective_graph(lifted, Tensor(np.ones(8)))
            assert len(tape) == 0

    @pytest.mark.parametrize("shape", [(4,), (6,), (5, 1), ()])
    def test_weight_count_must_match_rows(self, shape):
        lifted = [rng(36).normal(size=(5, 2)), rng(37).normal(size=(5, 3))]
        with pytest.raises(ShapeError) as err:
            objective_graph(lifted, Tensor(np.ones(shape), requires_grad=True))
        assert err.value.op == "objective_graph"


def oracle_cases():
    """(lifted, w): random instances, the smallest one and lifts of unequal width."""
    cases = []
    for seed in range(20):
        g = rng(400 + seed)
        n, m = int(g.integers(2, 20)), int(g.integers(2, 8))
        x = g.uniform(0.1, 2.0, n)
        cases.append(([g.normal(size=(n, int(g.integers(1, 6)))) for _ in range(m)], n * x / x.sum()))
    g = rng(420)
    cases.append(([g.normal(size=(2, 1)), g.normal(size=(2, 1))], np.array([0.5, 1.5])))
    cases.append(([g.normal(size=(2, 5)), g.normal(size=(2, 3))], np.ones(2)))
    cases.append(([g.normal(size=(7, 1)), g.normal(size=(7, 6)), g.normal(size=(7, 2))], simplex_weights(7, 421).w))
    features = g.normal(size=(8, 16))
    banks = make_banks(16, CimConfig())
    cases.append(([rff_map(features[:, k], banks[k]) for k in range(16)], simplex_weights(8, 422).w))
    return cases


class TestAgainstComposite:
    """The one-node objective against the composite it replaced, to 1e-12 relative."""

    @pytest.mark.parametrize("lifted,w", oracle_cases())
    def test_value_and_gradient(self, lifted, w):
        value, grad, nodes = value_grad_nodes(objective_graph, lifted, w)
        want_value, want_grad, want_nodes = value_grad_nodes(composite_objective, lifted, w)
        assert (nodes, want_nodes) == (1, 12)
        assert value == pytest.approx(want_value, rel=1e-12, abs=0)
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12 * np.max(np.abs(want_grad)))

    def test_learned_weights(self):
        # The tape-free learner against the taped loop driven by the composite:
        # the weights to 1e-12 on the 200 (8, 16) draws, and the objective at
        # the two weight vectors to 1e-12 relative on every case. Once the
        # descent has converged, iterates whose objectives differ by rounding
        # can swap places as the best one (n = 2, m = 2: 3.5e-9 apart in w).
        features = learner_cases()
        for cfg in (CimConfig(), OTHER_CFG):
            got = [learn_weights(f, cfg).w for f in features]
            assert min(np.max(np.abs(w - 1.0)) for w in got[:200]) > (0.05 if cfg == CimConfig() else 0.02)
            for k, (f, w) in enumerate(zip(features, got)):
                want = taped_learn_weights(f, cfg, composite_objective)
                if k < 200:
                    np.testing.assert_allclose(w, want, rtol=0, atol=1e-12)
                banks, n = make_banks(f.shape[1], cfg), f.shape[0]
                assert independence_objective(f, banks, SampleWeights(w, n)) == pytest.approx(
                    independence_objective(f, banks, SampleWeights(want, n)), rel=1e-12, abs=0)


class TestTapeFreeLearner:
    """learn_weights against the taped loop it replaced, byte for byte."""

    @pytest.mark.parametrize("cfg", [CimConfig(), OTHER_CFG], ids=["default", "n_f3-steps7-seed5"])
    def test_bytes_equal_taped_loop(self, cfg):
        for f in learner_cases():
            assert learn_weights(f, cfg).w.tobytes() == taped_learn_weights(f, cfg).tobytes()

    def test_records_no_nodes(self):
        features = learner_cases()[0]
        with Tape() as tape:
            w = learn_weights(features, CimConfig())
        assert len(tape) == 0
        assert np.max(np.abs(w.w - 1.0)) > 0.05

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        # Warnings are errors under the test configuration, so a cos of an
        # infinity would raise RuntimeWarning instead of NonFiniteError.
        features = learner_cases()[1].copy()
        features[3, 5] = bad
        with pytest.raises(NonFiniteError, match="learn_weights"):
            learn_weights(features, CimConfig())

    def test_divergence_names_the_step(self, monkeypatch):
        objective, calls = cim._objective, []

        def nan_at_step_3(z, w, off):
            calls.append(None)
            value, grad_w = objective(z, w, off)
            return (np.nan if len(calls) == 4 else value), grad_w

        monkeypatch.setattr(cim, "_objective", nan_at_step_3)
        with pytest.raises(NonFiniteError, match="diverged") as err:
            learn_weights(learner_cases()[2], CimConfig())
        assert err.value.index == 3

    @pytest.mark.parametrize("m,n_f,seed", [(2, 1, 0), (16, 5, 0), (7, 3, 5), (16, 5, 2**40)])
    def test_bank_cache(self, m, n_f, seed):
        omega, phi, off = cim._bank_arrays(m, n_f, seed)
        banks = make_banks(m, CimConfig(n_f=n_f, seed=seed))
        assert omega.tobytes() == np.stack([b.omega for b in banks]).tobytes()
        assert phi.tobytes() == np.stack([b.phi for b in banks]).tobytes()
        owner = np.repeat(np.arange(m), n_f)
        np.testing.assert_array_equal(off, owner[:, None] != owner[None, :])
        for a in (omega, phi, off):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        # keyed on values: the learner hits the cache with a fresh config
        hits = cim._bank_arrays.cache_info().hits
        learn_weights(rng(41).normal(size=(4, m)), CimConfig(n_f=n_f, seed=seed))
        assert cim._bank_arrays.cache_info().hits == hits + 1

    @pytest.mark.parametrize("n,m,n_f", [(1, 1, 1), (2, 16, 5), (8, 16, 5), (3, 7, 3), (64, 16, 5), (256, 16, 5)])
    def test_stacked_lift_equals_rff_map(self, n, m, n_f):
        features = rng(40 + n + m).normal(scale=30.0, size=(n, m))
        omega, phi, _ = cim._bank_arrays(m, n_f, 3)
        z = cim._lift(features, omega, phi, "test")
        banks = make_banks(m, CimConfig(n_f=n_f, seed=3))
        assert z.shape == (n, m * n_f)
        for k in range(m):
            assert z[:, k * n_f:(k + 1) * n_f].tobytes() == rff_map(features[:, k], banks[k]).tobytes()


class TestLearnWeights:
    def test_uniform_start_exact(self):
        # 49 * (1/49) rounds below 1, so a start at n * softmax(0) is not exact.
        # Constant features score only rounding at the start, and any other
        # weights make the weighted rows vary, so the start stays the best.
        assert not np.array_equal(49 * T.softmax(Tensor(np.zeros(49)), axis=0).data, np.ones(49))
        w = learn_weights(np.ones((49, 2)), CimConfig())
        np.testing.assert_array_equal(w.w, np.ones(49))

    @pytest.mark.parametrize("n", [2, 8])
    def test_constant_features_give_uniform(self, n):
        # At n = 2 the mean of two equal rows is exact, so the uniform
        # objective is exactly 0, which must not be divided by.
        features = np.ones((n, 4))
        cfg = CimConfig()
        if n == 2:
            assert independence_objective(features, make_banks(4, cfg), SampleWeights.uniform(2)) == 0.0
        np.testing.assert_array_equal(learn_weights(features, cfg).w, np.ones(n))

    def test_acts_at_batch_8(self):
        # Standardised columns, as extract_feature_vars returns them.
        features = rng(33).normal(size=(8, 16))
        features = (features - features.mean(axis=0)) / features.std(axis=0)
        cfg = CimConfig()
        w = learn_weights(features, cfg)
        banks = make_banks(16, cfg)
        ratio = independence_objective(features, banks, w) / independence_objective(
            features, banks, SampleWeights.uniform(8))
        assert ratio < 0.99
        assert np.max(np.abs(w.w - 1.0)) > 0.05

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
        cfg = CimConfig(seed=3, inner_steps=50)
        w = learn_weights(features, cfg)
        banks = make_banks(2, cfg)
        assert independence_objective(features, banks, w) < independence_objective(
            features, banks, SampleWeights.uniform(8))

    @pytest.mark.parametrize("shape", [(8,), (4, 2, 3)])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(ShapeError) as err:
            learn_weights(np.ones(shape), CimConfig())
        assert err.value.op == "learn_weights"

    def test_permuting_samples_permutes_weights(self):
        # The default learner moves the weights at the harness's batch of 8.
        # Permuting the rows changes the summation order of every reduction
        # over samples, so the weights agree to rounding, not bitwise.
        features = rng(31).normal(size=(8, 16))
        perm = rng(32).permutation(8)
        w = learn_weights(features, CimConfig()).w
        assert np.max(np.abs(w - 1.0)) > 0.1
        np.testing.assert_allclose(learn_weights(features[perm], CimConfig()).w, w[perm], rtol=0, atol=1e-9)


class TestFeatureVars:
    def test_gap_of_constant_channels(self):
        # Channel c of sample i is the constant (c + 1) * s[i]; standardising
        # over the batch removes the factor c + 1.
        s = np.array([1.0, 2.0, 4.0])
        f5 = np.zeros((3, 4, 2, 2))
        for c in range(4):
            f5[:, c] = (c + 1) * s[:, None, None]
        out = extract_feature_vars(f5, CimConfig(m_features=16), seed=0)
        expected = (s - s.mean()) / s.std()
        np.testing.assert_allclose(out, np.tile(expected[:, None], (1, 4)), rtol=0, atol=1e-12)

    def test_selection_deterministic(self):
        f5 = rng(31).normal(size=(3, 8, 2, 2))
        cfg = CimConfig(m_features=2)
        a = extract_feature_vars(f5, cfg, seed=5)
        b = extract_feature_vars(f5, cfg, seed=5)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3, 2)

    def test_gap_arithmetic(self):
        # Pooled means 4, 5 and 7.
        base = np.array([[1.0, 3.0], [5.0, 7.0]])
        f5 = np.stack([base, base + 1.0, base + 3.0])[:, None]
        out = extract_feature_vars(f5, CimConfig(m_features=1), seed=0)
        g = np.array([4.0, 5.0, 7.0])
        np.testing.assert_allclose(out[:, 0], (g - g.mean()) / g.std(), rtol=0, atol=1e-12)

    def test_standardised_columns(self):
        f5 = rng(34).normal(0.3, 0.02, size=(8, 32, 4, 4))
        cfg = CimConfig()
        out = extract_feature_vars(f5, cfg, seed=3)
        assert out.shape == (8, 16)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(extract_feature_vars(f5 * 37.5, cfg, seed=3), out, rtol=0, atol=1e-12)

    def test_constant_channel_gives_zero_column(self):
        # 0.1 is inexact, so a mean over the batch may round off it; warnings
        # are errors under the test configuration, so a 0/0 would fail here.
        f5 = rng(35).normal(size=(3, 4, 2, 2))
        f5[:, 2] = 0.1
        out = extract_feature_vars(f5, CimConfig(m_features=16), seed=0)
        np.testing.assert_array_equal(out[:, 2], 0.0)
        np.testing.assert_allclose(out[:, [0, 1, 3]].std(axis=0), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed,c,m", [(0, 16, 16), (5, 8, 2), (3, 32, 16), (2**40, 7, 1)])
    def test_channel_cache(self, seed, c, m):
        # the channel choice: the sorted draw of m of c channels under the seed's stream
        chosen = np.sort(np.random.default_rng(mix64(seed, 2000)).choice(c, size=m, replace=False))
        f5 = rng(36).normal(size=(3, c, 2, 2))
        x = f5.mean(axis=(2, 3))[:, chosen]
        for _ in range(2):  # a fresh config each call, as a training step builds
            out = extract_feature_vars(f5, CimConfig(m_features=m), seed=seed)
            np.testing.assert_allclose(out, (x - x.mean(axis=0)) / x.std(axis=0), rtol=0, atol=1e-12)

    def test_single_sample_rejected(self):
        with pytest.raises(DegenerateInputError):
            extract_feature_vars(np.ones((1, 4, 2, 2)), CimConfig(), seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("wrap", [np.asarray, Tensor], ids=["array", "tensor"])
    def test_non_finite_features_rejected(self, bad, wrap):
        # One pixel of one channel: raised before pooling, whichever channels
        # are chosen, and before an inf - inf could warn.
        f5 = rng(39).normal(size=(4, 8, 2, 2))
        f5[2, 6, 1, 0] = bad
        with pytest.raises(NonFiniteError, match="extract_feature_vars"):
            extract_feature_vars(wrap(f5), CimConfig(m_features=3), seed=0)

    @pytest.mark.parametrize("seed", [2.7, np.nan])
    def test_seed_must_be_integer(self, seed):
        # int() would turn 2.7 into 2; NaN would fail inside the seed mixer.
        with pytest.raises(ConfigError):
            extract_feature_vars(rng(38).normal(size=(3, 8, 2, 2)), CimConfig(), seed=seed)


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

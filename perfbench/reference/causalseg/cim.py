"""Sample reweighting that suppresses pairwise feature dependence.

Feature variables are pooled channels of the deepest encoder output. Each
variable is lifted through a frozen random-cosine feature bank; dependence
between two variables is measured as the squared Frobenius norm of the
(weighted) cross-covariance of their lifted representations. The weight
learner searches the scaled simplex {w >= 0, sum(w) = n} for weights that
minimize the total pairwise dependence, via gradient descent on a softmax
parameterization (always feasible, no projection step).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import (
    ConfigError,
    DegenerateInputError,
    NonFiniteError,
    ShapeError,
    SimplexError,
)
from .seeding import mix64
from .tensor import Tensor, Tape, backward

SIMPLEX_TOL = 1e-9


@dataclass
class RFFBank:
    """Frozen random-cosine features: x -> sqrt(2) * cos(omega * x + phi)."""

    n_f: int
    seed: int
    omega: np.ndarray = field(init=False)
    phi: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n_f < 1:
            raise ConfigError(f"n_f must be positive, got {self.n_f}")
        rng = np.random.default_rng(self.seed)
        self.omega = rng.standard_normal(self.n_f)
        self.phi = rng.uniform(0.0, 2.0 * np.pi, self.n_f)


@dataclass
class SampleWeights:
    """Length-n weights on the scaled simplex: w >= 0 and sum(w) == n."""

    w: np.ndarray
    n: int

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.shape != (self.n,):
            raise ShapeError("sample_weights", self.w.shape, (self.n,))
        validate_simplex(self.w)

    @classmethod
    def uniform(cls, n: int) -> "SampleWeights":
        return cls(np.ones(n), n)


def validate_simplex(w: np.ndarray) -> None:
    w = np.asarray(w)
    if np.any(w < 0.0):
        raise SimplexError(f"negative weight {w.min():.3e}")
    drift = abs(float(w.sum()) - w.size)
    if drift > SIMPLEX_TOL:
        raise SimplexError(f"weights sum to {w.sum():.12f}, expected {w.size}")


@dataclass
class CimConfig:
    n_f: int = 5
    m_features: int = 16
    inner_steps: int = 20
    inner_lr: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_f < 1 or self.m_features < 1 or self.inner_steps < 1:
            raise ConfigError("cim counts must be positive")
        if self.inner_lr <= 0.0:
            raise ConfigError(f"inner_lr must be positive, got {self.inner_lr}")


def make_banks(m: int, cfg: CimConfig) -> list[RFFBank]:
    """One frozen bank per feature slot, derived from the config seed."""
    return [RFFBank(cfg.n_f, seed=mix64(cfg.seed, 1000 + k)) for k in range(m)]


def extract_feature_vars(f5, cfg: CimConfig, seed: int) -> np.ndarray:
    """Pool each channel of the deepest feature map into one scalar per sample.

    Returns an (n, m) matrix over a seeded, run-fixed subset of m channels.
    """
    data = f5.data if isinstance(f5, Tensor) else np.asarray(f5)
    if data.ndim != 4:
        raise ShapeError("extract_feature_vars", data.shape, detail="NCHW tensor required")
    n, c = data.shape[0], data.shape[1]
    if n < 2:
        raise DegenerateInputError("extract_feature_vars: need at least 2 samples")
    pooled = data.mean(axis=(2, 3))  # (n, c)
    m = min(cfg.m_features, c)
    chosen = np.sort(np.random.default_rng(mix64(seed, 2000)).choice(c, size=m, replace=False))
    return pooled[:, chosen]


def rff_map(column: np.ndarray, bank: RFFBank) -> np.ndarray:
    """Lift a length-n column to an (n, n_f) matrix of bounded cosine features."""
    x = np.asarray(column, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("rff_map: non-finite input")
    return np.sqrt(2.0) * np.cos(x[:, None] * bank.omega[None, :] + bank.phi[None, :])


def partial_cross_cov(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Centered cross-covariance of two lifted features, divisor n-1."""
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    if u.ndim != 2 or v.ndim != 2 or u.shape[0] != v.shape[0]:
        raise ShapeError("partial_cross_cov", u.shape, v.shape, detail="matching row counts required")
    n = u.shape[0]
    if n < 2:
        raise DegenerateInputError("partial_cross_cov: need at least 2 rows")
    cu = u - u.mean(axis=0, keepdims=True)
    cv = v - v.mean(axis=0, keepdims=True)
    return cu.T @ cv / (n - 1)


def weighted_partial_cross_cov(u: np.ndarray, v: np.ndarray, weights: SampleWeights) -> np.ndarray:
    """Cross-covariance of sample-weighted rows; reduces to the unweighted
    form when every weight is 1."""
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    if u.ndim != 2 or v.ndim != 2 or u.shape[0] != v.shape[0]:
        raise ShapeError("weighted_partial_cross_cov", u.shape, v.shape)
    n = u.shape[0]
    if n < 2:
        raise DegenerateInputError("weighted_partial_cross_cov: need at least 2 rows")
    if weights.n != n:
        raise ShapeError("weighted_partial_cross_cov", (weights.n,), (n,), detail="weight count")
    validate_simplex(weights.w)
    wu = weights.w[:, None] * u
    wv = weights.w[:, None] * v
    cu = wu - wu.mean(axis=0, keepdims=True)
    cv = wv - wv.mean(axis=0, keepdims=True)
    return cu.T @ cv / (n - 1)


def independence_objective(features: np.ndarray, banks: list[RFFBank],
                           weights: SampleWeights) -> float:
    """Total pairwise dependence: sum over feature pairs i < j of the squared
    Frobenius norm of the weighted cross-covariance."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ShapeError("independence_objective", features.shape)
    n, m = features.shape
    if m < 2:
        raise DegenerateInputError("independence_objective: need at least 2 features")
    if len(banks) < m:
        raise ConfigError(f"need {m} banks, got {len(banks)}")
    lifted = [rff_map(features[:, k], banks[k]) for k in range(m)]
    total = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            sigma = weighted_partial_cross_cov(lifted[i], lifted[j], weights)
            total += float(np.sum(sigma * sigma))
    return total


def weighted_cov_graph(u: np.ndarray, v: np.ndarray, w: Tensor) -> Tensor:
    """Differentiable squared Frobenius norm of the weighted cross-covariance.

    u, v are constants; gradients flow into the weight tensor only.
    """
    n, du = u.shape
    w_col = T.expand(T.reshape(w, (n, 1)), (n, du))
    p = T.mul(Tensor(u), w_col)
    w_col_v = T.expand(T.reshape(w, (n, 1)), (n, v.shape[1]))
    q = T.mul(Tensor(v), w_col_v)
    cp = T.sub(p, T.expand(T.reshape(T.reduce_mean(p, (0,)), (1, du)), p.shape))
    cq = T.sub(q, T.expand(T.reshape(T.reduce_mean(q, (0,)), (1, v.shape[1])), q.shape))
    sigma = T.matmul(T.transpose(cp, (1, 0)), cq) / float(n - 1)
    return T.total_sum(T.mul(sigma, sigma))


def objective_graph(lifted: list[np.ndarray], w: Tensor) -> Tensor:
    """Differentiable version of the pairwise independence objective."""
    m = len(lifted)
    if m < 2:
        raise DegenerateInputError("objective_graph: need at least 2 features")
    total = None
    for i in range(m):
        for j in range(i + 1, m):
            term = weighted_cov_graph(lifted[i], lifted[j], w)
            total = term if total is None else T.add(total, term)
    return total


def _softmax_weights_np(theta: np.ndarray) -> np.ndarray:
    e = np.exp(theta - theta.max())
    return theta.size * e / e.sum()


def _softmax_weights_graph(theta: Tensor) -> Tensor:
    n = theta.shape[0]
    return T.softmax(theta, axis=0) * float(n)


def learn_weights(features: np.ndarray, cfg: CimConfig) -> SampleWeights:
    """Minimize the pairwise dependence objective over the scaled simplex.

    Runs ``inner_steps`` of gradient descent on w = n * softmax(theta) from
    the uniform point and returns the best iterate, so the result never
    scores worse than uniform weights.
    """
    features = np.asarray(features, dtype=np.float64)
    n, m = features.shape
    if n < 2 or m < 2:
        raise DegenerateInputError("learn_weights: need n >= 2 samples and m >= 2 features")
    banks = make_banks(m, cfg)
    lifted = [rff_map(features[:, k], banks[k]) for k in range(m)]

    theta = Tensor(np.zeros(n), requires_grad=True)
    best_w = _softmax_weights_np(theta.data)
    best_obj = independence_objective(features, banks, SampleWeights(best_w, n))
    for step in range(cfg.inner_steps):
        with Tape() as tape:
            w = _softmax_weights_graph(theta)
            obj = objective_graph(lifted, w)
        if not np.isfinite(obj.item()):
            raise NonFiniteError("learn_weights: objective diverged", index=step)
        backward(obj, tape)
        theta.data = theta.data - cfg.inner_lr * theta.grad
        theta.zero_grad()
        w_np = _softmax_weights_np(theta.data)
        obj_np = independence_objective(features, banks, SampleWeights(w_np, n))
        if obj_np < best_obj:
            best_obj, best_w = obj_np, w_np
    return SampleWeights(best_w, n)


def cim_loss(ce_vec: Tensor, weights: SampleWeights) -> Tensor:
    """Weighted mean of per-sample cross-entropy; weights are constants."""
    if ce_vec.data.ndim != 1 or ce_vec.shape[0] != weights.n:
        raise ShapeError("cim_loss", ce_vec.shape, (weights.n,))
    validate_simplex(weights.w)
    return T.total_mean(T.mul(ce_vec, Tensor(weights.w)))

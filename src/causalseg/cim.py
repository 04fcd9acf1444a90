"""Sample reweighting that suppresses pairwise feature dependence.

Feature variables are pooled channels of the deepest encoder output. Each
variable is lifted through a frozen random-cosine feature bank. Placing the
lifts side by side, scaling each row by its sample weight and centring the
columns gives Z; S = Z^T Z / (n-1) then holds every pair's weighted
cross-covariance as an off-diagonal block. The objective is the total
squared Frobenius norm of those blocks over pairs i < j, that is
1/2 ||S - blockdiag(S)||_F^2, recorded on the tape by ``objective_graph``.
The weight learner searches the scaled simplex {w >= 0, sum(w) = n} for
weights that minimize it, via gradient descent on a softmax
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


def independence_objective(features: np.ndarray, banks: list[RFFBank],
                           weights: SampleWeights) -> float:
    """Total pairwise dependence of the weighted, lifted feature columns.

    Equals the sum over feature pairs i < j of the squared Frobenius norm of
    their weighted cross-covariance; evaluated by ``objective_graph``.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ShapeError("independence_objective", features.shape)
    n, m = features.shape
    if m < 2:
        raise DegenerateInputError("independence_objective: need at least 2 features")
    if n < 2:
        raise DegenerateInputError("independence_objective: need at least 2 samples")
    if len(banks) < m:
        raise ConfigError(f"need {m} banks, got {len(banks)}")
    if weights.n != n:
        raise ShapeError("independence_objective", (weights.n,), (n,), detail="weight count")
    validate_simplex(weights.w)
    lifted = [rff_map(features[:, k], banks[k]) for k in range(m)]
    return objective_graph(lifted, Tensor(weights.w)).item()


def objective_graph(lifted: list[np.ndarray], w: Tensor) -> Tensor:
    """Differentiable independence objective of constant lifts under weights w.

    With Z the lifts side by side, rows scaled by w and centred, and
    S = Z^T Z / (n-1), the objective is 1/2 ||S - blockdiag(S)||_F^2: each
    off-diagonal block of S is one pair's cross-covariance and appears twice.
    """
    m = len(lifted)
    if m < 2:
        raise DegenerateInputError("objective_graph: need at least 2 features")
    n = lifted[0].shape[0]
    if any(u.ndim != 2 or u.shape[0] != n for u in lifted):
        raise ShapeError("objective_graph", *(u.shape for u in lifted), detail="matching row counts required")
    z = np.hstack(lifted)
    d = z.shape[1]
    owner = np.repeat(np.arange(m), [u.shape[1] for u in lifted])
    off_block = Tensor((owner[:, None] != owner[None, :]).astype(np.float64))
    wz = T.mul(Tensor(z), T.reshape(w, (n, 1)))
    centred = T.sub(wz, T.reshape(T.reduce_mean(wz, (0,)), (1, d)))
    s = T.mul(T.matmul(T.transpose(centred, (1, 0)), centred) / float(n - 1), off_block)
    return T.total_sum(T.mul(s, s)) * 0.5


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
    best_w, best_obj = None, np.inf
    for step in range(cfg.inner_steps + 1):
        with Tape() as tape:
            w = T.softmax(theta, axis=0) * float(n)
            obj = objective_graph(lifted, w)
        value = obj.item()
        if not np.isfinite(value):
            raise NonFiniteError("learn_weights: objective diverged", index=step)
        if value < best_obj:
            # n * softmax(0) may round off 1; the start is kept as exact ones.
            best_obj, best_w = value, w.data if step else np.ones(n)
        if step == cfg.inner_steps:
            break
        backward(obj, tape)
        theta.data = theta.data - cfg.inner_lr * theta.grad
        theta.zero_grad()
    return SampleWeights(best_w, n)


def cim_loss(ce_vec: Tensor, weights: SampleWeights) -> Tensor:
    """Weighted mean of per-sample cross-entropy; weights are constants."""
    if ce_vec.data.ndim != 1 or ce_vec.shape[0] != weights.n:
        raise ShapeError("cim_loss", ce_vec.shape, (weights.n,))
    validate_simplex(weights.w)
    return T.total_mean(T.mul(ce_vec, Tensor(weights.w)))

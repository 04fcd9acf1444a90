"""Sample reweighting that suppresses pairwise feature dependence.

Feature variables are pooled channels of the deepest encoder output,
standardised over the batch to the unit width of the frozen random-cosine
bank each is lifted through (Rahimi & Recht, 2007). Placing the lifts side
by side, scaling each row by its sample weight and centring the columns
without weights gives C; S = C^T C / (n-1) is the covariance of the
w-scaled lifts, and each pair's cross-covariance under that scaling is one
off-diagonal block. This is not the weighted covariance StableNet
decorrelates (ROADMAP item 11). The objective is the total squared Frobenius
norm of those blocks over pairs i < j, that is 1/2 ||S - blockdiag(S)||_F^2,
recorded on the tape as one node by ``objective_graph``. The weight learner
searches the scaled simplex {w >= 0, sum(w) = n} for weights that minimize
it, by gradient descent on a softmax parameterization (always feasible, no
projection step) with steps relative to the objective at uniform weights. It
records no tape nodes: one numpy loop runs the softmax and objective ops' own
forward and backward helpers, on lifts built once through banks cached by key.
"""

from __future__ import annotations

import functools
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
from .tensor import Tensor

SIMPLEX_TOL = 1e-9
STEP = 0.05  # theta step per unit of gradient relative to the uniform objective


@dataclass
class RFFBank:
    """Frozen random-cosine features: x -> sqrt(2) * cos(omega * x + phi)."""

    n_f: int
    seed: int
    omega: np.ndarray = field(init=False)
    phi: np.ndarray = field(init=False)

    def __post_init__(self):
        if not T.is_int(self.n_f, self.seed) or self.n_f < 1 or self.seed < 0:
            raise ConfigError(f"n_f must be a positive and seed a non-negative integer: {self.n_f!r}, {self.seed!r}")
        rng = np.random.default_rng(self.seed)
        self.omega = rng.standard_normal(self.n_f)
        self.phi = rng.uniform(0.0, 2.0 * np.pi, self.n_f)


@dataclass
class SampleWeights:
    """Length-n weights on the scaled simplex: w >= 0 and sum(w) == n."""

    w: np.ndarray
    n: int

    def __post_init__(self):
        _check_count(self.n)
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.shape != (self.n,):
            raise ShapeError("sample_weights", self.w.shape, (self.n,))
        validate_simplex(self.w)

    @classmethod
    def uniform(cls, n: int) -> "SampleWeights":
        return cls(np.ones(_check_count(n)), n)


def _check_count(n) -> int:
    if not T.is_int(n) or n < 1:
        raise ConfigError(f"sample count must be a positive integer, got {n!r}")
    return n


def validate_simplex(w: np.ndarray) -> None:
    w = np.asarray(w)
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:  # NaN fails both tests below
        raise NonFiniteError("sample weights: non-finite weight", index=int(bad[0]))
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
    seed: int = 0

    def __post_init__(self):
        counts = (self.n_f, self.m_features, self.inner_steps)
        if not T.is_int(*counts, self.seed):
            raise ConfigError(f"cim counts and seed must be integers, got {self}")
        if min(counts) < 1:
            raise ConfigError(f"cim counts must be positive, got {self}")


def make_banks(m: int, cfg: CimConfig) -> list[RFFBank]:
    """One frozen bank per feature slot, derived from the config seed."""
    return [RFFBank(cfg.n_f, seed=mix64(cfg.seed, 1000 + k)) for k in range(m)]


@functools.lru_cache(maxsize=8)  # keyed on values: callers may build a fresh config per step
def _bank_arrays(m: int, n_f: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (m, n_f) omega and phi of ``make_banks``, and the 0/1 off-block mask of their lifts."""
    banks = make_banks(m, CimConfig(n_f=n_f, seed=seed))
    arrays = (np.stack([b.omega for b in banks]), np.stack([b.phi for b in banks]),
              1.0 - np.kron(np.eye(m), np.ones((n_f, n_f))))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def extract_feature_vars(f5, cfg: CimConfig, seed: int) -> np.ndarray:
    """Pool each channel of the deepest feature map into one scalar per sample.

    Returns an (n, m) matrix over a seeded, run-fixed subset of m channels,
    each standardised over the batch; a column with no spread gives zeros.
    """
    if not T.is_int(seed):
        raise ConfigError(f"extract_feature_vars: seed must be an integer, got {seed!r}")
    data = f5.data if isinstance(f5, Tensor) else np.asarray(f5)
    if data.ndim != 4:
        raise ShapeError("extract_feature_vars", data.shape, detail="NCHW tensor required")
    n, c = data.shape[0], data.shape[1]
    if n < 2:
        raise DegenerateInputError("extract_feature_vars: need at least 2 samples")
    T.check_finite("extract_feature_vars", "the features", data, data.shape)
    pooled = data.mean(axis=(2, 3))  # (n, c)
    chosen = np.sort(np.random.default_rng(mix64(seed, 2000)).choice(c, size=min(cfg.m_features, c), replace=False))
    x = pooled[:, chosen] - pooled[:1, chosen]  # a constant column is exactly 0
    x -= x.mean(axis=0)
    sd = x.std(axis=0)
    return np.divide(x, sd, out=x, where=sd > 0)


def rff_map(column: np.ndarray, bank: RFFBank) -> np.ndarray:
    """Lift a length-n column to an (n, n_f) matrix of bounded cosine features."""
    return _lift(np.asarray(column, dtype=np.float64).reshape(-1, 1), bank.omega[None], bank.phi[None], "rff_map")


def _lift(x: np.ndarray, omega: np.ndarray, phi: np.ndarray, op: str) -> np.ndarray:
    """Column k of an (n, m) matrix through bank (omega[k], phi[k]), the m lifts side by side: (n, m * n_f)."""
    T.check_finite(op, "the input", x, x.shape)
    return (np.sqrt(2.0) * np.cos(x[:, :, None] * omega + phi)).reshape(x.shape[0], -1)


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

    With Z the lifts side by side, C = w * Z with its column means removed
    (no weights in the centring) and S = C^T C / (n-1), the covariance of the
    w-scaled lifts, the objective is 1/2 ||S - blockdiag(S)||_F^2: each
    off-diagonal block of S is one pair's cross-covariance and appears twice.
    ROADMAP item 11 would replace S by a weighted covariance. Recorded as one
    node whose backward is the closed form in w: dw = rowsum(G * Z) with
    G = 2 C S / (n-1). The centring's backward would remove G's column
    means, which are already 0 because C's are.
    """
    m = len(lifted)
    if m < 2:
        raise DegenerateInputError("objective_graph: need at least 2 features")
    n = lifted[0].shape[0]
    if any(u.ndim != 2 or u.shape[0] != n for u in lifted):
        raise ShapeError("objective_graph", *(u.shape for u in lifted), detail="matching row counts required")
    if w.shape != (n,):
        raise ShapeError("objective_graph", w.shape, (n,), detail="one weight per row required")
    z = np.hstack(lifted)
    owner = np.repeat(np.arange(m), [u.shape[1] for u in lifted])
    value, grad_w = _objective(z, w.data, owner[:, None] != owner[None, :])
    return T._record(Tensor(value), (w, grad_w))


def _objective(z: np.ndarray, w: np.ndarray, off: np.ndarray):
    """The objective of lifts z under weights w, S masked by ``off``, and the map from its gradient to w's."""
    n = z.shape[0]
    c = z * w[:, None]
    c -= c.sum(axis=0) / n
    s = c.T @ c
    np.multiply(np.divide(s, n - 1, out=s), off, out=s)
    return float((s * s).sum() * 0.5), lambda g: g * (c @ s * z).sum(axis=1) * (2.0 / (n - 1))


def learn_weights(features: np.ndarray, cfg: CimConfig) -> SampleWeights:
    """Minimize the pairwise dependence objective over the scaled simplex.

    Descends on theta, w = n * softmax(theta), from the uniform point for
    ``inner_steps`` steps of ``STEP`` * gradient / uniform objective (none if
    that objective is 0); returns the best iterate, never worse than uniform.
    Records no tape nodes; the banks are cached by (m, cfg.n_f, cfg.seed).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ShapeError("learn_weights", features.shape, detail="(samples, features) matrix required")
    n, m = features.shape
    if n < 2 or m < 2:
        raise DegenerateInputError("learn_weights: need n >= 2 samples and m >= 2 features")
    omega, phi, off = _bank_arrays(m, cfg.n_f, cfg.seed)
    z = _lift(features, omega, phi, "learn_weights")

    theta, best_w = np.zeros(n), np.ones(n)  # the start as exact ones: n * softmax(0) may round off 1
    for step in range(cfg.inner_steps + 1):
        softmax, grad_theta = T._softmax(theta, 0)
        w = softmax * float(n)
        value, grad_w = _objective(z, w, off)
        if not np.isfinite(value):
            raise NonFiniteError("learn_weights: objective diverged", index=step)
        if step == 0:
            uniform = best_obj = value
        elif value < best_obj:
            best_obj, best_w = value, w
        if step == cfg.inner_steps or uniform == 0.0:  # 0: nothing to decorrelate
            break
        theta = theta - STEP / uniform * grad_theta(grad_w(1.0) * float(n))
    return SampleWeights(best_w, n)


def cim_loss(ce_vec: Tensor, weights: SampleWeights) -> Tensor:
    """Weighted mean of per-sample cross-entropy; weights are constants."""
    if ce_vec.data.ndim != 1 or ce_vec.shape[0] != weights.n:
        raise ShapeError("cim_loss", ce_vec.shape, (weights.n,))
    validate_simplex(weights.w)
    return T.total_mean(T.mul(ce_vec, Tensor(weights.w)))

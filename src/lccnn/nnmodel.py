"""Single-hidden-layer network class, residual loss and Gibbs log-posterior.

The model is f_w(x) = sum_k c_k psi(w_k . x) with fixed outer weights
c_k = sign_k * V/K and inner weight rows constrained to the l1 ball.
The n-th posterior is proportional to the prior times exp(-beta * l_n(w))
where l_n is half the sum of squared residuals on the first n points.

Derivatives of the activation are implemented analytically (no autodiff)
so that finite-difference checks of the score and Hessian are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Activation",
    "tanh_scaled",
    "squared_relu",
    "NetworkConfig",
    "Dataset",
    "check_weights",
    "eval_network",
    "eval_network_many",
    "residuals",
    "loss",
    "log_posterior_unnorm",
    "posterior_score",
    "posterior_hessian_quadform",
]

# Global maximum of |d/dz (tanh z)'| = |2 tanh(z) sech^2(z)| attained at
# tanh(z) = 1/sqrt(3); used as an analytic bound for the scaled tanh.
_TANH_D2_SUP = 4.0 / (3.0 * math.sqrt(3.0))


def _scaled(scale: float, x):
    """scale * x, skipping a multiplication by exactly 1.0."""
    return x if scale == 1.0 else scale * x


@dataclass(frozen=True)
class Activation:
    """Neuron activation with analytic derivative bounds on [-1, 1].

    a0, a1, a2 are the bounds used in every constant and bound formula;
    they are clamped up to 1 because the theory assumes a0, a1, a2 >= 1.
    The unclamped analytic values are kept alongside for reporting.
    """

    kind: str  # "tanh" or "squared_relu"
    a: float
    c: float
    odd_symmetric: bool
    a0_exact: float
    a1_exact: float
    a2_exact: float
    a0: float = field(init=False)
    a1: float = field(init=False)
    a2: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "a0", max(1.0, self.a0_exact))
        object.__setattr__(self, "a1", max(1.0, self.a1_exact))
        object.__setattr__(self, "a2", max(1.0, self.a2_exact))

    def psi(self, z):
        if self.kind == "tanh":
            return self.a * np.tanh(self.c * z)
        zp = np.maximum(z, 0.0)
        return self.a * zp * zp

    def dpsi(self, z):
        return self.psi_dpsi(z)[1]

    def psi_dpsi(self, z):
        """(psi(z), psi'(z)) from one evaluation of the shared tanh or ramp.

        A scale of exactly 1.0 is not multiplied in (x * 1.0 == x), so the
        bytes are those of the full formula.
        """
        if self.kind == "tanh":
            t = np.tanh(_scaled(self.c, z))
            return _scaled(self.a, t), _scaled(self.a * self.c, 1.0 - t * t)
        zp = np.maximum(z, 0.0)
        return _scaled(self.a, zp) * zp, _scaled(2.0 * self.a, zp)

    def d2psi(self, z):
        if self.kind == "tanh":
            t = np.tanh(self.c * z)
            return -2.0 * self.a * self.c * self.c * t * (1.0 - t * t)
        return np.where(z > 0.0, 2.0 * self.a, 0.0)


def tanh_scaled(a: float = 1.0, c: float = 1.0) -> Activation:
    """psi(z) = a*tanh(c z); odd symmetric, psi(0) = 0."""
    if a <= 0 or c <= 0:
        raise ValueError("tanh scaling parameters must be positive")
    return Activation(
        kind="tanh",
        a=a,
        c=c,
        odd_symmetric=True,
        a0_exact=a * math.tanh(c),
        a1_exact=a * c,
        a2_exact=a * c * c * _TANH_D2_SUP,
    )


def squared_relu(a: float = 1.0) -> Activation:
    """psi(z) = a*(z_+)^2; not odd symmetric, psi(0) = 0."""
    if a <= 0:
        raise ValueError("squared relu scale must be positive")
    return Activation(
        kind="squared_relu",
        a=a,
        c=1.0,
        odd_symmetric=False,
        a0_exact=a,
        a1_exact=2.0 * a,
        a2_exact=2.0 * a,
    )


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture: K neurons of input dimension d, variation scale V.

    Outer weights are c_k = signs[k] * V / K.  For odd-symmetric neurons all
    signs must be +1 (negative neurons are absorbed into the inner weights).
    """

    K: int
    d: int
    V: float
    activation: Activation
    signs: np.ndarray = None

    def __post_init__(self):
        if self.K < 1 or self.d < 1:
            raise ValueError("K and d must be positive")
        if self.V <= 0:
            raise ValueError("V must be positive")
        signs = self.signs
        if signs is None:
            signs = np.ones(self.K)
        signs = np.asarray(signs, dtype=float)
        if signs.shape != (self.K,) or not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be a length-K vector over {-1, +1}")
        if self.activation.odd_symmetric and np.any(signs < 0):
            raise ValueError("odd-symmetric activation: all outer signs must be +1")
        object.__setattr__(self, "signs", signs)

    @property
    def outer_weights(self) -> np.ndarray:
        return self.signs * (self.V / self.K)


@dataclass(frozen=True)
class Dataset:
    """N x d inputs in the unit cube and N responses.

    The first input column must be identically 1 (intercept built into the
    data).  Oracle configurations at d = 1 use a single all-ones column,
    which satisfies the same convention.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("inputs and responses must be finite")
        if X.size and np.max(np.abs(X)) > 1.0 + 1e-12:
            raise ValueError("inputs must satisfy |x_ij| <= 1")
        if X.size and not np.allclose(X[:, 0], 1.0):
            raise ValueError("first input column must be identically 1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def N(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def check_weights(w: np.ndarray, cfg: NetworkConfig, batch: bool = False) -> np.ndarray:
    """Validate a K x d weight matrix, or with batch a stack of them, shape
    (..., K, d): every row's l1 norm at most 1 + 1e-12."""
    w = np.asarray(w, dtype=float)
    if w.shape[-2:] != (cfg.K, cfg.d) or (w.ndim > 2 and not batch):
        lead = "..., " if batch else ""
        raise ValueError(f"weight matrix must have shape ({lead}{cfg.K}, {cfg.d}), "
                         f"got {w.shape}")
    norms = np.abs(w).sum(axis=-1)
    if np.any(norms > 1.0 + 1e-12):
        raise ValueError("every weight row must have l1 norm <= 1")
    return w


def eval_network(cfg: NetworkConfig, w: np.ndarray, x: np.ndarray) -> float:
    """f_w(x) = sum_k c_k psi(w_k . x); bounded by a0*V in magnitude."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cfg.d,):
        raise ValueError(f"x must have shape ({cfg.d},)")
    if np.max(np.abs(x)) > 1.0 + 1e-12:
        raise ValueError("x must lie in the unit cube")
    w = check_weights(w, cfg)
    return float(cfg.outer_weights @ cfg.activation.psi(w @ x))


def eval_network_many(cfg: NetworkConfig, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Network outputs at every row of X, shape (..., N) for weights of shape
    (..., K, d) (no per-call validation)."""
    psi = cfg.activation.psi(np.asarray(w) @ np.asarray(X).T)  # (..., K, N)
    return np.swapaxes(psi, -1, -2) @ cfg.outer_weights


def residuals(cfg: NetworkConfig, w: np.ndarray, data: Dataset, n: int) -> np.ndarray:
    """res_i(w) = y_i - f_w(x_i) for i = 1..n, shape (..., n) for weights of
    shape (..., K, d)."""
    if not 0 <= n <= data.N:
        raise IndexError(f"prefix length n={n} out of range [0, {data.N}]")
    return data.y[:n] - eval_network_many(cfg, w, data.X[:n])


def loss(cfg: NetworkConfig, w: np.ndarray, data: Dataset, n: int):
    """Half the sum of squared residuals over the first n observations, one
    value per K x d matrix of w (shape (..., K, d))."""
    r = residuals(cfg, w, data, n)
    return 0.5 * np.sum(r * r, axis=-1)


def log_posterior_unnorm(cfg: NetworkConfig, w: np.ndarray, data: Dataset,
                         n: int, beta: float):
    """-beta * l_n(w): log posterior density relative to the prior, one value
    per K x d matrix of w (shape (..., K, d)).

    The additive normalizing constant is omitted.  w outside the prior
    support is a domain error (the support test is the caller's prior).
    """
    check_weights(w, cfg, batch=True)
    return -beta * loss(cfg, w, data, n)


def posterior_score(cfg: NetworkConfig, w: np.ndarray, data: Dataset,
                    n: int, beta: float) -> np.ndarray:
    """Gradient of -beta*l_n at w, flattened to a K*d vector.

    Block k is beta * sum_{i<=n} res_i(w) c_k psi'(w_k.x_i) x_i.
    """
    w = check_weights(w, cfg)
    X = data.X[:n]
    res = data.y[:n] - eval_network_many(cfg, w, X)
    dps = cfg.activation.dpsi(w @ X.T)  # (K, n)
    coef = beta * res[None, :] * cfg.outer_weights[:, None] * dps  # (K, n)
    return (coef @ X).reshape(-1)


def posterior_hessian_quadform(cfg: NetworkConfig, w: np.ndarray, data: Dataset,
                               n: int, beta: float, u: np.ndarray) -> float:
    """Quadratic form u^T H_n(w) u of the log-posterior Hessian.

    Two terms: -beta sum_i (sum_k c_k psi'(w_k.x_i) u_k.x_i)^2
    plus beta sum_i res_i(w) sum_k c_k psi''(w_k.x_i) (u_k.x_i)^2.
    The second term can make the form positive: the density is not
    log-concave in general.
    """
    w = check_weights(w, cfg)
    u = np.asarray(u, dtype=float).reshape(cfg.K, cfg.d)
    X = data.X[:n]
    res = data.y[:n] - eval_network_many(cfg, w, X)
    z = w @ X.T            # (K, n) preactivations
    ux = u @ X.T           # (K, n) directional inner products
    c = cfg.outer_weights
    first = cfg.activation.dpsi(z) * ux * c[:, None]
    t1 = -beta * float(np.sum(first.sum(axis=0) ** 2))
    second = cfg.activation.d2psi(z) * (ux ** 2) * c[:, None]
    t2 = beta * float(res @ second.sum(axis=0))
    return t1 + t2

"""Posterior means, predictive densities, Cesaro averages, exact tables.

The discrete grid prior admits exact sequential posteriors by enumeration:
a probability table over (S^d_{1,M})^K proportional to exp(-beta * l_n).
The tables read one product f table, built once per data set as an (N, P)
array whose row n - 1 holds f(w, x_n) at each of the P grid points, so the
table at prefix n is the one at n - 1 reweighted by row n - 1 alone.  Every
table over a K-fold product grid, here and in lccnn.samplers, is product_table's.
All log-domain accumulation uses log-sum-exp with max subtraction, and
predictive ratios are differences of log Bayes factors, so telescoping
identities hold to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nnmodel import Dataset, NetworkConfig
from .priors import DEFAULT_ENUMERATION_LIMIT

__all__ = [
    "PosteriorSnapshot",
    "product_table",
    "product_points",
    "product_f_table",
    "exact_discrete_posterior",
    "sequential_discrete_posteriors",
    "posterior_mean",
    "predictive_density",
    "log_predictive_density",
    "cesaro_mean",
    "cesaro_predictive",
    "export_snapshot",
    "load_snapshot_table",
]

def _logsumexp(v):
    v = np.asarray(v, dtype=float)
    m = np.max(v)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(v - m))))


@dataclass
class PosteriorSnapshot:
    """Posterior at prefix length n: exact weight table or MC sample set.

    Exact tables live on the K-fold product of a per-row grid in the layout
    of product_table; weight matrices are assembled only on demand.
    """

    n: int
    beta: float
    kind: str  # "exact" or "samples"
    samples: np.ndarray = None          # (S, K, d) for kind == "samples"
    grid: np.ndarray = None             # (m, d) per-row support
    digits: np.ndarray = None           # (K, P) row indices into grid
    log_weights: np.ndarray = None      # (P,) normalized: logsumexp == 0
    _f_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind == "exact":
            if self.log_weights is None or self.grid is None or self.digits is None:
                raise ValueError("exact snapshot needs grid, digits and log_weights")
            total = _logsumexp(self.log_weights)
            if abs(total) > 1e-12:
                raise ValueError("exact table weights must sum to 1")
        elif self.kind == "samples":
            if self.samples is None or len(self.samples) == 0:
                raise ValueError("sample snapshot needs a nonempty sample set")
        else:
            raise ValueError(f"unknown snapshot kind {self.kind!r}")

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def f_values(self, cfg: NetworkConfig, x: np.ndarray) -> np.ndarray:
        """Network outputs at x for every support point / sample."""
        x = np.asarray(x, dtype=float)
        if self.kind == "samples":
            return cfg.activation.psi(self.samples @ x) @ cfg.outer_weights
        key = x.tobytes()
        if key not in self._f_cache:
            psi = cfg.activation.psi(self.grid @ x)  # (m,)
            self._f_cache[key] = product_table(psi[None], cfg.outer_weights)[0]
        return self._f_cache[key]

    def points(self) -> np.ndarray:
        """Materialize the (P, K, d) support (test-scale convenience)."""
        return product_points(self.grid, self.digits.shape[0])


def product_table(table: np.ndarray, coefs) -> np.ndarray:
    """sum_k coefs[k] * table[:, digit_k(p)] over a K-fold product grid.

    table is (N, m), one column per grid row; K = len(coefs).  Point p has
    mixed-radix digits digit_k(p), the last one fastest, so term k is table
    broadcast along axis k + 1 of an (N, m, ..., m) view.  Returns (N, m**K).
    """
    N, m = table.shape
    K = len(coefs)
    out = np.zeros((N,) + (m,) * K)
    for k in range(K):
        shape = [N] + [1] * K
        shape[k + 1] = m
        out += coefs[k] * table.reshape(shape)
    return out.reshape(N, m ** K)


def product_points(grid: np.ndarray, K: int) -> np.ndarray:
    """The (m**K, K, d) product points: row k of point p is grid[digit_k(p)],
    product_table with unit coefficients (adding zeros only, so exact)."""
    return np.ascontiguousarray(np.stack([product_table(grid.T, e).T for e in np.eye(K)],
                                         axis=1))


def _sq_residual_sums(y: np.ndarray, f: np.ndarray) -> np.ndarray:
    """sum_i (y_i - f[i, p])^2 for each column p of an (n, P) table f, summed
    along contiguous rows: numpy sums a row pairwise but a column in
    sequence, and the two differ in the last bits."""
    res = np.ascontiguousarray((y[:, None] - f).T)
    return np.sum(res * res, axis=1)


def product_f_table(cfg: NetworkConfig, grid: np.ndarray, X: np.ndarray):
    """f(w, x_n) over the K-fold grid product, built from per-row psi tables.

    Returns (digits (K, P), f (N, P)): row n - 1 of f is the network output
    at x_n for every product point, and product point p has mixed-radix
    digits digits[:, p] (see product_table); no K x d weight matrix is ever
    materialized.
    """
    m = len(grid)
    P = m ** cfg.K
    if P > DEFAULT_ENUMERATION_LIMIT:
        raise ValueError(f"product enumeration of {P} points exceeds limit "
                         f"{DEFAULT_ENUMERATION_LIMIT}")
    psi = cfg.activation.psi(grid @ X.T).T  # (N, m)
    return np.indices((m,) * cfg.K).reshape(cfg.K, P), product_table(psi, cfg.outer_weights)


def exact_discrete_posterior(cfg: NetworkConfig, grid: np.ndarray, data: Dataset,
                             n: int, beta: float) -> PosteriorSnapshot:
    """Exact posterior table over (S^d_{1,M})^K at prefix length n."""
    digits, f = product_f_table(cfg, grid, data.X[:n])
    logw = -0.5 * beta * _sq_residual_sums(data.y[:n], f)
    logw -= _logsumexp(logw)
    return PosteriorSnapshot(n=n, beta=beta, kind="exact", grid=np.asarray(grid),
                             digits=digits, log_weights=logw)


def sequential_discrete_posteriors(cfg: NetworkConfig, grid: np.ndarray,
                                   data: Dataset, N: int, beta: float):
    """Snapshots for n = 0..N plus the loss moments ln E_P0[exp(-beta l_n)].

    Each table is the previous one reweighted by the new likelihood factor;
    the f table over the product grid is computed once.
    """
    digits, f = product_f_table(cfg, grid, data.X[:N])
    P = f.shape[1]
    log_prior = -math.log(P)
    cum = np.zeros(P)
    snapshots = []
    log_loss_moments = [0.0]
    for n in range(N + 1):
        if n > 0:
            res = data.y[n - 1] - f[n - 1]
            cum = cum - 0.5 * beta * res * res
            log_loss_moments.append(_logsumexp(cum + log_prior))
        logw = cum - _logsumexp(cum)
        snapshots.append(PosteriorSnapshot(n=n, beta=beta, kind="exact",
                                           grid=np.asarray(grid), digits=digits,
                                           log_weights=logw))
    return snapshots, np.array(log_loss_moments)


def posterior_mean(snapshot: PosteriorSnapshot, cfg: NetworkConfig,
                   x: np.ndarray) -> float:
    """mu_n(x): exact expectation or sample average of f(w, x)."""
    f = snapshot.f_values(cfg, x)
    if snapshot.kind == "exact":
        return float(snapshot.weights @ f)
    return float(np.mean(f))


def log_predictive_density(snapshot: PosteriorSnapshot, cfg: NetworkConfig,
                           x: np.ndarray, y: float, beta: float) -> float:
    """ln E[ Normal(f(x,w), 1/beta) at y ], accumulated in the log domain."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    f = snapshot.f_values(cfg, x)
    log_kernel = 0.5 * math.log(beta / (2.0 * math.pi)) - 0.5 * beta * (y - f) ** 2
    if snapshot.kind == "exact":
        return _logsumexp(snapshot.log_weights + log_kernel)
    return _logsumexp(log_kernel) - math.log(len(f))


def predictive_density(snapshot: PosteriorSnapshot, cfg: NetworkConfig,
                       x: np.ndarray, y: float, beta: float) -> float:
    """Posterior predictive density at (x, y); strictly positive."""
    return math.exp(log_predictive_density(snapshot, cfg, x, y, beta))


def _check_cesaro(snapshots) -> None:
    if len(snapshots) == 0:
        raise ValueError("need snapshots for n = 0..N")
    for i, s in enumerate(snapshots):
        if s.n != i:
            raise ValueError(f"snapshot {i} has n={s.n}; expected consecutive n from 0")


def cesaro_mean(snapshots, cfg: NetworkConfig, x: np.ndarray) -> float:
    """(1/(N+1)) sum_n mu_n(x) over snapshots n = 0..N."""
    _check_cesaro(snapshots)
    return float(np.mean([posterior_mean(s, cfg, x) for s in snapshots]))


def cesaro_predictive(snapshots, cfg: NetworkConfig, x: np.ndarray, y: float,
                      beta: float) -> float:
    """Uniform mixture of the n-indexed predictive densities."""
    _check_cesaro(snapshots)
    return float(np.mean([predictive_density(s, cfg, x, y, beta) for s in snapshots]))


def export_snapshot(snapshot: PosteriorSnapshot, path) -> None:
    """Portable text table: one 'index log_weight' line per support point."""
    if snapshot.kind != "exact":
        raise ValueError("only exact tables export as text")
    with open(path, "w") as fh:
        fh.write(f"# n={snapshot.n} beta={float(snapshot.beta)!r} points={len(snapshot.log_weights)}\n")
        for i, lw in enumerate(snapshot.log_weights):
            fh.write(f"{i} {float(lw)!r}\n")


def load_snapshot_table(path) -> np.ndarray:
    """Log-weights back from an exported text table."""
    out = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            _, lw = line.split()
            out.append(float(lw))
    return np.array(out)

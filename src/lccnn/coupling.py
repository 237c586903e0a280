"""The log-concave coupling: forward/reverse densities, constants, checks.

Given the posterior p_n(w) with gain beta, the coupling pairs each (i, k)
with an auxiliary variable xi_ik, conditionally Normal(x_i . w_k, 1/rho)
restricted to the constraint polytope B.  With

    rho = sqrt(3/2) * a2 * beta * C_n * V / K,
    B   = { xi : max_{j,k} |sum_i x_ij xi_ik| <= n + sqrt(2 ln(2Kd/delta)) sqrt(n/rho) },

the reverse conditional p*(w|xi) is log-concave for every xi in B, and the
induced marginal p*(xi) is log-concave once Kd >= A3 (beta N)^2.  This module
computes the constants (delta, A1-A3, H1, H2), the densities and their
derivatives, and numeric certificates for each of those claims.  Each reverse
function is its lccnn.nnmodel posterior counterpart plus the coupling term, and
every projection of inner draws onto xi is one stacked_projection einsum.  That
einsum's contraction order is part of the byte contract: the nested outer
chain's score and bridge ratio read the projection, and a BLAS product (@,
matmul, einsum with optimize) fuses multiply-adds that move last bits.

The truncation normalizer Z(w) = ln P(xi in B | w) is treated as a constant
(dropped from the reverse density and score): its derivatives are O(delta),
and estimate_Z_and_check quantifies the omitted bias for a configured delta.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .nnmodel import (Dataset, NetworkConfig, log_posterior_unnorm,
                      posterior_hessian_quadform, posterior_score)
# looked up in this module by callers (the benchmark's per-layer tracer wraps it)
from .nnmodel import eval_network_many  # noqa: F401
from .priors import prior_moment_bound

__all__ = [
    "CouplingParams",
    "ConditionReport",
    "HolderBound",
    "compute_C_n",
    "compute_delta",
    "compute_rho",
    "in_B",
    "sample_xi_given_w",
    "reverse_logdensity_unnorm",
    "reverse_score",
    "reverse_hessian_quadform",
    "stacked_projection",
    "marginal_score",
    "marginal_concavity_estimate",
    "check_logconcavity_conditions",
    "estimate_Z_and_check",
    "holder_variance_bound",
]


def compute_C_n(data: Dataset, n: int, a0: float, V: float) -> float:
    """C_n = max_{i<=n} |y_i| + a0*V, the residual range bound."""
    if n < 1:
        raise ValueError("C_n requires n >= 1")
    return float(np.max(np.abs(data.y[:n]))) + a0 * V


def compute_delta(K: int, a2: float, beta: float, C_N: float, V: float) -> float:
    """delta = min(1/300, sqrt(2 pi / 11) * K / (a2 beta C_N V)).

    Any delta at most this value satisfies the H1 <= 1/100 and H2 <= 1/10
    conditions required for reverse log-concavity.
    """
    return min(1.0 / 300.0, math.sqrt(2.0 * math.pi / 11.0) * K / (a2 * beta * C_N * V))


def compute_rho(a2: float, beta: float, C_n: float, V: float, K: int,
                slack: bool = True) -> float:
    """rho = sqrt(3/2)*a2*beta*C_n*V/K; slack=False gives the smaller
    a2*beta*C_n*V/K under which the reverse Hessian brackets reach exactly 0."""
    base = a2 * beta * C_n * V / K
    return math.sqrt(1.5) * base if slack else base


@dataclass(frozen=True)
class CouplingParams:
    """Constants governing the auxiliary coupling at prefix length n."""

    n: int
    beta: float
    C_n: float
    rho: float
    delta: float
    b_threshold: float

    @classmethod
    def from_config(cls, cfg: NetworkConfig, data: Dataset, n: int, beta: float,
                    delta: float = None) -> "CouplingParams":
        act = cfg.activation
        C_n = compute_C_n(data, n, act.a0, cfg.V)
        rho = compute_rho(act.a2, beta, C_n, cfg.V, cfg.K)
        if delta is None:
            delta = compute_delta(cfg.K, act.a2, beta, C_n, cfg.V)
        if not 0.0 < delta <= 1.0 / 16.0:
            raise ValueError("delta must lie in (0, 1/16]")
        b = n + math.sqrt(2.0 * math.log(2.0 * cfg.K * cfg.d / delta)) * math.sqrt(n / rho)
        return cls(n=n, beta=beta, C_n=C_n, rho=rho, delta=delta, b_threshold=b)


def in_B(xi: np.ndarray, X: np.ndarray, params: CouplingParams) -> bool:
    """Membership in B: max_{j,k} |sum_i x_ij xi_ik| <= b_threshold."""
    xi = np.asarray(xi)
    X = np.asarray(X)
    if xi.shape[0] != X.shape[0]:
        raise ValueError("xi and X must agree on the number of data rows")
    return bool(np.max(np.abs(X.T @ xi)) <= params.b_threshold)


def sample_xi_given_w(w: np.ndarray, X: np.ndarray, params: CouplingParams,
                      rng: np.random.Generator, max_attempts: int = 1000):
    """Exact draw from the forward coupling xi | w by rejection against B.

    Entries are independent Normal(x_i . w_k, 1/rho) conditioned on B; the
    constraint couples coordinates through the data matrix, so rejection is
    used rather than per-coordinate truncation.  Acceptance probability is
    at least 1 - delta by the high-probability construction of B.

    Returns (xi, n_rejections).
    """
    X = np.asarray(X)
    means = X @ np.asarray(w).T  # (n, K)
    sd = 1.0 / math.sqrt(params.rho)
    for attempt in range(max_attempts):
        xi = means + sd * rng.standard_normal(means.shape)
        if np.max(np.abs(X.T @ xi)) <= params.b_threshold:
            return xi, attempt
    raise RuntimeError(
        f"rejection budget of {max_attempts} attempts exhausted; parameters "
        "violate the high-probability guarantee for the set B"
    )


def reverse_logdensity_unnorm(cfg: NetworkConfig, w: np.ndarray, xi: np.ndarray,
                              data: Dataset, params: CouplingParams):
    """log p*(w|xi) up to an additive constant in w, with Z(w) omitted, one
    value per K x d matrix of w (shape (..., K, d)).

    Equals -beta*l_n(w) - (rho/2) sum_{i,k} (xi_ik - w_k.x_i)^2.
    """
    log_post = log_posterior_unnorm(cfg, w, data, params.n, params.beta)
    gap = np.asarray(xi) - data.X[: params.n] @ np.swapaxes(w, -1, -2)  # (..., n, K)
    return log_post - 0.5 * params.rho * np.sum(gap * gap, axis=(-2, -1))


def reverse_score(cfg: NetworkConfig, w: np.ndarray, xi: np.ndarray,
                  data: Dataset, params: CouplingParams) -> np.ndarray:
    """Gradient of reverse_logdensity_unnorm in w, flattened K*d."""
    score = posterior_score(cfg, w, data, params.n, params.beta)
    X = data.X[: params.n]
    gap = np.asarray(xi) - X @ np.asarray(w).T  # (n, K)
    return score + (params.rho * gap.T @ X).ravel()


def reverse_hessian_quadform(cfg: NetworkConfig, w: np.ndarray, xi: np.ndarray,
                             data: Dataset, params: CouplingParams,
                             u: np.ndarray) -> float:
    """Quadratic form of the reverse conditional's log-density Hessian.

    The posterior's form minus rho sum_{k,i} (u_k.x_i)^2, that is
    -beta sum_i (sum_k c_k psi'(w_k.x_i) u_k.x_i)^2
    + sum_{k,i} (u_k.x_i)^2 [beta res_i(w) c_k psi''(w_k.x_i) - rho].

    With the slack rho every bracket is at most
    -(sqrt(3/2)-1) a2 beta C_n V / K, so the form is nonpositive.  (xi does
    not enter: the quadratic coupling term has constant Hessian.)
    """
    form = posterior_hessian_quadform(cfg, w, data, params.n, params.beta, u)
    ux = np.asarray(u, dtype=float).reshape(cfg.K, cfg.d) @ data.X[: params.n].T
    return form - params.rho * float(np.sum(ux * ux))


def stacked_projection(w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """x_i . w_k for weights (..., K, d): the C-contiguous (..., n, K) stack
    whose column k is X w_k, for one matrix or for a batch (S, K, d) of inner
    draws.

    The einsum writes the (..., K, n) layout, which it contracts about twice
    as fast at the certificate's shape as the (..., n, K) one, with the same
    summation order per entry, and the axes are swapped after."""
    proj = np.einsum("...kj,ij->...ki", np.asarray(w, dtype=float), np.asarray(X))
    return np.ascontiguousarray(np.swapaxes(proj, -1, -2))


def marginal_score(xi: np.ndarray, inner_samples, params: CouplingParams,
                   X: np.ndarray):
    """Estimated score of the xi-marginal: rho * (-xi + X E[w|xi]).

    The conditional mean is replaced by the sample mean over inner_samples
    (draws from the reverse conditional).  Returns (score, se) as (n, K)
    arrays; the standard error uses batch means so chain autocorrelation is
    not understated.
    """
    if len(inner_samples) < 2:
        raise ValueError("marginal_score requires at least two inner samples")
    xi = np.asarray(xi, dtype=float)
    proj = stacked_projection(inner_samples, X)  # (S, n, K)
    score = params.rho * (-xi + proj.mean(axis=0))
    se = params.rho * _batch_means_se(proj)
    return score, se


def _batch_means_se(series: np.ndarray) -> np.ndarray:
    """Batch-means standard error of the mean along axis 0, from 10 batches."""
    S = series.shape[0]
    b = max(1, S // 10)
    nb = S // b
    if nb < 2:
        return np.std(series, axis=0, ddof=1) / math.sqrt(max(S, 2))
    trimmed = series[: nb * b].reshape(nb, b, *series.shape[1:]).mean(axis=1)
    return np.std(trimmed, axis=0, ddof=1) / math.sqrt(nb)


def marginal_concavity_estimate(xi: np.ndarray, inner_samples, params: CouplingParams,
                                X: np.ndarray):
    """rho * lambda_max of the sample covariance of the stacked (Xw_1..Xw_K).

    lambda_max and its unit direction v are the top eigenpair of the p x p
    covariance centered^T centered / (S-1), p = n*K, from one symmetric
    eigendecomposition.  A value below 1 certifies (empirically) strict
    log-concavity of the xi-marginal at this xi.  Returns (estimate, se);
    the standard error is a batch-means error of the variance along v.
    """
    S = len(inner_samples)
    if S < 10:
        raise ValueError("need at least 10 inner samples for a covariance estimate")
    proj = stacked_projection(inner_samples, X).reshape(S, -1)
    centered = proj - proj.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / (S - 1))
    scores = (centered @ eigvecs[:, -1]) ** 2
    se_var = _batch_means_se(scores) * S / (S - 1)
    return params.rho * float(eigvals[-1]), params.rho * float(se_var)


@dataclass(frozen=True)
class ConditionReport:
    """Numeric certificate for the log-concavity conditions."""

    A1: float
    A2: float
    A3: float
    H1: float
    H2: float
    cond_K: bool
    cond_Kd: bool
    cond_H: bool
    delta_used: float
    A2_variant: float  # the (1 + 1/sqrt(pi)) variant; A2 is the operative value
    beta_n_ok: bool
    rho: float
    C_N: float

    def as_dict(self) -> dict:
        return asdict(self)


def _A1_A2(act) -> tuple:
    """A1 = 2 a1 + 4 sqrt(3/2) a2 and A2 = (2 + 1/sqrt(pi)) sqrt(2 a2 sqrt(3/2))."""
    A1 = 2.0 * act.a1 + 4.0 * math.sqrt(1.5) * act.a2
    A2 = (2.0 + 1.0 / math.sqrt(math.pi)) * math.sqrt(2.0 * act.a2 * math.sqrt(1.5))
    return A1, A2


def check_logconcavity_conditions(cfg: NetworkConfig, data: Dataset, beta: float,
                                  N: int = None, delta: float = None) -> ConditionReport:
    """Evaluate delta, A1-A3, H1, H2 and the K / Kd / H conditions.

    Conditions are reported, never enforced: samplers run regardless with
    this certificate attached to output metadata.
    """
    if N is None:
        N = data.N
    act = cfg.activation
    a2 = act.a2
    C_N = compute_C_n(data, N, act.a0, cfg.V)
    if delta is None:
        delta = compute_delta(cfg.K, a2, beta, C_N, cfg.V)
    A1, A2 = _A1_A2(act)
    A2_alt = (1.0 + 1.0 / math.sqrt(math.pi)) * math.sqrt(2.0 * a2 * math.sqrt(1.5))
    cv = C_N * cfg.V
    A3 = 4.0 * math.sqrt(1.5 / math.e) * a2 * cv ** 1.5 * (A1 + A2 * math.sqrt(cv))
    H1 = 2.0 / math.sqrt(2.0 * math.pi) * delta / (1.0 - delta) * math.sqrt(2.0 * math.log(2.0 / delta))
    ratio = a2 * beta * C_N * cfg.V / cfg.K
    H2 = ratio ** 2 * delta ** 2 / (2.0 * math.pi * (1.0 - delta) ** 2)
    cond_K = cfg.K * math.log(2.0 * cfg.K * cfg.d / delta) <= beta * N
    cond_Kd = cfg.K * cfg.d >= A3 * (beta * N) ** 2
    cond_H = (H1 <= 1.0 / 100.0) and (H2 <= 1.0 / 10.0)
    return ConditionReport(
        A1=A1, A2=A2, A3=A3, H1=H1, H2=H2,
        cond_K=cond_K, cond_Kd=cond_Kd, cond_H=cond_H,
        delta_used=delta, A2_variant=A2_alt,
        beta_n_ok=beta * N >= 2.0,
        rho=compute_rho(a2, beta, C_N, cfg.V, cfg.K), C_N=C_N,
    )


def estimate_Z_and_check(w: np.ndarray, u: np.ndarray, params: CouplingParams,
                         X: np.ndarray, mc_budget: int,
                         rng: np.random.Generator) -> dict:
    """Monte Carlo estimate of Z(w) = ln P(xi in B | w) and its derivative.

    The directional derivative along u uses central differences with common
    random numbers.  The derivative bound is rho*sigma_tilde*delta /
    ((1-delta)*sqrt(2pi)) with sigma_tilde^2 = sum_{i,k} (u_k . x_i)^2 / rho.
    Also reports the coupling probability estimate against its lower bound
    1 - delta/sqrt(2 ln(2Kd/delta)) implied by the threshold construction.
    """
    if mc_budget < 1000:
        raise ValueError("mc_budget too small for a useful Z estimate")
    X = np.asarray(X)
    w = np.asarray(w, dtype=float)
    u = np.asarray(u, dtype=float).reshape(w.shape)
    n, K = X.shape[0], w.shape[0]
    d = X.shape[1]
    rho, b, delta = params.rho, params.b_threshold, params.delta

    noise = rng.standard_normal((mc_budget, n, K)) / math.sqrt(rho)

    def inside_frac(ws):
        means = X @ ws.T
        xi = noise + means[None, :, :]
        col = np.einsum("ij,bik->bjk", X, xi)
        return np.max(np.abs(col), axis=(1, 2)) <= b

    h = 0.01
    ins0 = inside_frac(w)
    insp = inside_frac(w + h * u)
    insm = inside_frac(w - h * u)
    p0, pp, pm = ins0.mean(), insp.mean(), insm.mean()
    if min(pp, pm) <= 0.0:
        raise RuntimeError("no draws landed in B; mc_budget too small")
    Z = math.log(p0)
    grad = (math.log(pp) - math.log(pm)) / (2.0 * h)
    infl = insp / pp - insm / pm
    se_grad = float(np.std(infl, ddof=1) / math.sqrt(mc_budget) / (2.0 * h))

    ux = u @ X.T
    sigma_tilde = math.sqrt(float(np.sum(ux ** 2)) / rho)
    grad_bound = rho * sigma_tilde * delta / ((1.0 - delta) * math.sqrt(2.0 * math.pi))

    two_kd = 2.0 * K * d
    prob_lower = 1.0 - delta / math.sqrt(2.0 * math.log(two_kd / delta))
    se_p = math.sqrt(max(p0 * (1 - p0), 1e-300) / mc_budget)
    return {
        "Z": Z,
        "prob_in_B": float(p0),
        "prob_se": se_p,
        "prob_lower_bound": prob_lower,
        "prob_ok": p0 + 3 * se_p >= prob_lower,
        "grad_dir": grad,
        "grad_se": se_grad,
        "grad_bound": grad_bound,
        "grad_ok": abs(grad) <= grad_bound + 3.0 * se_grad,
        "sigma_tilde": sigma_tilde,
    }


@dataclass(frozen=True)
class HolderBound:
    """Product bound on the reverse-conditional variance in a direction."""

    ell: int
    bound: float
    l_star: float
    l_star_int: int
    bound_at_l_star: float
    bound_floor: float
    bound_ceil: float


def holder_variance_bound(ell: int, cfg: NetworkConfig, params: CouplingParams) -> HolderBound:
    """Moment-times-CGF bound for Var(sum_k u_k^T X w_k | xi) over xi in B.

    bound(l) = [4 l n / (sqrt(e) d)] * exp(A1*CnVbn/l + A2*sqrt(CnVbn*K*ln(2Kd/delta))/l)

    with CnVbn = C_n*V*beta*n.  The continuous optimizer l* equals the
    numerator of the exponent; the returned record also evaluates the bound
    at the nearest admissible integers.  Multiplying bound by rho and getting
    a value below 1 certifies marginal log-concavity.
    """
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    n, K, d, delta = params.n, cfg.K, cfg.d, params.delta
    A1, A2 = _A1_A2(cfg.activation)
    cnvbn = params.C_n * cfg.V * params.beta * n
    log_term = math.log(2.0 * K * d / delta)
    numer = A1 * cnvbn + A2 * math.sqrt(cnvbn * K * log_term)

    def bound_at(l):
        return prior_moment_bound(l, n, d) * math.exp(numer / l)

    l_star = numer
    lo = max(1, math.floor(l_star))
    hi = max(1, math.ceil(l_star))
    b_lo, b_hi = bound_at(lo), bound_at(hi)
    l_int = lo if b_lo <= b_hi else hi
    return HolderBound(
        ell=ell,
        bound=bound_at(ell),
        l_star=l_star,
        l_star_int=l_int,
        bound_at_l_star=min(b_lo, b_hi),
        bound_floor=b_lo,
        bound_ceil=b_hi,
    )

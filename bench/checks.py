"""Reference computations and output checks, written apart from lccnn.

Nothing here calls the code under test: the ESS estimator, the l1-ball
sampler, the quadrature of p_n, the brute-force regret ledger and the paper's
constants are the benchmark's own.  Each check returns a list of problems;
an empty list means the output passed.

The workloads use tanh(z) (a = c = 1), whose bounds a0, a1, a2 are clamped
up to 1 as the theory requires, and outer weights c_k = V/K.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate
from scipy.special import logsumexp

A0 = A1 = A2 = 1.0  # tanh bounds, clamped up to 1


# ----------------------------------------------------------------------
# shared references
# ----------------------------------------------------------------------

def ess(x):
    """ESS by Geyer's initial positive sequence: the autocorrelations are
    summed in adjacent pairs up to the first pair whose sum is not positive.

    x is one chain, shape (S,), or one chain per column, shape (S, p); the
    result is a float or an array of p values.
    """
    x = np.asarray(x, dtype=float)
    cols = x.reshape(len(x), -1)
    S = len(cols)
    cols = cols - cols.mean(axis=0)
    var = np.einsum("sp,sp->p", cols, cols) / S
    out = np.full(cols.shape[1], float(S))
    ok = var > 0.0
    if S >= 4 and ok.any():
        nfft = 1 << (2 * S - 1).bit_length()
        spec = np.fft.rfft(cols[:, ok], nfft, axis=0)
        rho = np.fft.irfft(spec * np.conj(spec), nfft, axis=0)[:S] / (S * var[ok])
        m = (S - 2) // 2
        pairs = rho[1:2 * m + 1:2] + rho[2:2 * m + 2:2]          # (m, p)
        positive = np.cumprod(pairs > 0.0, axis=0)               # 1 up to the first stop
        out[ok] = S / (1.0 + 2.0 * np.sum(pairs * positive, axis=0))
    return float(out[0]) if x.ndim == 1 else out


def ess_multi(chains) -> float:
    """ESS summed over several chains of one target, all of one length.

    The autocorrelations are averaged over the chains before Geyer's initial
    positive sequence sums them, as in `ess`, and the sum is that of every
    chain at the pooled autocorrelation.  Per-chain estimates of short chains
    have a heavy upper tail (a chain whose first pair sum is negative counts
    all its draws), so their sum varies far more from seed to seed.  The
    spread between chain means is left out: with some fifty chains its
    estimate alone varies by about 20%.
    """
    x = np.asarray(chains, dtype=float)                       # (m, S)
    m, S = x.shape
    dev = x - x.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * S - 1).bit_length()
    spec = np.fft.rfft(dev, nfft, axis=1)
    acov = np.fft.irfft(spec * np.conj(spec), nfft, axis=1)[:, :S].mean(axis=0)
    if acov[0] <= 0.0:
        return float(m * S)
    rho = acov / acov[0]
    k = (S - 2) // 2
    pairs = rho[1:2 * k + 1:2] + rho[2:2 * k + 2:2]
    positive = np.cumprod(pairs > 0.0)
    return float(m * S / (1.0 + 2.0 * np.sum(pairs * positive)))


def l1_ball_uniform(rng: np.random.Generator, size: int, d: int) -> np.ndarray:
    """Uniform draws from the l1 unit ball in R^d, shape (size, d).

    Spacings of d sorted uniforms are Dirichlet(1, ..., 1) in d + 1 parts;
    dropping one part and attaching random signs gives the ball.
    """
    u = np.sort(rng.random((size, d)), axis=1)
    spacings = np.diff(u, axis=1, prepend=0.0)
    return spacings * rng.choice((-1.0, 1.0), size=(size, d))


def coupling_constants(K: int, d: int, V: float, beta: float, y: np.ndarray) -> dict:
    """rho, delta and A3 from the paper's formulas at prefix y (n = len(y))."""
    C = float(np.max(np.abs(y))) + A0 * V
    rho = math.sqrt(1.5) * A2 * beta * C * V / K
    delta = min(1.0 / 300.0, math.sqrt(2.0 * math.pi / 11.0) * K / (A2 * beta * C * V))
    A1c = 2.0 * A1 + 4.0 * math.sqrt(1.5) * A2
    A2c = (2.0 + 1.0 / math.sqrt(math.pi)) * math.sqrt(2.0 * A2 * math.sqrt(1.5))
    A3 = 4.0 * math.sqrt(1.5 / math.e) * A2 * (C * V) ** 1.5 * (A1c + A2c * math.sqrt(C * V))
    return {"rho": rho, "delta": delta, "A3": A3}


def posterior_mean_f(X, y, beta: float, x) -> float:
    """E_{p_n}[tanh(w . x)] for K = 1, d = 2 by adaptive 2-D quadrature.

    p_n(w) is proportional to exp(-beta/2 sum_i (y_i - tanh(w . x_i))^2) on
    the l1 ball; the ball is split at w_1 = 0 so each piece has smooth limits.
    """
    X, y, x = (np.asarray(a, dtype=float) for a in (X, y, x))

    def density(w2, w1):
        r = y - np.tanh(X[:, 0] * w1 + X[:, 1] * w2)
        return math.exp(-0.5 * beta * float(r @ r))

    def integral(fn):
        total = 0.0
        for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
            val, _ = integrate.dblquad(fn, lo, hi, lambda a: abs(a) - 1.0,
                                       lambda a: 1.0 - abs(a),
                                       epsabs=1e-13, epsrel=1e-11)
            total += val
        return total

    z = integral(density)
    return integral(lambda w2, w1: density(w2, w1) * math.tanh(w1 * x[0] + w2 * x[1])) / z


# ----------------------------------------------------------------------
# nested-k1d2: lccnn sample
# ----------------------------------------------------------------------

def check_draws(draws: np.ndarray, expected: int) -> list:
    """Every draw is finite, in the product of l1 balls, and none is missing."""
    problems = []
    if len(draws) != expected:
        problems.append(f"{len(draws)} draws, expected {expected}")
    if not np.all(np.isfinite(draws)):
        problems.append("non-finite draw")
    elif len(draws) and np.max(np.abs(draws).sum(axis=2)) > 1.0 + 1e-12:
        problems.append("draw outside the product of l1 balls")
    return problems


def check_pooled_mean(chains, truth: float, delta: float, sup_f: float,
                      z: float = 4.0) -> list:
    """Pooled chain mean of f against the quadrature truth.

    chains is a list of per-chain f sequences.  The tolerance is z Monte
    Carlo standard errors (each chain's variance over its own ESS) plus the
    bias the dropped normaliser Z can cause: the sampled w-marginal is p_n
    reweighted by P(B | w) in [1 - delta, 1], which moves a mean of f by at
    most delta / (1 - delta) * sup|f|.
    """
    sizes = np.array([len(f) for f in chains], dtype=float)
    share = sizes / sizes.sum()
    mean = float(sum(s * np.mean(f) for s, f in zip(share, chains)))
    var = sum(s * s * np.var(f) / ess(f) for s, f in zip(share, chains))
    tol = z * math.sqrt(var) + delta / (1.0 - delta) * sup_f
    if abs(mean - truth) > tol:
        return [f"pooled mean {mean:.6f} vs quadrature {truth:.6f}: "
                f"|error| > tolerance {tol:.6f}"]
    return []


# ----------------------------------------------------------------------
# indep-k2d150: independence MH and the marginal-concavity certificate
# ----------------------------------------------------------------------

class ImportanceSampler:
    """Self-normalised IS for E[X w_k] under p*(w | xi), shared across xi.

    The proposal is the uniform prior on the product of l1 balls, drawn once
    with the benchmark's own sampler, so each weight is the unnormalised
    reverse density exp(-beta/2 sum_i res_i^2 - rho/2 sum_{i,k} (xi_ik - z_ik)^2).
    It depends on w only through the projections z_ik = x_i . w_k, and only
    the coupling term depends on xi.
    """

    def __init__(self, X, y, beta: float, rho: float, V: float, K: int, rng,
                 draws: int = 50_000):
        d = X.shape[1]
        W = l1_ball_uniform(rng, draws * K, d).reshape(draws, K, d)
        z = np.einsum("mkd,nd->mnk", W, X)                      # (M, n, K)
        res = y[None, :] - (V / K) * np.tanh(z).sum(axis=2)
        self.shape = z.shape[1:]
        self.z = z.reshape(draws, -1)                           # (M, nK)
        self.z_sq = self.z * self.z
        self.base = -0.5 * beta * np.sum(res * res, axis=1) - 0.5 * rho * self.z_sq.sum(axis=1)
        self.rho = rho

    def mean_projection(self, xi):
        """(mean, se) of X w_k, each shaped (n, K)."""
        xi = np.asarray(xi, dtype=float).reshape(-1)
        logw = self.base + self.rho * (self.z @ xi)   # xi-only terms cancel on normalising
        wts = np.exp(logw - logsumexp(logw))
        mean = wts @ self.z
        w2 = wts * wts
        var = w2 @ self.z_sq - 2.0 * mean * (w2 @ self.z) + mean * mean * w2.sum()
        return mean.reshape(self.shape), np.sqrt(np.maximum(var, 0.0)).reshape(self.shape)


def chain_summary(proj: np.ndarray) -> dict:
    """What the checks and ESS need from one chain's projections X w_k,
    shape (S, n, K), retained with thinning 1: a retained draw that differs
    from the one before is an accepted move."""
    flat = proj.reshape(len(proj), -1)
    return {"mean": flat.mean(axis=0),
            "se": np.std(flat, axis=0) / np.sqrt(ess(flat)),
            "acceptance": float(np.mean(np.any(flat[1:] != flat[:-1], axis=1))),
            "ess": ess(flat.sum(axis=1))}


def check_indep(summary: dict, certificate, is_mean, is_se, z: float = 6.0) -> list:
    """One xi point: certificate below 1, acceptance, mean of X w vs IS.

    A run makes about 20 projections x 200 xi points of these comparisons,
    so z = 6 (two-sided 2e-9 each) keeps a false alarm in a run below 1e-5;
    at z = 5 an honest run would fail about once in 300.
    """
    problems = []
    est, se = certificate
    if not est + 2.0 * se < 1.0:
        problems.append(f"certificate rho*lambda + 2se = {est + 2.0 * se:.4f} >= 1")
    if not summary["acceptance"] > 0.05:
        problems.append(f"acceptance {summary['acceptance']:.3f} <= 0.05")
    gap = np.abs(summary["mean"] - is_mean.reshape(-1))
    tol = z * np.sqrt(summary["se"] ** 2 + is_se.reshape(-1) ** 2)
    if np.any(gap > tol):
        worst = int(np.argmax(gap / tol))
        problems.append(f"mean of X w differs from importance sampling at coordinate "
                        f"{worst}: {gap[worst]:.2e} > {tol[worst]:.2e}")
    return problems


# ----------------------------------------------------------------------
# exact-ledger: lccnn regret and PosteriorQuadrature
# ----------------------------------------------------------------------

def grid_points(d: int, M: int) -> np.ndarray:
    """All w in R^d with coordinates in multiples of 1/M and ||w||_1 <= 1."""
    pts = [v for v in itertools.product(range(-M, M + 1), repeat=d)
           if sum(abs(t) for t in v) <= M]
    return np.array(pts, dtype=float) / M


def brute_force_ledger(X, y, g, beta: float, K: int, d: int, M: int, V: float,
                       rows: int) -> np.ndarray:
    """The first ledger rows (r_square, r_rand, r_log, lambda) by enumeration.

    Row n uses the exact posterior on the K-fold grid product after n - 1
    observations, under the uniform grid prior, against competitor g.
    """
    grid = grid_points(d, M)
    idx = np.array(list(itertools.product(range(len(grid)), repeat=K)))
    W = grid[idx]                                    # (P, K, d)
    f = (V / K) * np.tanh(np.einsum("pkd,nd->pkn", W, X[:rows])).sum(axis=1)  # (P, rows)
    b = 0.5 * (A0 * V + float(np.max(np.abs(g))))
    out = []
    loglik = np.zeros(len(W))
    for n in range(rows):
        logp = loglik - logsumexp(loglik)
        p = np.exp(logp)
        fn, yn = f[:, n], y[n]
        eps = yn - g[n]
        mu = p @ fn
        r_square = 0.5 * ((yn - mu) ** 2 - eps ** 2)
        r_rand = 0.5 * (p @ (yn - fn) ** 2 - eps ** 2)
        log_pred = logsumexp(logp + 0.5 * math.log(beta / (2 * math.pi))
                             - 0.5 * beta * (yn - fn) ** 2)
        log_q = 0.5 * math.log(beta / (2 * math.pi)) - 0.5 * beta * eps ** 2
        out.append((r_square, r_rand, (log_q - log_pred) / beta, b * abs(eps) + b * b))
        loglik = loglik - 0.5 * beta * (yn - fn) ** 2
    return np.array(out)


def square_regret_beta(y, d: int, V: float) -> float:
    """The fourth-root beta* of the square-regret bound at N = len(y).

    The competitor bound b is taken as a0 V, so P = a0 V; C_N = max|y| + a0 V,
    Q = (a2 V C_N + a1^2 V^2) / 2 and B1 = (C_N + P)^2, and
    beta* = sqrt(a0 V) Q^(1/4) / (2 P^(3/2) B1^(3/4)) * (ln(2d + 1) / N)^(1/4).
    """
    C = float(np.max(np.abs(y))) + A0 * V
    P = A0 * V
    Q = 0.5 * (A2 * V * C + A1 ** 2 * V ** 2)
    B1 = (C + P) ** 2
    g1 = math.sqrt(A0 * V) * Q ** 0.25 / (2.0 * P ** 1.5 * B1 ** 0.75)
    return g1 * (math.log(2 * max(d, 2) + 1) / len(y)) ** 0.25


def square_regret_bound(y, g, beta: float, K: int, d: int, M: int, V: float) -> float:
    """The paper's bound on the average square regret at N = len(y):

    M K ln(2d + 1) / (beta N) + a0^2 V^2 / (2K) + (a2 V C_N + a1^2 V^2) / (2M)
    + 2 beta P^2 (C_N + P)^2, with C_N = max|y| + a0 V, P = (a0 V + b) / 2 and
    b = max|g| over the prefix.
    """
    N = len(y)
    C = float(np.max(np.abs(y))) + A0 * V
    P = 0.5 * (A0 * V + float(np.max(np.abs(g))))
    return (M * K * math.log(2 * max(d, 2) + 1) / (beta * N)
            + A0 ** 2 * V ** 2 / (2.0 * K)
            + (A2 * V * C + A1 ** 2 * V ** 2) / (2.0 * M)
            + 2.0 * beta * P ** 2 * (C + P) ** 2)


def check_ledger(ledger: np.ndarray, bounds: np.ndarray, N: int, beta: float,
                 brute: np.ndarray, reference_bounds: np.ndarray,
                 tol: float = 1e-9, slack: float = 1e-12) -> list:
    """The ledger CSV columns (n, r_square, r_rand, r_log, lambda, averages)
    and the (N, beta, R_square, bound) rows of the realised-vs-bound CSV.

    beta is the benchmark's own beta* at the full N; reference_bounds holds
    the benchmark's own (N, beta*, bound) at every dyadic N.
    """
    problems = []
    n, rs, rr, rl, lam = ledger[:, :5].T
    if not np.array_equal(n, np.arange(1, N + 1)):
        problems.append("ledger rows are not n = 1..N in order")
    steps = np.arange(1, len(ledger) + 1)
    running = np.cumsum(ledger[:, 1:4], axis=0) / steps[:, None]
    if not np.allclose(ledger[:, 5:8], running, rtol=0.0, atol=1e-12):
        problems.append("running averages disagree with the per-step regrets")
    bad = np.flatnonzero((rs > rr + slack) | (rl > rr + slack)
                         | (rr > rl + 2.0 * beta * lam ** 2 + slack))
    if len(bad):
        problems.append(f"regret ordering violated at n = {int(n[bad[0]])}")
    if len(bounds) != len(reference_bounds) or not np.array_equal(bounds[:, 0],
                                                                   reference_bounds[:, 0]):
        problems.append("realised-vs-bound rows do not cover every dyadic N")
        return problems
    if not np.allclose(bounds[:, 1], reference_bounds[:, 1], rtol=1e-12, atol=0.0):
        problems.append("beta column differs from the fourth-root beta*")
    if not np.allclose(bounds[:, 3], reference_bounds[:, 2], rtol=1e-12, atol=0.0):
        problems.append("bound column differs from the closed-form square-regret bound")
    over = np.flatnonzero(bounds[:, 2] > reference_bounds[:, 2])
    if len(over):
        problems.append(f"R_square above the closed-form bound at N = "
                        f"{int(bounds[over[0], 0])}")
    head = ledger[: len(brute), 1:5]
    if head.shape != brute.shape or not np.allclose(head, brute, rtol=0.0, atol=tol):
        problems.append("first ledger rows differ from brute-force enumeration")
    return problems


def check_quadrature(mass: float, mean_f: float, truth: float, resolution: int) -> list:
    """Total mass 1, and mean f within the midpoint rule's O(h^2) error."""
    problems = []
    if abs(mass - 1.0) > 1e-9:
        problems.append(f"quadrature mass {mass!r} is not 1")
    h = 2.0 / resolution
    if abs(mean_f - truth) > h * h:
        problems.append(f"quadrature mean f {mean_f:.9f} vs {truth:.9f}: "
                        f"error above h^2 = {h * h:.2e}")
    return problems

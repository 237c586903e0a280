"""Named verification suites driving the module invariants.

Each suite returns a record with a pass flag and a measured margin, so the
CLI can emit one line per suite and tests can assert on the same machinery.
Suites are sized to run in seconds, and they are not the acceptance tests'
runs: suite_hessian uses criterion 05's data but draws its weights from
default_rng(17), where criterion 05 goes on drawing from the data's
default_rng(5); suite_marginal runs 5 xi points of 2,500 steps on its own
data, where criterion 06 runs 20 of 3,000.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from .nnmodel import Dataset, NetworkConfig, tanh_scaled
from .priors import (
    ContinuousL1Prior,
    DiscreteGridPrior,
    dirichlet_moment,
    discretize_weights,
    enumerate_grid,
    prior_moment_bound,
    sample_continuous,
)
from .coupling import (
    CouplingParams,
    check_logconcavity_conditions,
    estimate_Z_and_check,
    holder_variance_bound,
    marginal_concavity_estimate,
    reverse_hessian_quadform,
    sample_xi_given_w,
)
from .samplers import ChainConfig, sample_reverse_conditional_prior_mh
from .risk import bayes_factor_telescope

__all__ = ["SUITES", "run_suite", "run_suites"]


def _result(name, passed, margin, detail=""):
    return {"suite": name, "passed": bool(passed), "margin": float(margin),
            "detail": detail}


def _toy_data(n, d, seed, y_scale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    X[:, 0] = 1.0
    y = y_scale * rng.uniform(-1.0, 1.0, size=n)
    return Dataset(X=X, y=y)


def suite_telescope() -> dict:
    """Sum of log predictives vs log(Z_N/Z_0) at d=2, M=1, K=1, N=5."""
    cfg = NetworkConfig(K=1, d=2, V=1.0, activation=tanh_scaled())
    data = _toy_data(5, 2, seed=11)
    grid = enumerate_grid(DiscreteGridPrior(d=2, M=1))
    out = bayes_factor_telescope(cfg, grid, data, beta=1.0, N=5)
    margin = 1e-12 - out["residual"]
    return _result("telescope", out["residual"] <= 1e-12, margin,
                   f"residual={out['residual']:.3e}")


def suite_hessian(n_draws: int = 1000) -> dict:
    """Reverse Hessian quadratic form <= 1e-10 at a condition-meeting config."""
    cfg = NetworkConfig(K=2, d=4, V=1.0, activation=tanh_scaled())
    data = _toy_data(6, 4, seed=5)
    beta = 0.5
    report = check_logconcavity_conditions(cfg, data, beta)
    params = CouplingParams.from_config(cfg, data, n=6, beta=beta)
    rng = np.random.default_rng(17)
    prior = ContinuousL1Prior(d=4, K=2)
    worst = -math.inf
    violations = 0
    for _ in range(n_draws):
        w = sample_continuous(prior, rng)
        xi, _ = sample_xi_given_w(w, data.X, params, rng)
        u = rng.standard_normal(cfg.K * cfg.d)
        u /= np.linalg.norm(u)
        q = reverse_hessian_quadform(cfg, w, xi, data, params, u)
        worst = max(worst, q)
        if q > 1e-10:
            violations += 1
    return _result("hessian", violations == 0 and report.cond_H, -worst,
                   f"violations={violations}/{n_draws} worst={worst:.3e} H1={report.H1:.3g}")


def suite_marginal(n_xi: int = 5) -> dict:
    """Empirical marginal concavity certificate at a Kd >= A3 (beta N)^2 config."""
    cfg = NetworkConfig(K=2, d=150, V=1.0, activation=tanh_scaled())
    n = 10
    beta = 0.05
    data = _toy_data(n, 150, seed=3)
    report = check_logconcavity_conditions(cfg, data, beta)
    params = CouplingParams.from_config(cfg, data, n=n, beta=beta)
    hb = holder_variance_bound(2, cfg, params)
    rho_bound = params.rho * hb.bound_at_l_star
    rng = np.random.default_rng(23)
    prior = ContinuousL1Prior(d=cfg.d, K=cfg.K)
    worst = -math.inf
    chain = ChainConfig(step_size=1.0, iterations=2500, burn_in=500, thinning=1, seed=7)
    min_acc = 1.0
    for j in range(n_xi):
        w = sample_continuous(prior, rng)
        xi, _ = sample_xi_given_w(w, data.X, params, rng)
        samples, cdiag = sample_reverse_conditional_prior_mh(cfg, data, params, xi,
                                                             chain, chain_id=j)
        min_acc = min(min_acc, cdiag.acceptance_rate)
        est, se = marginal_concavity_estimate(xi, samples, params, data.X[:n])
        worst = max(worst, est + 2.0 * se)
    ok = worst < 1.0 and rho_bound < 1.0 and report.cond_Kd and worst > 0.0 and min_acc > 0.05
    return _result("marginal", ok, 1.0 - max(worst, rho_bound),
                   f"max est+2se={worst:.2e} rho*holder={rho_bound:.3f} "
                   f"cond_Kd={report.cond_Kd} min_acc={min_acc:.2f}")


def suite_moments() -> dict:
    """Dirichlet moments vs quadrature; moment bound dominates MC estimates."""
    worst_gap = math.inf
    # d = 1: E[w^r] = 1/(r+1) by direct integration
    for r in (2, 4):
        exact = dirichlet_moment(1, [r])["dirichlet"]
        quad, _ = integrate.quad(lambda w: w ** r, 0.0, 1.0)
        worst_gap = min(worst_gap, 1e-6 - abs(exact - quad))
    # d = 2 with density 2 on the simplex
    for r in ((2, 0), (2, 2), (4, 0)):
        exact = dirichlet_moment(2, r)["dirichlet"]
        quad, _ = integrate.dblquad(
            lambda w2, w1: 2.0 * w1 ** r[0] * w2 ** r[1],
            0.0, 1.0, 0.0, lambda w1: 1.0 - w1)
        worst_gap = min(worst_gap, 1e-6 - abs(exact - quad))
    rng = np.random.default_rng(41)
    ok = worst_gap >= 0.0
    margin = worst_gap
    for _ in range(4):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(2, 7))
        K = int(rng.integers(1, 3))
        X = rng.uniform(-1, 1, size=(n, d))
        u = rng.standard_normal(n * K)
        u /= np.linalg.norm(u)
        u = u.reshape(K, n)
        draws = np.stack([sample_continuous(ContinuousL1Prior(d=d, K=K), rng)
                          for _ in range(20_000)])
        v = np.einsum("kn,nd,skd->s", u, X, draws)
        for ell in (1, 2, 3):
            mc = float(np.mean(v ** (2 * ell))) ** (1.0 / ell)
            bound = prior_moment_bound(ell, n, d)
            ok = ok and (mc <= bound)
            margin = min(margin, bound - mc)
    return _result("moments", ok, margin, "dirichlet quadrature + moment bound")


def suite_discretize() -> dict:
    """Unbiasedness and the 1/M conditional variance of the grid rounding."""
    rng = np.random.default_rng(9)
    w = sample_continuous(ContinuousL1Prior(d=5, K=1), rng)
    M = 3
    reps = 20_000
    draws = np.stack([discretize_weights(w, M, rng)[0] for _ in range(reps)])
    err = np.abs(draws.mean(axis=0) - w[0])
    se = draws.std(axis=0, ddof=1) / math.sqrt(reps)
    unbiased_ok = bool(np.all(err <= 3.0 * se + 1e-12))
    x = rng.uniform(-1, 1, size=5)
    prods = draws @ x
    var = float(np.var(prods, ddof=1))
    var_se = var * math.sqrt(2.0 / (reps - 1))
    var_ok = var <= 1.0 / M + 3.0 * var_se
    margin = min(float(np.min(3.0 * se - err)), 1.0 / M + 3.0 * var_se - var)
    return _result("discretize", unbiased_ok and var_ok, margin,
                   f"max|bias|={err.max():.2e} var={var:.4f} (1/M={1/M:.4f})")


def suite_zfun() -> dict:
    """Z(w) derivative bound and magnitude from Monte Carlo.

    delta is set to 1/20 (still within the (0, 1/16] range) so the set B is
    tight enough for the truncation to be visible above the MC noise.
    """
    cfg = NetworkConfig(K=1, d=3, V=1.0, activation=tanh_scaled())
    # worst-case geometry: all-ones inputs and a near-vertex weight row put
    # the column-sum means at their extreme, so B actually truncates
    data = Dataset(X=np.ones((4, 3)), y=np.array([0.5, -0.5, 0.25, 0.0]))
    params = CouplingParams.from_config(cfg, data, n=4, beta=2.0, delta=0.05)
    rng = np.random.default_rng(33)
    w = np.array([[0.97, 0.0, 0.0]])
    u = np.array([[1.0, 0.0, 0.0]])
    rec = estimate_Z_and_check(w, u, params, data.X, mc_budget=60_000, rng=rng)
    margin = rec["grad_bound"] + 3 * rec["grad_se"] - abs(rec["grad_dir"])
    return _result("zfun", rec["grad_ok"] and rec["prob_ok"] and rec["Z"] < 0.0, margin,
                   f"Z={rec['Z']:.2e} grad={rec['grad_dir']:.2e} bound={rec['grad_bound']:.2e}")


def suite_coupling_prob() -> dict:
    """P(xi in B | w) >= 1 - delta / sqrt(2 ln(2Kd/delta)) by Monte Carlo."""
    cfg = NetworkConfig(K=2, d=3, V=1.0, activation=tanh_scaled())
    data = _toy_data(6, 3, seed=8)
    params = CouplingParams.from_config(cfg, data, n=6, beta=1.0)
    rng = np.random.default_rng(14)
    prior = ContinuousL1Prior(d=3, K=2)
    lower = 1.0 - params.delta / math.sqrt(2.0 * math.log(2 * cfg.K * cfg.d / params.delta))
    worst = math.inf
    reps = 30_000
    for _ in range(3):
        w = sample_continuous(prior, rng)
        means = data.X @ w.T
        xi = means[None] + rng.standard_normal((reps, *means.shape)) / math.sqrt(params.rho)
        cols = np.einsum("ij,bik->bjk", data.X, xi)
        frac = float(np.mean(np.max(np.abs(cols), axis=(1, 2)) <= params.b_threshold))
        worst = min(worst, frac)
    return _result("coupling-prob", worst >= lower, worst - lower,
                   f"min P(B|w)={worst:.5f} lower={lower:.5f}")


SUITES = {
    "telescope": suite_telescope,
    "hessian": suite_hessian,
    "marginal": suite_marginal,
    "moments": suite_moments,
    "discretize": suite_discretize,
    "zfun": suite_zfun,
    "coupling-prob": suite_coupling_prob,
}


def run_suite(name: str) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return SUITES[name]()


def run_suites(names=None):
    """Run the selected suites (all when names is empty) and return records."""
    if not names:
        names = list(SUITES)
    return [run_suite(n) for n in names]

"""Named verification checks, shared by `lccnn verify` and the acceptance tests.

Each check_* function measures one claim and returns a record with a pass
flag, a margin (how far inside its threshold the worst measured value lies),
a one-line detail and the measured values.  A check's generators and sizes are
keyword arguments, and their defaults are the one size table for `lccnn
verify`: SUITES runs every check at those defaults.  The acceptance criteria
in tests/test_acceptance.py call the same functions with their own seeds and
larger sizes (criterion 01 is telescope, 05 hessian, 06 marginal, 10 moments,
11 coupling-prob and 12 discretize).  A check that takes a data and a draw
generator reads the data first, so one generator passed twice is one stream.
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

__all__ = [
    "SUITES",
    "random_dataset",
    "check_telescope",
    "check_hessian",
    "check_marginal",
    "check_moments",
    "check_discretize",
    "check_zfun",
    "check_coupling_prob",
]


def _result(name, passed, margin, detail, **measured):
    return {"suite": name, "passed": bool(passed), "margin": float(margin),
            "detail": detail, **measured}


def _rng(rng, seed):
    return np.random.default_rng(seed) if rng is None else rng


def random_dataset(rng, n, d, y_scale=1.0) -> Dataset:
    """X uniform on [-1, 1]^{n x d} with an intercept column, then y uniform
    on [-y_scale, y_scale]^n, both from rng."""
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    X[:, 0] = 1.0
    return Dataset(X=X, y=y_scale * rng.uniform(-1.0, 1.0, size=n))


def check_telescope() -> dict:
    """Sum of log predictives vs log(Z_N/Z_0) at d=2, M=1, K=1, N=5."""
    cfg = NetworkConfig(K=1, d=2, V=1.0, activation=tanh_scaled())
    data = random_dataset(np.random.default_rng(11), 5, 2)
    grid = enumerate_grid(DiscreteGridPrior(d=2, M=1))
    residual = bayes_factor_telescope(cfg, grid, data, beta=1.0, N=5)["residual"]
    return _result("telescope", residual <= 1e-12, 1e-12 - residual,
                   f"residual={residual:.3e}", residual=residual)


def check_hessian(data_rng=None, draw_rng=None) -> dict:
    """Reverse Hessian quadratic form <= 1e-10 at a condition-meeting config."""
    cfg = NetworkConfig(K=2, d=4, V=1.0, activation=tanh_scaled())
    data = random_dataset(_rng(data_rng, 5), 6, 4)
    rng = _rng(draw_rng, 17)
    beta = 0.5
    report = check_logconcavity_conditions(cfg, data, beta)
    params = CouplingParams.from_config(cfg, data, n=6, beta=beta)
    prior = ContinuousL1Prior(d=4, K=2)
    worst = -math.inf
    violations = 0
    for _ in range(1000):
        w = sample_continuous(prior, rng)
        xi, _ = sample_xi_given_w(w, data.X, params, rng)
        u = rng.standard_normal(cfg.K * cfg.d)
        u /= np.linalg.norm(u)
        q = reverse_hessian_quadform(cfg, w, xi, data, params, u)
        worst = max(worst, q)
        if q > 1e-10:
            violations += 1
    return _result("hessian", violations == 0 and report.cond_H, -worst,
                   f"violations={violations}/1000 worst={worst:.3e} H1={report.H1:.3g}",
                   worst=worst)


def check_marginal(data_rng=None, draw_rng=None, n_xi=5, iterations=2500,
                   chain_seed=7) -> dict:
    """Empirical marginal concavity certificate at a Kd >= A3 (beta N)^2 config."""
    cfg = NetworkConfig(K=2, d=150, V=1.0, activation=tanh_scaled())
    n, beta = 10, 0.05
    data = random_dataset(_rng(data_rng, 3), n, 150)
    rng = _rng(draw_rng, 23)
    report = check_logconcavity_conditions(cfg, data, beta)
    params = CouplingParams.from_config(cfg, data, n=n, beta=beta)
    rho_holder = params.rho * holder_variance_bound(2, cfg, params).bound_at_l_star
    prior = ContinuousL1Prior(d=cfg.d, K=cfg.K)
    chain = ChainConfig(step_size=1.0, iterations=iterations, burn_in=500, thinning=1,
                        seed=chain_seed)
    worst = -math.inf
    min_acc = 1.0
    for j in range(n_xi):
        w = sample_continuous(prior, rng)
        xi, _ = sample_xi_given_w(w, data.X, params, rng)
        samples, cdiag = sample_reverse_conditional_prior_mh(cfg, data, params, xi,
                                                             chain, chain_id=j)
        min_acc = min(min_acc, cdiag.acceptance_rate)
        est, se = marginal_concavity_estimate(xi, samples, params, data.X[:n])
        worst = max(worst, est + 2.0 * se)
    ok = 0.0 < worst < 1.0 and rho_holder < 1.0 and report.cond_Kd and min_acc > 0.05
    return _result("marginal", ok, 1.0 - max(worst, rho_holder),
                   f"max est+2se={worst:.2e} rho*holder={rho_holder:.3f} "
                   f"cond_Kd={report.cond_Kd} min_acc={min_acc:.2f}",
                   worst=worst, rho_holder=rho_holder)


def check_moments(rng=None, n_configs=4, n_max=6, d_max=7, n_draws=20_000) -> dict:
    """Dirichlet moments vs quadrature; moment bound dominates MC estimates
    at n_configs random (n < n_max, d < d_max, K <= 2) configurations."""
    worst_quad = 0.0
    # d = 1: E[w^r] = 1/(r+1) by direct integration
    for r in (2, 4, 6):
        quad, _ = integrate.quad(lambda w: w ** r, 0.0, 1.0)
        worst_quad = max(worst_quad, abs(dirichlet_moment(1, [r])["dirichlet"] - quad))
    # d = 2 with density 2 on the simplex
    for r in ((2, 0), (2, 2), (4, 0)):
        quad, _ = integrate.dblquad(lambda w2, w1: 2.0 * w1 ** r[0] * w2 ** r[1],
                                    0.0, 1.0, 0.0, lambda w1: 1.0 - w1)
        worst_quad = max(worst_quad, abs(dirichlet_moment(2, r)["dirichlet"] - quad))
    rng = _rng(rng, 41)
    bound_margin = math.inf
    for _ in range(n_configs):
        n = int(rng.integers(2, n_max))
        d = int(rng.integers(2, d_max))
        K = int(rng.integers(1, 3))
        X = rng.uniform(-1, 1, size=(n, d))
        u = rng.standard_normal(n * K)
        u /= np.linalg.norm(u)
        u = u.reshape(K, n)
        draws = np.stack([sample_continuous(ContinuousL1Prior(d=d, K=K), rng)
                          for _ in range(n_draws)])
        v = np.einsum("kn,nd,skd->s", u, X, draws)
        for ell in (1, 2, 3):
            mc = float(np.mean(v ** (2 * ell))) ** (1.0 / ell)
            bound_margin = min(bound_margin, prior_moment_bound(ell, n, d) - mc)
    return _result("moments", worst_quad <= 1e-6 and bound_margin >= 0.0,
                   min(1e-6 - worst_quad, bound_margin),
                   "dirichlet quadrature + moment bound",
                   worst_quad=worst_quad, bound_margin=bound_margin)


def check_discretize(rng=None, reps=20_000) -> dict:
    """Unbiasedness and the 1/M conditional variance of the grid rounding."""
    rng = _rng(rng, 9)
    w = sample_continuous(ContinuousL1Prior(d=5, K=1), rng)
    M = 3
    draws = np.stack([discretize_weights(w, M, rng)[0] for _ in range(reps)])
    err = np.abs(draws.mean(axis=0) - w[0])
    se = draws.std(axis=0, ddof=1) / math.sqrt(reps)
    unbiased_ok = bool(np.all(err <= 3.0 * se + 1e-12))
    x = rng.uniform(-1, 1, size=5)
    var = float(np.var(draws @ x, ddof=1))
    var_se = var * math.sqrt(2.0 / (reps - 1))
    var_ok = var <= 1.0 / M + 3.0 * var_se
    margin = min(float(np.min(3.0 * se - err)), 1.0 / M + 3.0 * var_se - var)
    return _result("discretize", unbiased_ok and var_ok, margin,
                   f"max|bias|={err.max():.2e} var={var:.4f} (1/M={1/M:.4f})",
                   var=var, M=M)


def check_zfun() -> dict:
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


def check_coupling_prob(data_rng=None, draw_rng=None, n_w=3, reps=30_000) -> dict:
    """P(xi in B | w) >= 1 - delta / sqrt(2 ln(2Kd/delta)) by Monte Carlo."""
    cfg = NetworkConfig(K=2, d=3, V=1.0, activation=tanh_scaled())
    data = random_dataset(_rng(data_rng, 8), 6, 3)
    rng = _rng(draw_rng, 14)
    params = CouplingParams.from_config(cfg, data, n=6, beta=1.0)
    prior = ContinuousL1Prior(d=3, K=2)
    lower = 1.0 - params.delta / math.sqrt(2.0 * math.log(2 * cfg.K * cfg.d / params.delta))
    worst = math.inf
    for _ in range(n_w):
        w = sample_continuous(prior, rng)
        means = data.X @ w.T
        xi = means[None] + rng.standard_normal((reps, *means.shape)) / math.sqrt(params.rho)
        cols = np.einsum("ij,bik->bjk", data.X, xi)
        frac = float(np.mean(np.max(np.abs(cols), axis=(1, 2)) <= params.b_threshold))
        worst = min(worst, frac)
    return _result("coupling-prob", worst >= lower, worst - lower,
                   f"min P(B|w)={worst:.5f} lower={lower:.5f}", worst=worst, lower=lower)


SUITES = {
    "telescope": check_telescope,
    "hessian": check_hessian,
    "marginal": check_marginal,
    "moments": check_moments,
    "discretize": check_discretize,
    "zfun": check_zfun,
    "coupling-prob": check_coupling_prob,
}

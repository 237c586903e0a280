"""Acceptance criteria: exact identities, oracle equivalence, bound dominance.

One test per criterion; each prints a single PASS line with its measured
margin and runtime when it succeeds (pytest -s shows them inline).
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import integrate

from lccnn.nnmodel import Dataset, NetworkConfig, eval_network_many, tanh_scaled
from lccnn.priors import (
    ContinuousL1Prior,
    DiscreteGridPrior,
    dirichlet_moment,
    discretize_weights,
    enumerate_grid,
    prior_moment_bound,
    sample_continuous,
)
from lccnn.coupling import (
    CouplingParams,
    check_logconcavity_conditions,
    holder_variance_bound,
    marginal_concavity_estimate,
    reverse_hessian_quadform,
    sample_xi_given_w,
)
from lccnn.samplers import (
    ChainConfig,
    CouplingOracle1D,
    TwoStageBudgets,
    reference_posterior_quadrature,
    sample_reverse_conditional_prior_mh,
    two_stage_sample,
)
from lccnn.estimators import sequential_discrete_posteriors
from lccnn.risk import (
    BoundInputs,
    bayes_factor_telescope,
    bound_calculator,
    optimal_hyperparams,
    regret_ledger,
)


def _report(name, margin, t0, detail=""):
    print(f"\nPASS {name} margin={margin:+.3e} ({time.time() - t0:.1f}s) {detail}")


def _random_dataset(rng, n, d, y_scale=1.0):
    X = rng.uniform(-1, 1, size=(n, d))
    X[:, 0] = 1.0
    return Dataset(X=X, y=y_scale * rng.uniform(-1, 1, size=n))


def test_criterion_01_telescoping():
    t0 = time.time()
    cfg = NetworkConfig(K=1, d=2, V=1.0, activation=tanh_scaled())
    data = _random_dataset(np.random.default_rng(11), 5, 2)
    grid = enumerate_grid(DiscreteGridPrior(d=2, M=1))
    out = bayes_factor_telescope(cfg, grid, data, beta=1.0, N=5)
    assert out["residual"] <= 1e-12
    _report("criterion-01 telescoping", 1e-12 - out["residual"], t0,
            f"residual={out['residual']:.2e}")


def test_criterion_02_regret_ordering():
    t0 = time.time()
    rng = np.random.default_rng(7)
    violations = 0
    worst = -math.inf
    for _ in range(20):
        d = int(rng.integers(2, 4))
        M = int(rng.integers(1, min(d, 2) + 1))
        K = int(rng.integers(1, 3))
        N = int(rng.integers(5, 12))
        beta = float(rng.uniform(0.5, 3.0))
        cfg = NetworkConfig(K=K, d=d, V=1.0, activation=tanh_scaled())
        data = _random_dataset(rng, N, d, y_scale=1.5)
        g = rng.uniform(-1.0, 1.0, size=N)
        grid = enumerate_grid(DiscreteGridPrior(d=d, M=M))
        snaps, _ = sequential_discrete_posteriors(cfg, grid, data, N, beta)
        ledger = regret_ledger(snaps[:-1], cfg, data, g, beta)
        for rec in ledger.records:
            gap = max(rec.r_square - rec.r_rand, rec.r_log - rec.r_rand)
            worst = max(worst, gap)
            if gap > 1e-12:
                violations += 1
    assert violations == 0
    _report("criterion-02 regret-ordering", -worst, t0,
            "20 instances, 0 violations")


def test_criterion_03_realized_vs_bound():
    t0 = time.time()
    rng = np.random.default_rng(23)
    margins = []
    for d, K in ((2, 1), (2, 2), (3, 1), (3, 2)):
        N = 200
        cfg = NetworkConfig(K=K, d=d, V=1.0, activation=tanh_scaled())
        grid = enumerate_grid(DiscreteGridPrior(d=d, M=1))
        X = rng.uniform(-1, 1, size=(N, d))
        X[:, 0] = 1.0
        w_star = grid[rng.choice(len(grid), size=K)]
        g = eval_network_many(cfg, w_star, X)
        y = g + 0.3 * rng.standard_normal(N)
        data = Dataset(X=X, y=y)
        act = cfg.activation
        C_N = float(np.max(np.abs(y))) + act.a0 * cfg.V
        b_g = float(np.max(np.abs(g)))
        inputs = BoundInputs(a0=act.a0, a1=act.a1, a2=act.a2, V=cfg.V, b=b_g,
                             sigma=0.0, C_N=C_N, d=d, N=N, M=1.0, K=K,
                             beta=1.0)
        beta = optimal_hyperparams("square_regret", inputs).beta_star
        snaps, _ = sequential_discrete_posteriors(cfg, grid, data, N, beta)
        ledger = regret_ledger(snaps[:-1], cfg, data, g, beta, b_g=b_g)
        bound = bound_calculator(
            "square_regret",
            BoundInputs(a0=act.a0, a1=act.a1, a2=act.a2, V=cfg.V, b=b_g,
                        sigma=0.0, C_N=C_N, d=d, N=N, M=1.0, K=K, beta=beta)).total
        assert ledger.R_square <= bound
        margins.append(bound - ledger.R_square)
    _report("criterion-03 realized-vs-bound", min(margins), t0,
            f"4 instances at N=200")


def test_criterion_04_closed_form_reproduction():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        a0 = float(rng.uniform(1.0, 2.0))
        a1 = float(rng.uniform(1.0, 2.5))
        a2 = float(rng.uniform(1.0, 2.5))
        V = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.2, 2.0))
        sigma = float(rng.uniform(0.4, 2.0))
        C_N = float(rng.uniform(1.0, 3.0))
        d = int(rng.integers(2, 50))
        N = int(rng.integers(100, 10 ** 6))
        inputs = BoundInputs(a0=a0, a1=a1, a2=a2, V=V, b=b, sigma=sigma,
                             C_N=C_N, d=d, N=N, M=1.0, K=1.0,
                             beta=1.0 / sigma ** 2)
        for kind in ("square_regret", "msr", "kl"):
            opt = optimal_hyperparams(kind, inputs)
            rel = abs(opt.bound_continuous - opt.closed_form) / opt.closed_form
            worst = max(worst, rel)
    assert worst <= 1e-9
    _report("criterion-04 closed-forms", 1e-9 - worst, t0,
            f"50-point grid x 3 kinds, worst rel err {worst:.2e}")


def test_criterion_05_reverse_logconcavity():
    t0 = time.time()
    cfg = NetworkConfig(K=2, d=4, V=1.0, activation=tanh_scaled())
    rng = np.random.default_rng(5)
    data = _random_dataset(rng, 6, 4)
    beta = 0.5
    report = check_logconcavity_conditions(cfg, data, beta)
    assert report.H1 <= 1.0 / 100.0 and report.H2 <= 1.0 / 10.0
    params = CouplingParams.from_config(cfg, data, n=6, beta=beta)
    prior = ContinuousL1Prior(d=4, K=2)
    worst = -math.inf
    for _ in range(1000):
        w = sample_continuous(prior, rng)
        xi, _ = sample_xi_given_w(w, data.X, params, rng)
        u = rng.standard_normal(8)
        u /= np.linalg.norm(u)
        worst = max(worst, reverse_hessian_quadform(cfg, w, xi, data, params, u))
    assert worst <= 1e-10
    _report("criterion-05 reverse-logconcavity", -worst, t0,
            f"1000 draws, worst quadform {worst:.2e}")


def test_criterion_06_marginal_concavity():
    t0 = time.time()
    cfg = NetworkConfig(K=2, d=150, V=1.0, activation=tanh_scaled())
    n, beta = 10, 0.05
    rng = np.random.default_rng(31)
    data = _random_dataset(rng, n, 150)
    report = check_logconcavity_conditions(cfg, data, beta)
    assert report.cond_Kd  # Kd >= A3 (beta N)^2
    params = CouplingParams.from_config(cfg, data, n=n, beta=beta)
    hb = holder_variance_bound(2, cfg, params)
    rho_holder = params.rho * hb.bound_at_l_star
    assert rho_holder < 1.0
    prior = ContinuousL1Prior(d=150, K=2)
    chain = ChainConfig(step_size=1.0, iterations=3000, burn_in=500,
                        thinning=1, seed=13)
    worst = -math.inf
    for j in range(20):
        w = sample_continuous(prior, rng)
        xi, _ = sample_xi_given_w(w, data.X, params, rng)
        samples, diag = sample_reverse_conditional_prior_mh(
            cfg, data, params, xi, chain, chain_id=j)
        assert diag.acceptance_rate > 0.05
        est, se = marginal_concavity_estimate(xi, samples, params, data.X[:n])
        worst = max(worst, est + 2.0 * se)
    assert worst < 1.0
    _report("criterion-06 marginal-concavity", 1.0 - max(worst, rho_holder), t0,
            f"20 xi, max est+2se={worst:.2e}, rho*holder={rho_holder:.3f}")


def _oracle_1d(beta=3.0, include_Z=True, n_w=2001):
    cfg = NetworkConfig(K=1, d=1, V=1.0, activation=tanh_scaled())
    data = Dataset(X=np.ones((2, 1)), y=np.array([0.8, 0.4]))
    params = CouplingParams.from_config(cfg, data, n=2, beta=beta)
    return cfg, data, params, CouplingOracle1D(cfg, data, params, n_w=n_w,
                                               include_Z=include_Z)


def test_criterion_07_mixture_consistency():
    t0 = time.time()
    cfg, data, params, oracle = _oracle_1d(n_w=200)
    pts, cell = oracle.xi_grid(points_per_dim=48, span=6.0)
    mixture = oracle.mixture_density(pts, cell)
    target = oracle.posterior_density()
    sup = float(np.max(np.abs(mixture - target)))
    assert sup <= 1e-3
    _report("criterion-07 mixture-consistency", 1e-3 - sup, t0,
            f"sup gap {sup:.2e} on 200-point grid")


def test_criterion_08_score_identity():
    t0 = time.time()
    cfg, data, params, oracle = _oracle_1d()
    rng = np.random.default_rng(2)
    h = 1e-4
    worst = 0.0
    for _ in range(10):
        w = sample_continuous(ContinuousL1Prior(d=1, K=1), rng)
        xi, _ = sample_xi_given_w(w, data.X, params, rng)
        xi = xi.reshape(-1)
        s = oracle.score(xi).ravel()
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (oracle.log_marginal(xi + e) - oracle.log_marginal(xi - e)) / (2 * h)
            worst = max(worst, abs(s[i] - fd))
    assert worst <= 1e-3
    _report("criterion-08 score-identity", 1e-3 - worst, t0,
            f"10 xi points, worst |score-fd| {worst:.2e}")


def _two_stage_worker(seed):
    cfg = NetworkConfig(K=1, d=2, V=1.0, activation=tanh_scaled())
    rng = np.random.default_rng(42)
    X = rng.uniform(-1, 1, size=(5, 2))
    X[:, 0] = 1.0
    w_star = np.array([[0.35, 0.6]])
    y = eval_network_many(cfg, w_star, X) + 0.1 * np.random.default_rng(1).standard_normal(5)
    data = Dataset(X=X, y=y)
    params = CouplingParams.from_config(cfg, data, n=5, beta=2.0)
    budgets = TwoStageBudgets(
        outer=ChainConfig(step_size=0.3, iterations=12_000, burn_in=2_000,
                          thinning=5, seed=seed),
        inner=ChainConfig(step_size=0.3, iterations=300, burn_in=60,
                          thinning=1, seed=0),
        conditional=ChainConfig(step_size=0.3, iterations=340, burn_in=60,
                                thinning=10, seed=seed + 7),
    )
    draws, tags, diag = two_stage_sample(cfg, data, params, budgets)
    x_test = np.array([1.0, 0.5])
    fvals = cfg.outer_weights[0] * cfg.activation.psi(draws[:, 0, :] @ x_test)
    return float(fvals.mean())


@pytest.mark.slow
def test_criterion_09_sampler_vs_oracle():
    t0 = time.time()
    cfg = NetworkConfig(K=1, d=2, V=1.0, activation=tanh_scaled())
    rng = np.random.default_rng(42)
    X = rng.uniform(-1, 1, size=(5, 2))
    X[:, 0] = 1.0
    w_star = np.array([[0.35, 0.6]])
    y = eval_network_many(cfg, w_star, X) + 0.1 * np.random.default_rng(1).standard_normal(5)
    data = Dataset(X=X, y=y)
    truth = reference_posterior_quadrature(cfg, data, 5, 2.0,
                                           grid_resolution=500).mean_f(np.array([1.0, 0.5]))
    with ProcessPoolExecutor(max_workers=2) as pool:
        estimates = list(pool.map(_two_stage_worker, [101, 202, 303]))
    rel_errs = [abs(e - truth) / abs(truth) for e in estimates]
    assert max(rel_errs) <= 0.02
    _report("criterion-09 sampler-vs-oracle", 0.02 - max(rel_errs), t0,
            f"3 seeds, rel errs {[f'{r:.4f}' for r in rel_errs]}")


def test_criterion_10_moment_machinery():
    t0 = time.time()
    worst_quad = 0.0
    for r in (2, 4, 6):
        exact = dirichlet_moment(1, [r])["dirichlet"]
        quad, _ = integrate.quad(lambda t: t ** r, 0.0, 1.0)
        worst_quad = max(worst_quad, abs(exact - quad))
    for r in ((2, 0), (2, 2), (4, 0)):
        exact = dirichlet_moment(2, list(r))["dirichlet"]
        val, _ = integrate.dblquad(lambda w2, w1: 2.0 * w1 ** r[0] * w2 ** r[1],
                                   0.0, 1.0, 0.0, lambda w1: 1.0 - w1)
        worst_quad = max(worst_quad, abs(exact - val))
    assert worst_quad <= 1e-6

    rng = np.random.default_rng(17)
    draws = sample_continuous(ContinuousL1Prior(d=2, K=200_000), rng)[:, 0]
    mc = np.mean(draws ** 2)
    se = np.std(draws ** 2, ddof=1) / math.sqrt(len(draws))
    assert abs(mc - dirichlet_moment(2, [2, 0])["signed_ball"]) <= 3 * se

    min_margin = math.inf
    for _ in range(10):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(2, 9))
        K = int(rng.integers(1, 3))
        X = rng.uniform(-1, 1, size=(n, d))
        u = rng.standard_normal(n * K)
        u /= np.linalg.norm(u)
        u = u.reshape(K, n)
        prior_draws = np.stack([sample_continuous(ContinuousL1Prior(d=d, K=K), rng)
                                for _ in range(100_000)])
        v = np.einsum("kn,nd,skd->s", u, X, prior_draws)
        for ell in (1, 2, 3):
            mc_val = float(np.mean(v ** (2 * ell))) ** (1.0 / ell)
            min_margin = min(min_margin, prior_moment_bound(ell, n, d) - mc_val)
    assert min_margin >= 0.0
    _report("criterion-10 moment-machinery", min_margin, t0,
            f"quad gap {worst_quad:.1e}, bound margin {min_margin:.3f}")


def test_criterion_11_coupling_probability():
    t0 = time.time()
    cfg = NetworkConfig(K=2, d=3, V=1.0, activation=tanh_scaled())
    rng = np.random.default_rng(19)
    data = _random_dataset(rng, 6, 3)
    params = CouplingParams.from_config(cfg, data, n=6, beta=1.0)
    lower = 1.0 - params.delta / math.sqrt(
        2.0 * math.log(2 * cfg.K * cfg.d / params.delta))
    prior = ContinuousL1Prior(d=3, K=2)
    worst = math.inf
    for _ in range(5):
        w = sample_continuous(prior, rng)
        means = data.X @ w.T
        xi = means[None] + rng.standard_normal((100_000, 6, 2)) / math.sqrt(params.rho)
        cols = np.einsum("ij,bik->bjk", data.X, xi)
        frac = float(np.mean(np.max(np.abs(cols), axis=(1, 2)) <= params.b_threshold))
        worst = min(worst, frac)
    assert worst >= lower
    _report("criterion-11 coupling-probability", worst - lower, t0,
            f"min P(B|w)={worst:.5f} >= {lower:.5f}")


def test_criterion_12_discretization():
    t0 = time.time()
    rng = np.random.default_rng(29)
    # unbiasedness
    w = sample_continuous(ContinuousL1Prior(d=5, K=1), rng)
    M = 3
    reps = 100_000
    draws = np.stack([discretize_weights(w, M, rng)[0] for _ in range(reps)])
    err = np.abs(draws.mean(axis=0) - w[0])
    se = draws.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(err <= 3 * se + 1e-12)
    # conditional variance of x . w_disc
    x = rng.uniform(-1, 1, size=5)
    prods = draws @ x
    var = float(prods.var(ddof=1))
    var_se = var * math.sqrt(2.0 / (reps - 1))
    assert var <= 1.0 / M + 3 * var_se
    # noiseless 1/M^2 control for the averaged construction
    from lccnn.risk import approximation_witness
    cfg = NetworkConfig(K=2, d=4, V=1.0, activation=tanh_scaled())
    X = rng.uniform(-1, 1, size=(8, 4))
    X[:, 0] = 1.0
    lib_w = rng.uniform(-0.3, 0.3, size=(4, 4))
    lib_c = np.array([0.4, 0.3, -0.2, 0.1])
    h = cfg.V * lib_c @ cfg.activation.psi(lib_w @ X.T)
    data = Dataset(X=X, y=h)
    wit = approximation_witness(cfg, data, lib_w, lib_c, M=3, trials=2000,
                                rng=np.random.default_rng(30))
    assert wit.mean_excess <= wit.bound_noiseless
    _report("criterion-12 discretization",
            min(float(np.min(3 * se - err)), wit.bound_noiseless - wit.mean_excess),
            t0, f"var={var:.4f} vs 1/M={1 / M:.4f}; m2 mean "
                f"{wit.mean_excess:.4f} <= {wit.bound_noiseless:.4f}")

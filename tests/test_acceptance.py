"""Acceptance criteria: exact identities, oracle equivalence, bound dominance.

One test per criterion; each prints a single PASS line with its measured
margin and runtime when it succeeds (pytest -s shows them inline).  Criteria
01, 05, 06, 10, 11 and 12 run the lccnn.verify checks at their own seeds and
sizes.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from lccnn.nnmodel import Dataset, NetworkConfig, eval_network_many, tanh_scaled
from lccnn.priors import (
    ContinuousL1Prior,
    DiscreteGridPrior,
    dirichlet_moment,
    enumerate_grid,
    sample_continuous,
)
from lccnn.coupling import CouplingParams, sample_xi_given_w
from lccnn.samplers import (
    ChainConfig,
    CouplingOracle1D,
    PosteriorQuadrature,
    TwoStageBudgets,
    two_stage_sample,
)
from lccnn.estimators import grid_psi_table, sequential_discrete_posteriors
from lccnn.risk import (
    BoundInputs,
    approximation_witness,
    bound_calculator,
    optimal_hyperparams,
    regret_ledger,
    streamed_regret_ledger,
)
from lccnn.verify import (
    check_coupling_prob,
    check_discretize,
    check_hessian,
    check_marginal,
    check_moments,
    check_telescope,
    random_dataset,
)


def _report(name, margin, t0, detail=""):
    print(f"\nPASS {name} margin={margin:+.3e} ({time.time() - t0:.1f}s) {detail}")


def test_criterion_01_telescoping():
    t0 = time.time()
    rec = check_telescope()
    assert rec["passed"], rec["detail"]
    _report("criterion-01 telescoping", rec["margin"], t0,
            f"residual={rec['residual']:.2e}")


def _both_ledgers(cfg, grid, data, N, g, beta):
    """The reference ledger over posterior snapshots, then the streamed one
    over the per-row psi table that `lccnn regret` runs."""
    snaps, _ = sequential_discrete_posteriors(cfg, grid, data, N, beta)
    psi = grid_psi_table(cfg, grid, data.X[:N])
    return (regret_ledger(snaps[:-1], cfg, data, g, beta),
            streamed_regret_ledger(cfg, psi, data.y[:N], g, [(N, beta)])[0])


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
        data = random_dataset(rng, N, d, y_scale=1.5)
        g = rng.uniform(-1.0, 1.0, size=N)
        grid = enumerate_grid(DiscreteGridPrior(d=d, M=M))
        for ledger in _both_ledgers(cfg, grid, data, N, g, beta):
            for rec in ledger.records:
                gap = max(rec.r_square - rec.r_rand, rec.r_log - rec.r_rand)
                worst = max(worst, gap)
                if gap > 1e-12:
                    violations += 1
    assert violations == 0
    _report("criterion-02 regret-ordering", -worst, t0,
            "20 instances x 2 ledgers, 0 violations")


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
        bound = bound_calculator(
            "square_regret",
            BoundInputs(a0=act.a0, a1=act.a1, a2=act.a2, V=cfg.V, b=b_g,
                        sigma=0.0, C_N=C_N, d=d, N=N, M=1.0, K=K, beta=beta)).total
        for ledger in _both_ledgers(cfg, grid, data, N, g, beta):
            assert ledger.R_square <= bound
            margins.append(bound - ledger.R_square)
    _report("criterion-03 realized-vs-bound", min(margins), t0,
            f"4 instances x 2 ledgers at N=200")


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
    rng = np.random.default_rng(5)
    rec = check_hessian(data_rng=rng, draw_rng=rng)
    assert rec["passed"], rec["detail"]
    _report("criterion-05 reverse-logconcavity", rec["margin"], t0,
            f"1000 draws, worst quadform {rec['worst']:.2e}")


def test_criterion_06_marginal_concavity():
    t0 = time.time()
    rng = np.random.default_rng(31)
    rec = check_marginal(data_rng=rng, draw_rng=rng, n_xi=20, iterations=3000,
                         chain_seed=13)
    assert rec["passed"], rec["detail"]
    _report("criterion-06 marginal-concavity", rec["margin"], t0,
            f"20 xi, max est+2se={rec['worst']:.2e}, rho*holder={rec['rho_holder']:.3f}")


def _oracle_1d(beta=3.0, include_Z=True, n_w=2001):
    cfg = NetworkConfig(K=1, d=1, V=1.0, activation=tanh_scaled())
    data = Dataset(X=np.ones((2, 1)), y=np.array([0.8, 0.4]))
    params = CouplingParams.from_config(cfg, data, n=2, beta=beta)
    return cfg, data, params, CouplingOracle1D(cfg, data, params, n_w=n_w,
                                               include_Z=include_Z)


def test_criterion_07_mixture_consistency():
    t0 = time.time()
    cfg, data, params, oracle = _oracle_1d(n_w=200)
    pts = oracle.xi_grid(points_per_dim=48, span=6.0)
    mixture = oracle.mixture_density(pts)
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
    truth = PosteriorQuadrature(cfg, data, 5, 2.0, 500).mean_f(np.array([1.0, 0.5]))
    # one worker per seed, so the third chain does not run alone after the first two
    with ProcessPoolExecutor(max_workers=3) as pool:
        estimates = list(pool.map(_two_stage_worker, [101, 202, 303]))
    rel_errs = [abs(e - truth) / abs(truth) for e in estimates]
    assert max(rel_errs) <= 0.02
    _report("criterion-09 sampler-vs-oracle", 0.02 - max(rel_errs), t0,
            f"3 seeds, rel errs {[f'{r:.4f}' for r in rel_errs]}")


def test_criterion_10_moment_machinery():
    t0 = time.time()
    rng = np.random.default_rng(17)
    draws = sample_continuous(ContinuousL1Prior(d=2, K=200_000), rng)[:, 0]
    mc = np.mean(draws ** 2)
    se = np.std(draws ** 2, ddof=1) / math.sqrt(len(draws))
    assert abs(mc - dirichlet_moment(2, [2, 0])["signed_ball"]) <= 3 * se

    rec = check_moments(rng=rng, n_configs=10, n_max=7, d_max=9, n_draws=100_000)
    assert rec["passed"], rec["detail"]
    _report("criterion-10 moment-machinery", rec["margin"], t0,
            f"quad gap {rec['worst_quad']:.1e}, bound margin {rec['bound_margin']:.3f}")


def test_criterion_11_coupling_probability():
    t0 = time.time()
    rng = np.random.default_rng(19)
    rec = check_coupling_prob(data_rng=rng, draw_rng=rng, n_w=5, reps=100_000)
    assert rec["passed"], rec["detail"]
    _report("criterion-11 coupling-probability", rec["margin"], t0,
            f"min P(B|w)={rec['worst']:.5f} >= {rec['lower']:.5f}")


def test_criterion_12_discretization():
    t0 = time.time()
    rng = np.random.default_rng(29)
    # unbiasedness and the conditional variance of x . w_disc
    rec = check_discretize(rng=rng, reps=100_000)
    assert rec["passed"], rec["detail"]
    # noiseless 1/M^2 control for the averaged construction
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
            min(rec["margin"], wit.bound_noiseless - wit.mean_excess),
            t0, f"var={rec['var']:.4f} vs 1/M={1 / rec['M']:.4f}; m2 mean "
                f"{wit.mean_excess:.4f} <= {wit.bound_noiseless:.4f}")

"""Regret ledgers, telescoping, resolvability, and bound calculators."""

import math

import numpy as np
import pytest

from lccnn.nnmodel import Dataset, NetworkConfig, eval_network_many, tanh_scaled
from lccnn.priors import DiscreteGridPrior, enumerate_grid
from lccnn.estimators import grid_psi_table, sequential_discrete_posteriors, posterior_mean
from lccnn.risk import (
    BoundInputs,
    approximation_witness,
    bayes_factor_telescope,
    bound_calculator,
    hull_project,
    optimal_hyperparams,
    pythagorean_check,
    regret_ledger,
    resolvability_bound,
    streamed_regret_ledger,
)


def _instance(d=2, M=1, K=1, N=6, seed=0, beta=1.0, teacher=True):
    cfg = NetworkConfig(K=K, d=d, V=1.0, activation=tanh_scaled())
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(N, d))
    X[:, 0] = 1.0
    grid = enumerate_grid(DiscreteGridPrior(d=d, M=M))
    if teacher:
        idx = rng.choice(len(grid), size=K)
        w_star = grid[idx]
        g = eval_network_many(cfg, w_star, X)
    else:
        g = rng.uniform(-0.5, 0.5, size=N)
    y = g + 0.3 * rng.standard_normal(N)
    data = Dataset(X=X, y=y)
    return cfg, data, grid, g


def _inputs(**kw):
    base = dict(a0=1.0, a1=1.0, a2=1.0, V=1.0, b=1.0, sigma=1.0, C_N=2.0,
                d=2, N=10_000, M=3.0, K=3.0, beta=0.5)
    base.update(kw)
    return BoundInputs(**base)


class TestRegretLedger:
    def test_posterior_mean_competitor_zeroes_r_square(self):
        cfg, data, grid, _ = _instance(N=5, seed=1)
        beta = 1.5
        snaps, _ = sequential_discrete_posteriors(cfg, grid, data, 5, beta)
        mus = [posterior_mean(snaps[n - 1], cfg, data.X[n - 1]) for n in range(1, 6)]
        ledger = regret_ledger(snaps[:-1], cfg, data, np.array(mus), beta)
        for rec in ledger.records:
            assert rec.r_square == pytest.approx(0.0, abs=1e-15)

    def test_orderings_hold_pathwise(self):
        for seed in range(5):
            cfg, data, grid, g = _instance(N=8, seed=seed, teacher=False)
            beta = 0.8 + 0.3 * seed
            snaps, _ = sequential_discrete_posteriors(cfg, grid, data, 8, beta)
            ledger = regret_ledger(snaps[:-1], cfg, data, g, beta)
            for rec in ledger.records:
                assert rec.r_square <= rec.r_rand + 1e-12
                assert rec.r_log <= rec.r_rand + 1e-12

    def test_rand_bounded_by_log_plus_lambda(self):
        cfg, data, grid, g = _instance(N=8, seed=3, teacher=False)
        beta = 1.1
        snaps, _ = sequential_discrete_posteriors(cfg, grid, data, 8, beta)
        ledger = regret_ledger(snaps[:-1], cfg, data, g, beta)
        assert ledger.R_rand <= ledger.R_log + 2 * beta * ledger.Lambda_sq + 1e-12
        for rec in ledger.records:
            assert rec.r_rand <= rec.r_log + 2 * beta * rec.lambda_n ** 2 + 1e-12

    def test_length_mismatch_rejected(self):
        cfg, data, grid, g = _instance(N=4)
        snaps, _ = sequential_discrete_posteriors(cfg, grid, data, 2, 1.0)
        with pytest.raises(ValueError, match="snapshots"):
            regret_ledger(snaps, cfg, data, g, 1.0)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("beta", [1e308, math.inf])
    def test_streamed_ledger_refuses_an_overflowing_beta(self, beta):
        # refused before the pass, so no log-likelihood overflows first
        cfg, data, grid, g = _instance(N=6, seed=2)
        psi = grid_psi_table(cfg, grid, data.X)
        with pytest.raises(ValueError, match="overflow"):
            streamed_regret_ledger(cfg, psi, data.y, g, [(2, 1.0), (6, beta)])


class TestTelescope:
    def test_residual_at_machine_precision(self):
        cfg, data, grid, _ = _instance(d=2, M=1, K=1, N=5, seed=11)
        out = bayes_factor_telescope(cfg, grid, data, beta=1.0, N=5)
        assert out["residual"] <= 1e-12

    def test_log_Z0_is_zero(self):
        cfg, data, grid, _ = _instance()
        out = bayes_factor_telescope(cfg, grid, data, beta=2.0, N=3)
        assert out["log_Z"][0] == 0.0

    def test_ledger_average_matches_closed_form(self):
        # telescoped representation: R_log equals the prior loss moment term
        # minus half the competitor's average squared error
        cfg, data, grid, g = _instance(N=6, seed=7, teacher=False)
        beta = 1.3
        out = bayes_factor_telescope(cfg, grid, data, beta, N=6)
        ledger = regret_ledger(out["snapshots"][:-1], cfg, data, g, beta)
        closed = (-out["log_loss_moments"][6] / (beta * 6)
                  - 0.5 * np.mean((data.y - g) ** 2))
        assert ledger.R_log == pytest.approx(closed, abs=1e-10)


class TestResolvability:
    def test_full_support_reduces_to_max_loss(self):
        assert resolvability_bound(0.0, 3.5, 2.0, 7) == pytest.approx(0.5)

    def test_singleton_uniform(self):
        m, beta, N, loss_at = 25, 1.5, 10, 4.2
        val = resolvability_bound(-math.log(m), loss_at, beta, N)
        assert val == pytest.approx(math.log(m) / (beta * N) + loss_at / N)

    def test_dominates_true_moment_on_enumeration(self):
        cfg, data, grid, _ = _instance(N=6, seed=2)
        beta = 2.0
        _, lm = sequential_discrete_posteriors(cfg, grid, data, 6, beta)
        true_val = -lm[6] / (beta * 6)
        # singleton A at each grid point must dominate the true value
        for w in grid:
            fw = cfg.activation.psi(data.X @ w) * cfg.outer_weights[0]
            loss_w = 0.5 * np.sum((data.y - fw) ** 2)
            bound = resolvability_bound(-math.log(len(grid)), loss_w, beta, 6)
            assert bound >= true_val - 1e-12

    def test_positive_log_mass_rejected(self):
        with pytest.raises(ValueError):
            resolvability_bound(0.1, 1.0, 1.0, 5)


class TestBoundCalculator:
    def test_all_terms_nonnegative(self):
        for kind in ("log_regret", "square_regret", "msr", "kl", "m2_msr"):
            br = bound_calculator(kind, _inputs(b=1.0, sigma=math.sqrt(2.0),
                                                beta=0.5 if kind == "kl" else 0.5))
            for term in (br.prior_mass, br.width, br.grid, br.beta_quad, br.residual):
                assert term >= 0.0

    def test_monotone_in_design_knobs(self):
        base = bound_calculator("square_regret", _inputs())
        assert bound_calculator("square_regret", _inputs(N=20_000)).prior_mass < base.prior_mass
        assert bound_calculator("square_regret", _inputs(K=6.0)).width < base.width
        assert bound_calculator("square_regret", _inputs(M=6.0)).grid < base.grid

    def test_kl_beta_sigma_warning(self):
        br = bound_calculator("kl", _inputs(beta=2.0, sigma=1.0))
        assert any("1/sigma" in w for w in br.warnings)
        br_ok = bound_calculator("kl", _inputs(beta=4.0, sigma=0.5))
        assert br_ok.warnings == ()

    def test_square_closed_form_at_optimum(self):
        inputs = _inputs(a0=1.0, V=1.0, b=1.0, C_N=2.0, a1=1.0, a2=1.0,
                         d=2, N=10_000)
        opt = optimal_hyperparams("square_regret", inputs)
        P, B1, Q = 1.0, 9.0, 1.5
        L = math.log(5.0)
        expect = 4.0 * math.sqrt(1.0 * P) * (B1 * Q) ** 0.25 * (L / 10_000) ** 0.25
        assert opt.closed_form == pytest.approx(expect, rel=1e-12)
        assert opt.bound_continuous == pytest.approx(expect, rel=1e-9)

    def test_msr_closed_form_at_optimum(self):
        inputs = _inputs(a0=1.0, V=1.0, b=1.0, sigma=1.0, a1=1.0, a2=1.0,
                         d=2, N=10_000)
        opt = optimal_hyperparams("msr", inputs)
        P, S, Q = 1.0, 2.0, 1.5  # (a0 V + b)/2, sigma + P, (V(a0 V + b)a2 + V^2 a1^2)/2
        L = math.log(5.0)
        expect = 4.0 * math.sqrt(1.0 * P * S) * Q ** 0.25 * (L / 10_001) ** 0.25
        assert opt.closed_form == pytest.approx(expect, rel=1e-12)
        assert opt.bound_continuous == pytest.approx(expect, rel=1e-9)

    def test_kl_closed_form_at_optimum(self):
        inputs = _inputs(beta=2.0, sigma=1 / math.sqrt(2.0), b=0.8, N=5000, d=7)
        opt = optimal_hyperparams("kl", inputs)
        W = 1.0 * (1.0 + 0.8) * 1.0 + 1.0
        L = math.log(15.0)
        expect = 3.0 * (1.0) ** (2 / 3) * (1.0) ** (2 / 3) * W ** (1 / 3) * (L / 5001) ** (1 / 3)
        assert opt.closed_form == pytest.approx(expect, rel=1e-12)
        assert opt.bound_continuous == pytest.approx(opt.closed_form, rel=1e-9)

    @pytest.mark.parametrize("non_odd", [False, True])
    def test_every_term_matches_the_paper(self, non_odd):
        a0, a1, a2, b, sigma, C_N = 1.3, 0.7, 0.9, 0.8, 1.2, 2.5
        d, N, M, beta, res, proj = 4, 500, 3.0, 0.6, 0.05, 0.07
        V, K = 1.1, 5.0
        inputs = _inputs(a0=a0, a1=a1, a2=a2, V=V, b=b, sigma=sigma, C_N=C_N,
                         d=d, N=N, M=M, K=K, beta=beta)
        f = 2.0 if non_odd else 1.0  # (V, K) -> (2V, 2K) and a doubled width term
        V, K = f * V, f * K
        L = math.log(2 * d + 1)
        P = (a0 * V + b) / 2
        w_arb = a2 * V * C_N + a1 ** 2 * V ** 2
        w_iid = V * (a0 * V + b) * a2 + V ** 2 * a1 ** 2
        width = f * a0 ** 2 * V ** 2 / (2 * K)
        expected = {
            "log_regret": (M * K * L / (beta * N), width, w_arb / (2 * M), 0.0, res),
            "square_regret": (M * K * L / (beta * N), width, w_arb / (2 * M),
                              2 * beta * P ** 2 * (C_N + P) ** 2, res),
            "msr": (M * K * L / (beta * (N + 1)), width, w_iid / (2 * M),
                    2 * beta * P ** 2 * (sigma + P) ** 2, proj),
            "kl": (M * K * L / (N + 1), beta * width, beta * w_iid / (2 * M), 0.0,
                   beta * proj),
            "m2_msr": (M * K * L / (beta * (N + 1)), width, a2 ** 2 * V ** 2 / (8 * M ** 2),
                       2 * beta * (a0 * V) ** 2 * (sigma + a0 * V) ** 2, 0.0),
        }
        for kind, terms in expected.items():
            br = bound_calculator(kind, inputs, residual_term=res, proj_sq=proj,
                                  non_odd=non_odd)
            got = (br.prior_mass, br.width, br.grid, br.beta_quad, br.residual)
            assert got == pytest.approx(terms, rel=1e-13, abs=0.0), kind
            assert br.total == pytest.approx(sum(terms), rel=1e-13), kind

    def test_non_odd_flag_doubles_width_structure(self):
        inputs = _inputs()
        std = bound_calculator("log_regret", inputs)
        doubled = bound_calculator("log_regret", inputs, non_odd=True)
        # M K~ log(2d+1) / (beta N) with K~ = 2K
        assert doubled.prior_mass == pytest.approx(2.0 * std.prior_mass)
        # a0^2 V~^2 / K~ with V~ = 2V: equals 2 a0^2 V^2 / K
        assert doubled.width == pytest.approx(4.0 * std.width)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown bound kind"):
            bound_calculator("nope", _inputs())


class TestOptimalHyperparams:
    def test_fourth_root_scaling(self):
        a = optimal_hyperparams("square_regret", _inputs(N=10_000))
        b = optimal_hyperparams("square_regret", _inputs(N=20_000))
        assert b.beta_star / a.beta_star == pytest.approx(2.0 ** -0.25, rel=1e-12)
        assert b.K_star / a.K_star == pytest.approx(2.0 ** 0.25, rel=1e-12)

    def test_kl_cube_root_scaling(self):
        a = optimal_hyperparams("kl", _inputs(N=1000, beta=1.0, sigma=1.0))
        b = optimal_hyperparams("kl", _inputs(N=2001, beta=1.0, sigma=1.0))
        assert b.K_star / a.K_star == pytest.approx(2.0 ** (1 / 3), rel=1e-12)

    def test_m2_powers(self):
        a = optimal_hyperparams("m2_msr", _inputs(N=1000, b=1.0))
        b = optimal_hyperparams("m2_msr", _inputs(N=2001, b=1.0))
        assert b.K_star / a.K_star == pytest.approx(2.0 ** (2 / 7), rel=1e-12)
        assert b.M_star / a.M_star == pytest.approx(2.0 ** (1 / 7), rel=1e-12)
        assert b.beta_star / a.beta_star == pytest.approx(2.0 ** (-1 / 7), rel=1e-12)

    def test_local_optimality_probe(self):
        inputs = _inputs()
        opt = optimal_hyperparams("square_regret", inputs)
        perturbed = BoundInputs(**{**inputs.__dict__, "K": opt.K_star,
                                   "M": opt.M_star, "beta": 1.1 * opt.beta_star})
        assert opt.bound_continuous <= bound_calculator("square_regret", perturbed).total

    def test_stationarity_of_continuous_optimum(self):
        inputs = _inputs(b=0.7, C_N=1.9, sigma=1.3, N=4000, d=5,
                         beta=1.0 / 1.3 ** 2)
        for kind in ("square_regret", "msr", "kl"):
            opt = optimal_hyperparams(kind, inputs)
            free = ["K", "M"] if kind == "kl" else ["K", "M", "beta"]
            point = {"K": opt.K_star, "M": opt.M_star, "beta": opt.beta_star}

            def total(**over):
                vals = {**point, **over}
                inp = BoundInputs(**{**inputs.__dict__, **vals})
                return bound_calculator(kind, inp).total

            f0 = total()
            for name in free:
                h = point[name] * 1e-6
                grad = (total(**{name: point[name] + h})
                        - total(**{name: point[name] - h})) / (2 * h)
                # relative stationarity: gradient * scale / value
                assert abs(grad) * point[name] / f0 < 1e-6

    @pytest.mark.parametrize("kind", ["square_regret", "msr", "kl"])
    def test_non_odd_optimum_is_that_of_the_non_odd_sum(self, kind):
        # non_odd=True optimizes the sum bound_calculator(..., non_odd=True)
        # adds up, so its closed form is that sum at (K*, M*, beta*), with K*
        # in the caller's units
        inputs = _inputs(b=0.7, C_N=1.9, sigma=1.3, N=4000, d=5, beta=1.0 / 1.3 ** 2)
        opt = optimal_hyperparams(kind, inputs, non_odd=True)
        at_opt = BoundInputs(**{**inputs.__dict__, "K": opt.K_star, "M": opt.M_star,
                                "beta": opt.beta_star})
        assert opt.bound_continuous == bound_calculator(kind, at_opt, non_odd=True).total
        assert opt.closed_form == pytest.approx(opt.bound_continuous, rel=1e-9)
        assert opt.closed_form > optimal_hyperparams(kind, inputs).closed_form

    @pytest.mark.parametrize("kind", ["square_regret", "msr", "kl"])
    def test_closed_form_carries_proj_sq_as_the_sum_does(self, kind):
        # msr adds proj_sq and kl adds beta proj_sq; the regret kinds carry
        # residual_term instead, so proj_sq moves neither column
        inputs = _inputs(b=0.7, C_N=1.9, sigma=1.3, N=4000, d=5, beta=1.0 / 1.3 ** 2)
        opt = optimal_hyperparams(kind, inputs, proj_sq=0.01)
        assert opt.closed_form == pytest.approx(opt.bound_continuous, rel=1e-9)
        shift = opt.closed_form - optimal_hyperparams(kind, inputs).closed_form
        assert shift == pytest.approx({"square_regret": 0.0, "msr": 0.01,
                                       "kl": 0.01 * inputs.beta}[kind], abs=1e-12)


class TestApproximationWitness:
    def test_single_grid_neuron_exact(self):
        cfg = NetworkConfig(K=1, d=3, V=1.0, activation=tanh_scaled())
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(6, 3))
        X[:, 0] = 1.0
        data = Dataset(X=X, y=np.zeros(6))
        lib_w = np.array([[0.5, 0.5, 0.0]])
        lib_c = np.array([1.0])
        wit = approximation_witness(cfg, data, lib_w, lib_c, M=2, trials=60,
                                    rng=np.random.default_rng(9))
        assert wit.best_excess == pytest.approx(0.0, abs=1e-12)

    def test_mean_below_general_bound(self):
        cfg = NetworkConfig(K=3, d=4, V=1.0, activation=tanh_scaled())
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(10, 4))
        X[:, 0] = 1.0
        lib_w = rng.uniform(-0.25, 0.25, size=(5, 4))
        lib_c = rng.uniform(-1, 1, size=5)
        lib_c /= np.abs(lib_c).sum()
        h = cfg.V * lib_c @ cfg.activation.psi(lib_w @ X.T)
        y = h + 0.5 * rng.standard_normal(10)
        data = Dataset(X=X, y=y)
        wit = approximation_witness(cfg, data, lib_w, lib_c, M=2, trials=400,
                                    rng=np.random.default_rng(10), y_values=y)
        assert wit.mean_excess <= wit.bound_general
        assert not wit.noiseless

    def test_noiseless_obeys_M_squared_bound(self):
        cfg = NetworkConfig(K=2, d=4, V=1.0, activation=tanh_scaled())
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, size=(8, 4))
        X[:, 0] = 1.0
        lib_w = rng.uniform(-0.3, 0.3, size=(4, 4))
        lib_c = np.array([0.4, 0.3, -0.2, 0.1])
        h = cfg.V * lib_c @ cfg.activation.psi(lib_w @ X.T)
        data = Dataset(X=X, y=h)
        wit = approximation_witness(cfg, data, lib_w, lib_c, M=3, trials=500,
                                    rng=np.random.default_rng(11))
        assert wit.noiseless
        assert wit.mean_excess <= wit.bound_noiseless
        assert wit.bound_noiseless <= wit.bound_general


class TestHullProjection:
    def _dictionary(self, seed=0, L=12, N=20, d=3):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(N, d))
        X[:, 0] = 1.0
        act = tanh_scaled()
        W = rng.uniform(-1, 1, size=(L, d))
        W /= np.maximum(np.abs(W).sum(axis=1, keepdims=True), 1.0)
        return act.psi(W @ X.T), rng  # (L, N)

    def test_recovers_point_inside_hull(self):
        A, rng = self._dictionary()
        V = 1.5
        coefs = rng.dirichlet(np.ones(len(A)))
        signs = rng.choice([-1.0, 1.0], size=len(A))
        g = V * (coefs * signs) @ A
        out = hull_project(A, V, g, gap_tol=1e-10)
        assert out["gap"] <= 1e-10
        assert np.max(np.abs(out["projection"] - g)) < 1e-4

    def test_pythagorean_inequality(self):
        A, rng = self._dictionary(seed=3)
        V = 1.0
        g = 2.0 * np.sin(np.arange(A.shape[1]))  # far outside the hull
        out = hull_project(A, V, g, gap_tol=1e-10)
        gt = out["projection"]
        for _ in range(10):
            coefs = rng.dirichlet(np.ones(len(A)))
            signs = rng.choice([-1.0, 1.0], size=len(A))
            gh = V * (coefs * signs) @ A
            res = pythagorean_check(g, gt, gh, slack=2 * out["gap"] + 1e-8)
            assert res["holds"]

    def test_equality_when_candidate_is_projection(self):
        A, _ = self._dictionary(seed=5)
        g = 1.5 * np.cos(np.arange(A.shape[1]))
        out = hull_project(A, 1.0, g, gap_tol=1e-10)
        gt = out["projection"]
        res = pythagorean_check(g, gt, gt)
        assert res["lhs"] == pytest.approx(res["rhs"], abs=1e-12)

    def test_g_inside_hull_projects_to_itself(self):
        A, rng = self._dictionary(seed=7)
        coefs = rng.dirichlet(np.ones(len(A)))
        g = 1.0 * coefs @ A
        out = hull_project(A, 1.0, g, gap_tol=1e-12)
        gh = 1.0 * A[0]
        res = pythagorean_check(g, out["projection"], gh, slack=1e-6)
        assert res["holds"]
        assert abs(res["rhs"] - float(np.sum((g - gh) ** 2))) < 1e-4

"""Coupling constants, set B, forward/reverse densities, certificates."""

import math

import numpy as np
import pytest

from lccnn.nnmodel import Dataset, NetworkConfig, log_posterior_unnorm, squared_relu, tanh_scaled
from lccnn.priors import ContinuousL1Prior, sample_continuous
from lccnn.samplers import ChainConfig, sample_reverse_conditional_prior_mh
from lccnn.verify import random_dataset
from lccnn.coupling import (
    CouplingParams,
    check_logconcavity_conditions,
    compute_C_n,
    compute_delta,
    compute_rho,
    estimate_Z_and_check,
    holder_variance_bound,
    in_B,
    marginal_concavity_estimate,
    marginal_score,
    reverse_hessian_quadform,
    reverse_logdensity_unnorm,
    reverse_score,
    sample_xi_given_w,
    stacked_projection,
)


def _setup(K=1, d=2, n=4, beta=2.0, seed=0, act=None, y_scale=1.0):
    cfg = NetworkConfig(K=K, d=d, V=1.0, activation=act or tanh_scaled())
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, d))
    X[:, 0] = 1.0
    y = y_scale * rng.uniform(-1, 1, size=n)
    data = Dataset(X=X, y=y)
    params = CouplingParams.from_config(cfg, data, n=n, beta=beta)
    return cfg, data, params, rng


class TestConstants:
    def test_C_n_hand_value(self):
        data = Dataset(X=np.ones((2, 2)) * np.array([1.0, 0.0]), y=np.array([1.0, -3.0]))
        assert compute_C_n(data, 2, a0=1.0, V=1.0) == 4.0
        assert compute_C_n(data, 1, a0=1.0, V=1.0) == 2.0  # prefix max

    def test_C_n_zero_responses(self):
        data = Dataset(X=np.ones((3, 2)) * np.array([1.0, 0.5]), y=np.zeros(3))
        assert compute_C_n(data, 3, a0=1.2, V=2.0) == pytest.approx(2.4)

    def test_C_n_nondecreasing_in_n(self):
        data = Dataset(X=np.ones((4, 2)) * np.array([1.0, 0.0]),
                       y=np.array([0.5, 2.0, 1.0, 3.0]))
        vals = [compute_C_n(data, n, 1.0, 1.0) for n in (1, 2, 3, 4)]
        assert vals == sorted(vals)

    def test_delta_hand_value(self):
        val = compute_delta(K=2, a2=1.0, beta=1.0, C_N=2.0, V=1.0)
        assert val == 1.0 / 300.0
        assert math.sqrt(2 * math.pi / 11) * 2 / 2 > 1.0 / 300.0

    def test_delta_vanishes_with_beta(self):
        assert compute_delta(2, 1.0, 1e9, 2.0, 1.0) < 1e-8
        assert compute_delta(2, 1.0, 1e9, 2.0, 1.0) == pytest.approx(
            math.sqrt(2 * math.pi / 11) * 2 / (1e9 * 2))

    def test_delta_capped_at_1_over_300(self):
        for beta in (1e-3, 1.0, 10.0, 1e4):
            assert compute_delta(3, 1.0, beta, 2.0, 1.0) <= 1.0 / 300.0 <= 1.0 / 16.0

    def test_rho_formula(self):
        assert compute_rho(2.0, 3.0, 1.5, 1.0, 2) == pytest.approx(
            math.sqrt(1.5) * 2.0 * 3.0 * 1.5 / 2)
        assert compute_rho(2.0, 3.0, 1.5, 1.0, 2, slack=False) == pytest.approx(4.5)

    def test_params_invariants(self):
        cfg, data, params, _ = _setup()
        act = cfg.activation
        assert params.rho == pytest.approx(
            math.sqrt(1.5) * act.a2 * params.beta * params.C_n * cfg.V / cfg.K)
        expect_b = params.n + math.sqrt(2 * math.log(2 * cfg.K * cfg.d / params.delta)) \
            * math.sqrt(params.n / params.rho)
        assert params.b_threshold == pytest.approx(expect_b)


class TestSetB:
    def test_zero_xi_inside(self):
        cfg, data, params, _ = _setup()
        assert in_B(np.zeros((4, 1)), data.X, params)

    def test_scaled_xi_crosses_boundary(self):
        cfg, data, params, _ = _setup()
        xi = np.ones((4, 1))
        col = np.max(np.abs(data.X.T @ xi))
        scale = params.b_threshold / col
        assert in_B(xi * scale * 0.999, data.X, params)
        assert not in_B(xi * scale * 1.001, data.X, params)

    def test_forward_draw_frequency(self):
        cfg, data, params, rng = _setup(K=2, d=3, n=5, seed=3)
        lower = 1.0 - params.delta / math.sqrt(
            2 * math.log(2 * cfg.K * cfg.d / params.delta))
        w = sample_continuous(ContinuousL1Prior(d=3, K=2), rng)
        means = data.X @ w.T
        draws = means[None] + rng.standard_normal((100_000, 5, 2)) / math.sqrt(params.rho)
        cols = np.einsum("ij,bik->bjk", data.X, draws)
        frac = np.mean(np.max(np.abs(cols), axis=(1, 2)) <= params.b_threshold)
        assert frac >= lower


class TestForwardSampler:
    def test_draws_always_in_B(self):
        cfg, data, params, rng = _setup(K=2, d=3, n=5, seed=1)
        prior = ContinuousL1Prior(d=3, K=2)
        for _ in range(50):
            w = sample_continuous(prior, rng)
            xi, rejects = sample_xi_given_w(w, data.X, params, rng)
            assert in_B(xi, data.X, params)
            assert rejects >= 0

    def test_moments_match_forward_law(self):
        cfg, data, params, rng = _setup(n=3, seed=5)
        w = sample_continuous(ContinuousL1Prior(d=2, K=1), rng)
        draws = np.stack([sample_xi_given_w(w, data.X, params, rng)[0]
                          for _ in range(100_000)])
        mean = draws.mean(axis=0)
        expect = data.X @ w.T
        se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
        assert np.all(np.abs(mean - expect) <= 3 * se + 1e-4)
        var = draws.var(axis=0, ddof=1)
        assert np.all(np.abs(var - 1 / params.rho) <= 0.05 / params.rho)

    def test_budget_exhaustion_error(self):
        cfg, data, params, rng = _setup()
        tight = CouplingParams(n=params.n, beta=params.beta, C_n=params.C_n,
                               rho=params.rho, delta=params.delta, b_threshold=1e-6)
        w = np.array([[0.9, 0.0]])
        with pytest.raises(RuntimeError, match="budget"):
            sample_xi_given_w(w, data.X, tight, rng, max_attempts=5)


class TestReverseDensity:
    def test_differs_from_posterior_by_quadratic(self):
        cfg, data, params, rng = _setup(n=4, beta=1.7)
        w = 0.8 * sample_continuous(ContinuousL1Prior(d=2, K=1), rng)
        xi = np.ones((4, 1)) * 0.3
        quad = xi - data.X @ w.T
        expect = (log_posterior_unnorm(cfg, w, data, 4, params.beta)
                  - 0.5 * params.rho * np.sum(quad ** 2))
        assert reverse_logdensity_unnorm(cfg, w, xi, data, params) == pytest.approx(expect)

    def test_zero_quadratic_at_xi_equal_Xw(self):
        cfg, data, params, rng = _setup(n=4, beta=1.7)
        w = 0.5 * sample_continuous(ContinuousL1Prior(d=2, K=1), rng)
        xi = data.X @ w.T
        assert reverse_logdensity_unnorm(cfg, w, xi, data, params) == pytest.approx(
            log_posterior_unnorm(cfg, w, data, 4, params.beta))

    @pytest.mark.parametrize("act", [tanh_scaled(), squared_relu()],
                             ids=["tanh", "squared_relu"])
    def test_batch_matches_per_point(self, act):
        # K*d = 300, the shape the independence chain scores 64 proposals at
        cfg, data, params, rng = _setup(K=2, d=150, n=10, beta=0.8, seed=3, act=act)
        prior = ContinuousL1Prior(d=150, K=2)
        xi, _ = sample_xi_given_w(sample_continuous(prior, rng), data.X, params, rng)
        w = np.stack([sample_continuous(prior, rng) for _ in range(64)])
        batch = reverse_logdensity_unnorm(cfg, w, xi, data, params)
        assert batch.shape == (64,)
        X, y = data.X[:10], data.y[:10]
        for wb, lb in zip(w, batch):
            one = reverse_logdensity_unnorm(cfg, wb, xi, data, params)
            res = y - act.psi(wb @ X.T).T @ cfg.outer_weights
            gap = xi - X @ wb.T
            ref = -0.5 * params.beta * (res @ res) - 0.5 * params.rho * np.sum(gap * gap)
            assert abs(lb - one) <= 1e-12 * abs(one)
            assert abs(lb - ref) <= 1e-12 * abs(ref)
        nested = reverse_logdensity_unnorm(cfg, w.reshape(8, 8, 2, 150), xi, data, params)
        assert nested.shape == (8, 8)
        assert np.allclose(nested.ravel(), batch, rtol=1e-12, atol=0.0)

    def test_batch_raises_when_any_row_leaves_the_ball(self):
        cfg, data, params, rng = _setup(K=2, d=150, n=10, seed=4)
        prior = ContinuousL1Prior(d=150, K=2)
        w = np.stack([sample_continuous(prior, rng) for _ in range(5)])
        xi = data.X @ w[0].T
        w[3, 1] *= 1.01 / np.abs(w[3, 1]).sum()
        with pytest.raises(ValueError, match="l1"):
            reverse_logdensity_unnorm(cfg, w, xi, data, params)

    def test_score_matches_finite_differences(self):
        cfg, data, params, rng = _setup(K=2, d=3, n=5, seed=8)
        prior = ContinuousL1Prior(d=3, K=2)
        h = 1e-5
        for _ in range(25):
            w = 0.9 * sample_continuous(prior, rng)
            xi = data.X @ w.T + rng.standard_normal((5, 2)) * 0.2
            s = reverse_score(cfg, w, xi, data, params)
            fd = np.zeros_like(s)
            for j in range(s.size):
                e = np.zeros(s.size)
                e[j] = h
                fd[j] = (reverse_logdensity_unnorm(cfg, w + e.reshape(2, 3), xi, data, params)
                         - reverse_logdensity_unnorm(cfg, w - e.reshape(2, 3), xi, data, params)) / (2 * h)
            assert np.max(np.abs(s - fd)) / max(1.0, np.max(np.abs(s))) < 1e-6


class TestReverseHessian:
    def test_zero_direction(self):
        cfg, data, params, rng = _setup()
        w = np.zeros((1, 2))
        xi = np.zeros((4, 1))
        assert reverse_hessian_quadform(cfg, w, xi, data, params, np.zeros(2)) == 0.0

    def test_nonpositive_on_random_draws(self):
        cfg, data, params, rng = _setup(K=2, d=3, n=5, seed=2, y_scale=1.0)
        prior = ContinuousL1Prior(d=3, K=2)
        worst = -math.inf
        for _ in range(1000):
            w = sample_continuous(prior, rng)
            xi, _ = sample_xi_given_w(w, data.X, params, rng)
            u = rng.standard_normal(6)
            u /= np.linalg.norm(u)
            q = reverse_hessian_quadform(cfg, w, xi, data, params, u)
            worst = max(worst, q)
        assert worst <= 1e-10

    def test_bracket_bound_with_slack_rho(self):
        # each bracket is at most -(sqrt(3/2)-1) a2 beta C_n V / K
        cfg, data, params, rng = _setup(K=1, d=2, n=3, beta=2.5, seed=4)
        act = cfg.activation
        margin = (math.sqrt(1.5) - 1.0) * act.a2 * params.beta * params.C_n * cfg.V / cfg.K
        X = data.X
        w = 0.9 * sample_continuous(ContinuousL1Prior(d=2, K=1), rng)
        res = data.y - (cfg.activation.psi(w @ X.T).T @ cfg.outer_weights)
        z = w @ X.T
        brackets = (params.beta * res * cfg.outer_weights[0]
                    * cfg.activation.d2psi(z)[0] - params.rho)
        assert np.all(brackets <= -margin + 1e-12)

    def test_smaller_rho_bracket_reaches_zero(self):
        # with rho = a2 beta C_n V / K the worst-case bracket is exactly 0:
        # beta * C_n * (V/K) * a2 - rho == 0 by construction
        act = squared_relu()
        beta, C_n, V, K = 2.0, 1.5, 1.0, 1
        rho_small = compute_rho(act.a2, beta, C_n, V, K, slack=False)
        assert beta * C_n * (V / K) * act.a2 - rho_small == pytest.approx(0.0, abs=1e-15)


class TestMarginalScoreAndConcavity:
    def test_fixed_point_zero_score(self):
        cfg, data, params, rng = _setup(n=3)
        w = 0.5 * sample_continuous(ContinuousL1Prior(d=2, K=1), rng)
        samples = [w.copy() for _ in range(50)]
        xi = stacked_projection(w, data.X)
        score, se = marginal_score(xi, samples, params, data.X)
        assert np.allclose(score, 0.0, atol=1e-13)
        assert np.allclose(se, 0.0, atol=1e-13)

    def test_se_halves_with_quadrupled_samples(self):
        cfg, data, params, rng = _setup(n=3, seed=9)
        prior = ContinuousL1Prior(d=2, K=1)
        xi = np.zeros((3, 1))
        ratios = []
        for _ in range(30):
            small = [sample_continuous(prior, rng) for _ in range(400)]
            big = [sample_continuous(prior, rng) for _ in range(1600)]
            _, se_small = marginal_score(xi, small, params, data.X)
            _, se_big = marginal_score(xi, big, params, data.X)
            ratios.append(np.mean(se_small) / np.mean(se_big))
        # 4x the samples halves the error; batch-means noise averages out
        assert 1.7 < np.mean(ratios) < 2.35

    def test_empty_samples_rejected(self):
        cfg, data, params, rng = _setup()
        w = sample_continuous(ContinuousL1Prior(d=2, K=1), rng)
        for samples in ([], [w]):  # one draw has no standard error
            with pytest.raises(ValueError, match="two"):
                marginal_score(np.zeros((4, 1)), samples, params, data.X)

    def test_constant_samples_give_zero_concavity_estimate(self):
        cfg, data, params, rng = _setup(n=3)
        w = 0.5 * sample_continuous(ContinuousL1Prior(d=2, K=1), rng)
        samples = [w.copy() for _ in range(60)]
        est, se = marginal_concavity_estimate(np.zeros((3, 1)), samples, params, data.X)
        assert est == pytest.approx(0.0, abs=1e-12)

    def test_certificate_is_the_exact_top_eigenpair(self):
        # the verify marginal shape: K=2, d=150, n=10, 2,500 prior-MH steps
        cfg = NetworkConfig(K=2, d=150, V=1.0, activation=tanh_scaled())
        data = random_dataset(np.random.default_rng(3), 10, 150)
        params = CouplingParams.from_config(cfg, data, n=10, beta=0.05)
        rng = np.random.default_rng(23)
        w = sample_continuous(ContinuousL1Prior(d=150, K=2), rng)
        xi, _ = sample_xi_given_w(w, data.X, params, rng)
        chain = ChainConfig(step_size=1.0, iterations=2500, burn_in=500, seed=7)
        samples, _ = sample_reverse_conditional_prior_mh(cfg, data, params, xi, chain)
        est, se = marginal_concavity_estimate(xi, samples, params, data.X)

        proj = stacked_projection(samples, data.X).reshape(len(samples), -1)
        S = len(proj)
        eigvals, eigvecs = np.linalg.eigh(np.cov(proj, rowvar=False))
        assert est == pytest.approx(params.rho * eigvals[-1], rel=1e-12, abs=0.0)
        scores = ((proj - proj.mean(axis=0)) @ eigvecs[:, -1]) ** 2
        batch = S // 10
        means = scores[: 10 * batch].reshape(10, batch).mean(axis=1)
        batch_se = np.std(means, ddof=1) / math.sqrt(10)
        assert se == pytest.approx(params.rho * S / (S - 1) * batch_se, rel=1e-10, abs=0.0)

    def test_requires_ten_samples(self):
        cfg, data, params, rng = _setup()
        w = sample_continuous(ContinuousL1Prior(d=2, K=1), rng)
        with pytest.raises(ValueError, match="10"):
            marginal_concavity_estimate(np.zeros((4, 1)), [w] * 5, params, data.X)


class TestConditionReport:
    def test_A1_hand_value(self):
        cfg, data, params, _ = _setup()  # tanh: a1 = a2 = 1 after clamping
        report = check_logconcavity_conditions(cfg, data, beta=2.0)
        assert report.A1 == pytest.approx(2.0 + 4.0 * math.sqrt(1.5), abs=1e-6)
        assert report.A1 == pytest.approx(6.898979, abs=1e-6)
        assert report.A2 == pytest.approx(
            (2 + 1 / math.sqrt(math.pi)) * math.sqrt(2 * math.sqrt(1.5)))
        assert report.A2_variant < report.A2

    def test_H_terms_vanish_with_delta(self):
        cfg, data, _, _ = _setup()
        r1 = check_logconcavity_conditions(cfg, data, beta=2.0, delta=1e-3)
        r2 = check_logconcavity_conditions(cfg, data, beta=2.0, delta=1e-6)
        assert r2.H1 < r1.H1 and r2.H2 < r1.H2
        assert r2.H1 < 1e-4

    def test_small_Kd_fails_condition(self):
        cfg, data, _, _ = _setup(K=1, d=2, beta=2.0)
        report = check_logconcavity_conditions(cfg, data, beta=2.0, N=4)
        assert not report.cond_Kd

    def test_deterministic(self):
        cfg, data, _, _ = _setup()
        a = check_logconcavity_conditions(cfg, data, beta=1.5)
        b = check_logconcavity_conditions(cfg, data, beta=1.5)
        assert a == b


class TestZEstimate:
    def test_bound_hand_value(self):
        # delta = 1/300, rho = 1, sigma_tilde = 1
        bound = 1.0 * 1.0 * (1.0 / 300.0) / ((1.0 - 1.0 / 300.0) * math.sqrt(2 * math.pi))
        assert bound == pytest.approx(0.001334, abs=2e-6)

    def test_estimates_within_bounds(self):
        cfg, data, params, rng = _setup(K=1, d=3, n=4, seed=2)
        w = sample_continuous(ContinuousL1Prior(d=3, K=1), rng)
        u = rng.standard_normal((1, 3))
        u /= np.linalg.norm(u)
        rec = estimate_Z_and_check(w, u, params, data.X, 20_000, rng)
        assert rec["grad_ok"] and rec["prob_ok"]
        assert rec["Z"] <= 0.0

    def test_small_delta_makes_Z_negligible(self):
        cfg, data, params, rng = _setup(K=1, d=3, n=4, seed=2)
        w = 0.3 * sample_continuous(ContinuousL1Prior(d=3, K=1), rng)
        u = np.ones((1, 3)) / 3.0
        rec = estimate_Z_and_check(w, u, params, data.X, 20_000, rng)
        assert abs(rec["Z"]) < 1e-3
        assert abs(rec["grad_dir"]) < 0.05

    def test_budget_validation(self):
        cfg, data, params, rng = _setup()
        with pytest.raises(ValueError, match="mc_budget"):
            estimate_Z_and_check(np.zeros((1, 2)), np.ones((1, 2)), params,
                                 data.X, 10, rng)


class TestHolderBound:
    def test_monotone_decreasing_in_d(self):
        vals = []
        for d in (10, 40, 160):
            cfg, data, params, _ = _setup(K=2, d=d, n=5, beta=0.1, seed=6)
            hb = holder_variance_bound(3, cfg, params)
            vals.append(hb.bound)
        assert vals[0] > vals[1] > vals[2]

    def test_integer_rounding_within_factor_e(self):
        cfg, data, params, _ = _setup(K=2, d=30, n=6, beta=0.2, seed=7)
        hb = holder_variance_bound(2, cfg, params)
        ls = hb.l_star
        cont = (4 * ls * params.n / (math.sqrt(math.e) * cfg.d)) * math.e
        assert hb.bound_floor <= math.e * cont + 1e-9
        assert hb.bound_ceil <= math.e * cont + 1e-9
        assert hb.bound_at_l_star == min(hb.bound_floor, hb.bound_ceil)

    def test_certifies_marginal_concavity_at_large_d_config(self):
        cfg = NetworkConfig(K=2, d=150, V=1.0, activation=tanh_scaled())
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(10, 150))
        X[:, 0] = 1.0
        data = Dataset(X=X, y=rng.uniform(-1, 1, size=10))
        beta = 0.05
        params = CouplingParams.from_config(cfg, data, n=10, beta=beta)
        report = check_logconcavity_conditions(cfg, data, beta)
        assert report.cond_Kd
        hb = holder_variance_bound(2, cfg, params)
        assert params.rho * hb.bound_at_l_star < 1.0

    def test_dominates_empirical_estimate(self):
        # the analytic variance bound must sit above any sampled estimate
        cfg = NetworkConfig(K=2, d=150, V=1.0, activation=tanh_scaled())
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, size=(10, 150))
        X[:, 0] = 1.0
        data = Dataset(X=X, y=rng.uniform(-1, 1, size=10))
        params = CouplingParams.from_config(cfg, data, n=10, beta=0.05)
        prior = ContinuousL1Prior(d=150, K=2)
        w = sample_continuous(prior, rng)
        xi, _ = sample_xi_given_w(w, data.X, params, rng)
        samples = [sample_continuous(prior, rng) for _ in range(500)]
        est, se = marginal_concavity_estimate(xi, samples, params, data.X)
        hb = holder_variance_bound(2, cfg, params)
        assert est + 2 * se < params.rho * hb.bound_at_l_star

"""Chain kernels, nested sampler vs quadrature oracles, determinism."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from lccnn.nnmodel import Dataset, NetworkConfig, tanh_scaled
from lccnn.priors import DEFAULT_ENUMERATION_LIMIT, ContinuousL1Prior, sample_continuous
from lccnn.coupling import (
    CouplingParams,
    in_B,
    reverse_logdensity_unnorm,
    reverse_score,
    sample_xi_given_w,
)
from lccnn.estimators import _logsumexp
from lccnn.samplers import (
    ChainConfig,
    ChainRng,
    CouplingOracle1D,
    PosteriorQuadrature,
    SamplerError,
    TargetDensity,
    TwoStageBudgets,
    _DualAveraging,
    _row_grid,
    ess_estimate,
    independence_chain,
    mala_chain,
    reverse_conditional_target,
    sample_marginal_xi,
    sample_reverse_conditional,
    sample_reverse_conditional_prior_mh,
    two_stage_sample,
)


def _gaussian_target(dim=5):
    return TargetDensity(
        log_density=lambda x: -0.5 * float(x @ x),
        log_density_and_score=lambda x: (-0.5 * float(x @ x), -x),
        support_test=lambda x: True,
        dimension=dim,
    )


def _coupled_1d(beta=3.0, n=2, seed=0, y=(0.8, 0.4)):
    cfg = NetworkConfig(K=1, d=1, V=1.0, activation=tanh_scaled())
    data = Dataset(X=np.ones((n, 1)), y=np.array(y))
    params = CouplingParams.from_config(cfg, data, n=n, beta=beta)
    return cfg, data, params


class TestMalaChain:
    def test_gaussian_moments(self):
        cfg = ChainConfig(step_size=0.8, iterations=110_000, burn_in=10_000,
                          thinning=1, seed=1)
        samples, diag = mala_chain(_gaussian_target(), cfg, np.zeros(5))
        ess = max(diag.ess_estimate, 1.0)
        se = 1.0 / math.sqrt(ess)
        assert np.all(np.abs(samples.mean(axis=0)) <= 3 * se)
        assert np.all(np.abs(samples.var(axis=0) - 1.0) <= 0.1)

    def test_uniform_support_only(self):
        target = TargetDensity(
            log_density=lambda x: 0.0,
            log_density_and_score=lambda x: (0.0, np.zeros(1)),
            support_test=lambda x: bool(np.all(np.abs(x) <= 1.0)),
            dimension=1,
        )
        cfg = ChainConfig(step_size=0.8, iterations=60_000, burn_in=5_000,
                          thinning=5, seed=2)
        samples, diag = mala_chain(target, cfg, np.zeros(1))
        assert diag.support_rejections > 0
        hist, _ = np.histogram(samples[:, 0], bins=10, range=(-1, 1))
        chi2 = np.sum((hist - hist.mean()) ** 2 / hist.mean())
        # 9 dof, 5% critical value
        assert chi2 < stats.chi2.ppf(0.95, 9) * 1.5

    def test_small_step_acceptance_tends_to_one(self):
        cfg = ChainConfig(step_size=1e-4, iterations=3000, burn_in=0,
                          thinning=1, seed=3, adapt_step=False)
        _, diag = mala_chain(_gaussian_target(1), cfg, np.zeros(1))
        assert diag.acceptance_rate > 0.999

    def test_determinism_bit_identical(self):
        cfg = ChainConfig(step_size=0.5, iterations=2000, burn_in=200,
                          thinning=3, seed=7)
        s1, d1 = mala_chain(_gaussian_target(3), cfg, np.zeros(3))
        s2, d2 = mala_chain(_gaussian_target(3), cfg, np.zeros(3))
        assert np.array_equal(s1, s2)
        assert d1.acceptance_rate == d2.acceptance_rate
        s3, _ = mala_chain(_gaussian_target(3), cfg, np.zeros(3), chain_id=1)
        assert not np.array_equal(s1, s3)

    def test_double_well_detailed_balance(self):
        # two-mode density on the line: exp(-(x^2-1)^2 / 0.32)
        def logd(x):
            return -float((x[0] ** 2 - 1.0) ** 2) / 0.32

        def score(x):
            return np.array([-4.0 * x[0] * (x[0] ** 2 - 1.0) / 0.32])

        target = TargetDensity(log_density=logd,
                               log_density_and_score=lambda x: (logd(x), score(x)),
                               support_test=lambda x: bool(abs(x[0]) < 3.0),
                               dimension=1)
        cfg = ChainConfig(step_size=0.5, iterations=120_000, burn_in=10_000,
                          thinning=4, seed=11)
        samples, _ = mala_chain(target, cfg, np.array([1.0]))
        edges = np.linspace(-2.0, 2.0, 13)
        hist, _ = np.histogram(samples[:, 0], bins=edges)
        x = np.linspace(-2, 2, 4001)
        dens = np.exp(-(x ** 2 - 1) ** 2 / 0.32)
        dens /= np.trapezoid(dens, x)
        probs = np.array([np.trapezoid(dens[(x >= a) & (x <= b)], x[(x >= a) & (x <= b)])
                          for a, b in zip(edges[:-1], edges[1:])])
        n_eff = ess_estimate(samples[:, 0])
        expected = probs / probs.sum() * hist.sum()
        chi2 = np.sum((hist - expected) ** 2 / np.maximum(expected, 1.0))
        # inflate the 5% cut because retained draws are correlated
        infl = hist.sum() / max(n_eff, 1.0)
        assert chi2 < stats.chi2.ppf(0.95, len(hist) - 1) * max(infl, 1.0)

    def test_initial_state_validation(self):
        target = TargetDensity(log_density=lambda x: 0.0,
                               log_density_and_score=lambda x: (0.0, np.zeros(1)),
                               support_test=lambda x: bool(np.all(np.abs(x) <= 1)),
                               dimension=1)
        cfg = ChainConfig(step_size=0.1, iterations=10, burn_in=0, thinning=1, seed=0)
        with pytest.raises(SamplerError, match="support"):
            mala_chain(target, cfg, np.array([2.0]))

    def test_nan_score_raises(self):
        target = TargetDensity(log_density=lambda x: 0.0,
                               log_density_and_score=lambda x: (0.0, np.array([math.nan])),
                               support_test=lambda x: True, dimension=1)
        cfg = ChainConfig(step_size=0.1, iterations=10, burn_in=0, thinning=1, seed=0)
        with pytest.raises(SamplerError, match="NaN"):
            mala_chain(target, cfg, np.zeros(1))


class TestChainRng:
    def test_at_is_the_fresh_counter_stream(self):
        # steps out of order; each draw mixes 64-bit values with an odd count
        # of 32-bit ones, so a half-word left over from one step would show
        def draws(gen):
            return (gen.standard_normal(4), gen.integers(0, 2, size=3),
                    gen.standard_normal(2), gen.random())

        rng = ChainRng(5, 2)
        for step in (10, 3, 10, 0, 2 ** 40, 11, 3):
            fresh = np.random.Generator(np.random.Philox(
                key=np.array([5, 2], dtype=np.uint64),
                counter=np.array([0, 0, 0, step], dtype=np.uint64)))
            for a, b in zip(draws(rng.at(step)), draws(fresh)):
                assert np.array_equal(a, b)
        assert not np.array_equal(rng.at(10).standard_normal(4),
                                  rng.at(11).standard_normal(4))

    def test_block_is_the_fresh_block_stream(self):
        # block(b) is the stream at counter [0, 0, 1, b], also right after an
        # at(step) call, and at(step) is unchanged right after a block call
        def fresh(word2, word3):
            return np.random.Generator(np.random.Philox(
                key=np.array([7, 3], dtype=np.uint64),
                counter=np.array([0, 0, word2, word3], dtype=np.uint64)))

        rng = ChainRng(7, 3)
        for b in (0, 5, 0, 2 ** 40, 1):
            for word2, word3, seek in ((0, b, rng.at), (1, b, rng.block), (0, b + 1, rng.at)):
                gen, ref = seek(word3), fresh(word2, word3)
                assert gen.standard_exponential(5).tobytes() == ref.standard_exponential(5).tobytes()
                assert np.array_equal(gen.bit_generator.random_raw(3),
                                      ref.bit_generator.random_raw(3))
                assert gen.random(4).tobytes() == ref.random(4).tobytes()
        assert not np.array_equal(rng.block(4).random(4), rng.at(4).random(4))


class TestReverseConditionalSampler:
    def test_matches_quadrature_mean(self):
        cfg, data, params = _coupled_1d()
        oracle = CouplingOracle1D(cfg, data, params, n_w=1001, include_Z=False)
        xi = np.array([[0.5], [0.7]])
        truth = oracle.conditional_mean(xi)
        chain = ChainConfig(step_size=0.3, iterations=20_000, burn_in=2_000,
                            thinning=1, seed=3)
        samples, diag = sample_reverse_conditional(cfg, data, params, xi, chain)
        est = samples[:, 0, 0].mean()
        assert abs(est - truth) <= 0.02 * max(abs(truth), 0.1)
        assert diag.acceptance_rate > 0.3

    def test_support_always_satisfied(self):
        cfg, data, params = _coupled_1d()
        chain = ChainConfig(step_size=0.6, iterations=4000, burn_in=500,
                            thinning=1, seed=5)
        samples, _ = sample_reverse_conditional(cfg, data, params,
                                                np.zeros((2, 1)), chain)
        assert np.all(np.abs(samples).sum(axis=2) <= 1.0)

    def test_xi_shift_moves_conditional_mean(self):
        cfg, data, params = _coupled_1d()
        oracle = CouplingOracle1D(cfg, data, params, n_w=1001, include_Z=False)
        chain = ChainConfig(step_size=0.3, iterations=12_000, burn_in=2_000,
                            thinning=1, seed=6)
        far = np.array([[1.5], [1.5]])
        zero = np.zeros((2, 1))
        s_far, _ = sample_reverse_conditional(cfg, data, params, far, chain)
        s_zero, _ = sample_reverse_conditional(cfg, data, params, zero, chain)
        assert s_far[:, 0, 0].mean() > s_zero[:, 0, 0].mean()
        assert oracle.conditional_mean(far) > oracle.conditional_mean(zero)

    def test_xi_outside_B_rejected(self):
        cfg, data, params = _coupled_1d()
        xi_bad = np.full((2, 1), 100.0)
        chain = ChainConfig(step_size=0.3, iterations=10, burn_in=0, thinning=1, seed=0)
        with pytest.raises(ValueError, match="constraint set B"):
            sample_reverse_conditional(cfg, data, params, xi_bad, chain)

    @pytest.mark.parametrize("K, d", [(1, 2), (2, 3)])
    def test_equals_step_by_step_reference(self, K, d):
        # step s draws its noise, then its uniform, from the fresh stream at
        # counter [0, 0, 0, s]; 150 steps end in a partial block, and the
        # large first step size leaves the support during adaptation
        rng = np.random.default_rng(70 + K * d)
        n = 5
        X = rng.uniform(-1, 1, size=(n, d))
        X[:, 0] = 1.0
        data = Dataset(X=X, y=rng.uniform(-1, 1, size=n))
        cfg = NetworkConfig(K=K, d=d, V=1.0, activation=tanh_scaled())
        params = CouplingParams.from_config(cfg, data, n=n, beta=2.0)
        prior = ContinuousL1Prior(d=d, K=K)
        xi, _ = sample_xi_given_w(sample_continuous(prior, rng), data.X, params, rng)
        chain = ChainConfig(step_size=0.9, iterations=150, burn_in=40, thinning=3, seed=8)
        w0 = 0.5 * sample_continuous(prior, rng)
        samples, diag = sample_reverse_conditional(cfg, data, params, xi, chain, w0=w0,
                                                   chain_id=2)

        target = reverse_conditional_target(cfg, data, params, xi)
        x = w0.reshape(-1)
        logp, grad = target.log_density_and_score(x)
        eps, adapter = chain.step_size, _DualAveraging(chain.step_size)
        kept, accepts, rejections = [], 0, 0
        for step in range(chain.iterations):
            gen = np.random.Generator(np.random.Philox(
                key=np.array([chain.seed, 2], dtype=np.uint64),
                counter=np.array([0, 0, 0, step], dtype=np.uint64)))
            noise = gen.standard_normal(K * d)
            u = gen.random()
            drift = 0.5 * eps * eps * grad
            prop = x + drift + eps * noise
            alpha = 0.0
            if np.abs(prop.reshape(K, d)).sum(axis=1).max() > 1.0:
                rejections += 1
            else:
                logp_prop, grad_prop = target.log_density_and_score(prop)
                fwd = prop - x - drift
                rev = x - prop - 0.5 * eps * eps * grad_prop
                log_ratio = logp_prop - logp + (fwd @ fwd - rev @ rev) / (2.0 * eps * eps)
                alpha = min(1.0, math.exp(min(log_ratio, 0.0)))
                if u < alpha:
                    x, logp, grad = prop, logp_prop, grad_prop
                    accepts += step >= chain.burn_in
            if step <= chain.burn_in:
                eps = adapter.update(alpha) if step < chain.burn_in else adapter.frozen
            if step >= chain.burn_in and (step - chain.burn_in) % chain.thinning == 0:
                kept.append(x.copy())
        assert rejections >= 1
        assert samples.tobytes() == np.array(kept).reshape(-1, K, d).tobytes()
        assert diag.support_rejections == rejections
        assert diag.acceptance_rate == accepts / (chain.iterations - chain.burn_in)
        assert diag.final_step_size == eps


class TestReverseConditionalTarget:
    @pytest.mark.parametrize("K, d, n", [(1, 2, 5), (2, 3, 5), (2, 150, 10)])
    def test_fused_evaluation_matches_reverse_functions(self, K, d, n):
        rng = np.random.default_rng(100 * K + d)
        cfg = NetworkConfig(K=K, d=d, V=1.0, activation=tanh_scaled())
        X = rng.uniform(-1, 1, size=(n, d))
        X[:, 0] = 1.0
        data = Dataset(X=X, y=rng.uniform(-1, 1, size=n))
        params = CouplingParams.from_config(cfg, data, n=n, beta=0.8)
        prior = ContinuousL1Prior(d=d, K=K)
        for _ in range(20):
            xi, _ = sample_xi_given_w(sample_continuous(prior, rng), data.X, params, rng)
            target = reverse_conditional_target(cfg, data, params, xi)
            w = sample_continuous(prior, rng)
            logp, score = target.log_density_and_score(w.reshape(-1))
            ref_logp = reverse_logdensity_unnorm(cfg, w, xi, data, params)
            ref_score = reverse_score(cfg, w, xi, data, params)
            assert abs(logp - ref_logp) <= 1e-12 * abs(ref_logp)
            assert np.max(np.abs(score - ref_score)) <= 1e-12 * np.max(np.abs(ref_score))


class TestIndependenceChain:
    def test_uniform_proposals_match_quadrature(self):
        # exp(-x^2) on [-1, 1] with proposals uniform over the support
        target = TargetDensity(log_density=lambda xs: -np.sum(xs * xs, axis=1),
                               log_density_and_score=lambda x: (-float(x @ x), -2.0 * x),
                               support_test=lambda x: bool(abs(x[0]) <= 1.0),
                               dimension=1)
        cfg = ChainConfig(step_size=0.5, iterations=20_000, burn_in=1_000,
                          thinning=1, seed=4)

        def proposal(rng, B):
            return rng.uniform(-1.0, 1.0, size=(B, 1))

        samples, diag = independence_chain(target, cfg, proposal, np.zeros(1))
        x = samples[:, 0]
        z = integrate.quad(lambda t: math.exp(-t * t), -1.0, 1.0)[0]
        var = integrate.quad(lambda t: t * t * math.exp(-t * t), -1.0, 1.0)[0] / z
        # the mean is 0 by symmetry, so the variance is the second moment
        assert abs(x.mean()) <= 3.0 * x.std(ddof=1) / math.sqrt(diag.ess_estimate)
        x2 = x * x
        assert abs(x2.mean() - var) <= 3.0 * x2.std(ddof=1) / math.sqrt(ess_estimate(x2))
        assert diag.support_rejections == 0
        assert diag.final_step_size == 0.0
        again, diag_again = independence_chain(target, cfg, proposal, np.zeros(1))
        assert again.tobytes() == samples.tobytes()
        assert diag_again.acceptance_rate == diag.acceptance_rate
        assert diag_again.ess_estimate == diag.ess_estimate

    def test_prior_mh_tilts_toward_target(self):
        cfg, data, params = _coupled_1d(beta=1.0)
        oracle = CouplingOracle1D(cfg, data, params, n_w=1001, include_Z=False)
        xi = np.array([[0.4], [0.6]])
        chain = ChainConfig(step_size=1.0, iterations=30_000, burn_in=2_000,
                            thinning=1, seed=9)
        samples, diag = sample_reverse_conditional_prior_mh(cfg, data, params,
                                                            xi, chain)
        truth = oracle.conditional_mean(xi)
        est = samples[:, 0, 0].mean()
        se = samples[:, 0, 0].std(ddof=1) / math.sqrt(max(diag.ess_estimate, 1.0))
        assert abs(est - truth) <= 4 * se
        assert 0.0 < diag.acceptance_rate <= 1.0

    @pytest.mark.parametrize("K, d, n", [(1, 1, 2), (3, 5, 4), (2, 150, 10)])
    def test_prior_mh_equals_step_by_step_reference(self, K, d, n):
        # block b draws one sample_continuous of 64 K rows, then 64 uniforms,
        # from the fresh stream at counter [0, 0, 1, b]; step s takes row
        # block s // 64, position s % 64; 300 steps end in a partial block
        rng = np.random.default_rng(40 + K * d)
        X = rng.uniform(-1, 1, size=(n, d))
        X[:, 0] = 1.0
        data = Dataset(X=X, y=rng.uniform(-1, 1, size=n))
        cfg = NetworkConfig(K=K, d=d, V=1.0, activation=tanh_scaled())
        params = CouplingParams.from_config(cfg, data, n=n, beta=0.05)
        prior = ContinuousL1Prior(d=d, K=K)
        xi, _ = sample_xi_given_w(sample_continuous(prior, rng), data.X, params, rng)
        chain = ChainConfig(step_size=1.0, iterations=300, burn_in=50, thinning=1, seed=6)
        samples, diag = sample_reverse_conditional_prior_mh(cfg, data, params, xi, chain)

        target = reverse_conditional_target(cfg, data, params, xi)
        x = np.zeros(K * d)
        logp = target.log_density(x[None])[0]
        kept, accepts = [], 0
        for step in range(chain.iterations):
            b, i = divmod(step, 64)
            if i == 0:
                size = min(64, chain.iterations - step)
                gen = np.random.Generator(np.random.Philox(
                    key=np.array([chain.seed, 0], dtype=np.uint64),
                    counter=np.array([0, 0, 1, b], dtype=np.uint64)))
                props = sample_continuous(ContinuousL1Prior(d=d, K=size * K), gen)
                uniforms = gen.random(size)
            prop = props[i * K:(i + 1) * K].reshape(-1)
            logp_prop = target.log_density(prop[None])[0]
            if uniforms[i] < min(1.0, math.exp(min(logp_prop - logp, 0.0))):
                x, logp = prop, logp_prop
                accepts += step >= chain.burn_in
            if step >= chain.burn_in:
                kept.append(x.copy())
        assert samples.tobytes() == np.array(kept).reshape(-1, K, d).tobytes()
        assert diag.acceptance_rate == accepts / (chain.iterations - chain.burn_in)


class TestMarginalXi:
    def test_exact_score_chain_matches_quadrature(self):
        cfg, data, params = _coupled_1d()
        oracle = CouplingOracle1D(cfg, data, params, n_w=1001, include_Z=False)

        class Adapter:
            def score(self, xi):
                return oracle.score(xi)

            def log_marginal(self, xi):
                return oracle.log_marginal(xi)

        outer = ChainConfig(step_size=0.3, iterations=30_000, burn_in=4_000,
                            thinning=3, seed=5)
        inner = ChainConfig(step_size=0.3, iterations=50, burn_in=10,
                            thinning=1, seed=0)
        xis, diag = sample_marginal_xi(cfg, data, params, outer, inner,
                                       score_oracle=Adapter())
        pts = oracle.xi_grid(points_per_dim=60)
        mass = oracle.marginal_on_grid(pts)
        quad_mean = mass @ pts
        est = xis.reshape(len(xis), -1).mean(axis=0)
        sd = xis.reshape(len(xis), -1).std(axis=0)
        se = sd / math.sqrt(max(diag.ess_estimate, 1.0))
        assert np.all(np.abs(est - quad_mean) <= 3.5 * se)

    @pytest.mark.slow
    def test_nested_score_consistency(self):
        # estimated-score chain agrees with the exact-score chain within
        # combined Monte Carlo tolerance
        cfg, data, params = _coupled_1d()
        oracle = CouplingOracle1D(cfg, data, params, n_w=801, include_Z=False)

        class Adapter:
            def score(self, xi):
                return oracle.score(xi)

            def log_marginal(self, xi):
                return oracle.log_marginal(xi)

        inner = ChainConfig(step_size=0.3, iterations=260, burn_in=60,
                            thinning=1, seed=0)
        outer_a = ChainConfig(step_size=0.3, iterations=9_000, burn_in=1_500,
                              thinning=3, seed=21)
        outer_b = ChainConfig(step_size=0.3, iterations=30_000, burn_in=4_000,
                              thinning=3, seed=22)
        xis_nested, diag_a = sample_marginal_xi(cfg, data, params, outer_a, inner)
        xis_exact, diag_b = sample_marginal_xi(cfg, data, params, outer_b, inner,
                                               score_oracle=Adapter())
        m_a = xis_nested.mean(axis=0).ravel()
        m_b = xis_exact.mean(axis=0).ravel()
        sd = xis_exact.reshape(len(xis_exact), -1).std(axis=0)
        tol = 3.0 * sd * math.sqrt(1.0 / max(diag_a.ess_estimate, 1.0)
                                   + 1.0 / max(diag_b.ess_estimate, 1.0)) + 0.02
        assert np.all(np.abs(m_a - m_b) <= tol)

    def test_retained_xi_in_B_and_se_recorded(self):
        cfg, data, params = _coupled_1d()
        outer = ChainConfig(step_size=0.3, iterations=600, burn_in=100,
                            thinning=2, seed=8)
        inner = ChainConfig(step_size=0.3, iterations=120, burn_in=40,
                            thinning=1, seed=0)
        xis, diag = sample_marginal_xi(cfg, data, params, outer, inner)
        for xi in xis:
            assert in_B(xi, data.X, params)
        se = diag.extras["inner_score_se"]
        assert len(se) == len(xis) and np.all(se > 0)

    def test_inner_budget_shrinks_score_se(self):
        cfg, data, params = _coupled_1d()
        outer = ChainConfig(step_size=0.3, iterations=300, burn_in=100,
                            thinning=1, seed=9)
        small = ChainConfig(step_size=0.3, iterations=80, burn_in=30,
                            thinning=1, seed=0)
        big = ChainConfig(step_size=0.3, iterations=600, burn_in=30,
                          thinning=1, seed=0)
        _, diag_small = sample_marginal_xi(cfg, data, params, outer, small)
        _, diag_big = sample_marginal_xi(cfg, data, params, outer, big)
        assert (np.mean(diag_big.extras["inner_score_se"])
                < np.mean(diag_small.extras["inner_score_se"]))


class TestTwoStage:
    @pytest.mark.slow
    def test_d1_kolmogorov_smirnov_vs_quadrature(self):
        cfg, data, params = _coupled_1d()
        oracle = CouplingOracle1D(cfg, data, params, n_w=2001, include_Z=False)
        outer = ChainConfig(step_size=0.3, iterations=6_000, burn_in=1_200,
                            thinning=8, seed=31)
        inner = ChainConfig(step_size=0.3, iterations=260, burn_in=60,
                            thinning=1, seed=0)
        cond = ChainConfig(step_size=0.3, iterations=140, burn_in=120,
                           thinning=20, seed=32)  # one near-independent draw per xi
        draws, tags, diag = two_stage_sample(cfg, data, params,
                                             TwoStageBudgets(outer, inner, cond))
        w_draws = draws[:, 0, 0]
        grid_w = oracle.w
        cdf = np.cumsum(oracle.posterior_density()) * oracle.h

        def cdf_at(v):
            return np.interp(v, grid_w, cdf)

        res = stats.ks_1samp(w_draws, cdf_at)
        assert res.pvalue > 0.01
        assert np.all(np.abs(draws).sum(axis=2) <= 1.0)
        assert len(tags) == len(draws)

    def test_all_draws_in_prior_support(self):
        cfg, data, params = _coupled_1d(beta=1.0)
        outer = ChainConfig(step_size=0.3, iterations=400, burn_in=100,
                            thinning=4, seed=41)
        inner = ChainConfig(step_size=0.3, iterations=100, burn_in=30,
                            thinning=1, seed=0)
        cond = ChainConfig(step_size=0.3, iterations=60, burn_in=20,
                           thinning=5, seed=42)
        draws, tags, _ = two_stage_sample(cfg, data, params,
                                          TwoStageBudgets(outer, inner, cond))
        assert np.all(np.abs(draws).sum(axis=2) <= 1.0)
        assert set(tags.tolist()) <= set(range(len(draws)))


class TestQuadratureOracle:
    def _cfg_data(self, d=2, n=4, seed=0):
        cfg = NetworkConfig(K=1, d=d, V=1.0, activation=tanh_scaled())
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(n, d))
        X[:, 0] = 1.0
        data = Dataset(X=X, y=rng.uniform(-1, 1, size=n))
        return cfg, data

    def test_beta_zero_recovers_uniform(self):
        cfg, data = self._cfg_data()
        quad = PosteriorQuadrature(cfg, data, 4, beta=0.0, grid_resolution=40)
        dens = np.exp(quad.log_density)
        assert np.max(np.abs(dens - dens[0])) < 1e-12 * dens[0]

    def test_normalization(self):
        cfg, data = self._cfg_data()
        quad = PosteriorQuadrature(cfg, data, 4, beta=2.0, grid_resolution=60)
        assert abs(quad.total_mass() - 1.0) < 1e-10

    def test_second_order_convergence(self):
        from lccnn.samplers import quadrature_convergence_report

        cfg, data = self._cfg_data(seed=3)
        rep = quadrature_convergence_report(cfg, data, 4, 2.0, 50,
                                            np.array([1.0, 0.4]))
        # halving h cuts the midpoint-rule error by about 4
        assert rep["error_ratio"] > 2.5
        assert abs(rep["richardson"] - rep["values"]["finest"]) \
            < abs(rep["values"]["coarse"] - rep["values"]["finest"])

    @pytest.mark.parametrize("K, d, r", [(1, 2, 60), (1, 3, 20), (3, 1, 25)])
    def test_matches_gather_reference(self, K, d, r):
        cfg = NetworkConfig(K=K, d=d, V=1.0, activation=tanh_scaled())
        _, data = self._cfg_data(d=d, n=5, seed=K)
        quad = PosteriorQuadrature(cfg, data, 5, 1.7, r)
        ref = _quadrature_reference(cfg, data, 5, 1.7, r)
        for name in ("probs", "log_density", "cell_volume"):
            assert np.array_equal(getattr(quad, name), ref[name])
        assert quad.mean_f(data.X[1]) == ref["mean_f"](data.X[1])

    def test_builds_past_the_enumeration_limit(self):
        # the grid prior's enumeration limit does not bound the oracle
        cfg, data = self._cfg_data(d=3)
        quad = PosteriorQuadrature(cfg, data, 4, beta=2.0, grid_resolution=101)
        assert len(quad.probs) == 101 ** 3 > DEFAULT_ENUMERATION_LIMIT
        assert abs(quad.total_mass() - 1.0) < 1e-10

    def test_dimension_guard(self):
        cfg = NetworkConfig(K=2, d=2, V=1.0, activation=tanh_scaled())
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(3, 2))
        X[:, 0] = 1.0
        data = Dataset(X=X, y=np.zeros(3))
        with pytest.raises(ValueError, match="K\\*d"):
            PosteriorQuadrature(cfg, data, 3, 1.0, 10)

    def test_mixture_oracle_xi_sampling_consistency(self):
        # forward draws land in the high-mass region of the oracle marginal
        cfg, data, params = _coupled_1d()
        oracle = CouplingOracle1D(cfg, data, params, n_w=401, include_Z=True)
        rng = np.random.default_rng(4)
        w = sample_continuous(ContinuousL1Prior(d=1, K=1), rng)
        xi, _ = sample_xi_given_w(w, data.X, params, rng)
        assert np.isfinite(oracle.log_marginal(xi))


def _row_grid_recursive(d, m, budget=1.0):
    """Reference for _row_grid: one level per call, one node at a time."""
    if d == 0:
        return [np.zeros(0)], [1.0]
    h = 2.0 * budget / m
    pts, wts = [], []
    for i in range(m):
        w1 = -budget + (i + 0.5) * h
        sub_pts, sub_wts = _row_grid_recursive(d - 1, m, budget - abs(w1))
        pts += [np.concatenate([[w1], p]) for p in sub_pts]
        wts += [h * wt for wt in sub_wts]
    return pts, wts


def _quadrature_reference(cfg, data, n, beta, r):
    """Reference for PosteriorQuadrature: tables gathered through np.indices."""
    row_pts, row_wts = _row_grid(cfg.d, r)
    X, y = data.X[:n], data.y[:n]
    psi_tab = cfg.activation.psi(row_pts @ X.T)  # (m, n)
    idx = np.indices((len(row_pts),) * cfg.K).reshape(cfg.K, -1)  # (K, m^K)
    f_tab = np.zeros((idx.shape[1], n))
    log_wt = np.zeros(idx.shape[1])
    for k in range(cfg.K):
        f_tab += cfg.outer_weights[k] * psi_tab[idx[k]]
        log_wt += np.log(row_wts[idx[k]])
    res = y[None, :] - f_tab
    log_density = -0.5 * beta * np.sum(res * res, axis=1)
    log_density -= _logsumexp(log_density + log_wt)
    cell_volume = np.exp(log_wt)
    probs = np.exp(log_density) * cell_volume

    def mean_f(x):
        psi_x = cfg.activation.psi(row_pts @ x)
        f_vals = np.zeros(idx.shape[1])
        for k in range(cfg.K):
            f_vals += cfg.outer_weights[k] * psi_x[idx[k]]
        return float(probs @ f_vals)

    return {"probs": probs, "log_density": log_density, "cell_volume": cell_volume,
            "mean_f": mean_f}


class TestRowGrid:
    @pytest.mark.parametrize("d, m", [(1, 7), (2, 9), (3, 5)])
    def test_matches_recursive_reference(self, d, m):
        pts, wts = _row_grid(d, m)
        ref_pts, ref_wts = _row_grid_recursive(d, m)
        assert np.array_equal(pts, np.array(ref_pts))
        assert np.array_equal(wts, np.array(ref_wts))

    def test_weights_sum_to_l1_ball_volume(self):
        # exact when every kink of the cell widths falls on a cell edge:
        # d = 1, or d = 2 with m even
        for d, m in [(1, 7), (2, 8), (2, 350)]:
            assert abs(_row_grid(d, m)[1].sum() - 2.0 ** d / math.factorial(d)) < 1e-12
        # otherwise the midpoint rule's error, second order in 1/m
        err = [abs(_row_grid(3, m)[1].sum() - 4.0 / 3.0) for m in (10, 20, 40)]
        assert 3.5 < err[0] / err[1] < 4.5 and 3.5 < err[1] / err[2] < 4.5


class TestEssAndJsonl:
    def test_ess_iid_close_to_n(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4000)
        assert ess_estimate(x) > 2500

    def test_ess_correlated_much_smaller(self):
        rng = np.random.default_rng(1)
        x = np.zeros(4000)
        for i in range(1, 4000):
            x[i] = 0.95 * x[i - 1] + rng.standard_normal()
        assert ess_estimate(x) < 400

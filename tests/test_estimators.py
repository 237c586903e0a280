"""Exact discrete posteriors, predictive densities, Cesaro averages."""

import math

import numpy as np
import pytest
from scipy import integrate

from lccnn.nnmodel import Dataset, NetworkConfig, tanh_scaled
from lccnn.priors import DiscreteGridPrior, enumerate_grid
from lccnn.estimators import (
    PosteriorSnapshot,
    cesaro_mean,
    cesaro_predictive,
    exact_discrete_posterior,
    log_predictive_density,
    posterior_mean,
    predictive_density,
    sequential_discrete_posteriors,
)


def _setup(d=2, M=1, K=1, n=4, seed=0, beta=1.0):
    cfg = NetworkConfig(K=K, d=d, V=1.0, activation=tanh_scaled())
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, d))
    X[:, 0] = 1.0
    y = rng.uniform(-1, 1, size=n)
    data = Dataset(X=X, y=y)
    grid = enumerate_grid(DiscreteGridPrior(d=d, M=M))
    return cfg, data, grid


class TestExactPosterior:
    def test_beta_zero_is_uniform(self):
        cfg, data, grid = _setup()
        snap = exact_discrete_posterior(cfg, grid, data, 3, beta=0.0)
        assert np.allclose(snap.weights, 1.0 / len(snap.weights), atol=1e-15)

    def test_n_zero_is_uniform(self):
        cfg, data, grid = _setup(K=2)
        snap = exact_discrete_posterior(cfg, grid, data, 0, beta=3.0)
        assert np.allclose(snap.weights, 1.0 / len(snap.weights), atol=1e-15)

    def test_large_beta_concentrates_on_zero_loss(self):
        cfg, data, grid = _setup()
        # grid-realizable noiseless responses from the point e1
        w_star = grid[np.argmax(np.abs(grid).sum(axis=1))].reshape(1, -1)
        f = cfg.activation.psi(data.X @ w_star[0]) * cfg.outer_weights[0]
        data2 = Dataset(X=data.X, y=f)
        snap = exact_discrete_posterior(cfg, grid, data2, 4, beta=5e4)
        pts = snap.points()[:, 0, :]
        best = np.argmax(snap.weights)
        assert np.allclose(pts[best], w_star[0])
        assert snap.weights[best] > 0.99

    def test_sequential_consistency_one_step_reweighting(self):
        cfg, data, grid = _setup(n=5, K=2)
        beta = 2.0
        snaps, _ = sequential_discrete_posteriors(cfg, grid, data, 5, beta)
        for n in range(1, 6):
            prev = snaps[n - 1]
            f = prev.f_values(cfg, data.X[n - 1])
            logw = prev.log_weights - 0.5 * beta * (data.y[n - 1] - f) ** 2
            logw -= max(logw) + math.log(np.sum(np.exp(logw - max(logw))))
            direct = exact_discrete_posterior(cfg, grid, data, n, beta)
            assert np.max(np.abs(np.exp(logw) - direct.weights)) < 1e-12
            assert np.max(np.abs(snaps[n].weights - direct.weights)) < 1e-12

    def test_loss_moment_nonincreasing(self):
        cfg, data, grid = _setup(n=6)
        _, lm = sequential_discrete_posteriors(cfg, grid, data, 6, beta=1.5)
        assert np.all(np.diff(lm) <= 1e-15)

    def test_enumeration_limit(self):
        cfg = NetworkConfig(K=8, d=4, V=1.0, activation=tanh_scaled())
        grid = enumerate_grid(DiscreteGridPrior(d=4, M=2))
        data = Dataset(X=np.ones((1, 4)) * np.array([1, 0.5, 0.2, -0.1]),
                       y=np.array([0.0]))
        with pytest.raises(ValueError, match="exceeds limit"):
            exact_discrete_posterior(cfg, grid, data, 1, beta=1.0)


class TestPosteriorMean:
    def test_prior_mean_zero_for_odd_activation(self):
        cfg, data, grid = _setup()
        snap = exact_discrete_posterior(cfg, grid, data, 0, beta=1.0)
        assert posterior_mean(snap, cfg, np.array([1.0, 0.4])) == pytest.approx(0.0, abs=1e-15)

    def test_enumeration_matches_mc_sampling(self):
        cfg, data, grid = _setup(n=3, beta=2.0)
        snap = exact_discrete_posterior(cfg, grid, data, 3, beta=2.0)
        rng = np.random.default_rng(5)
        idx = rng.choice(len(snap.weights), size=100_000, p=snap.weights)
        mc = PosteriorSnapshot(n=3, beta=2.0, kind="samples",
                               samples=snap.points()[idx])
        x = np.array([1.0, -0.3])
        exact = posterior_mean(snap, cfg, x)
        f = mc.f_values(cfg, x)
        se = np.std(f, ddof=1) / math.sqrt(len(f))
        assert abs(posterior_mean(mc, cfg, x) - exact) <= 3 * se

    def test_bounded_by_a0V(self):
        cfg, data, grid = _setup(beta=4.0)
        snap = exact_discrete_posterior(cfg, grid, data, 4, beta=4.0)
        for x in (np.array([1.0, 1.0]), np.array([1.0, -1.0])):
            assert abs(posterior_mean(snap, cfg, x)) <= cfg.activation.a0 * cfg.V

    def test_empty_snapshot_rejected(self):
        with pytest.raises(ValueError):
            PosteriorSnapshot(n=0, beta=1.0, kind="samples", samples=np.zeros((0, 1, 2)))


class TestPredictiveDensity:
    def test_single_atom_is_exact_normal(self):
        cfg = NetworkConfig(K=1, d=2, V=1.0, activation=tanh_scaled())
        w = np.array([[[0.5, 0.3]]])
        snap = PosteriorSnapshot(n=0, beta=2.0, kind="samples", samples=w)
        x = np.array([1.0, 0.2])
        beta = 2.0
        f = cfg.activation.psi(w[0] @ x)[0] * cfg.outer_weights[0]
        for y in (-1.0, 0.0, 0.7):
            expect = math.sqrt(beta / (2 * math.pi)) * math.exp(-0.5 * beta * (y - f) ** 2)
            assert predictive_density(snap, cfg, x, y, beta) == pytest.approx(expect, rel=1e-12)

    def test_integrates_to_one(self):
        cfg, data, grid = _setup(beta=2.0)
        snap = exact_discrete_posterior(cfg, grid, data, 4, beta=2.0)
        x = np.array([1.0, 0.5])
        val, _ = integrate.quad(lambda y: predictive_density(snap, cfg, x, y, 2.0),
                                -np.inf, np.inf)
        assert abs(val - 1.0) < 1e-6

    def test_strictly_positive(self):
        cfg, data, grid = _setup()
        snap = exact_discrete_posterior(cfg, grid, data, 4, beta=1.0)
        assert predictive_density(snap, cfg, np.array([1.0, 0.0]), 5.0, 1.0) > 0.0
        # far in the tail the density underflows float64 but its log is finite
        assert np.isfinite(log_predictive_density(snap, cfg, np.array([1.0, 0.0]), 50.0, 1.0))

    def test_matches_bayes_factor_ratio(self):
        from lccnn.risk import bayes_factor_telescope
        cfg, data, grid = _setup(n=5, seed=3)
        beta = 1.7
        out = bayes_factor_telescope(cfg, grid, data, beta, N=5)
        log_Z = out["log_Z"]
        for n in range(1, 6):
            lp = log_predictive_density(out["snapshots"][n - 1], cfg,
                                        data.X[n - 1], data.y[n - 1], beta)
            assert abs(lp - (log_Z[n] - log_Z[n - 1])) < 1e-12


class TestCesaro:
    def test_equal_components(self):
        cfg = NetworkConfig(K=1, d=2, V=1.0, activation=tanh_scaled())
        w = np.array([[[0.5, 0.3]]])
        snaps = [PosteriorSnapshot(n=i, beta=1.0, kind="samples", samples=w)
                 for i in range(4)]
        x = np.array([1.0, 0.2])
        mu = posterior_mean(snaps[0], cfg, x)
        assert cesaro_mean(snaps, cfg, x) == pytest.approx(mu, rel=1e-14)
        pd = predictive_density(snaps[0], cfg, x, 0.3, 1.0)
        assert cesaro_predictive(snaps, cfg, x, 0.3, 1.0) == pytest.approx(pd, rel=1e-14)

    def test_two_snapshot_midpoint(self):
        cfg, data, grid = _setup(beta=2.0)
        snaps, _ = sequential_discrete_posteriors(cfg, grid, data, 1, 2.0)
        x = np.array([1.0, -0.5])
        m0 = posterior_mean(snaps[0], cfg, x)
        m1 = posterior_mean(snaps[1], cfg, x)
        assert cesaro_mean(snaps, cfg, x) == pytest.approx(0.5 * (m0 + m1), rel=1e-14)

    def test_cesaro_predictive_integrates_and_is_bracketed(self):
        cfg, data, grid = _setup(n=3, beta=2.0)
        snaps, _ = sequential_discrete_posteriors(cfg, grid, data, 3, 2.0)
        x = np.array([1.0, 0.1])
        val, _ = integrate.quad(lambda y: cesaro_predictive(snaps, cfg, x, y, 2.0),
                                -np.inf, np.inf)
        assert abs(val - 1.0) < 1e-6
        for y in (-0.5, 0.0, 1.2):
            comps = [predictive_density(s, cfg, x, y, 2.0) for s in snaps]
            ces = cesaro_predictive(snaps, cfg, x, y, 2.0)
            assert min(comps) - 1e-15 <= ces <= max(comps) + 1e-15

    def test_missing_snapshot_rejected(self):
        cfg, data, grid = _setup()
        s0 = exact_discrete_posterior(cfg, grid, data, 0, beta=1.0)
        s2 = exact_discrete_posterior(cfg, grid, data, 2, beta=1.0)
        with pytest.raises(ValueError, match="consecutive"):
            cesaro_mean([s0, s2], cfg, np.array([1.0, 0.0]))

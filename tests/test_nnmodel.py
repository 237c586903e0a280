"""Network evaluation, loss, posterior score and Hessian checks."""

import math

import numpy as np
import pytest

from lccnn.nnmodel import (
    Dataset,
    NetworkConfig,
    check_weights,
    eval_network,
    eval_network_many,
    log_posterior_unnorm,
    loss,
    posterior_hessian_quadform,
    posterior_score,
    residual,
    squared_relu,
    tanh_scaled,
)
from lccnn.priors import ContinuousL1Prior, sample_continuous


def _tanh_cfg(K=1, d=2, V=1.0):
    return NetworkConfig(K=K, d=d, V=V, activation=tanh_scaled())


def _data(n=4, d=2, seed=0, y_scale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, d))
    X[:, 0] = 1.0
    y = y_scale * rng.uniform(-1, 1, size=n)
    return Dataset(X=X, y=y)


class TestActivation:
    def test_tanh_bounds_clamped_to_one(self):
        act = tanh_scaled()
        assert act.a0 == 1.0 and act.a1 == 1.0 and act.a2 == 1.0
        assert act.a0_exact == pytest.approx(math.tanh(1.0))
        assert act.a2_exact == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)))

    def test_squared_relu_bounds(self):
        act = squared_relu()
        assert (act.a0, act.a1, act.a2) == (1.0, 2.0, 2.0)
        assert not act.odd_symmetric

    def test_psi_zero_is_zero(self):
        for act in (tanh_scaled(a=2.0, c=0.5), squared_relu(a=3.0)):
            assert act.psi(0.0) == 0.0

    def test_odd_activation_rejects_negative_signs(self):
        with pytest.raises(ValueError, match="odd-symmetric"):
            NetworkConfig(K=2, d=2, V=1.0, activation=tanh_scaled(),
                          signs=np.array([1.0, -1.0]))


class TestEvalNetwork:
    def test_zero_weights_give_zero(self):
        cfg = _tanh_cfg(K=3, d=4)
        assert eval_network(cfg, np.zeros((3, 4)), np.ones(4) * 0.5) == 0.0

    def test_single_tanh_neuron(self):
        cfg = _tanh_cfg(K=1, d=2, V=1.0)
        w = np.array([[1.0, 0.0]])
        x = np.array([1.0, -0.7])
        assert eval_network(cfg, w, x) == pytest.approx(math.tanh(1.0), abs=1e-12)

    def test_equal_weights_opposite_signs_cancel(self):
        cfg = NetworkConfig(K=2, d=2, V=1.0, activation=squared_relu(),
                            signs=np.array([1.0, -1.0]))
        w = np.array([[0.3, 0.4], [0.3, 0.4]])
        assert eval_network(cfg, w, np.array([1.0, 0.5])) == 0.0

    def test_bounded_by_a0_V(self):
        cfg = _tanh_cfg(K=2, d=3, V=2.5)
        rng = np.random.default_rng(1)
        prior = ContinuousL1Prior(d=3, K=2)
        for _ in range(200):
            w = sample_continuous(prior, rng)
            x = rng.uniform(-1, 1, size=3)
            assert abs(eval_network(cfg, w, x)) <= cfg.activation.a0 * cfg.V

    def test_dimension_and_cube_errors(self):
        cfg = _tanh_cfg()
        with pytest.raises(ValueError):
            eval_network(cfg, np.zeros((1, 2)), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="cube"):
            eval_network(cfg, np.zeros((1, 2)), np.array([1.5, 0.0]))
        with pytest.raises(ValueError, match="l1"):
            eval_network(cfg, np.array([[0.9, 0.9]]), np.array([1.0, 0.0]))

    def test_batch_of_weights_only_where_asked(self):
        cfg = _tanh_cfg(K=2, d=3)
        w = np.zeros((4, 2, 3))
        assert check_weights(w, cfg, batch=True).shape == (4, 2, 3)
        with pytest.raises(ValueError, match="shape"):
            check_weights(w, cfg)  # the single-matrix functions refuse a batch
        with pytest.raises(ValueError, match="shape"):
            check_weights(np.zeros((4, 3, 2)), cfg, batch=True)
        w[2, 1, 0] = 1.5
        with pytest.raises(ValueError, match="l1"):
            check_weights(w, cfg, batch=True)


class TestResidualAndLoss:
    def test_zero_network_residual_is_y(self):
        cfg = _tanh_cfg()
        data = Dataset(X=np.array([[1.0, 0.0]]), y=np.array([3.0]))
        assert residual(cfg, np.zeros((1, 2)), data, 1) == 3.0

    def test_residual_single_neuron(self):
        cfg = _tanh_cfg(K=1, d=2)
        data = Dataset(X=np.array([[1.0, 0.0]]), y=np.array([1.0]))
        w = np.array([[1.0, 0.0]])
        assert residual(cfg, w, data, 1) == pytest.approx(1.0 - math.tanh(1.0), abs=1e-12)

    def test_residual_bounded_by_C_n(self):
        cfg = _tanh_cfg(K=2, d=3, V=1.5)
        data = _data(n=6, d=3, seed=4, y_scale=2.0)
        C = np.max(np.abs(data.y)) + cfg.activation.a0 * cfg.V
        rng = np.random.default_rng(2)
        prior = ContinuousL1Prior(d=3, K=2)
        for _ in range(100):
            w = sample_continuous(prior, rng)
            for i in range(1, 7):
                assert abs(residual(cfg, w, data, i)) <= C

    def test_index_out_of_range(self):
        cfg = _tanh_cfg()
        data = _data(n=3)
        with pytest.raises(IndexError):
            residual(cfg, np.zeros((1, 2)), data, 4)

    def test_loss_values(self):
        cfg = _tanh_cfg()
        data = Dataset(X=np.array([[1.0, 0.0], [1.0, 0.5]]), y=np.array([1.0, 2.0]))
        w = np.zeros((1, 2))
        assert loss(cfg, w, data, 0) == 0.0
        assert loss(cfg, w, data, 2) == pytest.approx(2.5, abs=1e-14)

    def test_loss_nondecreasing_in_n(self):
        cfg = _tanh_cfg(d=3)
        data = _data(n=8, d=3, seed=7)
        w = np.array([[0.2, -0.3, 0.1]])
        vals = [loss(cfg, w, data, n) for n in range(9)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestLogPosterior:
    def test_n_zero_and_scaling(self):
        cfg = _tanh_cfg()
        data = _data(n=3)
        w = np.zeros((1, 2))
        assert log_posterior_unnorm(cfg, w, data, 0, beta=5.0) == 0.0
        l2 = loss(cfg, w, data, 2)
        assert log_posterior_unnorm(cfg, w, data, 2, beta=2.0) == pytest.approx(-2.0 * l2)

    def test_outside_support_raises(self):
        cfg = _tanh_cfg()
        data = _data(n=2)
        with pytest.raises(ValueError):
            log_posterior_unnorm(cfg, np.array([[0.8, 0.8]]), data, 2, beta=1.0)

    def test_grid_sum_reproduces_bayes_factor(self):
        # exp(log posterior) averaged over an enumerated grid equals the
        # Bayes factor up to its (2 pi / beta)^{n/2} normalizer
        from lccnn.priors import DiscreteGridPrior, enumerate_grid
        from lccnn.risk import bayes_factor_telescope

        cfg = _tanh_cfg()
        data = _data(n=4, seed=19)
        beta = 1.7
        grid = enumerate_grid(DiscreteGridPrior(d=2, M=1))
        out = bayes_factor_telescope(cfg, grid, data, beta, N=4)
        for n in (1, 2, 4):
            vals = [math.exp(log_posterior_unnorm(cfg, w.reshape(1, 2), data, n, beta))
                    for w in grid]
            direct = math.log(np.mean(vals)) - 0.5 * n * math.log(2 * math.pi / beta)
            assert direct == pytest.approx(out["log_Z"][n], abs=1e-12)


class TestPosteriorScore:
    def test_zero_prefix_gives_zero_score(self):
        cfg = _tanh_cfg(K=2, d=3)
        data = _data(n=3, d=3)
        w = np.zeros((2, 3))
        assert np.all(posterior_score(cfg, w, data, 0, beta=2.0) == 0.0)

    def test_matches_finite_differences(self):
        cfg = NetworkConfig(K=2, d=3, V=1.3, activation=tanh_scaled())
        data = _data(n=5, d=3, seed=11)
        beta = 2.7
        rng = np.random.default_rng(3)
        prior = ContinuousL1Prior(d=3, K=2)
        h = 1e-5
        for _ in range(100):
            w = 0.9 * sample_continuous(prior, rng)
            s = posterior_score(cfg, w, data, 5, beta)
            fd = np.zeros_like(s)
            for j in range(s.size):
                e = np.zeros(s.size)
                e[j] = h
                wp = w + e.reshape(2, 3)
                wm = w - e.reshape(2, 3)
                fd[j] = (log_posterior_unnorm(cfg, wp, data, 5, beta)
                         - log_posterior_unnorm(cfg, wm, data, 5, beta)) / (2 * h)
            scale = max(1.0, np.max(np.abs(s)))
            assert np.max(np.abs(s - fd)) / scale < 1e-6

    def test_squared_relu_dead_region_zero_score(self):
        cfg = NetworkConfig(K=1, d=2, V=1.0, activation=squared_relu())
        X = np.array([[1.0, 0.0], [1.0, 0.5]])
        data = Dataset(X=X, y=np.array([1.0, -1.0]))
        w = np.array([[-0.5, -0.2]])  # w.x < 0 on both rows
        assert np.all(posterior_score(cfg, w, data, 2, beta=3.0) == 0.0)


class TestHessianQuadform:
    def test_zero_direction(self):
        cfg = _tanh_cfg(K=2, d=2)
        data = _data(n=3)
        w = np.zeros((2, 2))
        assert posterior_hessian_quadform(cfg, w, data, 3, 1.0, np.zeros(4)) == 0.0

    def test_matches_second_directional_difference(self):
        cfg = _tanh_cfg(K=1, d=3)
        data = _data(n=4, d=3, seed=9)
        beta = 1.5
        rng = np.random.default_rng(5)
        prior = ContinuousL1Prior(d=3, K=1)
        h = 1e-4
        for _ in range(20):
            w = 0.8 * sample_continuous(prior, rng)
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            q = posterior_hessian_quadform(cfg, w, data, 4, beta, u)
            f0 = log_posterior_unnorm(cfg, w, data, 4, beta)
            fp = log_posterior_unnorm(cfg, w + h * u.reshape(1, 3), data, 4, beta)
            fm = log_posterior_unnorm(cfg, w - h * u.reshape(1, 3), data, 4, beta)
            fd = (fp - 2 * f0 + fm) / (h * h)
            assert abs(q - fd) / max(1.0, abs(q)) < 1e-4

    def test_positive_value_exists(self):
        # documented seed exhibiting non-log-concavity at d=2, K=1
        cfg = _tanh_cfg(K=1, d=2)
        rng = np.random.default_rng(12345)
        data = Dataset(X=np.array([[1.0, -0.5]]), y=np.array([3.0]))
        found = 0.0
        for _ in range(200):
            w = 0.9 * sample_continuous(ContinuousL1Prior(d=2, K=1), rng)
            u = rng.standard_normal(2)
            q = posterior_hessian_quadform(cfg, w, data, 1, 1.0, u)
            found = max(found, q)
        assert found > 0.0

    def test_parallelogram_identity(self):
        cfg = _tanh_cfg(K=2, d=2)
        data = _data(n=4, d=2, seed=13, y_scale=2.0)
        rng = np.random.default_rng(6)
        w = 0.7 * sample_continuous(ContinuousL1Prior(d=2, K=2), rng)
        for _ in range(25):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            q = lambda t: posterior_hessian_quadform(cfg, w, data, 4, 2.0, t)
            lhs = q(u + v) + q(u - v)
            rhs = 2 * q(u) + 2 * q(v)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestDataset:
    def test_requires_intercept_column(self):
        with pytest.raises(ValueError, match="first input column"):
            Dataset(X=np.array([[0.5, 0.5]]), y=np.array([1.0]))

    def test_rejects_out_of_cube(self):
        with pytest.raises(ValueError, match="x_ij"):
            Dataset(X=np.array([[1.0, 1.5]]), y=np.array([1.0]))

    def test_eval_many_matches_single(self):
        cfg = _tanh_cfg(K=2, d=3)
        data = _data(n=5, d=3, seed=21)
        rng = np.random.default_rng(7)
        w = sample_continuous(ContinuousL1Prior(d=3, K=2), rng)
        many = eval_network_many(cfg, w, data.X)
        single = [eval_network(cfg, w, data.X[i]) for i in range(5)]
        assert np.allclose(many, single, atol=1e-14)

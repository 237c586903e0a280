"""Prior sampling, moments, grid enumeration and discretization coupling."""

import math

import numpy as np
import pytest
from scipy import integrate

from lccnn.priors import (
    ContinuousL1Prior,
    DiscreteGridPrior,
    coordinate_second_moment,
    dirichlet_moment,
    discretize_weights,
    enumerate_grid,
    grid_cardinality,
    l1_ball_rows,
    prior_moment_bound,
    sample_continuous,
    sample_grid_uniform,
)


class TestContinuousSampling:
    def test_rows_respect_l1_constraint(self):
        rng = np.random.default_rng(0)
        prior = ContinuousL1Prior(d=6, K=3)
        for _ in range(200):
            w = sample_continuous(prior, rng)
            assert w.shape == (3, 6)
            assert np.all(np.abs(w).sum(axis=1) <= 1.0 + 1e-12)

    def test_d1_variance_is_one_third(self):
        rng = np.random.default_rng(1)
        draws = sample_continuous(ContinuousL1Prior(d=1, K=100_000), rng)[:, 0]
        var = draws.var(ddof=1)
        se = var * math.sqrt(2.0 / (len(draws) - 1))
        assert abs(var - 1.0 / 3.0) <= 3.0 * se

    def test_coordinates_have_zero_mean(self):
        rng = np.random.default_rng(2)
        draws = sample_continuous(ContinuousL1Prior(d=3, K=100_000), rng)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
        assert np.all(np.abs(mean) <= 3.0 * se)

    @pytest.mark.parametrize("K, d", [(1, 1), (3, 5), (2, 150)])
    def test_batched_rows_equal_row_by_row_draws(self, K, d):
        # one sample_continuous draw of 64 K rows, as a prior-MH block makes,
        # gives, byte for byte, step s's K rows from l1_ball_rows of their own
        # exponentials and of sign bits s K d to (s + 1) K d of the raw words
        gen = np.random.Generator(np.random.Philox(key=np.array([9, K * d], dtype=np.uint64)))
        ref = np.random.Generator(np.random.Philox(key=np.array([9, K * d], dtype=np.uint64)))
        batch = sample_continuous(ContinuousL1Prior(d=d, K=64 * K), gen).reshape(64, K, d)
        g = ref.standard_exponential((64 * K, d + 1)).reshape(64, K, d + 1)
        words = [int(w) for w in ref.bit_generator.random_raw(K * d)]
        for s in range(64):
            bits = [(words[j // 64] >> (j % 64)) & 1 for j in range(s * K * d, (s + 1) * K * d)]
            row = l1_ball_rows(g[s], np.array(bits, dtype=np.uint8).reshape(K, d))
            assert batch[s].tobytes() == row.tobytes()
        assert gen.random() == ref.random()

    @pytest.mark.parametrize("K, d", [(1, 1), (1, 2), (3, 5), (2, 150)])
    @pytest.mark.parametrize("generator", ["pcg64", "philox"])
    def test_signs_are_raw_word_bits(self, generator, K, d):
        # exponentials first, then ceil(K d / 64) raw 64-bit words; sign j
        # (row-major) is bit j mod 64 of word j // 64, least significant bit
        # first, and 1 is +; the stream's next draw follows the last word
        def make():
            bit_gen = np.random.PCG64 if generator == "pcg64" else np.random.Philox
            return np.random.Generator(bit_gen(41 + K * d))

        rng, ref = make(), make()
        for _ in range(3):
            w = sample_continuous(ContinuousL1Prior(d=d, K=K), rng)
            g = ref.standard_exponential((K, d + 1))
            words = [int(v) for v in ref.bit_generator.random_raw(-(-K * d // 64))]
            signs = [1.0 if (words[j // 64] >> (j % 64)) & 1 else -1.0 for j in range(K * d)]
            expected = g[:, :-1] / g.sum(axis=1, keepdims=True) * np.reshape(signs, (K, d))
            assert w.tobytes() == expected.tobytes()
        assert rng.random() == ref.random()


class TestCoordinateSecondMoment:
    def test_d1_values(self):
        out = coordinate_second_moment(1)
        assert out["signed_ball"] == pytest.approx(1.0 / 3.0)
        assert out["unsigned_dirichlet_variance"] == pytest.approx(1.0 / 12.0)

    def test_d2_monte_carlo_matches_signed_value(self):
        rng = np.random.default_rng(3)
        draws = sample_continuous(ContinuousL1Prior(d=2, K=1_000_000), rng)[:, 0]
        m2 = np.mean(draws ** 2)
        se = np.std(draws ** 2, ddof=1) / math.sqrt(len(draws))
        out = coordinate_second_moment(2)
        assert out["signed_ball"] == pytest.approx(1.0 / 6.0)
        assert abs(m2 - out["signed_ball"]) <= 3.0 * se
        # the unsigned-coordinate variance is a different number; MC rejects it
        assert abs(m2 - out["unsigned_dirichlet_variance"]) > 10.0 * se


class TestGridEnumeration:
    def test_d1_M1(self):
        pts = enumerate_grid(DiscreteGridPrior(d=1, M=1))
        assert sorted(pts.ravel().tolist()) == [-1.0, 0.0, 1.0]

    def test_d2_M1(self):
        pts = enumerate_grid(DiscreteGridPrior(d=2, M=1))
        expect = {(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
        assert {tuple(p) for p in pts} == expect
        assert len(pts) <= (2 * 2 + 1) ** 1

    def test_points_satisfy_invariants(self):
        prior = DiscreteGridPrior(d=4, M=3)
        pts = enumerate_grid(prior)
        assert np.all(np.abs(pts).sum(axis=1) <= 1.0 + 1e-12)
        scaled = pts * prior.M
        assert np.allclose(scaled, np.round(scaled), atol=1e-12)
        assert len({tuple(p) for p in pts}) == len(pts)

    def test_count_matches_recursive_counter(self):
        for d, M in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)]:
            pts = enumerate_grid(DiscreteGridPrior(d=d, M=M))
            assert len(pts) == grid_cardinality(d, M)
            assert len(pts) <= (2 * d + 1) ** M

    def test_refuses_oversized_enumeration(self):
        with pytest.raises(ValueError, match="projected count"):
            enumerate_grid(DiscreteGridPrior(d=60, M=8), limit=10 ** 6)


class TestUniformGridSampling:
    def test_support_and_uniformity(self):
        prior = DiscreteGridPrior(d=2, M=2)
        pts = enumerate_grid(prior)
        lookup = {tuple(p): i for i, p in enumerate(pts)}
        rng = np.random.default_rng(5)
        counts = np.zeros(len(pts))
        n_draws = 13_000
        for _ in range(n_draws):
            w = sample_grid_uniform(prior, rng)[0]
            counts[lookup[tuple(w)]] += 1
        expected = n_draws / len(pts)
        chi2 = np.sum((counts - expected) ** 2 / expected)
        # chi-square with 12 dof: 99.9th percentile is ~32.9
        assert chi2 < 33.0


class TestDirichletMoment:
    def test_d1_square(self):
        out = dirichlet_moment(1, [2])
        assert out["dirichlet"] == pytest.approx(1.0 / 3.0)
        assert out["signed_ball"] == pytest.approx(1.0 / 3.0)

    def test_d2_square_matches_mc(self):
        out = dirichlet_moment(2, [2, 0])
        assert out["dirichlet"] == pytest.approx(1.0 / 6.0)
        rng = np.random.default_rng(6)
        draws = sample_continuous(ContinuousL1Prior(d=2, K=200_000), rng)[:, 0]
        m2 = np.mean(draws ** 2)
        se = np.std(draws ** 2, ddof=1) / math.sqrt(len(draws))
        assert abs(m2 - out["signed_ball"]) <= 3.0 * se

    def test_odd_power_vanishes_for_signed_prior(self):
        out = dirichlet_moment(3, [1, 2])
        assert out["signed_ball"] == 0.0
        assert out["dirichlet"] > 0.0

    def test_matches_numeric_integration_d1(self):
        for r in (2, 4, 6):
            exact = dirichlet_moment(1, [r])["dirichlet"]
            quad, _ = integrate.quad(lambda t: t ** r, 0.0, 1.0)
            assert abs(exact - quad) < 1e-6

    def test_matches_numeric_integration_d2(self):
        for r in ((2, 0), (2, 2), (4, 2)):
            exact = dirichlet_moment(2, list(r))["dirichlet"]
            val, _ = integrate.dblquad(
                lambda w2, w1: 2.0 * w1 ** r[0] * w2 ** r[1],
                0.0, 1.0, 0.0, lambda w1: 1.0 - w1)
            assert abs(exact - val) < 1e-6


class TestPriorMomentBound:
    def test_hand_value(self):
        assert prior_moment_bound(1, 7, 7) == pytest.approx(4.0 / math.sqrt(math.e))

    def test_linear_in_ell_and_n(self):
        b = prior_moment_bound(1, 3, 5)
        assert prior_moment_bound(2, 3, 5) == pytest.approx(2 * b)
        assert prior_moment_bound(1, 6, 5) == pytest.approx(2 * b)

    def test_dominates_monte_carlo_moments(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(2, 8))
            K = int(rng.integers(1, 3))
            X = rng.uniform(-1, 1, size=(n, d))
            u = rng.standard_normal(n * K)
            u /= np.linalg.norm(u)
            u = u.reshape(K, n)
            draws = np.stack([sample_continuous(ContinuousL1Prior(d=d, K=K), rng)
                              for _ in range(100_000)])
            v = np.einsum("kn,nd,skd->s", u, X, draws)
            for ell in (1, 2, 3):
                mc = float(np.mean(v ** (2 * ell))) ** (1.0 / ell)
                assert mc <= prior_moment_bound(ell, n, d)


class TestDiscretizeWeights:
    def test_vertex_is_fixed_point(self):
        rng = np.random.default_rng(8)
        w = np.array([[1.0, 0.0, 0.0]])
        for _ in range(20):
            out = discretize_weights(w, 4, rng)
            assert np.array_equal(out, w)

    def test_M1_half_half_law(self):
        rng = np.random.default_rng(9)
        w = np.array([[0.5, 0.5]])
        hits = {(1.0, 0.0): 0, (0.0, 1.0): 0}
        n = 4000
        for _ in range(n):
            out = tuple(discretize_weights(w, 1, rng)[0])
            assert out in hits
            hits[out] += 1
        frac = hits[(1.0, 0.0)] / n
        assert abs(frac - 0.5) <= 3.0 * math.sqrt(0.25 / n)

    def test_unbiased_and_on_grid(self):
        rng = np.random.default_rng(10)
        w = sample_continuous(ContinuousL1Prior(d=5, K=1), rng)
        M = 3
        reps = 100_000
        draws = np.stack([discretize_weights(w, M, rng)[0] for _ in range(reps)])
        scaled = draws * M
        assert np.allclose(scaled, np.round(scaled), atol=1e-12)
        assert np.all(np.abs(draws).sum(axis=1) <= 1.0 + 1e-12)
        err = np.abs(draws.mean(axis=0) - w[0])
        se = draws.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(err <= 3.0 * se + 1e-12)

    def test_conditional_variance_below_one_over_M(self):
        rng = np.random.default_rng(11)
        w = sample_continuous(ContinuousL1Prior(d=6, K=1), rng)
        for M in (1, 2, 5):
            x = rng.uniform(-1, 1, size=6)
            prods = np.array([discretize_weights(w, M, rng)[0] @ x for _ in range(20_000)])
            var = prods.var(ddof=1)
            se = var * math.sqrt(2.0 / (len(prods) - 1))
            assert var <= 1.0 / M + 3.0 * se

    @pytest.mark.parametrize("K", [1, 2, 5])
    def test_one_call_equals_row_by_row_loop(self, K):
        def row_by_row(w_cont, M, rng):
            out = np.zeros_like(w_cont)
            for k, row in enumerate(w_cont):
                slack = max(0.0, 1.0 - np.abs(row).sum())
                probs = np.concatenate([np.abs(row), [slack]])
                counts = rng.multinomial(M, probs / probs.sum())
                out[k] = np.where(row < 0.0, -1.0, 1.0) * counts[:-1] / M
            return out

        for d in (1, 3, 7, 150):
            base = sample_continuous(ContinuousL1Prior(d=d, K=K), np.random.default_rng(d))
            zero_row = base.copy()
            zero_row[0] = 0.0
            full_norm = base / np.abs(base).sum(axis=1, keepdims=True)
            for w in (base, zero_row, full_norm):
                for M in (1, 3, 10):
                    fast, slow = np.random.default_rng(M), np.random.default_rng(M)
                    assert discretize_weights(w, M, fast).tobytes() == \
                        row_by_row(w, M, slow).tobytes()
                    assert fast.random() == slow.random()  # same draws consumed

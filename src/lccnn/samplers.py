"""One Metropolis step loop with three kernels, and exact oracles.

Every chain here runs the same step loop (_metropolis): it owns the accept
test u < min(1, e^ratio), the counters, burn-in, thinning and dual-averaging
step-size adaptation.  A chain supplies only its kernel, which proposes and
returns the log acceptance ratio:

- mala_chain: Metropolis-adjusted Langevin with support rejection;
- independence_chain: independence Metropolis with a proposal uniform over
  the support (used with prior proposals in the Kd >= A3 (beta N)^2 regime);
- sample_marginal_xi: the outer chain over xi, whose score and bridge
  log-ratio come from inner MALA chains over w | xi (or from an oracle).

two_stage_sample then draws w from the log-concave reverse conditional at
retained xi values.  Small-scale quadrature oracles provide ground truth for
both stages.

Reproducibility: every draw comes from a counter-based Philox stream keyed by
(seed, chain id) (ChainRng), so identical seeds and configs give bit-identical
chains regardless of scheduling.  MALA and the outer xi chain use one stream
per step; the independence chain, whose proposals ignore the chain state, one
stream per block of BLOCK = 64 steps, and BLOCK is part of its contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .nnmodel import Dataset, NetworkConfig
from .coupling import (
    CouplingParams,
    _batch_means_se,
    in_B,
    reverse_logdensity_unnorm,
    stacked_projection,
)
from .estimators import _logsumexp, _sq_residual_sums, product_table
from .priors import ContinuousL1Prior, sample_continuous

__all__ = [
    "SamplerError",
    "TargetDensity",
    "ChainConfig",
    "ChainDiagnostics",
    "ChainRng",
    "mala_chain",
    "independence_chain",
    "sample_reverse_conditional",
    "sample_reverse_conditional_prior_mh",
    "sample_marginal_xi",
    "TwoStageBudgets",
    "two_stage_sample",
    "PosteriorQuadrature",
    "quadrature_convergence_report",
    "CouplingOracle1D",
    "ess_estimate",
]


class SamplerError(RuntimeError):
    """Chain failure: bad initial state, NaN score, or inner-chain abort."""


class ChainRng:
    """Streams of one chain: at(step) and block(b) are Generator(Philox(key=
    [seed, chain_id], counter=[0, 0, 0, step] and [0, 0, 1, b])), never the
    same counter.  One Philox is repositioned by setting a kept state whose
    counter words both methods rewrite in place, instead of constructed.
    """

    def __init__(self, seed: int, chain_id: int):
        self._bg = np.random.Philox(key=np.array([seed, chain_id], dtype=np.uint64))
        self._state = self._bg.state  # counter 0, empty buffer, no spare half-word
        self._counter = self._state["state"]["counter"]
        self.gen = np.random.Generator(self._bg)

    def at(self, step: int) -> np.random.Generator:
        self._counter[2] = 0
        self._counter[3] = step
        self._bg.state = self._state
        return self.gen

    def block(self, b: int) -> np.random.Generator:
        self._counter[2] = 1
        self._counter[3] = b
        self._bg.state = self._state
        return self.gen


@dataclass
class TargetDensity:
    """Density interface for the generic chain.

    log_density_and_score(x) returns (log density, gradient) at one point x of
    shape (dimension,) in one pass over the data, and evaluate is the MALA
    kernel's one call to it.  log_density serves kernels that need no
    gradient: it takes a batch of points, shape (b, dimension), and returns
    their log densities, shape (b,).
    """

    log_density: callable
    log_density_and_score: callable
    support_test: callable
    dimension: int

    def evaluate(self, x):
        return self.log_density_and_score(x)


@dataclass
class ChainConfig:
    step_size: float
    iterations: int
    burn_in: int = 0
    thinning: int = 1
    seed: int = 0
    adapt_step: bool = True

    def __post_init__(self):
        if self.burn_in >= self.iterations:
            raise ValueError("burn_in must be smaller than iterations")
        if self.thinning < 1 or self.step_size <= 0:
            raise ValueError("need thinning >= 1 and a positive step size")


@dataclass
class ChainDiagnostics:
    acceptance_rate: float
    final_step_size: float
    support_rejections: int
    extras: dict = field(default_factory=dict)
    _draws: np.ndarray = field(default=None, repr=False, compare=False)  # (S, dim)

    @cached_property
    def ess_estimate(self) -> float:
        """Geyer ESS of the kept draws (see ess_estimate), computed on first read."""
        return ess_estimate(self._draws)


class _DualAveraging:
    """Step-size adaptation toward a target acceptance rate.

    Runs during burn-in only and is frozen afterwards, keeping the retained
    portion of the chain Markovian.
    """

    def __init__(self, eps0: float, target: float = 0.574,
                 gamma: float = 0.05, t0: float = 10.0, kappa: float = 0.75):
        self.mu = math.log(10.0 * eps0)
        self.target = target
        self.gamma = gamma
        self.t0 = t0
        self.kappa = kappa
        self.h_bar = 0.0
        self.log_eps_bar = math.log(eps0)
        self.t = 0

    def update(self, alpha: float) -> float:
        self.t += 1
        frac = 1.0 / (self.t + self.t0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (self.target - alpha)
        log_eps = self.mu - math.sqrt(self.t) / self.gamma * self.h_bar
        log_eps = min(max(log_eps, -20.0), 5.0)  # keep proposals finite
        eta = self.t ** (-self.kappa)
        self.log_eps_bar = eta * log_eps + (1.0 - eta) * self.log_eps_bar
        return math.exp(log_eps)

    @property
    def frozen(self) -> float:
        return math.exp(self.log_eps_bar)


def ess_estimate(samples: np.ndarray) -> float:
    """Effective sample size: Geyer initial-positive-sequence, min over dims."""
    x = np.atleast_2d(np.asarray(samples, dtype=float).T)  # (dim, S)
    S = x.shape[1]
    if S < 4:
        return float(S)
    out = []
    for row in x:
        row = row - row.mean()
        var = row @ row / S
        if var <= 0:
            out.append(float(S))
            continue
        nfft = 1 << (2 * S - 1).bit_length()
        f = np.fft.rfft(row, nfft)
        acov = np.fft.irfft(f * np.conj(f), nfft)[:S].real / S
        gamma = acov / acov[0]
        tau = 1.0
        m = 0
        while 2 * m + 2 < min(S, 2000):
            pair = gamma[2 * m + 1] + gamma[2 * m + 2]
            if pair <= 0:
                break
            tau += 2.0 * pair
            m += 1
        out.append(S / tau)
    return float(min(out))


BLOCK = 64  # steps whose random inputs are drawn together


def _per_step(draw):
    """The block draw of a chain with one stream per step: step s calls
    draw(ChainRng.at(s)) for its proposal input, then draws its uniform."""
    def draw_block(chain_rng, steps):
        inputs, uniforms = [], []
        for step in steps:
            rng = chain_rng.at(step)
            inputs.append(draw(rng))
            uniforms.append(rng.random())
        return inputs, uniforms
    return draw_block


def _metropolis(draw_block, kernel, cfg: ChainConfig, state: tuple, chain_id: int,
                eps: float):
    """The Metropolis step loop behind every chain in this module.

    state is a tuple (point, statistic, ...) of which the loop keeps the
    first two entries at each retained step; the rest is the kernel's.
    Steps run in blocks of BLOCK.  draw_block(chain_rng, steps), given the
    chain's ChainRng and a block's range of steps, returns that block's
    proposal inputs and uniforms, one of each per step.  kernel(given, step,
    state, eps) proposes from its step's input and returns None when the
    proposal leaves the support, else (proposed state, log acceptance
    ratio).  The loop accepts when u < min(1, e^ratio); a NaN ratio rejects.
    With cfg.adapt_step and eps > 0, dual averaging targets acceptance 0.574
    during burn-in and the step size is frozen afterwards (kernels without a
    step size pass 0).

    Returns (points, statistics, final state, diagnostics); the arrays hold
    one entry per retained step.
    """
    adapter = _DualAveraging(eps) if cfg.adapt_step and eps > 0 else None
    burn_in, thinning = cfg.burn_in, cfg.thinning
    points = np.empty((len(range(burn_in, cfg.iterations, thinning)),) + np.shape(state[0]))
    stats = np.empty(len(points))
    kept = post_accepts = support_rejections = 0
    chain_rng = ChainRng(cfg.seed, chain_id)
    for start in range(0, cfg.iterations, BLOCK):
        steps = range(start, min(start + BLOCK, cfg.iterations))
        inputs, uniforms = draw_block(chain_rng, steps)
        for step, given, u in zip(steps, inputs, uniforms):
            move = kernel(given, step, state, eps)
            alpha = 0.0
            if move is None:
                support_rejections += 1
            else:
                prop, log_ratio = move
                if not math.isnan(log_ratio):
                    alpha = min(1.0, math.exp(min(log_ratio, 0.0)))
                if u < alpha:
                    state = prop
                    if step >= burn_in:
                        post_accepts += 1
            if adapter is not None and step <= burn_in:
                eps = adapter.update(alpha) if step < burn_in else adapter.frozen
            if step >= burn_in and (step - burn_in) % thinning == 0:
                points[kept], stats[kept] = state[0], state[1]
                kept += 1

    diag = ChainDiagnostics(
        acceptance_rate=post_accepts / max(cfg.iterations - burn_in, 1),
        final_step_size=eps,
        support_rejections=support_rejections,
        _draws=points.reshape(len(points), -1),
    )
    return points, stats, state, diag


def _langevin_correction(x, prop, drift, grad_prop, eps: float) -> float:
    """log q(x | prop) - log q(prop | x) for the Langevin proposal; 1-D arrays.

    drift is the forward proposal's 0.5 eps^2 grad(x), as the kernel built it.
    """
    fwd = prop - x - drift
    rev = x - prop - 0.5 * eps * eps * grad_prop
    return (fwd @ fwd - rev @ rev) / (2.0 * eps * eps)


def mala_chain(target: TargetDensity, cfg: ChainConfig, x0: np.ndarray,
               chain_id: int = 0):
    """Metropolis-adjusted Langevin chain with support rejection.

    Proposals outside the support are rejected outright (counted separately
    from Metropolis rejections).  With adapt_step, dual averaging targets
    acceptance 0.574 during burn-in and the step size is frozen afterwards.

    Returns (samples, diagnostics).
    """
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != target.dimension:
        raise SamplerError("initial state has wrong dimension")
    if not target.support_test(x):
        raise SamplerError("initial state outside the target support")
    logp, grad = target.evaluate(x)
    if not np.all(np.isfinite(grad)):
        raise SamplerError("NaN in score at the initial state")

    def draw(rng):
        return rng.standard_normal(target.dimension)

    def kernel(noise, step, state, eps):
        x, logp, grad = state
        drift = 0.5 * eps * eps * grad
        prop = x + drift + eps * noise
        if not target.support_test(prop):
            return None
        logp_prop, grad_prop = target.evaluate(prop)
        if not np.isfinite(grad_prop).all():
            raise SamplerError("NaN in score at a proposal")
        return ((prop, logp_prop, grad_prop),
                logp_prop - logp + _langevin_correction(x, prop, drift, grad_prop, eps))

    samples, _, _, diag = _metropolis(_per_step(draw), kernel, cfg, (x, logp, grad),
                                      chain_id, cfg.step_size)
    return samples, diag


def independence_chain(target: TargetDensity, cfg: ChainConfig, proposal,
                       x0: np.ndarray, chain_id: int = 0):
    """Independence Metropolis chain with a user-supplied proposal sampler.

    proposal(rng, B) returns B proposals drawn from rng, shape (B, dimension),
    from a fixed distribution uniform over the target support (so the
    Hastings ratio reduces to the target ratio).  Useful when the target is a
    light tilt of the prior, e.g. the reverse conditional in the small-beta*N
    regime, where gradient kernels fight the l1 boundary.  The chain has no
    step size: its final_step_size is 0 and cfg.step_size is not used.
    Block b of BLOCK steps takes its proposals, then its uniforms, from
    ChainRng.block(b), and one target.log_density call scores the proposals.
    """
    x = np.asarray(x0, dtype=float).reshape(-1)
    if not target.support_test(x):
        raise SamplerError("initial state outside the target support")

    def draw_block(chain_rng, steps):
        rng = chain_rng.block(steps.start // BLOCK)
        props = proposal(rng, len(steps))
        uniforms = rng.random(len(steps)).tolist()
        return zip(props, target.log_density(props).tolist()), uniforms

    def kernel(scored, step, state, eps):
        return scored, scored[1] - state[1]

    state = (x, float(target.log_density(x[None])[0]))
    samples, _, _, diag = _metropolis(draw_block, kernel, cfg, state, chain_id, 0.0)
    return samples, diag


def sample_reverse_conditional_prior_mh(cfg: NetworkConfig, data: Dataset,
                                        params: CouplingParams, xi: np.ndarray,
                                        chain_cfg: ChainConfig, chain_id: int = 0):
    """Reverse-conditional draws via independence MH with prior proposals.

    Exact MCMC for p*(w|xi); efficient when beta*l_n and the coupling
    quadratic vary by O(1) over the prior support (the marginal-concavity
    probe regime, where d is large and beta N is small).  The B proposals of
    a block are one sample_continuous draw of B*K rows from the block's
    stream, step by step in row order.
    """
    if not in_B(xi, data.X[: params.n], params):
        raise ValueError("xi must lie in the constraint set B")
    target = reverse_conditional_target(cfg, data, params, xi)
    K, d = cfg.K, cfg.d

    def proposal(rng, B):
        return sample_continuous(ContinuousL1Prior(d=d, K=B * K), rng).reshape(B, K * d)

    samples, diag = independence_chain(target, chain_cfg, proposal,
                                       np.zeros(K * d), chain_id=chain_id)
    return samples.reshape(-1, K, d), diag


def _l1_rows_ok(flat: np.ndarray, K: int, d: int) -> bool:
    return bool(np.abs(flat.reshape(K, d)).sum(axis=1).max() <= 1.0)


def reverse_conditional_target(cfg: NetworkConfig, data: Dataset,
                               params: CouplingParams, xi: np.ndarray) -> TargetDensity:
    """TargetDensity for p*(w | xi) with Z treated as constant."""
    K, d = cfg.K, cfg.d
    n = params.n
    X = np.ascontiguousarray(data.X[:n])
    XT = X.T
    y = data.y[:n]
    c = cfg.outer_weights
    act = cfg.activation
    beta, rho = params.beta, params.rho
    xi = np.asarray(xi, dtype=float)
    xiT = xi.T  # (K, n)
    beta_c = beta * c[:, None]

    def fused(flat):
        w = flat.reshape(K, d)
        z = w @ XT                       # (K, n) preactivations
        psi, dpsi = act.psi_dpsi(z)
        res = y - c @ psi
        quad = xiT - z                   # (K, n)
        logp = -0.5 * beta * (res @ res) - 0.5 * rho * (quad * quad).sum()
        coef = beta_c * dpsi * res[None, :] + rho * quad
        return logp, (coef @ X).reshape(-1)

    return TargetDensity(
        log_density=lambda flats: reverse_logdensity_unnorm(
            cfg, flats.reshape(-1, K, d), xi, data, params),
        log_density_and_score=fused,
        support_test=lambda flat: _l1_rows_ok(flat, K, d),
        dimension=K * d,
    )


def sample_reverse_conditional(cfg: NetworkConfig, data: Dataset,
                               params: CouplingParams, xi: np.ndarray,
                               chain_cfg: ChainConfig, w0: np.ndarray = None,
                               chain_id: int = 0):
    """MALA over (S^d_1)^K targeting the reverse conditional at xi.

    Support is the per-row l1 constraint; proposals violating it are
    rejected.  Returns (samples shaped (S, K, d), diagnostics).
    """
    if not in_B(xi, data.X[: params.n], params):
        raise ValueError("xi must lie in the constraint set B")
    target = reverse_conditional_target(cfg, data, params, xi)
    if w0 is None:
        w0 = np.zeros(cfg.K * cfg.d)
    samples, diag = mala_chain(target, chain_cfg, np.asarray(w0).reshape(-1),
                               chain_id=chain_id)
    return samples.reshape(-1, cfg.K, cfg.d), diag


def _log_ratio_estimate(rho: float, xi_a: np.ndarray, xi_b: np.ndarray,
                        proj: np.ndarray) -> float:
    """Estimate log p*(xi_b) - log p*(xi_a) from reverse draws at xi_a.

    Uses log E_{w|xi_a} exp(-rho/2 (||xi_b - T||^2 - ||xi_a - T||^2)) with
    T the stacked projection of each draw.
    """
    da = xi_a - proj  # (S, n, K)
    db = xi_b - proj
    expo = -0.5 * rho * (np.sum(db * db, axis=(1, 2)) - np.sum(da * da, axis=(1, 2)))
    m = np.max(expo)
    return float(m + math.log(np.mean(np.exp(expo - m))))


def sample_marginal_xi(cfg: NetworkConfig, data: Dataset, params: CouplingParams,
                       outer_cfg: ChainConfig, inner_cfg: ChainConfig,
                       score_oracle=None, chain_id: int = 0):
    """Outer MALA over xi, from xi = 0 and w = 0, with support test in_B.

    The score rho*(-xi + X E[w|xi]) is estimated per step from a fresh inner
    chain warm-started at the previous inner state.  The Metropolis ratio
    uses a bridge estimate of the marginal log-density difference built from
    the inner batches at the current and proposed states (the exact marginal
    density is available only through these conditional expectations).
    extras["inner_score_se"] holds, per kept step, the mean over entries of
    the score's batch-means standard error, so inner-chain autocorrelation
    is not understated.

    score_oracle, when given, must expose score(xi)->(n,K) and
    log_marginal(xi)->float; it replaces the inner chains (used to validate
    the nested construction against exact quadrature).

    Returns (xi samples shaped (S, n, K), diagnostics).
    """
    n, K = params.n, cfg.K
    X = data.X[:n]
    rho = params.rho
    icfg = replace(inner_cfg, seed=outer_cfg.seed)

    def evaluate(xi_val, inner_id, w_start):
        """The state at xi_val: (xi, score SE, score, inner proj, last inner w)."""
        if score_oracle is not None:
            return xi_val, 0.0, np.asarray(score_oracle.score(xi_val)), None, w_start
        try:
            samples, _ = sample_reverse_conditional(cfg, data, params, xi_val, icfg,
                                                    w0=w_start.reshape(-1), chain_id=inner_id)
        except SamplerError as exc:
            raise SamplerError(f"inner chain failed: {exc}") from exc
        proj = stacked_projection(samples, X)  # (S, n, K)
        se = float(np.mean(_batch_means_se(proj))) * rho
        return xi_val, se, rho * (-xi_val + proj.mean(axis=0)), proj, samples[-1]

    def draw(rng):
        return rng.standard_normal((n, K))

    def kernel(noise, step, state, eps):
        xi, _, score, proj, w_last = state
        drift = 0.5 * eps * eps * score
        prop = xi + drift + eps * noise
        if not in_B(prop, X, params):
            return None
        new = evaluate(prop, (chain_id + 1) * 10_000_000 + 2 * step + 1, w_last)
        if score_oracle is not None:
            log_target_diff = (score_oracle.log_marginal(prop)
                               - score_oracle.log_marginal(xi))
        else:
            d_fwd = _log_ratio_estimate(rho, xi, prop, proj)
            d_rev = -_log_ratio_estimate(rho, prop, xi, new[3])
            log_target_diff = 0.5 * (d_fwd + d_rev)
        return new, log_target_diff + _langevin_correction(
            xi.ravel(), prop.ravel(), drift.ravel(), new[2].ravel(), eps)

    state = evaluate(np.zeros((n, K)), (chain_id + 1) * 10_000_000, np.zeros((K, cfg.d)))
    samples, se, state, diag = _metropolis(_per_step(draw), kernel, outer_cfg, state,
                                           chain_id, outer_cfg.step_size)
    diag.extras = {"inner_score_se": se, "final_inner_state": state[4]}
    return samples, diag


@dataclass
class TwoStageBudgets:
    outer: ChainConfig
    inner: ChainConfig
    conditional: ChainConfig
    n_xi: int = None  # retained xi draws (default: all kept by the outer chain)


def two_stage_sample(cfg: NetworkConfig, data: Dataset, params: CouplingParams,
                     budgets: TwoStageBudgets, chain_id: int = 0):
    """Draw xi from its marginal, then w from the reverse conditional.

    Output w draws are tagged with the index of the generating xi.  The
    w-marginal of the two-stage draw is the posterior p_n (up to the O(delta)
    bias of the omitted Z, quantified elsewhere).

    Returns (w draws (S, K, d), xi_index tags, diagnostics dict).
    """
    xi_samples, outer_diag = sample_marginal_xi(
        cfg, data, params, budgets.outer, budgets.inner, chain_id=chain_id)
    if budgets.n_xi is not None and budgets.n_xi < len(xi_samples):
        idx = np.linspace(0, len(xi_samples) - 1, budgets.n_xi).astype(int)
        xi_samples = xi_samples[idx]

    w_start = outer_diag.extras["final_inner_state"]
    draws, tags, cdiags = [], [], []
    for j, xi in enumerate(xi_samples):
        cid = (chain_id + 1) * 100_000_000 + j
        samples, cdiag = sample_reverse_conditional(
            cfg, data, params, xi, budgets.conditional, w0=w_start.reshape(-1),
            chain_id=cid)
        w_start = samples[-1]
        draws.append(samples)
        tags.extend([j] * len(samples))
        cdiags.append(cdiag)

    w_draws = np.concatenate(draws, axis=0) if draws else np.zeros((0, cfg.K, cfg.d))
    diagnostics = {
        "outer": outer_diag,
        "n_xi": len(xi_samples),
        "conditional_acceptance_mean": (float(np.mean([c.acceptance_rate for c in cdiags]))
                                        if cdiags else 0.0),
        "conditional_support_rejections": sum(c.support_rejections for c in cdiags),
    }
    return w_draws, np.array(tags), diagnostics


# ----------------------------------------------------------------------
# Exact small-scale oracles
# ----------------------------------------------------------------------

def _row_grid(d: int, m: int):
    """Midpoint quadrature nodes and cell volumes for the l1 ball in R^d.

    The ball is the nested box {|w_1| <= 1, |w_2| <= 1 - |w_1|, ...}; each
    level uses m midpoint cells over its exact (budget-dependent) range, so
    no cell straddles the boundary and the rule converges at second order.

    Nodes come in lexicographic cell order, one level per pass: level k
    splits each of the m^k remaining budgets into m cells.  A node's volume
    is the product h_0 * (h_1 * (... * h_{d-1})), taken innermost first.
    """
    mid = np.arange(m) + 0.5
    budget = np.ones(1)
    levels = []  # per level: cell width per prefix, midpoint per prefix and cell
    for _ in range(d):
        h = 2.0 * budget / m
        w = (-budget[:, None] + mid * h[:, None]).ravel()
        levels.append((h, w))
        budget = np.repeat(budget, m) - np.abs(w)
    n = len(budget)
    pts = np.empty((n, d))
    wts = np.ones(n)
    for k in range(d - 1, -1, -1):
        h, w = levels[k]
        pts[:, k] = np.repeat(w, n // len(w))
        wts = np.repeat(h, n // len(h)) * wts
    return pts, wts


class PosteriorQuadrature:
    """Tabulated posterior over (S^d_1)^K on the K-fold product of the _row_grid
    nodes, in estimators.product_table's layout."""

    def __init__(self, cfg: NetworkConfig, data: Dataset, n: int, beta: float,
                 grid_resolution: int):
        if cfg.K * cfg.d > 3:
            raise ValueError("quadrature oracle requires K*d <= 3")
        self.cfg = cfg
        self._row_pts, row_wts = _row_grid(cfg.d, grid_resolution)
        f = product_table(cfg.activation.psi(self._row_pts @ data.X[:n].T).T,
                          cfg.outer_weights)  # (n, m^K)
        log_wt = product_table(np.log(row_wts)[None], np.ones(cfg.K))[0]
        self.log_density = -0.5 * beta * _sq_residual_sums(data.y[:n], f)  # vs prior, unnorm
        logz = _logsumexp(self.log_density + log_wt)
        self.log_density -= logz  # now a normalized density wrt Lebesgue
        self.cell_volume = np.exp(log_wt)
        self.probs = np.exp(self.log_density) * self.cell_volume

    def total_mass(self) -> float:
        return float(self.probs.sum())

    def mean_f(self, x: np.ndarray) -> float:
        psi_x = self.cfg.activation.psi(self._row_pts @ np.asarray(x))
        return float(self.probs @ product_table(psi_x[None], self.cfg.outer_weights)[0])


def quadrature_convergence_report(cfg: NetworkConfig, data: Dataset, n: int,
                                  beta: float, grid_resolution: int,
                                  x: np.ndarray) -> dict:
    """Posterior-mean convergence under resolution doubling.

    Midpoint rules on the exact nested-interval parametrization of the l1
    ball converge at second order, so the coarse/fine error ratio should sit
    near 4 and the Richardson value gives the extrapolated limit.
    """
    vals = {}
    for label, res in (("coarse", grid_resolution), ("fine", 2 * grid_resolution),
                       ("finest", 4 * grid_resolution)):
        vals[label] = PosteriorQuadrature(cfg, data, n, beta, res).mean_f(x)
    err_coarse = abs(vals["coarse"] - vals["finest"])
    err_fine = abs(vals["fine"] - vals["finest"])
    richardson = vals["fine"] + (vals["fine"] - vals["coarse"]) / 3.0
    return {
        "values": vals,
        "error_ratio": err_coarse / err_fine if err_fine > 0 else math.inf,
        "richardson": richardson,
    }


class CouplingOracle1D:
    """Quadrature oracle for the full coupling at d = 1, K = 1.

    At this scale Z(w) = ln P(xi in B | w) is exact: the single constraint
    sum_i x_i xi_i is Normal(w * sxx, sxx / rho) given w.  The oracle
    tabulates p_n(w), the reverse conditional, the xi-marginal and its score
    on dense grids; include_Z=False reproduces the density the samplers
    actually target (Z treated as constant).
    """

    def __init__(self, cfg: NetworkConfig, data: Dataset, params: CouplingParams,
                 n_w: int = 2001, include_Z: bool = True):
        if cfg.K != 1 or cfg.d != 1:
            raise ValueError("this oracle is for K = 1, d = 1 only")
        self.cfg = cfg
        self.data = data
        self.params = params
        self.include_Z = include_Z
        n = params.n
        self.X = data.X[:n]  # (n, 1)
        self.y = data.y[:n]
        self.h = 2.0 / n_w
        self.w = -1.0 + (np.arange(n_w) + 0.5) * self.h
        # network outputs at each data row for each grid w
        psi = cfg.activation.psi(np.outer(self.X[:, 0], self.w))  # (n, n_w)
        self.loss_vec = 0.5 * _sq_residual_sums(self.y, product_table(psi, cfg.outer_weights))
        self.log_post = -params.beta * self.loss_vec
        self.sxx = float(np.sum(self.X[:, 0] ** 2))
        self.sd_T = math.sqrt(self.sxx / params.rho)
        self.Z = self._z_exact(self.w) if include_Z else np.zeros(n_w)
        logz = _logsumexp(self.log_post) + math.log(self.h)
        self.log_post -= logz  # normalized posterior density p_n(w)

    def _z_exact(self, w):
        from scipy.stats import norm
        m = w * self.sxx
        b = self.params.b_threshold
        hi = norm.cdf((b - m) / self.sd_T)
        lo = norm.cdf((-b - m) / self.sd_T)
        return np.log(np.maximum(hi - lo, 1e-300))

    def posterior_density(self) -> np.ndarray:
        """Normalized p_n(w) on the w grid."""
        return np.exp(self.log_post)

    def _log_joint_w(self, xi) -> np.ndarray:
        """Log joint over the w grid at fixed xi, up to the xi-independent norm."""
        xi = np.asarray(xi, dtype=float).reshape(-1)
        quad = xi[None, :] - np.outer(self.w, self.X[:, 0])
        return (self.log_post - 0.5 * self.params.rho * np.sum(quad * quad, axis=1)
                - self.Z)

    def log_marginal(self, xi) -> float:
        """log p*(xi) up to one additive constant shared by all xi."""
        if not in_B(np.asarray(xi, dtype=float).reshape(-1, 1), self.X, self.params):
            return -math.inf
        return _logsumexp(self._log_joint_w(xi)) + math.log(self.h)

    def conditional_mean(self, xi) -> float:
        lj = self._log_joint_w(xi)
        p = np.exp(lj - np.max(lj))
        p /= p.sum()
        return float(p @ self.w)

    def conditional_density(self, xi) -> np.ndarray:
        lj = self._log_joint_w(xi)
        p = np.exp(lj - _logsumexp(lj) - math.log(self.h))
        return p

    def score(self, xi) -> np.ndarray:
        """Exact marginal score rho * (-xi + x_i E[w|xi]) as an (n,1) array."""
        xi = np.asarray(xi, dtype=float).reshape(-1)
        ew = self.conditional_mean(xi)
        return (self.params.rho * (-xi + self.X[:, 0] * ew)).reshape(-1, 1)

    def xi_grid(self, points_per_dim: int = 48, span: float = 6.0):
        """Midpoint grid covering the forward coupling's effective support."""
        sd = 1.0 / math.sqrt(self.params.rho)
        lo, hi = -1.0 - span * sd, 1.0 + span * sd
        step = (hi - lo) / points_per_dim
        axis = lo + (np.arange(points_per_dim) + 0.5) * step
        n = self.params.n
        mesh = np.meshgrid(*([axis] * n), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)  # (m^n, n)

    def marginal_on_grid(self, pts: np.ndarray):
        """Normalized p*(xi) masses on a grid (zero outside B)."""
        logs = np.full(len(pts), -math.inf)
        for i, xi in enumerate(pts):
            logs[i] = self.log_marginal(xi)
        m = np.max(logs)
        mass = np.exp(logs - m)
        mass /= mass.sum()
        return mass

    def mixture_density(self, pts: np.ndarray) -> np.ndarray:
        """integral p*(w|xi) p*(xi) dxi on the w grid via the xi grid."""
        mass = self.marginal_on_grid(pts)
        out = np.zeros_like(self.w)
        for xi, p in zip(pts, mass):
            if p > 0.0:
                out += p * self.conditional_density(xi)
        return out

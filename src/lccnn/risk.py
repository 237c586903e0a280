"""Regret ledgers, Bayes-factor telescoping, and closed-form bound calculators.

Three regrets are tracked per step against a competitor g: squared error of
the posterior-mean prediction, the randomized (posterior-averaged) squared
error, and the log-loss regret of the predictive density.  Their ordering
r_square <= r_rand and r_log <= r_rand <= r_log + 2 beta lambda^2 holds
pathwise for exact posteriors.

regret_ledger reads a list of posterior snapshots, exact tables or sample
sets.  streamed_regret_ledger computes the same ledger for the exact grid
posteriors from the (N, P) product f table in one pass over n, with O(P)
working memory and the log predictive taken as a Bayes-factor ratio; any
prefix of the table gives the ledger of that prefix.

The bound calculators reproduce the closed-form regret/risk bounds with the
exact optimizing (beta*, K*, M*), term by term.  One ingredient table,
_ingredients, holds each kind's scale, effective sample size N', grid width
w, P = (a0 V + b)/2 and quadratic factor B; bound_calculator turns it into
the five terms and optimal_hyperparams into the fourth-root (square_regret,
msr) and cube-root (kl) laws.  m2_msr keeps its own 1/M^2 terms.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .nnmodel import Dataset, NetworkConfig
from .priors import discretize_weights
from .estimators import log_predictive_density, sequential_discrete_posteriors

__all__ = [
    "RegretRecord",
    "RegretLedger",
    "regret_ledger",
    "streamed_regret_ledger",
    "bayes_factor_telescope",
    "resolvability_bound",
    "BoundInputs",
    "BoundBreakdown",
    "bound_calculator",
    "OptimalParams",
    "optimal_hyperparams",
    "ApproximationWitness",
    "approximation_witness",
    "hull_project",
    "pythagorean_check",
]

BOUND_KINDS = ("log_regret", "square_regret", "msr", "kl", "m2_msr")
_REGRET_KINDS = ("log_regret", "square_regret")  # arbitrary sequences; the rest are iid


@dataclass(frozen=True)
class RegretRecord:
    n: int
    r_square: float
    r_rand: float
    r_log: float
    lambda_n: float


@dataclass(frozen=True)
class RegretLedger:
    records: tuple
    R_square: float
    R_rand: float
    R_log: float
    Lambda_sq: float  # (1/N) sum lambda_n^2

    def as_rows(self):
        """CSV-ready rows with cumulative averages."""
        rows = []
        cs = cr = cl = clam = 0.0
        for i, r in enumerate(self.records, start=1):
            cs += r.r_square
            cr += r.r_rand
            cl += r.r_log
            clam += r.lambda_n ** 2
            rows.append({
                "n": r.n, "r_square": r.r_square, "r_rand": r.r_rand,
                "r_log": r.r_log, "lambda": r.lambda_n,
                "avg_square": cs / i, "avg_rand": cr / i, "avg_log": cl / i,
                "avg_lambda_sq": clam / i,
            })
        return rows


def _ledger(records, N: int) -> RegretLedger:
    N = max(N, 1)
    return RegretLedger(
        records=tuple(records),
        R_square=sum(r.r_square for r in records) / N,
        R_rand=sum(r.r_rand for r in records) / N,
        R_log=sum(r.r_log for r in records) / N,
        Lambda_sq=sum(r.lambda_n ** 2 for r in records) / N,
    )


def _record(n: int, y_n: float, g_n: float, mu: float, mean_sq: float,
            log_pred: float, beta: float, b: float) -> RegretRecord:
    """Step n's regrets from the posterior mean mu, E[(y_n - f)^2] and the
    log predictive density at y_n."""
    eps = y_n - g_n
    log_q = 0.5 * math.log(beta / (2.0 * math.pi)) - 0.5 * beta * eps ** 2
    return RegretRecord(n=n, r_square=0.5 * ((y_n - mu) ** 2 - eps ** 2),
                        r_rand=0.5 * (mean_sq - eps ** 2),
                        r_log=(-log_pred + log_q) / beta,
                        lambda_n=b * abs(eps) + b * b)


def _half_width(cfg: NetworkConfig, g_values: np.ndarray) -> float:
    """b = (b_f + b_g) / 2, with b_f = a0 V and b_g = sup |g|."""
    b_g = float(np.max(np.abs(g_values))) if len(g_values) else 0.0
    return 0.5 * (cfg.activation.a0 * cfg.V + b_g)


def regret_ledger(snapshots, cfg: NetworkConfig, data: Dataset, g_values,
                  beta: float) -> RegretLedger:
    """Per-step regrets of the sequential posteriors against competitor g.

    snapshots must cover n = 0..N-1 (snapshot i trained on the first i
    points); g_values are the competitor's values at each x_n.  b_g is the
    realized sup |g|; b_f is a0*V.
    """
    g_values = np.asarray(g_values, dtype=float)
    N = len(g_values)
    if len(snapshots) < N:
        raise ValueError(f"need {N} snapshots (n = 0..{N - 1}), got {len(snapshots)}")
    b = _half_width(cfg, g_values)
    records = []
    for n in range(1, N + 1):
        snap = snapshots[n - 1]
        x_n, y_n = data.X[n - 1], data.y[n - 1]
        f = snap.f_values(cfg, x_n)
        if snap.kind == "exact":
            mu = float(snap.weights @ f)
            mean_sq = float(snap.weights @ (y_n - f) ** 2)
        else:
            mu = float(np.mean(f))
            mean_sq = float(np.mean((y_n - f) ** 2))
        log_pred = log_predictive_density(snap, cfg, x_n, y_n, beta)
        records.append(_record(n, y_n, g_values[n - 1], mu, mean_sq, log_pred, beta, b))
    return _ledger(records, N)


def _normalize(log_w: np.ndarray):
    """One exp pass: normalized weights and log-sum-exp of log_w."""
    top = np.max(log_w)
    e = np.exp(log_w - top)
    total = np.sum(e)
    return e / total, float(top + np.log(total))


def streamed_regret_ledger(cfg: NetworkConfig, f_rows: np.ndarray, y, g_values,
                           beta: float) -> RegretLedger:
    """regret_ledger of the exact grid posteriors, streamed over one f table.

    f_rows is the (N, P) product f table (row n - 1 holds f(w, x_n) at every
    grid point) and y the N responses.  One pass over n keeps only the
    running log-likelihood of each point, so the working memory is O(P).
    Each step's single exp pass gives the normalized weights and the log
    normalizer lse_n; the log predictive is the Bayes-factor ratio
    lse_n - lse_{n-1} + (1/2) log(beta / 2 pi).
    """
    g_values = np.asarray(g_values, dtype=float)
    y = np.asarray(y, dtype=float)
    N = len(g_values)
    if len(f_rows) != N or len(y) != N:
        raise ValueError(f"need {N} f rows and responses, got {len(f_rows)} and {len(y)}")
    b = _half_width(cfg, g_values)
    half_log = 0.5 * math.log(beta / (2.0 * math.pi))
    cum = np.zeros(f_rows.shape[1])
    weights, lse = _normalize(cum)
    records = []
    for n in range(1, N + 1):
        f, y_n = f_rows[n - 1], y[n - 1]
        res = y_n - f
        mu, mean_sq = float(weights @ f), float(weights @ (res * res))
        # rounded as in sequential_discrete_posteriors, so both keep the
        # same log-likelihoods
        cum = cum - 0.5 * beta * res * res
        weights, lse_n = _normalize(cum)
        records.append(_record(n, y_n, g_values[n - 1], mu, mean_sq,
                               lse_n - lse + half_log, beta, b))
        lse = lse_n
    return _ledger(records, N)


def bayes_factor_telescope(cfg: NetworkConfig, grid: np.ndarray, data: Dataset,
                           beta: float, N: int = None) -> dict:
    """log Z_n for n = 0..N and the telescoping residual.

    Z_n = E_P0[exp(-beta l_n) / (2 pi / beta)^{n/2}]; the predictive density
    at step n is Z_n / Z_{n-1}.  The residual is the gap between the sum of
    independently computed log predictives and log(Z_N / Z_0); with log-sum-
    exp discipline it sits at the rounding floor.
    """
    if N is None:
        N = data.N
    snapshots, log_loss_moments = sequential_discrete_posteriors(cfg, grid, data, N, beta)
    half_log = 0.5 * math.log(2.0 * math.pi / beta)
    log_Z = log_loss_moments - np.arange(N + 1) * half_log
    log_preds = np.array([
        log_predictive_density(snapshots[n - 1], cfg, data.X[n - 1], data.y[n - 1], beta)
        for n in range(1, N + 1)
    ])
    residual = abs(float(np.sum(log_preds)) - float(log_Z[N] - log_Z[0]))
    return {
        "log_Z": log_Z,
        "log_loss_moments": log_loss_moments,
        "log_predictives": log_preds,
        "residual": residual,
        "snapshots": snapshots,
    }


def resolvability_bound(prior_log_mass_of_A: float, max_loss_on_A: float,
                        beta: float, N: int) -> float:
    """Index of resolvability: -log P0(A)/(beta N) + max_A l_N(w)/N."""
    if prior_log_mass_of_A > 0:
        raise ValueError("a log prior mass must be <= 0")
    return -prior_log_mass_of_A / (beta * N) + max_loss_on_A / N


@dataclass(frozen=True)
class BoundInputs:
    """Everything the closed-form bound calculators consume."""

    a0: float
    a1: float
    a2: float
    V: float
    b: float        # sup bound on the competitor g
    sigma: float    # conditional SD bound (iid kinds)
    C_N: float      # max |y| + a0 V (arbitrary-sequence kinds)
    d: int
    N: int
    M: float
    K: float
    beta: float

    def __post_init__(self):
        for name in ("a1", "a2", "b", "sigma", "C_N"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("a0", "V", "M", "K", "beta"):  # the formulas divide by each
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.d < 2:
            raise ValueError("bound formulas require d >= 2")


@dataclass(frozen=True)
class BoundBreakdown:
    kind: str
    prior_mass: float
    width: float
    grid: float
    beta_quad: float
    residual: float
    total: float
    warnings: tuple = ()

    def as_dict(self) -> dict:
        return asdict(self)


def _ingredients(kind: str, inputs: BoundInputs, V: float) -> tuple:
    """(scale, N', w, P, B) of one bound kind at width V.  scale is beta for kl,
    whose prior-mass, width, grid and residual terms are beta times msr's."""
    a0, a1, a2 = inputs.a0, inputs.a1, inputs.a2
    P = 0.5 * (a0 * V + inputs.b)
    if kind in _REGRET_KINDS:
        w = a2 * V * inputs.C_N + a1 ** 2 * V ** 2
        B = (inputs.C_N + P) ** 2 if kind == "square_regret" else 0.0
        return 1.0, inputs.N, w, P, B
    w = V * (a0 * V + inputs.b) * a2 + V ** 2 * a1 ** 2
    if kind == "msr":
        return 1.0, inputs.N + 1, w, P, (inputs.sigma + P) ** 2
    return inputs.beta, inputs.N + 1, w, P, 0.0  # kl


def bound_calculator(kind: str, inputs: BoundInputs, residual_term: float = 0.0,
                     proj_sq: float = 0.0, non_odd: bool = False) -> BoundBreakdown:
    """Additive-term breakdown of the regret / risk bounds.

    kind selects the bound: average log regret, average squared regret
    (residuals replaced by C_N), mean squared risk, Kullback risk (requires
    beta = 1/sigma^2 semantics), or the 1/M^2 mean-squared-risk variant for
    targets inside the hull (b = a0 V).

    residual_term is the (1/2N) sum (eps_tilde^2 - eps^2) carry-over for the
    regret kinds; proj_sq is ||g - g_tilde||^2 under the half-square L2(P_X)
    convention for the iid kinds.  non_odd rewrites (V, K) -> (2V, 2K) with
    the doubled width term used for non-odd-symmetric activations.
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}; expected one of {BOUND_KINDS}")
    a0, V, K, M, beta = inputs.a0, inputs.V, inputs.K, inputs.M, inputs.beta
    warnings = []
    width_factor = 1.0
    if non_odd:
        V, K = 2.0 * V, 2.0 * K
        width_factor = 2.0
    L = math.log(2.0 * inputs.d + 1.0)

    if kind == "m2_msr":
        if abs(inputs.b - a0 * V) > 1e-9:
            warnings.append("m2_msr assumes g inside the hull, so b = a0 V")
        terms = dict(prior_mass=M * K * L / (beta * (inputs.N + 1)),
                     width=width_factor * a0 ** 2 * V ** 2 / (2.0 * K),
                     grid=inputs.a2 ** 2 * V ** 2 / (8.0 * M ** 2),
                     beta_quad=2.0 * beta * (a0 * V) ** 2 * (inputs.sigma + a0 * V) ** 2,
                     residual=0.0)
    else:
        if kind == "kl" and abs(beta * inputs.sigma ** 2 - 1.0) > 1e-9:
            warnings.append("kl kind expects beta = 1/sigma^2; inputs are inconsistent")
        scale, N_eff, w, P, B = _ingredients(kind, inputs, V)
        carry = residual_term if kind in _REGRET_KINDS else proj_sq
        terms = dict(prior_mass=scale * M * K * L / (beta * N_eff),
                     width=width_factor * scale * a0 ** 2 * V ** 2 / (2.0 * K),
                     grid=scale * w / (2.0 * M), beta_quad=2.0 * beta * P ** 2 * B,
                     residual=scale * carry)
    total = sum(terms.values())
    return BoundBreakdown(kind=kind, total=total, warnings=tuple(warnings), **terms)


@dataclass(frozen=True)
class OptimalParams:
    kind: str
    beta_star: float
    K_star: float
    M_star: float
    K_int: int
    M_int: int
    bound_continuous: float
    bound_at_integers: float
    closed_form: float


def optimal_hyperparams(kind: str, inputs: BoundInputs, proj_sq: float = 0.0,
                        non_odd: bool = False) -> OptimalParams:
    """The bound-optimizing (beta*, K*, M*) and the resulting closed forms.

    square_regret / msr: all three are fourth-root power laws in
    N' / ln(2d+1), with Q = w/2.  kl: beta is pinned to 1/sigma^2 (a data
    property), only K* and M* are optimized, each a cube-root law.  m2_msr:
    the stated 2/7-1/7 powers (rate-optimal; no exact constants are
    optimized, so stationarity holds only for the other kinds).

    non_odd optimizes the sum bound_calculator(..., non_odd=True) adds up:
    (V, K) -> (2V, 2K) and a doubled width term.  K_star and K_int stay in
    the caller's K units.
    """
    f = 2.0 if non_odd else 1.0
    V = f * inputs.V
    a0v = inputs.a0 * V
    # the doubled width term f a0v^2 / (2K) is a0v_w^2 / (2K), so the optimum
    # reads a0v_w wherever a0v enters through the width term
    a0v_w = math.sqrt(f) * a0v
    L = math.log(2.0 * inputs.d + 1.0)

    if kind in ("square_regret", "msr"):
        _, N_eff, w, P, B = _ingredients(kind, inputs, V)
        Q, ratio = 0.5 * w, L / N_eff
        g1 = math.sqrt(a0v_w) * Q ** 0.25 / (2.0 * P ** 1.5 * B ** 0.75)
        g2 = a0v_w ** 1.5 / (2.0 * math.sqrt(P) * B ** 0.25 * Q ** 0.25)
        g3 = Q ** 0.75 / (math.sqrt(a0v_w) * math.sqrt(P) * B ** 0.25)
        beta_star = g1 * ratio ** 0.25
        K_star = g2 * ratio ** -0.25
        M_star = g3 * ratio ** -0.25
        closed = (4.0 * math.sqrt(a0v_w * P) * (B * Q) ** 0.25 * ratio ** 0.25
                  + (proj_sq if kind == "msr" else 0.0))  # regret kinds carry residual_term
    elif kind == "kl":
        _, N_eff, w, _, _ = _ingredients(kind, inputs, V)
        ratio = L / N_eff
        beta_star = inputs.beta  # pinned: inverse data variance, not a free knob
        half_beta = 0.5 * beta_star
        K_star = (half_beta * a0v_w ** 4 / (w * ratio)) ** (1.0 / 3.0)
        M_star = (half_beta * w ** 2 / (a0v_w ** 2 * ratio)) ** (1.0 / 3.0)
        closed = (3.0 * half_beta ** (2.0 / 3.0) * a0v_w ** (2.0 / 3.0)
                  * w ** (1.0 / 3.0) * ratio ** (1.0 / 3.0) + beta_star * proj_sq)
    elif kind == "m2_msr":
        ratio = L / (inputs.N + 1)
        beta_star = ratio ** (1.0 / 7.0)
        K_star = ratio ** (-2.0 / 7.0)
        M_star = ratio ** (-1.0 / 7.0)
        closed = ratio ** (2.0 / 7.0) * (
            ratio ** (1.0 / 7.0) + a0v_w ** 2 / 2.0 + inputs.a2 ** 2 * V ** 2 / 8.0
            + 2.0 * a0v ** 2 * (inputs.sigma + a0v) ** 2)
    else:
        raise ValueError(f"no optimal hyperparameters for kind {kind!r}")
    K_star /= f  # back from the doubled units

    def bound_at(K, M, beta):
        return bound_calculator(kind, replace(inputs, K=K, M=M, beta=beta),
                                proj_sq=proj_sq, non_odd=non_odd).total

    K_int = max(1, round(K_star))
    M_int = max(1, round(M_star))
    return OptimalParams(
        kind=kind, beta_star=beta_star, K_star=K_star, M_star=M_star,
        K_int=K_int, M_int=M_int,
        bound_continuous=bound_at(K_star, M_star, beta_star),
        bound_at_integers=bound_at(K_int, M_int, beta_star),
        closed_form=closed,
    )


@dataclass(frozen=True)
class ApproximationWitness:
    best_weights: np.ndarray
    best_signs: np.ndarray
    best_excess: float
    mean_excess: float
    bound_general: float    # 1/M control, any response sequence
    bound_noiseless: float  # 1/M^2 control when y = h
    noiseless: bool
    trials: int


def approximation_witness(cfg: NetworkConfig, data: Dataset, library_w: np.ndarray,
                          library_c: np.ndarray, M: int, trials: int,
                          rng: np.random.Generator,
                          y_values: np.ndarray = None) -> ApproximationWitness:
    """Randomized search for a good discrete-grid network near a hull target.

    The target h(x) = V sum_l c_l psi(x . w_l) must be given by its convex
    decomposition (sum |c_l| = 1).  Each trial draws K neuron indices with
    probabilities |c_l|, keeps their signs, rounds each selected weight row
    onto the 1/M grid by the unbiased multinomial construction, and scores
    the excess squared loss over h.  The trial mean obeys the 1/M bound and,
    for noiseless y = h, the 1/M^2 bound; the best trial witnesses existence.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    library_w = np.atleast_2d(np.asarray(library_w, dtype=float))
    library_c = np.asarray(library_c, dtype=float)
    if abs(np.sum(np.abs(library_c)) - 1.0) > 1e-9:
        raise ValueError("library coefficients must satisfy sum |c_l| = 1")
    X = data.X
    N = data.N
    act = cfg.activation
    h_values = cfg.V * library_c @ act.psi(library_w @ X.T)
    noiseless = y_values is None
    y = h_values if noiseless else np.asarray(y_values, dtype=float)
    base_loss = float(np.sum((y - h_values) ** 2))

    probs = np.abs(library_c)
    signs_lib = np.sign(library_c)
    K, V = cfg.K, cfg.V
    best = (math.inf, None, None)
    total = 0.0
    for _ in range(trials):
        pick = rng.choice(len(library_c), size=K, p=probs)
        w_cont = library_w[pick]
        s = signs_lib[pick]
        w_disc = discretize_weights(w_cont, M, rng)
        f = (V / K) * s @ act.psi(w_disc @ X.T)
        excess = float(np.sum((y - f) ** 2)) - base_loss
        total += excess
        if excess < best[0]:
            best = (excess, w_disc, s)

    a0, a1, a2 = act.a0, act.a1, act.a2
    C_N = float(np.max(np.abs(y))) + a0 * V
    b10 = N * a0 ** 2 * V ** 2 / K + N * (V * C_N * a2 + V ** 2 * a1 ** 2) / M
    b11 = N * a0 ** 2 * V ** 2 / K + N * a2 ** 2 * V ** 2 / (4.0 * M ** 2)
    return ApproximationWitness(
        best_weights=best[1], best_signs=best[2], best_excess=best[0],
        mean_excess=total / trials, bound_general=b10, bound_noiseless=b11,
        noiseless=noiseless, trials=trials,
    )


def hull_project(neuron_outputs: np.ndarray, V: float, g: np.ndarray,
                 weights: np.ndarray = None, max_iter: int = 10_000,
                 gap_tol: float = 1e-8) -> dict:
    """Fully-corrective Frank-Wolfe projection of g onto the hull of signed atoms.

    Minimizes the (optionally weighted) squared distance ||g - f||^2 over
    convex combinations of {+-V * neuron_outputs[l]}.  Each step adds the
    best Frank-Wolfe atom to the active set and re-solves the simplex-
    constrained least squares exactly on that set (an active-set loop that
    drops atoms whose weight reaches zero), until the duality gap <= gap_tol.
    """
    A = np.atleast_2d(np.asarray(neuron_outputs, dtype=float))
    g = np.asarray(g, dtype=float)
    q = np.ones_like(g) if weights is None else np.asarray(weights, dtype=float)
    atoms = V * np.vstack([A, -A])  # (2L, N)
    sq = np.sqrt(q)
    B_all = atoms * sq  # rows scaled so plain euclidean algebra applies
    t = g * sq

    def solve_simplex_ls(support, lam0):
        """Exact simplex-constrained least squares on the support (NNLS-style
        active-set loop on the KKT system with the sum-to-one multiplier)."""
        lam = lam0.copy()
        sup = list(support)
        for _ in range(2 * len(support) + 4):
            B = B_all[sup]
            k = len(sup)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = B @ B.T
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.concatenate([B @ t, [1.0]])
            try:
                sol = np.linalg.solve(kkt, rhs)[:k]
            except np.linalg.LinAlgError:
                sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
            if np.all(sol >= -1e-14):
                out = np.zeros(len(atoms))
                out[sup] = np.maximum(sol, 0.0)
                out /= out.sum()
                return out
            cur = np.array([lam[j] for j in sup])
            neg = sol < 0
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = cur[neg] / (cur[neg] - sol[neg])
            alpha = float(np.min(steps))
            new = cur + alpha * (sol - cur)
            for j, v in zip(sup, new):
                lam[j] = max(v, 0.0)
            sup = [j for j in sup if lam[j] > 1e-15]
        out = np.zeros(len(atoms))
        for j in sup:
            out[j] = lam[j]
        out /= out.sum()
        return out

    lam = np.zeros(len(atoms))
    start = int(np.argmax(B_all @ t))
    lam[start] = 1.0
    f = atoms[start].copy()
    gap = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        grad = f - g
        scores = atoms @ (q * grad)
        s_idx = int(np.argmin(scores))
        gap = float(np.sum(q * grad * f)) - float(scores[s_idx])
        if gap <= gap_tol:
            break
        # fully corrective: re-solve exactly on the enlarged active set
        support = set(np.flatnonzero(lam > 0).tolist()) | {s_idx}
        lam = solve_simplex_ls(sorted(support), lam)
        f = lam @ atoms
    return {"projection": f, "gap": gap, "iterations": it, "coefficients": lam}


def pythagorean_check(g, g_tilde, g_hat, weights=None, slack: float = 1e-9) -> dict:
    """||g - g_tilde||^2 + ||g_tilde - g_hat||^2 <= ||g - g_hat||^2 + slack.

    Valid whenever g_tilde is the hull projection of g and g_hat lies in the
    hull; slack absorbs the projection solver's duality gap.
    """
    g = np.asarray(g, dtype=float)
    gt = np.asarray(g_tilde, dtype=float)
    gh = np.asarray(g_hat, dtype=float)
    q = np.ones_like(g) if weights is None else np.asarray(weights, dtype=float)

    def sq(u):
        return float(np.sum(q * u * u))

    lhs = sq(g - gt) + sq(gt - gh)
    rhs = sq(g - gh)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + slack,
            "margin": rhs - lhs}

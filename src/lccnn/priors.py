"""Priors on the l1 ball: continuous uniform and the 1/M grid.

The continuous prior draws each weight row uniformly from the l1 ball via a
symmetric Dirichlet(1,...,1) in d+1 dimensions (drop the slack coordinate)
with independent random signs (raw generator bits).  The discrete prior is
uniform on the grid of points with coordinates in multiples of 1/M and l1
norm at most 1.

Also here: exact Dirichlet mixed moments, the prior moment bound used by the
Hoelder machinery, and the randomized multinomial discretization that maps a
continuous row to an unbiased grid row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ContinuousL1Prior",
    "DiscreteGridPrior",
    "l1_ball_rows",
    "sample_continuous",
    "coordinate_second_moment",
    "enumerate_grid",
    "grid_cardinality",
    "sample_grid_uniform",
    "dirichlet_moment",
    "prior_moment_bound",
    "discretize_weights",
]

DEFAULT_ENUMERATION_LIMIT = 10 ** 6


@dataclass(frozen=True)
class ContinuousL1Prior:
    """Uniform prior on (S^d_1)^K: rows iid uniform on the l1 ball."""

    d: int
    K: int = 1

    def __post_init__(self):
        if self.d < 1 or self.K < 1:
            raise ValueError("d and K must be positive")


@dataclass(frozen=True)
class DiscreteGridPrior:
    """Uniform prior on (S^d_{1,M})^K: coordinates are multiples of 1/M."""

    d: int
    M: int
    K: int = 1

    def __post_init__(self):
        if self.d < 1 or self.K < 1 or self.M < 1:
            raise ValueError("d, K, M must be positive")
        if self.M > self.d:
            raise ValueError("the grid prior requires M <= d")


def l1_ball_rows(exponentials: np.ndarray, sign_bits: np.ndarray) -> np.ndarray:
    """Rows uniform on the l1 ball from standard exponentials (..., d+1) and
    uniform sign bits (..., d), over any leading batch axes.

    |w| is the exponentials over their sum, a Dirichlet(1,...,1) in d+1
    dimensions, with the slack coordinate dropped; bit 1 is a + sign.
    """
    signs = sign_bits.astype(float)  # before any arithmetic: no integer x float loop
    signs *= 2.0
    signs -= 1.0
    rows = exponentials[..., :-1] / exponentials.sum(axis=-1, keepdims=True)
    rows *= signs
    return rows


def sample_continuous(prior: ContinuousL1Prior, rng: np.random.Generator) -> np.ndarray:
    """Draw a K x d matrix with rows iid uniform on the l1 ball: l1_ball_rows
    of K x (d+1) standard exponentials, then ceil(K d / 64) raw 64-bit words,
    whose bit j mod 64 of word j // 64 (least significant first) is sign j."""
    K, d = prior.K, prior.d
    g = rng.standard_exponential(size=(K, d + 1))
    words = rng.bit_generator.random_raw(-(-K * d // 64))
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), count=K * d, bitorder="little")
    return l1_ball_rows(g, bits.reshape(K, d))


def coordinate_second_moment(d: int) -> dict:
    """Second moment of one coordinate under the signed l1-ball uniform.

    Returns both E[w_j^2] = 2/((d+1)(d+2)) for the signed prior and
    d/((d+1)^2 (d+2)), the variance of one coordinate of the unsigned
    Dirichlet(1,...,1), which is sometimes mistaken for the signed value.
    The two differ (d=1: 1/3 vs 1/12); both are surfaced for comparison.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    signed = 2.0 / ((d + 1.0) * (d + 2.0))
    unsigned_var = d / ((d + 1.0) ** 2 * (d + 2.0))
    return {"signed_ball": signed, "unsigned_dirichlet_variance": unsigned_var}


def _enumerate_rows(d: int, budget: int) -> list:
    """All integer vectors of length d with sum of absolute values <= budget."""
    if d == 0:
        return [()]
    out = []
    for v in range(-budget, budget + 1):
        for rest in _enumerate_rows(d - 1, budget - abs(v)):
            out.append((v,) + rest)
    return out


def enumerate_grid(prior: DiscreteGridPrior, limit: int = DEFAULT_ENUMERATION_LIMIT) -> np.ndarray:
    """Exact support of S^d_{1,M} as an array of d-vectors (no duplicates).

    Refuses when the (2d+1)^M cardinality bound exceeds the limit, reporting
    the projected count.
    """
    projected = (2 * prior.d + 1) ** prior.M
    if projected > limit:
        raise ValueError(
            f"grid enumeration refused: projected count bound {projected} exceeds limit {limit}"
        )
    rows = _enumerate_rows(prior.d, prior.M)
    pts = np.array(rows, dtype=float) / prior.M
    return pts


@lru_cache(maxsize=None)
def grid_cardinality(d: int, budget: int) -> int:
    """|{v in Z^d : sum |v_j| <= budget}| by recursion on dimension and budget."""
    if d == 0:
        return 1
    return sum(grid_cardinality(d - 1, budget - abs(v)) for v in range(-budget, budget + 1))


@lru_cache(maxsize=None)
def _count_abs_sum_exact(d: int, t: int) -> int:
    """Count of v in Z^d with sum |v_j| exactly t."""
    if d == 0:
        return 1 if t == 0 else 0
    return sum(_count_abs_sum_exact(d - 1, t - abs(v)) for v in range(-t, t + 1))


def sample_grid_uniform(prior: DiscreteGridPrior, rng: np.random.Generator) -> np.ndarray:
    """Exact uniform draw from (S^d_{1,M})^K without enumeration.

    Sequential composition sampling: pick the total |v| mass t with
    probability proportional to the exact count of points at that mass,
    then fill coordinates left to right by the same conditional counts.
    Usable when (2d+1)^M is far beyond any enumeration limit.
    """
    d, M = prior.d, prior.M
    totals = np.array([_count_abs_sum_exact(d, t) for t in range(M + 1)], dtype=float)
    out = np.zeros((prior.K, d))
    for k in range(prior.K):
        t = int(rng.choice(M + 1, p=totals / totals.sum()))
        for j in range(d):
            rem_dim = d - j - 1
            weights = np.array(
                [_count_abs_sum_exact(rem_dim, t - abs(v)) for v in range(-t, t + 1)],
                dtype=float,
            )
            v = int(rng.choice(2 * t + 1, p=weights / weights.sum())) - t
            out[k, j] = v / M
            t -= abs(v)
    return out


def dirichlet_moment(d: int, r) -> dict:
    """E[prod_j w_j^{r_j}] for a symmetric Dirichlet(1,...,1) in d+1 dims.

    The closed form is d! * prod r_j! / (d + sum r_j)!.  For the signed
    l1-ball prior the moment is the same when every r_j is even and 0 when
    any r_j is odd; both values are returned.
    """
    r = np.asarray(r, dtype=int)
    if r.ndim != 1 or len(r) > d or np.any(r < 0):
        raise ValueError("r must be a vector of <= d nonnegative integers")
    total = int(r.sum())
    log_val = (
        math.lgamma(d + 1)
        + sum(math.lgamma(rj + 1) for rj in r)
        - math.lgamma(d + total + 1)
    )
    dir_val = math.exp(log_val)
    signed_val = 0.0 if np.any(r % 2 == 1) else dir_val
    return {"dirichlet": dir_val, "signed_ball": signed_val}


def prior_moment_bound(ell: int, n: int, d: int) -> float:
    """Upper bound 4*ell*n / (sqrt(e)*d) on E[(sum_k u_k^T X w_k)^{2 ell}]^{1/ell}.

    Holds for any unit vector u in R^{nK}, any data matrix with entries in
    [-1,1], and rows w_k iid uniform on the l1 ball.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return 4.0 * ell * n / (math.sqrt(math.e) * d)


def discretize_weights(w_cont: np.ndarray, M: int, rng: np.random.Generator) -> np.ndarray:
    """Randomized rounding of each row onto the 1/M grid, unbiased per row.

    Per row: append the slack coordinate 1 - ||w||_1, draw M iid indices
    with probabilities |w_j| (slack included), and set the output coordinate
    to sign(w_j) * count_j / M.  Conditionally on w_cont the output has mean
    w_cont and, for any x in the cube, Var(x . w_disc | w_cont) <= 1/M.
    """
    w_cont = np.atleast_2d(np.asarray(w_cont, dtype=float))
    mass = np.abs(w_cont)
    slack = np.maximum(0.0, 1.0 - mass.sum(axis=1, keepdims=True))
    probs = np.concatenate([mass, slack], axis=1)
    # the rows draw in order from rng, as one multinomial call per row would
    counts = rng.multinomial(M, probs / probs.sum(axis=1, keepdims=True))
    signs = np.where(w_cont < 0.0, -1.0, 1.0)  # sign(0) = +1, irrelevant: count is 0 a.s.
    return signs * counts[:, :-1] / M

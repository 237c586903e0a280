"""The benchmark's three workloads.

A workload makes its inputs from the benchmark seed, then runs rounds.  Round
r is a fixed amount of work whose inputs come from (seed, r) only, so a run
repeats whole rounds for as long as it measures, and round r is the same for a
fixed seed.  Each round is a list of operations; an operation's outputs are
kept in a small form and checked after the last round, so the checks add
neither time nor memory to the measured phase.

Sizes are a constructor argument: the benchmark runs the defaults, its tests
smaller ones.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import checks
from lccnn import cli, coupling, priors, samplers
from lccnn.nnmodel import Dataset, NetworkConfig, tanh_scaled

X_TEST = np.array([1.0, 0.5])


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def criterion09_data() -> Dataset:
    """The (K, d, n) = (1, 2, 5) data set of acceptance criterion 09."""
    rng = np.random.default_rng(42)
    X = rng.uniform(-1, 1, size=(5, 2))
    X[:, 0] = 1.0
    y = np.tanh(X @ np.array([0.35, 0.6])) + 0.1 * np.random.default_rng(1).standard_normal(5)
    return Dataset(X=X, y=y)


@dataclass
class OpResult:
    """One operation: its kept outputs or the problems that failed it, its
    wall and process CPU time, and its size relative to the reference size of
    its kind (the benchmark reports times per reference size)."""

    outputs: dict
    problems: list
    wall: float = 0.0
    cpu: float = 0.0
    work: float = 1.0


def _op(fn, *args) -> OpResult:
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        op = OpResult(fn(*args), [])
    except Exception as exc:  # an operation that raises counts as failed
        op = OpResult({}, [f"raised {type(exc).__name__}: {exc}"])
    op.cpu = time.process_time() - c0
    op.wall = time.perf_counter() - w0
    return op


# ----------------------------------------------------------------------
# nested-k1d2
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NestedSize:
    outer: int = 50
    outer_burn_in: int = 10
    outer_thinning: int = 5
    inner: int = 300
    inner_burn_in: int = 60
    conditional: int = 340
    conditional_burn_in: int = 60
    conditional_thinning: int = 10


class NestedK1D2:
    """`lccnn sample` on the criterion-09 data, one chain seed per round."""

    name = "nested-k1d2"

    def __init__(self, seed: int, workdir: str, size: NestedSize = NestedSize()):
        self.seed, self.workdir, self.size = seed, workdir, size
        self.data = criterion09_data()
        self.data_path = os.path.join(workdir, "data.csv")
        with open(self.data_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "y"])
            for xi, yi in zip(self.data.X, self.data.y):
                writer.writerow([repr(float(v)) for v in (*xi, yi)])

    def expected_draws(self) -> int:
        s = self.size
        kept_xi = math.ceil((s.outer - s.outer_burn_in) / s.outer_thinning)
        per_xi = math.ceil((s.conditional - s.conditional_burn_in) / s.conditional_thinning)
        return kept_xi * per_xi

    def inputs(self, r: int):
        s = self.size
        rdir = os.path.join(self.workdir, f"round{r}")
        os.makedirs(rdir, exist_ok=True)
        config = {
            "network": {"K": 1, "d": 2, "V": 1.0, "activation": {"kind": "tanh"}},
            "prior": {"kind": "continuous"},
            "data": {"path": self.data_path},
            "beta": {"mode": "fixed", "value": 2.0},
            "sampler": {
                "outer": {"step_size": 0.3, "iterations": s.outer,
                          "burn_in": s.outer_burn_in, "thinning": s.outer_thinning},
                "inner": {"step_size": 0.3, "iterations": s.inner,
                          "burn_in": s.inner_burn_in},
                "conditional": {"step_size": 0.3, "iterations": s.conditional,
                                "burn_in": s.conditional_burn_in,
                                "thinning": s.conditional_thinning}},
            "seed": round_seed(self.seed, r),
        }
        path = os.path.join(rdir, "experiment.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return [(rdir, path)]

    @staticmethod
    def _sample(rdir, path):
        code = cli.main(["--output-dir", rdir, "sample", "--config", path])
        if code != 0:
            raise RuntimeError(f"lccnn sample exited with code {code}")
        return {"dir": rdir}

    def run(self, inputs):
        return [_op(self._sample, *args) for args in inputs]

    def keep(self, op: OpResult):
        """Read the written draws and keep f at the test input."""
        if op.problems:
            return
        rdir = op.outputs.pop("dir")
        [chain_file] = [f for f in os.listdir(rdir) if f.startswith("chains_")]
        with open(os.path.join(rdir, chain_file)) as fh:
            next(fh)  # meta record
            draws = np.array([json.loads(line)["sample"] for line in fh]).reshape(-1, 1, 2)
        op.problems += checks.check_draws(draws, self.expected_draws())
        op.outputs["f"] = np.tanh(draws[:, 0, :] @ X_TEST)

    def run_ess(self, ops) -> float:
        """Every call is a chain of the same posterior, so the chains' ESS is
        estimated from their pooled autocorrelation."""
        return checks.ess_multi([op.outputs["f"] for op in ops if not op.problems])

    def check_run(self, ops) -> list:
        chains = [op.outputs["f"] for op in ops if not op.problems]
        if not chains:
            return ["no operation succeeded"]
        const = checks.coupling_constants(1, 2, 1.0, 2.0, self.data.y)
        truth = checks.posterior_mean_f(self.data.X, self.data.y, 2.0, X_TEST)
        return checks.check_pooled_mean(chains, truth, const["delta"], sup_f=1.0)


# ----------------------------------------------------------------------
# indep-k2d150
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IndepSize:
    iterations: int = 3000
    burn_in: int = 500


class IndepK2D150:
    """Independence MH with prior proposals at Kd >= A3 (beta N)^2."""

    name = "indep-k2d150"
    K, d, n, beta = 2, 150, 10, 0.05

    def __init__(self, seed: int, workdir: str, size: IndepSize = IndepSize()):
        self.seed, self.size = seed, size
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        X = rng.uniform(-1, 1, size=(self.n, self.d))
        X[:, 0] = 1.0
        self.data = Dataset(X=X, y=rng.uniform(-1, 1, size=self.n))
        self.cfg = NetworkConfig(K=self.K, d=self.d, V=1.0, activation=tanh_scaled())
        self.params = coupling.CouplingParams.from_config(self.cfg, self.data, n=self.n,
                                                          beta=self.beta)
        self.prior = priors.ContinuousL1Prior(d=self.d, K=self.K)

    def inputs(self, r: int):
        s = self.size
        chain = samplers.ChainConfig(step_size=1.0, iterations=s.iterations,
                                     burn_in=s.burn_in, thinning=1,
                                     seed=round_seed(self.seed, r))
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, r, 1]))
        return [(rng, chain)]

    def _point(self, rng, chain):
        w = priors.sample_continuous(self.prior, rng)
        xi, _ = coupling.sample_xi_given_w(w, self.data.X, self.params, rng)
        draws, _ = samplers.sample_reverse_conditional_prior_mh(
            self.cfg, self.data, self.params, xi, chain)
        cert = coupling.marginal_concavity_estimate(xi, draws, self.params,
                                                    self.data.X[: self.n])
        return {"xi": xi, "draws": draws, "certificate": cert}

    def run(self, inputs):
        return [_op(self._point, *args) for args in inputs]

    def keep(self, op: OpResult):
        """Keep a summary of the projections X w_k of the draws."""
        if not op.problems:
            proj = np.einsum("skd,nd->snk", op.outputs.pop("draws"), self.data.X[: self.n])
            op.outputs["summary"] = checks.chain_summary(proj)

    def run_ess(self, ops) -> float:
        """Each round samples its own xi, so per-chain ESS are summed."""
        return sum(op.outputs["summary"]["ess"] for op in ops if not op.problems)

    def check_run(self, ops) -> list:
        const = checks.coupling_constants(self.K, self.d, 1.0, self.beta, self.data.y)
        problems = []
        if not self.K * self.d >= const["A3"] * (self.beta * self.n) ** 2:
            problems.append("Kd >= A3 (beta N)^2 does not hold")
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2 ** 20]))
        sampler = checks.ImportanceSampler(self.data.X[: self.n], self.data.y[: self.n],
                                           self.beta, const["rho"], 1.0, self.K, rng)
        for op in ops:
            if op.problems:
                continue
            is_mean, is_se = sampler.mean_projection(op.outputs["xi"])
            op.problems += checks.check_indep(op.outputs["summary"],
                                              op.outputs["certificate"], is_mean, is_se)
        return problems


# ----------------------------------------------------------------------
# exact-ledger
# ----------------------------------------------------------------------

BRUTE_ROWS = 8  # leading ledger rows checked against brute-force enumeration


@dataclass(frozen=True)
class LedgerSize:
    d: int = 4
    M: int = 3
    K: int = 2
    N: int = 256
    resolution: int = 350


class ExactLedger:
    """`lccnn regret` on the grid prior, and PosteriorQuadrature.

    Round r's quadrature has its own beta, drawn from (seed, r), and its own
    resolution, resolution + r, so no round can reuse the nodes or tables of
    an earlier one.  Its times are reported per reference size, resolution^2
    nodes.
    """

    name = "exact-ledger"

    def __init__(self, seed: int, workdir: str, size: LedgerSize = LedgerSize()):
        self.seed, self.workdir, self.size = seed, workdir, size
        self.data9 = criterion09_data()
        self.cfg9 = NetworkConfig(K=1, d=2, V=1.0, activation=tanh_scaled())

    def spec(self, r: int) -> dict:
        s = self.size
        return {"N": s.N, "d": s.d, "seed": round_seed(self.seed, r),
                "g": {"kind": "teacher", "K": s.K, "V": 1.0,
                      "activation": {"kind": "tanh"}},
                "noise": {"kind": "gaussian", "sigma": 0.3}}

    def inputs(self, r: int):
        s = self.size
        rdir = os.path.join(self.workdir, f"round{r}")
        os.makedirs(rdir, exist_ok=True)
        config = {"network": {"K": s.K, "d": s.d, "V": 1.0, "activation": {"kind": "tanh"}},
                  "prior": {"kind": "discrete", "M": s.M},
                  "data": {"synthetic": self.spec(r)},
                  "beta": {"mode": "fourth-root"}}
        path = os.path.join(rdir, "regret.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        beta = 1.5 + np.random.default_rng(np.random.SeedSequence([self.seed, r, 2])).random()
        return [(r, rdir, path), (float(beta), s.resolution + r)]

    @staticmethod
    def _regret(r, rdir, path):
        code = cli.main(["--output-dir", rdir, "regret", "--config", path])
        if code != 0:
            raise RuntimeError(f"lccnn regret exited with code {code}")
        return {"kind": "regret", "round": r, "dir": rdir}

    def _quadrature(self, beta, resolution):
        q = samplers.PosteriorQuadrature(self.cfg9, self.data9, 5, beta, resolution)
        return {"kind": "quadrature", "beta": beta, "resolution": resolution,
                "mass": q.total_mass(), "mean_f": q.mean_f(X_TEST), "probs": q.probs}

    def run(self, inputs):
        regret_args, quad_args = inputs
        return [_op(self._regret, *regret_args), _op(self._quadrature, *quad_args)]

    def keep(self, op: OpResult):
        """Read the two CSVs of a regret run; reduce a quadrature to its ESS."""
        if op.problems:
            return
        out = op.outputs
        if out["kind"] == "quadrature":
            p = out.pop("probs")
            op.work = len(p) / self.size.resolution ** 2
            # Kish ESS of the weighted nodes, per reference size like the times
            out["ess"] = float(p.sum() ** 2 / (p @ p)) / op.work
            return
        rdir = out.pop("dir")
        for name in os.listdir(rdir):
            if name.startswith(("ledger_", "regret_vs_bound_")):
                key = "ledger" if name.startswith("ledger_") else "bounds"
                out[key] = np.loadtxt(os.path.join(rdir, name), delimiter=",",
                                      skiprows=2, ndmin=2)

    def run_ess(self, ops) -> float:
        return sum(op.outputs.get("ess", 0.0) for op in ops if not op.problems)

    def check_run(self, ops) -> list:
        s = self.size
        for op in ops:
            if op.problems:
                continue
            out = op.outputs
            if out["kind"] == "quadrature":
                truth = checks.posterior_mean_f(self.data9.X, self.data9.y, out["beta"],
                                                X_TEST)
                op.problems += checks.check_quadrature(out["mass"], out["mean_f"], truth,
                                                       out["resolution"])
                continue
            data, _, g = cli.synthesize(self.spec(out["round"]))
            dyadic = [2 ** k for k in range(1, s.N.bit_length())]
            reference = np.array([
                (n, b, checks.square_regret_bound(data.y[:n], g[:n], b, s.K, s.d, s.M, 1.0))
                for n in dyadic
                for b in [checks.square_regret_beta(data.y[:n], s.d, 1.0)]])
            beta = checks.square_regret_beta(data.y, s.d, 1.0)
            brute = checks.brute_force_ledger(data.X, data.y, g, beta, s.K, s.d, s.M, 1.0,
                                              BRUTE_ROWS)
            op.problems += checks.check_ledger(out["ledger"], out["bounds"], s.N, beta,
                                               brute, reference)
        return []


WORKLOADS = {w.name: w for w in (NestedK1D2, IndepK2D150, ExactLedger)}

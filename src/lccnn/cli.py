"""Batch front door: synth / sample / verify / bounds / regret subcommands.

Configs are JSON files; command-line flags override file fields (flag wins,
file second, built-in default last).  Unknown keys anywhere in a config are
rejected.  Every command is reproducible from (config, seed) alone and all
outputs embed the config hash.  Exit codes: 2 config error, 3 sampler
failure, 4 oracle / verification failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .nnmodel import Activation, Dataset, NetworkConfig, eval_network_many, squared_relu, tanh_scaled
from .priors import DiscreteGridPrior, enumerate_grid
from .coupling import CouplingParams, check_logconcavity_conditions, compute_C_n
from .samplers import (ChainConfig, SamplerError, TwoStageBudgets, check_inner_draws,
                       two_stage_sample)
from .estimators import product_f_table
from .risk import (BoundInputs, RegretLedger, bound_calculator, optimal_hyperparams,
                   streamed_regret_ledger)
# snapshot-based exact ledger, kept under these names for callers that look
# them up in this module (the benchmark's per-layer tracer wraps both)
from .estimators import sequential_discrete_posteriors  # noqa: F401
from .risk import regret_ledger  # noqa: F401
from .verify import SUITES

ENV_OUT_DIR = "LCCNN_OUT_DIR"


class ConfigError(ValueError):
    """Invalid configuration; exits with code 2."""


class OracleError(RuntimeError):
    """Oracle or verification failure; exits with code 4."""


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------

def _take(d: dict, allowed: dict, where: str) -> dict:
    """Validate keys of d against allowed {key: required} and return a copy."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = [k for k, req in allowed.items() if req and k not in d]
    if missing:
        raise ConfigError(f"missing keys {missing} in {where}")
    return dict(d)


def _integer(value, where: str, minimum: int) -> int:
    """value as an int, or a ConfigError unless it is an integral JSON number
    >= minimum (2.0 counts as 2)."""
    if not (type(value) is int or type(value) is float and value.is_integer()) \
            or value < minimum:
        raise ConfigError(f"{where} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _seed(value, where: str) -> int:
    """value as a seed, or a ConfigError unless it is an integer in [0, 2**64)."""
    seed = _integer(value, where, 0)
    if seed >= 2 ** 64:
        raise ConfigError(f"{where} must be below 2**64, got {value!r}")
    return seed


def _boolean(value, where: str) -> bool:
    """value itself, or a ConfigError unless it is a JSON boolean."""
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _number(value, where: str) -> float:
    """value as a float, or a ConfigError unless it is a finite JSON number."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _string(value, where: str) -> str:
    """value itself, or a ConfigError unless it is a JSON string."""
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def activation_from_dict(d: dict) -> Activation:
    d = _take(d, {"kind": True, "a": False, "c": False}, "activation")
    kind = d["kind"]
    a = _number(d.get("a", 1.0), "activation.a")
    if kind == "tanh":
        return tanh_scaled(a=a, c=_number(d.get("c", 1.0), "activation.c"))
    if kind == "squared_relu":
        if "c" in d:
            raise ConfigError("squared_relu takes no 'c' parameter")
        return squared_relu(a=a)
    raise ConfigError(f"unknown activation kind {kind!r}")


def activation_to_dict(act: Activation) -> dict:
    if act.kind == "tanh":
        return {"kind": "tanh", "a": act.a, "c": act.c}
    return {"kind": "squared_relu", "a": act.a}


def network_from_dict(d: dict) -> NetworkConfig:
    d = _take(d, {"K": True, "d": True, "V": True, "activation": True, "signs": False},
              "network")
    try:
        signs = [_number(s, "network.signs") for s in d["signs"]] if "signs" in d else None
        return NetworkConfig(K=_integer(d["K"], "network.K", 1),
                             d=_integer(d["d"], "network.d", 1),
                             V=_number(d["V"], "network.V"),
                             activation=activation_from_dict(d["activation"]),
                             signs=signs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _chain_cfg(d: dict, where: str) -> ChainConfig:
    """A chain section as a ChainConfig with seed 0; the run's seed is set on use."""
    d = _take(d, {"step_size": True, "iterations": True, "burn_in": False,
                  "thinning": False, "adapt_step": False}, where)
    try:  # a ConfigError is a ValueError: its message gains the where prefix
        return ChainConfig(step_size=_number(d["step_size"], "step_size"),
                           iterations=_integer(d["iterations"], "iterations", 1),
                           burn_in=_integer(d.get("burn_in", 0), "burn_in", 0),
                           thinning=_integer(d.get("thinning", 1), "thinning", 1),
                           adapt_step=_boolean(d.get("adapt_step", True), "adapt_step"))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_DEFAULT_CHAINS = {
    "outer": ChainConfig(step_size=0.2, iterations=1200, burn_in=400, thinning=2),
    "inner": ChainConfig(step_size=0.1, iterations=220, burn_in=60, thinning=1),
    "conditional": ChainConfig(step_size=0.1, iterations=300, burn_in=100, thinning=20),
}


@dataclass
class ExperimentConfig:
    """Parsed experiment file, each field checked once and stored typed (data and
    beta stay dicts for synthesize and resolve_beta); as_dict rebuilds raw."""

    network: NetworkConfig
    prior_kind: str
    M: int
    data: dict
    beta: dict
    chains: dict
    n: int = None
    n_xi: int = None
    seed: int = 0
    output_dir: str = None
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        top = _take(d, {"network": True, "prior": True, "data": True, "beta": True,
                        "sampler": False, "seed": False, "output_dir": False},
                    "experiment config")
        prior = _take(top["prior"], {"kind": True, "M": False}, "prior")
        if prior["kind"] not in ("continuous", "discrete"):
            raise ConfigError("prior.kind must be 'continuous' or 'discrete'")
        if prior["kind"] == "discrete" and "M" not in prior:
            raise ConfigError("discrete prior requires M")
        data = _take(top["data"], {"path": False, "synthetic": False}, "data")
        if ("path" in data) == ("synthetic" in data):
            raise ConfigError("data needs exactly one of 'path' or 'synthetic'")
        if "path" in data:
            _string(data["path"], "data.path")
        beta = _take(top["beta"], {"mode": True, "value": False, "b": False}, "beta")
        if beta["mode"] not in ("fixed", "fourth-root"):
            raise ConfigError("beta.mode must be 'fixed' or 'fourth-root'")
        if beta["mode"] == "fixed":
            if "value" not in beta:
                raise ConfigError("fixed beta requires a value")
            if not _number(beta["value"], "fixed beta") > 0.0:
                raise ConfigError(f"fixed beta must be a positive number, got {beta['value']!r}")
        if "b" in beta and not _number(beta["b"], "beta.b") >= 0.0:
            raise ConfigError(f"beta.b must be a nonnegative number, got {beta['b']!r}")
        sampler = _take(top.get("sampler", {}), {"outer": False, "inner": False,
                                                 "conditional": False, "n": False,
                                                 "n_xi": False}, "sampler")
        chains = {key: _chain_cfg(sampler[key], f"sampler.{key}") if key in sampler
                  else default for key, default in _DEFAULT_CHAINS.items()}
        try:
            check_inner_draws(chains["inner"])
        except ValueError as exc:
            raise ConfigError(f"sampler.inner: {exc}") from exc
        # null n or n_xi means the default
        n, n_xi = (None if sampler.get(key) is None
                   else _integer(sampler[key], f"sampler.{key}", 1) for key in ("n", "n_xi"))
        output_dir = top.get("output_dir")
        return cls(network=network_from_dict(top["network"]), prior_kind=prior["kind"],
                   M=_integer(prior["M"], "prior.M", 1) if "M" in prior else None,
                   data=data, beta=beta, chains=chains, n=n, n_xi=n_xi,
                   seed=_seed(top.get("seed", 0), "seed"),
                   output_dir=None if output_dir is None else _string(output_dir, "output_dir"),
                   raw=d)

    def as_dict(self) -> dict:
        out = {key: self.raw[key] for key in ("network", "prior", "data", "beta")}
        if self.raw.get("sampler"):
            out["sampler"] = self.raw["sampler"]
        if "seed" in self.raw or self.seed != 0:
            out["seed"] = self.seed
        if self.output_dir is not None:
            out["output_dir"] = self.output_dir
        return out


def config_hash(d: dict) -> str:
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]


def experiment_hash(ec: "ExperimentConfig") -> str:
    """Config hash over everything that determines the outputs (not where
    they are written)."""
    d = {k: v for k, v in ec.as_dict().items() if k != "output_dir"}
    return config_hash(d)


def _bound_inputs(cfg: NetworkConfig, data: Dataset, N: int, **knobs) -> BoundInputs:
    """BoundInputs of network cfg on the first N >= 1 points; knobs give the rest."""
    act = cfg.activation
    return BoundInputs(a0=act.a0, a1=act.a1, a2=act.a2, V=cfg.V,
                       C_N=compute_C_n(data, N, act.a0, cfg.V), d=max(cfg.d, 2), N=N,
                       **knobs)


def resolve_beta(beta_cfg: dict, cfg: NetworkConfig, data: Dataset, N: int) -> float:
    """The fixed beta, or the square-regret optimum beta* at sample size N >= 1
    with b = beta.b, else a0 V."""
    if beta_cfg["mode"] == "fixed":
        return float(beta_cfg["value"])
    b = float(beta_cfg.get("b", cfg.activation.a0 * cfg.V))
    inputs = _bound_inputs(cfg, data, N, b=b, sigma=1.0, M=1.0, K=1.0, beta=1.0)
    try:
        beta = optimal_hyperparams("square_regret", inputs).beta_star
    except ArithmeticError:  # a term over- or underflowed
        beta = math.nan
    if not 0.0 < beta < math.inf:
        raise ConfigError(f"the fourth-root beta* at N = {N} is {beta!r}, not finite and > 0")
    return beta


# ----------------------------------------------------------------------
# dataset io
# ----------------------------------------------------------------------

def load_dataset_csv(path) -> Dataset:
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    if header[-1] != "y":
        raise ConfigError("dataset CSV must end with a 'y' column")
    try:
        return Dataset(X=arr[:, :-1], y=arr[:, -1])
    except ValueError as exc:
        raise ConfigError(f"invalid dataset: {exc}") from exc


def save_dataset_csv(path, data: Dataset) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(data.d)] + ["y"])
        for i in range(data.N):
            writer.writerow([repr(float(v)) for v in data.X[i]] + [repr(float(data.y[i]))])


def _write_csv(path, cols, rows, comment: str = None) -> None:
    """One CSV row per dict under a header of cols (other keys are dropped),
    floats written as repr so they read back exactly; comment, when given,
    is a leading '# ' line."""
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.DictWriter(fh, fieldnames=cols, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(float(v)) if isinstance(v, (float, np.floating)) else v)
                             for k, v in row.items()})


# ----------------------------------------------------------------------
# synth
# ----------------------------------------------------------------------

def synthesize(spec: dict, seed_override: int = None) -> tuple:
    spec = _take(spec, {"N": True, "d": True, "seed": False, "g": True, "noise": True},
                 "synthetic spec")
    N = _integer(spec["N"], "synthetic N", 0)
    d = _integer(spec["d"], "synthetic d", 1)
    if seed_override is None:
        seed = _seed(spec.get("seed", 0), "synthetic seed")
    else:
        seed = _seed(seed_override, "--seed")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(N, d))
    X[:, 0] = 1.0

    g_spec = dict(spec["g"]) if isinstance(spec["g"], dict) else {}
    kind = g_spec.pop("kind", None)
    teacher_meta = {"kind": kind}
    if kind == "teacher":
        g_spec = _take(g_spec, {"K": True, "V": True, "activation": True,
                                "weights": False, "signs": False}, "g (teacher)")
        weights = g_spec.pop("weights", None)
        tcfg = network_from_dict(g_spec | {"d": d})
        if weights is not None:
            try:
                w = np.asarray(weights, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"g (teacher) weights: {exc}") from exc
            if w.shape != (tcfg.K, d):
                raise ConfigError(f"g (teacher) weights must have shape ({tcfg.K}, {d}), "
                                  f"got {w.shape}")
        else:
            raw = rng.uniform(-1.0, 1.0, size=(tcfg.K, d))
            w = raw / np.maximum(np.abs(raw).sum(axis=1, keepdims=True), 1.0)
        g_vals = eval_network_many(tcfg, w, X)
        teacher_meta.update({"K": tcfg.K, "V": tcfg.V,
                             "activation": activation_to_dict(tcfg.activation),
                             "signs": tcfg.signs.tolist(), "weights": w.tolist()})
    elif kind == "cosine":
        g_spec = _take(g_spec, {"amplitude": False, "frequency": False}, "g (cosine)")
        amp = _number(g_spec.get("amplitude", 1.0), "g.amplitude")
        freq = _number(g_spec.get("frequency", 1.0), "g.frequency")
        g_vals = amp * np.cos(math.pi * freq * X.mean(axis=1))
        teacher_meta.update({"amplitude": amp, "frequency": freq})
    else:
        raise ConfigError("g must be an object of kind 'teacher' or 'cosine'")

    noise = _take(spec["noise"], {"kind": True, "sigma": False, "range": False}, "noise")
    nkind = noise["kind"]
    if nkind == "none":
        y = g_vals.copy()
    elif nkind == "gaussian":
        sigma = _number(noise.get("sigma", 1.0), "noise.sigma")
        y = g_vals + sigma * rng.standard_normal(N)
        teacher_meta["sigma"] = sigma
    elif nkind == "bounded":
        r = _number(noise.get("range", 1.0), "noise.range")
        if r < 0.0:
            raise ConfigError(f"noise.range must be >= 0, got {r!r}")
        y = g_vals + rng.uniform(-r, r, size=N)
        teacher_meta["range"] = r
    else:
        raise ConfigError("noise.kind must be 'none', 'gaussian' or 'bounded'")
    teacher_meta["g_values_head"] = [float(v) for v in g_vals[:5]]
    return Dataset(X=X, y=y), teacher_meta, g_vals


def cmd_synth(args) -> int:
    spec = _load_json(args.spec)
    data, meta, _ = synthesize(spec, seed_override=args.seed)
    out = _out_path(args.output_dir, args.out)
    save_dataset_csv(out, data)
    meta["config_hash"] = config_hash(spec)
    with open(str(out) + ".teacher.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
    print(f"wrote {data.N} rows to {out}")
    return 0


# ----------------------------------------------------------------------
# sample
# ----------------------------------------------------------------------

def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _get_data(ec: ExperimentConfig) -> tuple:
    """(data, g values): g is the teacher for synthetic data, otherwise the
    observed responses themselves."""
    if "path" in ec.data:
        data = load_dataset_csv(ec.data["path"])
        return data, data.y.copy()
    data, _, g_vals = synthesize(ec.data["synthetic"])
    return data, g_vals


def _load_experiment(args, prior_kind: str) -> tuple:
    """The config with the flag overrides, its network, data and g values."""
    ec = ExperimentConfig.from_dict(_load_json(args.config))
    if args.seed is not None:
        ec.seed = _seed(args.seed, "--seed")
    if args.output_dir:
        ec.output_dir = args.output_dir
    if ec.prior_kind != prior_kind:
        raise ConfigError(f"lccnn {args.command} requires the {prior_kind} prior")
    data, g_vals = _get_data(ec)
    if data.d != ec.network.d:
        raise ConfigError(f"network.d = {ec.network.d} but the data have {data.d} columns")
    return ec, ec.network, data, g_vals


def _out_path(out_dir, name):
    """name under out_dir (the flag, then a config's field), else $LCCNN_OUT_DIR, else '.'."""
    base = out_dir or os.environ.get(ENV_OUT_DIR, ".")
    try:
        os.makedirs(base, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot make output directory {base!r}: {exc}") from exc
    return os.path.join(base, name)


def cmd_sample(args) -> int:
    ec, cfg, data, _ = _load_experiment(args, "continuous")
    if data.N == 0:
        raise ConfigError("the sampler needs at least one data point")
    n = data.N if ec.n is None else ec.n
    if n > data.N:
        raise ConfigError(f"sampler.n = {n} exceeds the {data.N} data points")
    beta = resolve_beta(ec.beta, cfg, data, n)
    try:  # a huge response can overflow the coupling constants
        params = CouplingParams.from_config(cfg, data, n=n, beta=beta)
        report = check_logconcavity_conditions(cfg, data, beta, N=n)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"coupling constants at beta = {beta!r}: {exc}") from exc

    chains = {key: replace(chain, seed=ec.seed) for key, chain in ec.chains.items()}
    budgets = TwoStageBudgets(**chains, n_xi=ec.n_xi)
    draws, tags, diag = two_stage_sample(cfg, data, params, budgets)

    hash_ = experiment_hash(ec)
    chain_path = _out_path(ec.output_dir, f"chains_{hash_}.jsonl")
    with open(chain_path, "w") as fh:
        fh.write(json.dumps({"meta": {"config_hash": hash_, "beta": beta, "n": n,
                                      "seed": ec.seed}}, sort_keys=True) + "\n")
        for i, (w, tag) in enumerate(zip(draws, tags)):
            rec = {"step": i, "xi_index": int(tag),
                   "sample": [float(v) for v in w.reshape(-1)],
                   "diagnostics": {"outer_acceptance": diag["outer"].acceptance_rate,
                                   "outer_step_size": diag["outer"].final_step_size}}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    cert_path = _out_path(ec.output_dir, f"certificate_{hash_}.json")
    with open(cert_path, "w") as fh:
        json.dump({"config_hash": hash_, "condition_report": report.as_dict(),
                   "params": {"n": params.n, "beta": params.beta, "C_n": params.C_n,
                              "rho": params.rho, "delta": params.delta,
                              "b_threshold": params.b_threshold}},
                  fh, sort_keys=True, indent=1)
    diag_path = _out_path(ec.output_dir, f"diagnostics_{hash_}.json")
    with open(diag_path, "w") as fh:
        json.dump({"config_hash": hash_,
                   "outer_acceptance": diag["outer"].acceptance_rate,
                   "outer_ess": diag["outer"].ess_estimate,
                   "outer_step_size": diag["outer"].final_step_size,
                   "outer_support_rejections": diag["outer"].support_rejections,
                   "inner_score_se_mean": float(np.mean(diag["outer"].extras["inner_score_se"])),
                   "inner_score_se_max": float(np.max(diag["outer"].extras["inner_score_se"])),
                   "n_xi": diag["n_xi"],
                   "conditional_acceptance_mean": diag["conditional_acceptance_mean"],
                   "conditional_support_rejections": diag["conditional_support_rejections"],
                   "n_draws": int(len(draws))}, fh, sort_keys=True, indent=1)
    print(f"wrote {len(draws)} draws to {chain_path}")
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def cmd_verify(args) -> int:
    names = args.suites or list(SUITES)
    bad = [n for n in names if n not in SUITES]
    if bad:
        raise ConfigError(f"unknown suites {bad}; available: {sorted(SUITES)}")
    results = [SUITES[n]() for n in names]
    failures = 0
    for r in results:
        if args.json:
            print(json.dumps(r))
        else:
            status = "PASS" if r["passed"] else "FAIL"
            print(f"{status} {r['suite']:<14} margin={r['margin']:+.3e}  {r['detail']}")
        failures += 0 if r["passed"] else 1
    if failures:
        raise OracleError(f"{failures} verification suite(s) failed")
    return 0


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def cmd_bounds(args) -> int:
    raw = _load_json(args.inputs)
    numbers = ("a0", "a1", "a2", "V", "b", "sigma", "C_N", "M", "K", "beta")
    spec = _take(raw, dict.fromkeys(numbers + ("d", "N"), True) | {"non_odd": False},
                 "bound inputs")
    non_odd = _boolean(spec.pop("non_odd", False), "non_odd")
    for key in numbers:  # checked, but kept as given: kl prints beta back
        _number(spec[key], key)
    spec.update(d=_integer(spec["d"], "d", 2), N=_integer(spec["N"], "N", 1))
    hash_ = config_hash(raw)
    rows = []
    lines = [f"bound report (config hash {hash_})"]
    try:  # zero divisors are refused, but an extreme input can over- or underflow a term
        inputs = BoundInputs(**spec)
        for kind in ("log_regret", "square_regret", "msr", "kl", "m2_msr"):
            br = bound_calculator(kind, inputs, non_odd=non_odd)
            row = br.as_dict()
            if kind != "log_regret":
                opt = optimal_hyperparams(kind, inputs, non_odd=non_odd)
                row.update({"beta_star": opt.beta_star, "K_star": opt.K_star,
                            "M_star": opt.M_star, "bound_at_opt": opt.bound_continuous,
                            "closed_form": opt.closed_form})
            rows.append(row)
            lines.append(f"  {kind}: total={br.total!r}")
            for term in ("prior_mass", "width", "grid", "beta_quad", "residual"):
                lines.append(f"    {term:<11} {getattr(br, term)!r}")
            for w in br.warnings:
                lines.append(f"    warning: {w}")
        # monotonicity spot rows: each control knob doubled moves its term down
        for label, kwargs in (("N_doubled", {"N": inputs.N * 2}),
                              ("K_doubled", {"K": inputs.K * 2}),
                              ("M_doubled", {"M": inputs.M * 2})):
            br = bound_calculator("square_regret", replace(inputs, **kwargs), non_odd=non_odd)
            rows.append(br.as_dict() | {"kind": f"square_regret[{label}]"})
            lines.append(f"  square_regret[{label}]: total={br.total!r}")
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bound inputs: {exc}") from exc

    out_csv = _out_path(args.output_dir, f"bounds_{hash_}.csv")
    _write_csv(out_csv, sorted({k for row in rows for k in row if k != "warnings"}), rows)
    out_txt = _out_path(args.output_dir, f"bounds_{hash_}.txt")
    with open(out_txt, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"wrote {out_csv}")
    return 0


# ----------------------------------------------------------------------
# regret
# ----------------------------------------------------------------------

def _ledger_csv(path, ledger: RegretLedger, hash_: str) -> None:
    _write_csv(path, ["n", "r_square", "r_rand", "r_log", "lambda", "avg_square", "avg_rand",
                      "avg_log", "avg_lambda_sq"], ledger.as_rows(), f"config_hash={hash_}")


def cmd_regret(args) -> int:
    ec, cfg, data, g_vals = _load_experiment(args, "discrete")
    hash_ = experiment_hash(ec)
    if data.N == 0:
        path = _out_path(ec.output_dir, f"ledger_{hash_}.csv")
        _ledger_csv(path, RegretLedger(records=(), R_square=0.0, R_rand=0.0,
                                       R_log=0.0, Lambda_sq=0.0), hash_)
        print(f"empty ledger written to {path}")
        return 0

    try:
        prior = DiscreteGridPrior(d=cfg.d, M=ec.M, K=cfg.K)
        grid = enumerate_grid(prior)
        _, f_rows = product_f_table(cfg, grid, data.X)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    # one f table for every prefix: the ledger over the first Nn points
    # reads its first Nn rows
    beta_full = resolve_beta(ec.beta, cfg, data, data.N)
    ledger = streamed_regret_ledger(cfg, f_rows, data.y, g_vals, beta_full)

    rows = []
    # the dyadic N = 2, 4, 8, ... up to data.N, or N = 1 alone
    for Nn in [1] if data.N == 1 else [2 ** k for k in range(1, data.N.bit_length())]:
        beta_n = resolve_beta(ec.beta, cfg, data, Nn)
        led_n = ledger if Nn == data.N else streamed_regret_ledger(
            cfg, f_rows[:Nn], data.y[:Nn], g_vals[:Nn], beta_n)
        inp = _bound_inputs(cfg, data, Nn, b=float(np.max(np.abs(g_vals[:Nn]))),
                            sigma=0.0, M=prior.M, K=cfg.K, beta=beta_n)
        try:  # a huge response can overflow the bound's terms
            bound = bound_calculator("square_regret", inp).total
        except ArithmeticError as exc:
            raise ConfigError(f"square-regret bound at N = {Nn}: {exc}") from exc
        rows.append({"N": Nn, "beta": beta_n, "R_square": led_n.R_square, "bound": bound})
    # written only now, so an input whose bound fails leaves no files behind
    ledger_path = _out_path(ec.output_dir, f"ledger_{hash_}.csv")
    _ledger_csv(ledger_path, ledger, hash_)
    comp_path = _out_path(ec.output_dir, f"regret_vs_bound_{hash_}.csv")
    _write_csv(comp_path, ["N", "beta", "R_square", "bound"], rows, f"config_hash={hash_}")
    print(f"wrote {ledger_path} and {comp_path}")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lccnn",
                                description="Log-concave-coupling sampler and "
                                            "risk-bound tooling for Bayesian "
                                            "single-hidden-layer networks")
    p.add_argument("--output-dir", default=None,
                   help=f"output directory (default: the config's output_dir, "
                        f"then ${ENV_OUT_DIR}, then '.')")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    ps.add_argument("--spec", required=True, help="JSON synthesis spec")
    ps.add_argument("--out", default="data.csv")
    ps.add_argument("--seed", type=int, default=None, help="override spec seed")
    ps.set_defaults(func=cmd_synth)

    pm = sub.add_parser("sample", help="run the two-stage posterior sampler")
    pm.add_argument("--config", required=True, help="experiment config JSON")
    pm.add_argument("--seed", type=int, default=None, help="override config seed")
    pm.set_defaults(func=cmd_sample)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("suites", nargs="*", help=f"subset of {sorted(SUITES)}; empty = all")
    pv.add_argument("--json", action="store_true",
                    help="print one JSON record per suite instead of the table")
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("bounds", help="tabulate every closed-form bound")
    pb.add_argument("--inputs", required=True, help="JSON file of bound inputs")
    pb.set_defaults(func=cmd_bounds)

    pr = sub.add_parser("regret", help="exact sequential regret ledger vs bound")
    pr.add_argument("--config", required=True)
    pr.add_argument("--seed", type=int, default=None)
    pr.set_defaults(func=cmd_regret)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SamplerError as exc:
        print(f"sampler error: {exc}", file=sys.stderr)
        return 3
    except OracleError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer spans and counts, recorded from outside the program.

Each layer is timed by replacing a public function of lccnn, at the name its
caller looks it up, with a wrapper that opens a span around the call.  A span
knows its parent, so a layer's self time is its duration minus the time its
child spans cover.  Counts are read from the wrapped call's arguments and
return value.  Everything stays in memory until the run ends.

Only `python3 bench/run.py --trace 1` installs the wrappers; end-to-end
figures come from untraced runs.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import Counter, defaultdict

# Layers in report order, each with the counts it records.  Every layer but
# samplers.step (counts only, read from ChainDiagnostics) also has .self_s.
LAYERS = {
    "samplers.kernel": ("calls",),
    "samplers.support": ("calls",),
    "samplers.rng": ("calls",),
    "samplers.step": ("attempted", "accepted", "support_rejections"),
    "samplers.inner": ("chains",),
    "samplers.outer": ("steps", "accepted", "support_rejections", "ess"),
    "samplers.conditional": ("chains", "accepted"),
    "samplers.indep": ("chains", "accepted"),
    "samplers.ess": ("calls",),
    "samplers.quadrature": ("nodes",),
    "coupling.in_B": ("calls",),
    "coupling.logdensity": ("calls",),
    "nnmodel.eval": ("calls",),
    "coupling.forward_xi": ("calls", "rejections"),
    "coupling.certificate": ("calls",),
    "priors.draw": ("calls",),
    "priors.grid": ("points",),
    "estimators.tables": ("count", "bytes"),
    "risk.ledger": ("records",),
    "risk.bounds": ("calls",),
    "cli": ("bytes_written",),
}
COUNT_ONLY = {"samplers.step"}
UNITS = {"bytes": "B", "bytes_written": "B", "ess": "draws"}
HIGHER_IS_BETTER = {"accepted", "ess"}

MAX_KEPT_SPANS = 20_000  # full span records kept per run; aggregates cover all


def metric_names():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for layer, counts in LAYERS.items():
        for c in counts:
            out.append((f"{layer}.{c}", UNITS.get(c, "count"),
                        "higher" if c in HIGHER_IS_BETTER else "lower"))
        if layer not in COUNT_ONLY:
            out.append((f"{layer}.self_s", "s", "lower"))
    return out


def _accepted(rate: float, cfg) -> int:
    """Accepted retained-phase steps: acceptance_rate is over those steps."""
    return int(round(rate * (cfg.iterations - cfg.burn_in)))


def _dir_bytes(path) -> int:
    if not path or not os.path.isdir(path):
        return 0
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Tracer:
    """Span stack, per-layer aggregates and counts for one process."""

    def __init__(self):
        self._stack = []          # open spans: [layer, t0, child_s, span_id]
        self._next_id = 0
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []           # (span_id, parent_id, layer, t0, t1)
        self._restore = []

    # -- spans ---------------------------------------------------------
    def inside(self, layer: str) -> bool:
        return any(s[0] == layer for s in self._stack)

    def _enter(self, layer):
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([layer, time.perf_counter(), 0.0, span_id])

    def _exit(self):
        t1 = time.perf_counter()
        layer, t0, child, span_id = self._stack.pop()
        dur = t1 - t0
        self.total_s[layer] += dur
        self.self_s[layer] += dur - child
        self.calls[layer] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, parent[3] if parent else None, layer, t0, t1))

    def spanned(self, layer, fn, after=None):
        """fn wrapped in a span; layer is a name or a callable giving one."""
        name_of = layer if callable(layer) else (lambda: layer)
        sig = inspect.signature(fn) if after is not None else None

        def wrapper(*args, **kwargs):
            name = name_of()
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(name, bound.arguments, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, layer, after=None):
        self.patch(owner, attr, self.spanned(layer, getattr(owner, attr), after))

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- per-round snapshot ---------------------------------------------
    def snapshot(self) -> dict:
        """Cumulative per-layer values: counts, and self time per layer."""
        snap = {}
        for layer, counts in LAYERS.items():
            for c in counts:
                key = f"{layer}.{c}"
                snap[key] = self.calls[layer] if c == "calls" else self.counts[key]
            if layer not in COUNT_ONLY:
                snap[f"{layer}.self_s"] = self.self_s[layer]
        return snap

    def dump(self) -> dict:
        return {
            "layers": {layer: {"calls": self.calls[layer],
                               "total_s": self.total_s[layer],
                               "self_s": self.self_s[layer]}
                       for layer in LAYERS if layer not in COUNT_ONLY},
            "counts": dict(self.counts),
            "spans_kept": len(self.spans),
            "spans_total": self._next_id,
            "spans": [{"id": i, "parent": p, "layer": n, "t0": a, "t1": b}
                      for i, p, n, a, b in self.spans],
        }


def install(tracer: Tracer):
    """Wrap every layer's public function at the name its caller uses."""
    from lccnn import cli, coupling, priors, samplers

    c = tracer.counts

    # samplers: the Metropolis kernels and their stages
    tracer.wrap(samplers.TargetDensity, "evaluate", "samplers.kernel")
    tracer.wrap(samplers.ChainRng, "at", "samplers.rng")

    make_target = samplers.reverse_conditional_target

    def traced_target(*args, **kwargs):
        target = make_target(*args, **kwargs)
        target.support_test = tracer.spanned("samplers.support", target.support_test)
        return target

    tracer.patch(samplers, "reverse_conditional_target", traced_target)

    def mala_stage():
        return "samplers.inner" if tracer.inside("samplers.outer") else "samplers.conditional"

    def after_mala(layer, a, out):
        cfg, diag = a["chain_cfg"], out[1]
        c[f"{layer}.chains"] += 1
        c["samplers.step.attempted"] += cfg.iterations
        c["samplers.step.support_rejections"] += diag.support_rejections
        acc = _accepted(diag.acceptance_rate, cfg)
        c["samplers.step.accepted"] += acc
        if layer == "samplers.conditional":
            c["samplers.conditional.accepted"] += acc

    tracer.wrap(samplers, "sample_reverse_conditional", mala_stage, after_mala)

    def after_outer(layer, a, out):
        cfg, diag = a["outer_cfg"], out[1]
        c["samplers.outer.steps"] += cfg.iterations
        c["samplers.outer.accepted"] += _accepted(diag.acceptance_rate, cfg)
        c["samplers.outer.support_rejections"] += diag.support_rejections
        c["samplers.outer.ess"] += diag.ess_estimate

    tracer.wrap(samplers, "sample_marginal_xi", "samplers.outer", after_outer)

    def after_indep(layer, a, out):
        c["samplers.indep.chains"] += 1
        c["samplers.indep.accepted"] += _accepted(out[1].acceptance_rate, a["cfg"])

    tracer.wrap(samplers, "independence_chain", "samplers.indep", after_indep)
    tracer.wrap(samplers, "ess_estimate", "samplers.ess")

    def after_quadrature(layer, a, out):
        c["samplers.quadrature.nodes"] += len(a["self"].probs)

    tracer.wrap(samplers.PosteriorQuadrature, "__init__", "samplers.quadrature",
                after_quadrature)

    # coupling and model
    tracer.wrap(samplers, "in_B", "coupling.in_B")
    tracer.wrap(samplers, "reverse_logdensity_unnorm", "coupling.logdensity")
    tracer.wrap(coupling, "eval_network_many", "nnmodel.eval")
    tracer.wrap(cli, "eval_network_many", "nnmodel.eval")

    def after_forward(layer, a, out):
        c["coupling.forward_xi.rejections"] += out[1]

    tracer.wrap(coupling, "sample_xi_given_w", "coupling.forward_xi", after_forward)
    tracer.wrap(coupling, "marginal_concavity_estimate", "coupling.certificate")
    # sample_reverse_conditional_prior_mh imports this name at call time
    tracer.wrap(priors, "sample_continuous", "priors.draw")

    # exact side, looked up in the cli module
    def after_grid(layer, a, out):
        c["priors.grid.points"] += len(out)

    tracer.wrap(cli, "enumerate_grid", "priors.grid", after_grid)

    def after_tables(layer, a, out):
        snaps = out[0]
        c["estimators.tables.count"] += len(snaps)
        # computed from array sizes: digits, one weight vector per table,
        # and the (P, N) f table the function builds internally
        P = len(snaps[0].log_weights)
        c["estimators.tables.bytes"] += (snaps[0].digits.nbytes
                                         + sum(s.log_weights.nbytes for s in snaps)
                                         + P * int(a["N"]) * 8)

    tracer.wrap(cli, "sequential_discrete_posteriors", "estimators.tables", after_tables)

    def after_ledger(layer, a, out):
        c["risk.ledger.records"] += len(out.records)

    tracer.wrap(cli, "regret_ledger", "risk.ledger", after_ledger)
    tracer.wrap(cli, "bound_calculator", "risk.bounds")
    tracer.wrap(cli, "optimal_hyperparams", "risk.bounds")

    # command front door; main() looks these up when it builds its parser
    for attr in ("cmd_sample", "cmd_regret"):
        tracer.patch(cli, attr, _traced_command(tracer, getattr(cli, attr)))


def _traced_command(tracer: Tracer, fn):
    inner = tracer.spanned("cli", fn)

    def command(args):
        before = _dir_bytes(args.output_dir)
        try:
            return inner(args)
        finally:
            tracer.counts["cli.bytes_written"] += _dir_bytes(args.output_dir) - before

    return command

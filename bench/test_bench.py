"""Tests of the benchmark itself: small passes and corrupted outputs.

    python -m pytest bench/test_bench.py -q

Each workload runs one small round through the same checks the benchmark
uses, and each check is shown a corrupted output that it must reject.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

SMALL_NESTED = workloads.NestedSize(outer=40, outer_burn_in=10, outer_thinning=2,
                                    inner=60, inner_burn_in=20, conditional=60,
                                    conditional_burn_in=20, conditional_thinning=5)
SMALL_INDEP = workloads.IndepSize(iterations=600, burn_in=100)
SMALL_LEDGER = workloads.LedgerSize(d=2, M=2, K=2, N=16, resolution=100)


def one_round(workload, corrupt=None, rounds=1):
    ops = [op for r in range(rounds) for op in workload.run(workload.inputs(r))]
    if corrupt is not None:
        corrupt(ops)
    for op in ops:
        workload.keep(op)
    return ops, workload.check_run(ops)


def problems(ops):
    return [p for op in ops for p in op.problems]


def test_nested_small_pass(tmp_path):
    ops, run_problems = one_round(workloads.NestedK1D2(3, str(tmp_path), SMALL_NESTED))
    assert problems(ops) == [] and run_problems == []
    assert len(ops[0].outputs["f"]) == 15 * 8


def _rewrite_draws(op, fn):
    rdir = op.outputs["dir"]
    [name] = [f for f in os.listdir(rdir) if f.startswith("chains_")]
    path = os.path.join(rdir, name)
    with open(path) as fh:
        lines = fh.readlines()
    out = [lines[0]]
    for line in lines[1:]:
        rec = json.loads(line)
        rec["sample"] = fn(np.array(rec["sample"])).tolist()
        out.append(json.dumps(rec) + "\n")
    with open(path, "w") as fh:
        fh.writelines(out)


def test_nested_rejects_shifted_draws(tmp_path):
    # halfway towards (1, 0) keeps every draw inside the ball and moves the
    # mean of f by about 0.25; only the pooled mean against the quadrature
    # can notice
    def shift(ops):
        for op in ops:
            _rewrite_draws(op, lambda w: 0.5 * (w + np.array([1.0, 0.0])))

    ops, run_problems = one_round(workloads.NestedK1D2(3, str(tmp_path), SMALL_NESTED),
                                  shift, rounds=3)
    assert problems(ops) == []
    assert run_problems and "pooled mean" in run_problems[0]


def test_nested_rejects_draws_outside_the_ball(tmp_path):
    def push_out(ops):
        _rewrite_draws(ops[0], lambda w: w + np.array([0.6, 0.6]))

    ops, _ = one_round(workloads.NestedK1D2(3, str(tmp_path), SMALL_NESTED), push_out)
    assert any("outside the product of l1 balls" in p for p in problems(ops))


def test_indep_small_pass(tmp_path):
    ops, run_problems = one_round(workloads.IndepK2D150(3, str(tmp_path), SMALL_INDEP))
    assert problems(ops) == [] and run_problems == []


def test_indep_rejects_certificate_above_one(tmp_path):
    def inflate(ops):
        ops[0].outputs["certificate"] = (1.02, 0.001)

    ops, _ = one_round(workloads.IndepK2D150(3, str(tmp_path), SMALL_INDEP), inflate,
                       rounds=2)
    assert any("certificate" in p for p in ops[0].problems)
    assert ops[1].problems == []


def test_indep_rejects_shifted_draws(tmp_path):
    wl = workloads.IndepK2D150(3, str(tmp_path), SMALL_INDEP)
    x0 = wl.data.X[0]

    def shift(ops):  # moves the projection on x_0 by about 0.13
        ops[0].outputs["draws"] = ops[0].outputs["draws"] + 0.2 * x0 / np.abs(x0).sum()

    ops, _ = one_round(wl, shift)
    assert any("importance sampling" in p for p in ops[0].problems)


def test_ledger_small_pass(tmp_path):
    ops, run_problems = one_round(workloads.ExactLedger(3, str(tmp_path), SMALL_LEDGER))
    assert problems(ops) == [] and run_problems == []


def test_ledger_rejects_swapped_row(tmp_path):
    def swap(ops):
        rdir = ops[0].outputs["dir"]
        [name] = [f for f in os.listdir(rdir) if f.startswith("ledger_")]
        path = os.path.join(rdir, name)
        with open(path) as fh:
            lines = fh.readlines()
        lines[7], lines[8] = lines[8], lines[7]   # rows n = 6 and n = 7
        with open(path, "w") as fh:
            fh.writelines(lines)

    ops, _ = one_round(workloads.ExactLedger(3, str(tmp_path), SMALL_LEDGER), swap)
    found = ops[0].problems
    assert any("n = 1..N" in p for p in found)
    assert any("brute-force" in p for p in found)


def test_ledger_rejects_a_changed_regret():
    ledger = np.array([[1, 0.1, 0.2, 0.15, 1.0, 0.1, 0.2, 0.15, 1.0],
                       [2, 0.3, 0.2, 0.15, 1.0, 0.2, 0.2, 0.15, 1.0]])
    bounds = np.array([[2, 0.5, 0.2, 1.0]])
    found = checks.check_ledger(ledger, bounds, 2, 0.5, ledger[:, 1:5], bounds[:, [0, 1, 3]])
    assert any("ordering" in p for p in found)


def test_ledger_rejects_beta_or_bound_off_the_closed_form(tmp_path):
    def rescale(column):
        def corrupt(ops):
            rdir = ops[0].outputs["dir"]
            [name] = [f for f in os.listdir(rdir) if f.startswith("regret_vs_bound_")]
            path = os.path.join(rdir, name)
            with open(path) as fh:
                lines = fh.readlines()
            row = lines[-1].strip().split(",")
            row[column] = repr(float(row[column]) * 1.001)
            lines[-1] = ",".join(row) + "\n"
            with open(path, "w") as fh:
                fh.writelines(lines)
        return corrupt

    ops, _ = one_round(workloads.ExactLedger(3, str(tmp_path / "beta"), SMALL_LEDGER),
                       rescale(1))
    assert any("beta*" in p for p in ops[0].problems)
    ops, _ = one_round(workloads.ExactLedger(3, str(tmp_path / "bound"), SMALL_LEDGER),
                       rescale(3))
    assert any("closed-form square-regret bound" in p for p in ops[0].problems)


def test_quadrature_rejects_mass_not_one(tmp_path):
    def leak(ops):
        ops[1].outputs["mass"] = 1.0 - 1e-6

    ops, _ = one_round(workloads.ExactLedger(3, str(tmp_path), SMALL_LEDGER), leak)
    assert any("mass" in p for p in ops[1].problems)
    assert ops[0].problems == []


def test_quadrature_rounds_share_no_input(tmp_path):
    wl = workloads.ExactLedger(3, str(tmp_path), SMALL_LEDGER)
    quads = [wl.inputs(r)[1] for r in range(20)]
    assert len({beta for beta, _ in quads}) == 20
    assert len({res for _, res in quads}) == 20


def test_quadrature_rejects_first_order_error():
    truth = 0.5
    h = 2.0 / 100
    assert checks.check_quadrature(1.0, truth + 0.5 * h * h, truth, 100) == []
    assert checks.check_quadrature(1.0, truth + 0.1 * h, truth, 100) != []


def test_ess_of_independent_draws_is_near_their_count():
    x = np.random.default_rng(0).standard_normal(4000)
    assert 3000 < checks.ess(x) < 5000
    ar = np.zeros(4000)
    for t in range(1, 4000):  # AR(1) with phi = 0.9: ESS about S / 19
        ar[t] = 0.9 * ar[t - 1] + x[t]
    assert 100 < checks.ess(ar) < 350
    # pooled over chains: 20 chains of 200, independent or AR(1)
    assert 3000 < checks.ess_multi(x.reshape(20, 200)) < 5000
    assert 100 < checks.ess_multi(ar.reshape(20, 200)) < 350


def test_l1_ball_draws_are_uniform():
    w = checks.l1_ball_uniform(np.random.default_rng(1), 200_000, 2)
    assert np.all(np.abs(w).sum(axis=1) <= 1.0)
    # E[w_1^2] = 2 / ((d + 1)(d + 2)) = 1/6 for the uniform l1 ball at d = 2
    assert abs(np.mean(w[:, 0] ** 2) - 1.0 / 6.0) < 3e-3


def test_traced_counts_agree_with_chain_diagnostics(tmp_path):
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        wl = workloads.NestedK1D2(4, str(tmp_path), SMALL_NESTED)
        wl.run(wl.inputs(0))
        snaps = [tracer.snapshot()]
    finally:
        tracer.uninstall()
    assert run.kernel_identity(snaps) == []
    assert snaps[0]["samplers.kernel.calls"] > 0
    assert snaps[0]["samplers.outer.steps"] == SMALL_NESTED.outer
    assert snaps[0]["samplers.conditional.chains"] == 15
    from lccnn import samplers
    assert not hasattr(samplers.sample_marginal_xi, "__wrapped__")


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact-ledger",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""


def test_an_operation_that_raises_makes_the_run_incorrect(capsys, monkeypatch):
    def broken(self, beta, resolution):
        raise FloatingPointError("broken quadrature")

    monkeypatch.setattr(workloads.ExactLedger, "_quadrature", broken)
    assert run.main(["--workload", "exact-ledger", "--seed", "5", "--seconds", "0.01"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert not {"wall_s", "cpu_s", "ess_per_s"} & set(result["metrics"])


def test_result_line_names_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "exact-ledger", "--seed", "5", "--seconds", "0.01"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2


def test_per_layer_metrics_match_the_benchmark_file():
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert listed == spans.metric_names()


def test_times_are_median_ratios_to_the_reference_job():
    ops = [[workloads.OpResult({}, [], wall=w, cpu=w, work=k)] for w, k in
           [(1.0, 1.0), (3.0, 1.0), (2.0, 2.0), (9.0, 1.0)]]
    refs = [(0.5, 0.5), (1.0, 1.0), (0.5, 0.5), (1.0, 1.0)]
    # ratios 2, 3, 2, 9: the median is 2.5
    assert run.scaled_time(ops, refs, "wall", 0.04) == 0.04 * 2.5
    ops[0][0].problems.append("failed")  # a failed operation is not timed
    assert run.scaled_time(ops, refs, "cpu", 0.04) == 0.04 * 3.0


def test_reference_job_process_ends_with_the_run():
    with run.Yardstick() as yardstick:
        wall, cpu = yardstick.measure()
        assert 0.0 < yardstick.start_s < 60.0 and wall > 0.0 and cpu > 0.0
    assert yardstick.proc.poll() == 0

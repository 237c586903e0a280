"""Benchmark for lccnn: end-to-end figures, or per-layer figures when traced.

    python3 bench/run.py --workload nested-k1d2 --seed 1 --seconds 30 --trace 0

Runs one workload in this process for about --seconds seconds of whole
rounds, checks every output, and prints each metric with its unit.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones.  End-to-end times are in seconds of the reference job
(bench/reference.py), which runs in a child process between rounds.  See
bench/README.md for the workloads and what each metric means.  Exits with
code 2, printing no result, when the checkout has no lccnn sources.
"""

import os

# one thread everywhere, before numpy loads: the benchmark measures the
# Python sampler loop, and BLAS threads only add noise at these sizes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REF_S, REF_START_S, process_age

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REF_EVERY_S = 0.5  # least time between two runs of the reference job


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("nested-k1d2", "indep-k2d150", "exact-ledger"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Yardstick:
    """The reference job of bench/reference.py, served by a child process.

    start_s is the child's own set-up, from its start to numpy imported.
    measure() runs the job once and returns its (wall, cpu) seconds.  The
    parent waits meanwhile, so the two processes never run at once.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        [self.start_s] = self._read()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference job exited with code {self.proc.wait()}")
        return [float(v) for v in line.split()]

    def measure(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        wall, cpu = self._read()
        return wall, cpu

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_rounds(workload, seconds: float, yardstick, tracer=None):
    """Whole rounds until the next one would end after `seconds`, with the
    reference job run before the first round, after the last, and between
    rounds whenever REF_EVERY_S has passed since its last run.

    Returns the operations of each round; each round's reference (wall, cpu)
    time, the median of the four runs of the job nearest the round (the two
    that bracket it and one on each side, fewer at the ends), which a single
    disturbed 40 ms job moves less than a mean of two; and per-round
    snapshots of the tracer (cumulative) when tracing.
    """
    rounds, walls, snaps = [], [], []
    refs, before = [yardstick.measure()], []
    start = last_ref = time.perf_counter()
    while True:
        inputs = workload.inputs(len(rounds))
        before.append(len(refs) - 1)
        w0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            done = workload.run(inputs)
        walls.append(time.perf_counter() - w0)
        if tracer is not None:
            snaps.append(tracer.snapshot())
        for op in done:
            workload.keep(op)
        rounds.append(done)
        end = time.perf_counter() - start + statistics.median(walls) > seconds
        if end or time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(yardstick.measure())
            last_ref = time.perf_counter()
        if end:
            round_refs = [tuple(map(statistics.median, zip(*refs[max(i - 1, 0):i + 3])))
                          for i in before]
            return rounds, round_refs, snaps


def scaled_time(rounds, round_refs, attr: str, ref_s: float):
    """A round's time in seconds of the reference job: the sum over the
    round's operations of the median, over the rounds in which the operation
    succeeded, of its time per reference size divided by its round's
    reference time; times ref_s.  None when some operation never succeeded."""
    i = ("wall", "cpu").index(attr)
    total = 0.0
    for k in range(len(rounds[0])):
        ratios = [getattr(ops[k], attr) / ops[k].work / ref[i]
                  for ops, ref in zip(rounds, round_refs) if not ops[k].problems]
        if not ratios:
            return None
        total += statistics.median(ratios)
    return ref_s * total


def layer_metrics(snaps) -> dict:
    """Counts of the first round, and the smallest per-round self time."""
    import spans

    out = {}
    for name, unit, _ in spans.metric_names():
        per_round = [b[name] - a.get(name, 0) for a, b in zip([{}] + snaps[:-1], snaps)]
        value = min(per_round) if name.endswith(".self_s") else per_round[0]
        out[name] = {"value": value, "unit": unit}
    return out


def kernel_identity(snaps) -> list:
    """Evaluations counted by the wrapper against those implied by the chains'
    own diagnostics: one per MALA chain plus one per in-support step."""
    problems = []
    prev = {}
    for r, snap in enumerate(snaps):
        d = {k: v - prev.get(k, 0) for k, v in snap.items()}
        implied = (d["samplers.step.attempted"] - d["samplers.step.support_rejections"]
                   + d["samplers.inner.chains"] + d["samplers.conditional.chains"])
        if d["samplers.kernel.calls"] != implied:
            problems.append(f"round {r}: samplers.kernel.calls {d['samplers.kernel.calls']} "
                            f"!= {implied} implied by the chain diagnostics")
        prev = snap
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lccnn" / "__init__.py").is_file():
        print(f"bench: no lccnn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy, scipy and lccnn

    import lccnn
    if Path(lccnn.__file__).resolve().parent != SRC / "lccnn":
        print(f"bench: lccnn imported from {lccnn.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        setup_raw = process_age()
        setup_cpu = time.process_time()
        with Yardstick() as yardstick:
            start_s = yardstick.start_s
            yardstick.measure()  # the child's first job warms its caches
            rounds, round_refs, snaps = run_rounds(workload, args.seconds, yardstick, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        ops = [op for ops_r in rounds for op in ops_r]
        run_problems = workload.check_run(ops)
        if tracer is not None:
            run_problems += kernel_identity(snaps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for k in range(len(rounds[0])):
        print(f"operation {k} of each round, wall s: "
              + " ".join(f"{ops_r[k].wall:.3f}" for ops_r in rounds), file=sys.stderr)
    print("reference job of each round, wall s: "
          + " ".join(f"{ref[0]:.4f}" for ref in round_refs), file=sys.stderr)
    for i, op in enumerate(ops):
        for p in op.problems:
            print(f"operation {i} failed: {p}", file=sys.stderr)
    for p in run_problems:
        print(f"check failed: {p}", file=sys.stderr)
    failed = sum(1 for op in ops if op.problems)

    job_s = statistics.median(ref[0] for ref in round_refs)
    wall_s = scaled_time(rounds, round_refs, "wall", REF_S)
    if tracer is not None:
        metrics = layer_metrics(snaps)
        with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    else:
        # set-up in units of the child's set-up, which follows it at once
        metrics = {"setup_s": {"value": setup_raw * REF_START_S / start_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        if wall_s is not None:  # a time only for operations that succeeded
            ess_per_s = workload.run_ess(ops) / len(rounds) / wall_s
            metrics["wall_s"] = {"value": wall_s, "unit": "s"}
            metrics["cpu_s"] = {"value": scaled_time(rounds, round_refs, "cpu", REF_S),
                                "unit": "s"}
            metrics["ess_per_s"] = {"value": float(ess_per_s), "unit": "1/s"}
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds, "
          f"{len(ops)} operations, {failed} failed")
    print(f"as measured: set-up {setup_raw:.4f} s ({setup_cpu:.4f} s CPU), reference set-up {start_s:.4f} s, "
          f"reference job {job_s:.4f} s (median), "
          f"median round {statistics.median(sum(op.wall for op in r) for r in rounds):.4f} s; "
          f"round in reference seconds {wall_s}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not run_problems and failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's reference job, the yardstick of every time it reports.

    python3 bench/reference.py      # one line in, one job, one line "wall cpu" out

On a shared host, identical work runs up to 2x slower in phases of seconds to
minutes, in CPU time as much as in wall time.  So the benchmark runs this
fixed job in a process of its own, between its rounds, and reports each time
as the time measured divided by the job's time measured next to it, times
REF_S: seconds of a host on which the job takes REF_S.  A phase in which the
host runs everything slower moves the job and the rounds alike, and leaves
the ratio.

The job uses neither lccnn nor the benchmark's workloads, and its process
shares no threads, heap or imports with the program, so no change to the
program can change the job's time.  It mixes the two kinds of work the
workloads do: a Metropolis loop over 2-vectors, where the interpreter and
small numpy calls dominate, and products and tanh of 300 x 150 matrices,
where single-threaded BLAS and vectorised numpy do.  Of the kinds tried, this
pair kept the ratio steadiest from one 35 s window to the next on all three
workloads; passes over fresh 24 MB arrays tracked the ledger's regret run
about as well, but the sampler runs worse.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_T_IMPORT = time.perf_counter()

import numpy as np  # noqa: E402


def process_age() -> float:
    """Seconds since this process started, read from /proc when it exists."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_IMPORT


REF_START_S = 0.1  # this process's set-up, start to numpy imported, in a quiet phase
REF_S = 0.040  # the job's median wall time on the machine of bench/README.md, quiet phase


def job() -> float:
    rng = np.random.default_rng(0)
    x = np.zeros(2)
    for _ in range(3000):
        y = x + 0.3 * rng.standard_normal(2)
        if np.abs(y).sum() <= 1.0 and np.log(rng.random()) < x @ x - y @ y:
            x = y
    a = rng.standard_normal((300, 150))
    for _ in range(45):
        a = a + 1e-3 * np.tanh(a @ a[:150].T)[:, :150]
    return float(a.sum() + x.sum())


def serve(stdin, stdout) -> None:
    for _ in stdin:
        w0, c0 = time.perf_counter(), time.process_time()
        job()
        stdout.write(f"{time.perf_counter() - w0!r} {time.process_time() - c0!r}\n")
        stdout.flush()


if __name__ == "__main__":
    print(repr(process_age()), flush=True)
    serve(sys.stdin, sys.stdout)

"""SHA-256 digests of the lccnn outputs that a faster program must keep
byte-identical.

Prints one line per output, its digest and a label:

- `lccnn sample` chains, certificate and diagnostics files at the nested-k1d2
  benchmark config (the criterion-09 data, (K, d, n) = (1, 2, 5)), seeds 0-2;
- the prior-MH draws, acceptance and marginal-concavity certificate at the
  indep-k2d150 benchmark shape ((K, d, n) = (2, 150, 10), beta = 0.05,
  3,000 steps with 500 burn-in), rounds 0-2;
- the `lccnn regret` ledger and regret-vs-bound CSVs at the exact-ledger
  benchmark config (K = 2, d = 4, M = 3, N = 256), seeds 0-1;
- the `PosteriorQuadrature` probs bytes and mean_f at x = (1, 0.5) at the
  criterion-09 shape (beta = 2), resolutions 350 and 651.

The package is imported from the Python path, so the same script digests any
checkout; run it on two and compare:

    PYTHONPATH=/path/to/parent/src python tools/output_digests.py > before.txt
    PYTHONPATH=src python tools/output_digests.py > after.txt
    diff before.txt after.txt

Two checkouts compare only at the same BLAS thread count: on a 2-core host,
two OpenBLAS threads change the four regret CSV digests and both mean_f
digests.  So the script sets the OpenBLAS, OpenMP and MKL thread counts to 1
before it imports numpy.

It takes about three seconds on one core.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile

# the regret ledgers' and mean_f's BLAS dot products split their sums across
# threads, so their bytes hold at a fixed thread count: one, set before numpy
# loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import lccnn  # noqa: E402
from lccnn import cli, coupling, priors, samplers  # noqa: E402
from lccnn.nnmodel import Dataset, NetworkConfig, tanh_scaled  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"lccnn {' '.join(argv)} exited with code {code}")


def _dir_digests(label: str, path: str):
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            yield _sha(fh.read()), f"{label} {name}"


def criterion09_data():
    """The (K, d, n) = (1, 2, 5) data set of acceptance criterion 09."""
    rng = np.random.default_rng(42)
    X = rng.uniform(-1, 1, size=(5, 2))
    X[:, 0] = 1.0
    y = np.tanh(X @ np.array([0.35, 0.6])) + 0.1 * np.random.default_rng(1).standard_normal(5)
    return X, y


def sample_digests(workdir: str):
    """`lccnn sample` at the nested-k1d2 config, seeds 0-2."""
    X, y = criterion09_data()
    # the config names the data by a relative path (the config hash reads it),
    # resolved from the working directory
    data_path = "data.csv"
    with open(os.path.join(workdir, data_path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "y"])
        for xi, yi in zip(X, y):
            writer.writerow([repr(float(v)) for v in (*xi, yi)])
    for seed in range(3):
        out = os.path.join(workdir, f"sample{seed}")
        config = {
            "network": {"K": 1, "d": 2, "V": 1.0, "activation": {"kind": "tanh"}},
            "prior": {"kind": "continuous"},
            "data": {"path": data_path},
            "beta": {"mode": "fixed", "value": 2.0},
            "sampler": {
                "outer": {"step_size": 0.3, "iterations": 50, "burn_in": 10, "thinning": 5},
                "inner": {"step_size": 0.3, "iterations": 300, "burn_in": 60},
                "conditional": {"step_size": 0.3, "iterations": 340, "burn_in": 60,
                                "thinning": 10}},
            "seed": seed,
        }
        path = os.path.join(workdir, f"experiment{seed}.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        _cli(["--output-dir", out, "sample", "--config", path])
        yield from _dir_digests(f"sample seed={seed}", out)


def prior_mh_digests():
    """Prior-MH draws and certificate at the indep-k2d150 shape, rounds 0-2."""
    K, d, n, beta = 2, 150, 10, 0.05
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(n, d))
    X[:, 0] = 1.0
    data = Dataset(X=X, y=rng.uniform(-1, 1, size=n))
    cfg = NetworkConfig(K=K, d=d, V=1.0, activation=tanh_scaled())
    params = coupling.CouplingParams.from_config(cfg, data, n=n, beta=beta)
    prior = priors.ContinuousL1Prior(d=d, K=K)
    for r in range(3):
        rng = np.random.default_rng([0, r, 1])
        w = priors.sample_continuous(prior, rng)
        xi, _ = coupling.sample_xi_given_w(w, X, params, rng)
        chain = samplers.ChainConfig(step_size=1.0, iterations=3000, burn_in=500, seed=r)
        draws, diag = samplers.sample_reverse_conditional_prior_mh(cfg, data, params, xi,
                                                                   chain)
        cert = coupling.marginal_concavity_estimate(xi, draws, params, X)
        yield _sha(draws.tobytes()), f"prior-mh round={r} draws"
        yield _sha(repr((diag.acceptance_rate, diag.support_rejections)).encode()), \
            f"prior-mh round={r} acceptance"
        yield _sha(repr(tuple(cert)).encode()), f"prior-mh round={r} certificate"


def regret_digests(workdir: str):
    """`lccnn regret` at the exact-ledger config, seeds 0-1."""
    for seed in range(2):
        out = os.path.join(workdir, f"regret{seed}")
        config = {
            "network": {"K": 2, "d": 4, "V": 1.0, "activation": {"kind": "tanh"}},
            "prior": {"kind": "discrete", "M": 3},
            "data": {"synthetic": {"N": 256, "d": 4, "seed": seed,
                                   "g": {"kind": "teacher", "K": 2, "V": 1.0,
                                         "activation": {"kind": "tanh"}},
                                   "noise": {"kind": "gaussian", "sigma": 0.3}}},
            "beta": {"mode": "fourth-root"},
        }
        path = os.path.join(workdir, f"regret{seed}.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        _cli(["--output-dir", out, "regret", "--config", path])
        yield from _dir_digests(f"regret seed={seed}", out)


def quadrature_digests():
    """PosteriorQuadrature at the criterion-09 shape, resolutions 350 and 651."""
    X, y = criterion09_data()
    cfg = NetworkConfig(K=1, d=2, V=1.0, activation=tanh_scaled())
    for resolution in (350, 651):
        q = samplers.PosteriorQuadrature(cfg, Dataset(X=X, y=y), 5, 2.0, resolution)
        yield _sha(q.probs.tobytes()), f"quadrature resolution={resolution} probs"
        yield _sha(repr(q.mean_f(np.array([1.0, 0.5]))).encode()), \
            f"quadrature resolution={resolution} mean_f"


def main() -> int:
    print(f"lccnn from {os.path.dirname(lccnn.__file__)}", file=sys.stderr)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for digest, label in (*sample_digests(workdir), *prior_mh_digests(),
                                  *regret_digests(workdir), *quadrature_digests()):
                print(digest, label)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CLI subcommands: synth, sample, verify, bounds, regret."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from lccnn.cli import (
    ENV_OUT_DIR,
    ConfigError,
    ExperimentConfig,
    config_hash,
    load_dataset_csv,
    main,
    resolve_beta,
    synthesize,
)
from lccnn.estimators import grid_psi_table, product_f_table, sequential_discrete_posteriors
from lccnn.priors import DiscreteGridPrior, enumerate_grid
from lccnn import risk
from lccnn.risk import BoundInputs, bound_calculator, regret_ledger, streamed_regret_ledger
from lccnn.verify import SUITES


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _strict_json(text: str, lines: bool = False):
    """text as one JSON value, or as one value per line (JSON lines).  NaN and
    the infinities, which json.dumps writes but JSON forbids, fail the test."""
    def refuse(constant):
        raise ValueError(f"{constant} is not valid JSON")
    if lines:
        return [json.loads(line, parse_constant=refuse) for line in text.splitlines()]
    return json.loads(text, parse_constant=refuse)


SYNTH_SPEC = {
    "N": 40, "d": 3, "seed": 5,
    "g": {"kind": "teacher", "K": 1, "V": 1.0, "activation": {"kind": "tanh"}},
    "noise": {"kind": "none"},
}

SAMPLE_CONFIG = {
    "network": {"K": 1, "d": 2, "V": 1.0, "activation": {"kind": "tanh"}},
    "prior": {"kind": "continuous"},
    "data": {"synthetic": {"N": 4, "d": 2, "seed": 2,
                           "g": {"kind": "teacher", "K": 1, "V": 1.0,
                                 "activation": {"kind": "tanh"}},
                           "noise": {"kind": "gaussian", "sigma": 0.1}}},
    "beta": {"mode": "fixed", "value": 2.0},
    "sampler": {"outer": {"step_size": 0.3, "iterations": 100, "burn_in": 30},
                "inner": {"step_size": 0.3, "iterations": 50, "burn_in": 20},
                "conditional": {"step_size": 0.3, "iterations": 40,
                                "burn_in": 20, "thinning": 10}},
    "seed": 3,
}


class TestSynth:
    def test_csv_format_and_intercept(self, tmp_path):
        spec = _write(tmp_path / "spec.json", SYNTH_SPEC)
        rc = main(["--output-dir", str(tmp_path), "synth", "--spec", spec,
                   "--out", "data.csv"])
        assert rc == 0
        data = load_dataset_csv(tmp_path / "data.csv")
        assert data.N == 40 and data.d == 3
        assert np.all(data.X[:, 0] == 1.0)
        assert np.max(np.abs(data.X)) <= 1.0
        meta = _strict_json((tmp_path / "data.csv.teacher.json").read_text())
        assert meta["kind"] == "teacher" and "weights" in meta

    def test_noiseless_teacher_exact(self, tmp_path):
        data, meta, g = synthesize(SYNTH_SPEC)
        assert np.array_equal(data.y, g)

    def test_gaussian_noise_sd(self):
        spec = dict(SYNTH_SPEC, N=10_000,
                    noise={"kind": "gaussian", "sigma": 0.5})
        data, meta, g = synthesize(spec)
        sd = np.std(data.y - g)
        assert abs(sd - 0.5) / 0.5 < 0.05

    def test_bad_spec_exit_code(self, tmp_path):
        spec = _write(tmp_path / "bad.json", {"N": 10})
        assert main(["synth", "--spec", spec]) == 2

    def test_seed_reproducibility(self):
        a, _, _ = synthesize(SYNTH_SPEC)
        b, _, _ = synthesize(SYNTH_SPEC)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


class TestExperimentConfig:
    def test_round_trip_lossless(self):
        ec = ExperimentConfig.from_dict(SAMPLE_CONFIG)
        assert ec.as_dict() == SAMPLE_CONFIG
        assert config_hash(ec.as_dict()) == config_hash(SAMPLE_CONFIG)

    def test_unknown_keys_rejected(self):
        bad = dict(SAMPLE_CONFIG, extra=1)
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict(bad)
        bad2 = json.loads(json.dumps(SAMPLE_CONFIG))
        bad2["network"]["frobnicate"] = True
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict(bad2)

    def test_discrete_prior_requires_M(self):
        bad = json.loads(json.dumps(SAMPLE_CONFIG))
        bad["prior"] = {"kind": "discrete"}
        with pytest.raises(ConfigError, match="requires M"):
            ExperimentConfig.from_dict(bad)

    def test_data_source_exclusive(self):
        bad = json.loads(json.dumps(SAMPLE_CONFIG))
        bad["data"]["path"] = "x.csv"
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig.from_dict(bad)


class TestSample:
    def test_outputs_and_certificate(self, tmp_path):
        cfg_path = _write(tmp_path / "exp.json", SAMPLE_CONFIG)
        rc = main(["--output-dir", str(tmp_path), "sample", "--config", cfg_path])
        assert rc == 0
        h = config_hash(SAMPLE_CONFIG)
        cert = _strict_json((tmp_path / f"certificate_{h}.json").read_text())
        from lccnn.cli import _get_data
        from lccnn.coupling import check_logconcavity_conditions
        ec = ExperimentConfig.from_dict(SAMPLE_CONFIG)
        data, _ = _get_data(ec)
        report = check_logconcavity_conditions(ec.network, data, 2.0, N=4)
        for key, val in report.as_dict().items():
            assert cert["condition_report"][key] == pytest.approx(val)
        chains = _strict_json((tmp_path / f"chains_{h}.jsonl").read_text(), lines=True)
        assert chains[0]["meta"]["config_hash"] == h
        assert len(chains) > 1
        assert _strict_json((tmp_path / f"diagnostics_{h}.json").read_text())["config_hash"] == h

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path = _write(tmp_path / "exp.json", SAMPLE_CONFIG)
        h = config_hash(SAMPLE_CONFIG)
        main(["--output-dir", str(tmp_path), "sample", "--config", cfg_path])
        first = (tmp_path / f"chains_{h}.jsonl").read_bytes()
        main(["--output-dir", str(tmp_path), "sample", "--config", cfg_path])
        assert (tmp_path / f"chains_{h}.jsonl").read_bytes() == first

    def test_diagnostics_record_the_run(self, tmp_path):
        cfg_path = _write(tmp_path / "exp.json", SAMPLE_CONFIG)
        h = config_hash(SAMPLE_CONFIG)
        main(["--output-dir", str(tmp_path), "sample", "--config", cfg_path])
        first = (tmp_path / f"diagnostics_{h}.json").read_bytes()
        diag = _strict_json(first.decode())
        chains = _strict_json((tmp_path / f"chains_{h}.jsonl").read_text(), lines=True)
        assert diag["outer_step_size"] == chains[1]["diagnostics"]["outer_step_size"]
        assert 0.0 < diag["inner_score_se_mean"] <= diag["inner_score_se_max"] < math.inf
        assert isinstance(diag["conditional_support_rejections"], int)
        assert diag["conditional_support_rejections"] >= 0
        main(["--output-dir", str(tmp_path), "sample", "--config", cfg_path])
        assert (tmp_path / f"diagnostics_{h}.json").read_bytes() == first

    def test_discrete_prior_rejected(self, tmp_path):
        bad = json.loads(json.dumps(SAMPLE_CONFIG))
        bad["prior"] = {"kind": "discrete", "M": 1}
        cfg_path = _write(tmp_path / "exp.json", bad)
        assert main(["--output-dir", str(tmp_path), "sample",
                     "--config", cfg_path]) == 2

    @pytest.mark.parametrize("section, key, value", [
        ("outer", "burn_in", 100),
        ("inner", "iterations", "abc"),
        ("conditional", "step_size", 0),
        (None, "value", -1),
    ])
    def test_malformed_sampler_or_beta_exits_2(self, tmp_path, capsys, section, key, value):
        bad = json.loads(json.dumps(SAMPLE_CONFIG))
        (bad["beta"] if section is None else bad["sampler"][section])[key] = value
        cfg_path = _write(tmp_path / "exp.json", bad)
        assert main(["--output-dir", str(tmp_path), "sample",
                     "--config", cfg_path]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not list(tmp_path.glob("chains_*"))


def _per_prefix_ledger(cfg, f_rows, y, g_values, beta):
    """Reference for streamed_regret_ledger: one prefix at a time, over the
    rows of the whole (N, P) f table, as `lccnn regret` ran it before the
    one-pass form."""
    def normalize(log_w):
        top = np.max(log_w)
        e = np.exp(log_w - top)
        total = np.sum(e)
        return e / total, float(top + np.log(total))

    g_values = np.asarray(g_values, dtype=float)
    N = len(g_values)
    b = risk._half_width(cfg, g_values)
    half_log = 0.5 * math.log(beta / (2.0 * math.pi))
    cum = np.zeros(f_rows.shape[1])
    weights, lse = normalize(cum)
    records = []
    for n in range(1, N + 1):
        f, y_n = f_rows[n - 1], y[n - 1]
        res = y_n - f
        mu, mean_sq = float(weights @ f), float(weights @ (res * res))
        cum = cum - 0.5 * beta * res * res
        weights, lse_n = normalize(cum)
        records.append(risk._record(n, y_n, g_values[n - 1], mu, mean_sq,
                                    lse_n - lse + half_log, beta, b))
        lse = lse_n
    return risk._ledger(records, N)


REGRET_CONFIG = {
    "network": {"K": 1, "d": 2, "V": 1.0, "activation": {"kind": "tanh"}},
    "prior": {"kind": "discrete", "M": 1},
    "data": {"synthetic": {"N": 16, "d": 2, "seed": 4,
                           "g": {"kind": "teacher", "K": 1, "V": 1.0,
                                 "activation": {"kind": "tanh"},
                                 "weights": [[0.0, 1.0]]},
                           "noise": {"kind": "gaussian", "sigma": 0.2}}},
    "beta": {"mode": "fourth-root"},
    "seed": 1,
}


BOUNDS_INPUTS = {"a0": 1.0, "a1": 1.0, "a2": 1.0, "V": 1.0, "b": 1.0,
                 "sigma": 1.0, "C_N": 2.0, "d": 2, "N": 10_000, "M": 3,
                 "K": 3, "beta": 1.0}
BAD_CSV = "x1,x2,y\n1.0,0.5,0.1\n1.0,abc,0.2\n"
NAN_CSV = "x1,x2,y\n1.0,nan,0.1\n1.0,0.5,nan\n"


@pytest.mark.parametrize("command, field, value", [
    ("regret", "seed", "abc"),
    ("regret", "prior.M", "abc"),
    ("regret", "prior.M", 0),
    ("regret", "prior.M", -2),
    ("regret", "prior.M", 1.5),
    ("regret", "prior.M", 3),  # the grid prior needs M <= d
    ("regret", "data.synthetic.N", -3),
    ("regret", "data.synthetic.N", "abc"),
    ("regret", "data.synthetic.seed", "abc"),
    ("regret", "network.d", 3),  # the data have d = 2
    ("sample", "seed", "abc"),
    ("sample", "sampler.n", "abc"),
    ("sample", "sampler.n", 0),
    ("sample", "sampler.n", 5),  # more than the 4 data points
    ("sample", "sampler.n_xi", "x"),
    ("sample", "sampler.n_xi", 0),
    ("sample", "network.d", 3),
    ("sample", "network.signs", "x"),
    ("sample", "network.K", 1.5),
    ("regret", "beta.b", "x"),
    pytest.param("sample", "data", {"path": "missing.csv"}, id="sample-data.path-missing"),
    pytest.param("sample", "data", {"path": "bad.csv"}, id="sample-data.path-non-numeric"),
    ("sample", "data.synthetic.N", 0),
    ("sample", "data.synthetic.noise.sigma", "x"),
    pytest.param("regret", "data.synthetic.g.weights", [[0.0, 1.0, 0.5]],
                 id="regret-teacher-weights-shape"),  # the data have d = 2
    ("sample", "sampler.outer.adapt_step", "no"),
    ("sample", "sampler.outer.iterations", 100.7),
    ("bounds", "a0", "x"),
    ("bounds", "d", 2.5),
    ("bounds", "N", 0),
    ("bounds", "non_odd", "no"),
    ("sample", "prior", 5),
    ("regret", "beta", None),
    ("sample", "data.synthetic", 3),
    ("regret", "data.synthetic.g", "t"),
    pytest.param("sample", "data", {"path": None}, id="sample-data.path-null"),
    pytest.param("sample", "data.synthetic.noise", {"kind": "bounded", "range": -1},
                 id="sample-noise.range-negative"),
    ("bounds", "a0", math.nan),
    ("bounds", "a0", 0),
    ("bounds", "V", 0),
    ("bounds", "M", 0),
    ("bounds", "K", 0),
    ("bounds", "beta", 0),
    ("sample", "sampler.outer.iterations", "100"),
    ("sample", "sampler.outer.thinning", True),
    ("sample", "sampler.outer.step_size", True),
    ("sample", "seed", True),
    ("sample", "output_dir", 5),
    ("sample", "network.V", "1.0"),
    ("sample", "network.activation.a", "2"),
    ("bounds", "a0", True),
    ("bounds", "N", True),
    ("bounds", "a0", 1e-300),  # K* underflows to 0, where the bound is undefined
    ("regret", "network.V", 1e-300),  # the fourth-root beta* divides by an underflowed P
    pytest.param("regret", "data", {"path": "nan.csv"}, id="regret-data.path-nan"),
    ("sample", "seed", -1),
    ("sample", "seed", 2 ** 64),  # past the 64-bit Philox key word
    ("sample", "seed", 1e30),
    ("regret", "data.synthetic.seed", 2 ** 64),
    pytest.param("sample", "sampler.inner", {"step_size": 0.3, "iterations": 2, "burn_in": 1},
                 id="sample-sampler.inner-keeps-one-draw"),  # its score SE was NaN
    # the bound is inf, and the ledgers' log-likelihoods overflowed
    pytest.param("regret", "beta", {"mode": "fixed", "value": 1e308},
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning"),
                 id="regret-beta-fixed-1e308"),
])
def test_malformed_field_exits_2(tmp_path, capsys, monkeypatch, command, field, value):
    base = {"regret": REGRET_CONFIG, "sample": SAMPLE_CONFIG, "bounds": BOUNDS_INPUTS}
    bad = json.loads(json.dumps(base[command]))
    *path, key = field.split(".")
    node = bad
    for part in path:
        node = node[part]
    node[key] = value
    cfg_path = _write(tmp_path / "cfg.json", bad)
    (tmp_path / "bad.csv").write_text(BAD_CSV)
    (tmp_path / "nan.csv").write_text(NAN_CSV)
    monkeypatch.chdir(tmp_path)  # data paths in the configs are relative
    flag = "--inputs" if command == "bounds" else "--config"
    assert main(["--output-dir", str(tmp_path / "out"), command, flag, cfg_path]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, y", [
    ("sample", 1e155),  # the coupling constants overflow
    # the square-regret bound at a fixed beta overflows, and is refused before
    # the ledgers run on overflowed floats
    pytest.param("regret", 1e200, marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
])
def test_huge_finite_response_exits_2(tmp_path, capsys, monkeypatch, command, y):
    bad = json.loads(json.dumps({"sample": SAMPLE_CONFIG, "regret": REGRET_CONFIG}[command]))
    bad["data"] = {"path": "huge.csv"}
    bad["beta"] = {"mode": "fixed", "value": 1.0}
    (tmp_path / "huge.csv").write_text(f"x1,x2,y\n1.0,0.5,0.1\n1.0,-0.3,{y!r}\n1.0,0.2,0.3\n")
    cfg_path = _write(tmp_path / "cfg.json", bad)
    monkeypatch.chdir(tmp_path)
    assert main(["--output-dir", str(tmp_path / "out"), command, "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
@pytest.mark.parametrize("command", ["synth", "sample", "regret"])
def test_seed_flag_out_of_range_exits_2(tmp_path, capsys, command, seed):
    base = {"synth": SYNTH_SPEC, "sample": SAMPLE_CONFIG, "regret": REGRET_CONFIG}[command]
    path = _write(tmp_path / "cfg.json", base)
    flag = "--spec" if command == "synth" else "--config"
    assert main(["--output-dir", str(tmp_path / "out"), command, flag, path,
                 "--seed", seed]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


# each spec once ended in a traceback: a NaN teacher weight, responses that
# overflow, and a noise range whose width 2r overflows numpy's uniform draw
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g, noise", [
    pytest.param({"kind": "teacher", "K": 1, "V": 1.0, "activation": {"kind": "tanh"},
                  "weights": [[math.nan, 0.0]]}, {"kind": "none"}, id="teacher-weights-nan"),
    pytest.param({"kind": "cosine", "amplitude": 1e308}, {"kind": "gaussian", "sigma": 1e308},
                 id="cosine-amplitude-and-sigma-1e308"),
    pytest.param({"kind": "teacher", "K": 1, "V": 1e308,
                  "activation": {"kind": "tanh", "a": 1e308}}, {"kind": "none"},
                 id="teacher-V-and-a-1e308"),
    pytest.param({"kind": "cosine"}, {"kind": "bounded", "range": 1e308},
                 id="bounded-range-1e308"),
])
@pytest.mark.parametrize("command", ["synth", "sample", "regret"])
def test_synthetic_spec_out_of_range_exits_2(tmp_path, capsys, command, g, noise):
    base = {"sample": SAMPLE_CONFIG, "regret": REGRET_CONFIG}.get(command, SAMPLE_CONFIG)
    config = json.loads(json.dumps(base))
    config["data"]["synthetic"].update(N=40, g=g, noise=noise)  # the cosine case overflows
    if command == "synth":
        argv = ["synth", "--spec", _write(tmp_path / "spec.json", config["data"]["synthetic"])]
    else:
        argv = [command, "--config", _write(tmp_path / "cfg.json", config)]
    assert main(["--output-dir", str(tmp_path / "out")] + argv) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


class TestHeaderOnlyCsv:
    """A data CSV with a header and no rows, as `lccnn synth` writes for N = 0."""

    @pytest.fixture
    def data_path(self, tmp_path, monkeypatch):
        spec = dict(SYNTH_SPEC, N=0, d=2)
        assert main(["--output-dir", str(tmp_path), "synth", "--out", "empty.csv",
                     "--spec", _write(tmp_path / "spec.json", spec)]) == 0
        monkeypatch.chdir(tmp_path)
        return "empty.csv"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tail", ["", "\n  \n", "# a comment line\n"])
    def test_reads_as_zero_rows(self, data_path, tail):
        with open(data_path, "a") as fh:
            fh.write(tail)
        data = load_dataset_csv(data_path)
        assert (data.N, data.d) == (0, 2)

    @pytest.mark.filterwarnings("error")
    def test_regret_writes_the_empty_ledger(self, tmp_path, data_path):
        cfg = dict(REGRET_CONFIG, data={"path": data_path})
        assert main(["--output-dir", "out", "regret",
                     "--config", _write(tmp_path / "cfg.json", cfg)]) == 0
        text = (tmp_path / "out" / f"ledger_{config_hash(cfg)}.csv").read_text()
        assert len(text.strip().split("\n")) == 2  # hash comment and header

    @pytest.mark.filterwarnings("error")
    def test_sample_exits_2(self, tmp_path, capsys, data_path):
        cfg = dict(SAMPLE_CONFIG, data={"path": data_path})
        assert main(["--output-dir", "out", "sample",
                     "--config", _write(tmp_path / "cfg.json", cfg)]) == 2
        assert capsys.readouterr().err == \
            "config error: the sampler needs at least one data point\n"
        assert not (tmp_path / "out").exists()


class TestVerify:
    def test_telescope_selector(self, capsys):
        rc = main(["verify", "telescope"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS telescope" in out
        assert "residual" in out

    def test_unknown_selector(self):
        assert main(["verify", "nope"]) == 2

    def test_all_suites_pass(self, capsys):
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [["PASS", name] for name in SUITES]

    def test_json_records(self, capsys, monkeypatch):
        assert main(["verify", "--json"]) == 0
        records = _strict_json(capsys.readouterr().out, lines=True)
        assert [r["suite"] for r in records] == list(SUITES)
        for r in records:
            assert r["passed"] is True
            assert isinstance(r["margin"], float) and isinstance(r["detail"], str)
        assert records[0]["residual"] <= 1e-12  # a suite's own field
        monkeypatch.setitem(SUITES, "telescope", lambda: {
            "suite": "telescope", "passed": False, "margin": -1.0, "detail": ""})
        assert main(["verify", "--json", "telescope"]) == 4
        record = _strict_json(capsys.readouterr().out)
        assert record == {"suite": "telescope", "passed": False, "margin": -1.0,
                          "detail": ""}
        assert main(["verify", "--json", "nope"]) == 2

    def test_failing_suite_exits_4(self, capsys, monkeypatch):
        monkeypatch.setitem(SUITES, "telescope", lambda: {
            "suite": "telescope", "passed": False, "margin": -1.0, "detail": ""})
        assert main(["verify", "telescope"]) == 4
        captured = capsys.readouterr()
        assert captured.out.startswith("FAIL telescope")
        assert captured.err.startswith("verification failure:")


class TestBounds:
    INPUTS = BOUNDS_INPUTS

    def test_table_and_closed_form(self, tmp_path, capsys):
        path = _write(tmp_path / "inputs.json", self.INPUTS)
        rc = main(["--output-dir", str(tmp_path), "bounds", "--inputs", path])
        assert rc == 0
        h = config_hash(self.INPUTS)
        rows = list(csv.DictReader((tmp_path / f"bounds_{h}.csv").open(),
                                   skipinitialspace=True))
        kinds = {r["kind"] for r in rows}
        assert {"log_regret", "square_regret", "msr", "kl", "m2_msr"} <= kinds
        sq = next(r for r in rows if r["kind"] == "square_regret")
        assert abs(float(sq["bound_at_opt"]) - float(sq["closed_form"])) \
            <= 1e-9 * float(sq["closed_form"])
        # monotonicity spot rows present
        assert any("N_doubled" in r["kind"] for r in rows)

    def test_non_odd_optimum_columns(self, tmp_path):
        # the optimum columns are those of the non-odd sum on the same row
        inputs = dict(self.INPUTS, non_odd=True)
        path = _write(tmp_path / "inputs.json", inputs)
        assert main(["--output-dir", str(tmp_path), "bounds", "--inputs", path]) == 0
        rows = list(csv.DictReader((tmp_path / f"bounds_{config_hash(inputs)}.csv").open(),
                                   skipinitialspace=True))
        for kind in ("square_regret", "msr", "kl"):
            row = next(r for r in rows if r["kind"] == kind)
            at_opt = BoundInputs(**dict(self.INPUTS, K=float(row["K_star"]),
                                        M=float(row["M_star"]),
                                        beta=float(row["beta_star"])))
            total = bound_calculator(kind, at_opt, non_odd=True).total
            assert float(row["bound_at_opt"]) == pytest.approx(total, rel=1e-9)
            assert float(row["closed_form"]) == pytest.approx(total, rel=1e-9)

    def test_kl_consistency_warning(self, tmp_path, capsys):
        path = _write(tmp_path / "inputs.json", dict(self.INPUTS, beta=3.0))
        main(["--output-dir", str(tmp_path), "bounds", "--inputs", path])
        out = capsys.readouterr().out
        assert "1/sigma" in out

    def test_invalid_inputs(self, tmp_path):
        path = _write(tmp_path / "inputs.json", dict(self.INPUTS, d=1))
        assert main(["--output-dir", str(tmp_path), "bounds",
                     "--inputs", path]) == 2


class TestRegret:
    CONFIG = REGRET_CONFIG
    # K = 2 neurons on the d = 3, M = 2 grid: 25 points per row, 625 in all
    CONFIG_K2 = {
        "network": {"K": 2, "d": 3, "V": 1.0, "activation": {"kind": "tanh"}},
        "prior": {"kind": "discrete", "M": 2},
        "data": {"synthetic": {"N": 24, "d": 3, "seed": 9,
                               "g": {"kind": "teacher", "K": 2, "V": 1.0,
                                     "activation": {"kind": "tanh"}},
                               "noise": {"kind": "gaussian", "sigma": 0.3}}},
        "beta": {"mode": "fourth-root"},
    }

    # the exact-ledger benchmark config: K = 2 neurons on the d = 4, M = 3
    # grid, 129 points per row, 16,641 in all
    CONFIG_EXACT = {
        "network": {"K": 2, "d": 4, "V": 1.0, "activation": {"kind": "tanh"}},
        "prior": {"kind": "discrete", "M": 3},
        "data": {"synthetic": {"N": 256, "d": 4, "seed": 0,
                               "g": {"kind": "teacher", "K": 2, "V": 1.0,
                                     "activation": {"kind": "tanh"}},
                               "noise": {"kind": "gaussian", "sigma": 0.3}}},
        "beta": {"mode": "fourth-root"},
    }

    def test_ledger_and_bound_rows(self, tmp_path):
        cfg_path = _write(tmp_path / "cfg.json", self.CONFIG)
        rc = main(["--output-dir", str(tmp_path), "regret", "--config", cfg_path])
        assert rc == 0
        h = config_hash(self.CONFIG)
        with (tmp_path / f"regret_vs_bound_{h}.csv").open() as fh:
            fh.readline()  # hash comment
            rows = list(csv.DictReader(fh))
        assert len(rows) >= 3
        bounds = [float(r["bound"]) for r in rows]
        for r in rows:
            assert float(r["R_square"]) <= float(r["bound"])
        # fourth-root schedule: the bound decays along dyadic N
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
        with (tmp_path / f"ledger_{h}.csv").open() as fh:
            fh.readline()
            led = list(csv.DictReader(fh))
        assert len(led) == 16
        for row in led:
            assert float(row["r_square"]) <= float(row["r_rand"]) + 1e-12
            assert float(row["r_log"]) <= float(row["r_rand"]) + 1e-12

    def test_empty_dataset_edge(self, tmp_path):
        cfg = json.loads(json.dumps(self.CONFIG))
        cfg["data"]["synthetic"]["N"] = 0
        cfg_path = _write(tmp_path / "cfg.json", cfg)
        rc = main(["--output-dir", str(tmp_path), "regret", "--config", cfg_path])
        assert rc == 0
        h = config_hash(cfg)
        text = (tmp_path / f"ledger_{h}.csv").read_text()
        assert "r_square" in text  # header written, no data rows
        assert len(text.strip().split("\n")) == 2

    def test_continuous_prior_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(self.CONFIG))
        cfg["prior"] = {"kind": "continuous"}
        cfg_path = _write(tmp_path / "cfg.json", cfg)
        assert main(["--output-dir", str(tmp_path), "regret",
                     "--config", cfg_path]) == 2

    @pytest.mark.parametrize("which", ["CONFIG", "CONFIG_K2"])
    @pytest.mark.parametrize("beta", [{"mode": "fixed", "value": 1.7},
                                      {"mode": "fourth-root"}])
    def test_streamed_ledger_matches_snapshot_ledger(self, tmp_path, which, beta):
        cfg_dict = dict(getattr(self, which), beta=beta)
        cfg_path = _write(tmp_path / "cfg.json", cfg_dict)
        assert main(["--output-dir", str(tmp_path), "regret", "--config", cfg_path]) == 0
        h = config_hash(cfg_dict)
        with (tmp_path / f"regret_vs_bound_{h}.csv").open() as fh:
            fh.readline()
            written = {int(r["N"]): float(r["R_square"]) for r in csv.DictReader(fh)}

        ec = ExperimentConfig.from_dict(cfg_dict)
        net = ec.network
        data, _, g = synthesize(ec.data["synthetic"])
        grid = enumerate_grid(DiscreteGridPrior(d=net.d, M=ec.M, K=net.K))
        psi = grid_psi_table(net, grid, data.X)
        for N in [2, 4, 8, 16, data.N]:
            b = resolve_beta(ec.beta, net, data, N)
            snaps, _ = sequential_discrete_posteriors(net, grid, data, N, b)
            ref = regret_ledger(snaps[:-1], net, data, g[:N], b)
            [got] = streamed_regret_ledger(net, psi[:N], data.y[:N], g[:N], [(N, b)])
            assert len(got.records) == N
            for r, s in zip(ref.records, got.records):
                assert r.n == s.n
                for field in ("r_square", "r_rand", "r_log", "lambda_n"):
                    assert abs(getattr(r, field) - getattr(s, field)) < 1e-12
            for field in ("R_square", "R_rand", "R_log", "Lambda_sq"):
                assert abs(getattr(ref, field) - getattr(got, field)) < 1e-12
            if N in written:
                assert abs(written[N] - ref.R_square) < 1e-12

    @pytest.mark.parametrize("N", [256, 200, 1])
    def test_one_pass_equals_per_prefix_ledgers(self, N):
        cfg_dict = json.loads(json.dumps(self.CONFIG_EXACT))
        cfg_dict["data"]["synthetic"]["N"] = N
        ec = ExperimentConfig.from_dict(cfg_dict)
        net = ec.network
        data, _, g = synthesize(ec.data["synthetic"])
        grid = enumerate_grid(DiscreteGridPrior(d=net.d, M=ec.M, K=net.K))
        # the prefixes of `lccnn regret`: the dyadic N_d (N = 1 alone), then N
        dyadic = [1] if N == 1 else [2 ** k for k in range(1, N.bit_length())]
        prefixes = [(n, resolve_beta(ec.beta, net, data, n)) for n in dyadic]
        if dyadic[-1] != N:
            prefixes.append((N, resolve_beta(ec.beta, net, data, N)))
        got = streamed_regret_ledger(net, grid_psi_table(net, grid, data.X), data.y, g,
                                     prefixes)
        _, f_rows = product_f_table(net, grid, data.X)
        want = tuple(_per_prefix_ledger(net, f_rows[:n], data.y[:n], g[:n], b)
                     for n, b in prefixes)
        assert len(got) == len(want) == len(dyadic) + (dyadic[-1] != N)
        for led, ref in zip(got, want):
            assert led.records == ref.records
            for field in ("R_square", "R_rand", "R_log", "Lambda_sq"):
                assert getattr(led, field) == getattr(ref, field)

    def test_traced_peak_is_O_P(self, tmp_path):
        # the (N, P) f table alone took 34 MB at this config
        cfg_path = _write(tmp_path / "cfg.json", self.CONFIG_EXACT)
        assert main(["--output-dir", str(tmp_path / "warm"), "regret", "--config", cfg_path]) == 0
        tracemalloc.start()
        try:
            assert main(["--output-dir", str(tmp_path / "run"), "regret",
                         "--config", cfg_path]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_output_dir_precedence(self, tmp_path, monkeypatch):
        # the --output-dir flag, then the config's output_dir, then
        # $LCCNN_OUT_DIR, then the working directory
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(ENV_OUT_DIR, "envout")
        with_dir = _write(tmp_path / "with.json", dict(self.CONFIG, output_dir="cfgout"))
        without = _write(tmp_path / "without.json", self.CONFIG)
        for argv, where in ((["--output-dir", "flagout", "regret", "--config", with_dir],
                             "flagout"),
                            (["regret", "--config", with_dir], "cfgout"),
                            (["regret", "--config", without], "envout")):
            assert main(argv) == 0
            assert len(list((tmp_path / where).glob("ledger_*.csv"))) == 1, where
        monkeypatch.delenv(ENV_OUT_DIR)
        assert main(["regret", "--config", without]) == 0
        assert len(list(tmp_path.glob("ledger_*.csv"))) == 1
        (tmp_path / "taken").write_text("")  # a file where the directory should go
        taken = _write(tmp_path / "taken.json", dict(self.CONFIG, output_dir="taken/out"))
        assert main(["regret", "--config", taken]) == 2

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path = _write(tmp_path / "cfg.json", self.CONFIG_K2)
        outputs = []
        for run in ("a", "b"):
            main(["--output-dir", str(tmp_path / run), "regret", "--config", cfg_path])
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / run).iterdir()})
        assert len(outputs[0]) == 2 and outputs[0] == outputs[1]

"""Config fuzzing: a valid config with one node replaced by an arbitrary JSON
value is either accepted or refused with a ConfigError (exit code 2), never
answered with another exception."""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lccnn.cli import (  # noqa: E402
    ConfigError,
    ExperimentConfig,
    _get_data,
    main,
    save_dataset_csv,
    synthesize,
)

SCALARS = (st.none() | st.booleans() | st.sampled_from([0, 1, -1])
           | st.integers(-3, 64) | st.floats(-1e3, 1e3)
           | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=4))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                    max_leaves=6)

TEACHER_DATA = {"N": 6, "d": 2, "seed": 3,
                "g": {"kind": "teacher", "K": 1, "V": 1.0, "activation": {"kind": "tanh"},
                      "weights": [[0.25, -0.5]]},
                "noise": {"kind": "gaussian", "sigma": 0.1}}
COSINE_DATA = {"N": 8, "d": 2, "seed": 1,
               "g": {"kind": "cosine", "amplitude": 0.5, "frequency": 2.0},
               "noise": {"kind": "bounded", "range": 0.2}}
SAMPLER = {"outer": {"step_size": 0.3, "iterations": 20, "burn_in": 5, "thinning": 2},
           "inner": {"step_size": 0.3, "iterations": 10, "burn_in": 2,
                     "adapt_step": False},
           "conditional": {"step_size": 0.3, "iterations": 10, "burn_in": 2},
           "n": 4, "n_xi": 2}
BOUNDS_INPUTS = {"a0": 1.0, "a1": 1.0, "a2": 1.0, "V": 1.0, "b": 1.0, "sigma": 1.0,
                 "C_N": 2.0, "d": 2, "N": 100, "M": 3, "K": 3, "beta": 1.0,
                 "non_odd": False}


def _sample_config(data: dict) -> dict:
    return {"network": {"K": 1, "d": 2, "V": 1.0, "activation": {"kind": "tanh", "a": 1.0,
                                                                 "c": 1.0}},
            "prior": {"kind": "continuous"}, "data": data,
            "beta": {"mode": "fixed", "value": 2.0}, "sampler": SAMPLER, "seed": 3,
            "output_dir": "out"}


def _regret_config(data: dict) -> dict:
    return {"network": {"K": 2, "d": 2, "V": 1.0,
                        "activation": {"kind": "squared_relu", "a": 1.0}, "signs": [1, -1]},
            "prior": {"kind": "discrete", "M": 1}, "data": data,
            "beta": {"mode": "fourth-root", "b": 0.5}, "seed": 1}


def _paths(node, prefix=()):
    """Every node below the root, as a key/index path."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _replaced(config, path, value):
    out = json.loads(json.dumps(config))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def experiment_configs(workdir):
    csv_path = workdir / "data.csv"
    save_dataset_csv(csv_path, synthesize(TEACHER_DATA)[0])
    path_data = {"path": str(csv_path)}
    return [_sample_config(TEACHER_DATA), _sample_config(path_data),
            _regret_config(COSINE_DATA), _regret_config(path_data)]


@settings(max_examples=1500, derandomize=True, deadline=None)
@given(draw=st.data())
def test_experiment_config_refuses_only_with_config_error(experiment_configs, draw):
    config = draw.draw(st.sampled_from(experiment_configs))
    path = draw.draw(st.sampled_from(list(_paths(config))))
    bad = _replaced(config, path, draw.draw(JSON))
    try:
        _get_data(ExperimentConfig.from_dict(bad))
    except ConfigError:
        pass


@settings(max_examples=600, derandomize=True, deadline=None)
@given(key=st.sampled_from(sorted(BOUNDS_INPUTS)), value=JSON)
def test_bounds_exit_0_or_2(workdir, key, value):
    inputs = workdir / "inputs.json"
    inputs.write_text(json.dumps(_replaced(BOUNDS_INPUTS, (key,), value)))
    assert main(["--output-dir", str(workdir / "out"), "bounds",
                 "--inputs", str(inputs)]) in (0, 2)

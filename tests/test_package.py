"""Package surface: every exported name exists, and every committed benchmark
record carries the fields a speed claim needs."""

import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import lccnn

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(lccnn.__path__)])
def test_all_names_exist(name):
    module = importlib.import_module(f"lccnn.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_fields(path):
    record = json.loads(path.read_text())
    assert {"claim", "parent_commit", "machine", "protocol", "runs"} <= set(record)
    assert {"cores", "python", "numpy"} <= set(record["machine"])
    assert record["runs"]
    for workload, pairs in record["runs"].items():
        assert pairs, workload
        for pair in pairs:
            for side in ("parent", "change"):
                assert isinstance(pair[side]["correct"], bool), (workload, pair["seed"])
                assert isinstance(pair[side]["failed"], int), (workload, pair["seed"])

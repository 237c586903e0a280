"""Package surface: every exported name exists, every committed benchmark
record carries the fields a speed claim needs, and the byte-identity digest
tool runs."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
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


def test_output_digests_tool_prints_26_digests():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digests.py")],
                         env=env, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 26
    assert all(re.fullmatch(r"[0-9a-f]{64} \S.*", line) for line in lines), lines
    labels = [line[65:] for line in lines]
    assert len(set(labels)) == len(labels)

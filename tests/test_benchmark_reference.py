"""Every op the benchmark compares with its stored reference must pass its
checks here first: an output the benchmark would call incorrect fails the
test suite."""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_full_reference_ops_pass_their_checks(monkeypatch, tmp_path):
    wl = _workloads(monkeypatch)
    reference = json.loads((PERFBENCH / "reference.json").read_text())["full"]
    problems = {}
    for op in wl.reference_ops("full", tmp_path):
        _, failed = wl.check(op, op.call(), reference)
        if failed:
            problems[op.name] = failed
    assert problems == {}

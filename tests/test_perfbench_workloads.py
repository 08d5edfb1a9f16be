"""perfbench's workloads drive the package through dataclasses.replace on
FuzzyModel, cli.main, parse_document and decision_possibility; one op of
each workload, with its checks, guards that use of the package."""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def load_workloads(monkeypatch):
    # workloads.py imports checks.py from its own directory
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["decide", "arbitrate", "surface", "model_swap"])
def test_one_op_of_each_workload_passes_its_checks(monkeypatch, tmp_path, name):
    workloads = load_workloads(monkeypatch)
    goldens = {k: (GOLDEN / f"fig{k:02d}.csv").read_text(encoding="utf-8") for k in range(7, 12)}
    workload = workloads.WORKLOADS[name](1234, tmp_path, goldens)
    workload.warmup(workload.warmup_input())
    # op 0 is one that the decide and model_swap workloads also check against the oracle
    item = workload.make_input(0)
    assert workload.check(0, item, workload.op(item)) == []

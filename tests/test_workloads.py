"""The benchmark's workloads (perfbench/workloads.py) call the package's
public API; a signature they rely on that changes fails here, in one small
operation per workload, instead of as failed benchmark operations."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["descent", "transverse", "zones"])
def test_first_operation_passes_its_check(name):
    workload = _workloads_module().WORKLOADS[name](1)
    task = workload.make_tasks(0)[0]
    result, out = workload.run(task, lambda kind: None)
    assert result.valid, result.stop
    assert workload.check(task, result, out) == []

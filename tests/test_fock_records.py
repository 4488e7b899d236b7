"""The benchmark's correctness gate for the Fock path, run as a test.

``fock_record`` of ``perfbench/worker.py`` squeezes with both backends
at dims 60-240 and runs the coupling conjugation chain on seeded inputs;
``check_fock`` of ``perfbench/workloads.py`` bounds the analytic closure
residual and the chain coefficients.  Both modules are read from the
benchmark directory, not copied.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    workloads = _load("perfbench_workloads", _PERFBENCH / "workloads.py")
    # worker.py imports its sibling as a top-level module
    saved = sys.modules.get("workloads")
    sys.modules["workloads"] = workloads
    try:
        worker = _load("perfbench_worker", _PERFBENCH / "worker.py")
    finally:
        if saved is None:
            del sys.modules["workloads"]
        else:
            sys.modules["workloads"] = saved
    return workloads, worker


@pytest.mark.parametrize("index", [0, 1])
def test_fock_record_passes_the_benchmark_checks(perfbench, index):
    workloads, worker = perfbench
    inputs = workloads.fock_inputs(0, index)
    assert workloads.check_fock(inputs, worker.fock_record(inputs)) == []

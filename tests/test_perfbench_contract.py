"""The benchmark's calls into the solver keep working.

``perfbench/workloads.py`` builds its instances through ``PolyRing.poly`` and
checks every answer against the oracle through the exponent-tuple boundary.
A change to the solver's representation that breaks those calls would
otherwise show only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from midgb import EngineConfig, groebner_basis, read_trace

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_instance_passes_the_benchmark_check(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inst = workloads.setup(workload, 1)[0]
    path = tmp_path / "run.trace"
    config = EngineConfig(inst.ring, engine=workload.engine, trace_path=path)
    report = groebner_basis(inst.polys, config)
    assert workloads.check(inst, report, read_trace(path)) == []

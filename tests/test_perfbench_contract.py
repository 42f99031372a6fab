"""The benchmark's calls into the solver keep working.

``perfbench/workloads.py`` builds its instances through ``PolyRing.poly`` and
checks every answer against the oracle through the exponent-tuple boundary;
``perfbench/spans.py`` wraps solver functions and methods by name for the
traced per-layer split. A change to the solver that breaks those calls or
renames a wrapped name would otherwise show only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from midgb import EngineConfig, groebner_basis, read_trace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_instance_passes_the_benchmark_check(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inst = workloads.setup(workload, 1)[0]
    path = tmp_path / "run.trace"
    config = EngineConfig(inst.ring, engine=workload.engine, trace_path=path)
    report = groebner_basis(inst.polys, config)
    assert workloads.check(inst, report, read_trace(path)) == []


def test_every_traced_layer_resolves():
    spans = _load("spans")
    patches = spans.layer_patches(spans.Tracer())  # AttributeError on a lost name
    assert len(patches) >= len(spans.LAYERS)

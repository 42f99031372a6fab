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


@pytest.mark.parametrize("name", ["mq-gf2-f4", "eco-gf3-f4"])
def test_traced_matrix_counts_are_the_round_records(name):
    # the benchmark reads the matrix size from the shape before reduce() and
    # the zero rows from its result; both must stay the traced round figures
    spans = _load("spans")
    tracer = spans.Tracer()
    workload = workloads.WORKLOADS[name]
    inst = workloads.setup(workload, 1)[0]
    with spans.patched(spans.layer_patches(tracer)):
        report = groebner_basis(inst.polys, EngineConfig(inst.ring, engine=workload.engine))
    rounds = report.rounds
    assert rounds and all(tr.matrix_rows is not None for tr in rounds)
    assert tracer.counts["f4.MacaulayMatrix.reduce"] == {
        "rows": sum(tr.matrix_rows for tr in rounds),
        "cells": sum(tr.matrix_rows * tr.matrix_cols for tr in rounds),
        "zero_rows": sum(tr.zero_rows for tr in rounds),
    }


@pytest.mark.parametrize("name", ["mq-gf2-f4", "eco-gf3-f4"])
def test_traced_runs_reach_renew_and_interreduce(name):
    # a layer that a rewrite stops calling reads 0 and shows nothing
    spans = _load("spans")
    tracer = spans.Tracer()
    workload = workloads.WORKLOADS[name]
    inst = workloads.setup(workload, 1)[0]
    with spans.patched(spans.layer_patches(tracer)):
        groebner_basis(inst.polys, EngineConfig(inst.ring, engine=workload.engine))
    calls = {layer: row["calls"] for layer, row in tracer.summary().items()}
    assert calls.get("midsolve.renew", 0) > 0
    assert calls.get("poly.interreduce", 0) > 0
    assert calls["midsolve.renew"] <= calls["midsolve.find_unique_root_polys"]

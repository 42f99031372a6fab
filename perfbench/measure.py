"""One benchmark run: set-up, timed passes, checks, and the report.

A pass solves every instance of the workload once. After one warm-up call,
timed calls go round the instances until the next would end past
``--seconds``; ``--trace 1`` instead runs whole passes in which each
instance is solved plain and then traced. Each timed call follows a block of the
reference computation, timed on its own, that end-to-end times are divided
by. Only the solver call and the reference block are timed. The answer
check, the trace parse and the repeat check run between calls.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy

import reference
import spans
import workloads
from midgb import EngineConfig, groebner_basis, read_trace

SETUPS = 3  # set-ups per run; setup_s is their median
ROOT_SPAN = "api.groebner_basis"  # the solver call; its self time is the unnamed rest
LAYER_NAMES = (ROOT_SPAN, *spans.LAYERS)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "solve_ref_p50": "ref",
    "first_event_ref_p50": "ref",
    "first_event_round_mean": "rounds",
    "peak_rss_mb": "MB",
}


def _count(layer, key):
    return lambda L: L[layer].get(key, 0)


def _ratio(layer, num, den):
    return lambda L: L[layer].get(num, 0) / L[layer][den] if L[layer].get(den) else 0.0


# per-layer metrics besides each layer's calls, self_s and total_s
LAYER_EXTRAS = {
    "f4.symbolic_preprocess.rows": ("count", _count("f4.symbolic_preprocess", "rows")),
    "f4.MacaulayMatrix.reduce.cells": ("count", _count("f4.MacaulayMatrix.reduce", "cells")),
    "f4.MacaulayMatrix.reduce.zero_row_ratio": (
        "ratio",
        _ratio("f4.MacaulayMatrix.reduce", "zero_rows", "rows"),
    ),
    "runner.RunState.insert_new.kept_ratio": (
        "ratio",
        _ratio("runner.RunState.insert_new", "kept", "calls"),
    ),
    "engine.update.queue_delta": ("count", _count("engine.update", "queue_delta")),
    "engine.PairQueue.select.pairs": ("count", _count("engine.PairQueue.select", "pairs")),
    "midsolve.find_unique_root_polys.found": (
        "count",
        _count("midsolve.find_unique_root_polys", "found"),
    ),
    "trace.TraceWriter.lines": ("count", _count("trace.TraceWriter", "lines")),
}

PER_LAYER_UNITS = {
    **{f"{n}.{k}": u for n in LAYER_NAMES for k, u in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))},
    **{k: unit for k, (unit, _) in LAYER_EXTRAS.items()},
    "tracing_overhead_frac": "ratio",
}


@dataclass
class Call:
    instance: str
    traced: bool
    timed: bool  # untraced and not the warm-up call
    seconds: float
    first_event_s: float  # to the first solved trace line, or to the return
    first_event_round: int  # of the first solved event, or the last round
    had_event: bool
    solved_frac: float
    problems: list = field(default_factory=list)


def signature(report, records) -> dict:
    """What must repeat exactly for one instance."""
    basis = "\n".join(str(p) for p in report.basis).encode()
    return {
        "status": report.status.value,
        "rounds": report.total_rounds,
        "first_event_round": report.events[0].round if report.events else None,
        "solved": len(report.assignments),
        "cells": sum(
            r.matrix_rows * r.matrix_cols for r in report.rounds if r.matrix_rows is not None
        ),
        "basis": hashlib.sha256(basis).hexdigest()[:16],
        "trace_lines": len(records),
    }


class Run:
    def __init__(self, workload, instances, seconds, traced, tmpdir):
        self.workload = workload
        self.instances = instances
        self.seconds = seconds
        self.tmpdir = tmpdir
        self.clock = {}  # the first-event hook's stamp for the current call
        self.calls: list = []
        self.sigs: dict = {}  # instance -> signature of its first call
        self.walls = {False: [], True: []}  # pass wall times, plain and traced
        self.reference_s: list = []  # one per timed call, from the block run before it
        self.layer_passes: list = []  # per traced pass: layer -> calls, times, counts
        self.problems: list = []  # not tied to one call
        self.tracer = spans.Tracer() if traced else None

    def call(self, inst, solve, traced, timed=False) -> int:
        path = self.tmpdir / f"{inst.name}.trace"
        cfg = EngineConfig(inst.ring, engine=self.workload.engine, trace_path=path)
        polys = list(inst.polys)
        if timed:
            self.reference_s.append(reference.block())
        self.clock["at"] = None
        start = perf_counter()
        report = solve(polys, cfg)
        seconds = perf_counter() - start
        first_at = self.clock["at"]

        records = read_trace(path)
        problems = workloads.check(inst, report, records)
        sig = signature(report, records)
        known = self.sigs.setdefault(inst.name, sig)
        if sig != known:
            problems.append(f"nondeterminism: {sig} after {known}")
        self.calls.append(
            Call(
                inst.name,
                traced,
                timed,
                seconds,
                first_at - start if first_at is not None else seconds,
                sig["first_event_round"] or sig["rounds"],
                first_at is not None,
                sig["solved"] / inst.ring.n,
                problems,
            )
        )
        return len(records)

    def round_robin(self, deadline):
        """Timed calls in pass order, one full pass at least, until ``deadline``.

        The run stops before a call that would end past the deadline, judged
        by that instance's previous call, so the last pass may be partial.
        """
        last = {}
        for k in itertools.count():
            inst = self.instances[k % len(self.instances)]
            if inst.name in last and perf_counter() + last[inst.name] > deadline:
                break
            self.call(inst, groebner_basis, False, True)
            last[inst.name] = self.calls[-1].seconds + self.reference_s[-1] * reference.REPS

    def traced_pass(self, patches, solve):
        """Each instance solved plain, then at once traced, so the pair shares the host's load."""
        tracer = self.tracer
        first_span = len(tracer.spans)
        walls = {False: 0.0, True: 0.0}
        lines = 0
        for inst in self.instances:
            self.call(inst, groebner_basis, False, True)
            walls[False] += self.calls[-1].seconds
            with spans.patched(patches):
                tracer.instance = inst.name
                lines += self.call(inst, solve, True)
            walls[True] += self.calls[-1].seconds
        for traced, wall in walls.items():
            self.walls[traced].append(wall)
        layers = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in LAYER_NAMES}
        for name, row in tracer.summary(first_span).items():
            layers[name].update(row)
        for name, counts in tracer.take_counts().items():
            layers[name].update(counts)
        layers["trace.TraceWriter"]["lines"] = lines
        self.layer_passes.append(layers)

    def measure(self):
        with spans.patched(spans.first_event_patch(self.clock)):
            if self.tracer:
                patches = spans.layer_patches(self.tracer)
                solve = self.tracer.wrap(ROOT_SPAN, groebner_basis)
            self.call(self.instances[0], groebner_basis, False)  # warm-up: checked, not timed
            start = perf_counter()
            if not self.tracer:
                self.round_robin(start + self.seconds)
            rounds = 0
            while self.tracer:
                self.traced_pass(patches, solve)
                rounds += 1
                elapsed = perf_counter() - start
                if elapsed * (rounds + 1) / rounds > self.seconds:
                    break
        counts = [layer_counts(p) for p in self.layer_passes]
        if any(c != counts[0] for c in counts[1:]):
            self.problems.append("nondeterminism in per-layer counts across passes")

    def timings(self) -> dict:
        """Timed calls in seconds: means per instance, and the reference's mean."""
        by_instance: dict = {}
        for c in self.calls:
            if c.timed:
                by_instance.setdefault(c.instance, []).append(c)
        solve = [statistics.fmean(c.seconds for c in cs) for cs in by_instance.values()]
        first = [statistics.fmean(c.first_event_s for c in cs) for cs in by_instance.values()]
        return {
            "reference_s": statistics.fmean(self.reference_s),
            "wall_s": sum(solve),
            "solve_s_p50": statistics.median(solve),
            "first_event_s_p50": statistics.median(first),
        }

    def end_to_end(self, setup_times) -> dict:
        sec = self.timings()
        ref = sec["reference_s"]
        return {
            "setup_s": statistics.median(setup_times),
            "wall_ref": sec["wall_s"] / ref,
            "solve_ref_p50": sec["solve_s_p50"] / ref,
            "first_event_ref_p50": sec["first_event_s_p50"] / ref,
            "first_event_round_mean": statistics.mean(
                {c.instance: c.first_event_round for c in self.calls}.values()
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict:
        passes = []
        for L in self.layer_passes:
            values = {f"{n}.{k}": L[n][k] for n in LAYER_NAMES for k in ("calls", "self_s", "total_s")}
            values.update({k: f(L) for k, (_, f) in LAYER_EXTRAS.items()})
            passes.append(values)
        out = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
        out["tracing_overhead_frac"] = (
            statistics.median(self.walls[True]) / statistics.median(self.walls[False]) - 1
        )
        return out


def layer_counts(layers) -> dict:
    """A traced pass without its times; it must repeat exactly."""
    return {
        name: {k: v for k, v in row.items() if not k.endswith("_s")}
        for name, row in layers.items()
    }


def source_digest(src: Path) -> str:
    """Names the code under test: the solver's and the benchmark's sources."""
    h = hashlib.sha256()
    for d in (src, Path(__file__).resolve().parent):
        for path in sorted(d.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_history(path: Path, run: Run) -> None:
    """Compare with what earlier runs of the same code and seed recorded, then add to it."""
    old = json.loads(path.read_text()) if path.exists() else {}
    seen = old.get("instances", {})
    for c in run.calls:
        if c.instance in seen and seen[c.instance] != run.sigs[c.instance]:
            c.problems.append(f"nondeterminism across runs: {run.sigs[c.instance]} after {seen[c.instance]}")
    new = {"instances": {**seen, **run.sigs}}
    layers = layer_counts(run.layer_passes[0]) if run.layer_passes else None
    if layers is not None and old.get("layers") not in (None, layers):
        run.problems.append("nondeterminism across runs in per-layer counts")
    if old.get("layers") or layers:
        new["layers"] = old.get("layers") or layers
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(new, sort_keys=True))
    os.replace(tmp, path)


def main(args, import_s: float, root: Path) -> int:
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        known = ", ".join(workloads.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    setup_times, builds = [], []
    for _ in range(SETUPS):
        start = perf_counter()
        builds.append(workloads.setup(workload, args.seed))
        setup_times.append(import_s + perf_counter() - start)
    instances = builds[0]

    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        run = Run(workload, instances, args.seconds, bool(args.trace), Path(tmp))
        if any(b != instances for b in builds[1:]):
            run.problems.append("nondeterminism: set-ups built different instances")
        run.measure()
    digest = source_digest(root / "src" / "midgb")
    check_history(out_dir / f"repeat-{args.workload}-seed{args.seed}-{digest}.json", run)
    if run.tracer:
        run.tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    if args.trace:
        metrics, units = run.per_layer(), PER_LAYER_UNITS
    else:
        metrics, units = run.end_to_end(setup_times), END_TO_END_UNITS
    attempted = len(run.calls)
    failed = attempted if run.problems else sum(1 for c in run.calls if c.problems)
    timed = [c for c in run.calls if c.timed]

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"python={platform.python_version()} numpy={numpy.__version__} nproc={os.cpu_count()} "
        f"source={digest}"
    )
    print(f"instances: {', '.join(i.name for i in instances)} ({workload.engine})")
    print(
        f"calls {attempted}: 1 warm-up, {len(timed)} timed "
        f"({sum(c.had_event for c in timed)} with a solve event), "
        f"{sum(c.traced for c in run.calls)} traced; failed_frac {failed / attempted:.3f}; "
        f"solved_frac {statistics.mean(c.solved_frac for c in timed):.3f}"
    )
    if timed:
        print("seconds: " + ", ".join(f"{k} {v:.6g}" for k, v in run.timings().items()))
    for p in run.problems:
        print(f"FAILED {p}")
    for c in run.calls:
        for p in c.problems:
            print(f"FAILED {c.instance}: {p}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:>14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 1 if failed else 0

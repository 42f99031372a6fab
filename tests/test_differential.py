"""Every engine configuration against the exhaustive oracle.

Random systems with a planted zero (or none) run under engine x order x
field equations x middle solving, and each answer is judged by the
benchmark's own check (``perfbench/workloads.check``): status, assignments,
solve events, the zero set of basis plus assignments, and the trace's
terminal record.
"""

import importlib.util
import random
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from midgb import EngineConfig, PolyRing, Status, brute_force_solutions, groebner_basis, read_trace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")

LARGE_PRIME = 65537  # past 2**16, so field equations are refused


def planted_system(ring, rng, plant: bool) -> list:
    """n + 1 random polynomials of degree at most 2, each shifted to vanish at
    one random point when ``plant`` is set."""
    n, q = ring.n, ring.q
    point = [rng.randrange(q) for _ in range(n)]
    polys = []
    for _ in range(n + 1):
        pairs = []
        for _ in range(rng.randint(1, 4)):
            mono = [0] * n
            for _ in range(rng.randint(0, 2)):
                mono[rng.randrange(n)] += 1
            pairs.append((tuple(mono), rng.randrange(1, q)))
        f = ring.poly(pairs)
        if plant:
            f = f - ring.constant(f.evaluate(point))
        if not f.is_zero:
            polys.append(f)
    return polys


@settings(max_examples=300, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5, 7, LARGE_PRIME]),
    order=st.sampled_from(["lex", "grevlex"]),
    engine=st.sampled_from(["f4", "buchberger", "incremental"]),
    field_eqs=st.booleans(),
    middle=st.booleans(),
    plant=st.booleans(),
    seed=st.integers(0, 2**32),
)
@example(q=LARGE_PRIME, order="grevlex", engine="f4", field_eqs=False, middle=True, plant=True, seed=1)
@example(q=LARGE_PRIME, order="lex", engine="buchberger", field_eqs=False, middle=True, plant=False, seed=2)
def test_every_configuration_agrees_with_the_oracle(
    q, order, engine, field_eqs, middle, plant, seed
):
    n = {2: 3, 3: 3, 5: 2, 7: 2}.get(q, 1)  # the oracle enumerates q**n points
    field_eqs = field_eqs and q <= 2**16
    ring = PolyRing(q, [f"x{i}" for i in range(1, n + 1)], order)
    polys = planted_system(ring, random.Random(seed), plant)
    inst = workloads.Instance("differential", ring, tuple(polys), frozenset(brute_force_solutions(polys, ring)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.trace"
        config = EngineConfig(
            ring, engine=engine, middle_solving=middle, adjoin_field_eqs=field_eqs, trace_path=path
        )
        report = groebner_basis(polys, config)
        records = read_trace(path)
    problems = workloads.check(inst, report, records)
    if not (field_eqs and middle) and report.status is Status.GROEBNER_BASIS:
        # The benchmark runs with both on. Without middle solving a system
        # with no zero completes to the basis {1}; without field equations
        # its zeros may lie in an extension field only. Either way the
        # zero-set rule still requires a basis with no GF(q)-rational zero.
        problems = [p for p in problems if not p.endswith("oracle has no zero")]
    assert problems == []

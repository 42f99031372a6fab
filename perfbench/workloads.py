"""The benchmark's workloads: instance sets, their oracle and the answer check.

Every workload is a fixed list of instances solved in order once per pass.
Instances are built from the workload seed alone; the solver only ever sees
the generated polynomials. The exhaustive oracle runs at set-up, so the check
after each call costs only a small exhaustive evaluation of the returned
basis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from midgb import (
    BenchSpec,
    PolyRing,
    Status,
    brute_force_solutions,
    gen_system,
)


@dataclass(frozen=True)
class Instance:
    name: str
    ring: PolyRing
    polys: tuple
    solutions: frozenset  # the oracle's zero set over GF(q)^n


@dataclass(frozen=True)
class Workload:
    engine: str
    build: object  # seed -> list of (name, ring, polys)


def planted_mq(n: int, rng: random.Random, name: str):
    """A GF(2) quadratic system with m = n equations and a planted zero.

    Each equation has every square-free quadratic and every linear monomial
    with probability 1/2, plus the constant that makes a point drawn first
    a zero. Other zeros may exist; the oracle finds them all.
    """
    ring = PolyRing(2, [f"x{i}" for i in range(1, n + 1)], "grevlex")
    point = [rng.randrange(2) for _ in range(n)]
    polys = []
    for _ in range(n):
        pairs = []
        value = 0
        for i in range(n):
            for j in range(i, n):  # j == i is the linear term x_i (x_i^2 = x_i)
                if rng.randrange(2):
                    mono = [0] * n
                    mono[i] += 1
                    if j != i:
                        mono[j] += 1
                    pairs.append((tuple(mono), 1))
                    value ^= point[i] & point[j]
        pairs.append(((0,) * n, value))
        polys.append(ring.poly(pairs))
    return name, ring, tuple(polys)


def _mq_set(n: int, count: int):
    def build(seed: int):
        rng = random.Random(seed)
        return [planted_mq(n, rng, f"mq{n}-{k}") for k in range(count)]

    return build


def _family_set(family: str, q: int, sizes):
    """Fixed family instances; the seed only rotates the order they run in."""

    def build(seed: int):
        out = []
        for n in sizes:
            ring, polys = gen_system(BenchSpec(family, n, q))
            out.append((f"{family}-{n}", ring, tuple(polys)))
        k = seed % len(out)
        return out[k:] + out[:k]

    return build


# Sizes are set so one call takes about a second or less here, which lets the
# reference blocks between calls sample the host's load as the calls feel it
# (see ``reference``), and the seeded sets hold enough instances that their
# medians move little from one seed to the next. Odd counts keep a median on
# one instance rather than between two.
WORKLOADS = {
    "mq-gf2-f4": Workload("f4", _mq_set(10, 25)),
    "eco-gf3-f4": Workload("f4", _family_set("eco", 3, (8, 9, 10))),
    "cyclic-gf3-buchberger": Workload("buchberger", _family_set("cyclic", 3, (6,))),
    "mq-gf2-incremental": Workload("incremental", _mq_set(7, 41)),
}


def setup(workload: Workload, seed: int) -> list:
    """Generate the workload's instances and enumerate each one's zero set."""
    out = []
    for name, ring, polys in workload.build(seed):
        sols = brute_force_solutions(polys, ring)
        out.append(Instance(name, ring, polys, frozenset(sols)))
    return out


def check(inst: Instance, report, records) -> list:
    """Problems with one call's answer, judged against the oracle and its trace.

    ``records`` is the call's trace as ``read_trace`` parsed it.
    """
    ring = inst.ring
    names = ring.names
    sols = inst.solutions
    problems = []
    want = Status.INCONSISTENT if not sols else None
    if want is not None and report.status is not want:
        problems.append(f"status {report.status.value}, oracle has no zero")
    if sols and report.status in (Status.INCONSISTENT, Status.ROUND_LIMIT):
        problems.append(f"status {report.status.value}, oracle has {len(sols)} zeros")
    for var, val in report.assignments.items():
        if any(s[var] != val for s in sols):
            problems.append(f"{names[var]} = {val} is not forced by the oracle")
    if [(e.variable, e.value) for e in report.events] != list(report.assignments.items()):
        problems.append("events disagree with assignments")
    if report.status is Status.ALL_VARIABLES_SOLVED:
        point = tuple(report.assignments.get(i) for i in range(ring.n))
        if sols != {point}:
            problems.append("AllVariablesSolved, but the oracle disagrees")
    pinned = [
        ring.poly([(ring.var_monomial(var, 1), 1), (ring.unit_monomial(), -val)])
        for var, val in report.assignments.items()
    ]
    if brute_force_solutions(list(report.basis) + pinned, ring) != sols:
        problems.append("zero set of basis and assignments differs from the oracle")

    terminal = records[-1] if records else {}
    if terminal.get("status") != report.status.value:
        problems.append("trace terminal record has the wrong status")
    if terminal.get("assignments") != {names[v]: x for v, x in report.assignments.items()}:
        problems.append("trace terminal record has the wrong assignments")
    if terminal.get("total_rounds") != report.total_rounds:
        problems.append("trace terminal record has the wrong round count")
    solved = [(r["var"], r["value"]) for r in records if r.get("kind") == "solved"]
    if solved != [(names[e.variable], e.value) for e in report.events]:
        problems.append("trace solve events differ from the report")
    return problems

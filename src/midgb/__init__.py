"""Groebner-basis engines over prime fields that solve variables mid-run.

Three engines (pair-at-a-time, matrix-batch, incremental) share one core:
while the basis is being computed, freshly reduced polynomials are screened
for univariate members with a unique root; such variables are solved and
back-substituted immediately, events are flushed to a trace as they happen,
and a provably inconsistent system aborts the run early.

``groebner_basis(polys, config)`` is the one way to run an engine; the config
names it. This package exports that entry point and the names its demos,
command line and benchmark use; the building blocks stay importable from
their modules (``midgb.engine``, ``midgb.midsolve``, ``midgb.poly``,
``midgb.bench``, ``midgb.systems``).
"""

from .api import groebner_basis
from .bench import BenchSpec, brute_force_solutions, gen_system, solutions_from_report
from .engine import (
    EngineConfig,
    EngineReport,
    Status,
    adjoin_field_equations,
    field_polynomial,
)
from .errors import MidgbError, MonomialOverflowError, TooLargeError
from .poly import (
    Polynomial,
    PolyRing,
    field_reduce,
    interreduce,
    normal_form,
    s_polynomial,
)
from .trace import read_trace

__version__ = "0.1.0"

__all__ = [
    "BenchSpec",
    "EngineConfig",
    "EngineReport",
    "MidgbError",
    "MonomialOverflowError",
    "PolyRing",
    "Polynomial",
    "Status",
    "TooLargeError",
    "adjoin_field_equations",
    "brute_force_solutions",
    "field_polynomial",
    "field_reduce",
    "gen_system",
    "groebner_basis",
    "interreduce",
    "normal_form",
    "read_trace",
    "s_polynomial",
    "solutions_from_report",
]

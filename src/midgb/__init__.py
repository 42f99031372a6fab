"""Groebner-basis engines over prime fields that solve variables mid-run.

Three engines (pair-at-a-time, matrix-batch, incremental) share one core:
while the basis is being computed, freshly reduced polynomials are screened
for univariate members with a unique root; such variables are solved and
back-substituted immediately, events are flushed to a trace as they happen,
and a provably inconsistent system aborts the run early.
"""

from .api import groebner_basis
from .bench import (
    BenchSpec,
    brute_force_solutions,
    gen_system,
    random_system,
    solutions_from_lex_basis,
    solutions_from_report,
)
from .buchberger import buchberger_gb
from .engine import (
    CriticalPair,
    EngineConfig,
    EngineReport,
    PairQueue,
    RoundTrace,
    SolveEvent,
    Status,
    adjoin_field_equations,
    degree_monitor,
    field_polynomial,
    update,
)
from .errors import (
    BoundViolationError,
    ConflictingRootsError,
    EmptyBatchError,
    EmptyQueueError,
    InvalidSizeError,
    MidgbError,
    MonomialOverflowError,
    NonPrimeFieldError,
    OrderNotLexError,
    ParseError,
    TooLargeError,
    ZeroInputError,
    ZeroInverseError,
    ZeroPolynomialError,
)
from .f4 import MacaulayMatrix, f4_gb, symbolic_preprocess
from .gf import PrimeField, is_prime
from .incremental import incremental_gb
from .midsolve import (
    Assignment,
    find_unique_root_polys,
    inconsistency_check,
    renew,
    triangular_shape_check,
)
from .poly import (
    Polynomial,
    PolyRing,
    field_reduce,
    interreduce,
    is_field_polynomial,
    is_univariate,
    normal_form,
    s_polynomial,
    substitute,
    univariate_roots,
)
from .systems import format_polynomial, format_system, homogenize, parse_system
from .trace import TraceWriter, read_trace

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BenchSpec",
    "BoundViolationError",
    "ConflictingRootsError",
    "CriticalPair",
    "EmptyBatchError",
    "EmptyQueueError",
    "EngineConfig",
    "EngineReport",
    "InvalidSizeError",
    "MacaulayMatrix",
    "MidgbError",
    "MonomialOverflowError",
    "NonPrimeFieldError",
    "OrderNotLexError",
    "PairQueue",
    "ParseError",
    "Polynomial",
    "PolyRing",
    "PrimeField",
    "RoundTrace",
    "SolveEvent",
    "Status",
    "TooLargeError",
    "ZeroInputError",
    "ZeroInverseError",
    "ZeroPolynomialError",
    "adjoin_field_equations",
    "brute_force_solutions",
    "buchberger_gb",
    "degree_monitor",
    "f4_gb",
    "field_polynomial",
    "field_reduce",
    "find_unique_root_polys",
    "format_polynomial",
    "format_system",
    "gen_system",
    "groebner_basis",
    "homogenize",
    "inconsistency_check",
    "incremental_gb",
    "interreduce",
    "is_field_polynomial",
    "is_prime",
    "is_univariate",
    "normal_form",
    "parse_system",
    "random_system",
    "TraceWriter",
    "read_trace",
    "renew",
    "s_polynomial",
    "solutions_from_lex_basis",
    "solutions_from_report",
    "substitute",
    "symbolic_preprocess",
    "triangular_shape_check",
    "univariate_roots",
    "update",
]

"""Incremental frame: one input polynomial per round.

Start from the field equations alone, then feed inputs in one at a time into
one persistent run state. Each round substitutes the solved values into the
next input, reduces it against the current basis and inserts the remainder;
the matrix engine's rounds then drain the pair queue, so the pairs of the
basis completed so far are never rebuilt.

This is the paper's incremental way of middle solving: only each completed
intermediate basis is screened for forced variables (``RunState.completion``),
where the non-incremental engines also screen every reduced batch. Easy
equations still yield solved variables long before the whole system has been
read.
"""

from __future__ import annotations

# perfbench/spans.py wraps f4_core and buchberger_core by name in this module
from .buchberger import buchberger_core  # noqa: F401
from .engine import EngineConfig, EngineReport, RoundTrace, Status, adjoin_field_equations
from .f4 import f4_core, f4_round  # noqa: F401
from .poly import normal_form, substitute
from .runner import RunState
from .trace import TraceWriter


def _complete(state: RunState) -> None:
    """Drain the pair queue and screen, until the completed basis settles."""
    while True:
        while state.queue:
            f4_round(state)
        if state.completion():
            return


def incremental_core(polys, config: EngineConfig, tracer: TraceWriter) -> EngineReport:
    """The incremental engine: field equations first, then one input per round."""
    state = RunState(config, tracer)
    if config.adjoin_field_eqs:
        # a reduced basis all by themselves; completion only sorts them
        state.ingest_inputs(adjoin_field_equations([], config.ring))
        _complete(state)

    for i, f in enumerate(polys, start=1):
        if state.inconsistent:
            break
        if config.max_rounds is not None and i > config.max_rounds:
            return state.finish(Status.ROUND_LIMIT)
        state.round_no = i
        before = list(state.basis)
        for var, val in state.assignments.items():
            f = substitute(f, var, val)
        if state.ingest_inputs([normal_form(f, state.basis)]):
            _complete(state)

        fresh = [p for p in state.basis if p not in before]
        state.record_round(
            RoundTrace(
                round=i,
                new_polys=len(fresh),
                max_poly_degree=max((p.degree() for p in fresh), default=0),
            )
        )
    return state.finish(state.outcome() or Status.GROEBNER_BASIS)

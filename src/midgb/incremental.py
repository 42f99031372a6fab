"""Incremental frame: one input polynomial per round.

Start from the field equations alone, then feed inputs in one at a time into
one persistent run state. Each round substitutes the solved values into the
next input, reduces it against the current basis and stores the remainder
(``RunState.ingest_inputs``); the matrix engine's rounds, ``runner.f4_round``,
then drain the pair queue, so the pairs of the basis completed so far are
never rebuilt. ``runner.run_rounds`` runs the rounds while the run is
consistent and inputs remain: a run that has solved every variable still
reads the rest, which can prove it inconsistent.

This is the paper's incremental way of middle solving: only each completed
intermediate basis is screened for forced variables (``RunState.completion``),
where the non-incremental engines also screen every reduced batch. Easy
equations still yield solved variables long before the whole system has been
read.
"""

from __future__ import annotations

from .engine import EngineConfig, EngineReport, RoundTrace, adjoin_field_equations
from .poly import normal_form, substitute
# perfbench/spans.py wraps f4_core and buchberger_core by name in this module
from .runner import RunState, buchberger_core, f4_core, f4_round, run_rounds  # noqa: F401
from .trace import TraceWriter


def incremental_core(polys, config: EngineConfig, tracer: TraceWriter) -> EngineReport:
    """The incremental engine: field equations first, then one input per round."""
    state = RunState(config, tracer)
    state.batch_screening = False
    if config.adjoin_field_eqs:
        # a reduced basis with pairwise coprime heads, so no pair is queued;
        # reversed, they are in the ascending order completion would sort
        state.ingest_inputs(adjoin_field_equations([], config.ring)[::-1])

    def read_input(state: RunState) -> RoundTrace:
        before = set(state.basis)
        f = substitute(polys[state.round_no - 1], state.assignments)
        state.ingest_inputs([normal_form(f, state.basis, state.divisors)])
        while state.pairs_left():
            f4_round(state)
        fresh = [p for p in state.basis if p not in before]
        degree = max((p.degree() for p in fresh), default=0)
        return RoundTrace(round=state.round_no, new_polys=len(fresh), max_poly_degree=degree)

    return run_rounds(
        state, read_input, lambda: not state.inconsistent and state.round_no < len(polys)
    )

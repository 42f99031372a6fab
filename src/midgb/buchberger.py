"""Pair-at-a-time basis engine.

The classic loop: pick the minimal critical pair, form its S-polynomial,
fully reduce it against the current basis, and insert the remainder if it
is nonzero. Each nonzero remainder is screened for a forced variable before
insertion, so solving can start while the basis is still growing.
"""

from __future__ import annotations

from .engine import EngineConfig, EngineReport, RoundTrace, degree_monitor
from .poly import normal_form, s_polynomial
from .runner import RunState, run_rounds
from .trace import TraceWriter


def buchberger_round(state: RunState) -> RoundTrace:
    """One pair: S-polynomial, full reduction, screen, insert."""
    (pr,) = state.queue.select(batch=False)
    f = state.basis[pr.left]
    g = state.basis[pr.right]
    s = state.canon(s_polynomial(f, g))
    added = 0
    max_deg = 0
    if not s.is_zero:
        degree_monitor(s, state.ring, "created", state.field_active)
        # folding and scaling an irreducible remainder keep it irreducible
        reduced_at = state.renewals
        h = state.canon(normal_form(s, state.basis))
        if not h.is_zero:
            for p in state.screen_batch([h]):
                if state.inconsistent:
                    break
                kept = state.insert_new(p, reduced_at)
                if kept is not None:
                    added += 1
                    max_deg = max(max_deg, kept.degree())

    state.post_round_checks()
    return RoundTrace(
        round=state.round_no,
        pairs_selected=1,
        new_polys=added,
        max_poly_degree=max_deg,
    )


def buchberger_core(polys, config: EngineConfig, tracer: TraceWriter) -> EngineReport:
    """The pair engine: ``run_rounds`` with one critical pair per round."""
    return run_rounds(RunState(config, tracer), polys, buchberger_round)

"""Pair-at-a-time basis engine.

The classic loop: pick the minimal critical pair, form its S-polynomial,
fully reduce it against the current basis, and insert the remainder if it
is nonzero. Each nonzero remainder is screened for a forced variable before
insertion, so solving can start while the basis is still growing.
"""

from __future__ import annotations

from .engine import EngineConfig, EngineReport, RoundTrace, degree_monitor
from .poly import normal_form, s_polynomial
from .runner import RunState, prepare_inputs, run_rounds
from .trace import TraceWriter


def buchberger_round(state: RunState) -> RoundTrace:
    """One pair: S-polynomial, full reduction, screen, insert."""
    (pr,) = state.queue.select(state.ring, batch=False)
    f = state.basis.polys[pr.left]
    g = state.basis.polys[pr.right]
    s = state.canon(s_polynomial(f, g))
    added = 0
    max_deg = 0
    if not s.is_zero:
        degree_monitor(s, state.ring, "created", state.field_active)
        # folding and scaling an irreducible remainder keep it irreducible
        reduced_at = state.renewals
        h = state.canon(normal_form(s, state.basis.polys))
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
    """Run the pair engine on already-prepared inputs (no adjoining here)."""
    state = RunState(config, tracer)
    state.ingest_inputs(polys)
    return run_rounds(state, buchberger_round)


def buchberger_gb(polys, config: EngineConfig) -> EngineReport:
    """Compute a Groebner basis with the pair-at-a-time engine."""
    if config.engine != "buchberger":
        raise ValueError(f"config names engine {config.engine!r}, not 'buchberger'")
    prepared = prepare_inputs(polys, config)
    with TraceWriter(config.trace_path) as tracer:
        return buchberger_core(prepared, config, tracer)

"""Pair-at-a-time basis engine.

The classic loop: pick the minimal critical pair, form its S-polynomial,
fully reduce it against the current basis, and insert the remainder if it
is nonzero. Each nonzero remainder is screened for a forced variable before
insertion, so solving can start while the basis is still growing. The
engine's entry point, ``runner.buchberger_core``, runs this round.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .engine import RoundTrace, degree_monitor
from .poly import normal_form, s_polynomial

if TYPE_CHECKING:
    from .runner import RunState


def buchberger_round(state: RunState) -> RoundTrace:
    """One pair: S-polynomial, full reduction, then ``RunState.absorb``."""
    (pr,) = state.queue.select(batch=False)
    s = state.canon(s_polynomial(state.basis[pr.left], state.basis[pr.right]))
    batch = []
    if not s.is_zero:
        degree_monitor(s, state.ring, "created", state.field_active)
        # folding and scaling an irreducible remainder keep it irreducible
        h = state.canon(normal_form(s, state.basis, state.divisors))
        if not h.is_zero:
            batch = [h]
    return state.absorb(batch, RoundTrace(round=state.round_no, pairs_selected=1))

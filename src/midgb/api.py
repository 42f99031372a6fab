"""The one way to run an engine: ``groebner_basis``, dispatching on the config.

Each engine is a ``core(inputs, config, tracer)`` function. The front door
applies the input order, opens the trace, and calls the core that
``config.engine`` names; the cores adjoin the field equations themselves.
"""

from __future__ import annotations

from .engine import EngineConfig, EngineReport
from .incremental import incremental_core
from .poly import require_ring
from .runner import buchberger_core, f4_core
from .trace import TraceWriter

ENGINES = {
    "buchberger": buchberger_core,
    "f4": f4_core,
    "incremental": incremental_core,
}


def groebner_basis(polys, config: EngineConfig) -> EngineReport:
    """Run the engine that ``config.engine`` names on the input polynomials.

    Every input must be over ``config.ring``, else MixedRingsError.
    """
    inputs = list(polys)
    for p in inputs:
        require_ring(config.ring, p)
    if config.reverse_inputs:
        inputs = inputs[::-1]
    with TraceWriter(config.trace_path) as tracer:
        return ENGINES[config.engine](inputs, config, tracer)

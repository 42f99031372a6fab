"""The one way to run an engine: ``groebner_basis``, dispatching on the config.

Each engine is a ``core(inputs, config, tracer)`` function. The front door
applies the input order, opens the trace, and calls the core that
``config.engine`` names; the cores adjoin the field equations themselves.
"""

from __future__ import annotations

from .buchberger import buchberger_core
from .engine import EngineConfig, EngineReport
from .f4 import f4_core
from .incremental import incremental_core
from .trace import TraceWriter

ENGINES = {
    "buchberger": buchberger_core,
    "f4": f4_core,
    "incremental": incremental_core,
}


def groebner_basis(polys, config: EngineConfig) -> EngineReport:
    """Run the engine that ``config.engine`` names on the input polynomials."""
    inputs = list(polys)
    if config.reverse_inputs:
        inputs = inputs[::-1]
    with TraceWriter(config.trace_path) as tracer:
        return ENGINES[config.engine](inputs, config, tracer)

"""Feeding the engine one polynomial at a time.

The incremental engine keeps one growing basis and absorbs each input's
normal form in its own round, completing the basis with F4 rounds before it
reads the next input. This is the paper's incremental way of middle solving:
each completed intermediate basis is screened for forced variables, where
the batch engines screen every reduced batch. Solved variables propagate
into everything already stored, and a contradiction aborts the run before
later inputs are even looked at.
"""

from midgb import (
    BenchSpec,
    EngineConfig,
    PolyRing,
    Status,
    gen_system,
    groebner_basis,
    interreduce,
)

ring, system = gen_system(BenchSpec("eco", 6))

inc = groebner_basis(system, EngineConfig(ring, engine="incremental"))
print(f"eco-6, one input per round: {inc.total_rounds} rounds, "
      f"status {inc.status.value}")
for ev in inc.events:
    print(f"   round {ev.round}: {ring.names[ev.variable]} = {ev.value}")

full = groebner_basis(system, EngineConfig(ring))
print()
print("same final answer as a whole-system F4 run:")
print("   status match:", inc.status is full.status)
print("   assignment match:", inc.assignments == full.assignments)
print("   basis match:", interreduce(inc.basis) == interreduce(full.basis))

# --- early abort on contradiction --------------------------------------
r2 = PolyRing(2, ["x", "y", "z"], "grevlex")
x, y = r2.variable(0), r2.variable(1)
one = r2.one
contradictory = [x + one, x, y, y + one]  # inputs 1 and 2 already clash
rep = groebner_basis(contradictory, EngineConfig(r2, engine="incremental"))
print()
print("inputs [x + 1, x, y, y + 1]:", rep.status.value,
      f"after {rep.total_rounds} rounds")
assert rep.status is Status.INCONSISTENT
print("the clash x = 1 vs x = 0 stops the run; y's inputs were never needed,")
print("but x = 1 had already been emitted:", [
    f"{r2.names[ev.variable]}={ev.value}" for ev in rep.events
])

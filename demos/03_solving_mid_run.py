"""Solving variables while the basis is still being computed.

During an F4 run, any new basis member that is univariate with exactly one
root pins a variable. The engine substitutes the value everywhere at once,
drops the variable, and emits a solve event to the trace file immediately —
so even a run that is killed early has already leaked partial solutions.
"""

import os
import tempfile

from midgb import BenchSpec, EngineConfig, gen_system, groebner_basis, read_trace

ring, system = gen_system(BenchSpec("eco", 12))  # GF(2), grevlex

plain = groebner_basis(system, EngineConfig(ring, middle_solving=False))
print(f"plain F4 on eco-12: status {plain.status.value}, "
      f"{plain.total_rounds} rounds, basis size {len(plain.basis)}")

solving = groebner_basis(system, EngineConfig(ring))
print(f"with solving on:   status {solving.status.value}, "
      f"{solving.total_rounds} rounds")
for ev in solving.events:
    print(f"   round {ev.round}: {ring.names[ev.variable]} = {ev.value}")
first = min(ev.round for ev in solving.events)
print(f"first variable pinned at round {first}, "
      f"{plain.total_rounds - first} rounds before plain F4 finishes")

# --- the killed-run scenario -------------------------------------------
# Cap the run below plain completion. The trace file is flushed after every
# event, so whatever was solved before the cap is already on disk.
fd, path = tempfile.mkstemp(suffix=".trace")
os.close(fd)
capped = groebner_basis(system, EngineConfig(ring, max_rounds=first, trace_path=path))
print()
print(f"re-run capped at {first} round(s): status {capped.status.value}")
print("trace lines recovered from disk:")
for record in read_trace(path):
    if record.get("kind") == "solved":
        print(f"   {record}")
os.unlink(path)
print("a process killed at that point leaks exactly those assignments;")
print("with the strategy off, the same cap leaks nothing.")

"""Seeded trace sweep: SHA-256 digests over the trace bytes of two groups of runs.

The first group is 14,400 runs: 150 seeded random quadric systems
(``bench.random_system``, q in {2, 3, 5, 7}, 2-4 variables) under both
monomial orders, all three engines, middle solving and field equations each
on and off, and ``max_rounds`` in {None, 1, 2, 3}. The second holds systems
whose runs go through several F4 rounds under one reducer lookup: small
cyclic, katsura and eco systems over q in {2, 3, 5} with field equations on
and off, and planted 6-8-variable GF(2) quadrics with them on, under both
orders, all three engines, and middle solving on and off. For each group it
prints the run count, the count per status, the digest, and whether the
digest matches the one recorded in ``RECORDED``; it exits 1 if either
differs. A change that must keep traces byte-identical leaves both digests
as recorded; a change that alters traces on purpose records the new ones.
The solver is imported from this checkout's ``src``:

    python tools/trace_sweep.py
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from midgb import BenchSpec, EngineConfig, PolyRing, gen_system, groebner_basis  # noqa: E402
from midgb.api import ENGINES  # noqa: E402
from midgb.bench import random_system  # noqa: E402
from midgb.monomials import ORDERS  # noqa: E402

SYSTEMS = 150
FAMILY_SPECS = [
    BenchSpec(family, n, q)
    for q in (2, 3, 5)
    for family, n in (("cyclic", 4), ("cyclic", 5), ("katsura", 3), ("katsura", 4), ("eco", 4))
]
QUADRIC_SIZES = (6, 6, 7, 7, 8, 8)

# group label -> the SHA-256 this checkout's traces must give
RECORDED = {
    "random quadrics": "816c7d148106e3333c2a1af0b31431958d76761c44e6f81ef38934d69c605997",
    "multi-round systems": "46e66d00aa4c32c5ceaf69a823b1e66e53d0b0788fa3f4647b5d2580cb2bc3d9",
}


def systems():
    """(q, names, m, seed) per system; ``random_system`` draws the same
    polynomials from the seed under either order."""
    rng = random.Random(20151019)
    for _ in range(SYSTEMS):
        q = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 4)
        yield q, [f"x{i}" for i in range(n)], rng.randint(2, n + 1), rng.randrange(2**32)


def random_runs():
    """(ring, polys, config options) of every run of the first group."""
    for (q, names, m, seed), order in itertools.product(systems(), ORDERS):
        ring = PolyRing(q, names, order)
        polys = random_system(ring, m, 2, random.Random(seed))
        for engine, solving, field_eqs, max_rounds in itertools.product(
            ENGINES, (True, False), (True, False), (None, 1, 2, 3)
        ):
            yield ring, polys, dict(
                engine=engine,
                middle_solving=solving,
                adjoin_field_eqs=field_eqs,
                max_rounds=max_rounds,
            )


def quadrics(order):
    """n + 1 dense random quadrics in n variables over GF(2), each shifted
    by a constant so that a point drawn after them is a common zero."""
    rng = random.Random(20260419)
    for n in QUADRIC_SIZES:
        ring = PolyRing(2, [f"x{i}" for i in range(n)], order)
        polys = random_system(ring, n + 1, 2, rng, max_terms=2 * n)
        point = [rng.randrange(2) for _ in range(n)]
        yield ring, [p - ring.constant(p.evaluate(point)) for p in polys]


def multi_round_runs():
    """(ring, polys, config options) of every run of the second group. The
    quadrics run with field equations only: without them an 8-variable one
    takes minutes."""
    for order in ORDERS:
        inputs = [(*gen_system(spec, order), (True, False)) for spec in FAMILY_SPECS]
        inputs += [(ring, polys, (True,)) for ring, polys in quadrics(order)]
        for ring, polys, field_modes in inputs:
            for engine, solving, field_eqs in itertools.product(
                ENGINES, (True, False), field_modes
            ):
                yield ring, polys, dict(
                    engine=engine, middle_solving=solving, adjoin_field_eqs=field_eqs
                )


def sweep(label: str, runs, path: Path) -> bool:
    """Run every (ring, polys, options) of ``runs`` with a trace at ``path``,
    print the group's run count, statuses and digest, and return whether the
    digest is the one recorded for ``label``."""
    digest = hashlib.sha256()
    statuses: Counter = Counter()
    for ring, polys, options in runs:
        config = EngineConfig(ring, trace_path=path, **options)
        statuses[groebner_basis(polys, config).status.value] += 1
        digest.update(path.read_bytes())
    print(f"{label}: {sum(statuses.values())} runs")
    for status, count in sorted(statuses.items()):
        print(f"  {status}: {count}")
    got = digest.hexdigest()
    print(f"  sha256: {got}")
    same = got == RECORDED[label]
    print("  matches the recorded digest" if same else f"  DIFFERS from {RECORDED[label]}")
    return same


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        same = [
            sweep("random quadrics", random_runs(), path),
            sweep("multi-round systems", multi_round_runs(), path),
        ]
    return 0 if all(same) else 1


if __name__ == "__main__":
    raise SystemExit(main())

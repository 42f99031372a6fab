"""Seeded trace sweep: one SHA-256 over the trace bytes of 14,400 runs.

Runs 150 seeded random quadric systems (``bench.random_system``, q in
{2, 3, 5, 7}, 2-4 variables) under both monomial orders, all three engines,
middle solving and field equations each on and off, and ``max_rounds`` in
{None, 1, 2, 3}. It prints the run count, the count per status, and the
digest. A change that must keep traces byte-identical gives the same digest
as its parent. The solver is imported from this checkout's ``src``:

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

from midgb import EngineConfig, PolyRing, groebner_basis  # noqa: E402
from midgb.api import ENGINES  # noqa: E402
from midgb.bench import random_system  # noqa: E402
from midgb.monomials import ORDERS  # noqa: E402

SYSTEMS = 150


def systems():
    """(q, names, m, seed) per system; ``random_system`` draws the same
    polynomials from the seed under either order."""
    rng = random.Random(20151019)
    for _ in range(SYSTEMS):
        q = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 4)
        yield q, [f"x{i}" for i in range(n)], rng.randint(2, n + 1), rng.randrange(2**32)


def main() -> int:
    digest = hashlib.sha256()
    statuses: Counter = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        for (q, names, m, seed), order in itertools.product(systems(), ORDERS):
            ring = PolyRing(q, names, order)
            polys = random_system(ring, m, 2, random.Random(seed))
            for engine, solving, field_eqs, max_rounds in itertools.product(
                ENGINES, (True, False), (True, False), (None, 1, 2, 3)
            ):
                config = EngineConfig(
                    ring,
                    engine=engine,
                    middle_solving=solving,
                    adjoin_field_eqs=field_eqs,
                    max_rounds=max_rounds,
                    trace_path=path,
                )
                statuses[groebner_basis(polys, config).status.value] += 1
                digest.update(path.read_bytes())
    print(f"runs: {sum(statuses.values())}")
    for status, count in sorted(statuses.items()):
        print(f"  {status}: {count}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

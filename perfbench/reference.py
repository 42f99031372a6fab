"""The reference computation that end-to-end times are divided by.

The benchmark shares its host with other work, which slows every process on
it by up to about 1.8 times for stretches of tens of seconds to minutes. A
fixed block of this computation runs before each timed solver call, so it
samples the same slow and fast stretches as the calls do; a solver time
divided by the run's mean reference time keeps the program's cost and drops
most of the host's. The computation is in the solver's own idiom: a product
of two sparse polynomials held as dicts from exponent tuples to GF(3)
coefficients, in pure Python. It never changes, so a ratio moves only when
the solver does.
"""

from __future__ import annotations

import random
from time import perf_counter

REPS = 20  # products per block, about 0.07 s on an unloaded 2.1 GHz Xeon core


def _operands():
    rng = random.Random(0)

    def poly():
        return {
            tuple(rng.randrange(3) for _ in range(6)): rng.randrange(1, 3) for _ in range(60)
        }

    return poly(), poly()


_A, _B = _operands()


def product(a=_A, b=_B) -> dict:
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = (out.get(m, 0) + ca * cb) % 3
    return out


def block() -> float:
    """Seconds per product, over one block of ``REPS`` products."""
    start = perf_counter()
    for _ in range(REPS):
        product()
    return (perf_counter() - start) / REPS

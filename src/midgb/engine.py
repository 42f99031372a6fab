"""Shared engine core: critical pairs, pair queue, temporary basis, field
equations, update criteria and the degree monitor.

Both basis engines (pair-at-a-time and matrix-batch) and the incremental frame
are built on these pieces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import BoundViolationError, EmptyQueueError, ZeroInputError
from .poly import Polynomial, PolyRing, is_field_polynomial


@dataclass(frozen=True)
class CriticalPair:
    """An unprocessed S-polynomial obligation between two basis members."""

    left: int
    right: int
    lcm: int  # packed monomial
    degree: int


class PairQueue:
    """Pending critical pairs with deterministic minimal-degree selection."""

    __slots__ = ("pairs",)

    def __init__(self):
        self.pairs: list = []

    def __len__(self):
        return len(self.pairs)

    def __bool__(self):
        return bool(self.pairs)

    def add(self, pair: CriticalPair):
        self.pairs.append(pair)

    def filter_inplace(self, keep):
        self.pairs = [p for p in self.pairs if keep(p)]

    def select(self, ring: PolyRing, batch: bool) -> list:
        """Remove and return the next pair(s) to process.

        batch=True takes every pair of minimal degree; batch=False takes the
        single minimal pair, ties broken by lcm order then (left, right).
        """
        if not self.pairs:
            raise EmptyQueueError("pair selection from an empty queue")
        key = lambda p: (p.degree, p.lcm, p.left, p.right)
        if batch:
            dmin = min(p.degree for p in self.pairs)
            chosen = sorted((p for p in self.pairs if p.degree == dmin), key=key)
            self.pairs = [p for p in self.pairs if p.degree != dmin]
            return chosen
        best = min(self.pairs, key=key)
        self.pairs.remove(best)
        return [best]


class TemporaryBasis:
    """Append-only polynomial list.

    Two members may share a leading monomial only when raw inputs collide;
    every reducer scan then picks the earlier one (insertion order).
    """

    __slots__ = ("polys",)

    def __init__(self):
        self.polys: list = []

    def __len__(self):
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def add(self, p: Polynomial) -> int:
        idx = len(self.polys)
        self.polys.append(p)
        return idx


def field_polynomial(ring: PolyRing, i: int) -> Polynomial:
    """x_i^q - x_i."""
    q = ring.q
    return Polynomial(ring, ((ring.codec.var(i, q), 1), (ring.codec.var(i), q - 1)))


def adjoin_field_equations(polys, ring: PolyRing, variables=None) -> list:
    """Append x_i^q - x_i for each variable (default: all), skipping duplicates."""
    out = list(polys)
    if variables is None:
        variables = range(ring.n)
    for i in variables:
        fp = field_polynomial(ring, i)
        if fp not in out:
            out.append(fp)
    return out


def update(basis: TemporaryBasis, queue: PairQueue, h: Polynomial) -> int:
    """Insert h into the basis and maintain the pair queue.

    Pair bookkeeping is the conservative Gebauer-Moller style:
      * a new pair with coprime leading monomials is dropped (its S-polynomial
        always reduces to zero), but still dominates other new pairs first;
      * a new pair whose lcm is a proper multiple of another new pair's lcm is
        dropped; among equal lcms only the earliest partner survives;
      * an existing pair (f, g) is dropped when LM(h) divides lcm(f, g) and
        lcm(f, h) != lcm(f, g) != lcm(g, h).

    Returns h's basis index.
    """
    if h.is_zero:
        raise ZeroInputError("cannot insert the zero polynomial")
    codec = h.ring.codec
    lcm, shift, guard = codec.lcm, codec.shift, codec.guard
    lm_h = h.lm()
    h_idx = basis.add(h)

    # (index, lcm, shift(lcm), coprime); l2 | l iff (l - shift(l2)) & guard == 0
    cands = []
    for g_idx in range(h_idx):
        lm_g = basis.polys[g_idx].lm()
        l = lcm(lm_g, lm_h)
        cands.append((g_idx, l, shift(l), codec.coprime(lm_g, lm_h)))

    survivors = []
    for i, (g_idx, l, _, coprime) in enumerate(cands):
        if coprime:
            continue  # dominates others below, but never becomes a pair itself
        dominated = False
        for j, (_, l2, s2, _) in enumerate(cands):
            if j == i:
                continue
            if l2 == l:
                if j < i:  # one representative per equal-lcm class
                    dominated = True
                    break
            elif not (l - s2) & guard:
                dominated = True
                break
        if not dominated:
            survivors.append(CriticalPair(g_idx, h_idx, l, codec.degree(l)))

    def keep_old(pr: CriticalPair) -> bool:
        if not codec.divides(lm_h, pr.lcm):
            return True
        if lcm(basis.polys[pr.left].lm(), lm_h) == pr.lcm:
            return True
        if lcm(basis.polys[pr.right].lm(), lm_h) == pr.lcm:
            return True
        return False

    queue.filter_inplace(keep_old)
    for pr in survivors:
        queue.add(pr)
    return h_idx


def update_no_criteria(basis: TemporaryBasis, queue: PairQueue, h: Polynomial) -> int:
    """Insert h generating every pair, skipping all criteria (for cross-checks)."""
    if h.is_zero:
        raise ZeroInputError("cannot insert the zero polynomial")
    codec = h.ring.codec
    lm_h = h.lm()
    h_idx = basis.add(h)
    for g_idx in range(h_idx):
        l = codec.lcm(basis.polys[g_idx].lm(), lm_h)
        queue.add(CriticalPair(g_idx, h_idx, l, codec.degree(l)))
    return h_idx


def degree_monitor(p: Polynomial, ring: PolyRing, stage: str, active: bool = True) -> None:
    """Assert the degree bounds that hold once field equations are adjoined.

    created: total degree <= n(q-1)+1 for S-polynomials / matrix rows at
    formation (observed after eager field reduction). stored: total degree
    <= n(q-1) for non-field-polynomial basis members, and every leading-term
    exponent <= q. Disabled when field equations are not adjoined.
    """
    if not active or p.is_zero:
        return
    n, q = ring.n, ring.q
    created_cap = n * (q - 1) + 1
    if stage == "created":
        if p.degree() > created_cap:
            raise BoundViolationError("created", p, created_cap)
    elif stage == "stored":
        if ring.codec.exceeds(p.lm(), q):
            raise BoundViolationError("stored", p, q)
        if is_field_polynomial(p) is None and p.degree() > n * (q - 1):
            raise BoundViolationError("stored", p, n * (q - 1))
    else:
        raise ValueError(f"unknown monitor stage {stage!r}")


# ---------------------------------------------------------------- run types


class Status(enum.Enum):
    GROEBNER_BASIS = "GroebnerBasis"
    ALL_VARIABLES_SOLVED = "AllVariablesSolved"
    INCONSISTENT = "Inconsistent"
    ROUND_LIMIT = "RoundLimit"


@dataclass(frozen=True)
class SolveEvent:
    """A variable pinned to its unique possible value, mid-computation."""

    round: int
    variable: int
    value: int


@dataclass
class RoundTrace:
    round: int
    pairs_selected: int = 0
    new_polys: int = 0
    max_poly_degree: int = 0
    events: list = field(default_factory=list)
    inconsistent: bool = False
    matrix_rows: Optional[int] = None
    matrix_cols: Optional[int] = None
    zero_rows: Optional[int] = None
    solved_total: Optional[int] = None


@dataclass
class EngineConfig:
    ring: PolyRing
    engine: str = "f4"
    middle_solving: bool = True
    adjoin_field_eqs: bool = True
    max_rounds: Optional[int] = None
    trace_path: Optional[object] = None  # str | Path | None
    reverse_inputs: bool = False
    use_criteria: bool = True

    def __post_init__(self):
        if self.engine not in ("buchberger", "f4", "incremental"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.trace_path is not None:
            self.trace_path = Path(self.trace_path)


@dataclass
class EngineReport:
    status: Status
    basis: list
    assignments: dict
    rounds: list
    events: list
    engine: str

    @property
    def total_rounds(self) -> int:
        return self.rounds[-1].round if self.rounds else 0

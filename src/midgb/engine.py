"""Shared engine core: critical pairs, pair queue, field equations, update
criteria and the degree monitor.

All three engines are built on these pieces. Their rounds and entry points
live in ``runner``, where ``RunState.store`` is the one caller of ``update``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import (
    BoundViolationError,
    EmptyQueueError,
    InvalidSettingError,
    TooLargeError,
    ZeroInputError,
)
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

    def select(self, batch: bool) -> list:
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


def field_polynomial(ring: PolyRing, i: int) -> Polynomial:
    """x_i^q - x_i."""
    q = ring.q
    return Polynomial(ring, ((ring.codec.var(i, q), 1), (ring.codec.var(i), q - 1)))


def adjoin_field_equations(polys, ring: PolyRing) -> list:
    """Append x_i^q - x_i for each variable, skipping duplicates."""
    out = list(polys)
    for i in range(ring.n):
        fp = field_polynomial(ring, i)
        if fp not in out:
            out.append(fp)
    return out


def update(basis: list, queue: PairQueue, h: Polynomial) -> int:
    """Append h to the basis and maintain the pair queue.

    Its one caller is ``runner.RunState.store``, which stores inputs, batch
    members and the members a renew returns alike.
    Two members may share a leading monomial only when raw inputs collide.
    Reducers are looked up as the first member, in list order, whose leading
    monomial divides a monomial (``poly.FirstDivisor``, and ``interreduce``'s
    per-pass lookups), so the earlier one is picked. A ``FirstDivisor`` over
    the basis stays valid through this append.

    Pair bookkeeping is Gebauer-Moller style. With l_g = lcm(LM(g), LM(h))
    computed for every earlier member g in one pass (``MonomialCodec.lcms``):
      * only minimal lcms pair: l_g is dropped when another l_f properly
        divides it. In every admissible order a proper divisor comes before
        its multiple, so the least lcm not yet dropped is minimal; the sweep
        keeps it, drops its multiples and repeats, in O(k) per minimal lcm;
      * among equal lcms only the earliest partner counts;
      * a minimal lcm equal to LM(g)*LM(h) (coprime leading monomials)
        dominates but never pairs: its S-polynomial reduces to zero;
      * an existing pair (f, g) is dropped when LM(h) divides lcm(f, g) and
        l_f != lcm(f, g) != l_g.
    New pairs are queued in partner order. Returns h's basis index.
    """
    if h.is_zero:
        raise ZeroInputError("cannot insert the zero polynomial")
    codec = h.ring.codec
    guard = codec.guard
    lm_h = h.lm()
    lcms = codec.lcms([g.lm() for g in basis], lm_h)
    h_idx = len(basis)
    basis.append(h)

    # each distinct lcm -> its first partner (zipped in reverse, so the
    # earliest index is written last)
    first = dict(zip(reversed(lcms), range(h_idx - 1, -1, -1)))
    shift_h = codec.shift(lm_h)
    partners = []
    rest = sorted(first)
    while rest:
        l = rest[0]
        g_idx = first[l]
        if l - shift_h != basis[g_idx].lm():  # l / LM(h) != LM(g): not coprime
            partners.append(g_idx)
        # drop l and its multiples: m | x iff (x - shift(m)) & guard == 0
        s = codec.shift(l)
        rest = [x for x in rest if (x - s) & guard]

    queue.pairs = [
        pr for pr in queue.pairs
        if (pr.lcm - shift_h) & guard  # LM(h) does not divide lcm(f, g)
        or pr.lcm == lcms[pr.left] or pr.lcm == lcms[pr.right]
    ]
    for g_idx in sorted(partners):
        queue.add(CriticalPair(g_idx, h_idx, lcms[g_idx], codec.degree(lcms[g_idx])))
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
    if stage == "created":
        cap = created_cap(ring)
        if p.degree() > cap:
            raise BoundViolationError("created", p, cap)
    elif stage == "stored":
        if ring.codec.exceeds(p.lm(), q):
            raise BoundViolationError("stored", p, q)
        if is_field_polynomial(p) is None and p.degree() > n * (q - 1):
            raise BoundViolationError("stored", p, n * (q - 1))
    else:
        raise ValueError(f"unknown monitor stage {stage!r}")


def created_cap(ring: PolyRing) -> int:
    """The created-stage degree bound of ``degree_monitor``: n(q-1) + 1."""
    return ring.n * (ring.q - 1) + 1


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


# Reducing against x^q - x takes O(q) steps per pair that involves it, so
# field equations are only adjoined up to this field size.
MAX_FIELD_EQ_Q = 2**16


@dataclass
class EngineConfig:
    ring: PolyRing
    engine: str = "f4"
    middle_solving: bool = True
    adjoin_field_eqs: bool = True
    max_rounds: Optional[int] = None
    trace_path: Optional[object] = None  # str | Path | None
    reverse_inputs: bool = False

    def __post_init__(self):
        if not isinstance(self.ring, PolyRing):
            raise InvalidSettingError(f"ring must be a PolyRing, got {self.ring!r}")
        if self.engine not in ("buchberger", "f4", "incremental"):
            raise InvalidSettingError(f"unknown engine {self.engine!r}")
        rounds = self.max_rounds
        if rounds is not None and (
            isinstance(rounds, bool) or not isinstance(rounds, int) or rounds < 1
        ):
            raise InvalidSettingError(f"max_rounds must be None or an int >= 1, got {rounds!r}")
        for name in ("middle_solving", "adjoin_field_eqs", "reverse_inputs"):
            if not isinstance(getattr(self, name), bool):
                raise InvalidSettingError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.adjoin_field_eqs and self.ring.q > MAX_FIELD_EQ_Q:
            raise TooLargeError(
                f"field equations need q <= {MAX_FIELD_EQ_Q}, got q = {self.ring.q}"
            )
        if self.trace_path is not None:
            self.trace_path = Path(self.trace_path)


@dataclass
class EngineReport:
    """The outcome of one run.

    ``assignments``, solve events and the ``Inconsistent`` status speak only
    of GF(q)-rational zeros: a variable is fixed when a univariate member has
    exactly one root in GF(q). With field equations on, every zero is
    GF(q)-rational. With them off, a system with no GF(q) zero may still end
    as ``GroebnerBasis``, its zeros lying in an extension field, and a
    variable fixed at its only rational value may take other values there.
    """

    status: Status
    basis: list
    assignments: dict
    rounds: list
    events: list
    engine: str

    @property
    def total_rounds(self) -> int:
        return self.rounds[-1].round if self.rounds else 0

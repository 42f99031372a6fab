"""Shared engine core: critical pairs, pair queue, field equations, update
criteria and the degree monitor.

All three engines are built on these pieces. Their rounds and entry points
live in ``runner``, where ``RunState.store`` is the one caller of ``update``.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import (
    BoundViolationError,
    EmptyQueueError,
    InvalidSettingError,
    TooLargeError,
    ZeroInputError,
)
from .poly import FirstDivisor, Polynomial, PolyRing, is_field_polynomial


class CriticalPair(NamedTuple):
    """An unprocessed S-polynomial obligation between two basis members."""

    left: int
    right: int
    lcm: int  # packed monomial
    degree: int


class PairQueue:
    """Pending critical pairs with deterministic minimal-degree selection.

    Each pair is held under a serial number, in queue order, and indexed by
    the variables of its lcm: for each variable, the set of the serials
    whose lcm has it, as a Python int. ``update`` reads the index to test
    only the pairs whose lcm a new leading monomial can divide
    (``having``). The numbering starts again whenever the queue empties.
    """

    __slots__ = ("_pairs", "_having", "_next")

    def __init__(self):
        self._pairs: dict = {}  # serial -> pair, in queue order
        self._having: dict = {}  # variable -> serials whose lcm has it
        self._next = 0

    def __len__(self):
        return len(self._pairs)

    def __bool__(self):
        return bool(self._pairs)

    @property
    def pairs(self) -> list:
        """The pairs in queue order."""
        return list(self._pairs.values())

    def add(self, pairs: list, variables: list):
        """Queue ``pairs`` in order; the lcm of pairs[k] has the variables of
        the mask variables[k] (bit i for x_i)."""
        base = self._next
        self._next += len(pairs)
        self._pairs.update(zip(range(base, self._next), pairs))
        having = self._having
        for serial, v in enumerate(variables, base):
            bit = 1 << serial
            while v:
                low = v & -v
                i = low.bit_length() - 1
                having[i] = having.get(i, 0) | bit
                v ^= low

    def having(self, variables: int) -> list:
        """(serial, pair) in queue order for every pair whose lcm has all the
        variables of the mask ``variables``."""
        pairs = self._pairs
        if not variables:
            return list(pairs.items())
        found = -1
        for i in _bits(variables):
            found &= self._having.get(i, 0)
        return [(s, pairs[s]) for s in _bits(found) if s in pairs]

    def discard(self, serials: list) -> None:
        """Remove the pairs of these serial numbers. Their bits stay in the
        index, which ``having`` skips, until the queue empties."""
        pairs = self._pairs
        for s in serials:
            del pairs[s]
        if not pairs:
            self._having.clear()
            self._next = 0

    def select(self, batch: bool) -> list:
        """Remove and return the next pair(s) to process.

        batch=True takes every pair of minimal degree; batch=False takes the
        single minimal pair, ties broken by lcm order then (left, right).
        """
        pairs = self._pairs
        if not pairs:
            raise EmptyQueueError("pair selection from an empty queue")
        if batch:
            dmin = min(p.degree for p in pairs.values())
            serials = [s for s, p in pairs.items() if p.degree == dmin]
        else:
            serials = [min(pairs, key=lambda s: _ORDER(pairs[s]))]
        chosen = sorted(map(pairs.get, serials), key=_ORDER)
        self.discard(serials)
        return chosen


_ORDER = itemgetter(3, 2, 0, 1)  # a pair's (degree, lcm, left, right)


def _bits(x: int):
    """The positions of the set bits of x >= 0, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


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


def update(first: FirstDivisor, queue: PairQueue, h: Polynomial) -> int:
    """Append h to the basis, ``first.members``, and maintain the pair queue.

    Its one caller is ``runner.RunState.store``, which stores inputs, batch
    members and the members a renew returns alike, and passes the run's
    lookup ``first``, which follows the append. Two members may share a
    leading monomial only when raw inputs collide. Reducers are looked up
    as the first member, in list order, whose leading monomial divides a
    monomial (``poly.FirstDivisor``, and ``interreduce``'s per-pass
    lookups), so the earlier one is picked.

    Pair bookkeeping is Gebauer-Moller style, with l_g = lcm(LM(g), LM(h)):
      * only minimal lcms pair: l_g is dropped when another l_f properly
        divides it;
      * among equal lcms only the earliest partner counts;
      * a minimal lcm equal to LM(g)*LM(h) (coprime leading monomials)
        dominates but never pairs: its S-polynomial reduces to zero;
      * an existing pair (f, g) is dropped when LM(h) divides lcm(f, g) and
        l_f != lcm(f, g) != l_g.
    New pairs are queued in partner order. Returns h's basis index.

    The work runs on the index of the members' heads (``first.heads()``).
    l_g = LM(h) * e_g, where the excess e_g holds the exponents by which
    LM(g) passes LM(h), so l_f divides l_g exactly when e_f divides e_g,
    and the minimal lcms are those of the minimal excesses. If some head
    divides LM(h), its excess 1 is the least and divides every other.
    Otherwise the members whose excess is a power of one variable x_i give,
    at their least exponent c, one minimal excess x_i^c, and every member
    whose x_i-excess is at least c is ruled out; all of that takes a few
    set operations per variable. Only the members left, whose excess has
    two or more variables, are swept one by one in ascending lcm order. An
    old pair is tested only when its lcm has every variable of LM(h)
    (``PairQueue.having``), and l_f = lcm(f, g) is decided without forming
    l_f: it holds exactly when lcm(f, g) / LM(f) and lcm(f, g) / LM(h)
    share no variable.

    So the lcms formed are LM(h) * x_i^c for each such x_i and l_g for
    each member left to the sweep, and no others: a member that a smaller
    excess rules out has none formed. The first of them past the codec's
    limit raises ``MonomialOverflowError``, and then the basis and the
    queue are left as they were.
    """
    if h.is_zero:
        raise ZeroInputError("cannot insert the zero polynomial")
    basis = first.members
    heads = first.heads()
    codec = h.ring.codec
    guard, lm_h = codec.guard, h.lm()
    shift_h = codec.shift(lm_h)
    powers = codec.powers(lm_h)
    h_idx = len(basis)

    # over[i]: the members g whose excess has x_i, that is whose head's
    # x_i-exponent is above LM(h)'s
    over = heads.above(powers)
    some = many = 0  # members with an excess in some variable, in two or more
    for s in over:
        many |= some & s
        some |= s
    partners = {}  # member index -> its lcm with LM(h)
    divides = ((1 << h_idx) - 1) & ~some
    if divides:  # LM(g) | LM(h): l_g = LM(h), coprime only for LM(g) = 1
        g = (divides & -divides).bit_length() - 1
        if basis[g].lm() != codec.one:
            partners[g] = lm_h
        rest = 0
    else:
        rest, alone, b = some, some & ~many, dict(powers)
        least, mul, var = heads.least, codec.mul, codec.var
        for i, s in enumerate(over):
            s &= alone
            if s:
                e, tied, reach = least(i, s)
                rest &= ~reach
                g = (tied & -tied).bit_length() - 1
                l = mul(lm_h, var(i, e - b.get(i, 0)))
                if l - shift_h != basis[g].lm():  # l / LM(h) != LM(g): not coprime
                    partners[g] = l
    if rest:
        # each distinct lcm -> its first partner (zipped in reverse, so the
        # earliest index is written last)
        idx = list(_bits(rest))
        lcms = [codec.lcm(basis[g].lm(), lm_h) for g in idx]
        firsts = dict(zip(reversed(lcms), reversed(idx)))
        ls = sorted(firsts)
        while ls:
            l = ls[0]  # the least lcm left, so minimal: none left divides it
            g = firsts[l]
            if l - shift_h != basis[g].lm():
                partners[g] = l
            # drop l and its multiples: m | x iff (x - shift(m)) & guard == 0
            s = codec.shift(l)
            ls = [x for x in ls if (x - s) & guard]

    # l = lcm(f, g) equals l_f exactly when l / LM(f) and l / LM(h) share
    # no variable: where LM(f) falls short of l, LM(h) must reach it
    variables = 0
    for i, _ in powers:
        variables |= 1 << i
    shift, coprime = codec.shift, codec.coprime
    drop = []
    for serial, pr in queue.having(variables):
        l = pr.lcm
        over_h = l - shift_h
        if over_h & guard:  # LM(h) does not divide lcm(f, g)
            continue
        if not coprime(l - shift(basis[pr.left].lm()), over_h) and not coprime(
            l - shift(basis[pr.right].lm()), over_h
        ):
            drop.append(serial)
    queue.discard(drop)
    basis.append(h)
    if partners:
        order = sorted(partners)
        supports = heads.supports
        queue.add(
            [CriticalPair(g, h_idx, partners[g], codec.degree(partners[g])) for g in order],
            [supports[g] | variables for g in order],
        )
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

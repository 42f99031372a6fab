"""Solving variables in the middle of a basis computation.

Whenever a freshly reduced batch contains a univariate polynomial with exactly
one root in GF(q), that variable's value is forced for every common zero. The
engines emit the assignment immediately (so partial information survives a
killed run), substitute it everywhere, and keep going on the smaller system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .engine import PairQueue, TemporaryBasis, update
from .errors import ConflictingRootsError, OrderNotLexError, RenormalizationError
from .poly import (
    Polynomial,
    PolyRing,
    field_reduce,
    interreduce,
    is_field_polynomial,
    is_univariate,
    substitute,
    univariate_roots,
)


@dataclass(frozen=True)
class Assignment:
    variable: int
    value: int
    round: int


def find_unique_root_polys(batch: Iterable[Polynomial], ring: PolyRing, round_no: int = 0):
    """Scan a batch for univariate members with exactly one root.

    Polynomials with zero roots or two-plus roots are skipped (zero-root
    members surface later through the constant-inconsistency path). Two batch
    members forcing different values onto one variable is a contradiction and
    raises ConflictingRootsError.
    """
    found: dict = {}
    for p in batch:
        if p.is_zero:
            continue
        var = is_univariate(p)
        if var is None:
            continue
        roots = univariate_roots(p, var)
        if len(roots) != 1:
            continue
        (val,) = roots
        prev = found.get(var)
        if prev is None:
            found[var] = Assignment(var, val, round_no)
        elif prev.value != val:
            raise ConflictingRootsError(var)
    return list(found.values())


@dataclass
class RenewResult:
    basis: TemporaryBasis
    pending: list
    queue: PairQueue
    inconsistent: bool


def renew(
    basis: TemporaryBasis,
    pending: Sequence[Polynomial],
    queue: PairQueue,
    a: Assignment,
    ring: PolyRing,
    field_active: bool = True,
) -> RenewResult:
    """Substitute a solved variable everywhere and rebuild the bookkeeping.

    The solved variable's field polynomial drops out (it substitutes to zero
    anyway, by Fermat), zero survivors are dropped, a survivor that becomes a
    nonzero constant flags inconsistency, and the surviving basis is
    re-interreduced with the pair queue rebuilt from scratch by re-running
    update insertion in the original order. The pending batch (or remaining
    inputs) is substituted but not interreduced.
    """
    del queue  # rebuilt wholesale; old pairs reference the old basis
    inconsistent = False
    survivors = []
    for g in basis.polys:
        if is_field_polynomial(g) == a.variable:
            continue
        g2 = substitute(g, a.variable, a.value)
        if g2.is_zero:
            continue
        if g2.is_constant:
            inconsistent = True
            continue
        survivors.append(g2)

    new_pending = []
    for p in pending:
        p2 = substitute(p, a.variable, a.value)
        if p2.is_zero:
            continue
        if p2.is_constant:
            inconsistent = True
            continue
        new_pending.append(p2)

    new_basis = TemporaryBasis()
    new_queue = PairQueue()
    if not inconsistent:
        survivors = _renormalize(survivors, field_active)
        for g in survivors:
            update(new_basis, new_queue, g)
    return RenewResult(new_basis, new_pending, new_queue, inconsistent)


def _renormalize(polys: list, field_active: bool) -> list:
    """Interreduce, re-applying exponent folding until stable.

    Reduction tails can transiently push per-variable exponents past q-1; the
    field polynomials still in the set normally fold those right back, but if
    one was itself reduced away we finish the job explicitly.
    """
    # every folding pass that changes anything strictly shrinks exponent mass,
    # so this terminates; the guard is just a tripwire
    budget = 2 + sum(sum(sum(m) for m, _ in p.terms) for p in polys)
    for _ in range(budget):
        polys = interreduce(polys)
        if not field_active:
            return polys
        folded = []
        changed = False
        for p in polys:
            if is_field_polynomial(p) is not None:
                folded.append(p)
                continue
            p2 = field_reduce(p)
            if p2 != p:
                changed = True
            if not p2.is_zero:
                folded.append(p2.monic())
        polys = folded
        if not changed:
            return polys
    raise RenormalizationError("renormalization did not stabilize")


def inconsistency_check(polys: Iterable[Polynomial]) -> bool:
    """True iff some member is a nonzero constant (the ideal is everything)."""
    for p in polys:
        if p.terms and p.is_constant:
            return True
    return False


def triangular_shape_check(polys: Iterable[Polynomial], ring: PolyRing) -> bool:
    """Check the staircase variable structure of a completed lex basis.

    Walking variables from the lex-least upward, every member whose greatest
    variable is x_i may otherwise involve only variables that earlier members
    already introduced — i.e. some member is univariate in the least occurring
    variable, the next members add one new variable at a time, and so on.
    Constant members are ignored (the empty-variety case is degenerately true).
    """
    if ring.order != "lex":
        raise OrderNotLexError("triangular shape is defined for lex bases")
    supports = [s for s in (p.support() for p in polys) if s]
    if not supports:
        return True
    covered: set = set()
    for idx in range(ring.n - 1, -1, -1):
        members = [s for s in supports if min(s) == idx]
        for s in members:
            if not (s - {idx}) <= covered:
                return False
        if members:
            covered.add(idx)
    return True

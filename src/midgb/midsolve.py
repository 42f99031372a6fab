"""Solving variables in the middle of a basis computation.

Whenever a freshly reduced batch contains a univariate polynomial with exactly
one root in GF(q), that variable's value is forced for every common zero. The
engines emit the assignment immediately (so partial information survives a
killed run), substitute it everywhere, and keep going on the smaller system.

This module is the algebra of that step alone: finding the forced values
(``find_unique_root_polys``) and substituting and interreducing
(``renew``). The run's bookkeeping, solve events, the pair queue and the
storing of renewed members, is ``runner.RunState.screen``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConflictingRootsError
from .poly import (
    Polynomial,
    field_reduce,
    interreduce,
    is_univariate,
    normal_form,
    substitution,
)


def _unique_root(p: Polynomial, var: int):
    """The root of p, univariate in x_var, when GF(q) holds exactly one; else None.

    On GF(q) points x^q = x, so p is exponent-folded first (``field_reduce``)
    into f, made monic. The roots in GF(q) of f are those of
    g = gcd(f, x^q - x), one per degree of g: x^q mod f comes from
    square-and-multiply, each product reduced by ``normal_form``, and the
    gcd from Euclid's algorithm on ``normal_form`` remainders. That is
    O(deg^2 log q) work where trying every field element is O(q deg).
    """
    f = field_reduce(p)
    if f.is_constant:
        return None  # a nonzero constant has no root; zero has q of them
    f = f.monic()
    ring = p.ring
    x = ring.variable(var)
    power, base, k = ring.one, x, ring.q  # every product is reduced mod f
    while k:
        if k & 1:
            power = normal_form(power * base, [f])
        k >>= 1
        if k:
            base = normal_form(base * base, [f])
    g, h = f, power - x  # h = x^q - x mod f
    while h:
        g, h = h.monic(), normal_form(g, [h])
    if g.degree() != 1:
        return None
    return -g.terms[1][1] % ring.q if len(g.terms) == 2 else 0  # g = x - root


def find_unique_root_polys(batch: Iterable[Polynomial]) -> dict:
    """Scan a batch for univariate members with exactly one root in GF(q).

    Returns ``{variable: value}``, one entry per forced variable, in the
    order the batch first forces them. Polynomials with zero roots or
    two-plus roots are skipped. With field equations on, a member with no
    root in GF(q) later reduces the basis to a constant, which the
    inconsistency check catches; with them off it may stay in the basis,
    and the run ends without speaking of it. Two batch members forcing
    different values onto one variable is a contradiction and raises
    ConflictingRootsError.
    """
    found: dict = {}
    for p in batch:
        if p.is_zero:
            continue
        var = is_univariate(p)
        if var is None:
            continue
        val = _unique_root(p, var)
        if val is None:
            continue
        prev = found.setdefault(var, val)
        if prev != val:
            raise ConflictingRootsError(var)
    return found


@dataclass
class RenewResult:
    basis: list
    pending: list
    inconsistent: bool


def renew(
    basis: Sequence[Polynomial], pending: Sequence[Polynomial], values: dict
) -> RenewResult:
    """Substitute solved values everywhere and interreduce the basis.

    ``values`` maps variables to their values. Basis and pending members
    are substituted alike, all values in one pass (``_substitute_all``):
    zeros drop out, among them the solved variables' field polynomials (by
    Fermat), and a member turned nonzero constant flags inconsistency, with
    an empty basis. Otherwise the basis survivors are interreduced once and
    returned in that order, canonical and not yet paired: the caller stores
    them (``RunState.store``). The pending batch (or inputs) is not
    interreduced.

    No exponent folding is needed after the interreduce. With field
    equations adjoined, members are stored folded, and every unsolved
    variable x keeps a member whose leading monomial is a power x^k with
    k <= q (its field polynomial, or a univariate member that reduced it
    away), which substitution leaves alone. Interreduction removes every
    other multiple of x^k, so only that member can hold an exponent >= q,
    and then it is the field polynomial x^q - x itself.

    ``RunState.screen`` renews once with all of a screen's values. Nothing
    proves that equal to one renew per value (interreduce is not unique).
    Over 4,500 seeded random runs (q in {2, 3, 5, 7}, 2-6 variables, both
    orders, all three engines; 1,924 Inconsistent) the traces equal those
    of per-value renews byte for byte, given the screen's replay where the
    joint renew meets a constant (55 differ without it). Values that fix
    every variable at a zero of every member are exact: all that per-value
    renews derive vanishes there too, so both end empty.
    """
    survivors, basis_constant = _substitute_all(basis, values)
    new_pending, pending_constant = _substitute_all(pending, values)
    inconsistent = basis_constant or pending_constant
    new_basis = [] if inconsistent else interreduce(survivors)
    return RenewResult(new_basis, new_pending, inconsistent)


def _substitute_all(polys: Sequence[Polynomial], values: dict):
    """The nonconstant substitutions of ``values`` into polys, and whether
    one of them became a nonzero constant."""
    out, constant = [], False
    if not polys:
        return out, constant
    substitute = substitution(polys[0].ring, values)
    for p in polys:
        p = substitute(p)
        if not p.is_constant:
            out.append(p)
        elif not p.is_zero:
            constant = True
    return out, constant


def inconsistency_check(polys: Iterable[Polynomial]) -> bool:
    """True iff some member is a nonzero constant (the ideal is everything)."""
    for p in polys:
        if p.terms and p.is_constant:
            return True
    return False


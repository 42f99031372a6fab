"""Solving variables in the middle of a basis computation.

Whenever a freshly reduced batch contains a univariate polynomial with exactly
one root in GF(q), that variable's value is forced for every common zero. The
engines emit the assignment immediately (so partial information survives a
killed run), substitute it everywhere, and keep going on the smaller system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .engine import PairQueue, SolveEvent, update
from .errors import ConflictingRootsError
from .poly import (
    Polynomial,
    interreduce,
    is_field_polynomial,
    is_univariate,
    substitute,
)


def _poly_rem(a: list, f: list, q: int) -> list:
    """a mod f for dense coefficient lists (index = exponent), f monic."""
    a = a[:]
    df = len(f) - 1
    for k in range(len(a) - 1, df - 1, -1):
        c = a[k]
        if c:
            for j in range(df + 1):
                a[k - df + j] = (a[k - df + j] - c * f[j]) % q
    del a[df:]
    while a and not a[-1]:
        a.pop()
    return a


def _poly_mulmod(a: list, b: list, f: list, q: int) -> list:
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % q
    return _poly_rem(prod, f, q)


def _poly_gcd(a: list, b: list, q: int) -> list:
    """Monic gcd of two dense coefficient lists."""
    while b:
        inv = pow(b[-1], -1, q)
        b = [c * inv % q for c in b]
        a, b = b, _poly_rem(a, b, q)
    return a


def _unique_root(p: Polynomial, var: int):
    """The root of p, univariate in x_var, when GF(q) holds exactly one; else None.

    On GF(q) points x^q = x, so exponents fold to at most q - 1 first. The
    roots in GF(q) of the folded f are those of g = gcd(f, x^q - x), one per
    degree, with x^q mod f from square-and-multiply: O(deg^2 log q) work
    where trying every field element is O(q deg).
    """
    q = p.ring.q
    exponent = p.ring.codec.exponent
    coeffs: dict = {}
    for m, c in p.terms:
        e = exponent(m, var)
        if e >= q:
            e = (e - 1) % (q - 1) + 1
        coeffs[e] = (coeffs.get(e, 0) + c) % q
    f = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        f[e] = c
    while f and not f[-1]:
        f.pop()
    if len(f) < 2:
        return None  # a nonzero constant has no root; zero has q of them
    inv = pow(f[-1], -1, q)
    f = [c * inv % q for c in f]
    # x^q mod f
    power, base, k = [1], _poly_rem([0, 1], f, q), q
    while k:
        if k & 1:
            power = _poly_mulmod(power, base, f, q)
        base = _poly_mulmod(base, base, f, q)
        k >>= 1
    h = power + [0] * (2 - len(power))
    h[1] = (h[1] - 1) % q  # x^q - x mod f
    while h and not h[-1]:
        h.pop()
    g = _poly_gcd(f, h, q)
    if len(g) != 2:
        return None
    return -g[0] % q


def find_unique_root_polys(batch: Iterable[Polynomial], round_no: int = 0):
    """Scan a batch for univariate members with exactly one root in GF(q).

    Returns one ``SolveEvent`` in round ``round_no`` per forced variable, in
    the order the batch first forces them. Polynomials with zero roots or
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
        prev = found.get(var)
        if prev is None:
            found[var] = SolveEvent(round_no, var, val)
        elif prev.value != val:
            raise ConflictingRootsError(var)
    return list(found.values())


@dataclass
class RenewResult:
    basis: list
    pending: list
    queue: PairQueue
    inconsistent: bool


def renew(
    basis: Sequence[Polynomial], pending: Sequence[Polynomial], event: SolveEvent
) -> RenewResult:
    """Substitute a solved variable everywhere and rebuild the bookkeeping.

    The solved variable's field polynomial drops out (it substitutes to zero
    anyway, by Fermat), zero survivors are dropped, and a survivor that
    becomes a nonzero constant flags inconsistency. Otherwise the survivors
    are interreduced once and the pair queue is rebuilt from scratch by
    re-running update insertion in order. The pending batch (or remaining
    inputs) is substituted but not interreduced.

    No exponent folding is needed after the interreduce. With field
    equations adjoined, members are stored folded, and every unsolved
    variable x keeps a member whose leading monomial is a power x^k with
    k <= q (its field polynomial, or a univariate member that reduced it
    away), which substitution leaves alone. Interreduction removes every
    other multiple of x^k, so only that member can hold an exponent >= q,
    and then it is the field polynomial x^q - x itself.

    ``RunState.screen`` skips the renews of a screen whose assignments fix
    every variable at a zero of every ingested polynomial. Each member lies
    in the ideal of those polynomials and the earlier assignments, so it
    vanishes at that point: no renew would meet a nonzero constant, and the
    last one would leave the basis, the pending batch and the queue empty.
    """
    inconsistent = False
    survivors = []
    for g in basis:
        if is_field_polynomial(g) == event.variable:
            continue
        g2 = substitute(g, event.variable, event.value)
        if g2.is_zero:
            continue
        if g2.is_constant:
            inconsistent = True
            continue
        survivors.append(g2)

    new_pending = []
    for p in pending:
        p2 = substitute(p, event.variable, event.value)
        if p2.is_zero:
            continue
        if p2.is_constant:
            inconsistent = True
            continue
        new_pending.append(p2)

    new_basis: list = []
    new_queue = PairQueue()
    if not inconsistent:
        for g in interreduce(survivors):
            update(new_basis, new_queue, g)
    return RenewResult(new_basis, new_pending, new_queue, inconsistent)


def inconsistency_check(polys: Iterable[Polynomial]) -> bool:
    """True iff some member is a nonzero constant (the ideal is everything)."""
    for p in polys:
        if p.terms and p.is_constant:
            return True
    return False


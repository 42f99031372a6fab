"""Multivariate polynomials over GF(q): rings, canonical forms, reduction.

A Polynomial is an immutable sorted term list (descending under the ring's
monomial order) with coefficients in canonical range. Every polynomial knows
its ring; operations never mix rings.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .errors import ZeroInputError, ZeroPolynomialError
from .gf import PrimeField
from .monomials import (
    ORDER_KEYS,
    ORDER_NEGKEYS,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mask,
    mono_mul,
    total_degree,
)


class PolyRing:
    """GF(q)[x_1, ..., x_n] with a fixed monomial order.

    The first listed variable has the greatest precedence.
    """

    __slots__ = ("field", "names", "n", "order", "key", "negkey", "_zero", "_one")

    def __init__(self, q: int, names: Sequence[str], order: str = "grevlex"):
        self.field = PrimeField(q)
        names = list(names)
        if not names:
            raise ValueError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for nm in names:
            if not nm or not isinstance(nm, str):
                raise ValueError(f"bad variable name {nm!r}")
        if order not in ORDER_KEYS:
            raise ValueError(f"unknown monomial order {order!r} (expected lex or grevlex)")
        self.names = tuple(names)
        self.n = len(names)
        self.order = order
        self.key = ORDER_KEYS[order]
        self.negkey = ORDER_NEGKEYS[order]
        self._zero = Polynomial(self, ())
        self._one = None

    @property
    def q(self) -> int:
        return self.field.q

    def unit_monomial(self):
        return (0,) * self.n

    def var_monomial(self, i: int, e: int = 1):
        m = [0] * self.n
        m[i] = e
        return tuple(m)

    @property
    def zero(self) -> "Polynomial":
        return self._zero

    @property
    def one(self) -> "Polynomial":
        if self._one is None:
            self._one = Polynomial(self, (((0,) * self.n, 1),))
        return self._one

    def constant(self, c: int) -> "Polynomial":
        c %= self.q
        if c == 0:
            return self._zero
        return Polynomial(self, (((0,) * self.n, c),))

    def variable(self, i: int) -> "Polynomial":
        return Polynomial(self, ((self.var_monomial(i), 1),))

    def poly(self, pairs: Iterable) -> "Polynomial":
        """Canonicalize raw (monomial, coefficient) pairs into a Polynomial.

        Merges duplicate monomials, reduces coefficients mod q, drops zeros and
        sorts terms strictly descending under the ring order.
        """
        q = self.q
        if isinstance(pairs, dict):
            pairs = pairs.items()
        acc: dict = {}
        for mono, coeff in pairs:
            mono = tuple(mono)
            if len(mono) != self.n:
                raise ValueError(f"monomial {mono} has {len(mono)} exponents, ring has {self.n}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            acc[mono] = (acc.get(mono, 0) + coeff) % q
        key = self.key
        terms = tuple(
            (m, c) for m, c in sorted(acc.items(), key=lambda t: key(t[0]), reverse=True) if c
        )
        if not terms:
            return self._zero
        return Polynomial(self, terms)

    def term(self, coeff: int, mono) -> "Polynomial":
        return self.poly([(mono, coeff)])

    def monomial_str(self, mono) -> str:
        parts = []
        for name, e in zip(self.names, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.q == self.q
            and other.names == self.names
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.q, self.names, self.order))

    def __repr__(self):
        return f"PolyRing(GF({self.q}), [{', '.join(self.names)}], {self.order})"


class Polynomial:
    """Canonical sorted term list over GF(q). Treat as immutable."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms):
        # trusted constructor: terms must already be canonical
        self.ring = ring
        self.terms = terms

    # ------------------------------------------------------------ basics

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or sum(self.terms[0][0]) == 0

    def lm(self):
        """Leading monomial."""
        if not self.terms:
            raise ZeroInputError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lc(self) -> int:
        if not self.terms:
            raise ZeroInputError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def lt(self):
        if not self.terms:
            raise ZeroInputError("zero polynomial has no leading term")
        return self.terms[0]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(total_degree(m) for m, _ in self.terms)

    def support(self) -> set:
        """Indices of variables that occur."""
        out = set()
        for m, _ in self.terms:
            for i, e in enumerate(m):
                if e:
                    out.add(i)
        return out

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("mixed rings")
        if not self.terms:
            return other
        if not other.terms:
            return self
        q = self.ring.q
        acc = dict(self.terms)
        for m, c in other.terms:
            v = (acc.get(m, 0) + c) % q
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
        key = self.ring.key
        return Polynomial(
            self.ring,
            tuple(sorted(acc.items(), key=lambda t: key(t[0]), reverse=True)),
        )

    def __neg__(self) -> "Polynomial":
        q = self.ring.q
        return Polynomial(self.ring, tuple((m, (-c) % q) for m, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c: int) -> "Polynomial":
        q = self.ring.q
        c %= q
        if c == 0:
            return self.ring.zero
        if c == 1:
            return self
        return Polynomial(self.ring, tuple((m, (k * c) % q) for m, k in self.terms))

    def term_mul(self, mono, coeff: int = 1) -> "Polynomial":
        """Multiply by a single term. Term order is preserved, so no re-sort."""
        q = self.ring.q
        coeff %= q
        if coeff == 0:
            return self.ring.zero
        return Polynomial(
            self.ring,
            tuple((mono_mul(m, mono), (c * coeff) % q) for m, c in self.terms),
        )

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        q = self.ring.q
        acc: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                acc[m] = (acc.get(m, 0) + c1 * c2) % q
        key = self.ring.key
        return Polynomial(
            self.ring,
            tuple((m, c) for m, c in sorted(acc.items(), key=lambda t: key(t[0]), reverse=True) if c),
        )

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        c = self.terms[0][1]
        if c == 1:
            return self
        return self.scale(self.ring.field.inv(c))

    def evaluate(self, point: Sequence[int]) -> int:
        """Evaluate at a full assignment (term-wise powers)."""
        q = self.ring.q
        if len(point) != self.ring.n:
            raise ValueError("point length does not match variable count")
        total = 0
        for m, c in self.terms:
            v = c
            for x, e in zip(point, m):
                if e:
                    v = v * pow(x, e, q) % q
            total = (total + v) % q
        return total

    # ------------------------------------------------------------ dunder glue

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.terms == self.terms
            and other.ring == self.ring
        )

    def __hash__(self):
        return hash(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            ms = self.ring.monomial_str(m)
            if not ms:
                parts.append(str(c))
            elif c == 1:
                parts.append(ms)
            else:
                parts.append(f"{c}*{ms}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self}>"


# ---------------------------------------------------------------- operations


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """(lcm/LT(f))*f - (lcm/LT(g))*g, the classic cancellation of leading terms."""
    if f.is_zero or g.is_zero:
        raise ZeroInputError("s_polynomial of a zero polynomial")
    field = f.ring.field
    l = mono_lcm(f.lm(), g.lm())
    uf = mono_div(l, f.lm())
    ug = mono_div(l, g.lm())
    return f.term_mul(uf, field.inv(f.lc())) - g.term_mul(ug, field.inv(g.lc()))


def normal_form(p: Polynomial, reducers: Sequence[Polynomial]) -> Polynomial:
    """Fully reduce p modulo the reducer list.

    Deterministic policy: always pick the largest still-reducible monomial of
    the running remainder, and reduce it with the first reducer (list order)
    whose leading monomial divides it. Every monomial of the result is
    irreducible.

    The reducer scan tests support bitmasks (``mono_mask``) before exponents.
    A mask mismatch only ever rules out a non-divisor and the scan order is
    unchanged, so the reducer chosen is the same as with exponents alone.
    """
    ring = p.ring
    if p.is_zero or not reducers:
        return p
    for g in reducers:
        if g.is_zero:
            raise ZeroInputError("zero polynomial in reducer list")
    red = [(mono_mask(g.lm()), g.lm(), g.lc(), g.terms[1:]) for g in reducers]
    q = ring.q
    field = ring.field
    negkey = ring.negkey
    coeffs = {}
    heap = []
    for m, c in p.terms:
        coeffs[m] = c
        heap.append((negkey(m), m))
    heapq.heapify(heap)
    out = []
    while heap:
        _, m = heapq.heappop(heap)
        c = coeffs.pop(m, 0)
        if not c:
            continue
        outside = ~mono_mask(m)
        for mask, lm, lc, tail in red:
            if mask & outside:
                continue
            quot = mono_div(m, lm)
            if quot is None:
                continue
            # cancel c*m using (c/lc)*(m/lm)*g; tail lands strictly below m
            fac = c * field.inv(lc) % q
            for t, ct in tail:
                m2 = mono_mul(quot, t)
                old = coeffs.get(m2)
                v = ((old or 0) - fac * ct) % q
                if v:
                    if old is None:
                        heapq.heappush(heap, (negkey(m2), m2))
                    coeffs[m2] = v
                else:
                    coeffs.pop(m2, None)
            break
        else:
            out.append((m, c))  # irreducible: popped in descending order
    if not out:
        return ring.zero
    return Polynomial(ring, tuple(out))


def interreduce(polys: Iterable[Polynomial]) -> list:
    """Mutually reduce a set to its unique reduced form.

    Result polynomials are monic, fully reduced against each other, and sorted
    ascending by leading monomial.
    """
    work = [p.monic() for p in polys if not p.is_zero]
    if not work:
        return []
    ring = work[0].ring
    changed = True
    while changed:
        changed = False
        out = []
        for i, p in enumerate(work):
            others = out + work[i + 1 :]
            h = normal_form(p, others) if others else p
            if h != p:
                changed = True
            if not h.is_zero:
                out.append(h.monic())
        work = out
    work.sort(key=lambda p: ring.key(p.lm()))
    return work


def field_reduce(p: Polynomial) -> Polynomial:
    """Replace every exponent e >= q using x^q = x, then re-canonicalize.

    The exponent map is e -> ((e - 1) mod (q - 1)) + 1, which keeps exponents
    in [1, q-1]. Note that this maps the field polynomial x^q - x itself to 0;
    callers that must keep field polynomials intact test for them first.
    """
    ring = p.ring
    q = ring.q
    if not any(max(m) >= q for m, _ in p.terms):
        return p
    qm1 = q - 1
    acc: dict = {}
    for m, c in p.terms:
        if max(m) >= q:
            m = tuple(e if e < q else ((e - 1) % qm1) + 1 for e in m)
        acc[m] = (acc.get(m, 0) + c) % q
    key = ring.key
    terms = tuple(
        (m, c) for m, c in sorted(acc.items(), key=lambda t: key(t[0]), reverse=True) if c
    )
    return Polynomial(ring, terms) if terms else ring.zero


def substitute(p: Polynomial, var: int, value: int) -> Polynomial:
    """p with x_var := value."""
    ring = p.ring
    q = ring.q
    value %= q
    pairs = []
    for m, c in p.terms:
        e = m[var]
        if e:
            c = c * pow(value, e, q) % q
            if not c:
                continue
            m = m[:var] + (0,) + m[var + 1 :]
        pairs.append((m, c))
    return ring.poly(pairs)


def is_univariate(p: Polynomial):
    """The unique variable index occurring in p, else None.

    None for the zero polynomial, constants, and anything with >= 2 variables.
    Constant terms alongside the single variable are fine.
    """
    seen = None
    for m, _ in p.terms:
        for i, e in enumerate(m):
            if e:
                if seen is None:
                    seen = i
                elif seen != i:
                    return None
    return seen


def univariate_coeffs(p: Polynomial, var: int) -> list:
    """Dense coefficient list c[0..d] with p = sum c[e] * x_var^e."""
    d = max((m[var] for m, _ in p.terms), default=0)
    out = [0] * (d + 1)
    for m, c in p.terms:
        out[m[var]] = c
    return out


def univariate_roots(p: Polynomial, var: int) -> set:
    """All a in GF(q) with p(x_var = a) = 0, by exhaustive evaluation."""
    if p.is_zero:
        raise ZeroPolynomialError("root search on the zero polynomial")
    q = p.ring.q
    coeffs = univariate_coeffs(p, var)
    roots = set()
    for a in range(q):
        acc = 0
        for c in reversed(coeffs):  # Horner
            acc = (acc * a + c) % q
        if acc == 0:
            roots.add(a)
    return roots


def is_field_polynomial(p: Polynomial):
    """Variable index i if p == x_i^q - x_i, else None."""
    if len(p.terms) != 2:
        return None
    q = p.ring.q
    (m1, c1), (m2, c2) = p.terms
    if c1 != 1 or c2 != q - 1:
        return None
    nz = [i for i, e in enumerate(m1) if e]
    if len(nz) != 1:
        return None
    i = nz[0]
    if m1[i] != q or m2 != p.ring.var_monomial(i, 1):
        return None
    return i

"""Multivariate polynomials over GF(q): rings, canonical forms, reduction.

A Polynomial is an immutable sorted term list (descending under the ring's
monomial order) with coefficients in canonical range. Every polynomial knows
its ring; operations never mix rings. Monomials are packed ints (see
``monomials``): the ring's ``codec`` does their arithmetic, and integer order
is the monomial order. Exponent tuples appear only at the boundary:
``PolyRing.poly`` takes them and ``PolyRing.exponents`` gives them back.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Iterable, Sequence

from .errors import ZeroInputError, ZeroPolynomialError
from .gf import PrimeField
from .monomials import ORDERS, MonomialCodec


class PolyRing:
    """GF(q)[x_1, ..., x_n] with a fixed monomial order.

    The first listed variable has the greatest precedence.
    """

    __slots__ = ("field", "names", "n", "order", "codec", "_zero", "_one")

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
        if order not in ORDERS:
            raise ValueError(f"unknown monomial order {order!r} (expected lex or grevlex)")
        self.names = tuple(names)
        self.n = len(names)
        self.order = order
        self.codec = MonomialCodec(self.n, q, order)
        self._zero = Polynomial(self, ())
        self._one = Polynomial(self, ((self.codec.one, 1),))

    @property
    def q(self) -> int:
        return self.field.q

    def unit_monomial(self):
        return (0,) * self.n

    def var_monomial(self, i: int, e: int = 1):
        m = [0] * self.n
        m[i] = e
        return tuple(m)

    def exponents(self, mono) -> tuple:
        """The exponent tuple of a packed monomial, e.g. of ``p.lm()``."""
        return self.codec.exponents(mono)

    @property
    def zero(self) -> "Polynomial":
        return self._zero

    @property
    def one(self) -> "Polynomial":
        return self._one

    def constant(self, c: int) -> "Polynomial":
        c %= self.q
        if c == 0:
            return self._zero
        return Polynomial(self, ((self.codec.one, c),))

    def variable(self, i: int) -> "Polynomial":
        return Polynomial(self, ((self.codec.var(i), 1),))

    def poly(self, pairs: Iterable) -> "Polynomial":
        """Canonicalize raw (exponent tuple, coefficient) pairs into a Polynomial.

        Merges duplicate monomials, reduces coefficients mod q, drops zeros and
        sorts terms strictly descending under the ring order. A monomial past
        the ring's degree limit raises MonomialOverflowError.
        """
        q = self.q
        pack = self.codec.pack
        if isinstance(pairs, dict):
            pairs = pairs.items()
        acc: dict = {}
        for mono, coeff in pairs:
            m = pack(mono)
            acc[m] = (acc.get(m, 0) + coeff) % q
        return _canonical(self, acc)

    def monomial_str(self, mono) -> str:
        parts = []
        for name, e in zip(self.names, self.codec.exponents(mono)):
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


def _canonical(ring: PolyRing, acc: dict) -> "Polynomial":
    """The polynomial of a {packed monomial: coefficient mod q} dict."""
    terms = tuple((m, c) for m, c in sorted(acc.items(), reverse=True) if c)
    return Polynomial(ring, terms) if terms else ring.zero


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
        return not self.terms or self.terms[0][0] == self.ring.codec.one

    def lm(self):
        """Leading monomial."""
        if not self.terms:
            raise ZeroInputError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lc(self) -> int:
        if not self.terms:
            raise ZeroInputError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        codec = self.ring.codec
        if codec.graded:  # the leading monomial has the largest degree
            return codec.degree(self.terms[0][0])
        return max(map(codec.degree, (m for m, _ in self.terms)))

    def support(self) -> set:
        """Indices of variables that occur."""
        mask = 0
        support = self.ring.codec.support
        for m, _ in self.terms:
            mask |= support(m)
        return {i for i in range(self.ring.n) if mask >> i & 1}

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
        return Polynomial(self.ring, tuple(sorted(acc.items(), reverse=True)))

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
        coeff %= self.ring.q
        if coeff == 0:
            return self.ring.zero
        return Polynomial(self.ring, tuple(_products(self, mono, coeff)))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        q = self.ring.q
        mul = self.ring.codec.mul
        acc: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mul(m1, m2)
                acc[m] = (acc.get(m, 0) + c1 * c2) % q
        return _canonical(self.ring, acc)

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
        exponents = self.ring.codec.exponents
        for m, c in self.terms:
            v = c
            for x, e in zip(point, exponents(m)):
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


def _products(p: Polynomial, mono, coeff: int) -> list:
    """The terms of coeff * mono * p in order, for 0 < coeff < q."""
    ring = p.ring
    q = ring.q
    codec = ring.codec
    s = codec.shift(mono)
    terms = [(m + s, (c * coeff) % q) for m, c in p.terms]
    guard = codec.guard
    for m, _ in terms:
        if m & guard:
            codec.mul(m - s, mono)  # raises MonomialOverflowError
    return terms


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """(lcm/LT(f))*f - (lcm/LT(g))*g, the classic cancellation of leading terms."""
    if f.is_zero or g.is_zero:
        raise ZeroInputError("s_polynomial of a zero polynomial")
    ring = f.ring
    q = ring.q
    field = ring.field
    codec = ring.codec
    l = codec.lcm(f.lm(), g.lm())
    acc = dict(_products(f, codec.div(l, f.lm()), field.inv(f.lc())))
    for m, c in _products(g, codec.div(l, g.lm()), -field.inv(g.lc()) % q):
        acc[m] = (acc.get(m, 0) + c) % q
    return _canonical(ring, acc)


def normal_form(p: Polynomial, reducers: Sequence[Polynomial]) -> Polynomial:
    """Fully reduce p modulo the reducer list.

    Deterministic policy: always pick the largest still-reducible monomial of
    the running remainder, and reduce it with the first reducer (list order)
    whose leading monomial divides it. Every monomial of the result is
    irreducible.
    """
    if p.is_zero or not reducers:
        return p
    for g in reducers:
        if g.is_zero:
            raise ZeroInputError("zero polynomial in reducer list")
    return _reduce_by(p, [_reducer(g) for g in reducers])


def _reducer(g: Polynomial) -> tuple:
    """A nonzero reducer as ``_reduce_by`` reads it: (shift(lm), lm, lc, terms)."""
    lm = g.terms[0][0]
    return g.ring.codec.shift(lm), lm, g.terms[0][1], g.terms


def _reduce_by(p: Polynomial, red: list) -> Polynomial:
    """``normal_form`` of a nonzero p against reducers made by ``_reducer``."""
    ring = p.ring
    codec = ring.codec
    guard = codec.guard
    # m - shift(lm) is the quotient m / lm, valid iff no guard bit is set;
    # the tail term t of g then maps to t + m - lm
    q = ring.q
    inv = ring.field.inv
    coeffs = {}
    heap = []  # negated monomials: the heap pops the largest first
    for m, c in p.terms:
        coeffs[m] = c
        heap.append(-m)
    heapq.heapify(heap)
    out = []
    while heap:
        m = -heapq.heappop(heap)
        c = coeffs.pop(m, 0)
        if not c:
            continue
        for s, lm, lc, tail in red:
            if (m - s) & guard:
                continue
            # cancel c*m using (c/lc)*(m/lm)*g; tail lands strictly below m.
            # Reducers outnumber reduction steps, so the inverse is taken
            # per step, and only for a reducer that is not monic.
            d = m - lm
            fac = c if lc == 1 else c * inv(lc) % q
            for t, ct in islice(tail, 1, None):
                m2 = t + d
                old = coeffs.get(m2)
                v = ((old or 0) - fac * ct) % q
                if v:
                    if old is None:
                        if m2 & guard:
                            codec.mul(t, m - s)  # raises MonomialOverflowError
                        heapq.heappush(heap, -m2)
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
    changed = True
    while changed:
        changed = False
        # each member's reducer entry is built once per pass
        red = [_reducer(p) for p in work]
        out, out_red = [], []
        for i, p in enumerate(work):
            others = out_red + red[i + 1 :]
            h = _reduce_by(p, others) if others else p
            if h != p:
                changed = True
            if not h.is_zero:
                h = h.monic()
                out.append(h)
                out_red.append(_reducer(h))
        work = out
    work.sort(key=Polynomial.lm)
    return work


def field_reduce(p: Polynomial) -> Polynomial:
    """Replace every exponent e >= q using x^q = x, then re-canonicalize.

    The exponent map is e -> ((e - 1) mod (q - 1)) + 1, which keeps exponents
    in [1, q-1]. Note that this maps the field polynomial x^q - x itself to 0;
    callers that must keep field polynomials intact test for them first.
    """
    folded = _folded(p.ring, p.terms)
    return p if folded is None else folded


def field_term_mul(p: Polynomial, mono, coeff: int) -> Polynomial:
    """``field_reduce(p.term_mul(mono, coeff))``, except that a product that
    is a field polynomial x^q - x stays as it is.

    Each term is folded as it is formed, so the unfolded product is never
    built as a polynomial.
    """
    ring = p.ring
    coeff %= ring.q
    if coeff == 0:
        return ring.zero
    terms = _products(p, mono, coeff)
    folded = _folded(ring, terms)
    if folded is not None:
        if len(terms) != 2 or is_field_polynomial(Polynomial(ring, tuple(terms))) is None:
            return folded
    return Polynomial(ring, tuple(terms))


def _folded(ring: PolyRing, terms):
    """The polynomial of terms with exponents folded by x^q = x, or None
    when no exponent reaches q."""
    codec = ring.codec
    foldable = codec.foldable
    if not any(foldable(m) for m, _ in terms):
        return None
    q = ring.q
    fold = codec.fold
    acc: dict = {}
    for m, c in terms:
        m = fold(m)
        acc[m] = (acc.get(m, 0) + c) % q
    return _canonical(ring, acc)


def substitute(p: Polynomial, var: int, value: int) -> Polynomial:
    """p with x_var := value."""
    ring = p.ring
    q = ring.q
    split = ring.codec.split
    value %= q
    acc: dict = {}
    for m, c in p.terms:
        e, m = split(m, var)
        if e:
            c = c * pow(value, e, q) % q
            if not c:
                continue
        acc[m] = (acc.get(m, 0) + c) % q
    return _canonical(ring, acc)


def is_univariate(p: Polynomial):
    """The unique variable index occurring in p, else None.

    None for the zero polynomial, constants, and anything with >= 2 variables.
    Constant terms alongside the single variable are fine.
    """
    support = p.ring.codec.support
    seen = 0
    for m, _ in p.terms:
        seen |= support(m)
        if seen & (seen - 1):
            return None
    return seen.bit_length() - 1 if seen else None


def univariate_coeffs(p: Polynomial, var: int) -> list:
    """Dense coefficient list c[0..d] with p = sum c[e] * x_var^e."""
    exponent = p.ring.codec.exponent
    d = max((exponent(m, var) for m, _ in p.terms), default=0)
    out = [0] * (d + 1)
    for m, c in p.terms:
        out[exponent(m, var)] = c
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
    codec = p.ring.codec
    i = codec.variable_index(m2)
    if i is None or m1 != codec.var(i, q):
        return None
    return i

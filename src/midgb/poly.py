"""Multivariate polynomials over GF(q): rings, canonical forms, reduction.

A Polynomial is an immutable sorted term list (descending under the ring's
monomial order) with coefficients in canonical range. Every polynomial knows
its ring; an operation on two rings raises MixedRingsError. Monomials are
packed ints (see ``monomials``): the ring's ``codec`` does their arithmetic,
and integer order is the monomial order. Exponent tuples appear only at the
boundary: ``PolyRing.poly`` takes them and ``PolyRing.exponents`` gives them
back.
"""

from __future__ import annotations

import heapq
import operator
from itertools import islice
from typing import Iterable, Sequence

from .errors import InvalidSettingError, MixedRingsError, NonPrimeFieldError, ZeroInputError
from .gf import is_prime
from .monomials import ExponentIndex, MonomialCodec


class PolyRing:
    """GF(q)[x_1, ..., x_n] with a fixed monomial order.

    The first listed variable has the greatest precedence.
    """

    __slots__ = ("q", "names", "n", "order", "codec", "_zero", "_one")

    def __init__(self, q: int, names: Sequence[str], order: str = "grevlex"):
        if not isinstance(q, int) or not is_prime(q):
            raise NonPrimeFieldError(f"field size must be a prime integer, got {q!r}")
        self.q = q
        names = list(names)
        if not names:
            raise InvalidSettingError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise InvalidSettingError(f"duplicate variable names in {names}")
        for nm in names:
            if not nm or not isinstance(nm, str):
                raise InvalidSettingError(f"bad variable name {nm!r}")
        self.names = tuple(names)
        self.n = len(names)
        self.order = order
        self.codec = MonomialCodec(self.n, q, order)
        self._zero = Polynomial(self, ())
        self._one = Polynomial(self, ((self.codec.one, 1),))

    def unit_monomial(self):
        return (0,) * self.n

    def var_monomial(self, i: int, e: int = 1):
        """The exponent tuple of x_i ** e."""
        _require_index(self, i)
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
        _require_index(self, i)
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


def _require_index(ring: PolyRing, i) -> None:
    """Raise InvalidSettingError unless i is a variable index of ``ring``."""
    if i not in range(ring.n):
        raise InvalidSettingError(f"variable index {i!r} is outside 0..{ring.n - 1}")


def _require_integers(values) -> None:
    """Raise InvalidSettingError unless every value is an integer."""
    for v in values:
        try:
            operator.index(v)
        except TypeError:
            raise InvalidSettingError(f"value {v!r} is not an integer") from None


def require_ring(ring: PolyRing, p: "Polynomial") -> None:
    """Raise MixedRingsError unless p belongs to ``ring``."""
    if p.ring is not ring and p.ring != ring:
        raise MixedRingsError(f"a polynomial over {p.ring} where {ring} was expected")


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

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        require_ring(self.ring, other)
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
        return Polynomial(self.ring, tuple([(m, (-c) % q) for m, c in self.terms]))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def scale(self, c: int) -> "Polynomial":
        q = self.ring.q
        c %= q
        if c == 0:
            return self.ring.zero
        if c == 1:
            return self
        return Polynomial(self.ring, tuple([(m, (k * c) % q) for m, k in self.terms]))

    def term_mul(self, mono, coeff: int = 1) -> "Polynomial":
        """Multiply by a single term. Term order is preserved, so no re-sort."""
        q = self.ring.q
        coeff %= q
        if coeff == 0:
            return self.ring.zero
        codec = self.ring.codec
        s = codec.shift(mono)
        # a list first, as in scale and __neg__: tuple() of a generator grows and
        # shrinks its tuple, which raised cyclic-6 buchberger's tracemalloc peak 17%
        terms = [(m + s, (c * coeff) % q) for m, c in self.terms]
        guard = codec.guard
        for m, _ in terms:
            if m & guard:
                codec.mul(m - s, mono)  # raises MonomialOverflowError
        return Polynomial(self.ring, tuple(terms))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        require_ring(self.ring, other)
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
        return self.scale(pow(c, -1, self.ring.q))

    def evaluate(self, point: Sequence[int]) -> int:
        """Evaluate at a full assignment of integers (term-wise powers)."""
        q = self.ring.q
        if len(point) != self.ring.n:
            raise InvalidSettingError(f"a point of {len(point)} values for {self.ring.n} variables")
        _require_integers(point)
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


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """(lcm/LT(f))*f - (lcm/LT(g))*g, the classic cancellation of leading terms."""
    if f.is_zero or g.is_zero:
        raise ZeroInputError("s_polynomial of a zero polynomial")
    ring = f.ring
    require_ring(ring, g)
    q, div = ring.q, ring.codec.div
    l = ring.codec.lcm(f.lm(), g.lm())
    f_part = f.term_mul(div(l, f.lm()), pow(f.lc(), -1, q))
    return f_part + g.term_mul(div(l, g.lm()), -pow(g.lc(), -1, q))


def normal_form(p: Polynomial, reducers: Sequence[Polynomial], first=None) -> Polynomial:
    """Fully reduce p modulo the reducer list.

    Deterministic policy: always pick the largest still-reducible monomial of
    the running remainder, and reduce it with the first reducer (list order)
    whose leading monomial divides it. Every monomial of the result is
    irreducible. ``first`` is a ``FirstDivisor`` over ``reducers`` whose
    lookups outlive this call; without one, the call checks that every
    reducer is nonzero and over p's ring and builds its own.
    """
    if p.is_zero or not reducers:
        return p
    if first is None:
        for g in reducers:
            if g.is_zero:
                raise ZeroInputError("zero polynomial in reducer list")
            require_ring(p.ring, g)
        first = FirstDivisor(reducers, p.ring, False)  # it forms no rows
    return _reduce_by(p, first)


def _reducer(g: Polynomial) -> tuple:
    """A nonzero reducer as ``_reduce_by`` reads it: (shift(lm), lm, lc, terms)."""
    lm = g.terms[0][0]
    return g.ring.codec.shift(lm), lm, g.terms[0][1], g.terms


class FirstDivisor:
    """The first member, in list order, whose leading monomial divides m.

    Answers are remembered per monomial as (members checked, index of the
    first divisor or None). The member list may grow by appends between
    lookups, and then a monomial with no divisor yet is tested only against
    the members appended since; any other change to the list needs a new
    FirstDivisor. Members must be nonzero. ``field_members()`` gives the
    indices of the members that are field polynomials x^q - x, each member
    tested once. ``heads()`` is the members' leading monomials in a
    ``monomials.ExponentIndex``, brought up to the appends when asked; it
    is how ``engine.update`` pairs a new member. Lookups scan the members
    instead: a lookup's members are few or its misses are answered from
    the memo, and a scan of the appended members alone beats a query of
    the index there.

    The lookup is also the whole context of the F4 kernels (``f4``): it
    keeps the ``ring`` and ``field_active``, whether the run adjoins field
    equations, and two tables. ``rows`` lives exactly as long as the lookup:
    it maps a monomial m to its reducer row, (m / LM(g)) * g / LC(g) for its
    first divisor g, folded when field equations are on; once m has a
    divisor it keeps it while the list only grows, so the row stays exact,
    and a monomial with no divisor has no entry. ``folds`` maps a product
    monomial to its exponent fold (see ``field_term_mul``). A fold depends
    on the ring alone, so a caller may pass one table to every lookup of a
    run (``runner.RunState`` does); without one, the lookup starts its own.
    It holds only valid monomials, so a product past the limit still misses
    and raises. ``masks`` is where ``f4``'s mask kernel keeps the members'
    terms as Boolean masks; that kernel forms its reducer rows itself and
    leaves ``rows`` alone, so every row there is a ``Polynomial``.
    """

    __slots__ = (
        "members", "ring", "field_active", "reducers", "rows", "folds", "masks", "_fields",
        "_tested", "_shifts", "_memo", "_guard", "_heads",
    )

    def __init__(self, members: list, ring: PolyRing, field_active: bool, folds=None):
        self.members = members
        self.ring = ring
        self.field_active = field_active
        self.reducers: list = []  # _reducer(g) of the members seen so far
        self.rows: dict = {}  # m -> reducer row
        self.folds: dict = {} if folds is None else folds
        self.masks: list | None = []  # see f4._member_masks
        self._fields: set = set()  # the field polynomials among members[:_tested]
        self._tested = 0
        self._shifts: list = []
        self._memo: dict = {}
        self._guard = ring.codec.guard
        self._heads = None  # made by heads()

    def field_members(self) -> set:
        """The indices of the members that are field polynomials."""
        members = self.members
        for i in range(self._tested, len(members)):
            if is_field_polynomial(members[i]) is not None:
                self._fields.add(i)
        self._tested = len(members)
        return self._fields

    def heads(self) -> ExponentIndex:
        """The members' leading monomials, indexed, brought up to the members."""
        if self._heads is None:
            self._heads = ExponentIndex(self.ring.codec)
        heads, members = self._heads, self.members
        if len(heads) < len(members):
            heads.extend([g.lm() for g in members[len(heads):]])
        return heads

    def index(self, m):
        """The index of the first member whose leading monomial divides m, or None."""
        hit = self._memo.get(m)
        if hit is not None:
            start, i = hit
            if i is not None:
                return i
        else:
            start = 0
        shifts = self._shifts
        if len(shifts) < len(self.members):
            fresh = [_reducer(g) for g in self.members[len(shifts):]]
            self.reducers += fresh
            shifts += [r[0] for r in fresh]
        # m - shift(lm) is the quotient m / lm, valid iff no guard bit is set
        guard = self._guard
        for i in range(start, len(shifts)):
            if not (m - shifts[i]) & guard:
                self._memo[m] = (i + 1, i)
                return i
        self._memo[m] = (len(shifts), None)
        return None

    def __call__(self, m):
        """The first divisor's ``_reducer`` entry, or None."""
        i = self.index(m)
        return None if i is None else self.reducers[i]


def _reduce_by(p: Polynomial, first) -> Polynomial:
    """``normal_form`` of a nonzero p, where ``first(m)`` is the ``_reducer``
    entry that reduces the monomial m, or None when m is irreducible."""
    ring = p.ring
    codec = ring.codec
    guard = codec.guard
    # m - shift(lm) is the quotient m / lm, valid iff no guard bit is set;
    # the tail term t of g then maps to t + m - lm
    q = ring.q
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
        r = first(m)
        if r is None:
            out.append((m, c))  # irreducible: popped in descending order
            continue
        s, lm, lc, tail = r
        # cancel c*m using (c/lc)*(m/lm)*g; tail lands strictly below m.
        # Reducers outnumber reduction steps, so the inverse is taken
        # per step, and only for a reducer that is not monic.
        d = m - lm
        fac = c if lc == 1 else c * pow(lc, -1, q) % q
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
    if not out:
        return ring.zero
    return Polynomial(ring, tuple(out))


def interreduce(polys: Iterable[Polynomial]) -> list:
    """Mutually reduce a set until no member can reduce another.

    Result polynomials are monic, fully reduced against each other, and sorted
    ascending by leading monomial. The result is deterministic for a given
    input order, but not unique: another order of the same set may reach
    another interreduced set (unless the input is a Groebner basis).

    Each pass reduces every member in turn by the others: slot k holds this
    pass's result for member k < i and last pass's version for k > i, and a
    dropped member leaves its slot empty.

    Of the engines, only ``midsolve.renew`` calls it, on survivors of a
    substitution that are not a Groebner basis. A completed basis goes
    through ``f4.reduced_basis`` instead, which returns the same list.
    """
    work = [p.monic() for p in polys if not p.is_zero]
    if not work:
        return []
    for p in work:
        require_ring(work[0].ring, p)
    guard = work[0].ring.codec.guard
    changed = True
    while changed:
        changed = False
        slots = [_reducer(p) for p in work]
        memo: dict = {}  # lookups of this pass, see _pass_divisors
        out = []
        for i, p in enumerate(work):
            h = _reduce_by(p, _pass_divisors(slots, memo, i, guard))
            if h != p:
                changed = True
            if h.is_zero:
                slots[i] = None
            else:
                h = h.monic()
                out.append(h)
                slots[i] = _reducer(h)
        work = out
    work.sort(key=Polynomial.lm)
    return work


def _pass_divisors(slots: list, memo: dict, i: int, guard: int):
    """The first-divisor lookup of member i in an ``interreduce`` pass.

    ``memo`` maps a monomial m to (i0, the slots other than i0 whose leading
    monomial divided m while member i0 was reduced). Since then only slots
    i0 .. i-1 have changed, so a divisor below i0 still answers at once;
    otherwise those slots are tested again, and the divisors above i stand.
    """

    def first(m):
        hit = memo.get(m)
        if hit is None:
            divs = [
                k for k, r in enumerate(slots)
                if k != i and r is not None and not (m - r[0]) & guard
            ]
        else:
            i0, divs = hit
            if divs and divs[0] < i0:
                return slots[divs[0]]
            divs = [
                k for k in range(i0, i)
                if slots[k] is not None and not (m - slots[k][0]) & guard
            ] + [k for k in divs if k > i]
        memo[m] = (i, divs)
        return slots[divs[0]] if divs else None

    return first


def field_reduce(p: Polynomial) -> Polynomial:
    """Replace every exponent e >= q using x^q = x, then re-canonicalize.

    The exponent map is e -> ((e - 1) mod (q - 1)) + 1, which keeps exponents
    in [1, q-1]. Note that this maps the field polynomial x^q - x itself to 0;
    callers that must keep field polynomials intact test for them first.
    """
    ring = p.ring
    foldable = ring.codec.foldable
    if not any(foldable(m) for m, _ in p.terms):
        return p
    terms, _ = _fold_products(p, ring.codec.one, 1, {})
    return Polynomial(ring, terms) if terms else ring.zero


def field_term_mul(p: Polynomial, mono, coeff: int, folds=None) -> Polynomial:
    """``field_reduce(p.term_mul(mono, coeff))``, except that a product that
    is a field polynomial x^q - x stays as it is.

    Each term is folded as it is formed, so the unfolded product is never
    built as a polynomial. ``folds`` is a dict from monomial to folded
    monomial that callers may share across products of one ring.
    """
    ring = p.ring
    coeff %= ring.q
    if coeff == 0:
        return ring.zero
    terms, moved = _fold_products(p, mono, coeff, {} if folds is None else folds)
    if moved and len(p.terms) == 2:
        product = p.term_mul(mono, coeff)
        if is_field_polynomial(product) is not None:
            return product
    return Polynomial(ring, terms) if terms else ring.zero


def _fold_products(p: Polynomial, mono, coeff: int, folds: dict) -> tuple:
    """(terms, moved): the canonical terms of coeff * mono * p, for
    0 < coeff < q, with exponents folded by x^q = x, and whether a fold
    moved a monomial.

    One pass over p's terms: the product monomial t + shift(mono), its fold
    from the ``folds`` memo (a miss first checks the product's guard bits,
    so every memo key is a valid monomial), and the merge of the term. The
    terms are sorted once at the end, only if a fold moved one; otherwise
    they are the product's, still distinct and in order. Over GF(2) every
    coefficient is 1 and two equal terms cancel, so ``_fold_gf2`` merges by
    membership alone; ``_fold_general`` does the coefficient arithmetic of
    every field, GF(2) included.
    """
    if p.ring.q == 2:
        return _fold_gf2(p, mono, folds)
    return _fold_general(p, mono, coeff, folds)


def _fold_general(p: Polynomial, mono, coeff: int, folds: dict) -> tuple:
    ring = p.ring
    q, codec = ring.q, ring.codec
    s, guard, fold = codec.shift(mono), codec.guard, codec.fold
    acc: dict = {}
    moved = False
    for t, c in p.terms:
        m = t + s
        f = folds.get(m)
        if f is None:
            if m & guard:
                codec.mul(t, mono)  # raises MonomialOverflowError
            f = folds[m] = fold(m)
        if f != m:
            moved = True
        c = (acc.get(f, 0) + c * coeff) % q
        if c:
            acc[f] = c
        else:
            del acc[f]
    if moved:
        return tuple(sorted(acc.items(), reverse=True)), True
    return tuple(acc.items()), False


def _fold_gf2(p: Polynomial, mono, folds: dict) -> tuple:
    codec = p.ring.codec
    s = codec.shift(mono)
    get = folds.get
    odd: set = set()  # the folded monomials met an odd number of times
    add, remove = odd.add, odd.remove
    moved = False
    for t, _ in p.terms:
        m = t + s
        f = get(m)
        if f is None:
            if m & codec.guard:
                codec.mul(t, mono)  # raises MonomialOverflowError
            f = folds[m] = codec.fold(m)
        if f != m:
            moved = True
        if f in odd:
            remove(f)
        else:
            add(f)
    if moved:
        return tuple([(f, 1) for f in sorted(odd, reverse=True)]), True
    return tuple([(t + s, 1) for t, _ in p.terms]), False


def substitute(p: Polynomial, values: dict) -> Polynomial:
    """p with x_i := values[i] for every variable index i in ``values``."""
    return substitution(p.ring, values)(p)


def substitution(ring: PolyRing, values: dict):
    """The map p -> ``substitute(p, values)`` over ``ring``, with its masks
    built once for every polynomial it is given. A key of ``values`` that is
    not a variable index, or a value that is not an integer, raises
    InvalidSettingError.

    One mask test passes a term free of the mapped variables, and one drops
    a term that holds a variable valued 0; only values past 1 need their
    exponents.
    """
    for i in values:
        _require_index(ring, i)
    _require_integers(values.values())
    codec = ring.codec
    q, one, exponent, drop = ring.q, codec.one, codec.exponent, codec.drop
    mask = codec.occurs_mask(values)
    zero = codec.occurs_mask([i for i, v in values.items() if not v % q])
    powers = [(i, v % q) for i, v in values.items() if v % q > 1]

    def apply(p: Polynomial) -> Polynomial:
        acc: dict = {}
        for m, c in p.terms:
            hit = (m ^ one) & mask
            if hit:
                if hit & zero:
                    continue
                for i, v in powers:
                    c = c * pow(v, exponent(m, i), q) % q
                m = drop(m, mask)
            acc[m] = (acc.get(m, 0) + c) % q
        return _canonical(ring, acc)

    return apply


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

"""Packed monomials: one Python int per monomial, whose integer order is the
ring's monomial order.

Layout. A ring with n variables stores a monomial as n + 1 slots of w bits:
one slot per exponent and one for the total degree d. With C = 2**(w-1) - 1,

    lex:      [ e_1 | e_2 | ... | e_n | d ]            e_1 in the top slot
    grevlex:  [ d | C-e_n | ... | C-e_2 | C-e_1 ]      d in the top slot

so plain integer comparison is the ring order. Under lex the exponents are
compared from x_1 down, and the degree slot at the bottom is reached only
when all exponents are equal. Under grevlex the degree is compared first, then
the smaller e_n wins, then the smaller e_(n-1), and so on: the sort key
``(sum(e), (-e_n, ..., -e_1))`` written as one int. ``sorted``, ``heapq`` and
``min`` compare monomials with no key function.

Linearity. Both layouts are affine in the exponent vector:
``m = one + sum(e_i * unit_i)``, where ``one`` is the packed unit monomial (C
in every grevlex exponent slot, 0 under lex) and ``unit_i`` is x_i's step.
Hence, with ``shift(u) = u - one``:

    product   m * u = m + shift(u)
    quotient  m / u = m - shift(u)

Guard bits. The top bit of every slot is a guard bit, and the ring's limit
C bounds the total degree (so every exponent) of a monomial, so a valid
monomial has every guard bit clear. A product or quotient of valid monomials
has a guard bit set exactly when the product is past the limit or u does not
divide m: a slot sum never carries out of its w bits, and the lowest slot
that goes negative borrows and so sets its own guard bit. One ``& guard``
catches overflow, and one decides divisibility.

Width rule. w = q.bit_length() + n.bit_length() + 8, so the limit C exceeds
128*n*q. With field equations adjoined no stored exponent exceeds q and no
created degree exceeds n(q-1) + 1, far below the limit; without them the
limit still leaves room for large exponents. A monomial past the limit is
never wrapped: packing it, or forming it as a product, raises
``MonomialOverflowError``.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right

import numpy as np

from .errors import InvalidSettingError, MonomialOverflowError

ORDERS = ("lex", "grevlex")
_MASK_CHUNK = 1 << 14  # monomials per chunk of MonomialCodec.to_masks


def _require_integers(values) -> None:
    """Raise InvalidSettingError unless every value is an integer."""
    for v in values:
        try:
            operator.index(v)
        except TypeError:
            raise InvalidSettingError(f"value {v!r} is not an integer") from None


class MonomialCodec:
    """Packing and arithmetic of monomials for one ring (n variables, GF(q), order).

    Callers treat packed monomials as opaque ints. They may compare them
    (integer order is the ring order), hash them, and use the algebraic
    contract above: ``m + shift(u)`` and ``m - shift(u)`` are the product and
    quotient, valid iff ``result & guard == 0``.
    """

    __slots__ = (
        "n", "q", "order", "graded", "width", "limit", "one", "guard",
        "_sign", "_slot", "_dshift", "_units", "_pos", "_emask", "_eguard",
        "_eones", "_sumshift", "_flip", "_at_q", "_vars", "_mask_tables", "_slot_vars",
    )

    def __init__(self, n: int, q: int, order: str):
        if order not in ORDERS:
            raise InvalidSettingError(
                f"unknown monomial order {order!r} (expected lex or grevlex)"
            )
        w = q.bit_length() + n.bit_length() + 8
        half = 1 << (w - 1)
        self.n, self.q, self.order, self.width = n, q, order, w
        self.limit = half - 1
        self._slot = (1 << w) - 1
        lex = order == "lex"
        self.graded = not lex  # the total degree decides the order first
        # exponent slot of variable i, and the degree slot
        if lex:
            self._pos = tuple((n - i) * w for i in range(n))
            self._dshift = 0
        else:
            self._pos = tuple(i * w for i in range(n))
            self._dshift = n * w
        self._sign = 1 if lex else -1
        self._eones = sum(1 << p for p in self._pos)
        self._eguard = self._eones << (w - 1)
        self._emask = self._eones * self._slot
        self.guard = self._eguard | (half << self._dshift)
        self.one = 0 if lex else self.limit * self._eones
        dunit = 1 << self._dshift
        self._units = tuple(self._sign * (1 << p) + dunit for p in self._pos)
        # for x holding plain exponents in the exponent slots, the slot of
        # x * _eones at this shift holds their sum
        self._sumshift = self._pos[0] + self._pos[-1]
        self._flip = 0 if lex else self._eguard
        self._at_q = self._at_least(q)
        self._vars = {self.one + u: i for i, u in enumerate(self._units)}
        self._mask_tables = None
        self._slot_vars = {p + w - 1: i for i, p in enumerate(self._pos)}  # guard bit -> variable

    # ------------------------------------------------------------ boundary

    def pack(self, exps) -> int:
        """The packed form of an exponent sequence (index 0 = x_1)."""
        exps = tuple(exps)
        if len(exps) != self.n:
            raise InvalidSettingError(
                f"monomial {exps} has {len(exps)} exponents, ring has {self.n}"
            )
        _require_integers(exps)
        if min(exps) < 0:
            raise InvalidSettingError(f"negative exponent in {exps}")
        d = sum(exps)
        if d > self.limit:
            raise MonomialOverflowError(
                f"monomial {exps} has total degree {d}, past this ring's limit {self.limit}"
            )
        return self.one + sum(map(operator.mul, exps, self._units))

    def exponents(self, m: int) -> tuple:
        """The exponent tuple of a packed monomial (index 0 = x_1)."""
        slots = map(self._slot.__and__, map(m.__rshift__, self._pos))
        if self._sign > 0:
            return tuple(slots)
        return tuple(map(self.limit.__sub__, slots))

    def powers(self, m: int) -> list:
        """(i, e) for each variable x_i that occurs in m, with its exponent e.

        ``m ^ one`` holds the plain exponents in the exponent slots, and
        adding half - 1 to each sets the guard bit of exactly the slots
        that are not 0, so only the variables of m are visited.
        """
        x = (m ^ self.one) & self._emask
        hits = (x + self._eguard - self._eones) & self._eguard
        slot, slot_vars, out = self._slot, self._slot_vars, []
        while hits:
            top = hits.bit_length() - 1
            hits ^= 1 << top
            out.append((slot_vars[top], x >> (top - self.width + 1) & slot))
        return out

    def var(self, i: int, e: int = 1) -> int:
        """x_i ** e."""
        if e > self.limit:
            raise MonomialOverflowError(f"exponent {e} is past this ring's limit {self.limit}")
        return self.one + e * self._units[i]

    def variable_index(self, m: int):
        """i if m is the variable x_i itself, else None."""
        return self._vars.get(m)

    # A monomial with every exponent at most 1 is a set of variables, and so
    # an n-bit mask: bit k is the k-th exponent slot from the bottom, which
    # is x_(k+1) under grevlex and x_(n-k) under lex. Masks then compare as
    # the ring does: under lex by integer order; under grevlex by popcount
    # first and then by the smaller mask, that is by the integer
    # (popcount << n) | (~mask & (2**n - 1)).

    def to_masks(self, ms) -> tuple:
        """(masks, boolean) for a list of monomials, as numpy arrays: each
        one's mask (uint64, for n <= 64), and whether all its exponents are
        0 or 1; where they are not, its mask is meaningless.

        ``m ^ one`` holds every exponent e in its slot in either layout (a
        grevlex slot holds C - e, and C is all ones): its exponents are at
        most 1 when no slot has a bit set above its lowest, and the mask is
        the lowest bit of each slot, read from the bytes of those ints. The
        monomials are taken a bounded chunk at a time, since their bytes and
        their bits, one byte each, take far more memory than the masks.
        """
        n, w, size = self.n, self.width, (self.width * (self.n + 1) + 7) // 8
        base, high, one = min(self._pos), self._emask ^ self._eones, self.one
        low = np.zeros((len(ms), 8), dtype=np.uint8)  # each mask's bytes, low byte first
        boolean = np.zeros(len(ms), dtype=bool)
        for i in range(0, len(ms), _MASK_CHUNK):
            xs = [m ^ one for m in ms[i:i + _MASK_CHUNK]]
            raw = np.frombuffer(b"".join([x.to_bytes(size, "little") for x in xs]), np.uint8)
            bits = np.unpackbits(raw.reshape(len(xs), size), axis=1, bitorder="little")
            low[i:i + len(xs), :(n + 7) // 8] = np.packbits(
                bits[:, base:base + n * w:w], axis=1, bitorder="little"
            )
            boolean[i:i + len(xs)] = [not x & high for x in xs]
        return low.view("<u8").ravel().astype(np.uint64), boolean

    def from_mask(self, mask: int) -> int:
        """The monomial of an n-bit mask."""
        m = self.one
        for table in self._places():
            m += table[mask & 255]
            mask >>= 8
        return m

    def _places(self) -> list:
        """``place[g][b]``, made on first use: the sum of the units of the
        slots that the bits of b stand for in byte g of a mask."""
        if self._mask_tables is None:
            units = [u for _, u in sorted(zip(self._pos, self._units))]  # by slot, from the bottom
            self._mask_tables = [
                [sum(u for j, u in enumerate(units[g:g + 8]) if b >> j & 1) for b in range(256)]
                for g in range(0, self.n, 8)
            ]
        return self._mask_tables

    # ------------------------------------------------------------ arithmetic

    def shift(self, u: int) -> int:
        """The int s with m * u == m + s and m / u == m - s for every m."""
        return u - self.one

    def mul(self, a: int, b: int) -> int:
        r = a + b - self.one
        if r & self.guard:
            raise MonomialOverflowError(
                f"product of {self.exponents(a)} and {self.exponents(b)} is past "
                f"this ring's limit {self.limit}"
            )
        return r

    def div(self, a: int, b: int):
        """a / b, or None when b does not divide a."""
        r = a - b + self.one
        return None if r & self.guard else r

    def degree(self, m: int) -> int:
        return (m >> self._dshift) & self._slot

    def exponent(self, m: int, i: int) -> int:
        """The exponent of x_i in m."""
        e = (m >> self._pos[i]) & self._slot
        return e if self._sign > 0 else self.limit - e

    # The slot-parallel operations below test all exponent slots at once.
    # ``_at_least(t)`` is the constant a with ((m + a) & _eguard) ^ _flip
    # holding the guard bit of every slot whose exponent is at least t.

    def _at_least(self, t: int) -> int:
        if self._sign > 0:  # slot holds e: e >= t iff e + (half - t) >= half
            return self._eguard - t * self._eones
        return t * self._eones  # slot holds C - e: e >= t iff C - e + t <= C

    def lcm(self, a: int, b: int) -> int:
        """The lcm of a and b, raising ``MonomialOverflowError`` past the limit.

        With t all ones in the slots where a's slot is at least b's, the
        larger exponent's slot is ``b ^ ((a ^ b) & t)`` under lex, and
        ``a ^ ((a ^ b) & t)`` under grevlex (slots C - e). Every partial sum
        of exponents is at most deg a + deg b < 2**w, so the sum of the
        exponents takes one multiply into the sum slot without a carry.
        """
        em, g = self._emask, self._eguard
        sa, sb = a & em, b & em
        ge = ((sa | g) - sb) & g  # guard bit where a's slot >= b's
        x = (sb if self._sign > 0 else sa) ^ ((sa ^ sb) & (ge - (ge >> (self.width - 1))))
        d = ((self._sign * (x - self.one) * self._eones) >> self._sumshift) & self._slot
        if d > self.limit:
            raise MonomialOverflowError(
                f"lcm of {self.exponents(a)} and {self.exponents(b)} is past "
                f"this ring's limit {self.limit}"
            )
        return x + (d << self._dshift)

    def coprime(self, a: int, b: int) -> bool:
        """True iff no variable occurs in both a and b. ``m ^ one`` holds
        m's plain exponents, and adding half - 1 to each slot sets the guard
        bit of exactly the slots that are not 0."""
        em, one, step = self._emask, self.one, self._eguard - self._eones
        return not (((a ^ one) & em) + step) & (((b ^ one) & em) + step) & self._eguard

    def support(self, m: int) -> int:
        """Bitmask of the variables occurring in m: bit i is x_i."""
        return sum(1 << i for i, p in enumerate(self._pos)
                   if (m >> p) & self._slot != (self.one >> p) & self._slot)

    def occurs_mask(self, variables) -> int:
        """The mask k of the exponent slots of ``variables``. ``(m ^ one) & k``
        holds m's exponents of them in those slots (a grevlex slot keeps
        C - e, and C is all ones), so it is nonzero iff one of them occurs."""
        return sum(self.limit << self._pos[i] for i in variables)

    def drop(self, m: int, mask: int) -> int:
        """m with the exponents of the variables under ``occurs_mask`` set to 0."""
        x = (m ^ self.one) & mask
        d = ((x * self._eones) >> self._sumshift) & self._slot  # their total degree
        return m - self._sign * x - (d << self._dshift)

    def exceeds(self, m: int, bound: int) -> bool:
        """True iff some exponent of m is greater than bound."""
        if bound >= self.limit:
            return False
        return (m + self._at_least(bound + 1)) & self._eguard != self._flip

    def foldable(self, m: int) -> bool:
        """True iff some exponent of m is at least q."""
        return (m + self._at_q) & self._eguard != self._flip

    def fold(self, m: int) -> int:
        """m with every exponent e >= q replaced by ((e - 1) mod (q - 1)) + 1.

        On GF(q) points x**q == x, so this is the same function there.
        """
        g, f, a = self._eguard, self._flip, self._at_q
        hit = ((m + a) & g) ^ f
        if not hit:
            return m
        h, step, sign, ds = self.width - 1, self.q - 1, self._sign, self._dshift
        while hit:  # subtract q - 1 from every exponent still >= q
            m -= sign * (hit >> h) * step + (hit.bit_count() * step << ds)
            hit = ((m + a) & g) ^ f
        return m


class ExponentIndex:
    """A list of monomials that grows by appends, indexed by variable and
    exponent. Monomial p of the list is bit p of every set here, a Python int.

    For each variable x_i the index keeps the distinct exponents e > 0 that
    x_i takes in the list, ascending, and for each one the set of the
    monomials whose x_i-exponent is at least e. Sets are kept per exponent
    that occurs, not per exponent up to the largest, so a huge exponent
    costs one set. ``supports`` holds each monomial's variables, bit i for
    x_i. A question of divisibility is then a few set operations per
    variable, whatever the length of the list.
    """

    __slots__ = ("codec", "supports", "_exps", "_sets")

    def __init__(self, codec: MonomialCodec):
        self.codec = codec
        self.supports: list = []
        self._exps = [[] for _ in range(codec.n)]  # per variable: exponents that occur, ascending
        self._sets = [[] for _ in range(codec.n)]  # _sets[i][j]: x_i-exponent >= _exps[i][j]

    def __len__(self):
        return len(self.supports)

    def extend(self, ms) -> None:
        """Append the monomials ``ms``."""
        powers, supports = self.codec.powers, self.supports
        for m in ms:
            bit, support = 1 << len(supports), 0
            for i, e in powers(m):
                support |= 1 << i
                exps, sets = self._exps[i], self._sets[i]
                j = bisect_left(exps, e)
                if j == len(exps) or exps[j] != e:  # a new level holds what the next one up holds
                    exps.insert(j, e)
                    sets.insert(j, sets[j] if j < len(sets) else 0)
                for k in range(j + 1):
                    sets[k] |= bit
            supports.append(support)

    def above(self, powers) -> list:
        """For each variable x_i, the monomials whose x_i-exponent is above
        its exponent in u, given as ``powers`` (``MonomialCodec.powers(u)``)."""
        exps, sets = self._exps, self._sets
        over = [s[0] if s else 0 for s in sets]
        for i, e in powers:
            es = exps[i]
            over[i] = sets[i][bisect_right(es, e)] if es and es[-1] > e else 0
        return over

    def least(self, i: int, within: int) -> tuple:
        """(e, tied, reach) for a nonempty set ``within`` of monomials that
        have x_i: the least x_i-exponent e among them, those of them that
        have it, and every monomial whose x_i-exponent is at least e."""
        sets = self._sets[i]
        for j in range(1, len(sets)):
            tied = within & ~sets[j]
            if tied:
                return self._exps[i][j - 1], tied, sets[j - 1]
        return self._exps[i][-1], within, sets[-1]

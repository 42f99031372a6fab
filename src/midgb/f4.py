"""Matrix kernels: symbolic preprocessing, the split Macaulay matrix and its
elimination, and the one-matrix reduced basis.

``symbolic_preprocess`` gathers, for a batch of critical pairs, all the
monomial multiples needed to reduce the whole batch at once, and
``MacaulayMatrix`` reduces them in one matrix. Rows whose heads the lookup
finds reducible are used as known pivots; only the others are brought to
reduced row echelon form, in one walk over the columns (over GF(2) the block
is held by columns, one int bitmask of rows each; see ``MacaulayMatrix``).
``reduced_basis`` turns a completed basis into its reduced Groebner basis
with the same closure and the same known-pivot elimination, in one matrix.

Every kernel's one context is the run's reducer lookup, a
``poly.FirstDivisor``: its members are the basis, and it keeps the ring, the
run's field-equation setting and the reducer rows and folds made so far.
``runner`` passes ``RunState.divisors``; nothing here imports ``runner``.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from .engine import created_cap, degree_monitor
from .errors import EmptyBatchError
from .poly import FirstDivisor, Polynomial, field_term_mul


def _multiple(g: Polynomial, quot, first: FirstDivisor) -> Polynomial:
    """(quot / LC(g)) * g, folded through ``first.folds`` when ``first``'s
    field equations are on, unless the product is a field polynomial.

    A quotient of 1 gives g itself, which is exact only for a canonical g:
    monic, and folded unless it is a field polynomial. The kernels here take
    multiples of basis members only, and a run stores every member canonical
    (``runner.RunState.store``).
    """
    if quot == g.ring.codec.one:
        return g
    inv = pow(g.lc(), -1, g.ring.q)
    if first.field_active:
        return field_term_mul(g, quot, inv, first.folds)
    return g.term_mul(quot, inv)


def _close(rows: list, seen: set, first: FirstDivisor) -> None:
    """Close ``rows`` downward under reduction by ``first``'s members.

    Every monomial of every row that is not in ``seen`` gets a reducer row,
    appended to ``rows``: the multiple of the first member, in ``first``'s
    list order, whose leading monomial divides it. The walk covers the rows
    as they grow, reducer rows included, and adds each monomial it looks up
    to ``seen``. A reducer row is made once per ``first`` (``_multiple``)
    and then taken from ``first.rows``. The caller checks the degree bound
    of the rows made (``_check_created``).
    """
    members = first.members
    made = first.rows
    for row in rows:
        fresh = [m for m, _ in row.terms if m not in seen]  # a row's terms are distinct
        seen.update(fresh)
        for m in fresh:
            reducer = made.get(m)
            if reducer is None:
                i = first.index(m)
                if i is None:
                    continue
                g = members[i]
                reducer = made[m] = _multiple(g, m - first.reducers[i][0], first)  # m / LM(g)
            rows.append(reducer)


def _check_created(rows, start: int, monomials, first: FirstDivisor) -> None:
    """``degree_monitor(row, ring, "created")`` for every row of ``rows[start:]``,
    checked once for the whole matrix on its highest degree.

    ``monomials`` holds every monomial of the rows. Only when one of them is
    past the bound are the rows walked, in the order they were made, so the
    first row past it raises the same error as a check when it was made.
    """
    if not first.field_active or not monomials:
        return
    ring, codec = first.ring, first.ring.codec
    if codec.graded:  # the largest column has the highest degree
        top = codec.degree(max(monomials))
    else:
        top = max(map(codec.degree, monomials))
    if top > created_cap(ring):
        for row in rows[start:]:
            degree_monitor(row, ring, "created")


class Rows(list):
    """A matrix's rows, and ``monomials``: the set of all their monomials,
    which the closure has gathered, so ``_columns`` need not walk them."""

    __slots__ = ("monomials",)


def symbolic_preprocess(pairs, first: FirstDivisor) -> list:
    """Collect every row the batch's one matrix needs; the pairs index
    ``first.members``, canonical as a run's basis is (see ``_multiple``).

    Seeds the row list with the two monomial multiples that cancel each
    pair's leading terms, then closes downward (``_close``): every monomial
    of every row that is not already some row's leading monomial gets a
    reducer row (the first member, in insertion order, whose leading
    monomial divides it); row order does not change the matrix's reduced
    rows. ``first`` may carry lookups, reducer rows and folds from earlier
    rounds. Rows are exponent-folded on the spot (field polynomials
    excepted), through ``first.folds``, so the matrix never grows columns
    past the per-variable degree cap. With field equations on, a pair side
    whose member is a field polynomial x^q - x (one of
    ``first.field_members()``) and whose quotient is not 1 is skipped: its
    product folds to zero. The created-row degree bound is checked once, on
    the finished matrix (``_check_created``).

    Returns ``Rows``: a list whose ``monomials`` is the closure's set of
    every monomial of every row, which ``MacaulayMatrix`` takes as its
    columns.
    """
    if not pairs:
        raise EmptyBatchError("symbolic preprocessing needs at least one pair")
    basis, codec, field_active = first.members, first.ring.codec, first.field_active
    one, fields = codec.one, first.field_members()

    rows = Rows()
    seen: set = set()  # pair-row heads and every monomial looked up
    seen_products: set = set()
    for pr in pairs:
        for idx in (pr.left, pr.right):
            g = basis[idx]
            quot = codec.div(pr.lcm, g.lm())
            if field_active and quot != one and idx in fields:
                continue  # m * (x^q - x) folds to 0 for every m != 1
            key = (idx, quot)
            if key in seen_products:
                continue
            seen_products.add(key)
            row = _multiple(g, quot, first)
            if row.is_zero:
                continue  # other products fold to 0 too, e.g. x * (xy + y) over GF(2)
            rows.append(row)
            # a head that folding moved below the lcm is NOT covered by this
            # row's parent, so it is left for the closure to give a reducer
            if row.lm() == pr.lcm:
                seen.add(row.lm())

    _close(rows, seen, first)
    _check_created(rows, 0, seen, first)
    rows.monomials = seen
    return rows


def reduced_basis(first: FirstDivisor) -> list:
    """The reduced Groebner basis of ``first.members``, which must be a
    Groebner basis of canonical members (see ``_multiple``).

    Equal to ``interreduce(first.members)``: a Groebner basis has exactly
    one reduced basis, monic and sorted ascending by leading monomial. It is
    built as F4 builds one, in a single matrix. The first member of each
    minimal leading monomial is kept; ``_close`` gives every other monomial
    of the kept rows, and of the rows it adds, a reducer row from ``first``
    (folded when field equations are on), such as the run's lookup with the
    rows and folds it already holds; the reducer rows are the known pivots
    and the kept rows the block, whose RREF is the answer.

    Any lookup over the same members gives the same answer: every reducer
    row is a multiple of a member with head m, so each RREF row is a kept
    member minus members of the ideal, with the kept head and no other
    monomial that a basis head divides. Over a Groebner basis that is the
    unique reduced basis member of that head.

    A folded reducer row keeps its head m, so it is a pivot at m. With field
    equations on, no member has an exponent past q - 1 except in the head
    of a field polynomial x^q - x (see ``midsolve.renew``), and a kept head
    needs no reducer; reducer rows are folded themselves. So every m has
    all exponents at most q - 1, and a fold moves only monomials that have
    one past q - 1, each to a proper divisor, which is smaller than m.
    """
    heads = FirstDivisor([], first.ring, first.field_active)
    kept = heads.members
    for g in sorted(first.members, key=Polynomial.lm):  # stable: the first of equal heads
        if heads.index(g.lm()) is None:
            kept.append(g)
    rows = list(kept)
    seen = {g.lm() for g in kept}
    _close(rows, seen, first)
    _check_created(rows, len(kept), seen, first)
    columns, col = _columns(rows, seen)
    known = {col[rows[i].lm()]: i for i in range(len(kept), len(rows))}
    return _eliminate(rows, columns, col, known, range(len(kept)))[::-1]


def _columns(rows, monomials=None) -> tuple:
    """(columns, col_index): the rows' monomials, largest first, and the
    column of each. ``monomials``, when given, must be exactly the set of
    the rows' monomials, as the closure gathers it, and spares a walk over
    every term."""
    if monomials is None:
        monomials = set()
        for p in rows:
            monomials.update(map(itemgetter(0), p.terms))
    columns = sorted(monomials, reverse=True)
    return columns, {m: j for j, m in enumerate(columns)}


class MacaulayMatrix:
    """The round's rows laid over their sorted monomial columns, split in two.

    Column 0 is the largest monomial. A row is a *known pivot* when
    ``first``, the run's ``FirstDivisor``, finds a member whose leading
    monomial divides its head, and no earlier row has that head; the other
    rows form the *block*. Known pivots are used as they are and never
    reduced themselves: ``reduce`` clears the block on their columns and
    brings only the block to reduced row echelon form (Faugère–Lachartre).
    A lookup with no members makes every row a block row, and ``reduce``
    the full RREF. Over GF(2) the block is held by columns, each an int
    bitmask of the block rows with an entry there (bit r = block row r), so
    adding a row to all the rows that need it is one XOR per column of that
    row; other fields hold the block in a dense numpy array. Both eliminate
    in one walk over the columns, largest monomial first.

    Rows given as ``Rows`` (from ``symbolic_preprocess``) bring their
    monomial set, so the columns are sorted from it; other rows are walked.
    """

    def __init__(self, rows, first: FirstDivisor):
        self.rows = list(rows)
        self.first = first
        monomials = rows.monomials if isinstance(rows, Rows) else None
        self.columns, self.col_index = _columns(self.rows, monomials)

    @property
    def shape(self):
        return (len(self.rows), len(self.columns))

    def split(self):
        """(known, block): head column -> index of that column's known-pivot
        row, and the indices of the other rows, in row order."""
        known: dict = {}
        block: list = []
        first = self.first
        for i, p in enumerate(self.rows):
            if p.terms:
                j = self.col_index[p.lm()]
                if j not in known and first.index(p.lm()) is not None:
                    known[j] = i
                    continue
            block.append(i)  # a zero row stays here and counts as a zero row
        return known, block

    def reduce(self):
        """Reduce the block by the known pivots, then bring it to RREF.

        Returns (polynomials, zero_rows): the block's RREF rows, monic and
        ordered by descending leading monomial, and the matrix's rows minus
        its rank. The polynomials are exactly the rows of the full matrix's
        RREF whose leading monomial is not a known pivot's head.
        """
        known, block = self.split()
        polys = _eliminate(self.rows, self.columns, self.col_index, known, block)
        return polys, len(block) - len(polys)


def _eliminate(rows, columns, col, known: dict, block) -> list:
    """The RREF of the ``block`` rows after clearing them on the ``known``
    pivots' columns, monic and by descending leading monomial.

    ``columns`` are the rows' monomials, largest first, and ``col`` maps
    each to its column; ``known`` maps a column to the index of the row whose
    head it is. Known pivots are used as they are and never reduced. The
    kernels take the ring from the block's first row.
    """
    if not block:
        return []
    if rows[block[0]].ring.q == 2:
        return _eliminate_gf2(rows, columns, col, known, block)
    return _eliminate_general(rows, columns, col, known, block)


# ---------------------------------------------------------------- GF(2)


def _eliminate_gf2(rows, columns, col, known, block) -> list:
    # The block by columns: bit r of cells[j] is block row r's entry at j.
    # One walk, first column first, as in _eliminate_general: each step adds
    # a row with no entry before column j to the block rows with one at j,
    # so a column is final once the walk has passed it.
    ncols = len(columns)
    cells = [0] * ncols
    for r, i in enumerate(block):
        bit = 1 << r
        for m, _ in rows[i].terms:
            cells[col[m]] |= bit
    free = (1 << len(block)) - 1  # the block rows that are not pivots yet
    pivots = []  # (column, row bit), by ascending column
    for j in range(ncols):
        hit = cells[j]
        if not hit:
            continue
        i = known.get(j)
        if i is not None:
            # add the known pivot to every block row with an entry here
            for m, _ in rows[i].terms:
                cells[col[m]] ^= hit
            continue
        # otherwise the first free block row with an entry here pivots,
        # and is added to every other block row with one
        bit = hit & free
        if not bit:
            continue
        bit &= -bit
        free ^= bit
        others = hit ^ bit
        if others:
            for k in range(j + 1, ncols):
                if cells[k] & bit:
                    cells[k] ^= others
        cells[j] = bit
        pivots.append((j, bit))
    # every block row that did not pivot is zero now
    ring = rows[block[0]].ring
    return [
        Polynomial(ring, tuple((columns[k], 1) for k in range(j, ncols) if cells[k] & bit))
        for j, bit in pivots
    ]


# ---------------------------------------------------------------- GF(q>2)


def _eliminate_general(rows, columns, col, known, block) -> list:
    ring = rows[block[0]].ring
    q = ring.q
    # a - b*c with entries in [0, q) must fit int64; beyond that, Python ints
    dtype = np.int64 if (q - 1) ** 2 + q < 2**63 else object
    a = np.zeros((len(block), len(columns)), dtype=dtype)
    for r, i in enumerate(block):
        for m, c in rows[i].terms:
            a[r, col[m]] = c
    free = np.ones(len(block), dtype=bool)  # not yet a block pivot
    pivots = []  # block rows, by ascending pivot column
    for j in range(len(columns)):
        hit = np.flatnonzero(a[:, j])
        if hit.size == 0:
            continue
        i = known.get(j)
        if i is not None:
            # subtract a[hit, j] times the known pivot, made monic here
            terms = rows[i].terms
            head_inv = pow(terms[0][1], -1, q)
            vals = np.array([c * head_inv % q for _, c in terms], dtype=dtype)
            cells = np.ix_(hit, [col[m] for m, _ in terms])
            a[cells] = (a[cells] - np.outer(a[hit, j], vals)) % q
            continue
        # otherwise the first free block row with an entry here pivots,
        # and is eliminated from every other block row
        cand = hit[free[hit]]
        if cand.size == 0:
            continue
        piv = int(cand[0])
        free[piv] = False
        pivots.append(piv)
        a[piv] = a[piv] * pow(int(a[piv, j]), -1, q) % q
        hit = hit[hit != piv]
        if hit.size:
            a[hit] = (a[hit] - np.outer(a[hit, j], a[piv])) % q
    polys = []
    for r in pivots:
        row = a[r]
        nz = np.flatnonzero(row)
        terms = tuple((columns[int(k)], int(row[k])) for k in nz)
        polys.append(Polynomial(ring, terms))
    return polys

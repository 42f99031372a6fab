"""Matrix kernels: symbolic preprocessing, the split Macaulay matrix and its
elimination, and the one-matrix reduced basis.

``symbolic_preprocess`` gathers, for a batch of critical pairs, all the
monomial multiples needed to reduce the whole batch at once, and
``MacaulayMatrix`` reduces them in one matrix. Rows whose heads the lookup
finds reducible are used as known pivots; only the others, the block, are
reduced, in two phases: the known pivots clear the block on their heads,
then the block is brought to reduced row echelon form over the columns left
(the block is held by columns: over GF(2) one int bitmask of rows each, over
GF(q > 2) a numpy array; see ``MacaulayMatrix`` and ``_eliminate_general``).
``reduced_basis`` turns a completed basis into its reduced Groebner basis
with the same closure and the same known-pivot elimination, in one matrix.

A large round over GF(2) with field equations on, in at most 64 variables,
takes a second kernel on the same rows: each monomial is one uint64 mask,
products, closure and the block's column bitmasks are formed in numpy, and
only the RREF rows become polynomials (``_mask_members``, ``MaskRows``).
The members are converted to masks anew in every such round.
It is gated on the member terms of the round's pair sides
(``MASK_ROUND_TERMS``): on small rounds its fixed numpy cost exceeds the
per-term Python work it saves, and a run whose rounds are all small, as the
incremental engine's are, would pay for numpy's first calls in peak memory
for no gain. Every other round, and the completion, take the polynomial
path. Both give the same rows, matrices and traces.

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
from .poly import FirstDivisor, Polynomial, field_term_mul, is_field_polynomial


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
    to ``seen``. A reducer row is made once per ``first`` (``_multiple``),
    kept in ``first.rows``, and then taken from there; the mask kernel
    neither reads nor fills that table, so every row in it is a polynomial.
    The caller checks the degree bound of the rows made (``_check_created``).
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


def symbolic_preprocess(pairs, first: FirstDivisor):
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
    whose member is a field polynomial x^q - x and whose quotient is not 1
    is skipped: its product folds to zero. The created-row degree bound is
    checked once, on the finished matrix (``_check_created``).

    Returns ``Rows``: a list whose ``monomials`` is the closure's set of
    every monomial of every row, which ``MacaulayMatrix`` takes as its
    columns. A large round over GF(2) with field equations on takes the
    mask kernel instead and returns the same rows as ``MaskRows``, already
    laid out over their columns (see ``_mask_members``).
    """
    if not pairs:
        raise EmptyBatchError("symbolic preprocessing needs at least one pair")
    sides = _pair_sides(pairs, first)
    members = _mask_members(sides, first)
    if members is not None:
        return _mask_preprocess(sides, members, first)
    basis = first.members
    rows = Rows()
    seen: set = set()  # pair-row heads and every monomial looked up
    for idx, quot, lcm in sides:
        row = _multiple(basis[idx], quot, first)
        if row.is_zero:
            continue  # other products fold to 0 too, e.g. x * (xy + y) over GF(2)
        rows.append(row)
        # a head that folding moved below the lcm is NOT covered by this
        # row's parent, so it is left for the closure to give a reducer
        if row.lm() == lcm:
            seen.add(lcm)

    _close(rows, seen, first)
    _check_created(rows, 0, seen, first)
    rows.monomials = seen
    return rows


def _pair_sides(pairs, first: FirstDivisor) -> list:
    """(member index, quotient, lcm) of every pair side whose multiple the
    matrix needs, in pair order: a side already listed is left out, and so
    is, with field equations on, a field polynomial's side whose quotient
    is not 1 (m * (x^q - x) folds to 0 for every m != 1)."""
    basis, codec, field_active = first.members, first.ring.codec, first.field_active
    one = codec.one
    sides, listed = [], set()
    for pr in pairs:
        for idx in (pr.left, pr.right):
            quot = codec.div(pr.lcm, basis[idx].lm())
            if field_active and quot != one and is_field_polynomial(basis[idx]) is not None:
                continue
            if (idx, quot) not in listed:
                listed.add((idx, quot))
                sides.append((idx, quot, pr.lcm))
    return sides


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
    the full RREF. Both kernels hold the block by columns. Over GF(2) each
    column is an int bitmask of the block rows with an entry there (bit r =
    block row r), so adding a row to all the rows that need it is one XOR
    per column of that row; other fields hold it in a dense numpy array,
    one array row per column. Both eliminate in two phases, largest
    monomial first: the known pivots clear the block on their heads (over
    GF(q > 2) a dependency level of pivots at a time), then the block is
    brought to RREF over the other columns that still have entries. The
    answer does not depend on that order (see ``_eliminate_general``).

    Rows given as ``Rows`` (from ``symbolic_preprocess``) bring their
    monomial set, so the columns are sorted from it; other lists of
    polynomials are walked, and ``col_index`` maps each monomial to its
    column. Rows given as ``MaskRows`` (the mask kernel's) come laid out
    (``_mask_layout``): the matrix takes their columns and head columns as
    they are, packs its block's column bitmasks with numpy
    (``_mask_cells``), and turns only the RREF rows into polynomials; the
    column walk is the same (``_sweep_gf2``). Their matrix has no
    ``col_index``. ``symbolic_preprocess`` gives ``MaskRows`` only for a
    round past ``MASK_ROUND_TERMS``, since below it the numpy layout costs
    more than walking the terms.
    """

    def __init__(self, rows, first: FirstDivisor):
        self.first = first
        if isinstance(rows, MaskRows):
            self.rows, self.columns, self._heads = rows, rows.columns, rows.heads
            return
        self.rows = list(rows)
        monomials = rows.monomials if isinstance(rows, Rows) else None
        self.columns, self.col_index = _columns(self.rows, monomials)
        col = self.col_index
        self._heads = [col[p.terms[0][0]] if p.terms else None for p in self.rows]

    @property
    def shape(self):
        return (len(self.rows), len(self.columns))

    def split(self):
        """(known, block): head column -> index of that column's known-pivot
        row, and the indices of the other rows, in row order."""
        known: dict = {}
        block: list = []
        index, columns = self.first.index, self.columns
        for i, j in enumerate(self._heads):
            if j is not None and j not in known and index(columns[j]) is not None:
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
        rows = self.rows
        if not isinstance(rows, MaskRows):
            polys = _eliminate(rows, self.columns, self.col_index, known, block)
        elif block:
            lengths = rows.lengths
            starts = np.cumsum(lengths) - lengths
            cols = rows.term_columns
            cells = _mask_cells(cols, starts, lengths, block, len(self.columns))
            polys = _sweep_gf2(
                rows.ring, self.columns, cells, len(block), known,
                lambda i: cols[starts[i]:starts[i] + lengths[i]].tolist(),
            )
        else:
            polys = []
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
    cells = [0] * len(columns)
    for r, i in enumerate(block):
        bit = 1 << r
        for m, _ in rows[i].terms:
            cells[col[m]] |= bit
    return _sweep_gf2(
        rows[block[0]].ring, columns, cells, len(block), known,
        lambda i: [col[m] for m, _ in rows[i].terms],
    )


def _sweep_gf2(ring, columns, cells, nblock: int, known: dict, columns_of) -> list:
    """The block's RREF rows from its column bitmasks ``cells``. ``known``
    maps the head column of each known pivot to the index of its row, and
    ``columns_of(i)`` lists the columns of row i; it is called only for a
    known pivot that the walk reaches, one whose head the block has an
    entry at.

    Two phases, as in ``_eliminate_general``. One walk over the columns,
    first column first, adds each known pivot to every block row with an
    entry at its head, which clears the block on the known heads: a pivot
    only touches columns right of its head, so a column is final when the
    walk reaches it. The other columns with entries are kept, and the block
    is brought to RREF over them alone: a pivot step tests only those
    columns for the pivot's bit, since a column with no entry never gets
    one."""
    rest = []  # the columns left with entries, none a known head
    for j, hit in enumerate(cells):
        if not hit:
            continue
        i = known.get(j)
        if i is None:
            rest.append(j)
        else:
            for k in columns_of(i):
                cells[k] ^= hit
    free = (1 << nblock) - 1  # the block rows that are not pivots yet
    pivots = []  # (column, row bit), by ascending column
    for t, j in enumerate(rest):
        # the first free block row with an entry here pivots, and is added
        # to every other block row with one; a column is final once the
        # walk has passed it
        hit = cells[j]
        bit = hit & free
        if not bit:
            continue
        bit &= -bit
        free ^= bit
        others = hit ^ bit
        if others:
            for k in rest[t + 1:]:
                if cells[k] & bit:
                    cells[k] ^= others
        cells[j] = bit
        pivots.append((j, bit))
        if not free:
            break
    # every block row that did not pivot is zero now, so one walk over each
    # column's set bits, highest first, gives every RREF row its terms in order
    terms = {bit.bit_length(): [] for _, bit in pivots}
    for k, hit in enumerate(cells):
        term = (columns[k], 1)
        while hit:
            top = hit.bit_length()
            terms[top].append(term)
            hit ^= 1 << (top - 1)
    return [Polynomial(ring, tuple(terms[bit.bit_length()])) for _, bit in pivots]


# ---------------------------------------------------------------- GF(q>2)


def _eliminate_general(rows, columns, col, known, block) -> list:
    """``_eliminate`` over GF(q), q > 2, in two phases on the block held by
    columns (``a[j]`` is column j, one entry per block row).

    Phase 1 clears the block on the known pivots' heads one *level* at a
    time. A known pivot's level is one more than the highest level of any
    known pivot whose tail has an entry at its head (0 if none), so a
    level's pivots never touch each other's heads and one matrix product
    applies them all: with X the block's entries at the level's heads, each
    scaled by -1/LC of its pivot, tails times X is added into the columns
    the tails touch, and the heads are zeroed. A known pivot whose head no
    block row can reach is left out. Phase 2 brings the block to RREF over
    the columns where it still has entries, none of them a known head; each
    pivot's update touches only the columns where the pivot row has
    entries.

    The result does not depend on the order of the steps. Known pivots have
    distinct heads and nothing left of them, so the span of all the rows is
    the span of the known pivots plus W, the vectors of that span that
    vanish on every known head, and the cleared block spans W. The answer
    is the RREF of W and ``zero_rows`` is the block's size minus the
    dimension of W; both are unique, so any exact order of operations gives
    the same rows, in ascending pivot column. Every step is exact: entries
    are kept in [0, q), and ``_dtype`` holds what one step can reach.
    """
    ring = rows[block[0]].ring
    q = ring.q
    terms = [t for i in block for t in rows[i].terms]
    at = [col[m] for m, _ in terms]
    # reach[j]: the level a known pivot at j takes, for every column where
    # the block has or can get an entry
    reach = dict.fromkeys(at, 0)
    levels = []  # per level: heads, -1/LC, tail lengths, tail columns, tail coefficients
    for j in sorted(known):
        level = reach.get(j)
        if level is None:
            continue
        pivot = rows[known[j]].terms
        tail = [col[m] for m, _ in pivot[1:]]
        for k in tail:
            if reach.get(k, -1) <= level:
                reach[k] = level + 1
        if level == len(levels):
            levels.append(([], [], [], [], []))
        heads, minus_inv, lengths, cols, coefs = levels[level]
        heads.append(j)
        minus_inv.append(q - pow(pivot[0][1], -1, q))
        lengths.append(len(tail))
        cols += tail
        coefs += [c for _, c in pivot[1:]]
    dtype = _dtype(q, max((len(level[0]) for level in levels), default=1))
    a = np.zeros((len(columns), len(block)), dtype=dtype)
    a[at, np.repeat(np.arange(len(block)), [len(rows[i].terms) for i in block])] = [
        c for _, c in terms
    ]
    for heads, minus_inv, lengths, cols, coefs in levels:
        x = _mod(a[heads] * np.array(minus_inv, dtype=dtype)[:, None], q)
        touched = sorted(set(cols))
        where = dict(zip(touched, range(len(touched))))
        step = np.zeros((len(touched), len(heads)), dtype=dtype)
        step[list(map(where.__getitem__, cols)), np.repeat(np.arange(len(heads)), lengths)] = coefs
        a[touched] = _mod(a[touched] + step @ x, q)
        a[heads] = 0
    # Phase 2. A column with no entry now never gets one: each step adds
    # multiples of a block row to the others.
    free = np.ones(len(block), dtype=bool)  # not yet a block pivot
    pivots = []  # block rows, by ascending pivot column
    for j in (a != 0).any(axis=1).nonzero()[0].tolist():
        hit = a[j]
        cand = hit * free
        r = int(cand.argmax())
        if not cand[r]:
            continue
        # a free block row with an entry here pivots, made monic, and is
        # eliminated from every other block row on its own support
        support = j + a[j:, r].nonzero()[0]
        row = a[support, r]
        inv = pow(int(hit[r]), -1, q)
        if inv != 1:
            row = _mod(row * inv, q)
        a[support] = _mod(a[support] - row[:, None] * hit, q)
        a[support, r] = row
        free[r] = False
        pivots.append(r)
        if len(pivots) == len(block):
            break
    # the RREF rows' terms, row after row, each by ascending column
    nth, cells = np.nonzero(a[:, pivots].T)
    monomials = [columns[k] for k in cells.tolist()]
    coefs = list(map(int, a[cells, np.array(pivots, dtype=np.intp)[nth]].tolist()))
    polys, start = [], 0
    for end in np.cumsum(np.bincount(nth, minlength=len(pivots))).tolist():
        polys.append(Polynomial(ring, tuple(zip(monomials[start:end], coefs[start:end]))))
        start = end
    return polys


def _dtype(q: int, width: int):
    """The dtype that ``_eliminate_general`` works in over GF(q) when its
    widest level has ``width`` known pivots. A step adds to an entry in
    [0, q) at most ``width`` products of two entries, or subtracts one, so
    every value v has |v| < (q - 1)^2 * width + q. float64 holds integers
    exactly below 2^53 and multiplies matrices through BLAS, and ``_mod``
    reduces it exactly while |v| + q <= 2^53; int64 holds them below 2^63;
    past both, Python ints."""
    top = (q - 1) ** 2 * max(width, 1) + q
    if top + q <= 2**53:
        return np.float64
    if top <= 2**63:
        return np.int64
    return object


def _mod(v, q: int):
    """v mod q for a fresh array v of integers. A float64 v is reduced in
    place as v - q * floor(v / q), exact while |v| + q <= 2^53: then v / q
    rounds to a double whose floor is floor(v / q), since the nearest double
    is within half a unit in the last place, less than 1/q, and no other
    product or difference rounds; numpy's float remainder takes several
    times longer."""
    if v.dtype != np.float64:
        return v % q
    t = v / q
    np.floor(t, out=t)
    t *= q
    v -= t
    return v


# ---------------------------------------------------------------- Boolean masks
#
# Over GF(2) with field equations on, every member other than a field
# polynomial is Boolean: its monomials are sets of variables, one n-bit mask
# each (``MonomialCodec.to_masks``), and its multiple by u folded is the sum of
# its masks OR u's mask, where equal terms cancel in pairs. The mask kernel
# forms a round's rows that way, a whole batch per numpy call, and does
# Python work per distinct monomial instead of per term.

# A round whose pair sides' members hold at least this many terms in all
# takes the mask kernel. Per round, the kernel loses below about 750 such
# terms, where its fixed numpy cost is more than the per-term Python work
# it saves (the incremental engine's many rounds of about 45 rows each ran
# 1.6 times slower with every round on masks), and gains about 30% from
# 1,000 on. The gate sits higher, above every round of planted MQ-7
# incremental runs (at most about 2,100), so that a run of small rounds
# never pays the peak memory of numpy's first sorts and packs (about
# 1 MB of code) for a gain of a few percent; planted MQ-10 f4 runs have
# their large rounds past 5,000.
MASK_ROUND_TERMS = 2500

_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)
_BOOL_CHUNK = 1 << 24  # the most cells of one temporary bool array in _mask_cells
_TERM_CHUNK = 1 << 20  # the most terms whose columns _mask_layout looks up at once


class MaskRows:
    """A matrix's rows from the mask kernel, laid out over their columns
    (``_mask_layout``): ``columns``, the rows' monomials, largest first;
    ``term_columns``, the column of every term, one row after another;
    ``lengths``, each row's term count (never 0); ``heads``, each row's
    head column; ``ring``."""

    __slots__ = ("columns", "term_columns", "lengths", "heads", "ring")

    def __init__(self, columns: list, term_columns, lengths, heads: list, ring):
        self.columns, self.term_columns, self.lengths = columns, term_columns, lengths
        self.heads, self.ring = heads, ring

    def __len__(self):
        return len(self.lengths)


def _mask_members(sides, first: FirstDivisor):
    """The members of ``first`` as masks when the round goes to the mask
    kernel, else None; they are converted anew in every such round.

    It does when ``first`` is over GF(2) with field equations on and n <= 64,
    when the pair sides' members hold at least ``MASK_ROUND_TERMS`` terms,
    and when every member but the field polynomials is Boolean and no side's
    member is a field polynomial (a field polynomial's side is listed only
    with quotient 1, and its row x^2 + x is not Boolean). Every other
    product folds as the masks do. ``field_term_mul`` keeps one unfolded,
    x * (x + 1) = x^2 + x, but a pair side gets the quotient x for x + 1
    only from a pair with x^2 + x, whose own side sends the round to the
    polynomial path, and a closure row's quotient shares no variable with
    its member's head, since the monomial it reduces is Boolean.

    Returns (terms, starts, lengths): every member's masks, leading mask
    first, one member after another; where each member's start; and how
    many it has (0 for a field polynomial).
    """
    ring = first.ring
    if not (first.field_active and ring.q == 2 and ring.n <= 64):
        return None
    basis = first.members
    if sum(len(basis[idx].terms) for idx, _, _ in sides) < MASK_ROUND_TERMS:
        return None
    # 0 terms marks a field polynomial: every member is nonzero
    sizes = [0 if is_field_polynomial(g) is not None else len(g.terms) for g in basis]
    if not all(sizes[idx] for idx, _, _ in sides):
        return None
    terms, boolean = ring.codec.to_masks([m for g, k in zip(basis, sizes) if k for m, _ in g.terms])
    if not boolean.all():
        return None
    lengths = np.array(sizes, dtype=np.intp)
    return terms, np.cumsum(lengths) - lengths, lengths


def _mask_preprocess(sides, members, first: FirstDivisor) -> MaskRows:
    """``symbolic_preprocess`` on masks: the same rows, as ``MaskRows``.

    The pair rows come first, in pair order, formed in one batch
    (``_mask_products``). The closure then runs in waves: the masks of the
    last wave's rows that no earlier wave saw (and that are no pair row's
    unmoved head) each get one ``first.index`` lookup, and the reducer rows
    those need are formed in one batch, the next wave. The kernel neither
    reads nor fills ``first.rows``, which holds polynomials only. A mask
    row's degree is at most n, under the created bound n + 1, so no row is
    checked. The rows are laid out (``_mask_layout``) once the waves are
    joined and let go, so only one copy of the rows' masks is alive then.
    """
    codec, n = first.ring.codec, first.ring.n
    index = first.index
    terms, starts, _ = members
    # the pair rows' unmoved heads: each lcm with no exponent past 1
    lcms = [lcm for _, _, lcm in sides]
    heads, boolean = codec.to_masks(lcms)
    monomials = {  # mask -> packed monomial, of every mask of every row
        mask: lcm for mask, lcm, b in zip(heads.tolist(), lcms, boolean.tolist()) if b
    }
    _, seen = _unseen(heads[boolean], np.zeros(0, dtype=np.uint64))
    quots, _ = codec.to_masks([codec.fold(quot) for _, quot, _ in sides])  # x^2 folds to x
    wave, lengths = _mask_products(members, [idx for idx, _, _ in sides], quots, n)
    waves, wave_lengths = [wave], [lengths[lengths > 0]]  # a pair row may fold to 0
    while wave.size:
        fresh, seen = _unseen(wave, seen)
        need, needed = [], []
        for mask in fresh.tolist():
            m = monomials[mask] = codec.from_mask(mask)
            i = index(m)
            if i is not None:
                need.append(i)
                needed.append(mask)
        quots = np.array(needed, dtype=np.uint64) ^ terms[starts[need]]  # m / LM(g)
        wave, lengths = _mask_products(members, need, quots, n)  # m / LM(g) * g, folded
        waves.append(wave)
        wave_lengths.append(lengths)
    masks = np.concatenate(waves)
    del waves
    return _mask_layout(masks, np.concatenate(wave_lengths), seen, monomials, first.ring)


def _mask_products(members, idx: list, quots, n: int) -> tuple:
    """(masks, lengths): the folded multiple quots[r] * members[idx[r]] for
    every r, by rows one after another, each row's masks in increasing
    order, and each row's term count (0 for a row that folded to 0)."""
    if not idx:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.intp)
    # The batch holds the products' terms before any cancel, so its arrays
    # are built in place, at most two alive at once.
    terms, starts, sizes = members
    idx = np.array(idx, dtype=np.intp)
    lens = sizes[idx]
    before = np.cumsum(lens) - lens  # each row's first term in the batch
    at = np.repeat(starts[idx] - before, lens)
    at += np.arange(len(at))
    products = terms[at]
    del at
    products |= np.repeat(quots, lens)
    # two equal terms of a row cancel: keep the (row, mask) pairs met an odd number of times
    if n + len(idx).bit_length() <= 64:  # (row, mask) packed in one uint64
        key = np.repeat(np.arange(len(idx), dtype=np.uint64) << np.uint64(n), lens)
        key |= products
        del products
        key.sort()
        key = key[_odd_runs(key[1:] != key[:-1])]
        ends = np.searchsorted(key, np.arange(len(idx) + 1, dtype=np.uint64) << np.uint64(n))
        key &= np.uint64((1 << n) - 1)
        return key, ends[1:] - ends[:-1]
    row = np.repeat(np.arange(len(idx)), lens)
    order = np.lexsort((products, row))
    row, products = row[order], products[order]
    odd = _odd_runs((row[1:] != row[:-1]) | (products[1:] != products[:-1]))
    return products[odd], np.bincount(row[odd], minlength=len(idx))


# Distinct values are found by sorting here, not with np.unique: from numpy
# 2.3 on, its first call alone raises the peak memory of a process by about
# 1.6 MB.


def _odd_runs(differs):
    """Which entries of a sorted array start a run of equal entries of odd
    length, as a bool array, given ``differs``: whether each entry differs
    from the next one."""
    first, last = np.r_[True, differs], np.r_[differs, True]
    # a run is odd when its first and last entries sit at indices of equal
    # parity; bool arrays alone, since a batch's runs number in the millions
    parity = np.zeros(len(first), dtype=bool)
    parity[1::2] = True
    first[first] = parity[first] == parity[last]
    return first


def _unseen(masks, seen) -> tuple:
    """(fresh, seen): the masks that are not in ``seen``, sorted and each
    once, and ``seen`` with them added; ``seen`` is sorted."""
    masks = np.sort(masks)
    if masks.size:
        masks = masks[np.r_[True, masks[1:] != masks[:-1]]]
    if seen.size:
        at = np.minimum(np.searchsorted(seen, masks), seen.size - 1)
        masks = masks[seen[at] != masks]
    return masks, np.sort(np.concatenate((seen, masks)))


def _mask_layout(masks, lengths, distinct, monomials: dict, ring) -> MaskRows:
    """The rows whose terms are ``masks``, one row after another, with
    ``lengths`` terms each, laid out as ``MaskRows``. ``distinct`` is the
    rows' masks, sorted and each once, and ``monomials`` maps each to its
    packed monomial. Elimination needs only the term columns, at half the
    bytes per term of the masks.

    The distinct masks are ordered as the ring orders monomials (see
    ``MonomialCodec.to_masks``): under lex, largest mask first; under
    grevlex, most variables first and then smallest mask first. The
    grevlex order is taken one popcount at a time, not by a stable argsort,
    whose numpy code alone adds about 0.2 MB to the peak memory of a run.
    """
    if ring.codec.graded:
        count = _POPCOUNT[distinct.view(np.uint8)].reshape(-1, 8).sum(axis=1)
        order = np.concatenate([np.flatnonzero(count == c) for c in range(ring.n, -1, -1)])
    else:
        order = np.arange(len(distinct))[::-1]
    rank = np.empty(len(distinct), dtype=np.int32)  # half the memory of intp, per term
    rank[order] = np.arange(len(distinct))
    term_columns = np.empty(len(masks), dtype=np.int32)
    for i in range(0, len(masks), _TERM_CHUNK):  # no intp array of every term at once
        term_columns[i:i + _TERM_CHUNK] = rank[np.searchsorted(distinct, masks[i:i + _TERM_CHUNK])]
    starts = np.cumsum(lengths) - lengths
    heads = np.minimum.reduceat(term_columns, starts).tolist() if len(starts) else []
    columns = [monomials[m] for m in distinct[order].tolist()]
    return MaskRows(columns, term_columns, lengths, heads, ring)


def _mask_cells(term_columns, starts, lengths, block, ncols: int) -> list:
    """The block by columns, as ``_eliminate_gf2`` holds it: bit r of
    entry j is set when block row r has a term in column j. Built from one
    bool array per chunk of block rows, at most ``_BOOL_CHUNK`` cells each,
    packed to bytes."""
    block = np.array(block, dtype=np.intp)
    packed = np.zeros((ncols, (len(block) + 7) // 8), dtype=np.uint8)
    chunk = max(8, _BOOL_CHUNK // max(ncols, 1) // 8 * 8)
    for r0 in range(0, len(block), chunk):
        rows = block[r0:r0 + chunk]
        lens = lengths[rows]
        before = np.cumsum(lens) - lens
        at = np.repeat(starts[rows] - before, lens) + np.arange(int(lens.sum()))
        bits = np.zeros((ncols, len(rows)), dtype=bool)
        bits[term_columns[at], np.repeat(np.arange(len(rows)), lens)] = True
        packed[:, r0 // 8:(r0 + len(rows) + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(col.tobytes(), "little") for col in packed]

"""Matrix-batch basis engine.

Each round takes every critical pair of minimal degree, gathers all the
monomial multiples needed to reduce the whole batch at once (symbolic
preprocessing), reduces one matrix, and feeds the rows with new leading
monomials back into the basis. Rows the basis already heads are used as
known pivots; only the others are brought to reduced row echelon form.
Batches, not single pairs, are what make mid-run solving pay off: a fresh
batch is screened for forced variables before anything is inserted.
"""

from __future__ import annotations

import heapq

import numpy as np

from .engine import EngineConfig, EngineReport, RoundTrace, degree_monitor
from .errors import EmptyBatchError
from .poly import Polynomial, PolyRing, field_term_mul
from .runner import RunState, run_rounds
from .trace import TraceWriter


def symbolic_preprocess(pairs, basis, ring: PolyRing, *, field_active: bool = True) -> list:
    """Collect every row the batch's one matrix needs.

    Seeds the row list with the two monomial multiples that cancel each
    pair's leading terms, then closes downward: every monomial of every row
    that is not already some row's leading monomial gets a reducer row (the
    first basis member, in insertion order, whose leading monomial divides
    it), worked largest monomial first. Rows are exponent-folded on the spot
    (field polynomials excepted), so the matrix never grows columns past the
    per-variable degree cap.
    """
    if not pairs:
        raise EmptyBatchError("symbolic preprocessing needs at least one pair")
    field = ring.field
    codec = ring.codec

    def multiple(g, quot):
        """(quot / LC(g)) * g, exponent-folded unless it is a field polynomial."""
        if field_active:
            return field_term_mul(g, quot, field.inv(g.lc()))
        return g.term_mul(quot, field.inv(g.lc()))

    rows: list = []
    done: set = set()
    moved_heads: list = []
    seen_products: set = set()
    for pr in pairs:
        for idx in (pr.left, pr.right):
            g = basis[idx]
            quot = codec.div(pr.lcm, g.lm())
            key = (idx, quot)
            if key in seen_products:
                continue
            seen_products.add(key)
            row = multiple(g, quot)
            if row.is_zero:
                continue  # a field-polynomial multiple; nothing to cancel
            degree_monitor(row, ring, "created", field_active)
            rows.append(row)
            if row.lm() == pr.lcm:
                done.add(row.lm())
            else:
                # folding moved the head below the lcm; the new head is NOT
                # covered by this row's parent, so it still needs a reducer
                moved_heads.append(row.lm())

    queued: set = set()
    heap: list = []  # negated monomials: the heap pops the largest first

    def enqueue(m):
        if m not in done and m not in queued:
            queued.add(m)
            heapq.heappush(heap, -m)

    for m in moved_heads:
        enqueue(m)
    for row in rows:
        for m, _ in row.terms[1:]:
            enqueue(m)

    # m - shift(lm) is the quotient m / lm, valid iff no guard bit is set
    guard = codec.guard
    reducers = [(codec.shift(g.lm()), g) for g in basis]
    while heap:
        m = -heapq.heappop(heap)
        done.add(m)
        for s, g in reducers:
            quot = m - s
            if quot & guard:
                continue
            row = multiple(g, quot)
            degree_monitor(row, ring, "created", field_active)
            rows.append(row)
            for m2, _ in row.terms[1:]:
                enqueue(m2)
            break
    return rows


class MacaulayMatrix:
    """The round's rows laid over their sorted monomial columns, split in two.

    Column 0 is the largest monomial. A row is a *known pivot* when a basis
    leading monomial divides its head and no earlier row has that head; the
    other rows form the *block*. Known pivots are used as they are and never
    reduced themselves: ``reduce`` clears the block on their columns and
    brings only the block to reduced row echelon form (Faugère–Lachartre).
    Over GF(2) a row is an int bitmask (bit j = column j), so a row
    operation is one XOR; other fields hold the block in a dense numpy array.
    """

    def __init__(self, rows, ring: PolyRing, basis_lms=()):
        self.ring = ring
        self.rows = list(rows)
        cols = set()
        for p in self.rows:
            for m, _ in p.terms:
                cols.add(m)
        self.columns = sorted(cols, reverse=True)
        self.col_index = {m: j for j, m in enumerate(self.columns)}
        # any divisor will do, and small leading monomials divide more heads
        self.shifts = [ring.codec.shift(m) for m in sorted(basis_lms)]

    @property
    def shape(self):
        return (len(self.rows), len(self.columns))

    def basis_divides(self, m) -> bool:
        """Whether some basis leading monomial divides the monomial m."""
        # m - shift(lm) is the quotient m / lm, valid iff no guard bit is set
        guard = self.ring.codec.guard
        return not all((m - s) & guard for s in self.shifts)

    def split(self):
        """(known, block): head column -> index of that column's known-pivot
        row, and the indices of the other rows, in row order."""
        known: dict = {}
        block: list = []
        for i, p in enumerate(self.rows):
            if p.terms:
                j = self.col_index[p.lm()]
                if j not in known and self.basis_divides(p.lm()):
                    known[j] = i
                    continue
            block.append(i)  # a zero row stays here and counts as a zero row
        return known, block

    def reduce(self):
        """Reduce the block by the known pivots, then bring it to RREF.

        Returns (polynomials, zero_rows): the block's RREF rows, monic and
        ordered by descending leading monomial, and the matrix's rows minus
        its rank. The polynomials are exactly the rows of the full matrix's
        RREF whose leading monomial is not a known pivot's head. With no
        basis leading monomials every row is in the block, and this is the
        full RREF.
        """
        known, block = self.split()
        if not block:
            return [], 0
        if self.ring.q == 2:
            polys = self._reduce_gf2(known, block)
        else:
            polys = self._reduce_general(known, block)
        return polys, len(block) - len(polys)

    # ------------------------------------------------------------ GF(2)

    def _reduce_gf2(self, known, block):
        col = self.col_index
        # the block by columns: bit r of cells[j] is block row r's entry at j
        cells = [0] * len(self.columns)
        for r, i in enumerate(block):
            bit = 1 << r
            for m, _ in self.rows[i].terms:
                cells[col[m]] |= bit
        # adding a known pivot to the rows that hold its head clears its
        # column and touches only later ones, so ascending order clears all
        for j in sorted(known):
            hit = cells[j]
            if hit:
                for m, _ in self.rows[known[j]].terms:
                    cells[col[m]] ^= hit
        # the block by rows again, for its own elimination
        packed = [0] * len(block)
        for j, c in enumerate(cells):
            bit = 1 << j
            while c:
                low = c & -c
                packed[low.bit_length() - 1] |= bit
                c ^= low
        pivots = {}  # lowest bit -> the block row that has it
        mask = 0  # the union of the pivots' lowest bits
        for row in packed:
            row = _clear(row, pivots, mask)
            if row:
                low = row & -row
                pivots[low] = row
                mask |= low
        # back substitution, last column first
        found = sorted(pivots)
        done = 0
        for low in reversed(found):
            pivots[low] = _clear(pivots[low], pivots, done)
            done |= low
        return [self._bits_to_poly(pivots[low]) for low in found]

    def _bits_to_poly(self, bits: int) -> Polynomial:
        terms = []
        while bits:
            low = bits & -bits
            terms.append((self.columns[low.bit_length() - 1], 1))
            bits ^= low
        return Polynomial(self.ring, tuple(terms))

    # ------------------------------------------------------------ GF(q>2)

    def _reduce_general(self, known, block):
        q = self.ring.q
        inv = self.ring.field.inv
        col = self.col_index
        # a - b*c with entries in [0, q) must fit int64; beyond that, Python ints
        dtype = np.int64 if (q - 1) ** 2 + q < 2**63 else object
        a = np.zeros((len(block), len(self.columns)), dtype=dtype)
        for r, i in enumerate(block):
            for m, c in self.rows[i].terms:
                a[r, col[m]] = c
        free = np.ones(len(block), dtype=bool)  # not yet a block pivot
        pivots = []  # block rows, by ascending pivot column
        for j in range(len(self.columns)):
            hit = np.flatnonzero(a[:, j])
            if hit.size == 0:
                continue
            i = known.get(j)
            if i is not None:
                # subtract a[hit, j] times the known pivot, made monic here
                terms = self.rows[i].terms
                head_inv = inv(terms[0][1])
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
            a[piv] = a[piv] * inv(int(a[piv, j])) % q
            hit = hit[hit != piv]
            if hit.size:
                a[hit] = (a[hit] - np.outer(a[hit, j], a[piv])) % q
        polys = []
        for r in pivots:
            row = a[r]
            nz = np.flatnonzero(row)
            terms = tuple((self.columns[int(k)], int(row[k])) for k in nz)
            polys.append(Polynomial(self.ring, terms))
        return polys


def _clear(row: int, pivots: dict, mask: int) -> int:
    """Over GF(2), clear every bit of ``row`` in ``mask`` with the pivot row
    whose lowest bit it is, lowest first; a pivot row's other bits are all
    higher, so one sweep suffices."""
    hit = row & mask
    while hit:
        row ^= pivots[hit & -hit]
        hit = row & mask
    return row


def f4_round(state: RunState) -> RoundTrace:
    """One batch: select, preprocess, row reduce, screen, insert."""
    pairs = state.queue.select(batch=True)
    rows = symbolic_preprocess(pairs, state.basis, state.ring, field_active=state.field_active)
    matrix = MacaulayMatrix(rows, state.ring, [g.lm() for g in state.basis])
    nrows, ncols = matrix.shape
    reduced, zero_rows = matrix.reduce()

    # Every basis-divisible column got a reducer row, so it is a pivot column
    # and no reduced row has a basis-reducible monomial: the rows are
    # already in normal form against the basis, until a renew changes it.
    reduced_at = state.renewals
    batch = state.screen_batch(reduced)
    added = 0
    max_deg = 0
    for h in batch:
        if state.inconsistent:
            break
        kept = state.insert_new(h, reduced_at)
        if kept is not None:
            added += 1
            max_deg = max(max_deg, kept.degree())

    state.post_round_checks()
    return RoundTrace(
        round=state.round_no,
        pairs_selected=len(pairs),
        new_polys=added,
        max_poly_degree=max_deg,
        matrix_rows=nrows,
        matrix_cols=ncols,
        zero_rows=zero_rows,
    )


def f4_core(polys, config: EngineConfig, tracer: TraceWriter) -> EngineReport:
    """The matrix engine: ``run_rounds`` with one F4 batch per round."""
    return run_rounds(RunState(config, tracer), polys, f4_round)

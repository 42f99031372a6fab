"""Matrix-batch basis engine.

Each round takes every critical pair of minimal degree, gathers all the
monomial multiples needed to reduce the whole batch at once (symbolic
preprocessing), row reduces one sparse-ish matrix to reduced row echelon
form, and feeds the rows with new leading monomials back into the basis.
Batches, not single pairs, are what make mid-run solving pay off: a fresh
batch is screened for forced variables before anything is inserted.
"""

from __future__ import annotations

import heapq

import numpy as np

from .engine import EngineConfig, EngineReport, RoundTrace, degree_monitor
from .errors import EmptyBatchError
from .poly import Polynomial, PolyRing, field_term_mul
from .runner import RunState, prepare_inputs, run_rounds
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
            if not row.is_zero:
                degree_monitor(row, ring, "created", field_active)
                rows.append(row)
                for m2, _ in row.terms[1:]:
                    enqueue(m2)
            break
    return rows


class MacaulayMatrix:
    """The round's rows laid over their sorted monomial columns.

    Column 0 is the largest monomial. Over GF(2) a row is an int bitmask
    (bit j = column j), so elimination is one XOR; other fields use a dense
    numpy array with vectorized row elimination.
    """

    def __init__(self, rows, ring: PolyRing):
        self.ring = ring
        self.rows = list(rows)
        cols = set()
        for p in self.rows:
            for m, _ in p.terms:
                cols.add(m)
        self.columns = sorted(cols, reverse=True)
        self.col_index = {m: j for j, m in enumerate(self.columns)}

    @property
    def shape(self):
        return (len(self.rows), len(self.columns))

    def reduce(self):
        """Deterministic full Gauss-Jordan.

        Columns are processed left to right; the pivot is the first
        not-yet-pivot row with a nonzero entry, normalized to 1 and
        eliminated from every other row. Returns (polynomials, zero_rows)
        with the polynomials monic, fully inter-eliminated, and ordered by
        descending leading monomial.
        """
        if not self.rows:
            return [], 0
        if self.ring.q == 2:
            return self._reduce_gf2()
        return self._reduce_general()

    # ------------------------------------------------------------ GF(2)

    def _reduce_gf2(self):
        packed = []
        for p in self.rows:
            bits = 0
            for m, _ in p.terms:
                bits |= 1 << self.col_index[m]
            packed.append(bits)
        nrows = len(packed)
        is_pivot = [False] * nrows
        pivots = []  # (column, row) in ascending column order
        for j in range(len(self.columns)):
            probe = 1 << j
            piv = -1
            for i in range(nrows):
                if not is_pivot[i] and packed[i] & probe:
                    piv = i
                    break
            if piv < 0:
                continue
            is_pivot[piv] = True
            pivots.append((j, piv))
            prow = packed[piv]
            for i in range(nrows):
                if i != piv and packed[i] & probe:
                    packed[i] ^= prow
        polys = [self._bits_to_poly(packed[i]) for _, i in pivots]
        return polys, nrows - len(pivots)

    def _bits_to_poly(self, bits: int) -> Polynomial:
        terms = []
        while bits:
            low = bits & -bits
            terms.append((self.columns[low.bit_length() - 1], 1))
            bits ^= low
        return Polynomial(self.ring, tuple(terms))

    # ------------------------------------------------------------ GF(q>2)

    def _reduce_general(self):
        q = self.ring.q
        field = self.ring.field
        nrows, ncols = len(self.rows), len(self.columns)
        # a - b*c with entries in [0, q) must fit int64; beyond that, Python ints
        dtype = np.int64 if (q - 1) ** 2 + q < 2**63 else object
        a = np.zeros((nrows, ncols), dtype=dtype)
        for i, p in enumerate(self.rows):
            for m, c in p.terms:
                a[i, self.col_index[m]] = c
        free = np.ones(nrows, dtype=bool)  # not yet used as a pivot
        pivots = []
        for j in range(ncols):
            cand = np.nonzero(free & (a[:, j] != 0))[0]
            if cand.size == 0:
                continue
            piv = int(cand[0])
            free[piv] = False
            pivots.append((j, piv))
            a[piv] = a[piv] * field.inv(int(a[piv, j])) % q
            hit = a[:, j] != 0
            hit[piv] = False
            if hit.any():
                a[hit] = (a[hit] - np.outer(a[hit, j], a[piv])) % q
        polys = []
        for j, i in pivots:
            row = a[i]
            nz = np.nonzero(row)[0]
            terms = tuple((self.columns[int(k)], int(row[k])) for k in nz)
            polys.append(Polynomial(self.ring, terms))
        return polys, nrows - len(pivots)


def f4_round(state: RunState) -> RoundTrace:
    """One batch: select, preprocess, row reduce, screen, insert."""
    pairs = state.queue.select(state.ring, batch=True)
    rows = symbolic_preprocess(
        pairs, state.basis.polys, state.ring, field_active=state.field_active
    )
    matrix = MacaulayMatrix(rows, state.ring)
    nrows, ncols = matrix.shape
    reduced, zero_rows = matrix.reduce()
    # Keep rows whose leading monomial the basis cannot yet reach. Checking
    # divisibility (not just equality with a pre-reduction row head) matters:
    # exponent folding can hand a pair row a head that no basis element
    # divides, and that head is new information even though a matrix row
    # already carried it.
    codec = state.ring.codec
    guard = codec.guard
    shifts = [codec.shift(g.lm()) for g in state.basis.polys]
    fresh = []
    for p in reduced:  # already ordered by descending leading monomial
        m = p.lm()
        if all((m - s) & guard for s in shifts):
            fresh.append(p)

    # Every basis-divisible column got a reducer row, so it is a pivot column
    # and no fresh RREF row has a basis-reducible monomial: the rows are
    # already in normal form against the basis, until a renew changes it.
    reduced_at = state.renewals
    batch = state.screen_batch(fresh)
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
    """Run the matrix engine on already-prepared inputs (no adjoining here)."""
    state = RunState(config, tracer)
    state.ingest_inputs(polys)
    return run_rounds(state, f4_round)


def f4_gb(polys, config: EngineConfig) -> EngineReport:
    """Compute a Groebner basis with the matrix-batch engine."""
    if config.engine != "f4":
        raise ValueError(f"config names engine {config.engine!r}, not 'f4'")
    prepared = prepare_inputs(polys, config)
    with TraceWriter(config.trace_path) as tracer:
        return f4_core(prepared, config, tracer)

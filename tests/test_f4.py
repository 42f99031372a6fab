"""Symbolic preprocessing, the Macaulay matrix, and the batch engine."""

import heapq
import itertools
import random
from collections import Counter

import numpy as np
import pytest

from midgb import (
    BenchSpec,
    EngineConfig,
    PolyRing,
    Status,
    gen_system,
    groebner_basis,
    interreduce,
    normal_form,
    s_polynomial,
)
from midgb import f4, runner
from midgb.bench import random_system
from midgb.engine import CriticalPair, degree_monitor
from midgb.errors import BoundViolationError, EmptyBatchError, MonomialOverflowError
from midgb.f4 import MacaulayMatrix, reduced_basis, symbolic_preprocess
from midgb.poly import FirstDivisor, Polynomial, field_term_mul
from test_golden_traces import corpus_runs, planted_mq, trace_digest


def lookup(lms, ring):
    """A reducer lookup over one monomial member per leading monomial; with
    no monomials, the empty lookup under which a matrix is all block."""
    return FirstDivisor([Polynomial(ring, ((m, 1),)) for m in lms], ring, False)


def make_pair(f, g, left=0, right=1):
    ring = f.ring
    lcm = tuple(map(max, ring.exponents(f.lm()), ring.exponents(g.lm())))
    return CriticalPair(left, right, ring.codec.pack(lcm), sum(lcm))


@pytest.fixture
def lex2():
    return PolyRing(2, ["x", "y"], "lex")


def test_preprocess_requires_pairs(lex2):
    with pytest.raises(EmptyBatchError):
        symbolic_preprocess([], lookup([], lex2))


def test_preprocess_collects_reducer_closure(lex2):
    f = lex2.poly({(1, 1): 1, (0, 0): 1})  # x*y + 1
    g = lex2.poly({(0, 2): 1, (0, 1): 1})  # y^2 + y
    rows = symbolic_preprocess([make_pair(f, g)], FirstDivisor([f, g], lex2, False))
    # half-products y*f and x*g, plus 1*f covering the tail monomial x*y
    assert [str(r) for r in rows] == ["x*y^2 + y", "x*y^2 + x*y", "x*y + 1"]
    cols = {lex2.exponents(m) for r in rows for m, _ in r.terms}
    assert cols == {(1, 2), (1, 1), (0, 1), (0, 0)}


def test_preprocess_folds_rows_and_recovers_moved_heads(lex2):
    # with exponent folding on, x*(y^2+y) folds to zero and y*(x*y+1)
    # folds to x*y + y -- whose head x*y is NOT the pair lcm x*y^2, so the
    # closure must still hunt a reducer for it
    f = lex2.poly({(1, 1): 1, (0, 0): 1})
    g = lex2.poly({(0, 2): 1, (0, 1): 1})
    rows = symbolic_preprocess([make_pair(f, g)], FirstDivisor([f, g], lex2, True))
    assert [str(r) for r in rows] == ["x*y + y", "x*y + 1"]


def reference_symbolic_preprocess(pairs, basis, ring, *, field_active=True):
    """The heap-ordered closure that ``f4.symbolic_preprocess`` replaced:
    after the pair rows, reducer rows are made largest monomial first."""
    first = FirstDivisor(basis, ring, field_active)
    folds: dict = {}

    def multiple(g, quot):
        if field_active:
            return field_term_mul(g, quot, pow(g.lc(), -1, ring.q), folds)
        return g.term_mul(quot, pow(g.lc(), -1, ring.q))

    rows, seen, seen_products = [], set(), set()
    for pr in pairs:
        for idx in (pr.left, pr.right):
            g = basis[idx]
            quot = ring.codec.div(pr.lcm, g.lm())
            if (idx, quot) in seen_products:
                continue
            seen_products.add((idx, quot))
            row = multiple(g, quot)
            if row.is_zero:
                continue
            degree_monitor(row, ring, "created", field_active)
            rows.append(row)
            if row.lm() == pr.lcm:
                seen.add(row.lm())

    heap: list = []  # negated monomials: the heap pops the largest first

    def enqueue(row):
        fresh = {m for m, _ in row.terms} - seen
        seen.update(fresh)
        for m in fresh:
            heapq.heappush(heap, -m)

    for row in rows:
        enqueue(row)
    while heap:
        m = -heapq.heappop(heap)
        i = first.index(m)
        if i is not None:
            row = multiple(basis[i], m - first.reducers[i][0])
            degree_monitor(row, ring, "created", field_active)
            rows.append(row)
            enqueue(row)
    return rows


def polynomials(rows) -> list:
    """The rows ``symbolic_preprocess`` returned, as polynomials in row order."""
    if not isinstance(rows, f4.MaskRows):
        return list(rows)
    columns, ends = rows.columns, np.cumsum(rows.lengths)
    return [
        Polynomial(rows.ring, tuple((columns[j], 1) for j in sorted(rows.term_columns[e - k:e].tolist())))
        for e, k in zip(ends, rows.lengths)
    ]


def check_preprocess_against_reference(q, field_active, monkeypatch) -> Counter:
    """Every matrix of seeded f4 and incremental runs: the same rows as a
    multiset, and the same reduced rows and zero-row count. Returns a
    Counter of the matrices, those whose rows came in another order, and
    those made by the mask kernel."""
    count = Counter()

    def checked(pairs, first):
        basis, ring, field_active = first.members, first.ring, first.field_active
        rows = symbolic_preprocess(pairs, first)
        got = polynomials(rows)
        ref = reference_symbolic_preprocess(pairs, basis, ring, field_active=field_active)
        assert Counter(got) == Counter(ref)
        lookup = FirstDivisor(basis, ring, field_active)
        reduced = MacaulayMatrix(rows, lookup).reduce()
        assert reduced == MacaulayMatrix(ref, lookup).reduce()
        if isinstance(rows, f4.MaskRows):  # laid out when made: every column used, heads first
            assert rows.columns == sorted({m for p in got for m, _ in p.terms}, reverse=True)
            assert [rows.columns[j] for j in rows.heads] == [p.lm() for p in got]
        count["matrices"] += 1
        count["reordered"] += got != ref
        count["mask"] += isinstance(rows, f4.MaskRows)
        return rows

    monkeypatch.setattr(f4, "symbolic_preprocess", checked)
    for seed in range(6):
        ring = PolyRing(q, ["x", "y", "z"], "grevlex" if seed % 2 else "lex")
        polys = random_system(ring, 4, 3, random.Random(seed))
        for engine in ("f4", "incremental"):
            groebner_basis(polys, EngineConfig(ring, engine=engine, adjoin_field_eqs=field_active))
    return count


@pytest.mark.parametrize("field_active", [True, False])
@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_preprocess_matches_heap_reference(q, field_active, monkeypatch):
    count = check_preprocess_against_reference(q, field_active, monkeypatch)
    assert count["reordered"] > 0, count


def test_mask_preprocess_matches_heap_reference(monkeypatch):
    """The same check with every GF(2) round that may take the mask kernel
    taking it."""
    monkeypatch.setattr(f4, "MASK_ROUND_TERMS", 0)
    count = check_preprocess_against_reference(2, True, monkeypatch)
    assert count["mask"] > 0 and count["reordered"] > 0, count


# ------------------------------------------------------- the lookup's tables


@pytest.fixture
def table_checked(monkeypatch):
    """Check every closure's reducer rows against rows made anew.

    After each ``_close`` call, each monomial m it looked up has a row in its
    lookup's table exactly when m has a first divisor g, and that row equals
    ``_multiple(g, m / LM(g))`` made under a fresh lookup with the same
    field setting, so with an empty fold memo. The rows the
    call appended are exactly those table rows. Each monomial
    set that ``symbolic_preprocess`` hands on must equal the union of its
    rows' terms (for ``MaskRows``, its columns). Yields a Counter of rows
    per (q, field_active, "made" or "served"), served meaning made by an
    earlier closure of the same lookup.
    """
    close, multiple, preprocess = f4._close, f4._multiple, f4.symbolic_preprocess
    count = Counter()

    def checked_close(rows, seen, first):
        table, field_active = first.rows, first.field_active
        before, looked, start = set(table), set(seen), len(rows)
        close(rows, seen, first)
        taken = []
        for m in seen - looked:
            i = first.index(m)
            if i is None:
                assert m not in table
                continue
            g = first.members[i]
            quot = g.ring.codec.div(m, g.lm())
            assert table[m] == multiple(g, quot, FirstDivisor([], g.ring, field_active))
            taken.append(id(table[m]))
            count[g.ring.q, field_active, "served" if m in before else "made"] += 1
        assert sorted(taken) == sorted(map(id, rows[start:]))

    def checked_preprocess(*args, **kwargs):
        rows = preprocess(*args, **kwargs)
        monomials = set(rows.columns) if isinstance(rows, f4.MaskRows) else rows.monomials
        assert monomials == {m for row in polynomials(rows) for m, _ in row.terms}
        count["preprocessed"] += 1
        return rows

    monkeypatch.setattr(f4, "_close", checked_close)
    monkeypatch.setattr(f4, "symbolic_preprocess", checked_preprocess)
    return count


def test_served_reducer_rows_equal_fresh_ones(table_checked):
    """Seeded f4 and incremental runs over GF(2), GF(3), GF(5) and GF(7),
    both orders, field equations on and off, and family systems whose
    lookups live through several rounds."""
    runs = [run for group in (2, 3, 5, 7) for run in corpus_runs(group)]
    for (family, n), q, order, fe in itertools.product(
        (("katsura", 4), ("cyclic", 5)), (2, 5), ("lex", "grevlex"), (True, False)
    ):
        for engine in ("f4", "incremental"):
            runs.append((*gen_system(BenchSpec(family, n, q), order), engine, False, fe))
    for ring, polys, engine, ms, fe in runs:
        if engine != "buchberger":
            groebner_basis(polys, EngineConfig(
                ring, engine=engine, middle_solving=ms, adjoin_field_eqs=fe
            ))
    count = table_checked
    for q, field_active in itertools.product((2, 3, 5, 7), (True, False)):
        assert count[q, field_active, "served"] > 0, count
    assert count["preprocessed"] > 0, count


def test_a_monomial_gets_a_row_only_once_it_has_a_divisor():
    ring = PolyRing(3, ["x", "y"], "grevlex")
    x, y = ring.variable(0), ring.variable(1)
    members = [x * x + y]
    first = FirstDivisor(members, ring, False)
    row = x * y * y + y * y + ring.one
    rows = [row]
    f4._close(rows, set(), first)
    assert rows == [row] and first.rows == {}
    members.append(y + ring.one)  # now divides x*y^2, x*y, y^2 and y
    rows = [row]
    f4._close(rows, set(), first)
    table = first.rows
    assert {ring.monomial_str(m): str(r) for m, r in table.items()} == {
        "x*y^2": "x*y^2 + x*y",
        "x*y": "x*y + x",
        "y^2": "y^2 + y",
        "y": "y + 1",
    }
    assert [str(r) for r in rows[1:]] == ["x*y^2 + x*y", "y^2 + y", "x*y + x", "y + 1"]
    # the same lookup serves the very rows it made
    again = [row]
    f4._close(again, set(), first)
    assert all(a is b for a, b in zip(again, rows))


def test_each_lookup_forms_reducer_rows_under_its_own_field_setting():
    ring = PolyRing(2, ["x", "y"], "grevlex")
    x, y = ring.variable(0), ring.variable(1)
    on, off = FirstDivisor([x * y + x], ring, True), FirstDivisor([x * y + x], ring, False)
    m = (x * x * y).lm()
    folded, unfolded, again = [x * x * y], [x * x * y], [x * x * y]
    f4._close(folded, set(), on)
    f4._close(unfolded, set(), off)
    f4._close(again, set(), on)
    assert folded[1] == x * y + x  # x*(x*y + x), folded by x^2 = x
    assert unfolded[1] == x * x * y + x * x
    assert on.rows[m] is folded[1] is again[1]
    assert off.rows[m] is unfolded[1]


def test_a_product_past_the_limit_raises_after_earlier_rounds_filled_the_folds():
    ring = PolyRing(2, ["x", "y"], "lex")
    lim = ring.codec.limit
    first = FirstDivisor([ring.poly({(1, 0): 1, (0, lim - 10): 1})], ring, True)  # x + y^(lim-10)
    for e in range(1, 11):  # the reducer of x*y^e has the tail y^(lim-10+e)
        f4._close([ring.poly({(1, e): 1})], set(), first)
    assert len(first.rows) >= 10 and len(first.folds) >= 20
    with pytest.raises(MonomialOverflowError):
        f4._close([ring.poly({(1, 11): 1})], set(), first)


# ------------------------------------------------------- the created-row bound


def bound_errors(monkeypatch, kernel):
    """(raised, per_row): the ``BoundViolationError`` that ``kernel()`` raises,
    and the one that checking each row when it is made would raise, that is
    the first ``_multiple`` result past the created bound, found with the
    once-per-matrix check turned off."""
    made = []
    multiple = f4._multiple

    def spied(*args):
        made.append(multiple(*args))
        return made[-1]

    with monkeypatch.context() as mp:
        mp.setattr(f4, "_multiple", spied)
        mp.setattr(f4, "_check_created", lambda *args: None)
        kernel()
    per_row = None
    for row in made:
        try:
            degree_monitor(row, row.ring, "created")
        except BoundViolationError as exc:
            per_row = exc
            break
    with pytest.raises(BoundViolationError) as raised:
        kernel()
    return raised.value, per_row


def over_degree(ring, *exponents):
    """A monic member that no canonical form allows, made with the trusted
    constructor: its terms in the order given, unfolded."""
    return Polynomial(ring, tuple((ring.codec.pack(e), 1) for e in exponents))


def test_the_created_bound_fires_on_pair_rows(monkeypatch):
    ring = PolyRing(2, ["x", "y", "z"], "grevlex")  # created bound 4
    h = ring.poly({(1, 1, 0): 1, (0, 0, 0): 1})  # x*y + 1
    k = ring.poly({(0, 1, 1): 1, (1, 0, 0): 1})  # y*z + x
    g = over_degree(ring, (2, 2, 1), (1, 0, 0))  # x^2*y^2*z + x, a pair row as it is
    g2 = over_degree(ring, (2, 1, 2), (0, 1, 0))  # x^2*y*z^2 + y, made after g
    basis = [h, k, g, g2]
    pairs = [make_pair(h, k, 0, 1), make_pair(h, g, 0, 2), make_pair(h, g2, 0, 3)]
    raised, per_row = bound_errors(
        monkeypatch, lambda: symbolic_preprocess(pairs, FirstDivisor(basis, ring, True))
    )
    assert per_row.poly is g
    assert (raised.stage, raised.poly, raised.limit) == ("created", g, 4)
    assert str(raised) == str(per_row)


def test_the_created_bound_fires_on_closure_rows(monkeypatch):
    ring = PolyRing(3, ["x", "y"], "lex")  # created bound 5
    a = ring.poly({(1, 1): 1, (1, 0): 1})  # x*y + x
    b = ring.poly({(0, 2): 1, (0, 0): 1})  # y^2 + 1
    g = over_degree(ring, (1, 0), (0, 7))  # x + y^7, the reducer row of x
    basis = [a, b, g]
    raised, per_row = bound_errors(
        monkeypatch,
        lambda: symbolic_preprocess([make_pair(a, b)], FirstDivisor(basis, ring, True)),
    )
    assert per_row.poly is g
    assert (raised.stage, raised.poly, raised.limit) == ("created", g, 5)
    assert str(raised) == str(per_row)


def test_the_created_bound_fires_on_completion_rows(monkeypatch):
    ring = PolyRing(2, ["x", "y", "z"], "lex")  # created bound 4
    g = over_degree(ring, (1, 0, 1), (0, 7, 0))  # x*z + y^7
    kept = ring.poly({(1, 1, 0): 1, (1, 0, 1): 1})  # x*y + x*z
    z = ring.variable(2)
    basis = [g, kept, z]  # z divides g's head, so g is not kept
    # the run's lookup takes g, the first divisor of x*z, as its reducer row
    raised, per_row = bound_errors(
        monkeypatch, lambda: reduced_basis(FirstDivisor(basis, ring, True))
    )
    assert per_row.poly is g
    assert (raised.stage, raised.poly, raised.limit) == ("created", g, 4)
    assert str(raised) == str(per_row)


def test_matrix_columns_sorted_descending(lex2):
    f = lex2.poly({(1, 1): 1, (0, 1): 1})
    g = lex2.poly({(1, 1): 1, (0, 0): 1})
    m = MacaulayMatrix([f, g], lookup([], lex2))
    assert [lex2.exponents(c) for c in m.columns] == [(1, 1), (0, 1), (0, 0)]
    assert m.shape == (2, 3)


def test_matrix_reduce_gf2_full_jordan(lex2):
    rows = [lex2.poly({(1, 1): 1, (0, 1): 1}),  # x*y + y
            lex2.poly({(1, 1): 1, (0, 0): 1})]  # x*y + 1
    red, zero_rows = MacaulayMatrix(rows, lookup([], lex2)).reduce()
    # eliminated above and below: the surviving x*y row carries 1, not y
    assert [str(p) for p in red] == ["x*y + 1", "y + 1"]
    assert zero_rows == 0


def test_matrix_reduce_counts_zero_rows(lex2):
    rows = [lex2.poly({(1, 0): 1, (0, 1): 1}),   # x + y
            lex2.poly({(1, 0): 1, (0, 0): 1}),   # x + 1
            lex2.poly({(0, 1): 1, (0, 0): 1})]   # y + 1  (= sum of the others)
    red, zero_rows = MacaulayMatrix(rows, lookup([], lex2)).reduce()
    assert [str(p) for p in red] == ["x + 1", "y + 1"]
    assert zero_rows == 1


def test_matrix_reduce_general_field():
    r5 = PolyRing(5, ["x", "y"], "grevlex")
    rows = [r5.poly({(1, 0): 2, (0, 1): 1}),
            r5.poly({(1, 0): 1, (0, 0): 3}),
            r5.poly({(0, 1): 4, (0, 0): 1})]
    red, zero_rows = MacaulayMatrix(rows, lookup([], r5)).reduce()
    assert [str(p) for p in red] == ["x + 3", "y + 4"]
    assert zero_rows == 1


def test_matrix_empty():
    ring = PolyRing(2, ["x"], "lex")
    red, zero_rows = MacaulayMatrix([], lookup([], ring)).reduce()
    assert red == [] and zero_rows == 0


def _reference_rref(rows, cols, q):
    """Tiny independent row reduction over GF(q) for differential testing."""
    a = [list(r) for r in rows]
    piv_rows, piv_cols = [], []
    for j in range(cols):
        piv = next((i for i in range(len(a))
                    if i not in piv_rows and a[i][j] % q), None)
        if piv is None:
            continue
        inv = pow(a[piv][j], -1, q)
        a[piv] = [v * inv % q for v in a[piv]]
        for i in range(len(a)):
            if i != piv and a[i][j] % q:
                c = a[i][j]
                a[i] = [(x - c * y) % q for x, y in zip(a[i], a[piv])]
        piv_rows.append(piv)
        piv_cols.append(j)
    return [a[i] for i in piv_rows], len(a) - len(piv_rows)


@pytest.mark.parametrize("q", [2, 3, 7])
@pytest.mark.parametrize("trial", range(6))
def test_matrix_reduce_matches_reference(q, trial):
    rng = random.Random(100 * q + trial)
    ring = PolyRing(q, ["x", "y", "z"], "grevlex")
    rows = [p for p in (random_system(ring, 1, 3, rng)[0] for _ in range(6))
            if not p.is_zero]
    m = MacaulayMatrix(rows, lookup([], ring))
    red, zero_rows = m.reduce()
    dense = []
    for p in rows:
        vec = [0] * len(m.columns)
        for mono, c in p.terms:
            vec[m.col_index[mono]] = c
        dense.append(vec)
    ref_rows, ref_zero = _reference_rref(dense, len(m.columns), q)
    got = sorted(tuple(0 if mono not in dict(p.terms) else dict(p.terms)[mono]
                       for mono in m.columns) for p in red)
    want = sorted(tuple(r) for r in ref_rows)
    assert got == want
    assert zero_rows == ref_zero


@pytest.mark.parametrize("q", [2, 3, 7, 8589934609])
@pytest.mark.parametrize("trial", range(8))
def test_split_reduce_matches_reference(q, trial):
    # rows with basis-divisible heads are known pivots; reduce() must return
    # exactly the full RREF's rows whose pivot column is not such a head
    rng = random.Random(1000 * trial + q % 1000)
    ring = PolyRing(q, ["x", "y", "z"], "grevlex")
    rows = random_system(ring, 8, 3, rng)
    # rows sharing a head with an earlier row: only the first can be a pivot
    rows += [p + r for p, r in zip(rows, rows[1:]) if r.lm() < p.lm()]
    heads = sorted({p.lm() for p in rows})
    lms = rng.sample(heads, max(1, len(heads) // 2))
    if trial % 2:
        lms.append(ring.codec.var(rng.randrange(3)))
    exps = [ring.exponents(m) for m in lms]

    def divisible(mono):
        e = ring.exponents(mono)
        return any(all(a <= b for a, b in zip(d, e)) for d in exps)

    m = MacaulayMatrix(rows, lookup(lms, ring))
    red, zero_rows = m.reduce()
    known = {m.col_index[p.lm()] for p in rows if divisible(p.lm())}
    assert known and m.split()[1]  # both halves of the split are used

    def dense(p):
        vec = [0] * len(m.columns)
        for mono, c in p.terms:
            vec[m.col_index[mono]] = c
        return vec

    ref_rows, ref_zero = _reference_rref([dense(p) for p in rows], len(m.columns), q)
    want = [r for r in ref_rows
            if next(j for j, v in enumerate(r) if v) not in known]
    assert [dense(p) for p in red] == want
    assert zero_rows == ref_zero


def reference_eliminate_gf2(ring, rows, columns, col, known, block):
    """The GF(2) kernel that ``f4._eliminate_gf2`` replaced: clear the block
    on the known pivots by columns, transpose it to row bitmasks, eliminate
    row by row and back substitute."""
    cells = [0] * len(columns)
    for r, i in enumerate(block):
        bit = 1 << r
        for m, _ in rows[i].terms:
            cells[col[m]] |= bit
    for j in sorted(known):
        hit = cells[j]
        if hit:
            for m, _ in rows[known[j]].terms:
                cells[col[m]] ^= hit
    packed = [0] * len(block)
    for j, c in enumerate(cells):
        bit = 1 << j
        while c:
            low = c & -c
            packed[low.bit_length() - 1] |= bit
            c ^= low

    def clear(row, pivots, mask):
        hit = row & mask
        while hit:
            row ^= pivots[hit & -hit]
            hit = row & mask
        return row

    pivots, mask = {}, 0
    for row in packed:
        row = clear(row, pivots, mask)
        if row:
            low = row & -row
            pivots[low] = row
            mask |= low
    found = sorted(pivots)
    done = 0
    for low in reversed(found):
        pivots[low] = clear(pivots[low], pivots, done)
        done |= low

    def to_poly(bits):
        terms = []
        while bits:
            low = bits & -bits
            terms.append((columns[low.bit_length() - 1], 1))
            bits ^= low
        return Polynomial(ring, tuple(terms))

    return [to_poly(pivots[low]) for low in found]


def gf2_kernels(rows, ring, known_rows=()):
    """(new, reference) GF(2) eliminations of ``rows``, those at the indices
    ``known_rows`` taken as known pivots."""
    columns, col = f4._columns(rows)
    known = {col[rows[i].lm()]: i for i in known_rows}
    block = [i for i in range(len(rows)) if i not in known_rows]
    args = (rows, columns, col, known, block)
    return f4._eliminate_gf2(*args), reference_eliminate_gf2(ring, *args)


@pytest.mark.parametrize("trial", range(12))
def test_gf2_kernel_matches_transpose_reference(trial):
    rng = random.Random(trial)
    ring = PolyRing(2, [f"x{i}" for i in range(6)], "grevlex")
    pool = sorted({ring.codec.pack([rng.randrange(2) for _ in range(6)]) for _ in range(40)})
    nrows = rng.randrange(1, 60)
    density = rng.choice((0.05, 0.2, 0.5))
    rows = []
    for _ in range(nrows):
        terms = tuple((m, 1) for m in reversed(pool) if rng.random() < density)
        rows.append(Polynomial(ring, terms or ((pool[0], 1),)))
    heads = {}  # distinct heads, as in a split; none in every third trial
    for i, p in enumerate(rows):
        if trial % 3 and rng.random() < 0.4:
            heads.setdefault(p.lm(), i)
    new, ref = gf2_kernels(rows, ring, sorted(heads.values()))
    assert new == ref
    if not heads:  # the whole matrix is the block: its full RREF
        assert MacaulayMatrix(rows, lookup([], ring)).reduce()[0] == ref


def test_gf2_kernel_edge_blocks():
    ring = PolyRing(2, ["x", "y", "z"], "grevlex")
    x, y, z = (ring.variable(i) for i in range(3))
    one = ring.one
    known = [x * y + z + one, y * z + x, x + one]
    # no known pivots: the block's own RREF, with a zero row
    block = [x * y + y, y + z, x * y + z, z + one]
    new, ref = gf2_kernels(block, ring)
    assert new == ref == [x * y + one, y + one, z + one]
    # every block row a sum of known rows: the known pivots clear it all
    rows = known + [known[0] + known[1], known[1] + known[2], known[0] + known[1] + known[2]]
    new, ref = gf2_kernels(rows, ring, range(3))
    assert new == ref == []
    # one column: one pivot of three equal rows, or none under a known pivot
    assert gf2_kernels([y, y, y], ring) == ([y], [y])
    assert gf2_kernels([y, y, y], ring, [0]) == ([], [])


# ---------------------------------------------------- GF(q > 2) kernel
#
# ``f4._eliminate_general`` clears the block on the known heads one level at
# a time and then reduces the other columns. Each case below builds rows
# whose known pivots form a chosen level structure and checks the kernel
# against ``_reference_rref`` of the whole matrix.

# Primes on both sides of the width-1 limits of ``f4._dtype``: the largest
# q with (q - 1)^2 + 2q <= 2^53 is 94906265 (float64), and the largest with
# (q - 1)^2 + q <= 2^63 is 3037000500 (int64).
FLOAT_SIDES = (94906249, 94906297)
INT_SIDES = (3037000493, 3037000507)
BIG_Q = 8589934609


def general_kernel_matches_reference(rows, known_rows):
    """Run ``_eliminate_general`` on ``rows`` with the rows at the indices
    ``known_rows`` as known pivots, and check it against the reference: the
    full RREF's rows whose pivot is not a known head, and the full matrix's
    rows minus rank as the block's size minus the kernel's rank."""
    q = rows[0].ring.q
    columns, col = f4._columns(rows)
    known = {col[rows[i].lm()]: i for i in known_rows}
    assert len(known) == len(known_rows)  # distinct heads, as a split gives
    block = [i for i in range(len(rows)) if i not in known_rows]
    got = f4._eliminate_general(rows, columns, col, known, block)

    def dense(p):
        vec = [0] * len(columns)
        for m, c in p.terms:
            vec[col[m]] = c
        return vec

    ref_rows, ref_zero = _reference_rref([dense(p) for p in rows], len(columns), q)
    want = [r for r in ref_rows if next(j for j, v in enumerate(r) if v) not in known]
    assert [dense(p) for p in got] == want
    assert all(type(c) is int for p in got for _, c in p.terms)
    assert len(block) - len(got) == ref_zero
    return got


def descending_monomials(ring, count, rng):
    """``count`` distinct monomials with every exponent below 4, largest first."""
    pool = set()
    while len(pool) < count:
        pool.add(ring.codec.pack([rng.randrange(4) for _ in range(ring.n)]))
    return sorted(pool, reverse=True)


def poly_of(ring, coefs: dict):
    return Polynomial(ring, tuple(sorted(((m, c % ring.q) for m, c in coefs.items() if c % ring.q),
                                         reverse=True)))


@pytest.mark.parametrize("q", [3, 7, 101, FLOAT_SIDES[1], BIG_Q])
def test_general_kernel_chain_of_known_pivots(q):
    # known pivot i's tail has an entry at known pivot i + 1's head, so each
    # pivot is a level of its own; leading coefficients are not 1
    rng = random.Random(q)
    ring = PolyRing(q, ["x", "y", "z"], "grevlex")
    mons = descending_monomials(ring, 24, rng)
    chain = mons[:10]
    rest = mons[10:]
    known = []
    for i, head in enumerate(chain):
        terms = {head: rng.randrange(1, q)}
        if i + 1 < len(chain):
            terms[chain[i + 1]] = rng.randrange(1, q)
        for m in rng.sample(rest, 3):
            terms[m] = rng.randrange(1, q)
        known.append(poly_of(ring, terms))
    block = [poly_of(ring, {chain[0]: rng.randrange(1, q),
                            **{m: rng.randrange(q) for m in rng.sample(rest, 5)}})
             for _ in range(6)]
    block.append(poly_of(ring, {m: rng.randrange(q) for m in rng.sample(chain[3:], 4)}))
    rows = known + block
    got = general_kernel_matches_reference(rows, range(len(known)))
    assert got and all(p.lm() not in chain for p in got)


@pytest.mark.parametrize("q, level_dtype", [
    (5, np.float64), (FLOAT_SIDES[0], np.int64), (INT_SIDES[0], object),
])
def test_general_kernel_one_wide_level(q, level_dtype):
    # 12 known pivots whose tails touch no known head: one level of width
    # 12, past the width-1 limits for the two large q. A block row with 1 at
    # every head meets tails of q - 1, so 11 products of (q - 1)^2 land on
    # each entry the tails touch.
    rng = random.Random(q)
    ring = PolyRing(q, ["x", "y", "z"], "grevlex")
    mons = descending_monomials(ring, 30, rng)
    heads, tails = mons[:12], mons[12:]
    known = [poly_of(ring, {h: 1, **{m: q - 1 for m in tails[:8]}}) for h in heads[:-1]]
    known.append(poly_of(ring, {heads[-1]: 1}))  # a monomial pivot, with no tail
    block = [poly_of(ring, {**{h: 1 for h in heads}, **{m: q - 1 for m in tails[:8]}})]
    block += [poly_of(ring, {**{h: rng.randrange(q) for h in heads},
                             **{m: rng.randrange(q) for m in rng.sample(tails, 6)}})
              for _ in range(5)]
    assert f4._dtype(q, len(heads)) is level_dtype
    got = general_kernel_matches_reference(known + block, range(len(known)))
    assert all(p.lm() not in heads for p in got)


@pytest.mark.parametrize("q", [3, 7, 101, INT_SIDES[1], BIG_Q])
@pytest.mark.parametrize("trial", range(3))
def test_general_kernel_without_known_pivots(q, trial):
    rng = random.Random(100 * trial + q % 100)
    ring = PolyRing(q, ["x", "y", "z"], "grevlex")
    mons = descending_monomials(ring, 15, rng)
    rows = [poly_of(ring, {m: rng.randrange(q) for m in rng.sample(mons, 6)}) for _ in range(9)]
    rows = [p for p in rows if not p.is_zero]
    rows.append(rows[0] + rows[1].scale(2))  # a dependent row, reduced to zero
    got = general_kernel_matches_reference(rows, ())
    assert len(got) < len(rows)


@pytest.mark.parametrize("q, pivot_dtype", [
    (FLOAT_SIDES[0], np.float64), (FLOAT_SIDES[1], np.int64),
    (INT_SIDES[0], np.int64), (INT_SIDES[1], object), (BIG_Q, object),
])
def test_general_kernel_exact_on_both_sides_of_each_limit(q, pivot_dtype):
    # two known pivots, the first's tail at the second's head: two levels
    # of width 1. The first has 1 at its head and q - 1 in its tail, and a
    # block row has 1 at that head and q - 1 where the tail is, so the
    # first level writes (q - 1)^2 + q - 1 there
    ring = PolyRing(q, ["x", "y"], "grevlex")
    x, y = ring.variable(0), ring.variable(1)
    one = ring.one
    known = [x * x + (y + one).scale(q - 1), y + one.scale(q - 1)]
    block = [x * x + (x * y + y + one).scale(q - 1) + x.scale(q - 2),
             x * x.scale(q - 1) + x * y + one]
    assert f4._dtype(q, 1) is pivot_dtype
    general_kernel_matches_reference(known + block, range(2))


@pytest.mark.parametrize("width", [1, 2, 12])
def test_dtype_limits(width):
    def largest(fits):
        lo, hi = 2, 2**40
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if fits(mid) else (lo, mid - 1)
        return lo

    last_float = largest(lambda q: (q - 1) ** 2 * width + 2 * q <= 2**53)
    last_int = largest(lambda q: (q - 1) ** 2 * width + q <= 2**63)
    assert f4._dtype(last_float, width) is np.float64
    assert f4._dtype(last_float + 1, width) is np.int64
    assert f4._dtype(last_int, width) is np.int64
    assert f4._dtype(last_int + 1, width) is object
    assert f4._dtype(3, 0) is np.float64  # a block with no known pivots


def test_mod_is_exact_up_to_its_limit():
    q = FLOAT_SIDES[0]
    top = 2**53 - q
    v = np.array([top, top - 1, -top, -top + 1, q * (top // q), 0, q - 1, -1], dtype=np.float64)
    want = [int(t) % q for t in v.tolist()]
    assert f4._mod(v.copy(), q).astype(np.int64).tolist() == want


@pytest.mark.parametrize("q", [2, 3])
def test_matrix_reduce_counts_a_zero_input_row(q):
    ring = PolyRing(q, ["x", "y"], "grevlex")
    x, y = ring.variable(0), ring.variable(1)
    rows = [x + ring.one, ring.zero, y + ring.one]
    for lms, kept in (([], ["x + 1", "y + 1"]), ([x.lm()], ["y + 1"])):
        first = lookup(lms, ring)
        red, zero_rows = MacaulayMatrix(rows, first).reduce()
        assert [str(p) for p in red] == kept
        assert zero_rows == 1


def test_f4_engine_middle_solving_example():
    ring = PolyRing(2, ["x", "y"], "grevlex")
    x, y = ring.variable(0), ring.variable(1)
    rep = groebner_basis([x + ring.one, x + y], EngineConfig(ring))
    assert rep.status is Status.ALL_VARIABLES_SOLVED
    assert [(e.round, e.variable, e.value) for e in rep.events] == [
        (1, 1, 1), (1, 0, 1)
    ]
    assert rep.assignments == {0: 1, 1: 1}


def test_f4_round_trace_carries_matrix_stats():
    ring = PolyRing(2, ["x", "y"], "grevlex")
    x, y = ring.variable(0), ring.variable(1)
    rep = groebner_basis([x * y + ring.one, y * y + y],
                         EngineConfig(ring, middle_solving=False))
    assert rep.rounds
    for tr in rep.rounds:
        assert tr.matrix_rows is not None and tr.matrix_rows >= 1
        assert tr.matrix_cols is not None and tr.matrix_cols >= 1
        assert tr.zero_rows is not None and tr.zero_rows >= 0


@pytest.mark.parametrize(
    "seed,q,n,m,order",
    [
        # regression: folded pair-row heads used to be filtered out as
        # "already seen", silently dropping genuinely new leading monomials
        (6, 3, 4, 3, "grevlex"),
        (27, 3, 5, 4, "lex"),
        (30, 3, 4, 2, "grevlex"),
        (35, 2, 5, 7, "lex"),
        (51, 3, 5, 3, "lex"),
    ],
)
def test_f4_agrees_with_buchberger(seed, q, n, m, order):
    ring = PolyRing(q, [f"x{i+1}" for i in range(n)], order)
    F = random_system(ring, m, 3, random.Random(seed))
    out = {}
    for eng in ("buchberger", "f4"):
        cfg = EngineConfig(ring, engine=eng, middle_solving=False)
        out[eng] = sorted(str(p) for p in interreduce(groebner_basis(F, cfg).basis))
    assert out["f4"] == out["buchberger"]


def test_f4_output_passes_the_certificate():
    ring = PolyRing(3, ["x1", "x2", "x3"], "grevlex")
    F = random_system(ring, 4, 3, random.Random(42))
    rep = groebner_basis(F, EngineConfig(ring, middle_solving=False))
    basis = rep.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j])
            assert normal_form(s, basis).is_zero
    for f in F:
        assert normal_form(f, basis).is_zero


@pytest.mark.parametrize("seed", [0, 6, 7, 16])
def test_f4_is_exact_for_primes_past_int64(seed):
    # (q-1)^2 overflows int64 here; the dense elimination used to wrap
    # silently and return a wrong "GroebnerBasis"
    q = 8589934609
    ring = PolyRing(q, ["x", "y", "z"], "grevlex")
    F = random_system(ring, 3, 2, random.Random(seed))
    out = {}
    for eng in ("buchberger", "f4"):
        cfg = EngineConfig(ring, engine=eng, middle_solving=False,
                           adjoin_field_eqs=False)
        out[eng] = groebner_basis(F, cfg)
    basis = out["f4"].basis
    assert out["f4"].status is Status.GROEBNER_BASIS
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero
    for f in F:
        assert normal_form(f, basis).is_zero
    assert interreduce(basis) == interreduce(out["buchberger"].basis)


# ------------------------------------------------------------- completion kernel


@pytest.fixture
def kernel_checked(monkeypatch):
    """Check every ``RunState.completion`` reduction against ``interreduce``.

    Each call's result must equal ``interreduce`` of the same list, and
    ``reduced_basis`` over a fresh lookup, and each reducer row the kernel
    makes must keep its head m = quot * LM(g), also when folding changed it.
    Yields a Counter of what the calls covered: among it the reducer rows
    served from the run's table ("served") and the quotient-1 rows that are
    the member itself ("member_rows").
    """
    kernel, multiple, close = f4.reduced_basis, f4._multiple, f4._close
    seen = Counter()
    depth = []

    def reducer(g, quot, first):
        row = multiple(g, quot, first)
        if depth:
            assert row.terms and row.lm() == g.ring.codec.mul(g.lm(), quot)
            seen["reducers"] += 1
            seen["folded"] += row != g.term_mul(quot, pow(g.lc(), -1, g.ring.q))
            seen["member_rows"] += row is g
        return row

    def spied_close(rows, looked, first):
        if not depth:
            return close(rows, looked, first)
        table = {id(r) for r in first.rows.values()}
        start = len(rows)
        close(rows, looked, first)
        seen["served"] += sum(id(r) in table for r in rows[start:])

    def checked(first):
        basis, ring, field_active = first.members, first.ring, first.field_active
        depth.append(ring)
        try:
            got = kernel(first)
        finally:
            depth.pop()
        assert got == interreduce(basis)
        assert got == kernel(FirstDivisor(basis, ring, field_active))
        lms = [g.lm() for g in basis]
        seen["calls"] += 1
        seen["empty"] += not basis
        seen["unit"] += ring.one in basis
        seen["shared_lm"] += len(set(lms)) < len(lms)
        seen["dense_unfolded"] += ring.q > 2 and not field_active
        return got

    monkeypatch.setattr(f4, "_multiple", reducer)
    monkeypatch.setattr(f4, "_close", spied_close)
    monkeypatch.setattr(runner, "reduced_basis", checked)
    return seen


def test_reduced_basis_of_a_groebner_basis():
    ring = PolyRing(3, ["x", "y"], "lex")
    x, y = ring.variable(0), ring.variable(1)
    one = ring.one
    # a Groebner basis of <x + y + 1, y^2 + 1>, with a redundant member and
    # a reducible tail
    basis = [x * y + y * y + y, x + y * y + y + ring.constant(2), y * y + one]
    assert [str(p) for p in reduced_basis(FirstDivisor(basis, ring, False))] == [
        "y^2 + 1", "x + y + 1"
    ]
    assert reduced_basis(FirstDivisor(basis, ring, False)) == interreduce(basis)
    assert reduced_basis(FirstDivisor([], ring, True)) == [] == interreduce([])


def test_completion_kernel_equals_interreduce_over_the_trace_corpus(kernel_checked):
    for group in (2, 3, 5, 7, "families"):
        for ring, polys, engine, ms, fe in corpus_runs(group):
            groebner_basis(polys, EngineConfig(
                ring, engine=engine, middle_solving=ms, adjoin_field_eqs=fe
            ))
    seen = kernel_checked
    assert seen["calls"] > 360 and seen["folded"] and seen["dense_unfolded"], seen
    assert seen["empty"], seen  # a settled screen leaves the empty basis
    assert seen["served"] > 0 and seen["member_rows"] > 0, seen


def test_completion_kernel_edge_cases(kernel_checked):
    seen = kernel_checked
    ring = PolyRing(3, ["x", "y", "z"], "grevlex")
    x, y, z = (ring.variable(i) for i in range(3))
    for engine in ("f4", "buchberger", "incremental"):
        # a basis that holds 1 when middle solving is off
        rep = groebner_basis([x * y + ring.one, ring.one],
                             EngineConfig(ring, engine=engine, middle_solving=False))
        assert rep.basis == [ring.one]
        # raw inputs that share a leading monomial
        groebner_basis([x * y + z, x * y + y, y * z + x],
                       EngineConfig(ring, engine=engine, middle_solving=False))
    assert seen["unit"] and seen["shared_lm"], seen
    # lex without field equations over GF(5) and GF(7): the dense path, unfolded
    folded = seen["folded"]
    for q, seed in itertools.product((5, 7), range(3)):
        lex = PolyRing(q, ["x1", "x2", "x3"], "lex")
        polys = random_system(lex, 4, 2, random.Random(seed), max_terms=4)
        for engine in ("f4", "buchberger", "incremental"):
            groebner_basis(polys, EngineConfig(lex, engine=engine, adjoin_field_eqs=False))
    assert seen["dense_unfolded"] >= 18 and seen["folded"] == folded, seen


# ------------------------------------------------------------- the mask kernel


@pytest.fixture
def mask_rounds(monkeypatch):
    """Count the rounds that take the mask kernel."""
    count = Counter()
    kernel = f4._mask_preprocess

    def counted(*args):
        count["mask"] += 1
        return kernel(*args)

    monkeypatch.setattr(f4, "_mask_preprocess", counted)
    return count


def gated_digests(system, engine, order, middle_solving, path, monkeypatch) -> list:
    """The trace digests of one run with the mask kernel's gate closed and
    with it open (every round that may take the kernel takes it)."""
    out = []
    for gate in (10**18, 0):
        monkeypatch.setattr(f4, "MASK_ROUND_TERMS", gate)
        out.append(trace_digest(system, engine, order, middle_solving, path))
    return out


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("engine", ["f4", "incremental"])
def test_mask_kernel_keeps_planted_quadric_traces(engine, order, mask_rounds, monkeypatch, tmp_path):
    for n, seed, ms in itertools.product((4, 6, 8, 10), (0, 1, 2), (True, False)):
        if n == 10 and (engine == "incremental" or seed):
            continue  # the slowest runs add nothing the others do not cover
        closed, opened = gated_digests(
            lambda: planted_mq(n, seed), engine, order, ms, tmp_path / "run.trace", monkeypatch
        )
        assert closed == opened, (n, seed, ms)
    assert mask_rounds["mask"] > 20, mask_rounds


def boolean_quadrics(n, order):
    """Four random GF(2) quadrics in a ring of n variables, over the first
    two, the middle and the last two of them, so the masks use bit n - 1."""
    ring = PolyRing(2, [f"x{i}" for i in range(1, n + 1)], order)
    rng = random.Random(5)
    used = (0, 1, n // 2, n - 2, n - 1)
    polys = []
    for _ in range(4):
        terms = {(0,) * n: rng.randrange(2)}
        for a, b in itertools.combinations_with_replacement(used, 2):
            if rng.randrange(2):
                e = [0] * n
                e[a] = e[b] = 1
                terms[tuple(e)] = 1
        polys.append(ring.poly(terms))
    return ring, polys


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("n,mask", [(64, True), (65, False)])
def test_mask_kernel_takes_rings_of_up_to_64_variables(n, mask, order, mask_rounds, monkeypatch,
                                                      tmp_path):
    closed, opened = gated_digests(
        lambda: boolean_quadrics(n, order), "f4", order, False, tmp_path / "run.trace", monkeypatch
    )
    assert closed == opened
    assert (mask_rounds["mask"] > 0) == mask


def test_a_round_with_x_times_x_plus_1_takes_the_polynomial_path(monkeypatch, mask_rounds,
                                                                  tmp_path):
    """``field_term_mul`` keeps x * (x + 1) = x^2 + x, which masks would
    cancel to 0: the pair of x + 1 with x^2 + x lists the field
    polynomial's side, so its round takes the polynomial path. A pair of
    x + 1 with a member whose head has no x takes the mask kernel, and
    gives the polynomial path's rows."""
    monkeypatch.setattr(f4, "MASK_ROUND_TERMS", 0)
    ring = PolyRing(2, ["x", "y", "z"], "grevlex")
    x, y, z = (ring.variable(i) for i in range(3))
    field, g, h = x * x + x, x + ring.one, y * z + x + y
    basis = [field, g, h]
    rows = symbolic_preprocess(
        [make_pair(field, g, 0, 1), make_pair(g, h, 1, 2)], FirstDivisor(basis, ring, True)
    )
    assert isinstance(rows, f4.Rows)
    assert [str(r) for r in rows[:2]] == ["x^2 + x", "x^2 + x"]
    rows = symbolic_preprocess([make_pair(g, h, 1, 2)], FirstDivisor(basis, ring, True))
    assert isinstance(rows, f4.MaskRows)
    with monkeypatch.context() as mp:
        mp.setattr(f4, "MASK_ROUND_TERMS", 10**18)
        ref = symbolic_preprocess([make_pair(g, h, 1, 2)], FirstDivisor(basis, ring, True))
    assert Counter(polynomials(rows)) == Counter(ref)
    # and whole runs that keep x1 + 1 as a member, so that they hold the
    # row x1 * (x1 + 1) = x1^2 + x1 in some rounds and take masks in others
    made = Counter()
    preprocess = f4.symbolic_preprocess

    def spied(pairs, first):
        rows = preprocess(pairs, first)
        made["x1^2 + x1"] += sum(str(p) == "x1^2 + x1" for p in polynomials(rows))
        return rows

    monkeypatch.setattr(f4, "symbolic_preprocess", spied)
    for seed in range(3):

        def system(seed=seed):
            ring, polys = planted_mq(6, seed)
            return ring, [ring.variable(0) + ring.one] + polys

        closed, opened = gated_digests(
            system, "f4", "grevlex", False, tmp_path / "run.trace", monkeypatch
        )
        assert closed == opened
    assert made["x1^2 + x1"] >= 6 and mask_rounds["mask"] > 6, (made, mask_rounds)


def test_a_mask_round_leaves_the_reducer_table_to_polynomials(monkeypatch):
    """A mask round neither reads nor fills the lookup's reducer table: the
    rows an earlier polynomial round put there stay as they were, every row
    in the table is a polynomial, and a later polynomial round on the same
    lookup gives the rows it gives on a fresh lookup."""
    ring, polys = planted_mq(6, 0)
    pairs = [make_pair(f, g, i, j) for (i, f), (j, g) in itertools.combinations(enumerate(polys), 2)]
    first = FirstDivisor(polys, ring, True)
    monkeypatch.setattr(f4, "MASK_ROUND_TERMS", 10**18)
    fresh = symbolic_preprocess(pairs, FirstDivisor(polys, ring, True))
    symbolic_preprocess(pairs[:2], first)
    before = dict(first.rows)
    monkeypatch.setattr(f4, "MASK_ROUND_TERMS", 0)
    rows = symbolic_preprocess(pairs, first)
    assert isinstance(rows, f4.MaskRows)
    assert Counter(polynomials(rows)) == Counter(fresh)
    assert set(before) & set(rows.columns)  # the mask round's closure met the table's monomials
    assert all(isinstance(row, Polynomial) for row in first.rows.values())
    assert first.rows.keys() == before.keys()
    assert all(first.rows[m] is row for m, row in before.items())
    monkeypatch.setattr(f4, "MASK_ROUND_TERMS", 10**18)
    later = symbolic_preprocess(pairs, first)
    assert isinstance(later, f4.Rows) and later == fresh


def all_pairs(polys, start=0) -> list:
    """A pair of every two members, each with at least one index from ``start`` on."""
    return [
        make_pair(f, g, i, j)
        for (i, f), (j, g) in itertools.combinations(enumerate(polys), 2)
        if j >= start
    ]


def test_a_mask_round_after_appends_gives_a_fresh_lookups_rows(monkeypatch):
    """Members appended between mask rounds, as a run's ``update`` appends
    them, field polynomials among them, are taken as masks too: a second
    mask round on the grown lookup lays out the same rows as a fresh lookup
    over the same list, and its matrix reduces to the same rows."""
    monkeypatch.setattr(f4, "MASK_ROUND_TERMS", 0)
    ring, polys = planted_mq(6, 0)
    members = polys[:4]
    first = FirstDivisor(members, ring, True)
    rows = symbolic_preprocess(all_pairs(members), first)
    assert isinstance(rows, f4.MaskRows)
    made, _ = MacaulayMatrix(rows, first).reduce()
    x1 = ring.variable(0)
    start = len(members)
    members += [x1 * x1 + x1] + polys[4:] + made[:3]  # the lookup's own list grows
    pairs = [pr for pr in all_pairs(members, start) if start not in (pr.left, pr.right)]
    again = symbolic_preprocess(pairs, first)
    fresh = FirstDivisor(list(members), ring, True)
    ref = symbolic_preprocess(pairs, fresh)
    assert isinstance(again, f4.MaskRows) and isinstance(ref, f4.MaskRows)
    assert again.columns == ref.columns and again.heads == ref.heads
    assert np.array_equal(again.lengths, ref.lengths)
    assert np.array_equal(again.term_columns, ref.term_columns)
    assert MacaulayMatrix(again, first).reduce() == MacaulayMatrix(ref, fresh).reduce()


def test_a_non_boolean_member_sends_every_round_to_the_polynomial_path(monkeypatch,
                                                                       mask_rounds):
    """A lookup that holds an unfolded member with an exponent past 1 takes
    the polynomial path in every round, not only in its first, though the
    member is on no pair side; without it the same pairs take masks."""
    monkeypatch.setattr(f4, "MASK_ROUND_TERMS", 0)
    ring, polys = planted_mq(6, 1)
    pairs = all_pairs(polys)
    rows = symbolic_preprocess(pairs, FirstDivisor(list(polys), ring, True))
    assert isinstance(rows, f4.MaskRows) and mask_rounds["mask"] == 1
    g = over_degree(ring, (2, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1))  # x1^2*x2 + x6
    members = polys + [g]
    first = FirstDivisor(members, ring, True)
    for _ in range(3):
        rows = symbolic_preprocess(pairs, first)
        assert isinstance(rows, f4.Rows)
        made, _ = MacaulayMatrix(rows, first).reduce()
        members += made[:2]  # later rounds see more Boolean members
    assert mask_rounds["mask"] == 1


@pytest.mark.parametrize("bound_test", [
    test_the_created_bound_fires_on_pair_rows,
    test_the_created_bound_fires_on_closure_rows,
    test_the_created_bound_fires_on_completion_rows,
])
def test_the_created_bound_fires_with_the_mask_gate_open(bound_test, monkeypatch):
    monkeypatch.setattr(f4, "MASK_ROUND_TERMS", 0)
    bound_test(monkeypatch)


def test_mask_conversions_round_trip():
    rng = random.Random(3)
    for n, order in itertools.product((1, 8, 9, 17, 64), ("grevlex", "lex")):
        ring = PolyRing(2, [f"x{i}" for i in range(n)], order)
        codec = ring.codec
        exps = [tuple(rng.choice((0, 1, 1, 2)) for _ in range(n)) for _ in range(200)]
        masks, boolean = codec.to_masks([codec.pack(e) for e in exps])
        full = (1 << n) - 1
        key = (lambda k: k) if order == "lex" else (lambda k: (bin(k).count("1") << n) | (~k & full))
        kept = []
        for e, mask, b in zip(exps, masks.tolist(), boolean.tolist()):
            assert b == (max(e) <= 1)
            if b:
                assert codec.from_mask(mask) == codec.pack(e)
                kept.append((codec.pack(e), mask))
        # masks order as the ring does
        assert sorted(kept) == sorted(kept, key=lambda t: key(t[1]))

"""Symbolic preprocessing, the Macaulay matrix, and the batch engine."""

import random

import pytest

from midgb import (
    EngineConfig,
    PolyRing,
    Status,
    groebner_basis,
    interreduce,
    normal_form,
    s_polynomial,
)
from midgb.bench import random_system
from midgb.engine import CriticalPair
from midgb.errors import EmptyBatchError
from midgb.f4 import MacaulayMatrix, symbolic_preprocess


def make_pair(f, g, left=0, right=1):
    ring = f.ring
    lcm = tuple(map(max, ring.exponents(f.lm()), ring.exponents(g.lm())))
    return CriticalPair(left, right, ring.codec.pack(lcm), sum(lcm))


@pytest.fixture
def lex2():
    return PolyRing(2, ["x", "y"], "lex")


def test_preprocess_requires_pairs(lex2):
    with pytest.raises(EmptyBatchError):
        symbolic_preprocess([], [], lex2)


def test_preprocess_collects_reducer_closure(lex2):
    f = lex2.poly({(1, 1): 1, (0, 0): 1})  # x*y + 1
    g = lex2.poly({(0, 2): 1, (0, 1): 1})  # y^2 + y
    rows = symbolic_preprocess([make_pair(f, g)], [f, g], lex2,
                               field_active=False)
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
    rows = symbolic_preprocess([make_pair(f, g)], [f, g], lex2,
                               field_active=True)
    assert [str(r) for r in rows] == ["x*y + y", "x*y + 1"]


def test_matrix_columns_sorted_descending(lex2):
    f = lex2.poly({(1, 1): 1, (0, 1): 1})
    g = lex2.poly({(1, 1): 1, (0, 0): 1})
    m = MacaulayMatrix([f, g], lex2)
    assert [lex2.exponents(c) for c in m.columns] == [(1, 1), (0, 1), (0, 0)]
    assert m.shape == (2, 3)


def test_matrix_reduce_gf2_full_jordan(lex2):
    rows = [lex2.poly({(1, 1): 1, (0, 1): 1}),  # x*y + y
            lex2.poly({(1, 1): 1, (0, 0): 1})]  # x*y + 1
    red, zero_rows = MacaulayMatrix(rows, lex2).reduce()
    # eliminated above and below: the surviving x*y row carries 1, not y
    assert [str(p) for p in red] == ["x*y + 1", "y + 1"]
    assert zero_rows == 0


def test_matrix_reduce_counts_zero_rows(lex2):
    rows = [lex2.poly({(1, 0): 1, (0, 1): 1}),   # x + y
            lex2.poly({(1, 0): 1, (0, 0): 1}),   # x + 1
            lex2.poly({(0, 1): 1, (0, 0): 1})]   # y + 1  (= sum of the others)
    red, zero_rows = MacaulayMatrix(rows, lex2).reduce()
    assert [str(p) for p in red] == ["x + 1", "y + 1"]
    assert zero_rows == 1


def test_matrix_reduce_general_field():
    r5 = PolyRing(5, ["x", "y"], "grevlex")
    rows = [r5.poly({(1, 0): 2, (0, 1): 1}),
            r5.poly({(1, 0): 1, (0, 0): 3}),
            r5.poly({(0, 1): 4, (0, 0): 1})]
    red, zero_rows = MacaulayMatrix(rows, r5).reduce()
    assert [str(p) for p in red] == ["x + 3", "y + 4"]
    assert zero_rows == 1


def test_matrix_empty():
    ring = PolyRing(2, ["x"], "lex")
    red, zero_rows = MacaulayMatrix([], ring).reduce()
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
    m = MacaulayMatrix(rows, ring)
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

    m = MacaulayMatrix(rows, ring, lms)
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


@pytest.mark.parametrize("q", [2, 3])
def test_matrix_reduce_counts_a_zero_input_row(q):
    ring = PolyRing(q, ["x", "y"], "grevlex")
    x, y = ring.variable(0), ring.variable(1)
    rows = [x + ring.one, ring.zero, y + ring.one]
    for lms, kept in (((), ["x + 1", "y + 1"]), ([x.lm()], ["y + 1"])):
        red, zero_rows = MacaulayMatrix(rows, ring, lms).reduce()
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

"""Polynomial arithmetic, reduction, and the field-equation helpers."""

import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from midgb import (
    EngineConfig,
    MonomialOverflowError,
    PolyRing,
    Polynomial,
    brute_force_solutions,
    field_polynomial,
    field_reduce,
    groebner_basis,
    interreduce,
    normal_form,
    s_polynomial,
)
from midgb import poly
from midgb.api import ENGINES
from midgb.bench import solutions_from_lex_basis
from midgb.errors import InvalidSettingError, MidgbError, MixedRingsError, ZeroInputError
from midgb.poly import (
    FirstDivisor,
    _reduce_by,
    _reducer,
    field_term_mul,
    is_field_polynomial,
    is_univariate,
    substitute,
)


@pytest.fixture
def r2():
    return PolyRing(2, ["x", "y"], "lex")


@pytest.fixture
def r3():
    return PolyRing(3, ["x", "y"], "lex")


@pytest.fixture
def r7():
    return PolyRing(7, ["x", "y"], "lex")


def test_ring_construction_and_vars(r7):
    x, y = r7.variable(0), r7.variable(1)
    assert str(x) == "x"
    assert str(x * y + r7.one) == "x*y + 1"
    assert r7.zero.is_zero
    assert r7.constant(9) == r7.constant(2)


@pytest.mark.parametrize(
    "names,order",
    [([], "grevlex"), (["x", "y", "x"], "grevlex"), (["x"], "deglex")],
    ids=["no-variables", "duplicate-names", "unknown-order"],
)
def test_ring_settings_out_of_range_raise_typed_error(names, order):
    with pytest.raises(InvalidSettingError) as ei:
        PolyRing(7, names, order)
    assert isinstance(ei.value, MidgbError) and isinstance(ei.value, ValueError)


def test_poly_canonicalizes_terms(r7):
    # duplicate monomials merge, zero coefficients vanish
    p = r7.poly({(1, 0): 3, (0, 0): 7})
    assert str(p) == "3*x"
    q = r7.poly({(1, 0): 3}) + r7.poly({(1, 0): 4})
    assert q.is_zero


def test_str_formatting(r7):
    p = r7.poly({(2, 1): 2, (1, 0): 1, (0, 0): 1})
    assert str(p) == "2*x^2*y + x + 1"


def test_arithmetic(r7):
    x, y = r7.variable(0), r7.variable(1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + y) + (x - y) == x.scale(2)
    assert -(x + y) == x.scale(6) + y.scale(6)


def test_freshmans_dream_gf2(r2):
    x, y = r2.variable(0), r2.variable(1)
    assert (x + y) * (x + y) == x * x + y * y


def test_lm_lc_of_zero_raises(r7):
    with pytest.raises(ZeroInputError):
        r7.zero.lm()
    with pytest.raises(ZeroInputError):
        r7.zero.lc()
    assert r7.zero.degree() == -1


def test_monic(r7):
    p = r7.poly({(1, 0): 3, (0, 0): 1})
    assert str(p.monic()) == "x + 5"  # 3^-1 = 5 mod 7


def test_evaluate(r7):
    p = r7.poly({(2, 0): 1, (0, 1): 1, (0, 0): 3})  # x^2 + y + 3
    assert p.evaluate((2, 1)) == (4 + 1 + 3) % 7


@pytest.mark.parametrize("point", [(), (2,), (2, 1, 0)])
def test_evaluate_at_a_point_of_the_wrong_length_raises_typed_error(r7, point):
    with pytest.raises(InvalidSettingError):
        r7.poly({(1, 0): 1}).evaluate(point)


@pytest.mark.parametrize("i", [2, -1, 1.5, "0"])
def test_variable_index_out_of_range_raises_typed_error(r3, i):
    with pytest.raises(InvalidSettingError):
        r3.variable(i)


@pytest.mark.parametrize("i", [2, 5, -1, 1.5])
def test_var_monomial_index_out_of_range_raises_typed_error(r3, i):
    with pytest.raises(InvalidSettingError):
        r3.var_monomial(i)
    assert r3.var_monomial(1, 2) == (0, 2)


@pytest.mark.parametrize("value", [1.5, "1", None])
def test_evaluate_at_a_value_that_is_not_an_integer_raises_typed_error(r3, value):
    x, y = r3.variable(0), r3.variable(1)
    with pytest.raises(InvalidSettingError):
        (x + y).evaluate((value, 0))
    assert (x + y).evaluate((True, 1)) == 2  # a bool is an int


def test_s_polynomial_cancels_leading_terms(r7):
    f = r7.poly({(2, 0): 1, (0, 1): 1})  # x^2 + y
    g = r7.poly({(1, 1): 1, (0, 0): 1})  # x*y + 1
    s = s_polynomial(f, g)
    # lcm = x^2*y; y*f - x*g = y^2 - x
    assert s == r7.poly({(0, 2): 1, (1, 0): -1})


def test_s_polynomial_gf2_example(r2):
    f = r2.poly({(2, 0): 1, (0, 0): 1})  # x^2 + 1
    g = r2.poly({(0, 2): 1, (0, 1): 1})  # y^2 + y
    s = s_polynomial(f, g)
    assert s == r2.poly({(2, 1): 1, (0, 2): 1})  # x^2*y + y^2


def test_normal_form_single_reducer(r7):
    f = r7.poly({(2, 1): 1})  # x^2*y
    g = r7.poly({(2, 0): 1, (0, 1): 1})  # x^2 + y
    assert normal_form(f, [g]) == r7.poly({(0, 2): -1})  # -y^2


def test_normal_form_prefers_first_reducer(r2):
    f = r2.poly({(1, 1): 1})  # x*y
    a = r2.poly({(1, 0): 1, (0, 0): 1})  # x + 1
    b = r2.poly({(0, 1): 1})  # y
    # reducing by a first: x*y -> y -> y ; then y reduces by b -> 0
    assert normal_form(f, [a, b]).is_zero
    # with only a: x*y -> y (a's LM no longer divides)
    assert normal_form(f, [a]) == b


def test_normal_form_of_member_is_zero(r7):
    g1 = r7.poly({(2, 0): 1, (0, 1): 1})
    g2 = r7.poly({(1, 1): 1, (0, 0): 3})
    for g in (g1, g2):
        assert normal_form(g, [g1, g2]).is_zero


small_polys = st.builds(
    lambda terms: terms,
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(1, 2),
        max_size=4,
    ),
)


@settings(max_examples=60)
@given(ft=small_polys, gt=small_polys, ht=small_polys)
def test_normal_form_properties(ft, gt, ht):
    ring = PolyRing(3, ["x", "y"], "grevlex")
    f = ring.poly(ft)
    reducers = [p for p in (ring.poly(gt), ring.poly(ht)) if not p.is_zero]
    r = normal_form(f, reducers)
    # no term of the remainder is divisible by any reducer's leading monomial
    for m, _ in r.terms:
        for g in reducers:
            assert not all(a <= b for a, b in zip(ring.exponents(g.lm()), ring.exponents(m)))
    # reducing again changes nothing
    assert normal_form(r, reducers) == r


def test_interreduce_simple(r2):
    x, y = r2.variable(0), r2.variable(1)
    out = interreduce([x + y, x])
    assert [str(p) for p in out] == ["y", "x"]


def test_interreduce_drops_redundant_members(r2):
    x, y = r2.variable(0), r2.variable(1)
    out = interreduce([x, x * y, x + y * y])
    # x*y reduces away; x + y^2 loses its x
    assert [str(p) for p in out] == ["y^2", "x"]


def test_interreduce_is_idempotent_and_sorted(r7):
    polys = [
        r7.poly({(2, 0): 2, (1, 1): 1}),
        r7.poly({(1, 0): 3, (0, 1): 1}),
        r7.poly({(0, 2): 1, (0, 0): 5}),
    ]
    once = interreduce(polys)
    assert interreduce(once) == once
    keys = [r7.exponents(p.lm()) for p in once]  # lex: the key is the tuple
    assert keys == sorted(keys)
    assert all(p.lc() == 1 for p in once)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda a, b: a + b, id="add"),
        pytest.param(lambda a, b: a * b, id="mul"),
        pytest.param(s_polynomial, id="s_polynomial"),
        pytest.param(lambda a, b: interreduce([a, b]), id="interreduce"),
        pytest.param(lambda a, b: normal_form(a, [b]), id="normal_form"),
        pytest.param(lambda a, b: brute_force_solutions([a], b.ring), id="oracle"),
        pytest.param(
            lambda a, b: solutions_from_lex_basis([a], PolyRing(3, ["x", "y"], "lex")),
            id="solutions_from_lex_basis",
        ),
        *(
            pytest.param(
                lambda a, b, e=e: groebner_basis([a, b], EngineConfig(b.ring, engine=e)),
                id=f"groebner_basis-{e}",
            )
            for e in ENGINES
        ),
    ],
)
def test_polynomials_of_two_rings_raise(call):
    """A GF(2) polynomial meeting a GF(3) one used to give silent nonsense."""
    r2 = PolyRing(2, ["x", "y"], "grevlex")
    r3 = PolyRing(3, ["x", "y"], "grevlex")
    a = r2.variable(0) + r2.one  # x + 1 over GF(2)
    b = r3.variable(1)  # y over GF(3)
    with pytest.raises(MixedRingsError):
        call(a, b)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_arithmetic_with_a_non_polynomial_raises_type_error(op):
    """Polynomials do not coerce ints: both operand orders raise TypeError."""
    x = PolyRing(3, ["x"], "grevlex").variable(0)
    with pytest.raises(TypeError):
        op(x, 1)
    with pytest.raises(TypeError):
        op(1, x)


def test_interreduce_depends_on_input_order():
    """Interreduced, but not unique: the set below generates the unit ideal,
    which one order reaches and the other does not (it is no Groebner basis).
    """
    g = PolyRing(3, ["x", "y"], "grevlex")
    polys = [g.poly({(1, 2): 2}), g.poly({(1, 1): 1, (0, 0): 1}), g.poly({(0, 2): 2})]
    forward, backward = interreduce(polys), interreduce(polys[::-1])
    assert [str(p) for p in forward] == ["1"]
    assert [str(p) for p in backward] == ["y^2", "x*y + 1"]
    div = g.codec.div
    for out in (forward, backward):
        assert all(p.lc() == 1 for p in out)
        for i, p in enumerate(out):
            others = [h.lm() for j, h in enumerate(out) if j != i]
            assert all(div(m, lm) is None for lm in others for m, _ in p.terms)


def linear_scan(red: list, guard: int):
    """The first-divisor lookup as a scan of ``_reducer`` entries in order."""
    return lambda m: next((r for r in red if not (m - r[0]) & guard), None)


def reference_interreduce(polys):
    """The pass-based interreduce that ``poly.interreduce`` replaced: member i
    reduces by a linear scan of ``out_red + red[i + 1:]``."""
    work = [p.monic() for p in polys if not p.is_zero]
    if not work:
        return []
    guard = work[0].ring.codec.guard
    changed = True
    while changed:
        changed = False
        # each member's reducer entry is built once per pass
        red = [_reducer(p) for p in work]
        out, out_red = [], []
        for i, p in enumerate(work):
            others = out_red + red[i + 1 :]
            h = _reduce_by(p, linear_scan(others, guard)) if others else p
            if h != p:
                changed = True
            if not h.is_zero:
                h = h.monic()
                out.append(h)
                out_red.append(_reducer(h))
        work = out
    work.sort(key=Polynomial.lm)
    return work


def random_member_set(ring, rng):
    """Members over a small pool of heads, with derived members that vanish
    (a multiple of another member) or lose their head (a difference of two
    members that share it)."""
    q, n = ring.q, ring.n
    pool = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(4)]

    def poly():
        terms = {rng.choice(pool): rng.randrange(1, q)}
        for _ in range(rng.randrange(4)):
            terms[tuple(rng.randrange(3) for _ in range(n))] = rng.randrange(1, q)
        return ring.poly(terms)

    members = [p for p in (poly() for _ in range(rng.randrange(2, 7))) if not p.is_zero]
    for _ in range(rng.randrange(4)):
        a, b = rng.choice(members), rng.choice(members)
        kind = rng.randrange(3)
        if kind == 0:
            extra = a.scale(rng.randrange(1, q))
        elif kind == 1:
            extra = a.term_mul(ring.codec.pack(rng.choice(pool)), 1)
        else:
            extra = a.scale(b.lc()) - b.scale(a.lc())
        if not extra.is_zero:
            members.insert(rng.randrange(len(members) + 1), extra)
    return members


@pytest.mark.parametrize("order", ["lex", "grevlex"])
@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_interreduce_matches_pass_reference(q, order):
    ring = PolyRing(q, ["x", "y", "z"], order)
    rng = random.Random(q * 31 + len(order))
    seen = {"vanished": 0, "head moved": 0, "shared head": 0}
    for _ in range(150):
        members = random_member_set(ring, rng)
        assert interreduce(members) == reference_interreduce(members)
        # what the first pass did, member by member, in the reference order
        heads = [p.lm() for p in members]
        seen["shared head"] += len(set(heads)) < len(heads)
        work = [p.monic() for p in members]
        out = []
        for i, p in enumerate(work):
            h = normal_form(p, out + work[i + 1 :])
            if h.is_zero:
                seen["vanished"] += 1
            else:
                seen["head moved"] += h.lm() != p.lm()
                out.append(h.monic())
    assert all(seen.values()), seen


lead_exponents = st.lists(st.integers(0, 5), min_size=3, max_size=3)


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5]),
    order=st.sampled_from(["lex", "grevlex"]),
    steps=st.lists(st.tuples(st.booleans(), lead_exponents), min_size=1, max_size=40),
)
def test_first_divisor_matches_a_scan_as_the_list_grows(q, order, steps):
    """Appends and lookups interleaved: the memo answers what a scan of the
    list as it stands answers. Heads repeat, and include 1 and x^q."""
    ring = PolyRing(q, ["x", "y", "z"], order)
    special = [(0, 0, 0), (q, 0, 0), (0, q, 0)]
    members: list = []
    first = FirstDivisor(members, ring, False)
    looked_up = []
    for append, exps in steps:
        if exps[0] == 5:  # about one step in six is a special monomial
            exps = special[exps[1] % 3]
        m = ring.codec.pack(exps)
        if append:
            members.append(ring.poly({tuple(exps): 1, (0, 0, 0): 1}) if any(exps) else ring.one)
        looked_up.append(m)
        for m in looked_up[-3:] + [m]:  # repeat recent lookups too
            want = next((i for i, g in enumerate(members) if ring.codec.div(m, g.lm()) is not None), None)
            assert first.index(m) == want
            assert first(m) == (None if want is None else _reducer(members[want]))


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_first_divisor_index_and_heads_follow_appends(order):
    """Lookups between appends, over six variables with exponents above q
    and the unit head: ``index`` answers what a plain scan of the list as
    it stands answers, and ``heads()`` holds every member's head."""
    ring = PolyRing(3, [f"x{i}" for i in range(6)], order)
    codec, rng = ring.codec, random.Random(len(order))
    members: list = []
    first = FirstDivisor(members, ring, False)
    for step in range(300):
        if step % 3 == 0:
            exps = [rng.choice((0, 0, 0, 1, 2, 3, 4, 7)) for _ in range(6)]
            members.append(ring.poly({tuple(exps): 1, (0,) * 6: 2}) if any(exps) else ring.one)
        if step % 7 == 0:
            heads = first.heads()
            assert len(heads) == len(members)
            assert heads.supports == [codec.support(g.lm()) for g in members]
        m = codec.pack([rng.randrange(9) for _ in range(6)])
        want = next((i for i, g in enumerate(members) if codec.div(m, g.lm()) is not None), None)
        assert first.index(m) == want


def test_field_reduce_gf2():
    ring = PolyRing(2, ["x", "y"], "lex")
    assert field_reduce(ring.poly({(2, 0): 1, (1, 0): 1})).is_zero  # x^2+x
    p = ring.poly({(3, 2): 1, (0, 0): 1})  # x^3*y^2 + 1
    assert field_reduce(p) == ring.poly({(1, 1): 1, (0, 0): 1})


def test_field_reduce_exponent_map_gf3(r3):
    # x^3 -> x, x^4 -> x^2 under x^3 = x
    assert field_reduce(r3.poly({(3, 0): 1})) == r3.poly({(1, 0): 1})
    assert field_reduce(r3.poly({(4, 0): 1})) == r3.poly({(2, 0): 1})
    assert field_reduce(r3.poly({(5, 0): 1})) == r3.poly({(1, 0): 1})


@settings(max_examples=40)
@given(
    q=st.sampled_from([2, 3]),
    terms=st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.integers(1, 2),
        max_size=4,
    ),
)
def test_field_reduce_preserves_values_on_field_points(q, terms):
    ring = PolyRing(q, ["x", "y"], "lex")
    p = ring.poly(terms)
    r = field_reduce(p)
    for m, _ in r.terms:
        assert all(e <= q - 1 for e in ring.exponents(m))
    for pt in itertools.product(range(q), repeat=2):
        assert p.evaluate(pt) == r.evaluate(pt)
    assert field_reduce(r) == r


def test_substitute(r3):
    p = r3.poly({(2, 1): 1, (1, 0): 1, (0, 0): 1})  # x^2*y + x + 1
    assert substitute(p, {0: 2}) == r3.poly({(0, 1): 1, (0, 0): 0})  # 4y+2+1 = y
    assert substitute(p, {1: 0}) == r3.poly({(1, 0): 1, (0, 0): 1})


@pytest.mark.parametrize("i", [2, -1])
def test_substitute_index_out_of_range_raises_typed_error(r3, i):
    x, y = r3.variable(0), r3.variable(1)
    with pytest.raises(InvalidSettingError):
        substitute(x + y, {i: 1})
    with pytest.raises(InvalidSettingError):
        poly.substitution(r3, {0: 1, i: 1})


@pytest.mark.parametrize("value", [1.5, "1", None])
def test_substitute_a_value_that_is_not_an_integer_raises_typed_error(r3, value):
    x, y = r3.variable(0), r3.variable(1)
    with pytest.raises(InvalidSettingError):
        substitute(x + y, {0: value})
    with pytest.raises(InvalidSettingError):
        poly.substitution(r3, {1: 1, 0: value})


def support(p) -> set:
    """Indices of the variables that occur in p."""
    mask = 0
    for m, _ in p.terms:
        mask |= p.ring.codec.support(m)
    return {i for i in range(p.ring.n) if mask >> i & 1}


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5, 7]),
    order=st.sampled_from(["lex", "grevlex"]),
    terms=st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        st.integers(1, 6),
        max_size=8,
    ),
    values=st.dictionaries(st.integers(0, 2), st.integers(0, 20), max_size=3),
)
def test_substitute_with_one_mapping_equals_one_value_at_a_time(q, order, terms, values):
    ring = PolyRing(q, ["x", "y", "z"], order)
    p = ring.poly(terms)
    chained = p
    for var, value in values.items():
        chained = substitute(chained, {var: value})
    got = substitute(p, values)
    assert got == chained
    assert not support(got) & set(values)
    if len(values) == 3:  # a full point: the value of p there
        assert got == ring.constant(p.evaluate([values[i] for i in range(3)]))


def test_univariate_helpers(r3):
    p = r3.poly({(2, 0): 1, (1, 0): 2, (0, 0): 1})  # x^2 + 2x + 1 = (x+1)^2
    assert is_univariate(p) == 0
    assert is_univariate(r3.poly({(1, 1): 1})) is None
    assert is_univariate(r3.one) is None


def test_is_field_polynomial(r3):
    assert is_field_polynomial(r3.poly({(3, 0): 1, (1, 0): -1})) == 0
    assert is_field_polynomial(r3.poly({(0, 3): 1, (0, 1): -1})) == 1
    # x^3 + x is not x^3 - x over GF(3)
    assert is_field_polynomial(r3.poly({(3, 0): 1, (1, 0): 1})) is None
    assert is_field_polynomial(r3.one) is None
    ring2 = PolyRing(2, ["x"], "lex")
    assert is_field_polynomial(ring2.poly({(2,): 1, (1,): 1})) == 0


def test_monomials_past_the_degree_limit_raise_typed_error():
    ring = PolyRing(2, ["x", "y"], "lex")
    lim = ring.codec.limit
    with pytest.raises(MonomialOverflowError):
        ring.poly({(lim, 1): 1})
    big = ring.poly({(lim, 0): 1})
    y = ring.variable(1)
    with pytest.raises(MonomialOverflowError):
        big * y
    with pytest.raises(MonomialOverflowError):
        big.term_mul(ring.codec.var(1))
    # reducing x*y by x + y^lim would need the tail y^(lim+1)
    g = ring.poly({(1, 0): 1, (0, lim): 1})
    with pytest.raises(MonomialOverflowError):
        normal_form(ring.variable(0) * y, [g])


def test_a_filled_fold_table_still_raises_past_the_limit():
    """The lookup's fold table holds only valid monomials, so once earlier
    products have filled it a product past the limit misses and raises."""
    ring = PolyRing(2, ["x", "y"], "lex")
    lim = ring.codec.limit
    g = ring.poly({(1, 0): 1, (0, lim - 10): 1})  # x + y^(lim-10)
    first = FirstDivisor([g], ring, True)
    for e in range(1, 11):  # up to y^lim, the last valid tail
        field_term_mul(g, ring.codec.var(1, e), 1, first.folds)
    assert len(first.folds) == 20
    for e in (11, 12, 40):
        with pytest.raises(MonomialOverflowError):
            field_term_mul(g, ring.codec.var(1, e), 1, first.folds)
        # the product's head x*y^e was valid and is kept; its tail was not
        assert ring.codec.var(0) + ring.codec.shift(ring.codec.var(1, e)) in first.folds
    assert not any(m & ring.codec.guard for m in first.folds)


def test_field_term_mul_is_the_folded_product(r3):
    f = r3.poly({(2, 1): 1, (1, 0): 2, (0, 0): 1})
    for exps in ((0, 0), (1, 0), (2, 2)):
        m = r3.codec.pack(exps)
        assert field_term_mul(f, m, 2) == field_reduce(f.term_mul(m, 2))
    # a product that is a field polynomial is kept, not folded to zero
    g = r3.poly({(2, 0): 1, (0, 0): 2})  # x^2 - 1
    assert field_term_mul(g, r3.codec.var(0), 1) == field_polynomial(r3, 0)

    # one fold memo shared across many products of one ring
    for q in (2, 3, 5):
        ring = PolyRing(q, ["x", "y"], "grevlex")
        rng = random.Random(q)
        folds: dict = {}
        for _ in range(60):
            f = ring.poly(
                {(rng.randrange(2 * q), rng.randrange(2 * q)): rng.randrange(1, q) for _ in range(4)}
            )
            m = ring.codec.pack((rng.randrange(2 * q), rng.randrange(2 * q)))
            c = rng.randrange(1, q)
            assert field_term_mul(f, m, c, folds) == field_reduce(f.term_mul(m, c))
        assert folds
        # x^(q-1) - 1 times x is x^q - x, which is kept intact
        g = ring.poly({(q - 1, 0): 1, (0, 0): -1})
        assert field_term_mul(g, ring.codec.var(0), 1, folds) == field_polynomial(ring, 0)
        # the degree limit is checked on a memo miss, and an overflowing
        # product is never a memo key
        big = ring.poly({(ring.codec.limit, 0): 1})
        with pytest.raises(MonomialOverflowError):
            field_term_mul(big, ring.codec.var(1), 1, folds)


EXPONENTS = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))


def fold_exponents(p):
    """``field_reduce`` on exponent tuples: e >= q becomes ((e - 1) mod (q - 1)) + 1."""
    ring = p.ring
    q = ring.q
    acc: dict = {}
    for m, c in p.terms:
        e = tuple(x if x < q else (x - 1) % (q - 1) + 1 for x in ring.exponents(m))
        acc[e] = acc.get(e, 0) + c
    return ring.poly(acc)


@settings(max_examples=120, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5, 7]),
    order=st.sampled_from(["lex", "grevlex"]),
    polys=st.lists(
        st.dictionaries(EXPONENTS, st.integers(1, 6), max_size=6), min_size=1, max_size=4
    ),
    products=st.lists(st.tuples(EXPONENTS, st.integers(0, 6)), min_size=1, max_size=5),
)
def test_one_pass_field_term_mul_is_field_reduce_of_the_product(q, order, polys, products):
    ring = PolyRing(q, ["x", "y", "z"], order)
    codec = ring.codec
    folds: dict = {}  # one memo across every product of the ring
    for terms in polys:
        p = ring.poly(terms)
        for exps, c in products:
            m = codec.pack(exps)
            got = field_term_mul(p, m, c, folds)
            product = p.term_mul(m, c)
            if is_field_polynomial(product) is None:
                assert got == field_reduce(product) == fold_exponents(product)
            else:
                assert got == product
    # a product that is a field polynomial is kept as it is
    for i in range(3):
        fp = field_polynomial(ring, i)
        g = Polynomial(ring, ((codec.var(i, q - 1), 1), (codec.one, q - 1)))  # x^(q-1) - 1
        assert field_term_mul(g, codec.var(i), 1, folds) == fp
        assert field_term_mul(fp, codec.one, 1, folds) == fp
        if q > 2:  # -(x^q - x) is no field polynomial, so it folds to 0
            assert field_term_mul(fp, codec.one, q - 1, folds) == ring.zero
    # the guard is checked inside the loop: under lex, x * y is formed and
    # memoized before y^limit * y overflows
    lex = PolyRing(q, ["x", "y"], "lex")
    big = Polynomial(lex, ((lex.codec.var(0), 1), (lex.codec.var(1, lex.codec.limit), 1)))
    lex_folds: dict = {}
    with pytest.raises(MonomialOverflowError):
        field_term_mul(big, lex.codec.var(1), 1, lex_folds)
    assert list(lex_folds) == [lex.codec.pack((1, 1))]


def on_both_gf2_paths(monkeypatch, call):
    """``call(0)`` as it runs, and ``call(1)`` with the GF(2) products
    (``poly._fold_gf2``) made by the coefficient path. Each result is the
    value returned or the type of the exception raised."""

    def run(path):
        try:
            return call(path)
        except MonomialOverflowError as exc:
            return type(exc)

    got = run(0)
    with monkeypatch.context() as mp:
        mp.setattr(poly, "_fold_gf2", lambda p, mono, folds: poly._fold_general(p, mono, 1, folds))
        want = run(1)
    return got, want


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_gf2_products_equal_the_coefficient_path(order, monkeypatch):
    """Over GF(2) ``field_term_mul`` and ``field_reduce`` merge folded terms
    by membership. Seeded products give the same terms and fill the same
    fold table as the coefficient path, where terms cancel, where a 2-term
    product is a field polynomial, and past the degree limit."""
    ring = PolyRing(2, ["x", "y", "z"], order)
    codec = ring.codec
    rng = random.Random(order)
    tables: tuple = ({}, {})  # one fold table per path
    cancelled = 0
    for _ in range(300):
        p = ring.poly(
            {tuple(rng.randrange(4) for _ in range(3)): 1 for _ in range(rng.randrange(1, 7))}
        )
        m = codec.pack(tuple(rng.randrange(3) for _ in range(3)))
        got, want = on_both_gf2_paths(monkeypatch, lambda k: field_term_mul(p, m, 1, tables[k]))
        assert got.terms == want.terms
        cancelled += len(got.terms) < len(p.terms)
        got, want = on_both_gf2_paths(monkeypatch, lambda k: field_reduce(p))
        assert got.terms == want.terms == fold_exponents(p).terms
    assert cancelled > 30
    assert tables[0] == tables[1]

    # (x + 1) * x = x^2 + x is kept as the field polynomial
    x1 = ring.variable(0) + ring.one
    got, want = on_both_gf2_paths(monkeypatch, lambda k: field_term_mul(x1, codec.var(0), 1))
    assert got == want == field_polynomial(ring, 0)
    # (x^2 + x) * y folds to 0 on both paths
    fp = field_polynomial(ring, 0)
    got, want = on_both_gf2_paths(monkeypatch, lambda k: field_term_mul(fp, codec.var(1), 1))
    assert got == want == ring.zero

    # past the limit both raise, after memoizing the same valid product
    big = Polynomial(ring, ((codec.var(0), 1), (codec.var(1, codec.limit), 1)))
    if codec.graded:
        big = Polynomial(ring, big.terms[::-1])
    tables = ({}, {})
    got, want = on_both_gf2_paths(
        monkeypatch, lambda k: field_term_mul(big, codec.var(1), 1, tables[k])
    )
    assert got is want is MonomialOverflowError
    assert tables[0] == tables[1]

"""Polynomial arithmetic, reduction, and the field-equation helpers."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from midgb import (
    MonomialOverflowError,
    PolyRing,
    Polynomial,
    field_polynomial,
    field_reduce,
    interreduce,
    normal_form,
    s_polynomial,
)
from midgb.errors import ZeroInputError
from midgb.poly import (
    field_term_mul,
    is_field_polynomial,
    is_univariate,
    substitute,
    univariate_coeffs,
    univariate_roots,
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
    assert substitute(p, 0, 2) == r3.poly({(0, 1): 1, (0, 0): 0})  # 4y+2+1 = y
    assert substitute(p, 1, 0) == r3.poly({(1, 0): 1, (0, 0): 1})


def test_univariate_helpers(r3):
    p = r3.poly({(2, 0): 1, (1, 0): 2, (0, 0): 1})  # x^2 + 2x + 1 = (x+1)^2
    assert is_univariate(p) == 0
    assert univariate_coeffs(p, 0) == [1, 2, 1]
    assert univariate_roots(p, 0) == {2}
    two_roots = r3.poly({(2, 0): 1, (1, 0): 0, (0, 0): 2})  # x^2 + 2 = x^2 - 1
    assert univariate_roots(two_roots, 0) == {1, 2}
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


def test_field_term_mul_is_the_folded_product(r3):
    f = r3.poly({(2, 1): 1, (1, 0): 2, (0, 0): 1})
    for exps in ((0, 0), (1, 0), (2, 2)):
        m = r3.codec.pack(exps)
        assert field_term_mul(f, m, 2) == field_reduce(f.term_mul(m, 2))
    # a product that is a field polynomial is kept, not folded to zero
    g = r3.poly({(2, 0): 1, (0, 0): 2})  # x^2 - 1
    assert field_term_mul(g, r3.codec.var(0), 1) == field_polynomial(r3, 0)

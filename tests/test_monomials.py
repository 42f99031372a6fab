import pytest
from hypothesis import given, strategies as st

from midgb.monomials import (
    ORDER_KEYS,
    grevlex_key,
    lex_key,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mask,
    mono_mul,
    order_cmp,
    total_degree,
)

monos = st.tuples(*([st.integers(min_value=0, max_value=5)] * 3))
# small exponents over more variables, so divisors and mask hits are common
small_monos = st.tuples(*([st.integers(min_value=0, max_value=2)] * 5))


def test_mul_lcm_div_basics():
    a, b = (2, 0, 1), (1, 1, 0)
    assert mono_mul(a, b) == (3, 1, 1)
    assert mono_lcm(a, b) == (2, 1, 1)
    assert mono_div((3, 1, 1), a) == b
    assert mono_div(a, b) is None
    assert mono_divides(b, (1, 2, 0))
    assert not mono_divides((1, 2, 0), b)
    assert total_degree((2, 0, 1)) == 3


def test_coprime():
    assert mono_coprime((2, 0, 0), (0, 3, 1))
    assert not mono_coprime((2, 1, 0), (0, 3, 0))


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        mono_mul((1, 0), (1, 0, 0))


def test_lex_order_prefers_earlier_variables():
    # x > y^2 under lex with x before y
    assert lex_key((1, 0)) > lex_key((0, 2))
    assert order_cmp((1, 0), (0, 2), "lex") > 0


def test_grevlex_order_examples():
    # total degree decides first
    assert grevlex_key((1, 1, 1)) > grevlex_key((2, 0, 0))
    # within a degree, x^2 > x*y (fewer trailing variables wins)
    assert grevlex_key((2, 0, 0)) > grevlex_key((1, 1, 0))
    # degree ties break by *smaller* exponent on the last variable:
    # x*y^3 > x^2*y*z and x^2*z > x*y*z  (classic grevlex facts)
    assert grevlex_key((1, 3, 0)) > grevlex_key((2, 1, 1))
    assert grevlex_key((2, 0, 1)) > grevlex_key((1, 1, 1))


@given(a=monos, b=monos)
def test_orders_are_total_and_consistent(a, b):
    for order in ("lex", "grevlex"):
        c = order_cmp(a, b, order)
        assert (c == 0) == (a == b)
        assert order_cmp(b, a, order) == -c


@given(a=monos, b=monos, c=monos)
def test_orders_respect_multiplication(a, b, c):
    """An admissible order: a < b implies a*c < b*c."""
    for order in ("lex", "grevlex"):
        key = ORDER_KEYS[order]
        if key(a) < key(b):
            assert key(mono_mul(a, c)) < key(mono_mul(b, c))


@given(a=monos, b=monos)
def test_divisibility_implies_order(a, b):
    if mono_divides(a, b):
        for order in ("lex", "grevlex"):
            key = ORDER_KEYS[order]
            assert key(a) <= key(b)


@given(a=monos, b=monos)
def test_lcm_is_an_upper_bound(a, b):
    l = mono_lcm(a, b)
    assert mono_divides(a, l) and mono_divides(b, l)
    assert mono_div(l, a) is not None
    # lcm is the least such bound: dividing out either side leaves the other
    assert mono_mul(a, mono_div(l, a)) == l


def test_mask_marks_occurring_variables():
    assert mono_mask((0, 0, 0)) == 0
    assert mono_mask((2, 0, 1)) == 0b101
    assert mono_mask((0, 3, 0)) == 0b010


@given(a=small_monos, b=small_monos)
def test_mask_never_rejects_a_divisor(a, b):
    if mono_divides(a, b):
        assert mono_mask(a) & ~mono_mask(b) == 0
    assert mono_mask(mono_lcm(a, b)) == mono_mask(a) | mono_mask(b)


@given(lms=st.lists(small_monos, min_size=1, max_size=12), m=small_monos)
def test_mask_filtered_scan_finds_the_first_divisor(lms, m):
    plain = next((i for i, lm in enumerate(lms) if mono_divides(lm, m)), None)
    outside = ~mono_mask(m)
    filtered = next(
        (
            i
            for i, lm in enumerate(lms)
            if not mono_mask(lm) & outside and mono_divides(lm, m)
        ),
        None,
    )
    assert filtered == plain

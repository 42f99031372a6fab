"""Packed monomials: the codec against exponent-tuple arithmetic done here."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from midgb import MonomialOverflowError
from midgb.errors import InvalidSettingError, MidgbError
from midgb.monomials import ExponentIndex, MonomialCodec


# The sort keys the solver used on exponent tuples: the packed int order
# must be exactly theirs.
def lex_key(m):
    return tuple(m)


def grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


KEYS = {"lex": lex_key, "grevlex": grevlex_key}
ORDERS = ("lex", "grevlex")

monos = st.tuples(*([st.integers(min_value=0, max_value=5)] * 3))
# small exponents over more variables, so divisors are common
small_monos = st.tuples(*([st.integers(min_value=0, max_value=2)] * 5))


def codec(order="grevlex", n=3, q=2):
    return MonomialCodec(n, q, order)


def cmp(a, b, order):
    """-1, 0 or 1 as packed a <, ==, > packed b."""
    c = codec(order, len(a))
    pa, pb = c.pack(a), c.pack(b)
    return (pa > pb) - (pa < pb)


def test_mul_lcm_div_basics():
    c = codec()
    a, b = c.pack((2, 0, 1)), c.pack((1, 1, 0))
    assert c.exponents(c.mul(a, b)) == (3, 1, 1)
    assert c.exponents(c.lcm(a, b)) == (2, 1, 1)
    assert c.div(c.pack((3, 1, 1)), a) == b
    assert c.div(a, b) is None
    assert c.div(c.pack((1, 2, 0)), b) is not None
    assert c.div(b, c.pack((1, 2, 0))) is None
    assert c.degree(a) == 3
    assert c.pack((0, 0, 0)) == c.one


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        codec().pack((1, 0))


def test_lex_order_prefers_earlier_variables():
    # x > y^2 under lex with x before y
    assert lex_key((1, 0)) > lex_key((0, 2))
    assert cmp((1, 0), (0, 2), "lex") > 0


def test_grevlex_order_examples():
    examples = [
        ((1, 1, 1), (2, 0, 0)),  # total degree decides first
        ((2, 0, 0), (1, 1, 0)),  # within a degree, x^2 > x*y
        # degree ties break by *smaller* exponent on the last variable:
        # x*y^3 > x^2*y*z and x^2*z > x*y*z  (classic grevlex facts)
        ((1, 3, 0), (2, 1, 1)),
        ((2, 0, 1), (1, 1, 1)),
    ]
    for big, small in examples:
        assert grevlex_key(big) > grevlex_key(small)
        assert cmp(big, small, "grevlex") > 0


@given(a=monos, b=monos)
def test_orders_are_total_and_consistent(a, b):
    for order in ORDERS:
        c = cmp(a, b, order)
        assert (c == 0) == (a == b)
        assert cmp(b, a, order) == -c


@given(a=monos, b=monos, c=monos)
def test_orders_respect_multiplication(a, b, c):
    """An admissible order: a < b implies a*c < b*c."""
    for order in ORDERS:
        k = codec(order)
        pa, pb, pc = k.pack(a), k.pack(b), k.pack(c)
        if pa < pb:
            assert k.mul(pa, pc) < k.mul(pb, pc)


@given(a=monos, b=monos)
def test_divisibility_implies_order(a, b):
    for order in ORDERS:
        k = codec(order)
        pa, pb = k.pack(a), k.pack(b)
        if k.div(pb, pa) is not None:
            assert pa <= pb


@given(a=monos, b=monos)
def test_lcm_is_an_upper_bound(a, b):
    for order in ORDERS:
        k = codec(order)
        pa, pb = k.pack(a), k.pack(b)
        l = k.lcm(pa, pb)
        assert k.div(l, pa) is not None and k.div(l, pb) is not None
        assert k.div(l, pa) is not None
        # lcm is the least such bound: dividing out either side leaves the other
        assert k.mul(pa, k.div(l, pa)) == l


def test_mask_marks_occurring_variables():
    c = codec()
    assert c.support(c.pack((0, 0, 0))) == 0
    assert c.support(c.pack((2, 0, 1))) == 0b101
    assert c.support(c.pack((0, 3, 0))) == 0b010


@given(a=small_monos, b=small_monos)
def test_mask_never_rejects_a_divisor(a, b):
    for order in ORDERS:
        k = codec(order, 5)
        pa, pb = k.pack(a), k.pack(b)
        if k.div(pb, pa) is not None:
            assert k.support(pa) & ~k.support(pb) == 0
        assert k.support(k.lcm(pa, pb)) == k.support(pa) | k.support(pb)


@given(lms=st.lists(small_monos, min_size=1, max_size=12), m=small_monos)
def test_guard_bit_scan_finds_the_first_divisor(lms, m):
    """The reducer scans' test: lm | m iff (m - shift(lm)) & guard == 0."""
    plain = next((i for i, lm in enumerate(lms) if all(map(int.__le__, lm, m))), None)
    for order in ORDERS:
        k = codec(order, 5)
        pm = k.pack(m)
        shifts = [k.shift(k.pack(lm)) for lm in lms]
        packed = next((i for i, s in enumerate(shifts) if not (pm - s) & k.guard), None)
        assert packed == plain
        if packed is not None:
            assert k.exponents(pm - shifts[packed]) == tuple(
                x - y for x, y in zip(m, lms[packed])
            )


def test_field_fold_examples():
    k = MonomialCodec(2, 3, "lex")
    # x^3 -> x, x^4 -> x^2, x^5 -> x under x^3 = x; y^2 stays
    for e, folded in ((3, 1), (4, 2), (5, 1), (2, 2)):
        assert k.exponents(k.fold(k.pack((e, 2)))) == (folded, 2)
    assert not k.foldable(k.pack((2, 2)))
    assert k.foldable(k.pack((0, 3)))


def test_limit_follows_the_width_rule():
    for n, q in ((1, 2), (10, 2), (5, 3), (3, 8589934609)):
        k = MonomialCodec(n, q, "grevlex")
        assert k.limit > 128 * n * q  # room far past the field-equation bound q
        k.pack((k.limit,) + (0,) * (n - 1))
        with pytest.raises(MonomialOverflowError):
            k.pack((k.limit + 1,) + (0,) * (n - 1))


@st.composite
def packed_cases(draw):
    n = draw(st.integers(1, 12))
    q = draw(st.sampled_from([2, 3, 5, 8589934609]))
    order = draw(st.sampled_from(ORDERS))
    k = MonomialCodec(n, q, order)
    # mostly small exponents, sometimes ones near the limit
    top = draw(st.sampled_from([3, 2 * q + 1, k.limit // n]))
    exps = st.tuples(*[st.integers(0, top)] * n)
    return k, draw(exps), draw(exps), draw(st.integers(0, 2 * q + 1))


@settings(max_examples=300, deadline=None)
@given(case=packed_cases())
def test_packed_ops_match_tuple_arithmetic(case):
    k, a, b, bound = case
    q, key = k.q, KEYS[k.order]
    pa, pb = k.pack(a), k.pack(b)
    assert k.exponents(pa) == a and k.exponents(pb) == b
    assert (pa < pb) == (key(a) < key(b)) and (pa == pb) == (a == b)
    assert k.degree(pa) == sum(a)

    prod = tuple(x + y for x, y in zip(a, b))
    if sum(prod) <= k.limit:
        assert k.exponents(k.mul(pa, pb)) == prod
        assert pa + k.shift(pb) == k.mul(pa, pb)
    else:
        with pytest.raises(MonomialOverflowError):
            k.mul(pa, pb)

    divisible = all(x <= y for x, y in zip(b, a))
    assert (k.div(pa, pb) is not None) == divisible
    quot = k.div(pa, pb)
    if divisible:
        assert k.exponents(quot) == tuple(x - y for x, y in zip(a, b))
        assert quot == pa - k.shift(pb)
    else:
        assert quot is None

    lcm = tuple(map(max, a, b))
    if sum(lcm) <= k.limit:
        assert k.exponents(k.lcm(pa, pb)) == lcm

    folded = tuple(e if e < q else (e - 1) % (q - 1) + 1 for e in a)
    assert k.fold(pa) == k.pack(folded)
    assert k.foldable(pa) == (folded != a)
    assert k.exceeds(pa, bound) == any(e > bound for e in a)
    assert k.support(pa) == sum(1 << i for i, e in enumerate(a) if e)
    assert sorted(k.powers(pa)) == [(i, e) for i, e in enumerate(a) if e]
    assert k.coprime(pa, pb) == (not any(x and y for x, y in zip(a, b)))

    chosen = [i for i, e in enumerate(b) if e % 2]  # a subset of the variables
    mask = k.occurs_mask(chosen)
    assert bool((pa ^ k.one) & mask) == any(a[i] for i in chosen)
    assert k.drop(pa, mask) == k.pack([0 if i in chosen else e for i, e in enumerate(a)])


@st.composite
def lcm_batches(draw):
    """A codec, a list of monomials and one more. Each monomial has small
    exponents and may have one large one, up to the limit, so that some
    lcms are past it."""
    n = draw(st.integers(1, 12))
    q = draw(st.sampled_from([2, 3, 5, 8589934609]))
    k = MonomialCodec(n, q, draw(st.sampled_from(ORDERS)))
    small = st.tuples(*[st.integers(0, 3)] * n)
    large = st.tuples(st.integers(0, n - 1), st.sampled_from([0, 2 * q + 1, k.limit - 3 * n]))

    def mono():
        e = list(draw(small))
        i, extra = draw(large)
        e[i] += extra
        return k.pack(e)

    return k, [mono() for _ in range(draw(st.integers(0, 8)))], mono()


@settings(max_examples=300, deadline=None)
@given(batch=lcm_batches())
def test_lcm_is_the_exponentwise_max(batch):
    """Each lcm equals the one of the exponent tuples; one past the limit
    raises."""
    k, ms, b = batch
    for a in ms:
        want = tuple(map(max, k.exponents(a), k.exponents(b)))
        if sum(want) > k.limit:
            with pytest.raises(MonomialOverflowError):
                k.lcm(a, b)
        else:
            assert k.lcm(a, b) == k.pack(want)


@pytest.mark.parametrize("order", ORDERS)
def test_lcm_raises_past_the_limit(order):
    k = codec(order, n=2)
    top = k.var(0, k.limit)
    ms = [k.var(0), k.var(1), top, k.one]
    assert [k.lcm(a, k.var(0, 2)) for a in ms] == [
        k.pack(map(max, k.exponents(a), (2, 0))) for a in ms
    ]
    with pytest.raises(MonomialOverflowError):
        k.lcm(top, k.var(1))
    with pytest.raises(MonomialOverflowError):
        k.lcm(k.var(1), top)


@settings(max_examples=100, deadline=None)
@given(case=packed_cases())
def test_out_of_range_exponent_raises_typed_error(case):
    k, a, _, _ = case
    bad = (k.limit + 1 - sum(a[1:]),) + a[1:]
    with pytest.raises(MonomialOverflowError):
        k.pack(bad)
    with pytest.raises(MonomialOverflowError):
        k.var(0, k.limit + 1)
    with pytest.raises(ValueError):
        k.pack((-1,) + a[1:])


@pytest.mark.parametrize(
    "make",
    [
        lambda: MonomialCodec(3, 2, "revlex"),
        lambda: MonomialCodec(3, 2, "grevlex").pack((1, 0)),
        lambda: MonomialCodec(3, 2, "lex").pack((1, -1, 0)),
    ],
    ids=["unknown-order", "wrong-arity", "negative-exponent"],
)
def test_codec_settings_out_of_range_raise_typed_error(make):
    with pytest.raises(InvalidSettingError) as ei:
        make()
    assert isinstance(ei.value, MidgbError) and isinstance(ei.value, ValueError)


def bit_set(x: int) -> set:
    return {p for p in range(x.bit_length()) if x >> p & 1}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("q", [2, 3, 8589934609])
def test_exponent_index_matches_a_scan_as_it_grows(q, order):
    """``above``, ``least`` and ``supports`` answer what a scan of the
    exponent tuples answers, asked between appends of zero to two
    monomials; exponents repeat, pass q and come near the limit, and the
    unit monomial is appended and asked about."""
    n = 4
    k = MonomialCodec(n, q, order)
    rng = random.Random(q + len(order))
    choices = (0, 0, 1, 2, q, q + 1, k.limit // (2 * n))
    index, exps = ExponentIndex(k), []
    for step in range(60):
        batch = [tuple(rng.choice(choices) for _ in range(n)) for _ in range(rng.randrange(3))]
        if step == 10:
            batch.append((0,) * n)
        index.extend([k.pack(e) for e in batch])
        exps += batch
        assert len(index) == len(exps)
        assert index.supports == [sum(1 << i for i, x in enumerate(e) if x) for e in exps]
        u = tuple(rng.choice(choices) for _ in range(n)) if step % 5 else (0,) * n
        over = index.above(k.powers(k.pack(u)))
        for i in range(n):
            want = {p for p, e in enumerate(exps) if e[i] > u[i]}
            assert bit_set(over[i]) == want
            if want:
                least = min(exps[p][i] for p in want)
                e, tied, reach = index.least(i, over[i])
                assert e == least
                assert bit_set(tied) == {p for p in want if exps[p][i] == least}
                assert bit_set(reach) == {p for p, x in enumerate(exps) if x[i] >= least}

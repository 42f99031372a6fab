"""Unique-root screening, substitution renewal, and the shape checks."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from midgb import (
    EngineConfig,
    PolyRing,
    Status,
    TooLargeError,
    field_polynomial,
    groebner_basis,
)
from midgb.engine import PairQueue, update
from midgb.errors import ConflictingRootsError, OrderNotLexError
from midgb.midsolve import (
    Assignment,
    find_unique_root_polys,
    inconsistency_check,
    renew,
    triangular_shape_check,
)
from midgb.poly import univariate_roots


@pytest.fixture
def r2():
    return PolyRing(2, ["x", "y"], "lex")


@pytest.fixture
def r3():
    return PolyRing(3, ["x", "y"], "lex")


def test_unique_root_found_gf2(r2):
    x = r2.variable(0)
    found = find_unique_root_polys([x + r2.one], round_no=3)
    assert found == [Assignment(variable=0, value=1, round=3)]
    assert find_unique_root_polys([x]) == [Assignment(0, 0, 0)]


def test_two_root_polys_are_skipped(r2):
    # x^2 + x vanishes on all of GF(2): no information
    p = r2.poly({(2, 0): 1, (1, 0): 1})
    assert find_unique_root_polys([p]) == []


def test_rootless_polys_are_skipped(r3):
    # x^2 + 1 has no root over GF(3)
    p = r3.poly({(2, 0): 1, (0, 0): 1})
    assert find_unique_root_polys([p]) == []


def test_double_root_counts_once(r3):
    # (x+1)^2 = x^2 + 2x + 1 forces x = 2
    p = r3.poly({(2, 0): 1, (1, 0): 2, (0, 0): 1})
    assert find_unique_root_polys([p]) == [Assignment(0, 2, 0)]


def test_multivariate_and_zero_members_ignored(r2):
    xy = r2.poly({(1, 1): 1, (0, 0): 1})
    assert find_unique_root_polys([r2.zero, xy, r2.one]) == []


def test_conflicting_roots_raise(r3):
    x = r3.variable(0)
    # x forces 0; x + 1 forces 2
    with pytest.raises(ConflictingRootsError):
        find_unique_root_polys([x, x + r3.one])


def test_same_value_twice_is_fine(r2):
    x = r2.variable(0)
    found = find_unique_root_polys([x, x.scale(1)])
    assert found == [Assignment(0, 0, 0)]


def test_renew_substitutes_and_drops_field_polynomial(r2):
    basis, queue = [], PairQueue()
    x, y = r2.variable(0), r2.variable(1)
    for g in (x + r2.one, x * y + y, field_polynomial(r2, 0), field_polynomial(r2, 1)):
        update(basis, queue, g)
    res = renew(basis, [], Assignment(0, 1, 1))
    assert not res.inconsistent
    remaining = [str(p) for p in res.basis]
    # x+1 -> 0, x*y+y -> 0 (y+y), x^2+x -> dropped as the solved field poly
    assert remaining == ["y^2 + y"]


def test_renew_flags_nonzero_constant(r2):
    basis, queue = [], PairQueue()
    x = r2.variable(0)
    update(basis, queue, x + r2.one)
    update(basis, queue, x)
    res = renew(basis, [], Assignment(0, 1, 1))
    assert res.inconsistent
    assert res.basis == []


def test_renew_substitutes_pending(r2):
    basis, queue = [], PairQueue()
    x, y = r2.variable(0), r2.variable(1)
    update(basis, queue, x + r2.one)
    pending = [x * y + x + y]
    res = renew(basis, pending, Assignment(0, 1, 2))
    # y + 1 + y = 1: the pending member becomes a nonzero constant
    assert res.inconsistent
    assert res.pending == []


def test_inconsistency_check(r2):
    assert inconsistency_check([r2.one])
    assert inconsistency_check([r2.variable(0), r2.constant(1)])
    assert not inconsistency_check([r2.variable(0)])
    assert not inconsistency_check([])


def test_triangular_shape_on_staircase(r2):
    y2y = r2.poly({(0, 2): 1, (0, 1): 1})
    x_y = r2.poly({(1, 0): 1, (0, 1): 1})
    assert triangular_shape_check([y2y, x_y], r2)


def test_triangular_shape_rejects_tangled_basis(r2):
    # one member mixing both variables with nothing univariate below it
    xy1 = r2.poly({(1, 1): 1, (0, 0): 1})
    assert not triangular_shape_check([xy1], r2)


def test_triangular_shape_vacuous_cases(r2):
    assert triangular_shape_check([], r2)
    assert triangular_shape_check([r2.one], r2)


def test_triangular_shape_requires_lex():
    g = PolyRing(2, ["x", "y"], "grevlex")
    with pytest.raises(OrderNotLexError):
        triangular_shape_check([g.one], g)


def test_middle_solving_with_a_prime_past_int64_returns_at_once():
    # screening used to evaluate all q field elements per univariate
    q = 8589934609
    ring = PolyRing(q, ["x", "y"], "grevlex")
    x, y = ring.variable(0), ring.variable(1)
    start = time.perf_counter()
    rep = groebner_basis([x * y + ring.one, x + ring.constant(2)],
                         EngineConfig(ring, adjoin_field_eqs=False))
    assert time.perf_counter() - start < 1.0
    assert rep.status is Status.ALL_VARIABLES_SOLVED
    assert rep.assignments == {0: q - 2, 1: (q + 1) // 2}


def test_field_equations_with_a_prime_past_the_limit_fail_at_once():
    # each pair that involves x^q - x costs O(q) reduction steps, so this
    # system with field equations on used to run without end
    q = 8589934609
    ring = PolyRing(q, ["x", "y"], "grevlex")
    x, y = ring.variable(0), ring.variable(1)
    start = time.perf_counter()
    with pytest.raises(TooLargeError):
        groebner_basis([x * y + ring.one, x + ring.constant(2)], EngineConfig(ring))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("engine", ["f4", "buchberger", "incremental"])
def test_without_field_equations_answers_speak_of_rational_zeros_only(engine):
    # x^3 + 1, xy + y + 1 over GF(2) has no GF(2) zero, but GF(4) zeros
    # (x = y = w and x = y = w^2, w^2 + w + 1 = 0). f4 and buchberger return
    # a basis of the ideal itself; incremental screens x^3 + 1 on its own,
    # fixes its only GF(2) root x = 1, and then reaches 1 = 0.
    ring = PolyRing(2, ["x", "y"], "grevlex")
    x, y = ring.variable(0), ring.variable(1)
    rep = groebner_basis([x * x * x + ring.one, x * y + y + ring.one],
                         EngineConfig(ring, engine=engine, adjoin_field_eqs=False))
    if engine == "incremental":
        assert rep.status is Status.INCONSISTENT
        assert rep.assignments == {0: 1}
    else:
        assert rep.status is Status.GROEBNER_BASIS
        assert [str(p) for p in rep.basis] == ["x + y", "y^2 + y + 1"]
        assert rep.assignments == {}


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5, 7]),
    var=st.integers(0, 1),
    coeffs=st.dictionaries(st.integers(0, 12), st.integers(0, 6), min_size=1, max_size=5),
)
def test_unique_root_agrees_with_exhaustive_search(q, var, coeffs):
    ring = PolyRing(q, ["x", "y"], "lex")
    p = ring.poly(
        ((e, 0) if var == 0 else (0, e), c) for e, c in coeffs.items()
    )
    if p.is_zero or p.is_constant:
        return
    roots = univariate_roots(p, var)
    want = [Assignment(var, min(roots), 0)] if len(roots) == 1 else []
    assert find_unique_root_polys([p]) == want

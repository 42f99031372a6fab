"""Pair queue, update criteria, degree monitor, and config validation."""

import pytest

from midgb import (
    BoundViolationError,
    CriticalPair,
    EmptyQueueError,
    EngineConfig,
    PairQueue,
    PolyRing,
    Status,
    TemporaryBasis,
    ZeroInputError,
    adjoin_field_equations,
    degree_monitor,
    field_polynomial,
    normal_form,
    symbolic_preprocess,
    update,
    update_no_criteria,
)


@pytest.fixture
def ring():
    return PolyRing(2, ["x", "y", "z"], "grevlex")


def test_field_polynomial(ring):
    assert str(field_polynomial(ring, 0)) == "x^2 + x"
    r3 = PolyRing(3, ["x"], "lex")
    assert str(field_polynomial(r3, 0)) == "x^3 + 2*x"


def test_adjoin_field_equations_skips_duplicates(ring):
    fp = field_polynomial(ring, 1)
    out = adjoin_field_equations([fp], ring)
    assert len(out) == 3  # fp kept once, two more added
    assert out[0] == fp
    sub = adjoin_field_equations([], ring, variables=[2])
    assert [str(p) for p in sub] == ["z^2 + z"]


def test_pair_queue_selects_minimal_degree_first(ring):
    q = PairQueue()
    q.add(CriticalPair(0, 1, (2, 1, 0), 3))
    q.add(CriticalPair(0, 2, (1, 1, 0), 2))
    q.add(CriticalPair(1, 2, (0, 1, 1), 2))
    one = q.select(ring, batch=False)
    assert len(one) == 1 and one[0].degree == 2
    # batch selection drains every remaining minimal-degree pair
    rest = q.select(ring, batch=True)
    assert [p.degree for p in rest] == [2]
    assert q.select(ring, batch=True)[0].degree == 3
    with pytest.raises(EmptyQueueError):
        q.select(ring, batch=False)


def test_pair_queue_orders_ties_deterministically(ring):
    q = PairQueue()
    a = CriticalPair(0, 3, (1, 1, 0), 2)
    b = CriticalPair(0, 2, (1, 1, 0), 2)
    q.add(a)
    q.add(b)
    got = q.select(ring, batch=True)
    assert got == [b, a]  # same degree and lcm: lower indices first


def test_update_coprime_pair_is_dropped(ring):
    basis, queue = TemporaryBasis(), PairQueue()
    update(basis, queue, ring.poly({(2, 0, 0): 1, (0, 1, 0): 1}))  # x^2 + y
    update(basis, queue, ring.poly({(0, 0, 2): 1, (0, 1, 0): 1}))  # z^2 + y
    assert len(queue) == 0  # lcm x^2 z^2 with coprime leading monomials


def test_update_generates_pair_for_sharing_monomials(ring):
    basis, queue = TemporaryBasis(), PairQueue()
    update(basis, queue, ring.poly({(2, 1, 0): 1}))  # x^2 y
    update(basis, queue, ring.poly({(1, 2, 0): 1}))  # x y^2
    assert len(queue) == 1


def test_update_equal_lcm_class_keeps_one_new_pair(ring):
    basis, queue = TemporaryBasis(), PairQueue()
    update(basis, queue, ring.poly({(1, 1, 0): 1}))          # x y
    update(basis, queue, ring.poly({(0, 1, 1): 1}))          # y z
    update(basis, queue, ring.poly({(1, 1, 1): 1}))          # x y z
    got = {(pr.left, pr.right) for pr in queue.select(ring, batch=True)}
    # new pairs (0,2) and (1,2) share lcm xyz: only the earliest partner
    # survives; the old pair (0,1) stays because lcm(xy, xyz) equals its lcm
    assert got == {(0, 1), (0, 2)}


def test_update_rejects_zero(ring):
    with pytest.raises(ZeroInputError):
        update(TemporaryBasis(), PairQueue(), ring.zero)
    with pytest.raises(ZeroInputError):
        update_no_criteria(TemporaryBasis(), PairQueue(), ring.zero)


def test_update_no_criteria_queues_everything(ring):
    basis, queue = TemporaryBasis(), PairQueue()
    update_no_criteria(basis, queue, ring.poly({(2, 0, 0): 1, (0, 1, 0): 1}))
    update_no_criteria(basis, queue, ring.poly({(0, 0, 2): 1, (0, 1, 0): 1}))
    assert len(queue) == 1  # even the coprime pair stays


def test_shared_leading_monomial_reduces_with_earlier_member(ring):
    basis = TemporaryBasis()
    p1 = ring.poly({(1, 1, 0): 1, (0, 0, 1): 1})  # x*y + z
    p2 = ring.poly({(1, 1, 0): 1, (0, 1, 0): 1})  # x*y + y
    basis.add(p1)
    basis.add(p2)
    assert len(basis) == 2
    assert list(basis) == [p1, p2]
    xy = ring.poly({(1, 1, 0): 1})
    assert str(normal_form(xy, basis.polys)) == "z"  # p1's tail, not p2's y
    # the reducer row symbolic preprocessing adds for the tail x*y is p1
    g1 = ring.poly({(2, 0, 0): 1, (1, 1, 0): 1})  # x^2 + x*y
    g2 = ring.poly({(2, 0, 0): 1, (0, 0, 1): 1})  # x^2 + z
    pair = CriticalPair(0, 1, ring.codec.pack((2, 0, 0)), 2)
    rows = symbolic_preprocess([pair], [g1, g2, p1, p2], ring, field_active=False)
    assert rows == [g1, g2, p1]


def test_degree_monitor_created_bound(ring):
    # GF(2), n=3: created cap is n(q-1)+1 = 4
    ok = ring.poly({(1, 1, 1): 1, (0, 0, 1): 1})
    degree_monitor(ok, ring, "created")
    too_big = ring.poly({(2, 2, 1): 1})
    with pytest.raises(BoundViolationError) as err:
        degree_monitor(too_big, ring, "created")
    assert err.value.stage == "created"
    # inactive monitor never fires
    degree_monitor(too_big, ring, "created", active=False)


def test_degree_monitor_stored_bound(ring):
    # stored cap n(q-1) = 3 for non-field-polynomials
    degree_monitor(ring.poly({(1, 1, 1): 1}), ring, "stored")
    with pytest.raises(BoundViolationError):
        degree_monitor(ring.poly({(2, 1, 1): 1}), ring, "stored")
    # the field polynomial itself is exempt from the total-degree clause
    degree_monitor(field_polynomial(ring, 0), ring, "stored")


def test_degree_monitor_leading_exponent_cap():
    r3 = PolyRing(3, ["x", "y"], "lex")
    # x^4 passes the stored total-degree cap (4 <= n(q-1) = 4) but its
    # leading exponent exceeds q
    with pytest.raises(BoundViolationError):
        degree_monitor(r3.poly({(4, 0): 1}), r3, "stored")
    # created stage has no per-exponent clause: degree 4 <= n(q-1)+1 = 5
    degree_monitor(r3.poly({(4, 0): 1}), r3, "created")


def test_degree_monitor_unknown_stage(ring):
    with pytest.raises(ValueError):
        degree_monitor(ring.one, ring, "archived")


def test_engine_config_validation(ring):
    with pytest.raises(ValueError):
        EngineConfig(ring, engine="f5")
    with pytest.raises(ValueError):
        EngineConfig(ring, max_rounds=0)
    cfg = EngineConfig(ring)
    assert cfg.engine == "f4" and cfg.middle_solving and cfg.adjoin_field_eqs


def test_status_values():
    assert Status.GROEBNER_BASIS.value == "GroebnerBasis"
    assert Status.ALL_VARIABLES_SOLVED.value == "AllVariablesSolved"
    assert Status.INCONSISTENT.value == "Inconsistent"
    assert Status.ROUND_LIMIT.value == "RoundLimit"

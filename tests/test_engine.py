"""Pair queue, update criteria, degree monitor, and config validation."""

import random

import pytest

from midgb import (
    EngineConfig,
    PolyRing,
    Status,
    TooLargeError,
    adjoin_field_equations,
    field_polynomial,
    normal_form,
)
from midgb.engine import CriticalPair, PairQueue, degree_monitor, update
from midgb.errors import (
    BoundViolationError,
    EmptyQueueError,
    InvalidSettingError,
    MidgbError,
    ZeroInputError,
)
from midgb.f4 import symbolic_preprocess
from midgb.poly import FirstDivisor


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


def test_pair_queue_selects_minimal_degree_first(ring):
    q = PairQueue()
    q.add(CriticalPair(0, 1, (2, 1, 0), 3))
    q.add(CriticalPair(0, 2, (1, 1, 0), 2))
    q.add(CriticalPair(1, 2, (0, 1, 1), 2))
    one = q.select(batch=False)
    assert len(one) == 1 and one[0].degree == 2
    # batch selection drains every remaining minimal-degree pair
    rest = q.select(batch=True)
    assert [p.degree for p in rest] == [2]
    assert q.select(batch=True)[0].degree == 3
    with pytest.raises(EmptyQueueError):
        q.select(batch=False)


def test_pair_queue_orders_ties_deterministically(ring):
    q = PairQueue()
    a = CriticalPair(0, 3, (1, 1, 0), 2)
    b = CriticalPair(0, 2, (1, 1, 0), 2)
    q.add(a)
    q.add(b)
    got = q.select(batch=True)
    assert got == [b, a]  # same degree and lcm: lower indices first


def test_update_coprime_pair_is_dropped(ring):
    basis, queue = [], PairQueue()
    update(basis, queue, ring.poly({(2, 0, 0): 1, (0, 1, 0): 1}))  # x^2 + y
    update(basis, queue, ring.poly({(0, 0, 2): 1, (0, 1, 0): 1}))  # z^2 + y
    assert len(queue) == 0  # lcm x^2 z^2 with coprime leading monomials


def test_update_generates_pair_for_sharing_monomials(ring):
    basis, queue = [], PairQueue()
    update(basis, queue, ring.poly({(2, 1, 0): 1}))  # x^2 y
    update(basis, queue, ring.poly({(1, 2, 0): 1}))  # x y^2
    assert len(queue) == 1


def test_update_equal_lcm_class_keeps_one_new_pair(ring):
    basis, queue = [], PairQueue()
    update(basis, queue, ring.poly({(1, 1, 0): 1}))          # x y
    update(basis, queue, ring.poly({(0, 1, 1): 1}))          # y z
    update(basis, queue, ring.poly({(1, 1, 1): 1}))          # x y z
    got = {(pr.left, pr.right) for pr in queue.select(batch=True)}
    # new pairs (0,2) and (1,2) share lcm xyz: only the earliest partner
    # survives; the old pair (0,1) stays because lcm(xy, xyz) equals its lcm
    assert got == {(0, 1), (0, 2)}


def reference_update(basis: list, queue: PairQueue, h) -> int:
    """The former update, which tests every candidate lcm against every
    other, kept as the reference. Coprimality is decided on exponent tuples."""
    if h.is_zero:
        raise ZeroInputError("cannot insert the zero polynomial")
    codec = h.ring.codec
    lcm, shift, guard = codec.lcm, codec.shift, codec.guard
    lm_h = h.lm()
    h_idx = len(basis)
    basis.append(h)

    # (index, lcm, shift(lcm), coprime); l2 | l iff (l - shift(l2)) & guard == 0
    cands = []
    for g_idx in range(h_idx):
        lm_g = basis[g_idx].lm()
        l = lcm(lm_g, lm_h)
        coprime = not any(a and b for a, b in zip(codec.exponents(lm_g), codec.exponents(lm_h)))
        cands.append((g_idx, l, shift(l), coprime))

    survivors = []
    for i, (g_idx, l, _, coprime) in enumerate(cands):
        if coprime:
            continue  # dominates others below, but never becomes a pair itself
        dominated = False
        for j, (_, l2, s2, _) in enumerate(cands):
            if j == i:
                continue
            if l2 == l:
                if j < i:  # one representative per equal-lcm class
                    dominated = True
                    break
            elif not (l - s2) & guard:
                dominated = True
                break
        if not dominated:
            survivors.append(CriticalPair(g_idx, h_idx, l, codec.degree(l)))

    def keep_old(pr: CriticalPair) -> bool:
        if codec.div(pr.lcm, lm_h) is None:
            return True
        if lcm(basis[pr.left].lm(), lm_h) == pr.lcm:
            return True
        if lcm(basis[pr.right].lm(), lm_h) == pr.lcm:
            return True
        return False

    queue.pairs = [pr for pr in queue.pairs if keep_old(pr)]
    for pr in survivors:
        queue.add(pr)
    return h_idx


@pytest.mark.parametrize("order", ["lex", "grevlex"])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_update_matches_quadratic_reference(q, order):
    """Random leading-monomial streams, with repeated heads, the unit monomial
    and x^q heads; pairs are drained now and then as a run would."""
    ring = PolyRing(q, ["x", "y", "z", "w"], order)
    rng = random.Random(q * 10 + len(order))
    for _ in range(6):
        got_basis, got_queue = [], PairQueue()
        ref_basis, ref_queue = [], PairQueue()
        heads = []
        for _ in range(45):
            roll = rng.random()
            if heads and roll < 0.15:
                exps = rng.choice(heads)
            elif roll < 0.2:
                exps = (0, 0, 0, 0)
            elif roll < 0.3:
                v = rng.randrange(4)
                exps = tuple(q if i == v else 0 for i in range(4))
            else:
                exps = tuple(rng.choice((0, 0, 1, 1, 2, q)) for _ in range(4))
            heads.append(exps)
            h = ring.poly({exps: 1})
            assert update(got_basis, got_queue, h) == reference_update(ref_basis, ref_queue, h)
            assert got_queue.pairs == ref_queue.pairs
            if got_queue and rng.random() < 0.2:
                batch = rng.random() < 0.5
                assert got_queue.select(batch) == ref_queue.select(batch)


def test_update_rejects_zero(ring):
    with pytest.raises(ZeroInputError):
        update([], PairQueue(), ring.zero)


def test_shared_leading_monomial_reduces_with_earlier_member(ring):
    p1 = ring.poly({(1, 1, 0): 1, (0, 0, 1): 1})  # x*y + z
    p2 = ring.poly({(1, 1, 0): 1, (0, 1, 0): 1})  # x*y + y
    basis, queue = [], PairQueue()
    assert update(basis, queue, p1) == 0
    assert update(basis, queue, p2) == 1
    assert basis == [p1, p2]
    xy = ring.poly({(1, 1, 0): 1})
    assert str(normal_form(xy, basis)) == "z"  # p1's tail, not p2's y
    # the reducer row symbolic preprocessing adds for the tail x*y is p1
    g1 = ring.poly({(2, 0, 0): 1, (1, 1, 0): 1})  # x^2 + x*y
    g2 = ring.poly({(2, 0, 0): 1, (0, 0, 1): 1})  # x^2 + z
    pair = CriticalPair(0, 1, ring.codec.pack((2, 0, 0)), 2)
    rows = symbolic_preprocess([pair], FirstDivisor([g1, g2, p1, p2], ring, False))
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
    # field equations stop at q = 2^16; 65521 is the largest prime below it
    EngineConfig(PolyRing(65521, ["x"], "grevlex"))
    big = PolyRing(65537, ["x"], "grevlex")
    with pytest.raises(TooLargeError):
        EngineConfig(big)
    EngineConfig(big, adjoin_field_eqs=False)


@pytest.mark.parametrize(
    "options",
    [{"engine": "f5"}, {"max_rounds": 0}],
    ids=["unknown-engine", "max-rounds-below-one"],
)
def test_engine_config_out_of_range_raises_typed_error(ring, options):
    with pytest.raises(InvalidSettingError) as ei:
        EngineConfig(ring, **options)
    assert isinstance(ei.value, MidgbError) and isinstance(ei.value, ValueError)


def test_status_values():
    assert Status.GROEBNER_BASIS.value == "GroebnerBasis"
    assert Status.ALL_VARIABLES_SOLVED.value == "AllVariablesSolved"
    assert Status.INCONSISTENT.value == "Inconsistent"
    assert Status.ROUND_LIMIT.value == "RoundLimit"

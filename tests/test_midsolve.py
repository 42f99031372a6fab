"""Unique-root screening, substitution renewal, and the end of a round."""

import itertools
import random
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
from midgb import runner
from midgb.bench import random_system
from midgb.engine import PairQueue, RoundTrace, SolveEvent, adjoin_field_equations, update
from midgb.errors import ConflictingRootsError
from midgb.midsolve import find_unique_root_polys, inconsistency_check, renew
from midgb.runner import RunState
from midgb.trace import TraceWriter


@pytest.fixture
def r2():
    return PolyRing(2, ["x", "y"], "lex")


@pytest.fixture
def r3():
    return PolyRing(3, ["x", "y"], "lex")


def test_unique_root_found_gf2(r2):
    x = r2.variable(0)
    assert find_unique_root_polys([x + r2.one]) == {0: 1}
    assert find_unique_root_polys([x]) == {0: 0}


def test_two_root_polys_are_skipped(r2):
    # x^2 + x vanishes on all of GF(2): no information
    p = r2.poly({(2, 0): 1, (1, 0): 1})
    assert find_unique_root_polys([p]) == {}


def test_rootless_polys_are_skipped(r3):
    # x^2 + 1 has no root over GF(3)
    p = r3.poly({(2, 0): 1, (0, 0): 1})
    assert find_unique_root_polys([p]) == {}


def test_double_root_counts_once(r3):
    # (x+1)^2 = x^2 + 2x + 1 forces x = 2
    p = r3.poly({(2, 0): 1, (1, 0): 2, (0, 0): 1})
    assert find_unique_root_polys([p]) == {0: 2}


def test_multivariate_and_zero_members_ignored(r2):
    xy = r2.poly({(1, 1): 1, (0, 0): 1})
    assert find_unique_root_polys([r2.zero, xy, r2.one]) == {}


def test_conflicting_roots_raise(r3):
    x = r3.variable(0)
    # x forces 0; x + 1 forces 2
    with pytest.raises(ConflictingRootsError):
        find_unique_root_polys([x, x + r3.one])


def test_same_value_twice_is_fine(r2):
    x = r2.variable(0)
    assert find_unique_root_polys([x, x.scale(1)]) == {0: 0}


def test_renew_substitutes_and_drops_field_polynomial(r2):
    x, y = r2.variable(0), r2.variable(1)
    basis = [x + r2.one, x * y + y, field_polynomial(r2, 0), field_polynomial(r2, 1)]
    res = renew(basis, [], {0: 1})
    assert not res.inconsistent
    remaining = [str(p) for p in res.basis]
    # x+1 -> 0, x*y+y -> 0 (y+y), x^2+x -> dropped as the solved field poly
    assert remaining == ["y^2 + y"]


def test_renew_flags_nonzero_constant(r2):
    x = r2.variable(0)
    res = renew([x + r2.one, x], [], {0: 1})
    assert res.inconsistent
    assert res.basis == []


def test_renew_substitutes_pending(r2):
    x, y = r2.variable(0), r2.variable(1)
    pending = [x * y + x + y]
    res = renew([x + r2.one], pending, {0: 1})
    # y + 1 + y = 1: the pending member becomes a nonzero constant
    assert res.inconsistent
    assert res.pending == []


def test_replacing_the_basis_gives_fresh_reducer_lookups(r2):
    """The reducer lookups over ``RunState.basis`` live as long as that list.
    Appends keep them; a renew or a completion that replaces the list gets
    new ones, which answer for the new list."""
    x, y = r2.variable(0), r2.variable(1)
    div = r2.codec.div

    def scan(basis, m):
        return next((i for i, g in enumerate(basis) if div(m, g.lm()) is not None), None)

    state = RunState(EngineConfig(ring=r2), TraceWriter())
    state.ingest_inputs(adjoin_field_equations([x * y + y], r2))
    xy, lx = (x * y).lm(), x.lm()
    lookups = state.divisors
    assert lookups.members is state.basis
    assert lookups.index(xy) == 0
    assert lookups.index(lx) is None
    update(state.divisors, state.queue, x + r2.one)  # an append keeps the lookups
    assert state.divisors is lookups
    assert lookups.index(lx) == scan(state.basis, lx) == 3

    # x = 1: the screen finds it, and a renew replaces the basis
    assert state.screen([x + r2.one], []) == (True, [])
    assert state.divisors is not lookups
    assert state.divisors.members is state.basis
    assert [str(g) for g in state.basis] == ["y^2 + y"]
    assert state.divisors.index(xy) is None

    lookups = state.divisors
    state.queue = PairQueue()
    state.completion()
    assert state.divisors is not lookups
    assert state.divisors.members is state.basis


def test_absorb_screens_inserts_and_counts_a_batch(r2):
    """``RunState.absorb`` ends a batch engine's round: it screens a reduced
    batch when middle solving is on, inserts what is left and counts it in
    the round's trace, then checks the whole basis for a constant."""
    x, y = r2.variable(0), r2.variable(1)
    batch = [x * y + r2.one, y + r2.one]  # normal forms, descending

    def state(middle_solving):
        st = RunState(EngineConfig(r2, middle_solving=middle_solving), TraceWriter())
        st.ingest_inputs(adjoin_field_equations([], r2))
        st.round_no = 1
        return st

    off = state(False)
    tr = off.absorb(list(batch), RoundTrace(round=1))
    assert (tr.new_polys, tr.max_poly_degree) == (2, 2)
    assert off.basis[2:] == batch
    assert off.events == []

    # y + 1 forces y = 1; the renew drops y^2 + y and turns x*y + 1 into x + 1
    on = state(True)
    tr = on.absorb(list(batch), RoundTrace(round=1))
    assert on.events == [SolveEvent(1, 1, 1)]
    assert [str(g) for g in on.basis] == ["x^2 + x", "x + 1"]
    assert (tr.new_polys, tr.max_poly_degree) == (1, 1)
    assert not on.inconsistent

    for middle_solving in (False, True):
        st = state(middle_solving)
        tr = st.absorb([r2.one], RoundTrace(round=1))
        assert tr.new_polys == 1  # the unit is inserted either way
        assert st.inconsistent is middle_solving


# (linear, constant) coefficients of a quadratic x^2 + a*x + c with no root in GF(q)
ROOTLESS = {2: (1, 1), 3: (0, 1), 5: (0, 2), 7: (0, 1)}


def settle_system(q, order, seed, kind):
    """n + 1 random quadrics in n variables, n = 4 for q = 2 else 3.

    A "planted" system has a random point as a common zero; a "rootless" one
    adds to that a quadratic in x1 with no root in GF(q), so it has none.
    """
    rng = random.Random(f"settle-{q}-{seed}")
    n = 4 if q == 2 else 3
    ring = PolyRing(q, [f"x{i}" for i in range(1, n + 1)], order)
    polys = random_system(ring, n + 1, 2, rng, max_terms=5)
    if kind != "unplanted":
        point = [rng.randrange(q) for _ in range(n)]
        polys = [p - ring.constant(p.evaluate(point)) for p in polys]
    if kind == "rootless":
        a, c = ROOTLESS[q]
        x1 = ring.variable(0)
        polys.append(x1 * x1 + x1.scale(a) + ring.constant(c))
    return ring, polys


def reference_screen(state, source, pending):
    """``RunState.screen`` with one renew per value, as it was before the
    joint renew: the reference the joint renew is held to. Each renewed
    basis is paired afresh through ``RunState.store``."""
    try:
        found = find_unique_root_polys(source)
    except ConflictingRootsError:
        state.mark_inconsistent()
        return True, []
    for variable, value in found.items():
        if state.inconsistent:
            break
        state.emit(variable, value)
        res = renew(state.basis, pending, {variable: value})
        state.basis, state.queue, pending = [], PairQueue(), res.pending
        for g in res.basis:
            state.store(g)
        if res.inconsistent:
            state.mark_inconsistent()
    return bool(found), pending


def random_system_case(seed):
    """A random system over GF(q), q in {2, 3, 5, 7}: n to n + 2 quadrics in
    2-5 variables with a planted zero, and in about half of the cases a
    quadratic with no root in GF(q), so no zero at all."""
    rng = random.Random(f"joint-{seed}")
    q = rng.choice((2, 3, 5, 7))
    n = rng.randint(2, 5 if q == 2 else 4)
    ring = PolyRing(q, [f"x{i}" for i in range(1, n + 1)], rng.choice(("grevlex", "lex")))
    polys = random_system(ring, n + rng.randint(0, 2), 2, rng, max_terms=rng.randint(2, 6))
    point = [rng.randrange(q) for _ in range(n)]
    polys = [p - ring.constant(p.evaluate(point)) for p in polys]
    if rng.random() < 0.5:
        a, c = ROOTLESS[q]
        x = ring.variable(rng.randrange(n))
        polys.insert(rng.randrange(len(polys) + 1), x * x + x.scale(a) + ring.constant(c))
    engine = rng.choice(("f4", "buchberger", "incremental"))
    return ring, polys, engine, rng.random() < 0.8


def test_joint_renew_runs_as_one_renew_per_value(monkeypatch, tmp_path):
    """A screen renews once with all its values, and replays a renew per
    value only where that meets a constant. Over ``settle_system``'s grid
    and seeded random systems, trace and report equal those of
    ``reference_screen``."""
    screen, joint_renew = RunState.screen, runner.renew
    sizes, reached = [], set()

    def counted_renew(basis, pending, values):
        sizes.append(len(values))
        return joint_renew(basis, pending, values)

    def spied_screen(state, source, pending):
        start = len(sizes)
        out = screen(state, source, pending)
        made = sizes[start:]
        if made and made[0] > 1:
            if len(made) > 1:
                reached.add("replay")
            elif state.all_solved():
                reached.add("fixes every variable")
            else:
                reached.add("several values, consistent")
        return out

    def run(ring, polys, engine, field_eqs, path):
        rep = groebner_basis(polys, EngineConfig(
            ring, engine=engine, adjoin_field_eqs=field_eqs, trace_path=path
        ))
        summary = (rep.status, [str(p) for p in rep.basis], rep.assignments, rep.events)
        return path.read_bytes(), summary

    grid = [
        (*settle_system(q, order, seed, kind), engine, field_eqs)
        for q, order, seed, kind, engine, field_eqs in itertools.product(
            (2, 3, 5, 7), ("grevlex", "lex"), range(2), ("planted", "unplanted", "rootless"),
            ("f4", "buchberger", "incremental"), (True, False),
        )
    ]
    for case in grid + [random_system_case(seed) for seed in range(300)]:
        monkeypatch.setattr(runner, "renew", counted_renew)
        monkeypatch.setattr(RunState, "screen", spied_screen)
        got = run(*case, tmp_path / "joint.trace")
        monkeypatch.setattr(RunState, "screen", reference_screen)
        want = run(*case, tmp_path / "reference.trace")
        assert got == want, case
    assert reached == {"replay", "fixes every variable", "several values, consistent"}


def test_screen_that_fixes_every_variable_off_the_zero_set_falls_back(tmp_path):
    """Over GF(3), y^2 + 1 has no root, and round 1 fixes x = y = 0, which is
    no zero of it. So the joint renew meets a constant, and the screen
    replays one renew per value: x = 0 turns 2xy + 2 into 2 and the run
    ends Inconsistent before y = 0 is ever emitted."""
    ring = PolyRing(3, ["x", "y"], "grevlex")
    polys = [ring.poly({(0, 2): 1, (0, 0): 1}), ring.poly({(1, 1): 2, (0, 0): 2})]
    path = tmp_path / "run.trace"
    rep = groebner_basis(polys, EngineConfig(ring, trace_path=path))
    assert rep.status is Status.INCONSISTENT
    assert rep.assignments == {0: 0}
    # the trace the per-value renews wrote
    assert path.read_text().splitlines() == [
        '{"kind":"solved","round":1,"var":"x","value":0}',
        '{"kind":"inconsistent","round":1,"var":null,"value":null}',
        '{"round":1,"pairs_selected":2,"new_polys":0,"matrix_rows":4,"matrix_cols":4,'
        '"zero_rows":0,"max_degree":0,"events":[{"kind":"solved","var":"x","value":0},'
        '{"kind":"inconsistent","var":null,"value":null}],"solved_total":1}',
        '{"status":"Inconsistent","assignments":{"x":0},"basis":["1"],'
        '"total_rounds":1,"engine":"f4"}',
    ]


def test_inconsistency_check(r2):
    assert inconsistency_check([r2.one])
    assert inconsistency_check([r2.variable(0), r2.constant(1)])
    assert not inconsistency_check([r2.variable(0)])
    assert not inconsistency_check([])


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
    order=st.sampled_from(["lex", "grevlex"]),
    var=st.integers(0, 1),
    coeffs=st.dictionaries(st.integers(0, 12), st.integers(0, 6), min_size=1, max_size=5),
)
def test_unique_root_agrees_with_exhaustive_search(q, order, var, coeffs):
    ring = PolyRing(q, ["x", "y"], order)
    p = ring.poly(
        ((e, 0) if var == 0 else (0, e), c) for e, c in coeffs.items()
    )
    if p.is_zero or p.is_constant:
        return
    roots = [a for a in range(q) if p.evaluate((a, 0) if var == 0 else (0, a)) == 0]
    want = {var: roots[0]} if len(roots) == 1 else {}
    assert find_unique_root_polys([p]) == want

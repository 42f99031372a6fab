"""What the batch rounds hand on: the candidates that reach
``RunState.insert_new``, the pair sides that symbolic preprocessing passes
over, and the one step through which every basis member is stored."""

import importlib
import itertools
import pkgutil
import sys
from collections import Counter

import midgb
from midgb import EngineConfig, groebner_basis
from midgb import engine, f4, runner
from midgb.poly import FirstDivisor
from midgb.runner import RunState
from test_golden_traces import seeded_system


def seeded_runs():
    """(ring, polys, config options): seeded systems over q in {2, 3, 5, 7},
    both orders, all three engines, and middle solving and field equations
    each on and off."""
    for q, order, seed, planted in itertools.product(
        (2, 3, 5, 7), ("grevlex", "lex"), range(2), (True, False)
    ):
        ring, polys = seeded_system(q, order, seed, planted)
        for engine, ms, fe in itertools.product(
            ("f4", "buchberger", "incremental"), (True, False), (True, False)
        ):
            yield ring, polys, dict(engine=engine, middle_solving=ms, adjoin_field_eqs=fe)


def run_all():
    for ring, polys, options in seeded_runs():
        groebner_basis(polys, EngineConfig(ring, **options))


def test_fresh_candidates_arrive_canonical(monkeypatch):
    """A candidate that no screen has made stale is stored as it arrives, so
    it must already be monic and folded: its own ``canon``."""
    insert_new = RunState.insert_new
    count = Counter()

    def checked(state, h, stale):
        if not stale:
            assert state.canon(h) == h, (state.config.engine, h)
        count[state.config.engine, stale] += 1
        return insert_new(state, h, stale)

    monkeypatch.setattr(RunState, "insert_new", checked)
    run_all()
    for engine in ("f4", "buchberger", "incremental"):
        assert count[engine, False], count
    assert count["f4", True], count  # the stale path runs too


def test_skipped_pair_sides_fold_to_zero(monkeypatch):
    """Every pair side that ``symbolic_preprocess`` forms no product for,
    other than a repeat of a side already formed, has a product that folds
    to zero. Sides are skipped only with field equations on."""
    preprocess, close, multiple = f4.symbolic_preprocess, f4._close, f4._multiple
    formed: set = set()  # (member, quotient) of the current call's pair sides
    closing = []
    count = Counter()

    def spied_multiple(g, quot, first):
        if not closing:
            formed.add((id(g), quot))
        return multiple(g, quot, first)

    def spied_close(*args):
        closing.append(True)
        try:
            close(*args)
        finally:
            closing.pop()

    def checked(pairs, first):
        basis, ring, field_active = first.members, first.ring, first.field_active
        formed.clear()
        rows = preprocess(pairs, first)
        for pr in pairs:
            for idx in (pr.left, pr.right):
                g = basis[idx]
                quot = ring.codec.div(pr.lcm, g.lm())
                if (id(g), quot) in formed:
                    continue
                assert field_active, (g, quot)
                assert multiple(g, quot, FirstDivisor([], ring, True)).is_zero, (g, quot)
                count[ring.q] += 1
        return rows

    monkeypatch.setattr(f4, "_multiple", spied_multiple)
    monkeypatch.setattr(f4, "_close", spied_close)
    monkeypatch.setattr(f4, "symbolic_preprocess", checked)
    run_all()
    assert set(count) == {2, 3, 5, 7}, count


def test_store_is_the_one_caller_of_update(monkeypatch):
    """``engine.update`` is called from ``RunState.store`` alone, and no
    module of the package but ``engine`` and ``runner`` binds it."""
    update = engine.update
    binders = [
        info.name
        for info in pkgutil.iter_modules(midgb.__path__)
        if info.name != "__main__"
        and any(v is update for v in vars(importlib.import_module(f"midgb.{info.name}")).values())
    ]
    assert sorted(binders) == ["engine", "runner"]
    callers = Counter()

    def spied(first, queue, h):
        callers[sys._getframe(1).f_code] += 1
        return update(first, queue, h)

    monkeypatch.setattr(runner, "update", spied)
    run_all()
    assert set(callers) == {RunState.store.__code__}, callers


def test_renewed_members_pass_the_stored_degree_monitor(monkeypatch):
    """A screen that renews stores each renewed member, in renew's order,
    through ``degree_monitor(..., "stored", ...)``, and the basis is those
    members alone."""
    screen, renew, monitor = RunState.screen, runner.renew, runner.degree_monitor
    renewed, stored = [], []
    count = Counter()

    def spied_renew(*args):
        res = renew(*args)
        renewed.append(res.basis)
        return res

    def spied_monitor(p, ring, stage, active=True):
        if stage == "stored":
            stored.append(p)
        return monitor(p, ring, stage, active)

    def spied_screen(state, source, pending):
        renewed.clear()
        stored.clear()
        out = screen(state, source, pending)
        if renewed:
            assert stored == renewed[-1] == state.basis
            count[state.field_active] += len(stored)
        return out

    monkeypatch.setattr(runner, "renew", spied_renew)
    monkeypatch.setattr(runner, "degree_monitor", spied_monitor)
    monkeypatch.setattr(RunState, "screen", spied_screen)
    run_all()
    assert count[True] and count[False], count

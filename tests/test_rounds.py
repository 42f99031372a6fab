"""What the batch rounds hand on: the candidates that reach
``RunState.insert_new``, and the pair sides that symbolic preprocessing
passes over."""

import itertools
from collections import Counter

from midgb import EngineConfig, groebner_basis
from midgb import f4
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

    def spied_multiple(g, quot, field_active, folds):
        if not closing:
            formed.add((id(g), quot))
        return multiple(g, quot, field_active, folds)

    def spied_close(*args):
        closing.append(True)
        try:
            close(*args)
        finally:
            closing.pop()

    def checked(pairs, basis, ring, *, field_active=True, first=None):
        formed.clear()
        rows = preprocess(pairs, basis, ring, field_active=field_active, first=first)
        for pr in pairs:
            for idx in (pr.left, pr.right):
                g = basis[idx]
                quot = ring.codec.div(pr.lcm, g.lm())
                if (id(g), quot) in formed:
                    continue
                assert field_active, (g, quot)
                assert multiple(g, quot, True, {}).is_zero, (g, quot)
                count[ring.q] += 1
        return rows

    monkeypatch.setattr(f4, "_multiple", spied_multiple)
    monkeypatch.setattr(f4, "_close", spied_close)
    monkeypatch.setattr(f4, "symbolic_preprocess", checked)
    run_all()
    assert set(count) == {2, 3, 5, 7}, count

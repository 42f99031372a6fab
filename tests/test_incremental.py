"""One-input-per-round runs and their agreement with the batch engine."""

import random

import pytest

from midgb import EngineConfig, PolyRing, Status, groebner_basis, interreduce
from midgb import runner
from midgb.bench import random_system
from midgb.engine import update


def test_solves_early_inputs_before_reading_later_ones():
    ring = PolyRing(2, ["x", "y"], "grevlex")
    x, y = ring.variable(0), ring.variable(1)
    rep = groebner_basis([x + ring.one, x + y],
                         EngineConfig(ring, engine="incremental"))
    assert rep.status is Status.ALL_VARIABLES_SOLVED
    # x falls out of round 1 alone; y needs the second input
    assert [(e.round, e.variable, e.value) for e in rep.events] == [
        (1, 0, 1), (2, 1, 1)
    ]


def test_later_input_contradicts_leaked_assignment():
    ring = PolyRing(2, ["x"], "grevlex")
    x = ring.variable(0)
    rep = groebner_basis([x + ring.one, x],
                         EngineConfig(ring, engine="incremental"))
    assert rep.status is Status.INCONSISTENT
    # the x=1 event emitted in round 1 survives in the report
    assert [(e.round, e.variable, e.value) for e in rep.events] == [(1, 0, 1)]
    assert [str(p) for p in rep.basis] == ["1"]


def test_round_trace_counts_inputs():
    ring = PolyRing(2, ["x", "y"], "grevlex")
    x, y = ring.variable(0), ring.variable(1)
    rep = groebner_basis([x * y + x, y],
                         EngineConfig(ring, engine="incremental",
                                      middle_solving=False))
    assert [tr.round for tr in rep.rounds] == [1, 2]
    assert all(tr.pairs_selected == 0 for tr in rep.rounds)
    assert rep.rounds[0].solved_total is None  # screening off


def test_solved_total_in_round_trace():
    ring = PolyRing(2, ["x", "y"], "grevlex")
    x, y = ring.variable(0), ring.variable(1)
    rep = groebner_basis([x + ring.one, y],
                         EngineConfig(ring, engine="incremental"))
    assert [tr.solved_total for tr in rep.rounds] == [1, 2]


def test_round_limit_counts_inputs():
    ring = PolyRing(2, ["x", "y", "z"], "grevlex")
    F = random_system(ring, 5, 2, random.Random(3))
    cfg = EngineConfig(ring, engine="incremental", middle_solving=False,
                       max_rounds=2)
    rep = groebner_basis(F, cfg)
    assert rep.status is Status.ROUND_LIMIT
    assert rep.total_rounds == 2


def test_inputs_extend_one_persistent_basis(monkeypatch):
    # a restart per input would insert the basis so far again each round
    ring = PolyRing(2, ["x", "y", "z"], "grevlex")
    x, y, z = (ring.variable(i) for i in range(3))
    inserted = []

    def spy(basis, queue, h):
        inserted.append(str(h))
        return update(basis, queue, h)

    monkeypatch.setattr(runner, "update", spy)
    rep = groebner_basis([x * y + z, y * z + x, x * z + y],
                         EngineConfig(ring, engine="incremental",
                                      middle_solving=False))
    assert rep.total_rounds == 3
    assert all(tr.new_polys for tr in rep.rounds)
    assert len(inserted) == len(set(inserted))


@pytest.mark.parametrize("batch", ["f4", "buchberger"])
@pytest.mark.parametrize("seed", [2, 9, 21])
def test_matches_batch_engine(batch, seed):
    q = 3 if seed == 9 else 2
    ring = PolyRing(q, ["x1", "x2", "x3", "x4"], "grevlex")
    F = random_system(ring, 5, 3, random.Random(seed))
    rep_inc = groebner_basis(F, EngineConfig(ring, engine="incremental"))
    rep_batch = groebner_basis(F, EngineConfig(ring, engine=batch))
    assert rep_inc.status is rep_batch.status
    assert sorted(str(p) for p in interreduce(rep_inc.basis)) == sorted(
        str(p) for p in interreduce(rep_batch.basis))
    if rep_batch.status is not Status.INCONSISTENT:
        assert rep_inc.assignments == rep_batch.assignments


def test_dispatch_via_groebner_basis():
    ring = PolyRing(2, ["x", "y"], "lex")
    x, y = ring.variable(0), ring.variable(1)
    rep = groebner_basis([x + y], EngineConfig(ring, engine="incremental"))
    assert rep.engine == "incremental"

"""End-to-end runs of the pair-at-a-time engine."""

import random

import pytest

from midgb import (
    EngineConfig,
    PolyRing,
    Status,
    groebner_basis,
    interreduce,
    normal_form,
    s_polynomial,
)
from midgb.bench import random_system


def spoly_test(basis):
    """The classical certificate: every pairwise S-polynomial reduces to 0."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero:
                return False
    return True


def test_two_generators_lex():
    ring = PolyRing(2, ["x", "y"], "lex")
    F = [ring.poly({(1, 0): 1, (0, 1): 1}), ring.poly({(0, 2): 1, (0, 1): 1})]
    cfg = EngineConfig(ring, engine="buchberger", middle_solving=False,
                       adjoin_field_eqs=False)
    rep = groebner_basis(F, cfg)
    assert rep.status is Status.GROEBNER_BASIS
    assert [str(p) for p in rep.basis] == ["y^2 + y", "x + y"]


def test_empty_input_yields_field_equations():
    ring = PolyRing(2, ["x"], "lex")
    rep = groebner_basis([], EngineConfig(ring, engine="buchberger"))
    assert rep.status is Status.GROEBNER_BASIS
    assert [str(p) for p in rep.basis] == ["x^2 + x"]


def test_contradictory_generators():
    ring = PolyRing(2, ["x"], "lex")
    x = ring.variable(0)
    cfg = EngineConfig(ring, engine="buchberger", middle_solving=False)
    rep = groebner_basis([x, x + ring.one], cfg)
    assert rep.status is Status.GROEBNER_BASIS
    assert [str(p) for p in rep.basis] == ["1"]

    cfg_ms = EngineConfig(ring, engine="buchberger", middle_solving=True)
    rep_ms = groebner_basis([x, x + ring.one], cfg_ms)
    assert rep_ms.status is Status.INCONSISTENT
    assert [str(p) for p in rep_ms.basis] == ["1"]


def test_middle_solving_emits_events():
    ring = PolyRing(2, ["x", "y"], "grevlex")
    x, y = ring.variable(0), ring.variable(1)
    rep = groebner_basis([x + ring.one, x + y],
                         EngineConfig(ring, engine="buchberger"))
    assert rep.status is Status.ALL_VARIABLES_SOLVED
    assert rep.assignments == {0: 1, 1: 1}


def test_round_limit_snapshot():
    ring = PolyRing(2, [f"x{i}" for i in range(4)], "grevlex")
    F = random_system(ring, 4, 3, random.Random(7))
    cfg = EngineConfig(ring, engine="buchberger", middle_solving=False,
                       max_rounds=2)
    rep = groebner_basis(F, cfg)
    assert rep.status is Status.ROUND_LIMIT
    assert rep.total_rounds == 2
    assert rep.basis  # honest snapshot, not emptied


@pytest.mark.parametrize("seed", [1, 2, 5, 11])
def test_output_is_a_groebner_basis(seed):
    q = 3 if seed % 2 else 2
    ring = PolyRing(q, ["x1", "x2", "x3"], "grevlex")
    F = random_system(ring, 4, 3, random.Random(seed))
    cfg = EngineConfig(ring, engine="buchberger", middle_solving=False)
    rep = groebner_basis(F, cfg)
    assert rep.status is Status.GROEBNER_BASIS
    assert spoly_test(rep.basis)
    for f in F:
        assert normal_form(f, rep.basis).is_zero


@pytest.mark.parametrize("seed", [3, 8, 13])
def test_matches_f4(seed):
    ring = PolyRing(2, ["x1", "x2", "x3", "x4"], "lex")
    F = random_system(ring, 5, 3, random.Random(seed))
    out = {}
    for eng in ("buchberger", "f4"):
        cfg = EngineConfig(ring, engine=eng, middle_solving=False)
        out[eng] = sorted(str(p) for p in interreduce(groebner_basis(F, cfg).basis))
    assert out["buchberger"] == out["f4"]

"""Benchmark generators and the exhaustive-search oracle."""

import itertools
import random

import pytest

from midgb import (
    BenchSpec,
    EngineConfig,
    PolyRing,
    Status,
    TooLargeError,
    brute_force_solutions,
    gen_system,
    groebner_basis,
    solutions_from_report,
)
from midgb.bench import random_system, solutions_from_lex_basis
from midgb.errors import InvalidSizeError, OrderNotLexError


def test_cyclic_3():
    ring, F = gen_system(BenchSpec("cyclic", 3), order="grevlex")
    assert ring.names == ("x1", "x2", "x3")
    assert [str(f) for f in F] == [
        "x1 + x2 + x3",
        "x1*x2 + x1*x3 + x2*x3",
        "x1*x2*x3 + 1",
    ]


def test_katsura_2_gf3():
    ring, F = gen_system(BenchSpec("katsura", 2, q=3), order="grevlex")
    assert ring.names == ("u0", "u1", "u2")
    assert [str(f) for f in F] == [
        "u0 + 2*u1 + 2*u2 + 2",
        "u0^2 + 2*u1^2 + 2*u2^2 + 2*u0",
        "2*u0*u1 + 2*u1*u2 + 2*u1",
    ]


def test_eco_3():
    ring, F = gen_system(BenchSpec("eco", 3), order="grevlex")
    assert [str(f) for f in F] == [
        "x1*x2*x3 + x1*x3 + 1",
        "x2*x3",
        "x1 + x2 + 1",
    ]


def test_system_sizes():
    for fam, n, nvars, neqs in [
        ("cyclic", 5, 5, 5),
        ("katsura", 4, 5, 5),
        ("eco", 6, 6, 6),
    ]:
        ring, F = gen_system(BenchSpec(fam, n))
        assert ring.n == nvars
        assert len(F) == neqs


@pytest.mark.parametrize("fam,too_small", [("cyclic", 1), ("katsura", 0), ("eco", 2)])
def test_size_floors(fam, too_small):
    with pytest.raises(InvalidSizeError):
        BenchSpec(fam, too_small)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        BenchSpec("coppersmith", 4)


def test_gen_system_order_flows_through():
    ring, _ = gen_system(BenchSpec("cyclic", 3), order="lex")
    assert ring.order == "lex"


def test_random_system_is_reproducible():
    ring = PolyRing(2, ["a", "b", "c"], "grevlex")
    F1 = random_system(ring, 5, 3, random.Random(99))
    F2 = random_system(ring, 5, 3, random.Random(99))
    assert F1 == F2
    assert len(F1) == 5
    assert all(f.degree() <= 3 for f in F1 if not f.is_zero)


def test_brute_force_matches_naive_enumeration():
    ring = PolyRing(3, ["x", "y"], "lex")
    F = [ring.poly({(1, 1): 1, (0, 0): 2}),  # x*y + 2
         ring.poly({(1, 0): 1, (0, 1): 2})]  # x + 2*y
    got = brute_force_solutions(F, ring)
    want = {
        pt for pt in itertools.product(range(3), repeat=2)
        if all(f.evaluate(pt) == 0 for f in F)
    }
    assert got == want
    assert got  # this particular system does have solutions


def test_brute_force_empty_system_is_everything():
    ring = PolyRing(2, ["x", "y"], "lex")
    assert len(brute_force_solutions([], ring)) == 4


def test_brute_force_guard():
    ring = PolyRing(2, [f"x{i}" for i in range(30)], "lex")
    with pytest.raises(TooLargeError):
        brute_force_solutions([ring.one], ring)


def test_lex_reader_exact():
    ring = PolyRing(2, ["x", "y"], "lex")
    basis = [ring.poly({(0, 2): 1, (0, 1): 1}),  # y^2 + y
             ring.poly({(1, 0): 1, (0, 1): 1})]  # x + y
    assert solutions_from_lex_basis(basis, ring) == {(0, 0), (1, 1)}


def test_lex_reader_respects_fixed_values():
    ring = PolyRing(2, ["x", "y"], "lex")
    basis = [ring.poly({(0, 2): 1, (0, 1): 1}),
             ring.poly({(1, 0): 1, (0, 1): 1})]
    assert solutions_from_lex_basis(basis, ring, fixed={1: 1}) == {(1, 1)}


def test_lex_reader_handles_non_triangular_members():
    # a basis member touching several variables only filters, never blocks
    ring = PolyRing(2, ["x", "y"], "lex")
    basis = [ring.poly({(1, 1): 1, (0, 0): 1})]  # x*y + 1
    assert solutions_from_lex_basis(basis, ring) == {(1, 1)}


def test_lex_reader_requires_lex():
    g = PolyRing(2, ["x", "y"], "grevlex")
    with pytest.raises(OrderNotLexError):
        solutions_from_lex_basis([g.one], g)


def test_solutions_from_report_inconsistent_is_empty():
    ring = PolyRing(2, ["x"], "lex")
    x = ring.variable(0)
    rep = groebner_basis([x, x + ring.one], EngineConfig(ring))
    assert rep.status is Status.INCONSISTENT
    assert solutions_from_report(rep, ring) == set()


def test_solutions_from_report_all_solved():
    ring = PolyRing(2, ["x", "y"], "lex")
    x, y = ring.variable(0), ring.variable(1)
    rep = groebner_basis([x + ring.one, x + y], EngineConfig(ring))
    assert rep.status is Status.ALL_VARIABLES_SOLVED
    assert solutions_from_report(rep, ring) == {(1, 1)}


@pytest.mark.parametrize("fam,n", [("cyclic", 4), ("eco", 4), ("katsura", 3)])
def test_oracle_agrees_on_benchmarks(fam, n):
    ring, F = gen_system(BenchSpec(fam, n), order="lex")
    rep = groebner_basis(F, EngineConfig(ring))
    assert solutions_from_report(rep, ring) == brute_force_solutions(F, ring)

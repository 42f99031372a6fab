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
from midgb.errors import InvalidSettingError
from test_golden_traces import planted_mq
from test_perfbench_contract import workloads


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
    with pytest.raises(InvalidSettingError):
        BenchSpec(fam, too_small)


def test_unknown_family_rejected():
    with pytest.raises(InvalidSettingError):
        BenchSpec("coppersmith", 4)


@pytest.mark.parametrize("n,seed", [(1, 0), (4, 3), (6, 1), (10, 7), (18, 1)])
def test_mq_family_equals_the_planted_references(n, seed):
    """Polynomial for polynomial, the ``mq`` family is the golden traces'
    ``planted_mq`` and the first instance the benchmark draws from a seed."""
    ring, F = gen_system(BenchSpec("mq", n, 2, seed=seed))
    ref_ring, ref = planted_mq(n, seed)
    _, bench_ring, bench = workloads.planted_mq(n, random.Random(seed), f"mq{n}-0")
    assert ring == ref_ring == bench_ring
    assert F == ref == list(bench)
    lex, F_lex = gen_system(BenchSpec("mq", n, 2, seed=seed), order="lex")
    assert F_lex == [lex.poly((ring.exponents(m), c) for m, c in p.terms) for p in F]


def test_mq_family_settings():
    assert BenchSpec("mq", 5) == BenchSpec("mq", 5, 2, seed=0)
    assert gen_system(BenchSpec("mq", 8, seed=1)) != gen_system(BenchSpec("mq", 8, seed=2))
    for q in (3, 5):
        with pytest.raises(InvalidSettingError):
            BenchSpec("mq", 5, q)
    with pytest.raises(InvalidSettingError):
        BenchSpec("mq", 0)
    with pytest.raises(InvalidSettingError):  # the fixed families take no seed
        BenchSpec("eco", 5, 3, seed=1)


def test_gen_system_order_flows_through():
    ring, _ = gen_system(BenchSpec("cyclic", 3), order="lex")
    assert ring.order == "lex"


# HEAD's exponent-vector generators before gen_system moved to ring
# arithmetic, kept as the reference it must reproduce.


def reference_cyclic(ring, n):
    out = []
    for k in range(1, n):
        pairs = []
        for i in range(n):
            m = [0] * n
            for j in range(k):
                m[(i + j) % n] = 1
            pairs.append((tuple(m), 1))
        out.append(ring.poly(pairs))
    out.append(ring.poly([(tuple([1] * n), 1), (tuple([0] * n), -1)]))
    return out


def reference_katsura(ring, n):
    def e(i, j=None):
        m = [0] * ring.n
        m[i] += 1
        if j is not None:
            m[j] += 1
        return tuple(m)

    unit = (0,) * ring.n
    out = [
        ring.poly(
            [(e(0), 1)] + [(e(i), 2) for i in range(1, n + 1)] + [(unit, -1)]
        )
    ]
    for k in range(n):
        pairs = []
        for i in range(-n, n + 1):
            if abs(k - i) <= n:
                pairs.append((e(abs(i), abs(k - i)), 1))
        pairs.append((e(k), -1))
        out.append(ring.poly(pairs))
    return out


def reference_eco(ring, n):
    def e(*idx):
        m = [0] * n
        for i in idx:
            m[i] += 1
        return tuple(m)

    unit = (0,) * n
    out = []
    for k in range(1, n):
        pairs = [(e(n - 1, k - 1), 1)]
        for i in range(1, n - k):
            pairs.append((e(n - 1, i - 1, i + k - 1), 1))
        pairs.append((unit, -k))
        out.append(ring.poly(pairs))
    out.append(ring.poly([(e(i - 1), 1) for i in range(1, n)] + [(unit, 1)]))
    return out


REFERENCES = {"cyclic": reference_cyclic, "katsura": reference_katsura, "eco": reference_eco}
GRID = [
    (fam, n)
    for fam, sizes in [("cyclic", range(2, 13)), ("katsura", range(1, 13)), ("eco", range(3, 13))]
    for n in sizes
]


@pytest.mark.parametrize("fam,n", GRID)
def test_gen_system_equals_exponent_vector_reference(fam, n):
    """Ring arithmetic builds the same systems as the exponent vectors did,
    for every q and order of the grid (330 systems in all)."""
    for q, order in itertools.product((2, 3, 5, 7, 32003), ("lex", "grevlex")):
        ring, F = gen_system(BenchSpec(fam, n, q), order=order)
        assert F == REFERENCES[fam](ring, n), (fam, n, q, order)


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


def test_lex_reader_equals_oracle_on_random_member_sets():
    """Over random lex member sets, most of them not Groebner bases, the
    reader's set is the oracle's zero set restricted to ``fixed``."""
    rng = random.Random(20151019)
    for _ in range(2000):
        q = rng.choice([2, 3, 5])
        n = rng.randint(1, 3)
        ring = PolyRing(q, [f"x{i}" for i in range(n)], "lex")
        members = random_system(ring, rng.randint(0, 4), rng.randint(1, 3), rng)
        fixed = {i: rng.randrange(q) for i in range(n) if rng.random() < 0.3}
        want = {
            s for s in brute_force_solutions(members, ring)
            if all(s[i] == v for i, v in fixed.items())
        }
        assert solutions_from_lex_basis(members, ring, fixed=fixed) == want


def test_oracle_and_lex_reader_read_their_input_once():
    """Both check every input's ring before they use it, and still take a
    one-pass iterable such as a generator."""
    ring = PolyRing(2, ["x", "y"], "lex")
    basis = [ring.poly({(0, 2): 1, (0, 1): 1}),  # y^2 + y
             ring.poly({(1, 0): 1, (0, 1): 1})]  # x + y
    assert brute_force_solutions(iter(basis), ring) == {(0, 0), (1, 1)}
    assert solutions_from_lex_basis(iter(basis), ring) == {(0, 0), (1, 1)}


def test_lex_reader_requires_lex():
    g = PolyRing(2, ["x", "y"], "grevlex")
    with pytest.raises(InvalidSettingError):
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

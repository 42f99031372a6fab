"""End-to-end acceptance sweep.

Nine checks, one test each, over a fixed corpus: 50 random GF(2) systems,
a dozen GF(3) systems, and the cyclic/katsura/eco families up to n = 6.
Engine reports are cached per configuration so the criteria share runs.
Run with ``pytest -v tests/test_acceptance.py`` to get one line per criterion.
"""

import itertools
import random
import time

import pytest

from midgb import (
    BenchSpec,
    EngineConfig,
    PolyRing,
    Status,
    brute_force_solutions,
    gen_system,
    groebner_basis,
    interreduce,
    normal_form,
    read_trace,
    s_polynomial,
    solutions_from_report,
)
from midgb import runner
from midgb.bench import random_system
from midgb.cli import EXIT_ROUND_LIMIT, run_cli
from midgb.errors import BoundViolationError, InvalidSettingError
from midgb.poly import is_field_polynomial
from midgb.runner import RunState
from midgb.systems import format_system, parse_system


# ---------------------------------------------------------------- corpus

def _random_text(q, seed, n, m, deg):
    ring = PolyRing(q, [f"x{i + 1}" for i in range(n)], "grevlex")
    return format_system(ring, random_system(ring, m, deg, random.Random(seed)))


def _build_corpus():
    entries = []
    for s in range(50):  # GF(2): n 2..6, m 3..8, degree 2..3
        entries.append(
            (f"rand2-{s}", _random_text(2, s, 2 + s % 5, 3 + s % 6, 2 + s % 2))
        )
    for s in range(100, 112):  # GF(3): n 2..4, m 3..6, degree 2..3
        entries.append(
            (f"rand3-{s}", _random_text(3, s, 2 + s % 3, 3 + s % 4, 2 + s % 2))
        )
    for fam, lo in (("cyclic", 2), ("katsura", 1), ("eco", 3)):
        for n in range(lo, 7):
            ring, polys = gen_system(BenchSpec(fam, n))
            entries.append((f"{fam}-{n}", format_system(ring, polys)))
    return entries


CORPUS = _build_corpus()
GF2_LABELS = {lab for lab, _ in CORPUS if "rand3" not in lab}

# ten larger GF(2) instances for the solve-event soundness sweep (n 8..12)
BIG = [
    (f"big-{s}", _random_text(2, s, 8 + s % 5, 10 + s % 5, 2 + s % 2))
    for s in range(200, 210)
]

ECO_TEXTS = {}
for _n in range(6, 11):
    _ring, _polys = gen_system(BenchSpec("eco", _n))
    ECO_TEXTS[_n] = format_system(_ring, _polys)

_REPORTS = {}
_BOUND_VIOLATIONS = []


def run(text, order="grevlex", engine="f4", ms=True, max_rounds=None):
    """Cached engine run with field equations adjoined."""
    key = (text, order, engine, ms, max_rounds)
    if key not in _REPORTS:
        ring, polys = parse_system(text, order=order)
        config = EngineConfig(
            ring=ring,
            engine=engine,
            middle_solving=ms,
            adjoin_field_eqs=True,
            max_rounds=max_rounds,
        )
        try:
            report = groebner_basis(polys, config)
        except BoundViolationError as exc:
            _BOUND_VIOLATIONS.append((key, str(exc)))
            raise
        _REPORTS[key] = (ring, polys, report)
    return _REPORTS[key]


def _solutions(text):
    ring, polys = parse_system(text)
    return brute_force_solutions(polys, ring)


# --------------------------------------------------------------- criteria

def test_criterion_1_groebner_correctness():
    t0 = time.monotonic()
    for label, text in CORPUS:
        ring, polys, rb = run(text, engine="buchberger", ms=False)
        _, _, rf = run(text, engine="f4", ms=False)
        assert rb.status is Status.GROEBNER_BASIS, label
        assert rf.status is Status.GROEBNER_BASIS, label
        for basis in (rb.basis, rf.basis):
            for gi, gj in itertools.combinations(basis, 2):
                assert normal_form(s_polynomial(gi, gj), basis).is_zero, label
            for f in polys:
                if not f.is_zero:
                    assert normal_form(f, basis).is_zero, label
        assert interreduce(rb.basis) == interreduce(rf.basis), label
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion 1 PASS: {len(CORPUS)} systems certified in {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    unsat = 0
    for label, text in CORPUS:
        ring, polys, rep = run(text, order="lex")
        want = brute_force_solutions(polys, ring)
        if want:
            assert rep.status is not Status.INCONSISTENT, label
            assert solutions_from_report(rep, ring) == want, label
        else:
            unsat += 1
            assert rep.status is Status.INCONSISTENT, label
    print(f"criterion 2 PASS: exact zero sets on {len(CORPUS)} systems "
          f"({unsat} unsatisfiable)")


def test_criterion_3_degree_bounds():
    for label, text in CORPUS:
        reports = [
            run(text, engine="buchberger", ms=False)[2],
            run(text, engine="f4", ms=False)[2],
            run(text, order="lex")[2],
        ]
        ring = parse_system(text)[0]
        stored_cap = ring.n * (ring.q - 1)
        for rep in reports:
            for g in rep.basis:
                if g.is_zero or is_field_polynomial(g):
                    continue
                assert g.degree() <= stored_cap, label
                assert all(e <= ring.q for e in g.ring.exponents(g.lm())), label
    assert _BOUND_VIOLATIONS == []
    print("criterion 3 PASS: 0 bound violations across the corpus")


def test_criterion_4_solve_event_soundness():
    events_checked = 0
    pool = [(lab, t) for lab, t in CORPUS if lab in GF2_LABELS] + BIG
    for label, text in pool:
        sols = _solutions(text)
        if not sols:
            continue
        for order in ("grevlex", "lex"):
            ring, _, rep = run(text, order=order)
            for ev in rep.events:
                assert all(pt[ev.variable] == ev.value for pt in sols), (
                    f"{label}: {ring.names[ev.variable]}={ev.value} is not "
                    f"shared by every solution"
                )
                events_checked += 1
    assert events_checked > 0
    print(f"criterion 4 PASS: {events_checked} solve events verified")


def test_criterion_5_early_information():
    rows = []
    for n, text in ECO_TEXTS.items():
        _, _, ms = run(text)
        _, _, plain = run(text, ms=False)
        assert ms.events, f"eco-{n}: no solve events"
        first = min(ev.round for ev in ms.events)
        assert first < plain.total_rounds, f"eco-{n}"
        assert ms.total_rounds <= plain.total_rounds, f"eco-{n}"
        rows.append(f"eco-{n}: first event round {first}, "
                    f"rounds {ms.total_rounds} vs {plain.total_rounds}")
    print("criterion 5 PASS: " + "; ".join(rows))


def test_criterion_6_round_limit_leakage(tmp_path):
    for n, text in ECO_TEXTS.items():
        ring, _, full = run(text)
        _, _, plain = run(text, ms=False)
        limit = min(ev.round for ev in full.events)
        assert limit < plain.total_rounds

        trace = tmp_path / f"eco{n}-ms.trace"
        run_cli(["--gen", "eco", "--n", str(n),
                 "--max-rounds", str(limit), "--trace", str(trace)])
        records = read_trace(str(trace))
        got = {(r["round"], r["var"], r["value"])
               for r in records if r.get("kind") == "solved"}
        want = {(ev.round, ring.names[ev.variable], ev.value)
                for ev in full.events if ev.round <= limit}
        assert got == want and got, f"eco-{n}"

        off = tmp_path / f"eco{n}-off.trace"
        code = run_cli(["--gen", "eco", "--n", str(n), "--no-middle-solving",
                        "--max-rounds", str(limit), "--trace", str(off)])
        assert code == EXIT_ROUND_LIMIT
        terminal = read_trace(str(off))[-1]
        assert terminal["status"] == "RoundLimit"
        assert terminal["assignments"] == {}
    print("criterion 6 PASS: killed runs leak emitted events; "
          "strategy off leaks none")


def test_criterion_7_incremental_agreement():
    for label, text in CORPUS:
        _, _, rf = run(text)
        _, _, ri = run(text, engine="incremental")
        assert ri.status is rf.status, label
        assert interreduce(ri.basis) == interreduce(rf.basis), label
        if rf.status is not Status.INCONSISTENT:
            assert ri.assignments == rf.assignments, label
    print(f"criterion 7 PASS: incremental matches f4 on {len(CORPUS)} systems")


def support(p) -> set:
    """Indices of the variables that occur in p."""
    mask = 0
    for m, _ in p.terms:
        mask |= p.ring.codec.support(m)
    return {i for i in range(p.ring.n) if mask >> i & 1}


def triangular_shape_check(polys, ring: PolyRing) -> bool:
    """Check the staircase variable structure of a completed lex basis.

    Walking variables from the lex-least upward, every member whose greatest
    variable is x_i may otherwise involve only variables that earlier members
    already introduced — i.e. some member is univariate in the least occurring
    variable, the next members add one new variable at a time, and so on.
    Constant members are ignored (the empty-variety case is degenerately true).
    """
    if ring.order != "lex":
        raise InvalidSettingError("triangular shape is defined for lex bases")
    supports = [s for s in map(support, polys) if s]
    if not supports:
        return True
    covered: set = set()
    for idx in range(ring.n - 1, -1, -1):
        members = [s for s in supports if min(s) == idx]
        for s in members:
            if not (s - {idx}) <= covered:
                return False
        if members:
            covered.add(idx)
    return True


@pytest.fixture
def r2():
    return PolyRing(2, ["x", "y"], "lex")


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
    with pytest.raises(InvalidSettingError):
        triangular_shape_check([g.one], g)



def test_criterion_8_triangular_shape():
    checked = 0
    for label, text in CORPUS:
        if not _solutions(text):
            continue
        ring, _, rep = run(text, order="lex", ms=False)
        assert rep.status is Status.GROEBNER_BASIS, label
        assert triangular_shape_check(interreduce(rep.basis), ring), label
        checked += 1
    assert checked
    print(f"criterion 8 PASS: triangular lex bases on {checked} "
          "satisfiable systems")


def test_criterion_9_trace_determinism(tmp_path):
    configs = [
        ["--gen", "eco", "--n", "6"],
        ["--gen", "eco", "--n", "6", "--no-middle-solving"],
        ["--gen", "cyclic", "--n", "4", "--order", "lex",
         "--engine", "buchberger"],
        ["--gen", "katsura", "--n", "3", "--engine", "incremental"],
        ["--gen", "eco", "--n", "7", "--order", "lex", "--engine", "f4",
         "--no-adjoin-field-eqs", "--no-middle-solving"],
    ]
    for i, argv in enumerate(configs):
        a, b = tmp_path / f"{i}a.trace", tmp_path / f"{i}b.trace"
        code_a = run_cli(argv + ["--trace", str(a)])
        code_b = run_cli(argv + ["--trace", str(b)])
        assert code_a == code_b
        assert a.read_bytes() == b.read_bytes(), argv
    print(f"criterion 9 PASS: byte-identical traces for {len(configs)} "
          "configurations")


def test_candidates_inserted_unreduced_are_normal_forms(monkeypatch):
    """F4 inserts its fresh RREF rows, and Buchberger its remainder, without
    reducing them again unless a screen rewrote the basis; each such
    candidate must already be its own normal form."""
    insert_new = RunState.insert_new
    skipped = []

    def checked(state, h, stale):
        if not stale:
            assert normal_form(h, state.basis) == h
            skipped.append(h)
        return insert_new(state, h, stale)

    monkeypatch.setattr(RunState, "insert_new", checked)
    configs = list(itertools.product(("f4", "buchberger"), ("grevlex", "lex"), (True, False)))
    for _, text in CORPUS:
        for engine, order, ms in configs:
            ring, polys = parse_system(text, order=order)
            config = EngineConfig(ring=ring, engine=engine, middle_solving=ms)
            groebner_basis(polys, config)
    assert skipped


def test_split_elimination_equals_full_rref(split_checked):
    """Every F4 matrix, in f4 and incremental runs, reduces to the full RREF's
    rows that the basis cannot reach (see the ``split_checked`` fixture)."""
    configs = list(itertools.product(("f4", "incremental"), ("grevlex", "lex"), (True, False)))
    for _, text in CORPUS:
        for engine, order, ms in configs:
            ring, polys = parse_system(text, order=order)
            config = EngineConfig(ring=ring, engine=engine, middle_solving=ms)
            groebner_basis(polys, config)
    assert 2 in split_checked and max(split_checked) > 2


def test_renew_leaves_nothing_to_fold(monkeypatch):
    """With field equations adjoined, one interreduce after substitution
    leaves no exponent >= q outside the field polynomials, so renew needs no
    folding pass (see its docstring)."""
    renew = runner.renew
    checked = []

    def spied(basis, pending, events):
        res = renew(basis, pending, events)
        for g in res.basis:
            if is_field_polynomial(g) is None:
                foldable = g.ring.codec.foldable
                assert not any(foldable(m) for m, _ in g.terms), g
        checked.append(len(res.basis))
        return res

    monkeypatch.setattr(runner, "renew", spied)
    for _, text in CORPUS:
        for engine, order in itertools.product(("f4", "incremental"), ("grevlex", "lex")):
            ring, polys = parse_system(text, order=order)
            groebner_basis(polys, EngineConfig(ring=ring, engine=engine))
    assert any(checked)

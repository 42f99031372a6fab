"""Command-line driver: load or generate a system, run an engine, report.

Exit codes: 0 for GroebnerBasis/AllVariablesSolved, 2 for Inconsistent,
3 for RoundLimit, 4 for an oracle mismatch, 1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

from .api import ENGINES, groebner_basis
from .bench import BenchSpec, brute_force_solutions, gen_system, solutions_from_report
from .engine import EngineConfig, Status
from .errors import MidgbError, TooLargeError
from .systems import homogenize, parse_system

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONSISTENT = 2
EXIT_ROUND_LIMIT = 3
EXIT_ORACLE_MISMATCH = 4

_STATUS_EXIT = {
    Status.GROEBNER_BASIS: EXIT_OK,
    Status.ALL_VARIABLES_SOLVED: EXIT_OK,
    Status.INCONSISTENT: EXIT_INCONSISTENT,
    Status.ROUND_LIMIT: EXIT_ROUND_LIMIT,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="midgb",
        description="Groebner bases over GF(q) that solve variables mid-computation.",
    )
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="PATH", help="system file to load")
    src.add_argument(
        "--gen",
        choices=("cyclic", "katsura", "eco"),
        help="generate a benchmark family (needs --n)",
    )
    ap.add_argument("--n", type=int, help="size parameter for --gen")
    ap.add_argument(
        "--field",
        type=int,
        default=None,
        help="field size (default 2 for --gen; must match the file header for --input)",
    )
    ap.add_argument("--engine", choices=tuple(ENGINES), default="f4")
    ap.add_argument("--order", choices=("lex", "grevlex"), default="grevlex")
    ap.add_argument(
        "--middle-solving",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="solve unique-root univariate polynomials mid-run",
    )
    ap.add_argument(
        "--adjoin-field-eqs",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="adjoin x^q - x for every variable",
    )
    ap.add_argument("--max-rounds", type=int, default=None)
    ap.add_argument(
        "--homogenize",
        action="store_true",
        help="homogenize the system with a fresh least-precedence variable",
    )
    ap.add_argument("--reverse-input-order", action="store_true")
    ap.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a line-delimited JSON trace (events flushed immediately)",
    )
    ap.add_argument(
        "--oracle-check",
        action="store_true",
        help="verify the outcome by exhaustive search (small systems only)",
    )
    return ap


def _load_system(args):
    if args.gen:
        if args.n is None:
            raise ValueError("--gen requires --n")
        q = 2 if args.field is None else args.field
        ring, polys = gen_system(BenchSpec(args.gen, args.n, q), order=args.order)
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
        ring, polys = parse_system(text, order=args.order)
        if args.field is not None and args.field != ring.q:
            raise ValueError(
                f"--field {args.field} conflicts with the file header (field {ring.q})"
            )
    if args.homogenize:
        ring, polys = homogenize(polys, ring)
    return ring, polys


def _solve_points(report) -> list:
    """(round, cumulative solved) per round that produced events."""
    count = 0
    last: dict = {}
    for ev in report.events:
        count += 1
        last[ev.round] = count
    return sorted(last.items())


def _print_summary(args, ring, polys, report):
    src = f"{args.gen} n={args.n}" if args.gen else args.input
    print(
        f"system: {src} over GF({ring.q}), "
        f"{ring.n} variables, {len(polys)} polynomials"
    )
    ms = "on" if args.middle_solving else "off"
    fe = "on" if args.adjoin_field_eqs else "off"
    print(
        f"engine: {report.engine}  order: {ring.order}  "
        f"middle-solving: {ms}  field-equations: {fe}"
    )
    print(f"status: {report.status.value}")
    print(f"total rounds: {report.total_rounds}")
    points = _solve_points(report)
    if points:
        pretty = ", ".join(f"({r}, {c})" for r, c in points)
        print(f"solve points (round, solved): {pretty}")
    if report.assignments:
        pairs = " ".join(
            f"{ring.names[i]}={v}" for i, v in sorted(report.assignments.items())
        )
        print(f"assignments: {pairs}")
    print(f"basis ({len(report.basis)} polynomials):")
    for p in report.basis:
        print(f"  {p}")


def _oracle_check(ring, polys, report, adjoined: bool):
    try:
        sols = brute_force_solutions(polys, ring)
    except TooLargeError as exc:
        return True, f"oracle: skipped ({exc})"
    if report.status is Status.INCONSISTENT:
        if sols:
            return False, (
                f"oracle: MISMATCH - status Inconsistent but "
                f"{len(sols)} solutions exist"
            )
        return True, "oracle: ok (no solutions, status Inconsistent)"
    for point in sols:
        for var, val in report.assignments.items():
            if point[var] != val:
                return False, (
                    f"oracle: MISMATCH - assignment {ring.names[var]}={val} "
                    f"contradicts solution {point}"
                )
    if report.status is Status.ALL_VARIABLES_SOLVED:
        want = {tuple(report.assignments[i] for i in range(ring.n))}
        if sols != want:
            return False, (
                "oracle: MISMATCH - solved point does not match the exact "
                "solution set"
            )
        return True, "oracle: ok (unique solution matches exhaustive search)"
    if ring.order == "lex":
        got = solutions_from_report(report, ring)
        if got != sols:
            return False, (
                f"oracle: MISMATCH - back-substitution yields {len(got)} "
                f"solutions, exhaustive search {len(sols)}"
            )
        return True, f"oracle: ok ({len(sols)} solutions, exact match)"
    if any(p.terms and p.is_constant for p in report.basis):
        if sols:
            return False, "oracle: MISMATCH - unit basis but solutions exist"
        return True, "oracle: ok (unit basis, no solutions)"
    if adjoined and not sols:
        return False, "oracle: MISMATCH - no solutions but the basis is not {1}"
    return True, (
        f"oracle: ok ({len(sols)} solutions consistent with "
        f"{len(report.assignments)} assignments)"
    )


def run_cli(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ring, polys = _load_system(args)
        config = EngineConfig(
            ring=ring,
            engine=args.engine,
            middle_solving=args.middle_solving,
            adjoin_field_eqs=args.adjoin_field_eqs,
            max_rounds=args.max_rounds,
            trace_path=args.trace,
            reverse_inputs=args.reverse_input_order,
        )
        report = groebner_basis(polys, config)
    except (MidgbError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _print_summary(args, ring, polys, report)
    code = _STATUS_EXIT[report.status]
    if args.oracle_check and code in (EXIT_OK, EXIT_INCONSISTENT):
        ok, message = _oracle_check(ring, polys, report, args.adjoin_field_eqs)
        print(message)
        if not ok:
            return EXIT_ORACLE_MISMATCH
    return code


def entrypoint():
    sys.exit(run_cli())

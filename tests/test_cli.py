"""Command-line interface: exit codes, summary text, trace files."""

import pytest

from midgb import read_trace
from midgb.cli import (
    EXIT_ERROR,
    EXIT_INCONSISTENT,
    EXIT_OK,
    EXIT_ORACLE_MISMATCH,
    EXIT_ROUND_LIMIT,
    run_cli,
)


INCONSISTENT = "field 2\nvars x y\nx\nx + 1\ny\n"
SOLVABLE = "field 2\nvars x y\nx*y + 1\nx + y\n"


def test_exit_code_values():
    assert (EXIT_OK, EXIT_ERROR, EXIT_INCONSISTENT, EXIT_ROUND_LIMIT,
            EXIT_ORACLE_MISMATCH) == (0, 1, 2, 3, 4)


def test_gen_solved_ok(capsys):
    assert run_cli(["--gen", "eco", "--n", "5", "--order", "lex",
                    "--oracle-check"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "system: eco n=5 over GF(2), 5 variables, 5 polynomials" in out
    assert "engine: f4  order: lex  middle-solving: on  field-equations: on" in out
    assert "status: AllVariablesSolved" in out
    assert "assignments: x1=1 x2=1 x3=1 x4=0 x5=1" in out
    assert "oracle: ok (unique solution matches exhaustive search)" in out


def test_plain_groebner_listing(capsys):
    assert run_cli(["--gen", "cyclic", "--n", "3", "--order", "lex",
                    "--no-middle-solving", "--no-adjoin-field-eqs"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "status: GroebnerBasis" in out
    assert "basis (3 polynomials):" in out
    assert "  x1 + x2 + x3" in out


def test_input_file(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text(SOLVABLE)
    assert run_cli(["--input", str(path), "--order", "lex",
                    "--oracle-check"]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"system: {path} over GF(2)" in out


def test_inconsistent_exit(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(INCONSISTENT)
    assert run_cli(["--input", str(path)]) == EXIT_INCONSISTENT
    assert "status: Inconsistent" in capsys.readouterr().out


def test_oracle_check_on_inconsistent(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(INCONSISTENT)
    assert run_cli(["--input", str(path), "--oracle-check"]) == EXIT_INCONSISTENT
    assert "oracle: ok (no solutions, status Inconsistent)" in capsys.readouterr().out


def test_round_limit_exit(capsys):
    code = run_cli(["--gen", "eco", "--n", "6", "--no-middle-solving",
                    "--max-rounds", "1"])
    assert code == EXIT_ROUND_LIMIT
    assert "status: RoundLimit" in capsys.readouterr().out


def test_parse_error_exit(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("field 2\nvars x\nx ^ oops\n")
    assert run_cli(["--input", str(path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: line 3")


def test_missing_file_exit(capsys):
    assert run_cli(["--input", "/nonexistent/no.txt"]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_gen_without_n(capsys):
    assert run_cli(["--gen", "cyclic"]) == EXIT_ERROR
    assert "--gen requires --n" in capsys.readouterr().err


def test_field_conflicts_with_header(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text(SOLVABLE)
    assert run_cli(["--input", str(path), "--field", "3"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "--field 3 conflicts with the file header (field 2)" in err


def test_gen_field_override(capsys):
    assert run_cli(["--gen", "katsura", "--n", "2", "--field", "3",
                    "--no-middle-solving", "--no-adjoin-field-eqs"]) == EXIT_OK
    assert "over GF(3)" in capsys.readouterr().out


def test_trace_file_written(tmp_path, capsys):
    path = tmp_path / "run.trace"
    assert run_cli(["--gen", "eco", "--n", "5", "--order", "lex",
                    "--trace", str(path)]) == EXIT_OK
    capsys.readouterr()
    records = read_trace(str(path))
    assert records[-1]["status"] == "AllVariablesSolved"
    assert any(r.get("kind") == "solved" for r in records)


def test_engine_selection(capsys):
    for engine in ("buchberger", "f4", "incremental"):
        assert run_cli(["--gen", "eco", "--n", "5", "--engine", engine]) == EXIT_OK
        assert f"engine: {engine}" in capsys.readouterr().out


def test_unsatisfiable_benchmark_detected(capsys):
    # cyclic-3 has no roots over GF(2): the product equation forces all ones,
    # which the linear equation rejects
    assert run_cli(["--gen", "cyclic", "--n", "3"]) == EXIT_INCONSISTENT
    assert "status: Inconsistent" in capsys.readouterr().out


def test_homogenize_flag(capsys):
    assert run_cli(["--gen", "cyclic", "--n", "3", "--homogenize",
                    "--no-middle-solving", "--no-adjoin-field-eqs"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "4 variables" in out


def test_reverse_input_order(capsys):
    assert run_cli(["--gen", "cyclic", "--n", "4", "--reverse-input-order"]) == EXIT_OK
    capsys.readouterr()


def test_solve_points_line(capsys):
    assert run_cli(["--gen", "eco", "--n", "6", "--order", "grevlex"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "solve points (round, solved):" in out


def test_input_and_gen_are_exclusive(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text(SOLVABLE)
    with pytest.raises(SystemExit) as ei:
        run_cli(["--input", str(path), "--gen", "cyclic", "--n", "3"])
    assert ei.value.code == 2  # argparse usage error
    capsys.readouterr()

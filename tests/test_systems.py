"""System-file parsing, formatting, and homogenization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from midgb import PolyRing
from midgb.bench import random_system
from midgb.errors import MonomialOverflowError, NonPrimeFieldError, ParseError
from midgb.systems import _parse_poly_line, format_system, homogenize, parse_system


SAMPLE = """\
field 2
vars x y z
x*y + z
x^2 + x  # a comment
# full-line comment

z + 1
"""


def test_parse_basic():
    ring, polys = parse_system(SAMPLE)
    assert ring.q == 2
    assert ring.names == ("x", "y", "z")
    assert [str(p) for p in polys] == ["x*y + z", "x^2 + x", "z + 1"]


def test_parse_order_parameter():
    ring, _ = parse_system(SAMPLE, order="lex")
    assert ring.order == "lex"


def test_parse_coefficients_reduce_mod_q():
    ring, polys = parse_system("field 3\nvars x\n4*x + 7\n")
    assert str(polys[0]) == "x + 1"


def test_parse_minus_sign():
    ring, polys = parse_system("field 5\nvars x y\nx - y - 2\n")
    assert str(polys[0]) == "x + 4*y + 3"


def test_parse_zero_polynomial_line_kept():
    ring, polys = parse_system("field 2\nvars x\n2*x\n")
    assert len(polys) == 1
    assert polys[0].is_zero


def test_missing_header():
    with pytest.raises(ParseError) as ei:
        parse_system("")
    assert "missing 'field'/'vars' header" in str(ei.value)


def test_bad_field_line():
    with pytest.raises(ParseError) as ei:
        parse_system("field two\nvars x\n")
    assert str(ei.value) == "line 1, column 1: expected 'field <prime>'"


def test_non_prime_field_propagates():
    with pytest.raises(NonPrimeFieldError):
        parse_system("field 4\nvars x\nx\n")


def test_unknown_variable_position():
    with pytest.raises(ParseError) as ei:
        parse_system("field 2\nvars x\nx + w\n")
    assert ei.value.line == 3
    assert "unknown variable 'w'" in str(ei.value)


def test_zero_exponent_rejected():
    with pytest.raises(ParseError) as ei:
        parse_system("field 2\nvars x\nx^0\n")
    assert "exponent must be a positive integer" in str(ei.value)


def test_stray_character():
    with pytest.raises(ParseError) as ei:
        parse_system("field 2\nvars x\nx / 2\n")
    assert ei.value.line == 3
    assert "unexpected character '/'" in str(ei.value)


@pytest.mark.parametrize(
    "text,line,column,message",
    [
        ("field \u00b2\nvars x\n", 1, 1, "expected 'field <prime>'"),
        ("field 2\nvars x\nx^\u00b2\n", 3, 3, "expected an integer exponent after '^'"),
        ("field 2\nvars a1 1\n", 2, 9, "bad variable name '1'"),
    ],
    ids=["superscript-field", "superscript-exponent", "name-inside-earlier-name"],
)
def test_header_and_exponent_errors_carry_positions(text, line, column, message):
    """A superscript digit is no ASCII integer, and a bad name is reported
    at its own column, not at the first place its text occurs."""
    with pytest.raises(ParseError) as ei:
        parse_system(text)
    assert (ei.value.line, ei.value.column) == (line, column)
    assert str(ei.value).endswith(message)


LONG = "1" * 5000  # past CPython's 4,300-digit integer-string limit


@pytest.mark.parametrize(
    "text,line,column",
    [
        (f"field 2\nvars x\nx + {LONG}*x\n", 3, 5),
        (f"field 2\nvars x\nx^{LONG}\n", 3, 3),
        (f"field  {LONG}\nvars x\n", 1, 8),
    ],
    ids=["coefficient", "exponent", "field-line"],
)
def test_overlong_integer_literals_raise_parse_error(text, line, column):
    with pytest.raises(ParseError) as ei:
        parse_system(text)
    assert (ei.value.line, ei.value.column) == (line, column)
    assert str(ei.value).endswith("integer literal of 5000 digits is too long")


# HEAD's character-scanning parser before the token pattern, kept as the
# reference the body-line parser must reproduce on ASCII input.


def reference_tokenize(line, line_no):
    toks = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch in " \t":
            i += 1
            continue
        col = i + 1
        if ch.isdigit():
            j = i
            while j < n and line[j].isdigit():
                j += 1
            toks.append(("int", int(line[i:j]), col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (line[j].isalnum() or line[j] == "_"):
                j += 1
            toks.append(("name", line[i:j], col))
            i = j
        elif ch in "*+-^":
            toks.append((ch, ch, col))
            i += 1
        else:
            raise ParseError(line_no, col, f"unexpected character {ch!r}")
    return toks


def reference_parse_poly_line(line, line_no, ring, var_index):
    toks = reference_tokenize(line, line_no)
    if not toks:
        return None
    end_col = len(line) + 1
    pairs = []
    i = 0
    nt = len(toks)
    first = True
    while i < nt:
        sign = 1
        if toks[i][0] in ("+", "-"):
            if toks[i][0] == "-":
                sign = -1
            i += 1
        elif not first:
            raise ParseError(line_no, toks[i][2], "expected '+' or '-' between terms")
        first = False

        coeff = sign
        mono = [0] * ring.n
        expect_factor = True
        while True:
            if i >= nt:
                if expect_factor:
                    raise ParseError(line_no, end_col, "expected a number or variable")
                break
            kind, value, col = toks[i]
            if expect_factor:
                if kind == "int":
                    coeff *= value
                    i += 1
                elif kind == "name":
                    if value not in var_index:
                        raise ParseError(line_no, col, f"unknown variable {value!r}")
                    vi = var_index[value]
                    i += 1
                    exp = 1
                    if i < nt and toks[i][0] == "^":
                        i += 1
                        if i >= nt or toks[i][0] != "int":
                            where = toks[i][2] if i < nt else end_col
                            raise ParseError(line_no, where, "expected an integer exponent after '^'")
                        exp = toks[i][1]
                        if exp < 1:
                            raise ParseError(line_no, toks[i][2], "exponent must be a positive integer")
                        i += 1
                    mono[vi] += exp
                else:
                    raise ParseError(line_no, col, f"expected a number or variable, got {value!r}")
                expect_factor = False
            else:
                if kind == "*":
                    i += 1
                    expect_factor = True
                elif kind in ("+", "-"):
                    break
                else:
                    raise ParseError(line_no, col, f"expected '*', '+' or '-', got {value!r}")
        pairs.append((tuple(mono), coeff))
    return ring.poly(pairs)


# names known and unknown, integers, zero, every symbol, blanks, and a stray
# character; adjacent draws merge, as in "x1" or "207"
ALPHABET = ["x", "y", "z", "w", "_", "x1", "0", "1", "2", "07", "*", "+", "-", "^",
            "*y^2", " ", "  ", "\t", "/"]


def _outcome(parse, line, ring, var_index):
    try:
        return parse(line, 4, ring, var_index)
    except ParseError as exc:
        return (exc.line, exc.column, str(exc))
    except MonomialOverflowError as exc:  # an exponent past the ring's limit
        return str(exc)


def test_parser_matches_character_scanning_reference():
    """Seeded random lines over the token alphabet give the same polynomial
    or the same ParseError (line, column, message) as the old parser."""
    rng = random.Random(1)
    ring = PolyRing(7, ["x", "y", "z", "_"], "grevlex")
    var_index = {nm: i for i, nm in enumerate(ring.names)}
    for _ in range(20000):
        line = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 10))).rstrip()
        if not line:
            continue  # parse_system skips blank lines
        want = _outcome(reference_parse_poly_line, line, ring, var_index)
        assert _outcome(_parse_poly_line, line, ring, var_index) == want, line


def test_error_message_carries_position():
    err = ParseError(7, 12, "boom")
    assert str(err) == "line 7, column 12: boom"
    assert (err.line, err.column) == (7, 12)


def test_format_round_trip_handwritten():
    ring, polys = parse_system(SAMPLE)
    text = format_system(ring, polys)
    ring2, polys2 = parse_system(text)
    assert ring2.names == ring.names and ring2.q == ring.q
    assert polys2 == polys


@pytest.mark.parametrize("q", [2, 3, 7])
def test_format_round_trip_random(q):
    rng = random.Random(q * 31)
    ring = PolyRing(q, ["x", "y", "z"], "grevlex")
    polys = random_system(ring, 6, 3, rng)
    ring2, polys2 = parse_system(format_system(ring, polys))
    assert polys2 == polys


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_format_round_trip_property(seed):
    ring = PolyRing(3, ["a", "b"], "grevlex")
    polys = random_system(ring, 4, 4, random.Random(seed))
    _, polys2 = parse_system(format_system(ring, polys))
    assert polys2 == polys


def test_homogenize_terms_share_degree():
    ring, polys = parse_system("field 3\nvars x y\nx^2 + y + 2\nx*y + 1\n")
    ring2, out = homogenize(polys, ring)
    assert ring2.names == ("x", "y", "h")
    for p in out:
        degs = {sum(ring2.exponents(m)) for m, _ in p.terms}
        assert len(degs) == 1


def test_homogenize_restores_at_one():
    ring, polys = parse_system("field 5\nvars x y\nx^2 + 3*y + 2\n")
    ring2, out = homogenize(polys, ring)
    # evaluating at h=1 over the whole grid matches the original
    for x in range(5):
        for y in range(5):
            assert out[0].evaluate((x, y, 1)) == polys[0].evaluate((x, y))


def test_homogenize_name_collision():
    ring = PolyRing(2, ["h", "h0"], "lex")
    p = ring.poly({(1, 0): 1, (0, 0): 1})
    ring2, _ = homogenize([p], ring)
    assert ring2.names == ("h", "h0", "h1")


def test_homogenize_new_variable_is_least():
    ring, polys = parse_system("field 2\nvars x y\nx + y + 1\n")
    ring2, out = homogenize(polys, ring)
    # head stays on the original leading variable, not on h
    assert str(out[0]) == "x + y + h"

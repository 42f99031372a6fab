"""System-file parsing, formatting, and homogenization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from midgb import PolyRing
from midgb.bench import random_system
from midgb.errors import NonPrimeFieldError, ParseError
from midgb.systems import format_system, homogenize, parse_system


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

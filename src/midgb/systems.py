"""Reading and writing polynomial-system files, plus homogenization.

File grammar (UTF-8 text)::

    field <prime>
    vars <name> <name> ...
    <polynomial>
    <polynomial>

One polynomial per line, written as a sum of products over the tokens:
integer literals (ASCII digits), variable names (a letter or ``_``, then
letters, digits or ``_``), ``*``, ``+``, ``-`` and ``^<positive int>``.
Blank lines and ``#`` comments are ignored. The variable list fixes
precedence: the first name is greatest. A malformed line raises
``ParseError`` with its line and column.
"""

from __future__ import annotations

import re

from .errors import InvalidSettingError, ParseError
from .poly import PolyRing


_NAME = r"[^\W\d]\w*"  # a letter or "_", then letters, digits or "_"
# one token per match after blanks: an integer, a name, a symbol, or any
# other character, which is an error
_TOKEN = re.compile(
    rf"[ \t]*(?:(?P<int>[0-9]+)|(?P<name>{_NAME})|(?P<symbol>[*+^-])|(?P<bad>.))",
    re.DOTALL,
)


def _literal(text: str, line_no: int, col: int) -> int:
    """The value of a digit run; one past CPython's integer-string limit
    raises ParseError at its column instead of a bare ValueError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(
            line_no, col, f"integer literal of {len(text)} digits is too long"
        ) from None


def _tokenize(line: str, line_no: int) -> list:
    """(kind, value, 1-based column) triples, kind int/name/the symbol, closed
    by the sentinel ("end", None, len(line) + 1)."""
    toks = []
    for m in _TOKEN.finditer(line):
        kind, text, col = m.lastgroup, m[m.lastgroup], m.start(m.lastgroup) + 1
        if kind == "bad":
            raise ParseError(line_no, col, f"unexpected character {text!r}")
        if kind == "symbol":
            kind = text
        toks.append((kind, _literal(text, line_no, col) if kind == "int" else text, col))
    toks.append(("end", None, len(line) + 1))
    return toks


def _parse_poly_line(line: str, line_no: int, ring: PolyRing, var_index: dict):
    """A sum of signed terms, each a product of factors; the first sign is optional."""
    toks = _tokenize(line, line_no)
    pairs = []
    i = 0
    while True:
        coeff = -1 if toks[i][0] == "-" else 1
        if toks[i][0] in ("+", "-"):
            i += 1
        mono = [0] * ring.n
        while True:
            kind, value, col = toks[i]
            i += 1
            if kind == "int":
                coeff *= value
            elif kind == "name":
                if value not in var_index:
                    raise ParseError(line_no, col, f"unknown variable {value!r}")
                exp = 1
                if toks[i][0] == "^":
                    kind, exp, col = toks[i + 1]
                    if kind != "int":
                        raise ParseError(line_no, col, "expected an integer exponent after '^'")
                    if exp < 1:
                        raise ParseError(line_no, col, "exponent must be a positive integer")
                    i += 2
                mono[var_index[value]] += exp
            elif kind == "end":
                raise ParseError(line_no, col, "expected a number or variable")
            else:
                raise ParseError(line_no, col, f"expected a number or variable, got {value!r}")
            kind, value, col = toks[i]
            if kind != "*":
                break
            i += 1
        pairs.append((tuple(mono), coeff))
        if kind == "end":
            return ring.poly(pairs)
        if kind not in ("+", "-"):
            raise ParseError(line_no, col, f"expected '*', '+' or '-', got {value!r}")


def parse_system(text: str, order: str = "grevlex"):
    """Parse a system file into (PolyRing, list of Polynomial)."""
    polys = []
    stage = 0  # 0: expect field line, 1: expect vars line, 2: body
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if stage == 0:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "field" or not re.fullmatch("[0-9]+", parts[1]):
                raise ParseError(line_no, 1, "expected 'field <prime>'")
            q = _literal(parts[1], line_no, re.search("[0-9]", line).start() + 1)
            stage = 1
        elif stage == 1:
            words = list(re.finditer(r"\S+", line))
            if len(words) < 2 or words[0].group() != "vars":
                raise ParseError(line_no, 1, "expected 'vars <name> ...'")
            for w in words[1:]:
                if not re.fullmatch(_NAME, w.group()):
                    raise ParseError(line_no, w.start() + 1, f"bad variable name {w.group()!r}")
            names = [w.group() for w in words[1:]]
            try:  # a non-prime or too large field keeps its own type
                ring = PolyRing(q, names, order)
            except InvalidSettingError as exc:
                raise ParseError(line_no, 1, str(exc)) from None
            var_index = {nm: i for i, nm in enumerate(names)}
            stage = 2
        else:
            polys.append(_parse_poly_line(line, line_no, ring, var_index))
    if stage != 2:
        raise ParseError(line_no + 1, 1, "missing 'field'/'vars' header")
    return ring, polys


def format_system(ring: PolyRing, polys) -> str:
    lines = [f"field {ring.q}", "vars " + " ".join(ring.names)]
    lines.extend(str(p) for p in polys)
    return "\n".join(lines) + "\n"


def homogenize(polys, ring: PolyRing):
    """Standard homogenization with a fresh least-precedence variable.

    Every term of each polynomial is padded with the new variable up to the
    polynomial's total degree. Returns (new_ring, new_polys).
    """
    name = "h"
    k = 0
    while name in ring.names:
        name = f"h{k}"
        k += 1
    ring2 = PolyRing(ring.q, list(ring.names) + [name], ring.order)
    out = []
    for p in polys:
        if p.is_zero:
            out.append(ring2.zero)
            continue
        d = p.degree()
        exps = [(ring.exponents(m), c) for m, c in p.terms]
        out.append(ring2.poly([(e + (d - sum(e),), c) for e, c in exps]))
    return ring2, out

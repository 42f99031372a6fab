"""Reading and writing polynomial-system files, plus homogenization.

File grammar (UTF-8 text)::

    field <prime>
    vars <name> <name> ...
    <polynomial>
    <polynomial>

One polynomial per line, written as a sum of products over the tokens:
integer literals, variable names, ``*``, ``+``, ``-`` and ``^<positive
int>``. Blank lines and ``#`` comments are ignored. The variable list fixes
precedence: the first name is greatest.
"""

from __future__ import annotations

from .errors import NonPrimeFieldError, ParseError
from .poly import PolyRing


def _tokenize(line: str, line_no: int) -> list:
    """(kind, value, 1-based column) triples; kind is int/name/the symbol."""
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


def _parse_poly_line(line: str, line_no: int, ring: PolyRing, var_index: dict):
    toks = _tokenize(line, line_no)
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


def parse_system(text: str, order: str = "grevlex"):
    """Parse a system file into (PolyRing, list of Polynomial)."""
    ring = None
    var_index: dict = {}
    polys = []
    q = None
    stage = 0  # 0: expect field line, 1: expect vars line, 2: body
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if stage == 0:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "field" or not parts[1].isdigit():
                raise ParseError(line_no, 1, "expected 'field <prime>'")
            q = int(parts[1])
            stage = 1
        elif stage == 1:
            parts = line.split()
            if len(parts) < 2 or parts[0] != "vars":
                raise ParseError(line_no, 1, "expected 'vars <name> ...'")
            names = parts[1:]
            for nm in names:
                if not (nm[0].isalpha() or nm[0] == "_") or not all(
                    c.isalnum() or c == "_" for c in nm
                ):
                    raise ParseError(line_no, line.index(nm) + 1, f"bad variable name {nm!r}")
            try:
                ring = PolyRing(q, names, order)
            except NonPrimeFieldError:
                raise
            except ValueError as exc:
                raise ParseError(line_no, 1, str(exc)) from None
            var_index = {nm: i for i, nm in enumerate(names)}
            stage = 2
        else:
            p = _parse_poly_line(line, line_no, ring, var_index)
            if p is not None:
                polys.append(p)
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

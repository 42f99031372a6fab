"""Exponent-vector monomials and the two admissible orders (lex, grevlex).

A monomial is a plain tuple of non-negative ints, one exponent per variable,
index 0 being the variable of greatest precedence. Order comparisons go through
sort keys so that plain tuple comparison and heapq do the work.
"""

from __future__ import annotations

Monomial = tuple  # tuple[int, ...]


def total_degree(m) -> int:
    return sum(m)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def mono_lcm(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b, strict=True))


def mono_divides(a, b) -> bool:
    """True iff a | b componentwise."""
    return all(x <= y for x, y in zip(a, b, strict=True))


def mono_div(a, b):
    """a / b, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b, strict=True):
        d = x - y
        if d < 0:
            return None
        out.append(d)
    return tuple(out)


def mono_mask(m) -> int:
    """Support bitmask: bit i is set iff x_i occurs in m.

    If a | b then mono_mask(a) & ~mono_mask(b) == 0, so a nonzero result
    proves a does not divide b without comparing exponents.
    """
    mask = 0
    bit = 1
    for e in m:
        if e:
            mask |= bit
        bit <<= 1
    return mask


def mono_coprime(a, b) -> bool:
    """True iff lcm(a, b) == a*b, i.e. no variable occurs in both."""
    return all(x == 0 or y == 0 for x, y in zip(a, b, strict=True))


# ---------------------------------------------------------------- sort keys

def lex_key(m):
    # tuple comparison compares exponents in precedence order already
    return m


def lex_negkey(m):
    return tuple(-e for e in m)


def grevlex_key(m):
    # total degree first; ties by reverse lexicographic comparison on the
    # reversed exponent vector with the sign flipped
    return (sum(m), tuple(-e for e in reversed(m)))


def grevlex_negkey(m):
    return (-sum(m), tuple(reversed(m)))


ORDER_KEYS = {"lex": lex_key, "grevlex": grevlex_key}
ORDER_NEGKEYS = {"lex": lex_negkey, "grevlex": grevlex_negkey}


def order_cmp(a, b, order: str) -> int:
    """-1, 0, or 1 as a <, ==, > b under the named order."""
    key = ORDER_KEYS[order]
    ka, kb = key(a), key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0

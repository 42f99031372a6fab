"""Benchmark families, the exhaustive oracle, and solution-set readers.

The generators emit the standard cyclic/katsura/eco systems with coefficients
reduced mod q, and planted random quadratic (MQ) systems over GF(2) drawn
from a seed. The oracle enumerates all of GF(q)^n with numpy and is kept
deliberately independent of the reduction machinery, so the two can check
each other.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .engine import Status
from .errors import InvalidSettingError, TooLargeError
from .midsolve import inconsistency_check
from .poly import PolyRing, require_ring, substitution

ORACLE_LIMIT = 1 << 24


@dataclass(frozen=True)
class BenchSpec:
    """A named benchmark instance: family, size parameter, field size, and
    the seed that planted MQ (family ``mq``, GF(2) only) is drawn from; the
    other families are fixed systems and take no seed."""

    family: str
    n: int
    q: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSettingError(f"unknown benchmark family {self.family!r}")
        floor = FAMILIES[self.family][0]
        if self.n < floor:
            raise InvalidSettingError(f"{self.family} needs n >= {floor}, got {self.n}")
        if self.family == "mq" and self.q != 2:
            raise InvalidSettingError(f"planted MQ is over GF(2), got q = {self.q}")
        if self.family != "mq" and self.seed:
            raise InvalidSettingError(f"{self.family} is a fixed system; only mq takes a seed")


def bench_variables(family: str, n: int) -> list:
    if family == "katsura":
        return [f"u{i}" for i in range(n + 1)]
    return [f"x{i}" for i in range(1, n + 1)]


def gen_system(spec: BenchSpec, order: str = "grevlex"):
    """Build the ring and polynomial list for a benchmark instance.

    Deterministic: the same spec and order always produce structurally
    identical output.
    """
    ring = PolyRing(spec.q, bench_variables(spec.family, spec.n), order)
    x = [ring.variable(i) for i in range(ring.n)]
    return ring, FAMILIES[spec.family][1](ring, x, spec)


def _cyclic(ring: PolyRing, x: list, spec: BenchSpec) -> list:
    n = spec.n
    # e_k = sum over the n cyclic windows of length k, then x1...xn - 1
    xx = x + x  # the windows wrap around
    return [
        sum((math.prod(xx[i:i + k], start=ring.one) for i in range(n)), ring.zero)
        for k in range(1, n)
    ] + [math.prod(x, start=ring.one) - ring.one]


def _katsura(ring: PolyRing, u: list, spec: BenchSpec) -> list:
    n = spec.n
    # u_0 + 2(u_1 + ... + u_n) - 1, then sum_i u_|i| u_|k-i| - u_k for k < n
    return [u[0] + sum(u[1:], ring.zero).scale(2) - ring.one] + [
        sum((u[abs(i)] * u[abs(k - i)] for i in range(k - n, n + 1)), ring.zero) - u[k]
        for k in range(n)
    ]


def _eco(ring: PolyRing, x: list, spec: BenchSpec) -> list:
    n = spec.n
    # x_i lives at index i-1; f_k = x_n*(x_k + sum x_i*x_{i+k}) - k for k < n,
    # then x_1 + ... + x_{n-1} + 1
    return [
        x[-1] * sum((x[i] * x[i + k] for i in range(n - k - 1)), x[k - 1]) - ring.constant(k)
        for k in range(1, n)
    ] + [sum(x[:-1], ring.one)]


def _mq(ring: PolyRing, x: list, spec: BenchSpec) -> list:
    # a point first, then n equations: each square-free quadratic x_i*x_j
    # and each linear x_i (x_i^2 = x_i) with probability 1/2, plus the
    # constant that makes the point a zero
    rng = random.Random(spec.seed)
    n = spec.n
    point = [rng.randrange(2) for _ in range(n)]
    polys = []
    for _ in range(n):
        p, value = ring.zero, 0
        for i in range(n):
            for j in range(i, n):
                if rng.randrange(2):
                    p += x[i] if i == j else x[i] * x[j]
                    value ^= point[i] & point[j]
        polys.append(p + ring.constant(value))
    return polys


FAMILIES = {
    "cyclic": (2, _cyclic),
    "katsura": (1, _katsura),
    "eco": (3, _eco),
    "mq": (1, _mq),
}


def random_system(ring: PolyRing, m: int, max_degree: int, rng, max_terms: int = 5) -> list:
    """m-ish random sum-of-products polynomials (zero draws are dropped).

    Deterministic under a seeded ``random.Random``.
    """
    out = []
    for _ in range(m):
        pairs = []
        for _ in range(rng.randint(1, max_terms)):
            mono = [0] * ring.n
            for _ in range(rng.randint(0, max_degree)):
                mono[rng.randrange(ring.n)] += 1
            pairs.append((tuple(mono), rng.randrange(1, ring.q)))
        p = ring.poly(pairs)
        if not p.is_zero:
            out.append(p)
    return out


# ---------------------------------------------------------------- the oracle


def _powmod(arr, e: int, q: int):
    out = np.ones_like(arr)
    base = arr % q
    while e:
        if e & 1:
            out = out * base % q
        base = base * base % q
        e >>= 1
    return out


def brute_force_solutions(polys, ring: PolyRing) -> set:
    """The exact zero set over GF(q)^n by exhaustive evaluation.

    Kept independent of the reduction code: only the term lists are read,
    each monomial unpacked to its exponent tuple. Every polynomial must be
    over ``ring``.
    """
    polys = list(polys)
    for p in polys:
        require_ring(ring, p)
    q, n = ring.q, ring.n
    total = q**n
    if total > ORACLE_LIMIT:
        raise TooLargeError(
            f"q^n = {q}^{n} exceeds the exhaustive-search guard of 2^24"
        )
    idx = np.arange(total, dtype=np.int64)
    cols = [(idx // q ** (n - 1 - i)) % q for i in range(n)]
    alive = np.ones(total, dtype=bool)
    for p in polys:
        acc = np.zeros(total, dtype=np.int64)
        for m, c in p.terms:
            term = np.full(total, c % q, dtype=np.int64)
            for i, e in enumerate(ring.exponents(m)):
                if e:
                    term = term * _powmod(cols[i], e, q) % q
            acc = (acc + term) % q
        alive &= acc == 0
        if not alive.any():
            return set()
    picked = np.stack([col[alive] for col in cols], axis=1)
    return set(map(tuple, picked.tolist()))


# ------------------------------------------------------- reading a lex basis


def solutions_from_lex_basis(basis, ring: PolyRing, fixed=None) -> set:
    """Enumerate the zero set of lex basis members by back-substitution.

    Walks variables from least precedence upward and substitutes each value
    of GF(q), or the one value ``fixed`` (mid-run assignments) gives it, into
    every member; zero members drop out, and a nonzero constant ends the
    branch, so a member univariate in the variable prunes its non-roots.
    Exact for any basis; fast when the basis is triangular.
    """
    members = list(basis)
    for p in members:
        require_ring(ring, p)
    if ring.order != "lex":
        raise InvalidSettingError("back-substitution reads lex bases")
    fixed = dict(fixed or {})
    q, n = ring.q, ring.n
    sols: set = set()

    def extend(i, point, polys):
        if i < 0:
            sols.add(tuple(point))
            return
        for a in [fixed[i]] if i in fixed else range(q):
            substitute = substitution(ring, {i: a})
            rest = [r for r in map(substitute, polys) if not r.is_zero]
            if not inconsistency_check(rest):
                point[i] = a
                extend(i - 1, point, rest)

    extend(n - 1, [0] * n, members)
    return sols


def solutions_from_report(report, ring: PolyRing) -> set:
    """The zero set implied by a finished run (lex order required)."""
    if report.status is Status.INCONSISTENT:
        return set()
    return solutions_from_lex_basis(report.basis, ring, fixed=report.assignments)

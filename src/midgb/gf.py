"""Arithmetic in prime fields GF(q).

Elements are plain ints kept in canonical range [0, q). The hot loops elsewhere
inline the ``% q`` arithmetic; this class is the validated entry point and the
single place that knows how to invert.
"""

from __future__ import annotations

from .errors import NonPrimeFieldError, ZeroInverseError


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (fine for machine-word q)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """GF(q) for prime q."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or not is_prime(q):
            raise NonPrimeFieldError(f"field size must be a prime integer, got {q!r}")
        self.q = q

    def normalize(self, a: int) -> int:
        return a % self.q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def neg(self, a: int) -> int:
        return (-a) % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroInverseError(f"0 has no inverse in GF({self.q})")
        return pow(a, -1, self.q)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        return pow(a % self.q, e, self.q)

    def elements(self) -> range:
        return range(self.q)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"GF({self.q})"

"""Arithmetic in prime fields GF(q).

Elements are plain ints kept in canonical range [0, q). The hot loops elsewhere
inline the ``% q`` arithmetic; this class is the validated entry point and the
single place that knows how to invert.
"""

from __future__ import annotations

from .errors import NonPrimeFieldError, TooLargeError, ZeroInverseError


# Miller-Rabin on these bases is exact below the limit (Sorenson and Webster 2015)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below PRIME_TEST_LIMIT."""
    if n >= PRIME_TEST_LIMIT:
        raise TooLargeError(f"primality of {n} is not decided at or above {PRIME_TEST_LIMIT}")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(q) for prime q."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or not is_prime(q):
            raise NonPrimeFieldError(f"field size must be a prime integer, got {q!r}")
        self.q = q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroInverseError(f"0 has no inverse in GF({self.q})")
        return pow(a, -1, self.q)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"GF({self.q})"

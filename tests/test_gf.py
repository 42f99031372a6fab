import time

import pytest
from hypothesis import assume, given, strategies as st

from midgb import PolyRing
from midgb.errors import NonPrimeFieldError, TooLargeError
from midgb.gf import PRIME_TEST_LIMIT, is_prime


def test_is_prime_small_values():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for k in range(-3, 32):
        assert is_prime(k) == (k in primes)


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(10 ** 5) if is_prime(n)] == [n for n in range(10 ** 5) if trial(n)]


@pytest.mark.parametrize(
    "n",
    [
        2047,  # strong pseudoprime to base 2
        3215031751,  # to bases 2, 3, 5 and 7
        3825123056546413051,  # to every prime base up to 23
        318665857834031151167461,  # to every prime base up to 37
        (10 ** 6 + 3) * (10 ** 12 + 39),  # two primes
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_large_prime_fields_are_built_at_once():
    """Trial division took 0.6 s at 10^14 + 31 and grows as the square root."""
    start = time.perf_counter()
    ring = PolyRing(2 ** 61 - 1, ["x"])
    assert time.perf_counter() - start < 1.0
    assert ring.q == 2 ** 61 - 1
    assert is_prime(10 ** 14 + 31)


def test_is_prime_refuses_sizes_past_its_bound():
    is_prime(PRIME_TEST_LIMIT - 1)
    for n in (PRIME_TEST_LIMIT, 2 ** 89 - 1):
        with pytest.raises(TooLargeError):
            is_prime(n)
    with pytest.raises(TooLargeError):
        PolyRing(2 ** 89 - 1, ["x"])


@pytest.mark.parametrize("q", [0, 1, 4, 6, 9, 15, 91, 3.0])
def test_rejects_non_prime_modulus(q):
    with pytest.raises(NonPrimeFieldError):
        PolyRing(q, ["x"])


def test_fields_compare_by_modulus():
    assert PolyRing(3, ["x"]) == PolyRing(3, ["x"])
    assert PolyRing(3, ["x"]) != PolyRing(5, ["x"])
    assert len({PolyRing(3, ["x"]), PolyRing(3, ["x"]), PolyRing(5, ["x"])}) == 2


@given(
    q=st.sampled_from([2, 3, 5, 7, 11, 13]),
    a=st.integers(min_value=-100, max_value=100),
)
def test_field_axioms_hold(q, a):
    ring = PolyRing(q, ["x"])
    assume(a % q != 0)
    assert ring.constant(a).monic() == ring.one

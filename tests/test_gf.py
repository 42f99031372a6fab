import pytest
from hypothesis import assume, given, strategies as st

from midgb.errors import NonPrimeFieldError, ZeroInverseError
from midgb.gf import PrimeField, is_prime


def test_is_prime_small_values():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for k in range(-3, 32):
        assert is_prime(k) == (k in primes)


@pytest.mark.parametrize("q", [0, 1, 4, 6, 9, 15, 91])
def test_rejects_non_prime_modulus(q):
    with pytest.raises(NonPrimeFieldError):
        PrimeField(q)


def test_inverse_of_zero_raises():
    f = PrimeField(5)
    with pytest.raises(ZeroInverseError):
        f.inv(0)


def test_fields_compare_by_modulus():
    assert PrimeField(3) == PrimeField(3)
    assert PrimeField(3) != PrimeField(5)
    assert len({PrimeField(3), PrimeField(3), PrimeField(5)}) == 2


@given(
    q=st.sampled_from([2, 3, 5, 7, 11, 13]),
    a=st.integers(min_value=-100, max_value=100),
)
def test_field_axioms_hold(q, a):
    f = PrimeField(q)
    assume(a % q != 0)
    assert a * f.inv(a) % q == 1

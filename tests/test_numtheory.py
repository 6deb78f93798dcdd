import math

import pytest
from hypothesis import given, settings, strategies as st

from galois_moebius.errors import DomainError, NotPrime
from galois_moebius.numtheory import (
    divisors,
    euler_phi,
    factorize,
    is_prime,
    moebius_mu,
    order_from_multiple,
    power,
    prime_power_split,
)


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    for n in range(61):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_mersenne():
    assert not is_prime(561)
    assert not is_prime(1105)
    assert is_prime(2**31 - 1)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_factorize_known():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    assert factorize(2**61 - 1) == {2**61 - 1: 1}


def test_factorize_splits_a_semiprime_by_pollard_rho(monkeypatch):
    # both factors lie above the trial-division primes, so only rho can
    # split the product
    from galois_moebius import numtheory

    rho = numtheory._pollard_rho
    seen = []

    def counted(n):
        seen.append(n)
        return rho(n)

    monkeypatch.setattr(numtheory, "_pollard_rho", counted)
    assert factorize(1000003 * 1000033) == {1000003: 1, 1000033: 1}
    assert factorize(65537**2 * (2**31 - 1)) == {65537: 2, 2**31 - 1: 1}
    assert seen


def test_factorize_reconstructs():
    for n in (97, 1024, 3**7 * 11, 2**16 + 1, 10**12 + 39):
        fac = factorize(n)
        prod = 1
        for p, k in fac.items():
            assert is_prime(p)
            prod *= p**k
        assert prod == n


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    ds = divisors(360)
    assert len(ds) == 24
    assert sum(ds) == 1170


def test_euler_phi():
    table = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 10: 4, 12: 4, 360: 96}
    for n, want in table.items():
        assert euler_phi(n) == want


def test_moebius_mu():
    want = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert [moebius_mu(n) for n in range(1, 13)] == want
    # the defining identity: sum over divisors detects n == 1
    for n in range(1, 50):
        assert sum(moebius_mu(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_prime_power_split():
    assert prime_power_split(2) == (2, 1)
    assert prime_power_split(81) == (3, 4)
    assert prime_power_split(1024) == (2, 10)
    with pytest.raises(NotPrime):
        prime_power_split(12)
    with pytest.raises(NotPrime):
        prime_power_split(1)


@pytest.mark.parametrize("fn", [factorize, divisors, euler_phi, moebius_mu])
@pytest.mark.parametrize("n", [0, -4])
def test_nonpositive_input_is_a_domain_error(fn, n):
    with pytest.raises(DomainError):
        fn(n)


@settings(max_examples=200, deadline=None)
@given(x=st.integers(0, 10**12), e=st.integers(0, 10**4), n=st.integers(1, 10**9))
def test_power_matches_builtin_pow(x, e, n):
    assert power(x % n, e, lambda a, b: a * b % n, 1 % n) == pow(x, e, n)


def test_power_squares_with_the_same_object():
    seen = []

    def mul(a, b):
        seen.append(a is b)
        return a + b

    assert power(3, 13, mul, 0) == 39
    # 13 = 0b1101: three squarings, three multiplications into the result
    assert seen.count(True) == 3 and seen.count(False) == 3


@pytest.mark.parametrize("e", [-1, 2.0, "3", None])
def test_power_rejects_a_bad_exponent(e):
    with pytest.raises(DomainError):
        power(2, e, lambda a, b: a * b, 1)


def test_order_from_multiple_matches_bruteforce():
    for n in range(2, 120):
        for x in range(1, n):
            if math.gcd(x, n) != 1:
                continue
            want = next(k for k in range(1, n) if pow(x, k, n) == 1)
            assert order_from_multiple(euler_phi(n), lambda k: pow(x, k, n) == 1) == want
            # any multiple of the order serves, not just the group order
            assert order_from_multiple(6 * euler_phi(n), lambda k: pow(x, k, n) == 1) == want

import math

import pytest

from seqfam.intmath import (
    as_prime_power,
    divisor_phis,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    iter_prime_powers,
    mobius,
    prime_factors,
)


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 41, 997, 1021, 1723]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in (0, 1, 4, 9, 15, 1024, 1681))


def test_factorize():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(2**20 - 1) == {3: 1, 5: 2, 11: 1, 31: 1, 41: 1}
    assert prime_factors(40) == [2, 5]


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(15) == [1, 3, 5, 15]


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 6, 10, 17)] == [1, 1, 2, 4, 16]
    # multiplicative on coprime arguments
    assert euler_phi(15) == euler_phi(3) * euler_phi(5)


def test_mobius():
    assert [mobius(n) for n in (1, 2, 4, 6, 30, 12)] == [1, -1, 0, 1, -1, 0]


def test_as_prime_power():
    assert as_prime_power(16) == (2, 4)
    assert as_prime_power(41) == (41, 1)
    assert as_prime_power(27) == (3, 3)
    with pytest.raises(ValueError):
        as_prime_power(12)


def test_iter_prime_powers():
    got = list(iter_prime_powers(2, 16))
    qs = [q for _, _, q in got]
    assert qs == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
    assert (2, 3, 8) in got


def test_divisor_phis_small():
    assert divisor_phis(1) == {1: 1}
    assert divisor_phis(12) == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}
    for n in range(1, 400):
        assert list(divisor_phis(n)) == [d for d in range(1, n + 1) if n % d == 0]


def test_divisor_phis_equal_euler_phi_on_every_divisor_of_q_power_minus_one():
    # The phi values the closed-form counts use: every divisor of q**f - 1, q <= 64, f <= 6.
    checked = 0
    for _, _, q in iter_prime_powers(2, 64):
        for f in range(1, 7):
            n = q**f - 1
            phis = divisor_phis(n)
            assert list(phis) == sorted(phis) and all(n % d == 0 for d in phis)
            assert len(phis) == math.prod(e + 1 for e in factorize(n).values())
            assert all(phi == euler_phi(d) for d, phi in phis.items())
            checked += len(phis)
    assert checked > 10**4

import math

import pytest

from seqfam import polys
from seqfam.intmath import (
    as_prime_power,
    divisor_phis,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    iter_prime_powers,
    mobius,
    power,
    prime_factors,
)

POWER_EXPONENTS = (0, 1, 2, 3, 2**20 - 1, 2**20)


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 41, 997, 1021, 1723, 2**31 - 1]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in (-7, 0, 1, 4, 9, 15, 1024, 1681, 65537 * 65521))


def test_power_matches_pow_over_the_integers_mod_p():
    p = 1048573
    for x in (0, 1, 2, 12345, p - 1):
        assert [power(lambda a, b: a * b % p, x, k, 1) for k in POWER_EXPONENTS] == [
            pow(x, k, p) for k in POWER_EXPONENTS
        ]


def test_power_matches_repeated_poly_mul_over_gf16(gf16, gf256):
    # Modulo gf256's irreducible quadratic over GF(16) the units form a group of order 255,
    # so a unit's k-th power is its (k mod 255)-th, which repeated products reach.
    def mul_mod(a, b):
        return polys.mod(gf16, polys.mul(gf16, a, b), gf256.modulus)

    for x in ((0, 1), (3, 7), (5,)):
        reduced, plain = [(1,)], [(1,)]
        while len(reduced) < 255:
            reduced.append(mul_mod(reduced[-1], x))
        while len(plain) < 4:
            plain.append(polys.mul(gf16, plain[-1], x))
        for k in POWER_EXPONENTS:
            assert power(mul_mod, x, k, (1,)) == reduced[k % 255]
            assert polys.pow_mod(gf16, x, k, gf256.modulus) == reduced[k % 255]
        for k in POWER_EXPONENTS[:4]:
            assert polys.pow_(gf16, x, k) == plain[k]
    assert [polys.pow_(gf16, (0, 0), k) for k in POWER_EXPONENTS] == [(1,)] + [(0,)] * 5


def test_power_forms_no_product_with_one_and_no_square_past_the_top_bit():
    for k in (*POWER_EXPONENTS, 5, 6, 0b1011011):
        products = []

        def mul(a, b):
            assert a is not None and b is not None  # one is None here: a product with it would fail
            products.append((a, b))
            return a + b

        assert power(mul, 1, k, None) == (k if k else None)
        assert len(products) == (k.bit_length() - 1 + k.bit_count() - 1 if k else 0)
    with pytest.raises(ValueError):
        power(lambda a, b: a + b, 1, -1, None)


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

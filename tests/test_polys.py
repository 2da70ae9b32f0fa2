import numpy as np

from seqfam import polys
from seqfam.fields import build_field


def test_trim_and_degree():
    assert polys.trim((1, 2, 0, 0)) == (1, 2)
    assert polys.trim((0, 0)) == (0,)
    assert polys.degree((0,)) == -1
    assert polys.degree((3,)) == 0
    assert polys.degree((0, 0, 1)) == 2


def test_mul_and_divmod_roundtrip(gf16):
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = tuple(int(x) for x in rng.integers(0, 16, 5))
        b = tuple(int(x) for x in rng.integers(0, 16, 3))
        if polys.is_zero(b):
            continue
        quot, rem = polys.divmod_(gf16, a, b)
        back = polys.add(gf16, polys.mul(gf16, quot, b), rem)
        assert back == polys.trim(a)
        assert polys.degree(rem) < max(polys.degree(b), 1)


def test_gcd_of_multiples(gf5):
    g = (2, 1)  # x + 2
    a = polys.mul(gf5, g, (1, 1, 1))  # x^2 + x + 1 is irreducible mod 5
    b = polys.mul(gf5, g, (4, 1))  # x + 4 does not divide x^2 + x + 1
    got = polys.gcd(gf5, a, b)
    assert got == polys.monic(gf5, g)


def test_eval_consistency(gf16):
    poly = (3, 0, 7, 1)
    xs = np.arange(16)
    vec = polys.eval_arr(gf16, poly, xs)
    for x in range(16):
        assert vec[x] == polys.eval_at(gf16, poly, x)


def test_is_irreducible_known_cases(gf5):
    gf2 = build_field(2, 1)
    assert polys.is_irreducible(gf2, (1, 1, 1))  # x^2 + x + 1
    assert not polys.is_irreducible(gf2, (1, 0, 1))  # (x+1)^2
    assert not polys.is_irreducible(gf5, (1, 0, 1))  # x^2 + 1 has roots mod 5
    assert polys.is_irreducible(gf5, (1, 1, 1))
    assert polys.is_irreducible(gf5, (3, 1))  # any linear
    assert not polys.is_irreducible(gf5, (4,))  # constants are not


def test_pow_x_mod(gf5):
    mod = (1, 1, 1)
    assert polys.pow_mod(gf5, (0, 1), 25, mod) == polys.mod(gf5, (0, 1), mod)  # x^(q^2) == x
    assert polys.pow_mod(gf5, (2, 3), 24, mod) == (1,)  # every unit of GF(25) has order dividing 24


def test_format_coeffs():
    assert polys.format_coeffs((1, 0, 3)) == "1,0,3"
    assert polys.format_coeffs((0, 1, 0)) == "0,1"

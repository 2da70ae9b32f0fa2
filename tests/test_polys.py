import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    assert polys.pow_x_mod(gf5, 25, mod) == polys.mod(gf5, (0, 1), mod)  # x^(q^2) == x


def test_format_coeffs():
    assert polys.format_coeffs((1, 0, 3)) == "1,0,3"
    assert polys.format_coeffs((0, 1, 0)) == "0,1"


@pytest.fixture(scope="module")
def coprime_fields():
    return {5: build_field(5, 1), 9: build_field(3, 2), 16: build_field(2, 4)}


@st.composite
def row_pairs(draw):
    """(q, a rows, b rows, common factor); the factor, if any, multiplies both rows."""
    q = draw(st.sampled_from([5, 9, 16]))
    n_rows, width_a, width_b = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    coeff = st.integers(0, q - 1)

    def rows(width):
        return draw(st.lists(st.lists(coeff, min_size=width, max_size=width), min_size=n_rows, max_size=n_rows))

    common = draw(st.one_of(st.just(None), st.lists(coeff, min_size=2, max_size=3)))
    return q, rows(width_a), rows(width_b), common


def _padded(rows):
    width = max(len(r) for r in rows)
    return np.array([list(r) + [0] * (width - len(r)) for r in rows], dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(case=row_pairs())
@example(case=(5, [[0, 0, 0], [0]], [[2, 1, 0], [3]], None))  # all-zero a
@example(case=(9, [[3, 0, 1], [4, 0, 0], [0, 0, 0]], [[3, 0, 1], [4, 0, 0], [0, 0, 0]], None))  # a == b
@example(case=(16, [[1, 1], [0, 5]], [[6, 0, 7], [3, 9, 2]], None))  # non-monic b
@example(case=(5, [[3], [0], [2], [0]], [[4], [2], [0], [0]], None))  # constant rows
def test_coprime_rows_matches_gcd(coprime_fields, case):
    q, a_rows, b_rows, common = case
    ctx = coprime_fields[q]
    if common is not None:
        a_rows = [polys.mul(ctx, r, common) for r in a_rows]
        b_rows = [polys.mul(ctx, r, common) for r in b_rows]
    a, b = _padded(a_rows), _padded(b_rows)
    a_before, b_before = a.copy(), b.copy()
    got = polys.coprime_rows(ctx, a, b)
    assert got.tolist() == [polys.degree(polys.gcd(ctx, x, y)) == 0 for x, y in zip(a_rows, b_rows)]
    assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


def test_coprime_rows_edge_cases(gf5):
    a = np.array([[0, 0, 0], [1, 1, 0], [3, 0, 0], [0, 0, 0], [2, 4, 0]])
    b = np.array([[2, 1, 0], [1, 1, 0], [0, 0, 0], [0, 0, 0], [3, 0, 3]])
    # gcd(0, x + 2) = x + 2; a == b; gcd(3, 0) = 1; gcd(0, 0) = 0; 3x^2 + 3 and 4x + 2 share the root 2
    assert polys.coprime_rows(gf5, a, b).tolist() == [False, False, True, False, False]

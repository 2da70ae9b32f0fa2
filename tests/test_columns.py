import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqfam
from seqfam import polys
from seqfam.columns import (
    column_from_long_sequence,
    column_polynomial,
    column_sequence,
    column_symbols,
    coset,
    coset_leaders,
    frobenius_poly,
    orbit_products,
    root_products,
    shifted_column_polynomial,
)
from seqfam.errors import ParameterError
from seqfam.family import coset_representatives
from seqfam.fields import build_extension, build_field
from seqfam.sequences import sidelnikov_sequence, sidelnikov_sequence_ext


def test_coset_basics():
    assert coset(0, 7, 3).members == (0,)
    c = coset(1, 5, 4)
    assert set(c.members) == {1, 4} and c.representative == 1 and c.size == 2
    with pytest.raises(ParameterError):
        coset(5, 5, 4)


@pytest.mark.parametrize(
    "call",
    [
        "coset(1, 4, 2)",
        "coset_leaders(4, 2)",
        "list(orbit_products(build_extension(build_field(2, 1), 2), [1], 4, 1, 0))",
    ],
    ids=["coset", "coset_leaders", "orbit_products"],
)
def test_orbits_refuse_a_q_that_is_not_a_unit(call):
    # 2 is no unit mod 4: the orbit 1 -> 2 -> 0 -> 0 never returns to 1, and no power of 2 is 1 mod 4,
    # so an orbit walk would never end. A fresh interpreter, killed after 10 s, turns a hang into a failure.
    script = (
        "from seqfam.columns import coset, coset_leaders, orbit_products\n"
        "from seqfam.errors import ParameterError\n"
        "from seqfam.fields import build_extension, build_field\n"
        f"try:\n    {call}\nexcept ParameterError as exc:\n    print(exc)\n"
    )
    env = {"PYTHONPATH": str(Path(seqfam.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stdout, done.stderr) == (0, "q = 2 is not a unit mod 4\n", "")


def test_coset_pairs_for_degree_two():
    # mod q+1 the orbit of l is {l, q+1-l}
    q = 16
    for l in range(1, q + 1):
        members = set(coset(l % (q + 1), q + 1, q).members)
        assert members == {l % (q + 1), (q + 1 - l) % (q + 1)}


@pytest.mark.parametrize("modulus", [(1 << 20) - 1, (1 << 20) + 1])
def test_coset_minima_around_the_int32_switch(modulus):
    # coset_leaders works in int32 while modulus * q < 2**31: modulus * 2048 is
    # just below 2**31 for the first modulus and just above it for the second
    q = 2048
    reps, sizes = coset_leaders(modulus, q)
    assert reps.dtype == sizes.dtype == np.int64
    assert np.all(np.diff(reps) > 0) and sizes.sum() == modulus
    rng = np.random.default_rng(6)
    sample = np.r_[0, 1, rng.integers(0, modulus, 200), modulus - 200 : modulus]
    orbits = [coset(int(l), modulus, q) for l in sample]
    at = np.searchsorted(reps, [c.representative for c in orbits])
    assert reps[at].tolist() == [c.representative for c in orbits]
    assert sizes[at].tolist() == [c.size for c in orbits]


@pytest.mark.parametrize("M", [2, 4])
def test_column_vs_strided_extraction(gf25, M):
    long_seq = sidelnikov_sequence_ext(gf25, M)
    for l in range(gf25.norm_ratio):
        a = column_sequence(gf25, l, M)
        b = column_from_long_sequence(gf25, l, M, long_seq)
        assert np.array_equal(a.symbols, b.symbols)


def test_column_vs_strided_extraction_d3(gf64_over4):
    long_seq = sidelnikov_sequence_ext(gf64_over4, 3)
    for l in range(gf64_over4.norm_ratio):
        a = column_sequence(gf64_over4, l, 3)
        b = column_from_long_sequence(gf64_over4, l, 3, long_seq)
        assert np.array_equal(a.symbols, b.symbols)


def test_column_zero_is_degree_times_base(gf25, gf64_over4):
    for ext, M in ((gf25, 4), (gf64_over4, 3)):
        base = sidelnikov_sequence(ext.base, M)
        v0 = column_symbols(ext, 0, M)
        assert np.array_equal(v0, (ext.d * base.symbols) % M)


def test_column_q_multiple_identity(gf25, gf256):
    for ext, M in ((gf25, 4), (gf256, 5)):
        for l in range(1, ext.norm_ratio):
            assert np.array_equal(
                column_symbols(ext, l, M), column_symbols(ext, l * ext.q, M)
            )


def test_columns_congruent_mod_count_are_shifts(gf25):
    m = gf25.norm_ratio
    for l in range(1, m):
        a = column_symbols(gf25, l, 4)
        b = column_symbols(gf25, l + 2 * m, 4)
        assert np.array_equal(b, np.roll(a, -2))


def test_reflection_shift_identity(gf25, gf64_over4, gf256):
    for ext, M in ((gf25, 4), (gf64_over4, 3), (gf256, 5)):
        q, m = ext.q, ext.norm_ratio
        ratio_small = (q ** (ext.d - 1) - 1) // (q - 1)
        for l in range(1, q + 1):
            lhs = column_symbols(ext, (m - ratio_small * l) % m, M)
            rhs = np.roll(column_symbols(ext, l % m, M), l - 1)
            assert np.array_equal(lhs, rhs), (ext.q, ext.d, l)


def test_column_range_checks(gf25):
    with pytest.raises(ParameterError):
        column_sequence(gf25, 6, 4)
    with pytest.raises(ParameterError):
        column_sequence(gf25, -1, 4)


def test_column_symbols_of_an_index_array_stack_the_single_calls(gf25, gf64_over4, gf256):
    for ext, M in ((gf25, 4), (gf64_over4, 3), (gf256, 5)):
        m, n = ext.norm_ratio, ext.size - 1
        # column 0, every column, l >= m, multiples of size - 1, and one index twice
        ls = [0, *range(m), m, m + 1, 5 * m - 1, n, 2 * n, 3 * n + 1, 0]
        single = [column_symbols(ext, l, M) for l in ls]
        assert all(s.shape == (ext.q - 1,) for s in single)
        assert np.array_equal(column_symbols(ext, ls, M), np.stack(single))
        assert np.array_equal(column_symbols(ext, np.array(ls), M), np.stack(single))
        assert column_symbols(ext, [], M).shape == (0, ext.q - 1)
        assert np.array_equal(column_symbols(ext, np.int64(3), M), single[4])


def test_column_symbols_refuse_a_negative_index(gf25):
    for l in (-1, [0, 3, -1], np.array([-5])):
        with pytest.raises(ParameterError):
            column_symbols(gf25, l, 4)


def test_column_polynomial_structure(gf25, gf64_over4):
    for ext in (gf25, gf64_over4):
        base = ext.base
        for l in range(ext.norm_ratio):
            cp = column_polynomial(ext, l)
            assert cp.norm_poly[-1] == base.pow_(base.beta, l)
            assert cp.norm_poly[0] == 1
            alpha_l = int(ext.exp[l % (ext.size - 1)])
            assert cp.norm_poly[1] == ext.trace(alpha_l)
            assert len(cp.norm_poly) - 1 == ext.d
            assert len(cp.min_poly) - 1 == cp.full_coset.size
            assert cp.full_coset.size % cp.reduced_coset.size == 0
            assert ext.d % cp.full_coset.size == 0


def test_column_zero_polynomial(gf25, gf64_over4):
    for ext in (gf25, gf64_over4):
        cp = column_polynomial(ext, 0)
        assert cp.min_poly == (1, 1)  # x + 1
        assert cp.full_coset.size == 1
        assert cp.norm_poly == polys.pow_(ext, (1, 1), ext.d)


def test_orbit_product_rebuilds_min_poly(gf25, gf256, gf64_over4):
    subproduct_seen = False
    for ext in (gf25, gf256, gf64_over4):
        for l in range(ext.norm_ratio):
            cp = column_polynomial(ext, l)
            rebuilt = (1,)
            for i in range(cp.full_coset.size // cp.reduced_coset.size):
                rebuilt = polys.mul(
                    ext, rebuilt, frobenius_poly(ext, cp.orbit_poly, i * cp.reduced_coset.size)
                )
            assert polys.trim(rebuilt) == polys.trim(cp.min_poly)
            if cp.reduced_coset.size < cp.full_coset.size:
                subproduct_seen = True
    assert subproduct_seen


def test_min_poly_root_free_in_base_field(gf25, gf256, gf64_over4):
    for ext in (gf25, gf256, gf64_over4):
        for l in range(1, ext.norm_ratio):
            cp = column_polynomial(ext, l)
            assert all(
                polys.eval_at(ext.base, cp.min_poly, x) != 0 for x in range(ext.q)
            ), (ext.q, ext.d, l)


def test_min_poly_degree_equals_conjugate_orbit(gf64_over4):
    ext = gf64_over4
    for l in range(1, ext.norm_ratio):
        cp = column_polynomial(ext, l)
        root = ext.neg(int(ext.exp[(-l) % (ext.size - 1)]))
        seen = {root}
        cur = ext.frobenius(root)
        while cur != root:
            seen.add(cur)
            cur = ext.frobenius(cur)
        assert len(seen) == cp.full_coset.size
        assert polys.eval_at(ext, cp.min_poly, root) == 0


def test_symbols_from_polynomial(gf25):
    # v_l(t) is the base-field log of the column polynomial at beta**t
    base = gf25.base
    for l in range(gf25.norm_ratio):
        cp = column_polynomial(gf25, l)
        vals = polys.eval_arr(base, cp.norm_poly, base.exp)
        assert np.array_equal(base.log[vals] % 4, column_symbols(gf25, l, 4))


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


@pytest.fixture(scope="module")
def gf4096_over16(gf16):
    return build_extension(gf16, 3)


def test_column_polynomials_golden(gf4096_over16):
    # Pinned from the factor-by-factor tuple products that root_products replaced.
    ext = gf4096_over16
    reps = coset_representatives(16, 3)
    cps = [column_polynomial(ext, l) for l in reps]
    assert len(reps) == 93
    assert _digest([[list(cp.norm_poly), list(cp.min_poly), list(cp.orbit_poly)] for cp in cps]) == (
        "3b7bdd50edf028dc328eea98a48b0b25407c6cc68b65f840b7b61c6aa3766515"
    )
    golden_shifted = {
        0: "fbe0e14785dd66f80fb6a0d49d115dacc6e3cdecce856e6e14f172f9c9b4a69d",
        1: "5248f3df34d50135c4fa1575a218802288b145ffb11e29a628a322d793a54b8c",
        7: "8a8c26d765fe3201510245461afb16f73fcc762ed3a14cbf3ab4043e9b079d82",
    }
    for tau, digest in golden_shifted.items():
        assert _digest([list(shifted_column_polynomial(ext, l, tau)) for l in reps]) == digest


def test_orbit_products_give_every_column_s_min_poly(gf25, gf256, gf64_over4):
    for ext in (gf25, gf256, gf64_over4):
        m, found = ext.norm_ratio, {}
        for rows, coeff in orbit_products(ext, range(m), ext.size - 1, -1, 0):
            found.update(zip(rows.tolist(), map(tuple, coeff.tolist())))
        assert sorted(found) == list(range(m))
        assert all(found[l] == column_polynomial(ext, l).min_poly for l in range(m))


@pytest.fixture(scope="module")
def gf125():
    return build_extension(build_field(5, 1), 3)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_root_products_match_linear_factor_products(gf256, gf125, data):
    ext = data.draw(st.sampled_from([gf256, gf125]))
    rows = data.draw(st.integers(1, 4))
    s = data.draw(st.integers(1, 6))
    row = st.lists(st.integers(-3 * ext.size, 3 * ext.size), min_size=s, max_size=s)
    exponents = data.draw(st.lists(row, min_size=rows, max_size=rows))
    products = root_products(ext, exponents)
    assert products.shape == (rows, s + 1)
    for row, exps in zip(products.tolist(), exponents):
        expected = (1,)
        for e in exps:
            expected = polys.mul(ext, expected, (int(ext.exp[e % (ext.size - 1)]), 1))
        assert tuple(row) == expected

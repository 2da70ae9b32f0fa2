import numpy as np
import pytest

from seqfam.counting import (
    a_f_set,
    asymptotic_size,
    constant_term_counts,
    count_report,
    cyclotomic_factors,
    deviation_bound_holds,
    irreducible_total,
    lambda_estimate_gap,
    lambda_size,
    lambda_size_formula,
    lambda_size_parts,
    yucas_count,
)
from seqfam.errors import ParameterError
from seqfam.family import coset_representatives
from seqfam.fields import build_extension, build_field
from seqfam.intmath import as_prime_power


def test_a_f_set_examples(gf5):
    assert [r for r, _, _ in a_f_set(4, 1)] == [1, 3]
    assert [r for r, _, _ in a_f_set(7, 1)] == [1, 2, 3, 6]
    # divisors of 15 that do not divide 3
    assert [(r, d, m) for r, d, m in a_f_set(4, 2)] == [(5, 5, 1), (15, 5, 3)]
    # r = 1 belongs to A_1 with both parts trivial
    assert a_f_set(5, 1)[0] == (1, 1, 1)


def test_yucas_count_basics(gf13, gf16):
    for ctx in (gf13, gf16):
        for b in range(1, ctx.q):
            assert yucas_count(ctx, 1, b) == 1
    with pytest.raises(ParameterError):
        yucas_count(gf13, 2, 0)


def test_yucas_against_enumeration_small(gf13, gf16, gf5):
    for ctx, degrees in ((gf13, (1, 2, 3)), (gf16, (1, 2, 3, 4)), (gf5, (1, 2, 3, 4, 5))):
        for f in degrees:
            oracle = constant_term_counts(ctx, f)
            for b in range(1, ctx.q):
                assert oracle.get(b, 0) == yucas_count(ctx, f, b), (ctx.q, f, b)
            total = sum(oracle.values()) + (1 if f == 1 else 0)
            assert total == irreducible_total(ctx.q, f)


def test_deviation_bound(gf13):
    for f in (1, 2, 3):
        for b in range(1, 13):
            assert deviation_bound_holds(13, f, yucas_count(gf13, f, b))


def test_deviation_bound_formula_values_to_table_limit():
    # beyond enumeration reach, the bound still holds for formula values
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        ctx = build_field(*as_prime_power(q))
        f = 1
        while q**f <= 1 << 20:
            for b in range(1, q):
                assert deviation_bound_holds(q, f, yucas_count(ctx, f, b)), (q, f, b)
            f += 1


def test_lambda_size_identities():
    assert lambda_size(4, 2) == 3
    for q in (4, 8, 16, 13, 25, 27, 49):
        assert lambda_size(q, 2) - 1 == (q + 1) // 2
    assert lambda_size(41, 3) == 575
    assert lambda_size(32, 3) == 353


def test_lambda_size_matches_cosets():
    for q, d in ((4, 2), (4, 3), (5, 2), (16, 2), (8, 3), (9, 2), (3, 5)):
        assert lambda_size_formula(q, d) == len(coset_representatives(q, d))


def test_lambda_parts_orders_divide(gf16):
    parts = lambda_size_parts(gf16, 4)
    for (e, m), _count in parts.items():
        assert (4 // e) % m == 0
        # witnesses: an element of that order evaluates to 1 at power d/e
        if (16 - 1) % m == 0:
            t = (16 - 1) // m
            b = int(gf16.exp[t % 15])
            assert gf16.pow_(b, m) == 1


def test_count_report(gf16):
    rep = count_report(16, 2, 5, gf16)
    assert rep.lambda_formula == rep.lambda_cosets == 9
    assert rep.family_size == 32
    assert rep.asymptotic == pytest.approx(32.0)
    assert rep.ratio == pytest.approx(1.0)
    d = rep.to_dict()
    assert d["breakdown"]["e=1,m=1"] == 1
    with pytest.raises(ParameterError):
        count_report(16, 2, 4, gf16)


def test_asymptotic_size():
    assert asymptotic_size(41, 3, 2) == pytest.approx(1681 / 3)
    with pytest.raises(ParameterError):
        asymptotic_size(41, 3, 1)


def test_lambda_estimate_gap():
    for q, d in ((16, 2), (41, 3), (32, 3), (64, 3)):
        gap, allowance = lambda_estimate_gap(q, d)
        assert gap <= allowance


def test_cyclotomic_factors_verified(gf25, gf256, gf64_over4):
    for ext in (gf25, gf256, gf64_over4):
        facs = cyclotomic_factors(ext, deep=True)
        assert len(facs) == lambda_size_formula(ext.q, ext.d)
        assert sum(len(f) - 1 for f in facs) == ext.norm_ratio
        assert all(f[-1] == 1 for f in facs)


def test_constant_term_counts_limit(gf16):
    with pytest.raises(ParameterError):
        constant_term_counts(gf16, 10, limit=1 << 16)


@pytest.mark.parametrize("f", [0, -1])
def test_constant_term_counts_rejects_degree(gf13, f):
    with pytest.raises(ParameterError, match="f must be >= 1"):
        constant_term_counts(gf13, f)


@pytest.mark.parametrize(
    "func, args",
    [(lambda_size, (6, 2)), (lambda_size, (1, 2)), (count_report, (6, 2, 5))],
    ids=["lambda_size-6", "lambda_size-1", "count_report-6"],
)
def test_not_a_prime_power(func, args):
    with pytest.raises(ParameterError, match=f"q={args[0]} is not a prime power"):
        func(*args)


def test_oracle_degree_one(gf13):
    counts = constant_term_counts(gf13, 1)
    # x + c has constant c = -b, every nonzero b appears exactly once
    assert counts == {b: 1 for b in range(1, 13)}

import hashlib
import json
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from seqfam import columns, counting, kernels, polys
from seqfam.counting import (
    _operation_tables,
    _reducible_mask,
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
from seqfam.errors import InternalCheckError, ParameterError, TableLimitError
from seqfam.family import coset_representatives
from seqfam.fields import build_field
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
    for b in (0, -1, 13):  # b must be a nonzero element, an encoding in [1, q)
        with pytest.raises(ParameterError, match="b must be a nonzero field element"):
            yucas_count(gf13, 2, b)


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


# sha256 of json.dumps of the factor list. (2, 1, 20), (2, 4, 5) and (2, 5, 4)
# were pinned from the one-orbit-per-row root_products; the others from the
# coset-by-coset construction that root_products replaced.
GOLDEN_FACTORS = {
    (2, 1, 20): (52487, "a295cce71735faa866656508a613b0015d282cbc45a014a30aa3d87817555182"),
    (2, 4, 5): (13985, "2eb642a19ba13b3bf3ff3fb846be378041a7e3a31cd14a456f83e19ba81ea108"),
    (2, 5, 4): (8465, "ba72460220bd4c806bbef951a5319dea859b5cf8721dccac0cf118a47ec20717"),
    (2, 2, 10): (34989, "91ea4049ce0045af4c0e9f7fa4cd097bdfe08d75880b69b888e5f65b52afc004"),
    (2, 10, 2): (513, "a19947a4bda3f6ff3f7f67a2121675e9434528f604830d1549141883042eda6c"),
    (3, 6, 2): (366, "95ccea5c063ae676d79607f306ce908c70f7f7db68e892dd7359c612953d3cca"),
    (977, 1, 2): (490, "f4cdf584af0d9c1053c7554f41d1cbe0ab15cbe32a871e70bc55e1ae500ecec0"),
    (3, 2, 3): (31, "bfcad523c688c8bb48e6836987a5ec07eae26453992937010fe40bcaeee3adc0"),
    (5, 1, 4): (44, "66f387c562497f085bb25a0c4502c277f51c98f455fef944747222b88e87ed06"),
}


@pytest.mark.parametrize("p, n, d", sorted(GOLDEN_FACTORS))
def test_cyclotomic_factors_golden(built, p, n, d):
    factors = cyclotomic_factors(built(p, n, d))
    digest = hashlib.sha256(json.dumps([list(f) for f in factors]).encode()).hexdigest()
    assert (len(factors), digest) == GOLDEN_FACTORS[(p, n, d)]


@pytest.mark.parametrize("p, n, d, rows", [(2, 5, 4, 1000), (3, 2, 3, 1)])
def test_cyclotomic_factors_golden_in_small_row_chunks(monkeypatch, built, p, n, d, rows):
    calls = []
    monkeypatch.setattr(counting, "root_products", lambda *args: calls.append(1) or columns.root_products(*args))
    monkeypatch.setattr(counting, "_FACTOR_ROWS", rows)
    factors = cyclotomic_factors(built(p, n, d))
    digest = hashlib.sha256(json.dumps([list(f) for f in factors]).encode()).hexdigest()
    assert (len(factors), digest) == GOLDEN_FACTORS[(p, n, d)]
    group_rows = np.bincount(columns.coset_leaders(built(p, n, d).norm_ratio, p**n)[1])
    assert len(calls) == sum(-(-n // rows) for n in group_rows) > np.count_nonzero(group_rows)


def _first_chunks_edited(monkeypatch, edit):
    """cyclotomic_factors in chunks of 16 rows, edit(coeff, earlier) applied to its fourth root_products result.

    Over GF(4) -> 4**5 (m = 341) the first call is the coset of 0 and the
    next five are the 68 factors of degree 5, in chunks of 16, 16, 16, 16
    and 4; earlier is the list of the results before.
    """
    calls = []

    def products(ext, exponents):
        coeff = columns.root_products(ext, exponents)
        if len(calls) == 3:
            edit(coeff, calls)
        calls.append(coeff)
        return coeff

    monkeypatch.setattr(counting, "root_products", products)
    monkeypatch.setattr(counting, "_FACTOR_ROWS", 16)


def _non_monic(coeff, earlier):
    coeff[3, -1] = 0


def _coefficient_q(coeff, earlier):
    coeff[3, 0] = 4


def _duplicate_in_a_chunk(coeff, earlier):
    coeff[3] = coeff[4]


def _duplicate_across_chunks(coeff, earlier):
    coeff[0] = earlier[2][-1]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_non_monic, "not monic"),
        (_coefficient_q, "outside the base field"),
        (_duplicate_in_a_chunk, "not pairwise distinct"),
        (_duplicate_across_chunks, "not pairwise distinct"),
    ],
    ids=["non-monic", "coefficient-q", "duplicate-in-a-chunk", "duplicate-across-chunks"],
)
def test_cyclotomic_factors_checks_fire_in_chunks(monkeypatch, built, edit, message):
    _first_chunks_edited(monkeypatch, edit)
    with pytest.raises(InternalCheckError, match=message):
        cyclotomic_factors(built(2, 2, 5))


def test_cyclotomic_factors_checks_the_degree_sum(monkeypatch, built):
    monkeypatch.setattr(counting, "coset_leaders", lambda m, q: tuple(a[:-1] for a in columns.coset_leaders(m, q)))
    with pytest.raises(InternalCheckError, match="do not sum to m"):
        cyclotomic_factors(built(2, 2, 5))


def _mul_off_by_one(ctx, a, b, real=polys.mul):
    product = real(ctx, a, b)
    return (ctx.add(product[0], 1), *product[1:])


@pytest.mark.parametrize(
    "patches, message",
    [
        ({"is_irreducible": lambda ctx, f: False}, "is reducible"),
        ({"is_irreducible": lambda ctx, f: True, "mul": _mul_off_by_one}, "not x\\*\\*m - 1"),
    ],
    ids=["reducible", "product"],
)
def test_cyclotomic_factors_deep_checks_fire(monkeypatch, built, patches, message):
    ext = built(5, 1, 2)  # m = 6: x - 1, x + 1 and two quadratics
    cyclotomic_factors(ext, deep=True)
    for name, fn in patches.items():
        monkeypatch.setattr(polys, name, fn)
    with pytest.raises(InternalCheckError, match=message):
        cyclotomic_factors(ext, deep=True)


def test_factor_lists_and_coset_leaders_trace_in_bounded_memory(built):
    # GF(2) -> 2**20 on two CPUs: 42.9 and 20.4 MiB traced when the factor
    # lists were built a whole coset-size group at a time and the leaders
    # from a full table of orbit minima; 22.3-22.5 and 4.4-4.9 MiB in chunks.
    ext = built(2, 1, 20)
    peaks = []
    with mock.patch.object(kernels, "usable_cpus", lambda: 2):
        for call in (lambda: cyclotomic_factors(ext), lambda: coset_representatives(2, 20)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
    assert peaks[0] < 26 and peaks[1] < 6, peaks


def test_oversized_order_is_refused_before_factoring():
    # Trial division of a q near 10**18 would run for minutes.
    with mock.patch("seqfam.counting.as_prime_power", side_effect=AssertionError("factored")):
        for call in (lambda: lambda_size(10**18 + 3, 2), lambda: count_report(10**18 + 3, 2, 2)):
            with pytest.raises(TableLimitError, match="exceeds the table limit"):
                call()


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


def test_count_report_rejects_a_field_of_another_order(gf13):
    with pytest.raises(ParameterError, match="q=13, not q=16"):
        count_report(16, 2, 5, gf13)


@pytest.mark.parametrize("p, n", [(3, 2), (2, 4)])
def test_oracle_operation_tables(p, n):
    ctx = build_field(p, n)
    add, mul = _operation_tables(ctx)
    for a in range(ctx.q):
        for b in range(ctx.q):
            assert add[a, b] == ctx.add(a, b)
            assert mul[a, b] == ctx.mul(a, b)


@pytest.mark.parametrize("p, n", [(2, 2), (5, 1)])
def test_sieve_matches_rabin_test(p, n):
    ctx = build_field(p, n)
    q = ctx.q
    irreducible = {1: np.ones(q, dtype=bool)}
    for g in range(2, 5):
        irreducible[g] = ~_reducible_mask(ctx, g, irreducible)
    for g, mask in irreducible.items():
        for enc in range(q**g):
            poly = tuple((enc // q**i) % q for i in range(g)) + (1,)
            assert mask[enc] == polys.is_irreducible(ctx, poly), (q, poly)


def test_oracle_large_field_degree_two():
    # q**2 = 1,042,441 is just under the default limit of 2**20
    q = 1021
    start = time.perf_counter()
    counts = constant_term_counts(build_field(q, 1), 2)
    elapsed = time.perf_counter() - start
    assert sum(counts.values()) == irreducible_total(q, 2) == (q * q - q) // 2 == 520_710
    assert elapsed < 5.0, elapsed  # about 0.13 s on 2 vCPUs

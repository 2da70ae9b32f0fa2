import json
import math

import numpy as np
import pytest

from seqfam.columns import _orbit_sizes, column_symbols, coset, coset_leaders
from seqfam.counting import cyclotomic_factors
from seqfam.errors import ParameterError
from seqfam.family import (
    build_family,
    check_restrictions,
    coset_representatives,
    distinct_shift_check,
)
from seqfam.fields import build_extension, build_field
from seqfam.intmath import iter_prime_powers
from seqfam.kernels import CHUNK


def test_coset_representatives_small():
    assert coset_representatives(4, 2) == [0, 1, 2]
    # d=2: nonzero representatives are 1..floor((q+1)/2)
    for q in (4, 8, 16, 13, 25):
        reps = coset_representatives(q, 2)
        assert reps == list(range((q + 1) // 2 + 1))


def test_coset_representatives_are_orbit_minima():
    q, d = 4, 3
    m = (q**d - 1) // (q - 1)
    reps = coset_representatives(q, d)
    for rep in reps:
        orbit = {rep}
        cur = rep * q % m
        while cur != rep:
            orbit.add(cur)
            cur = cur * q % m
        assert rep == min(orbit)


def test_coset_representatives_and_sizes_match_orbit_enumeration():
    cases = [(q, d) for _, _, q in iter_prime_powers(2, 64) for d in range(2, 13) if q**d <= 1 << 12]
    assert len(cases) == 57
    for q, d in cases:
        m = (q**d - 1) // (q - 1)
        orbits = {c.representative: c.size for c in (coset(l, m, q) for l in range(m))}
        reps = coset_leaders(m, q)
        sizes = _orbit_sizes(reps, q, m)
        assert coset_representatives(q, d) == reps.tolist() == sorted(orbits), (q, d)
        assert sizes.tolist() == [orbits[r] for r in reps.tolist()], (q, d)


def _orbits(m: int, q: int) -> dict[int, int]:
    """{representative: size} of every q-cyclotomic coset mod m, walked one coset() at a time."""
    seen, orbits = bytearray(m), {}
    for l in range(m):
        if not seen[l]:
            c = coset(l, m, q)
            orbits[c.representative] = c.size
            for member in c.members:
                seen[member] = 1
    return orbits


# m = 1; q = 1 (729 mod 7 and mod 13) and q = -1 (16 mod 255); composite m; and
# CHUNK + 5 = 23 * 41 * 139, two chunks, where 2 has order 15,180
@pytest.mark.parametrize(
    "m, q",
    [(m, q) for m in (1, 2, 7, 13, 21, 255, 1001, CHUNK + 5) for q in (2, 3, 5, 4, 16, 729) if math.gcd(m, q) == 1],
)
def test_coset_leaders_match_coset_walks(m, q):
    orbits = _orbits(m, q)
    reps = coset_leaders(m, q)
    sizes = _orbit_sizes(reps, q, m)
    assert reps.tolist() == sorted(orbits)
    assert sizes.tolist() == [orbits[r] for r in reps.tolist()]


def test_check_restrictions_examples():
    r41 = check_restrictions(41, 3)
    assert r41.gcd_ok and r41.bound_ok
    assert r41.bound_rhs == pytest.approx(3.5454, abs=1e-4)
    r9 = check_restrictions(9, 2)
    assert not r9.bound_ok
    r16 = check_restrictions(16, 2)
    assert r16.gcd_ok and r16.bound_ok and r16.bound_rhs == pytest.approx(2.25)
    assert r16.dropped_column is None
    r13 = check_restrictions(13, 2)
    assert not r13.gcd_ok and r13.bound_ok
    assert r13.relaxation_available and r13.dropped_column == 7


def test_size_restriction_is_decided_in_integers():
    # bound_ok is (2d-1)**2 * q < (q-2)**2: the family bound (2d-1)*sqrt(q)+1 lies below the period q-1.
    # Over this range it agrees with the float d < bound_rhs, which comes closest at q=53, d=4.
    closest = (math.inf, None)
    for _, _, q in iter_prime_powers(2, 1 << 15):
        d = 2
        while q**d <= 1 << 30:
            report = check_restrictions(q, d)
            assert report.bound_ok == (d < report.bound_rhs), (q, d)
            closest = min(closest, (abs(report.bound_rhs - d), (q, d)))
            d += 1
    assert closest[1] == (53, 4) and closest[0] == pytest.approx(0.0027, abs=1e-4)


@pytest.mark.parametrize("q, d, lhs, rhs", [(53, 4, 2597, 2601), (29, 3, 725, 729), (13, 2, 117, 121)])
def test_size_restriction_at_its_closest_cases(q, d, lhs, rhs):
    assert ((2 * d - 1) ** 2 * q, (q - 2) ** 2) == (lhs, rhs)
    assert check_restrictions(q, d).bound_ok
    assert not check_restrictions(q, d + 1).bound_ok
    assert (2 * d - 1) * math.sqrt(q) + 1 < q - 1 < (2 * d + 1) * math.sqrt(q) + 1


def test_build_family_sizes(gf256):
    for M, count in ((3, 16), (5, 32), (15, 112)):
        fam = build_family(gf256, M)
        assert fam.size == count == (M - 1) * (len(fam.lambda_reps) - 1)
        assert all(s.period == 15 and s.M == M for s in fam.sequences)


def test_family_symbols_are_constant_multiples(gf256):
    fam = build_family(gf256, 5)
    for seq in fam.sequences:
        expected = (seq.c * column_symbols(gf256, seq.l, 5)) % 5
        assert np.array_equal(seq.symbols, expected)


def test_family_ordering_is_lexicographic(gf256):
    fam = build_family(gf256, 5)
    labels = fam.labels()
    assert labels == sorted(labels)


def test_strict_policy_rejections(gf13, gf169):
    with pytest.raises(ParameterError):
        build_family(gf169, 4, "strict")  # gcd(2, 12) = 2
    gf9 = build_extension(build_field(3, 2), 2)
    with pytest.raises(ParameterError):
        build_family(gf9, 4, "relaxed-d2")  # size bound fails even relaxed
    with pytest.raises(ParameterError):
        build_family(gf169, 4, "bogus")
    with pytest.raises(ParameterError):
        build_family(gf169, 5, "relaxed-d2")  # M does not divide q-1


def test_relaxed_policy_drops_middle_column(gf169):
    fam = build_family(gf169, 4, "relaxed-d2")
    assert 7 not in fam.used_columns
    assert fam.used_columns == tuple(range(1, 7))
    assert fam.size == 3 * 6
    assert fam.restrictions.dropped_column == 7


def test_relaxed_policy_requires_odd_q(gf256):
    with pytest.raises(ParameterError):
        build_family(gf256, 5, "relaxed-d2")


def test_manifest_shape(gf256):
    fam = build_family(gf256, 5)
    manifest = fam.manifest()
    assert set(manifest) == {"q", "d", "M", "policy", "lambda", "size", "restriction_report"}
    json.dumps(manifest)  # must be serializable
    assert manifest["lambda"][0] == 0 and manifest["size"] == 32


def test_distinct_shift_check_exhaustive(gf256):
    cols = range(1, 9)
    for l1 in cols:
        for l2 in cols:
            for tau in range(15):
                distinct = distinct_shift_check(gf256, l1, l2, tau)
                assert distinct == (not (l1 == l2 and tau == 0)), (l1, l2, tau)


def test_distinct_shift_check_relaxed_columns(gf169):
    fam = build_family(gf169, 4, "relaxed-d2")
    for l1 in fam.used_columns:
        for l2 in fam.used_columns:
            for tau in range(12):
                distinct = distinct_shift_check(gf169, l1, l2, tau)
                assert distinct == (not (l1 == l2 and tau == 0))


def test_irreducible_factor_constant_terms(gf256, gf64_over4):
    # every monic irreducible factor x^e + ... + (-1)^e b of x^m - 1
    # has e dividing d and b^(d/e) = 1
    for ext in (gf256, gf64_over4):
        base = ext.base
        for fac in cyclotomic_factors(ext, deep=True):
            e = len(fac) - 1
            assert ext.d % e == 0
            b = fac[0] if e % 2 == 0 else base.neg(fac[0])
            assert base.pow_(b, ext.d // e) == 1

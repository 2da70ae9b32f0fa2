"""Acceptance suite: exhaustive verification at the full stated scale.

One test per criterion; each prints a single pass/fail line. The family
correlation scans are shared across the first three criteria through a
module-scoped fixture. Run with -s to see the per-criterion lines and
progress; the heavy sets take a few minutes in total.
"""

import math

import numpy as np
import pytest

from seqfam.columns import column_polynomial, column_symbols, coset
from seqfam.correlation import cyclic_inequivalence, max_correlation
from seqfam.counting import (
    constant_term_counts,
    cyclotomic_factors,
    deviation_bound_holds,
    lambda_estimate_gap,
    lambda_size_formula,
    lambda_size_with_ctx,
    yucas_count,
)
from seqfam.errors import ParameterError
from seqfam.family import POLICIES, build_family, check_family_parameters, coset_representatives
from seqfam.fields import build_extension, build_field
from seqfam.intmath import divisors, iter_prime_powers
from seqfam.sequences import (
    sidelnikov_sequence,
    sidelnikov_sequence_ext,
    sidelnikov_sequence_ext_direct,
)

TOL = 1e-6

BOUND_SETS = [
    (2, 4, 2, 3),
    (2, 4, 2, 5),
    (2, 4, 2, 15),
    (2, 5, 3, 31),
    (41, 1, 3, 2),
    (41, 1, 3, 4),
    (41, 1, 3, 8),
]

# delta_max to 6 decimals and the first argmax witness (c1, l1, c2, l2, tau)
# of each BOUND_SETS scan, so that drift in field construction, family
# order or the scan shows up even while every bound still holds.
GOLDEN_SCANS = {
    (2, 4, 2, 3): ("10.816654", (1, 1, 2, 4, 9)),
    (2, 4, 2, 5): ("10.207522", (1, 1, 4, 3, 0)),
    (2, 4, 2, 15): ("11.384121", (1, 3, 4, 1, 0)),
    (2, 5, 3, 31): ("21.083810", (1, 87, 18, 461, 18)),
    (41, 1, 3, 2): ("24.000000", (1, 1, 1, 455, 32)),
    (41, 1, 3, 4): ("24.000000", (2, 1, 2, 455, 32)),
    (41, 1, 3, 8): ("24.285215", (1, 413, 5, 457, 3)),
}


def conclude(number: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({description}): {status} [{detail}]", flush=True)
    assert ok, f"criterion {number} ({description}) failed: {detail}"


@pytest.fixture(scope="module")
def family_reports():
    out = {}
    for p, n, d, M in BOUND_SETS:
        ctx = build_field(p, n)
        ext = build_extension(ctx, d)
        fam = build_family(ext, M, "strict")
        report = max_correlation(fam)
        inequivalent, _ = cyclic_inequivalence(fam)
        dup_found, _ = cyclic_inequivalence(
            list(fam.sequences) + [fam.sequences[0].shifted(2)]
        )
        out[(p, n, d, M)] = (fam, report, inequivalent, not dup_found)
        print(
            f"  scanned q={ctx.q} d={d} M={M}: {fam.size} sequences, "
            f"delta_max={report.delta_max:.6f}, {report.elapsed:.1f}s",
            flush=True,
        )
    return out


def test_criterion_1_family_correlation_bound(family_reports):
    details = []
    ok = True
    for (p, n, d, M), (fam, report, _, _) in family_reports.items():
        bound = (2 * d - 1) * math.sqrt(fam.q) + 1
        good = report.delta_max <= bound + TOL
        ok &= good
        details.append(f"q={fam.q},d={d},M={M}: {report.delta_max:.4f}<={bound:.4f}")
    conclude(1, "family correlation bound", ok, "; ".join(details))


def test_golden_delta_max_and_first_witness(family_reports):
    for key, (_, report, _, _) in family_reports.items():
        w = report.argmax[0]
        got = (f"{report.delta_max:.6f}", (w["c1"], w["l1"], w["c2"], w["l2"], w["tau"]))
        assert got == GOLDEN_SCANS[key], key


def test_histogram_counts_every_pair_at_every_shift(family_reports):
    for fam, report, _, _ in family_reports.values():
        n = fam.size
        assert sum(report.histogram.values()) == fam.period * n * (n + 1) // 2 - n


# The orbit scan against the plain upper triangle. q=32 (about 23 s as a
# triangle) is left to scripts; q=41 M=2 has no symmetry (M=2, prime q).
@pytest.mark.parametrize("key", [(2, 4, 2, 3), (2, 4, 2, 5), (2, 4, 2, 15), (41, 1, 3, 4), (41, 1, 3, 8)])
def test_orbit_scan_equals_triangle(family_reports, key, triangle_scan, assert_same_scan):
    fam, report, _, _ = family_reports[key]
    assert report.scan["symmetry_order"] == (8 if fam.q == 16 else 2)
    assert report.scan["pairs_scanned"] < report.scan["pairs_represented"]
    assert_same_scan(report, triangle_scan(fam))


def test_criterion_2_per_pair_tight_bound(family_reports):
    ok = all(
        report.pair_bound_ok and report.same_column_bound_ok
        for _, report, _, _ in family_reports.values()
    )
    conclude(
        2,
        "per-pair bound from actual coset sizes",
        ok,
        f"{len(family_reports)} parameter sets, every nontrivial shift checked",
    )


def test_criterion_3_cyclic_inequivalence(family_reports):
    ok = all(
        inequivalent and control for _, _, inequivalent, control in family_reports.values()
    )
    conclude(
        3,
        "cyclic inequivalence plus negative control",
        ok,
        f"{len(family_reports)} families, injected duplicates all detected",
    )


def test_criterion_4_degree_two_size_identity():
    results = {q: lambda_size_formula(q, 2) - 1 for q in (4, 8, 16, 13, 25, 27, 49)}
    ok = all(value == (q + 1) // 2 for q, value in results.items())
    conclude(4, "degree-two size identity", ok, str(results))


def test_criterion_5_count_cross_validation():
    checked = 0
    ok = True
    for p, n, q in iter_prime_powers(2, 1024):
        d = 2
        while q**d <= 1 << 20:
            ctx = build_field(p, n)
            ext = build_extension(ctx, d)
            formula = lambda_size_with_ctx(ctx, d)
            cosets = len(coset_representatives(q, d))
            factors = len(cyclotomic_factors(ext))
            if not formula == cosets == factors:
                ok = False
                print(f"  mismatch at q={q} d={d}: {formula}/{cosets}/{factors}")
            checked += 1
            d += 1
    conclude(
        5,
        "closed form = coset partition = explicit factor count",
        ok,
        f"{checked} (q, d) pairs with q**d <= 2**20",
    )


@pytest.fixture(scope="module")
def yucas_sweep():
    outcomes = []
    for p, n, q in iter_prime_powers(2, 16):
        if q in (10, 12, 14, 15):
            continue
        ctx = build_field(p, n)
        f = 1
        while q**f <= 1 << 16:
            oracle = constant_term_counts(ctx, f, limit=1 << 16)
            for b in range(1, q):
                formula = yucas_count(ctx, f, b)
                outcomes.append(
                    (q, f, b, formula == oracle.get(b, 0), deviation_bound_holds(q, f, formula))
                )
            f += 1
        print(f"  oracle swept q={q}", flush=True)
    return outcomes


def test_criterion_6_yucas_oracle_equivalence(yucas_sweep):
    bad = [(q, f, b) for q, f, b, match, _ in yucas_sweep if not match]
    conclude(
        6,
        "constant-term count formula equals enumeration",
        not bad,
        f"{len(yucas_sweep)} (q, f, b) cases, mismatches: {bad[:5]}",
    )


def test_criterion_7_deviation_bound(yucas_sweep):
    bad = [(q, f, b) for q, f, b, _, held in yucas_sweep if not held]
    conclude(
        7,
        "count deviation bound",
        not bad,
        f"{len(yucas_sweep)} cases, violations: {bad[:5]}",
    )


def test_criterion_8_asymptotic_trend():
    ratios_d3 = {}
    for q in (32, 41, 64):
        lam = lambda_size_formula(q, 3)
        ratios_d3[q] = (lam - 1) * 3 / q**2
    ok = all(0.8 <= r <= 1.2 for r in ratios_d3.values())
    gaps = []
    for q in (16, 64, 256):
        lam = lambda_size_formula(q, 2)
        gaps.append(abs((lam - 1) * 2 / q - 1.0))
    monotone = all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    conclude(
        8,
        "asymptotic size trend",
        ok and monotone,
        f"d=3 ratios {ratios_d3}; d=2 |ratio-1| sequence {gaps}",
    )


def test_criterion_9_array_identities():
    ok = True
    details = []
    for p, n, d in ((5, 1, 2), (2, 2, 3), (2, 4, 2)):
        ctx = build_field(p, n)
        ext = build_extension(ctx, d)
        q, m = ctx.q, ext.norm_ratio
        alphabets = [M for M in divisors(q - 1) if M >= 2]
        for M in alphabets:
            routes = np.array_equal(
                sidelnikov_sequence_ext(ext, M).symbols,
                sidelnikov_sequence_ext_direct(ext, M).symbols,
            )
            multiples = all(
                np.array_equal(column_symbols(ext, l, M), column_symbols(ext, l * q, M))
                for l in range(m)
            )
            ratio_small = (q ** (d - 1) - 1) // (q - 1)
            reflection = all(
                np.array_equal(
                    column_symbols(ext, (m - ratio_small * l) % m, M),
                    np.roll(column_symbols(ext, l % m, M), l - 1),
                )
                for l in range(1, q + 1)
            )
            ok &= routes and multiples and reflection
        from seqfam import polys

        root_free = all(
            all(
                polys.eval_at(ctx, column_polynomial(ext, l).min_poly, x) != 0
                for x in range(q)
            )
            for l in range(1, m)
        )
        factor_identity = True
        try:
            for l in range(m):
                column_polynomial(ext, l)  # verifies the factorization identity
        except Exception as exc:  # noqa: BLE001 - any failure is a criterion failure
            factor_identity = False
            details.append(f"q={q},d={d}: {exc}")
        ok &= root_free and factor_identity
        details.append(f"q={q},d={d}: M in {alphabets}, {m} columns")
    conclude(9, "array structure identities", ok, "; ".join(details))


def test_criterion_10_base_autocorrelation():
    ok = True
    worst = {}
    for p, n in ((5, 1), (13, 1), (2, 4), (5, 2), (41, 1)):
        ctx = build_field(p, n)
        q = ctx.q
        for M in divisors(q - 1):
            if M < 2:
                continue
            seq = sidelnikov_sequence(ctx, M)
            phases = np.exp(2j * np.pi * (seq.symbols % M) / M)
            peak = max(
                abs(np.sum(phases * np.conj(np.roll(phases, -tau))))
                for tau in range(1, seq.period)
            )
            worst[(q, M)] = round(float(peak), 6)
            ok &= peak <= 4.0 + TOL
    conclude(
        10,
        "base sequence autocorrelation at most 4",
        ok,
        f"max over {len(worst)} (q, M) pairs: {max(worst.values()):.6f}",
    )


def _admissible_sets(values: int = 10**6) -> list[tuple]:
    """(p, n, d, M, policy) of every small admissible set whose scan has at most `values` |R| values.

    q = p**n <= 300 a prime power, 2 <= d <= 5 with q**d <= 2**24, M | q-1
    with M >= 2, and a policy that check_family_parameters accepts. A
    family of N members, N from the count formula, has N(N+1)/2 * (q-1)
    values.
    """
    sets = []
    for p, n, q in iter_prime_powers(2, 300):
        for d in range(2, 6):
            if q**d > 1 << 24:
                continue
            lam = lambda_size_formula(q, d)
            for M in divisors(q - 1)[1:]:
                for policy in POLICIES:
                    try:
                        check_family_parameters(q, d, M, policy)
                    except ParameterError:
                        continue
                    size = (M - 1) * (lam - 1 - (policy == "relaxed-d2"))
                    if size * (size + 1) // 2 * (q - 1) <= values:
                        sets.append((p, n, d, M, policy))
    return sets


ADMISSIBLE_SETS = _admissible_sets()


def test_admissible_set_count():
    assert len(ADMISSIBLE_SETS) == 113


@pytest.mark.parametrize(
    "p, n, d, M, policy", ADMISSIBLE_SETS, ids=[f"q{p**n}-d{d}-M{M}-{pol}" for p, n, d, M, pol in ADMISSIBLE_SETS]
)
def test_every_claim_on_every_small_admissible_set(p, n, d, M, policy, built):
    q = p**n
    family = build_family(built(p, n, d), M, policy)
    lam = lambda_size_formula(q, d)
    # Every nonzero column, less the self-paired column (q+1)/2 under relaxed-d2.
    assert family.size == (M - 1) * (lam - 1 - (policy == "relaxed-d2"))
    report = max_correlation(family)
    verdicts = (report.bound_ok, report.pair_bound_ok, report.same_column_bound_ok, report.cyclically_inequivalent)
    assert verdicts == (True, True, True, True)
    gap, allowance = lambda_estimate_gap(q, d, lam)
    assert gap <= allowance

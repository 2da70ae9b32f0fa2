"""Full verification suite for one parameter set (p, n, d, M).

Runs every check the package knows how to make at the given parameters:
construction determinism and invariants, the two independent sequence
generation routes, array-structure identities, the polynomial identity
behind each column, restriction checks, family size identities, the
exhaustive correlation bound scan, cyclic inequivalence with a negative
control, and the counting cross-validations. Returns a machine-readable
summary; every check is a named pass/fail entry.
"""

import time

import numpy as np

from . import polys
from .columns import (
    column_from_long_sequence,
    column_polynomial,
    column_symbols,
    frobenius_poly,
    orbit_products,
)
from .correlation import (
    TOLERANCE,
    correlation_via_character_sum,
    cross_correlation,
    cyclic_inequivalence,
    max_correlation,
)
from .counting import (
    constant_term_counts,
    count_report,
    cyclotomic_factors,
    deviation_bound_holds,
    lambda_estimate_gap,
    yucas_count,
)
from .errors import SeqfamError
from .family import build_family, check_family_parameters, coset_representatives
from .fields import build_extension, build_field, check_extension, check_field_order
from .kernels import CHUNK
from .sequences import sidelnikov_sequence, sidelnikov_sequence_ext, sidelnikov_sequence_ext_direct

_DEEP_LIMIT = 1 << 12  # full product/irreducibility checks only below this field size


def run_verification(
    p: int,
    n: int,
    d: int,
    M: int,
    policy: str = "strict",
    table_limit: int | None = None,
) -> dict:
    start = last = time.perf_counter()
    checks: list[dict] = []

    def record(name: str, ok, detail: str = "") -> None:
        """Append a check, timed from the previous one (the first from the start of the run)."""
        nonlocal last
        now = time.perf_counter()
        checks.append({"name": name, "ok": bool(ok), "detail": detail, "elapsed": now - last})
        last = now

    q = check_field_order(p, n, table_limit)  # every refusal comes before GF(q) is built
    check_extension(q, d, table_limit)
    restrictions = check_family_parameters(q, d, M, policy)
    ctx = build_field(p, n, table_limit)
    ext = build_extension(ctx, d, table_limit)
    size, m = ext.size, ext.norm_ratio

    rebuilt = build_field(p, n, table_limit)
    record(
        "construction-determinism",
        ctx.descriptor() == rebuilt.descriptor() and np.array_equal(ctx.exp, rebuilt.exp),
        "identical modulus, generator and tables on rebuild",
    )
    try:
        ctx.validate()
        ext.validate()
        record("field-invariants", True, "orders, log tables, norm/trace ranges, modulus irreducibility")
    except SeqfamError as exc:
        record("field-invariants", False, str(exc))

    record("restriction-gcd", restrictions.gcd_ok or policy == "relaxed-d2",
           f"gcd(d, q-1) = {restrictions.gcd_value}, policy {policy}")
    record("restriction-size-bound", restrictions.bound_ok,
           f"d = {d} vs {restrictions.bound_rhs:.4f}")

    long_norm = sidelnikov_sequence_ext(ext, M)
    record("long-sequence-route-equivalence",  # the direct route's symbols are freed once compared
           np.array_equal(long_norm.symbols, sidelnikov_sequence_ext_direct(ext, M).symbols),
           "norm route vs direct extension-log route")

    step = max(1, CHUNK // q)  # columns or values of l taken together, about CHUNK values at a time
    col_ok = all(
        np.array_equal(
            column_symbols(ext, cols, M), [column_from_long_sequence(ext, l, M, long_norm).symbols for l in cols]
        )
        for cols in np.array_split(range(m), -(-m // step))
    )
    record("column-stride-vs-closed-form", col_ok, f"exhaustive over {m} columns")

    reps = coset_representatives(q, d)
    rep_symbols = column_symbols(ext, reps, M)
    beta_pows = ctx.exp
    poly_ok, orbit_ok, symbol_eval_ok = True, True, True
    for l, symbols in zip(reps, rep_symbols):
        cp = column_polynomial(ext, l)  # verifies the factorization identity itself
        if cp.norm_poly[-1] != ctx.pow_(ctx.beta, l) or cp.norm_poly[0] != 1:
            poly_ok = False
        if len(cp.norm_poly) > 2 and cp.norm_poly[1] != ext.trace(int(ext.exp[l % (size - 1)])):
            poly_ok = False
        rebuilt_min = (1,)
        for i in range(cp.full_coset.size // cp.reduced_coset.size):
            rebuilt_min = polys.mul(
                ext, rebuilt_min, frobenius_poly(ext, cp.orbit_poly, i * cp.reduced_coset.size)
            )
        if polys.trim(rebuilt_min) != polys.trim(cp.min_poly):
            orbit_ok = False
        vals = polys.eval_arr(ctx, cp.norm_poly, beta_pows)
        if not np.array_equal(ctx.log[vals] % M, symbols):
            symbol_eval_ok = False
    record("column-polynomial-structure", poly_ok,
           "leading coefficient, trace coefficient, constant term per column")
    record("column-polynomial-orbit-product", orbit_ok,
           "irreducible part equals the product of Frobenius images of the orbit part")
    record("column-symbols-from-polynomial", symbol_eval_ok,
           "symbols recomputed by evaluating the column polynomial")

    shift_ok = np.array_equal(rep_symbols, column_symbols(ext, [l * q for l in reps], M))
    record("column-q-multiple-identity", shift_ok, "v_l equals the column at index l*q")

    field_elements = np.arange(q, dtype=np.int64)
    root_free = True
    for _, coeff in orbit_products(ext, range(1, m), size - 1, -1, 0):  # min_poly of every nonzero column
        for block in np.split(coeff, range(step, len(coeff), step)):
            root_free = root_free and polys.eval_arr(ctx, block, field_elements).all()
    record("column-polynomial-root-free", root_free, f"no base-field roots for {m - 1} of {m - 1} nonzero columns")

    ratio_small = (q ** (d - 1) - 1) // (q - 1)

    def reflects(ls: np.ndarray) -> bool:
        rhs = column_symbols(ext, ls % m, M)
        # np.roll(v, l - 1)[t] = v[t - (l - 1)], row by row
        rolled = np.take_along_axis(rhs, (np.arange(q - 1) - (ls[:, None] - 1)) % (q - 1), axis=1)
        return np.array_equal(column_symbols(ext, (m - ratio_small * ls) % m, M), rolled)

    reflection_ok = all(reflects(ls) for ls in np.array_split(np.arange(1, q + 1), -(-q // step)))
    record("column-reflection-shift-identity", reflection_ok,
           "mirrored column index equals the column shifted by l-1")

    base_seq = sidelnikov_sequence(ctx, M)
    auto_max = max(abs(cross_correlation(base_seq, base_seq, tau)) for tau in range(1, q - 1))
    record("base-autocorrelation-bound", auto_max <= 4.0 + TOLERANCE,
           f"max out-of-phase autocorrelation {auto_max:.6f}")

    family = build_family(ext, M, policy)
    expected = (M - 1) * (len(reps) - 1 - (1 if policy == "relaxed-d2" else 0))
    record("family-size-identity", family.size == expected,
           f"{family.size} sequences")

    report = max_correlation(family)
    record("correlation-bound", report.bound_ok,
           f"delta_max {report.delta_max:.6f} vs bound {report.bound:.6f}")
    record("correlation-pair-bounds", report.pair_bound_ok,
           "per-pair bounds from actual coset sizes")
    record("correlation-same-column-bound", report.same_column_bound_ok,
           "zero-shift same-column pairs against the single-polynomial bound")

    pairs = [(1, family.used_columns[0], 1, family.used_columns[-1], 1)]
    if M > 2:
        pairs.append((M - 1, family.used_columns[0], 1, family.used_columns[0], 0))
    pairs.append((1, family.used_columns[0], 1, family.used_columns[0], 2 % (q - 1)))
    char_ok = True
    for c1, l1, c2, l2, tau in pairs:
        s1 = next(s for s in family.sequences if (s.c, s.l) == (c1, l1))
        s2 = next(s for s in family.sequences if (s.c, s.l) == (c2, l2))
        direct = cross_correlation(s1, s2, tau)
        via = correlation_via_character_sum(ext, M, c1, l1, c2, l2, tau)
        if abs(direct - via) > TOLERANCE:
            char_ok = False
    record("correlation-character-sum-identity", char_ok,
           f"{len(pairs)} pairs recomputed through the character-sum form")

    record("cyclic-inequivalence", report.cyclically_inequivalent, "exact shift comparison over all pairs")
    dup_ok, dup_wit = cyclic_inequivalence(list(family.sequences) + [family.sequences[0].shifted(1)])
    record("cyclic-inequivalence-negative-control", not dup_ok,
           f"injected duplicate detected: {dup_wit}")

    creport = count_report(q, d, M, table_limit)
    factors = cyclotomic_factors(ext, deep=size <= _DEEP_LIMIT)
    record("count-cross-validation",
           creport.lambda_formula == creport.lambda_cosets == len(factors),
           f"closed form {creport.lambda_formula} = cosets {creport.lambda_cosets} "
           f"= explicit factors {len(factors)}; family {creport.family_size}, "
           f"asymptotic {creport.asymptotic:.2f} (ratio {creport.ratio:.4f})")
    if d == 2:
        record("count-degree-two-identity",
               creport.lambda_formula - 1 == (q + 1) // 2,
               f"lambda - 1 = {creport.lambda_formula - 1} vs {(q + 1) // 2}")

    oracle_ok, oracle_cases = True, 0
    f_deg = 1
    while q**f_deg <= _DEEP_LIMIT and f_deg <= 4:
        counts = constant_term_counts(ctx, f_deg, limit=_DEEP_LIMIT)
        for b in range(1, q):
            formula = yucas_count(ctx, f_deg, b)
            if counts.get(b, 0) != formula or not deviation_bound_holds(q, f_deg, formula):
                oracle_ok = False
            oracle_cases += 1
        f_deg += 1
    record("count-constant-term-oracle", oracle_ok,
           f"{oracle_cases} (degree, constant term) cases against enumeration")

    gap, allowance = lambda_estimate_gap(q, d, creport.lambda_formula)
    record("count-estimate-gap", gap <= allowance,
           f"|lambda - main term| = {gap:.3f} <= {allowance:.3f}")

    return {
        "parameters": {"p": p, "n": n, "q": q, "d": d, "M": M, "policy": policy},
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
        "elapsed": time.perf_counter() - start,
    }


def format_verification(result: dict) -> str:
    lines = []
    params = result["parameters"]
    lines.append(
        f"verification for q={params['q']} (p={params['p']}, n={params['n']}), "
        f"d={params['d']}, M={params['M']}, policy={params['policy']}"
    )
    for check in result["checks"]:
        status = "PASS" if check["ok"] else "FAIL"
        detail = f"  ({check['detail']})" if check["detail"] else ""
        lines.append(f"{status}  {check['name']}{detail}")
    lines.append(f"overall: {'PASS' if result['ok'] else 'FAIL'} in {result['elapsed']:.2f}s")
    return "\n".join(lines)

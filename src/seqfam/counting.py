"""Family-size counting: exact closed form, asymptotics, brute-force oracles.

The column count splits over divisor classes of the extension degree; the
closed form sums Euler-phi values over divisor sets of q**e - 1, and a
second route goes through the per-constant-term irreducible counts. Both
are computed independently and compared; a disagreement is an internal
bug, never a valid outcome. The independent oracle enumerates every monic
polynomial and tests irreducibility outright.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import polys
from .columns import coset_minima
from .errors import InternalCheckError, ParameterError
from .family import coset_representatives
from .fields import ExtensionContext, FieldContext, build_field
from .intmath import as_prime_power, divisors, euler_phi, mobius, prime_factors


def a_f_set(q: int, f: int) -> list[tuple[int, int, int]]:
    """Divisors r of q**f-1 dividing no smaller q**g-1, with r = d_rf * m_rf.

    d_rf is gcd(r, (q**f-1)/(q-1)); returns (r, d_rf, m_rf) sorted by r.
    """
    if f < 1:
        raise ParameterError("f must be >= 1")
    total = q**f - 1
    smaller = [q**g - 1 for g in range(1, f)]
    ratio = total // (q - 1)
    out = []
    for r in divisors(total):
        if any(s % r == 0 for s in smaller):
            continue
        drf = math.gcd(r, ratio)
        out.append((r, drf, r // drf))
    return out


def yucas_count(ctx: FieldContext, f: int, b: int) -> int:
    """Number of monic irreducible degree-f polynomials with constant term (-1)**f * b."""
    if b == 0:
        raise ParameterError("b must be a nonzero field element")
    m = ctx.order(b)
    total = sum(euler_phi(r) for r, _, mrf in a_f_set(ctx.q, f) if mrf == m)
    denom = f * euler_phi(m)
    if total % denom:
        raise InternalCheckError("phi sum is not divisible by f*phi(m)")
    return total // denom


def irreducible_total(q: int, f: int) -> int:
    """Total count of monic irreducible degree-f polynomials (Moebius sum)."""
    total = sum(mobius(k) * q ** (f // k) for k in divisors(f))
    if total % f:
        raise InternalCheckError("Moebius sum is not divisible by f")
    return total // f


def lambda_size_formula(q: int, d: int) -> int:
    """Column count by the closed-form divisor sum (no field tables needed)."""
    total = 0
    for e in divisors(d):
        allowed = d // e
        part = sum(euler_phi(r) for r, _, mre in a_f_set(q, e) if allowed % mre == 0)
        if part % e:
            raise InternalCheckError("divisor-class sum is not divisible by e")
        total += part // e
    return total


def lambda_size_parts(ctx: FieldContext, d: int) -> dict[tuple[int, int], int]:
    """Per-(degree, constant-term-order) breakdown of the triple sum."""
    q = ctx.q
    exps = np.arange(q - 1, dtype=np.int64)
    orders = (q - 1) // np.gcd(exps, q - 1)
    parts: dict[tuple[int, int], int] = {}
    for e in divisors(d):
        for m in divisors(d // e):
            if (q - 1) % m:
                continue
            bs = ctx.exp[exps[orders == m]]
            parts[(e, m)] = sum(yucas_count(ctx, e, int(b)) for b in bs)
    return parts


def _checked_lambda(ctx: FieldContext, d: int) -> tuple[int, dict[tuple[int, int], int]]:
    """Closed-form column count, cross-checked against the triple sum, and its parts."""
    if d < 2:
        raise ParameterError("d must be >= 2")
    formula = lambda_size_formula(ctx.q, d)
    parts = lambda_size_parts(ctx, d)
    triple = sum(parts.values())
    if formula != triple:
        raise InternalCheckError(f"count mismatch: closed form {formula}, triple sum {triple}")
    return formula, parts


def lambda_size_with_ctx(ctx: FieldContext, d: int) -> int:
    """Column count with the closed form cross-checked against the triple sum."""
    return _checked_lambda(ctx, d)[0]


def _field_of_order(q: int) -> FieldContext:
    try:
        p, n = as_prime_power(q)
    except ValueError:
        raise ParameterError(f"q={q} is not a prime power") from None
    return build_field(p, n)


def lambda_size(q: int, d: int) -> int:
    return lambda_size_with_ctx(_field_of_order(q), d)


def asymptotic_size(q: int, d: int, M: int) -> float:
    """Large-q family size (M-1) * q**(d-1) / d."""
    if M < 2:
        raise ParameterError("M must be >= 2")
    return (M - 1) * q ** (d - 1) / d


def lambda_estimate_gap(q: int, d: int, lam: int | None = None) -> tuple[float, float]:
    """Gap between the column count and its main term, with its allowance.

    Returns (|lambda - d * sum q**e/(e**2 (q-1))|, 2d * sum q**(e/2)/e**2);
    the first must not exceed the second.
    """
    if lam is None:
        lam = lambda_size(q, d)
    main = d * sum(q**e / (e**2 * (q - 1)) for e in divisors(d))
    allowance = 2 * d * sum(q ** (e / 2) / e**2 for e in divisors(d))
    return abs(lam - main), allowance


def deviation_bound_holds(q: int, f: int, count: int) -> bool:
    """|N(f,b,q) - q**f / (f(q-1))| <= (2/f) q**(f/2)."""
    return abs(count - q**f / (f * (q - 1))) <= (2 / f) * q ** (f / 2)


@dataclass
class CountReport:
    """Exact vs formula vs asymptotic sizes for one parameter set."""

    q: int
    d: int
    M: int
    lambda_formula: int
    lambda_cosets: int
    family_size: int
    asymptotic: float
    ratio: float
    breakdown: dict[tuple[int, int], int]

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "d": self.d,
            "M": self.M,
            "lambda_formula": self.lambda_formula,
            "lambda_cosets": self.lambda_cosets,
            "family_size": self.family_size,
            "asymptotic": self.asymptotic,
            "ratio": self.ratio,
            "breakdown": {f"e={e},m={m}": v for (e, m), v in sorted(self.breakdown.items())},
        }


def count_report(q: int, d: int, M: int, ctx: FieldContext | None = None) -> CountReport:
    if M < 2 or (q - 1) % M:
        raise ParameterError(f"M must divide q-1 (q={q}, M={M})")
    if ctx is None:
        ctx = _field_of_order(q)
    elif ctx.q != q:
        raise ParameterError(f"field context has q={ctx.q}, not q={q}")
    lam, parts = _checked_lambda(ctx, d)
    lam_cosets = len(coset_representatives(q, d))
    if lam != lam_cosets:
        raise InternalCheckError(f"closed form {lam} disagrees with coset count {lam_cosets}")
    family_size = (M - 1) * (lam - 1)
    asym = asymptotic_size(q, d, M)
    return CountReport(
        q=q,
        d=d,
        M=M,
        lambda_formula=lam,
        lambda_cosets=lam_cosets,
        family_size=family_size,
        asymptotic=asym,
        ratio=family_size / asym,
        breakdown=parts,
    )


# -- brute-force oracle: enumerate and test every monic polynomial -----------


def _operation_tables(ctx: FieldContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """q x q addition and multiplication tables and the p-th power map of ctx.

    Built once from the context's own array arithmetic, so a gather
    add[a, b] is ctx.add_arr(a, b), and likewise for mul and pow_arr(a, p).
    """
    elements = np.arange(ctx.q, dtype=np.int64)
    rows, cols = elements[:, None], elements[None, :]
    return ctx.add_arr(rows, cols), ctx.mul_arr(rows, cols), ctx.pow_arr(elements, ctx.p)


def constant_term_counts(ctx: FieldContext, f: int, limit: int = 1 << 20) -> dict[int, int]:
    """Count monic irreducibles of degree f by constant term, by enumeration.

    Candidates are filtered with a batched x**(q**f) == x test (Frobenius
    steps use the freshman's-dream p-th power plus a vectorized reduction
    against each candidate modulus, both as gathers into the tables of
    _operation_tables), then all survivors are confirmed at once with the
    gcd conditions by polys.coprime_rows. Returns {b: count}, sorted by b,
    keyed by the element b with constant term (-1)**f * b. Independent of
    the counting formulas above.
    """
    if f < 1:
        raise ParameterError("f must be >= 1")
    q = ctx.q
    if q**f > limit:
        raise ParameterError(f"q**f = {q**f} exceeds the oracle limit {limit}")
    if f == 1:
        return {ctx.neg(c0): 1 for c0 in range(1, q)}

    p, n = ctx.p, ctx.n
    enc = np.arange(q**f, dtype=np.int64)
    coeffs = (enc[:, None] // (q ** np.arange(f, dtype=np.int64))) % q
    coeffs = coeffs[coeffs[:, 0] != 0]  # zero constant term means divisible by x
    rows = coeffs.shape[0]
    neg_coeffs = ctx.neg_arr(coeffs)
    add, mul, frobenius = _operation_tables(ctx)

    width = (f - 1) * p + 1
    x_power = np.zeros((rows, f), dtype=np.int64)
    x_power[:, 1] = 1
    snapshot_steps = {n * (f // r): r for r in prime_factors(f)}
    snapshots: dict[int, np.ndarray] = {}
    for step in range(1, n * f + 1):
        spread = np.zeros((rows, width), dtype=np.int64)
        spread[:, ::p] = frobenius[x_power]
        for k in range(width - 1, f - 1, -1):
            lead = spread[:, k]
            if not lead.any():
                continue
            spread[:, k - f : k] = add[spread[:, k - f : k], mul[lead[:, None], neg_coeffs]]
        x_power = spread[:, :f].copy()
        if step in snapshot_steps:
            snapshots[snapshot_steps[step]] = x_power.copy()

    unit = np.zeros(f, dtype=np.int64)
    unit[1] = 1
    survivors = np.flatnonzero((x_power == unit).all(axis=1))
    moduli = np.concatenate([coeffs[survivors], np.ones((survivors.size, 1), dtype=np.int64)], axis=1)
    irreducible = np.ones(survivors.size, dtype=bool)
    for r in prime_factors(f):
        h = snapshots[r][survivors]
        h[:, 1] = ctx.add_arr(h[:, 1], ctx.neg(1))  # x**(q**(f/r)) - x
        irreducible &= polys.coprime_rows(ctx, h, moduli)
    c0 = coeffs[survivors[irreducible], 0]
    values, counts = np.unique(c0 if f % 2 == 0 else ctx.neg_arr(c0), return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


# -- explicit factor construction for x**m - 1 --------------------------------


def _poly_mul_vec(ctx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(a.size + b.size - 1, dtype=np.int64)
    if a.size > b.size:
        a, b = b, a
    for i in range(a.size):
        if a[i]:
            out[i : i + b.size] = ctx.add_arr(out[i : i + b.size], ctx.mul_arr(np.int64(int(a[i])), b))
    return out


def cyclotomic_factors(ext: ExtensionContext, deep: bool = False) -> list[tuple[int, ...]]:
    """Monic irreducible factors of x**m - 1 over GF(q), m = (q**d-1)/(q-1).

    Each factor is multiplied out from the root orbit of one q-cyclotomic
    coset of exponents of the order-m root of unity alpha**(q-1). The
    construction checks that every factor is monic with base-field
    coefficients, that factors are pairwise distinct, and that degrees sum
    to m. With deep=True it also tests each factor for irreducibility and
    multiplies all factors back together (quadratic cost; intended for
    small m).
    """
    q, size, m = ext.q, ext.size, ext.norm_ratio
    base = ext.base
    reps = coset_minima(m, q)
    order = np.argsort(reps, kind="stable")
    sorted_reps = reps[order]
    starts = np.flatnonzero(np.r_[True, sorted_reps[1:] != sorted_reps[:-1]])
    sizes = np.diff(np.r_[starts, m])

    factors: dict[int, tuple[int, ...]] = {}
    for s in np.unique(sizes):
        sel = np.flatnonzero(sizes == s)
        members = order[starts[sel][:, None] + np.arange(s)]
        roots = ext.exp[(members * (q - 1)) % (size - 1)]
        neg_roots = ext.neg_arr(roots)
        coeff = np.zeros((sel.size, s + 1), dtype=np.int64)
        coeff[:, 0] = 1
        for k in range(s):
            shifted = np.zeros_like(coeff)
            shifted[:, 1 : k + 2] = coeff[:, : k + 1]
            shifted[:, : k + 1] = ext.add_arr(
                shifted[:, : k + 1], ext.mul_arr(coeff[:, : k + 1], neg_roots[:, k : k + 1])
            )
            coeff = shifted
        if np.any(coeff[:, s] != 1):
            raise InternalCheckError("orbit factor is not monic")
        if coeff.max() >= q:
            raise InternalCheckError("orbit factor has coefficients outside the base field")
        for row, rep in zip(coeff.tolist(), sorted_reps[starts[sel]].tolist()):
            factors[rep] = tuple(row)

    ordered = [factors[rep] for rep in sorted(factors)]
    if len(set(ordered)) != len(ordered):
        raise InternalCheckError("orbit factors are not pairwise distinct")
    if sum(len(fac) - 1 for fac in ordered) != m:
        raise InternalCheckError("factor degrees do not sum to m")

    if deep:
        for fac in ordered:
            if not polys.is_irreducible(base, fac):
                raise InternalCheckError("orbit factor is reducible")
        leaves = [np.array(fac, dtype=np.int64) for fac in ordered]
        while len(leaves) > 1:
            merged = [
                _poly_mul_vec(base, leaves[i], leaves[i + 1])
                for i in range(0, len(leaves) - 1, 2)
            ]
            if len(leaves) % 2:
                merged.append(leaves[-1])
            leaves = merged
        expected = np.zeros(m + 1, dtype=np.int64)
        expected[0] = base.neg(1)
        expected[m] = 1
        if not np.array_equal(leaves[0], expected):
            raise InternalCheckError("factor product is not x**m - 1")
    return ordered

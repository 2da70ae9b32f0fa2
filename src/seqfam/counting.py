"""Family-size counting: exact closed form, asymptotics, brute-force oracles.

The column count splits over divisor classes of the extension degree and
the order of the constant term. One closed form sums Euler-phi values over
divisor sets of q**e - 1; the coset partition (count_report) and the factors
of x**m - 1 built from their roots (cyclotomic_factors) check it, and a
disagreement is an internal bug. Yucas' per-constant-term counts have their
own oracle, a sieve over every monic polynomial of the degree.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import polys
from .columns import coset_leaders, orbit_products
from .errors import InternalCheckError, ParameterError
from .family import coset_representatives
from .fields import ExtensionContext, FieldContext, check_table_size
from .intmath import as_prime_power, divisor_phis, divisors, euler_phi, mobius
from .sequences import check_alphabet


@functools.lru_cache(maxsize=32)
def _a_f_entries(q: int, f: int) -> tuple[tuple[int, int, int, int], ...]:
    """(r, d_rf, m_rf, phi(r)) for each r of a_f_set(q, f), with every phi(r) from the one factorization of q**f-1."""
    if f < 1:
        raise ParameterError("f must be >= 1")
    total = q**f - 1
    smaller = [q**g - 1 for g in range(1, f)]
    ratio = total // (q - 1)
    out = []
    for r, phi in divisor_phis(total).items():
        if any(s % r == 0 for s in smaller):
            continue
        drf = math.gcd(r, ratio)
        out.append((r, drf, r // drf, phi))
    return tuple(out)


def a_f_set(q: int, f: int) -> list[tuple[int, int, int]]:
    """Divisors r of q**f-1 dividing no smaller q**g-1, with r = d_rf * m_rf.

    d_rf is gcd(r, (q**f-1)/(q-1)); returns (r, d_rf, m_rf) sorted by r.
    """
    return [entry[:3] for entry in _a_f_entries(q, f)]


def yucas_count(ctx: FieldContext, f: int, b: int) -> int:
    """Number of monic irreducible degree-f polynomials with constant term (-1)**f * b."""
    if not 1 <= b < ctx.q:
        raise ParameterError(f"b must be a nonzero field element, in [1, {ctx.q}), not {b}")
    m = ctx.order(b)
    total = sum(phi for _, _, mrf, phi in _a_f_entries(ctx.q, f) if mrf == m)
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


def lambda_size_parts(q: int, d: int) -> dict[tuple[int, int], int]:
    """The column count split by degree e | d and constant-term order m | gcd(d/e, q-1).

    Part (e, m) is the sum of phi(r)/e over the r in A_e with m_re = m,
    which is the paper's triple sum of Yucas' counts N(e, b, q) over the b
    of order m, taken class by class.
    """
    if d < 2:
        raise ParameterError("d must be >= 2")
    parts: dict[tuple[int, int], int] = {}
    for e in divisors(d):
        for m in divisors(d // e):
            if (q - 1) % m:
                continue
            part = sum(phi for _, _, mre, phi in _a_f_entries(q, e) if mre == m)
            if part % e:
                raise InternalCheckError("divisor-class sum is not divisible by e")
            parts[(e, m)] = part // e
    return parts


def lambda_size_formula(q: int, d: int) -> int:
    """Column count by the closed-form divisor sum: the sum of lambda_size_parts."""
    return sum(lambda_size_parts(q, d).values())


def lambda_size_with_ctx(ctx: FieldContext, d: int) -> int:
    """Column count over the order of ctx; the tables are not read."""
    return lambda_size_formula(ctx.q, d)


def _check_order(q: int, limit: int | None = None) -> None:
    """Refuse a q that is not a prime power, trial-dividing it only once it fits the table limit."""
    check_table_size(q, 1, limit)  # before factorize's trial division
    try:
        as_prime_power(q)
    except ValueError:
        raise ParameterError(f"q={q} is not a prime power") from None


def lambda_size(q: int, d: int) -> int:
    _check_order(q)
    return lambda_size_formula(q, d)


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
        return {**vars(self), "breakdown": {f"e={e},m={m}": v for (e, m), v in sorted(self.breakdown.items())}}


def count_report(q: int, d: int, M: int, limit: int | None = None) -> CountReport:
    """Sizes at (q, d, M), the closed form checked against the coset partition; no field is built."""
    check_alphabet(q, M)
    _check_order(q, limit)
    parts = lambda_size_parts(q, d)
    lam = sum(parts.values())
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


# -- brute-force oracle: sieve every monic polynomial by its factors ---------


def _operation_tables(ctx: FieldContext) -> tuple[np.ndarray, np.ndarray]:
    """q x q addition and multiplication tables of ctx.

    Built from the context's own array arithmetic, so a gather add[a, b]
    is ctx.add_arr(a, b), and likewise for mul.
    """
    elements = np.arange(ctx.q, dtype=np.int64)
    rows, cols = elements[:, None], elements[None, :]
    return ctx.add_arr(rows, cols), ctx.mul_arr(rows, cols)


def _monic_coefficients(encodings: np.ndarray, degree: int, q: int) -> np.ndarray:
    """Coefficients of monic polynomials of this degree from their low-coefficient encodings.

    Row i holds the coefficient of x**i (the last row is the leading 1),
    one column per base-q encoding, constant term least significant.
    """
    coeffs = np.ones((degree + 1, encodings.size), dtype=np.min_scalar_type(q - 1))
    for i in range(degree):  # row by row, so no temporary is degree rows tall
        coeffs[i] = encodings // q**i % q
    return coeffs


def _reducible_mask(ctx: FieldContext, g: int, irreducible: dict[int, np.ndarray]) -> np.ndarray:
    """Mask over the base-q encodings of the monic degree-g polynomials.

    Marks every product a*b of a monic irreducible a of degree k <= g/2,
    read from irreducible[k], and a monic b of degree g-k; these are
    exactly the reducible ones.
    """
    q = ctx.q
    # built per sieved degree: q*q <= q**f <= limit, and a sieve of several
    # degrees has f >= 4, so there q*q <= limit**0.5
    add, mul = _operation_tables(ctx)
    reducible = np.zeros(q**g, dtype=bool)
    for k in range(1, g // 2 + 1):
        a = _monic_coefficients(np.flatnonzero(irreducible[k]), k, q)
        b = _monic_coefficients(np.arange(q ** (g - k)), g - k, q)
        encoding = np.zeros((a.shape[1], b.shape[1]), dtype=np.int64)
        for i in range(g):  # coefficient i of a*b; coefficient g is the leading 1
            coeff = np.zeros_like(encoding)
            for j in range(max(0, i - (g - k)), min(k, i) + 1):
                coeff = add[coeff, mul[a[j][:, None], b[i - j][None, :]]]
            encoding += coeff * q**i
        reducible[encoding] = True
    return reducible


def constant_term_counts(ctx: FieldContext, f: int, limit: int = 1 << 20) -> dict[int, int]:
    """Count monic irreducibles of degree f by constant term, by enumeration.

    A sieve over the base-q encodings of the low coefficients: every
    monic of degree 1 is irreducible, and a monic of degree g is
    irreducible iff no product of a degree-k irreducible (k <= g/2) and a
    monic of degree g-k equals it. Products are formed by gathers into
    the q x q tables of _operation_tables; only the degrees k <= f/2 and
    f itself are sieved. Returns {b: count}, sorted by b, keyed by the
    element b with constant term (-1)**f * b. Independent of the counting
    formulas above.
    """
    if f < 1:
        raise ParameterError("f must be >= 1")
    q = ctx.q
    if q**f > limit:
        raise ParameterError(f"q**f = {q**f} exceeds the oracle limit {limit}")
    irreducible = {1: np.ones(q, dtype=bool)}
    for g in range(2, f + 1):
        if 2 * g <= f or g == f:
            irreducible[g] = ~_reducible_mask(ctx, g, irreducible)
    c0 = np.flatnonzero(irreducible[f]) % q
    c0 = c0[c0 != 0]  # x itself
    values, counts = np.unique(c0 if f % 2 == 0 else ctx.neg_arr(c0), return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


# -- explicit factor construction for x**m - 1 --------------------------------


def cyclotomic_factors(ext: ExtensionContext, deep: bool = False) -> list[tuple[int, ...]]:
    """Monic irreducible factors of x**m - 1 over GF(q), m = (q**d-1)/(q-1).

    Each factor is the orbit_products product over one q-cyclotomic coset
    of exponents of the order-m root of unity alpha**(q-1), checked there
    to be monic over GF(q); here factors are checked to be pairwise
    distinct, with degrees summing to m. With deep=True it also tests each
    factor for irreducibility and multiplies all factors back together
    through polys.mul, a schoolbook product in Python: 3.5 ms at m = 65,
    the largest m that verify passes deep=True, but 0.25 s at m = 1,365
    and 0.9 s at m = 4,095.
    """
    q, m = ext.q, ext.norm_ratio
    base = ext.base
    reps = coset_leaders(m, q)
    ordered: list[tuple[int, ...]] = [()] * reps.size
    keys = np.empty(reps.size, dtype=np.int64)
    # x - alpha**((q-1)*e) = x + alpha**((q-1)*e + log(-1))
    for rows, coeff in orbit_products(ext, reps, m, q - 1, int(ext.log[ext.neg(1)])):
        # base-q digits, the leading 1 included, so keys of any degrees differ; under the table cap q**(d+1) <= 2**60
        keys[rows] = coeff @ q ** np.arange(coeff.shape[1], dtype=np.int64)
        for k, row in zip(rows.tolist(), zip(*coeff.T.tolist())):
            ordered[k] = row
    if np.unique(keys).size != keys.size:
        raise InternalCheckError("orbit factors are not pairwise distinct")
    if sum(map(len, ordered)) - len(ordered) != m:
        raise InternalCheckError("factor degrees do not sum to m")

    if deep:
        for fac in ordered:
            if not polys.is_irreducible(base, fac):
                raise InternalCheckError("orbit factor is reducible")
        leaves = ordered
        while len(leaves) > 1:  # a product tree: neighbours multiplied, an odd last leaf carried up
            odd = leaves[-1:] if len(leaves) % 2 else []
            leaves = [polys.mul(base, a, b) for a, b in zip(leaves[::2], leaves[1::2])] + odd
        if leaves[0] != (base.neg(1), *[0] * (m - 1), 1):
            raise InternalCheckError("factor product is not x**m - 1")
    return ordered

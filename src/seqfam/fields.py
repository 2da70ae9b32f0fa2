"""Deterministic table-driven construction of GF(p**n) and GF(q**d).

Elements are packed integers: polynomial coefficients over GF(p) in base p,
low-degree coefficient least significant. The degree-d extension of GF(q)
reuses the same packing, so its base-q digits are GF(q) encodings and the
base field embeds as the encodings below q.

Every context carries full exp/log tables for its multiplicative group,
with the log convention log(0) = 0 (so that order-M characters evaluate
to 1 at zero). Construction is deterministic: the modulus polynomial is
the lexicographically smallest monic irreducible (coefficients compared
low-degree first) and the generator is the smallest-encoding element that
satisfies the required order (and norm, for extensions) conditions.
"""

import itertools
import math
import os

import numpy as np

from . import polys
from .errors import InternalCheckError, ParameterError, TableLimitError
from .intmath import is_prime, prime_factors

DEFAULT_TABLE_LIMIT = 1 << 24


def table_limit(override: int | None = None) -> int:
    """Effective log-table cap: explicit override, else SEQFAM_TABLE_LIMIT, else default."""
    if override is not None:
        return int(override)
    env = os.environ.get("SEQFAM_TABLE_LIMIT")
    if not env:
        return DEFAULT_TABLE_LIMIT
    try:
        return int(env)
    except ValueError:
        raise ParameterError(f"SEQFAM_TABLE_LIMIT={env!r} is not an integer") from None


def _unpack(values: np.ndarray, p: int, digits: int) -> np.ndarray:
    powers = p ** np.arange(digits, dtype=np.int64)
    return (values[:, None] // powers) % p


def _pack(digit_rows: np.ndarray, p: int) -> np.ndarray:
    powers = p ** np.arange(digit_rows.shape[1], dtype=np.int64)
    return digit_rows @ powers


class _TableField:
    """Shared scalar/vector arithmetic over precomputed exp/log tables."""

    p: int
    digits: int
    size: int
    exp: np.ndarray
    log: np.ndarray

    # -- additive structure (digitwise mod p) --------------------------------
    # add and neg take Python ints or int64 arrays: every step below is an
    # operator that both support.

    def add(self, a, b):
        p = self.p
        if p == 2:
            return a ^ b
        if self.digits == 1:
            return (a + b) % p
        out, shift = 0, 1
        for _ in range(self.digits):
            out = out + (a + b) % p * shift
            a, b = a // p, b // p
            shift *= p
        return out

    def neg(self, a):
        p = self.p
        if p == 2:
            return a
        if self.digits == 1:
            return (-a) % p
        out, shift = 0, 1
        for _ in range(self.digits):
            out = out + (-a) % p * shift
            a = a // p
            shift *= p
        return out

    def add_arr(self, a, b):
        return self.add(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))

    def neg_arr(self, a):
        return self.neg(np.array(a, dtype=np.int64))  # a copy even where neg is the identity

    # -- multiplicative structure (log tables) --------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(int(self.log[a]) + int(self.log[b])) % (self.size - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self.exp[(-int(self.log[a])) % (self.size - 1)])

    def pow_(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0
        return int(self.exp[(int(self.log[a]) * k) % (self.size - 1)])

    def mul_arr(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        idx = (self.log[a] + self.log[b]) % (self.size - 1)
        return np.where((a != 0) & (b != 0), self.exp[idx], 0)

    def pow_arr(self, a, k: int):
        a = np.asarray(a, dtype=np.int64)
        idx = (self.log[a] * (k % (self.size - 1))) % (self.size - 1)
        return np.where(a != 0, self.exp[idx], 0)

    def dlog(self, x: int) -> int:
        """Discrete log of x base the context generator, with dlog(0) = 0."""
        return int(self.log[x])

    def order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("order of 0")
        return (self.size - 1) // math.gcd(int(self.log[a]), self.size - 1)

    def _check_tables(self) -> None:
        """Generator of order size-1, log inverting exp, and log(0) = 0."""
        if np.unique(self.exp).size != self.size - 1:
            raise InternalCheckError(f"generator order is not {self.size - 1}")
        if not np.array_equal(self.log[self.exp], np.arange(self.size - 1)):
            raise InternalCheckError("log table does not invert exp table")
        if self.log[0] != 0:
            raise InternalCheckError("log(0) must be 0")


def _exp_table(size: int, beta: int, raw_mul, p: int, digits: int) -> np.ndarray:
    """exp[t] = beta**t for 0 <= t < size-1, filled by block doubling.

    Each round multiplies the known block by the constant c = beta**filled,
    which is a GF(p)-linear map on packed digits, so the whole block is
    one integer matmul: row j of its matrix holds the digits of c * p**j.
    """
    n = size - 1
    exp = np.empty(n, dtype=np.int64)
    exp[0] = 1
    filled = 1
    while filled < n:
        c = raw_mul(int(exp[filled - 1]), beta)
        mat = _unpack(np.array([raw_mul(c, p**j) for j in range(digits)], dtype=np.int64), p, digits)
        take = min(filled, n - filled)
        block = _unpack(exp[:take], p, digits)
        exp[filled : filled + take] = _pack((block @ mat) % p, p)
        filled += take
    return exp


def _raw_pow(raw_mul, a: int, k: int) -> int:
    out = 1
    while k:
        if k & 1:
            out = raw_mul(out, a)
        a = raw_mul(a, a)
        k >>= 1
    return out


def _generator_tables(raw_mul, p: int, digits: int, ratio: int, target: int):
    """(g, exp, log) for the smallest-encoding primitive g with g**ratio == target.

    ratio = size-1 with target 1 asks only for a primitive element; an
    extension asks for norm(g) = beta. The smallest primitive g0 is found by
    raw arithmetic and its tables built once; every primitive element is
    g0**k with gcd(k, size-1) = 1, so one pass over log_g0 finds the
    smallest encoding x = g0**k with k*ratio = log_g0(target), and its
    tables are g0's re-indexed by k. g is then rechecked by raw arithmetic.
    """
    size = p**digits
    n = size - 1
    primes = prime_factors(n)
    for g0 in range(1, size):
        if all(_raw_pow(raw_mul, g0, n // r) != 1 for r in primes) and _raw_pow(raw_mul, g0, n) == 1:
            break
    else:
        raise InternalCheckError("no primitive element found; field arithmetic is broken")
    exp = _exp_table(size, g0, raw_mul, p, digits)
    log = np.zeros(size, dtype=np.int64)
    log[exp] = np.arange(n, dtype=np.int64)
    g = g0
    if not (target == 1 and ratio == n):
        ks = log[1:]  # ks[x-1] = log_g0(x); k*ratio < 2**48 at the 2**24 table cap
        hits = np.flatnonzero((ks * (ratio % n) - log[target]) % n == 0)
        hits = hits[np.gcd(ks[hits], n) == 1]
        if hits.size == 0:
            raise InternalCheckError(f"no primitive element with g**{ratio} == {target}")
        g, k = int(hits[0]) + 1, int(ks[hits[0]])
        exp = exp[np.arange(n, dtype=np.int64) * k % n]
        log[exp] = np.arange(n, dtype=np.int64)
    if (
        _raw_pow(raw_mul, g, ratio) != target
        or exp[0] != 1
        or any(raw_mul(int(exp[t]), g) != int(exp[(t + 1) % n]) for t in (0, n // 2, n - 1))
    ):
        raise InternalCheckError("generator tables disagree with raw field arithmetic")
    return g, exp, log


def _poly_mul(ctx, modulus):
    """Product of packed polynomials over ctx (radix ctx.size), reduced mod the modulus."""
    radix, deg = ctx.size, polys.degree(modulus)

    def raw_mul(a, b):
        prod = polys.mul(ctx, _to_coeffs(a, radix, deg), _to_coeffs(b, radix, deg))
        return _from_coeffs(polys.mod(ctx, prod, modulus), radix)

    return raw_mul


class FieldContext(_TableField):
    """GF(q) = GF(p**n) with a fixed modulus polynomial and generator beta."""

    def __init__(self, p, n, modulus, beta, exp, log):
        self.p = p
        self.n = n
        self.q = p**n
        self.size = self.q
        self.digits = n
        self.modulus = modulus
        self.beta = beta
        self.exp = exp
        self.log = log

    def __repr__(self):
        return f"FieldContext(q={self.q}, modulus={polys.format_coeffs(self.modulus)}, beta={self.beta})"

    def descriptor(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "q": self.q,
            "modulus": list(self.modulus),
            "beta": self.beta,
        }

    def validate(self) -> None:
        """Recheck the construction invariants from first principles."""
        self._check_tables()
        if self.n > 1:
            _check_irreducible_by_trial_division(_prime_context(self.p), self.modulus)


class ExtensionContext(_TableField):
    """GF(q**d) as a degree-d extension of an existing GF(q) representation."""

    def __init__(self, base: FieldContext, d, modulus, alpha, exp, log):
        self.base = base
        self.p = base.p
        self.d = d
        self.q = base.q
        self.size = base.q**d
        self.digits = base.n * d
        self.norm_ratio = (self.size - 1) // (base.q - 1)
        self.modulus = modulus
        self.alpha = alpha
        self.exp = exp
        self.log = log

    def __repr__(self):
        return f"ExtensionContext(q={self.q}, d={self.d}, alpha={self.alpha})"

    @property
    def derived_beta(self) -> int:
        return self.norm(self.alpha)

    def norm(self, x: int) -> int:
        """Norm down to GF(q): x**((q**d-1)/(q-1)), with norm(0) = 0."""
        return int(self.norm_arr(x))

    def norm_arr(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        idx = (self.log[xs] * self.norm_ratio) % (self.size - 1)
        return np.where(xs != 0, self.exp[idx], 0)

    def frobenius(self, x: int, k: int = 1) -> int:
        """x**(q**k), the k-fold base-field Frobenius."""
        return self.pow_(x, pow(self.q, k, self.size - 1)) if x else 0

    def trace(self, x: int) -> int:
        """Sum of the d Frobenius conjugates; lands in GF(q)."""
        acc = 0
        for j in range(self.d):
            acc = self.add(acc, self.frobenius(x, j))
        return acc

    def in_base_field(self, x: int) -> bool:
        return 0 <= x < self.q

    def descriptor(self) -> dict:
        out = self.base.descriptor()
        out.update(
            {
                "d": self.d,
                "ext_modulus": list(self.modulus),
                "alpha": self.alpha,
            }
        )
        return out

    def validate(self) -> None:
        self._check_tables()
        if self.derived_beta != self.base.beta:
            raise InternalCheckError("norm(alpha) != beta")
        _check_irreducible_by_trial_division(self.base, self.modulus)
        rng = np.random.default_rng(0)
        xs = rng.integers(0, self.size, size=64)
        for x in map(int, xs):
            if not self.in_base_field(self.norm(x)):
                raise InternalCheckError("norm left the base field")
            if not self.in_base_field(self.trace(x)):
                raise InternalCheckError("trace left the base field")


def _prime_context(p: int) -> FieldContext:
    """GF(p) with modulus x and beta the smallest primitive root."""
    beta, exp, log = _generator_tables(lambda a, b: (a * b) % p, p, 1, p - 1, 1)
    return FieldContext(p, 1, (0, 1), beta, exp, log)


def _to_coeffs(x: int, radix: int, length: int) -> tuple:
    out = []
    for _ in range(length):
        out.append(x % radix)
        x //= radix
    return polys.trim(out)


def _from_coeffs(coeffs, radix: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * radix + c
    return out


def _smallest_irreducible(ctx, deg: int) -> tuple:
    """Lexicographically smallest monic irreducible of the given degree over ctx."""
    for tail in itertools.product(range(ctx.size), repeat=deg):
        if deg > 1 and tail[0] == 0:
            continue  # divisible by x
        candidate = tail + (1,)
        if polys.is_irreducible(ctx, candidate):
            return candidate
    raise InternalCheckError("no irreducible polynomial found")


def _check_irreducible_by_trial_division(coeff_ctx, modulus) -> None:
    """Spec-level invariant check: divide by every monic poly of degree <= n/2."""
    n = polys.degree(modulus)
    if n <= 1:
        return
    for deg in range(1, n // 2 + 1):
        for tail in itertools.product(range(coeff_ctx.size), repeat=deg):
            if polys.is_zero(polys.mod(coeff_ctx, modulus, tail + (1,))):
                raise InternalCheckError(f"modulus has a degree-{deg} factor")


def build_field(p: int, n: int, limit: int | None = None) -> FieldContext:
    """Construct GF(p**n) deterministically.

    The modulus is the lexicographically smallest monic irreducible of
    degree n over GF(p) (constant term compared first) and beta is the
    primitive element with the smallest packed-integer encoding.
    """
    if not is_prime(p):
        raise ParameterError(f"p={p} is not prime")
    if n < 1:
        raise ParameterError("n must be >= 1")
    q = p**n
    if q > table_limit(limit):
        raise TableLimitError(f"q={q} exceeds the table limit {table_limit(limit)}")
    prime_ctx = _prime_context(p)
    if n == 1:
        return prime_ctx
    modulus = _smallest_irreducible(prime_ctx, n)
    beta, exp, log = _generator_tables(_poly_mul(prime_ctx, modulus), p, n, q - 1, 1)
    return FieldContext(p, n, modulus, beta, exp, log)


def build_extension(base: FieldContext, d: int, limit: int | None = None) -> ExtensionContext:
    """Construct GF(q**d) on top of an existing GF(q) representation.

    alpha is the smallest-encoding primitive element whose norm equals
    base.beta, so the base field's generator is fixed first and the
    extension is chosen to be compatible with it.
    """
    if d < 2:
        raise ParameterError("extension degree d must be >= 2")
    size = base.q**d
    if size > table_limit(limit):
        raise TableLimitError(f"q**d={size} exceeds the table limit {table_limit(limit)}")
    modulus = _smallest_irreducible(base, d)
    ratio = (size - 1) // (base.q - 1)
    alpha, exp, log = _generator_tables(_poly_mul(base, modulus), base.p, base.n * d, ratio, base.beta)
    ext = ExtensionContext(base, d, modulus, alpha, exp, log)
    if int(ext.exp[ratio % (size - 1)]) != base.beta:
        raise InternalCheckError("norm(alpha) disagrees with beta after table build")
    return ext

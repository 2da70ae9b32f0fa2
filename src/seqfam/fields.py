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

The tables are built without per-element polynomial arithmetic: exp is
filled by block doubling, each round one modular product in a prime field
and otherwise a GF(p)-linear map applied through lookup tables (see
_exp_table), and log is its inverse permutation. Raw polynomial
arithmetic finds the generator and rechecks it against the finished
tables.

Both tables are int32, 4 bytes per entry: check_table_size keeps the
field size at or below 2**30, so every entry and every sum of two logs
(mul_arr, root_products) fits as it is. Products that can pass 2**31
are formed in int64: the prime-field doubling x * c mod p in
_exp_table, and the character sums in correlation.py, which scale logs
by a power.
"""

import itertools
import math
import os

import numpy as np

from . import polys
from .errors import InternalCheckError, ParameterError, TableLimitError
from .intmath import is_prime, power, prime_factors
from .kernels import CHUNK, run_chunks

DEFAULT_TABLE_LIMIT = 1 << 24
# exp and log are int32 tables. check_table_size keeps the field size at or below 2**30 whatever
# the table limit says, so every entry, and every sum of two logs, fits in int32.
_TABLE_MAX = 1 << 30


def table_limit(override: int | None = None) -> int:
    """Effective log-table cap: explicit override, else SEQFAM_TABLE_LIMIT, else default; below 1 is refused."""
    if override is not None:
        limit = int(override)
    else:
        env = os.environ.get("SEQFAM_TABLE_LIMIT")
        if not env:
            return DEFAULT_TABLE_LIMIT
        try:
            limit = int(env)
        except ValueError:
            raise ParameterError(f"SEQFAM_TABLE_LIMIT={env!r} is not an integer") from None
    if limit < 1:
        raise ParameterError(f"table limit must be a positive integer, got {limit}")
    return limit


def check_table_size(base: int, exponent: int, limit: int | None = None, name: str = "q") -> None:
    """Raise TableLimitError unless base**exponent fits the table limit.

    A base above the limit, or an exponent above the limit's bit length, is
    refused without forming the power, so a huge input is turned away before
    any primality test or table; the message names the size as
    base**exponent. The cap is never above 2**30, as the tables hold int32
    (see _TABLE_MAX). A base below 2 is left to the caller's own checks.
    """
    cap = min(table_limit(limit), _TABLE_MAX)
    if base >= 2 and (base > cap or exponent > cap.bit_length() or base**exponent > cap):
        raise TableLimitError(f"{name} = {base}**{exponent} exceeds the table limit {cap}")


def _unpack(values: np.ndarray, p: int, digits: int) -> np.ndarray:
    powers = p ** np.arange(digits, dtype=np.int64)
    return (values[:, None] // powers) % p


def _add_digits(a, b, p: int, digits: int):
    """Digitwise sum mod p of packed elements: Python ints or integer arrays.

    Every step is an operator that both support; for p = 2 it is one XOR.
    """
    if p == 2:
        return a ^ b
    if digits == 1:
        return (a + b) % p
    out, shift = 0, 1
    for _ in range(digits):
        out = out + (a + b) % p * shift
        a, b = a // p, b // p
        shift *= p
    return out


class _TableField:
    """Shared scalar/vector arithmetic over precomputed exp/log tables."""

    p: int
    digits: int
    size: int
    exp: np.ndarray
    log: np.ndarray

    # -- additive structure (digitwise mod p) --------------------------------
    # add and neg take Python ints or int64 arrays.

    def add(self, a, b):
        return _add_digits(a, b, self.p, self.digits)

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

    def dlog(self, x: int) -> int:
        """Discrete log of x base the context generator, with dlog(0) = 0."""
        return int(self.log[x])

    def order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("order of 0")
        return (self.size - 1) // math.gcd(int(self.log[a]), self.size - 1)

    def _check_tables(self) -> None:
        """Generator of order size-1 (its powers are 1..size-1, each once), log inverting exp, and log(0) = 0."""
        if not np.array_equal(np.sort(self.exp), np.arange(1, self.size)):
            raise InternalCheckError(f"generator order is not {self.size - 1}")
        if not np.array_equal(self.log[self.exp], np.arange(self.size - 1)):
            raise InternalCheckError("log table does not invert exp table")
        if self.log[0] != 0:
            raise InternalCheckError("log(0) must be 0")


_SLICE_BITS = 12  # a slice table in _exp_table has 2**12 entries at most, or one digit's worth


def _add_spread(a, b, p: int, bits: int, ones: int):
    """Digitwise sum mod p of elements in _exp_table's spread form.

    Each digit has a field of `bits` bits with 2**(bits-1) >= p, and `ones`
    holds a 1 in every field. Adding 2**(bits-1) - p to a digit sum sets
    the field's top bit exactly when the sum is at least p, and no field
    overflows into the next, so the reduction is a few whole-word
    operations. For p = 2 the fields are single bits and the sum is XOR.
    """
    if p == 2:
        return a ^ b
    total = a + b
    return total - p * ((total + ones * ((1 << (bits - 1)) - p)) >> (bits - 1) & ones)


def _doubling_table(multiples: np.ndarray, add) -> np.ndarray:
    """table[sum_t k_t << (bits*t)] = the add over t of multiples[k_t, t]; multiples has 2**bits rows k."""
    table = np.zeros(1, dtype=multiples.dtype)
    for t in range(multiples.shape[1]):
        table = add(multiples[:, t, None], table).ravel()
    return table


def _map_block(table: np.ndarray, take: int, into: int, image, out: np.ndarray | None = None) -> None:
    """out[into + t] = image(table[t]) for every t < take, chunk by chunk; out defaults to table."""
    out = table if out is None else out

    def chunk(lo):
        hi = min(lo + CHUNK, take)
        out[into + lo : into + hi] = image(table[lo:hi])

    run_chunks(chunk, take, CHUNK)


def _exp_table(size: int, beta: int, raw_mul, p: int, digits: int) -> np.ndarray:
    """exp[t] = beta**t for 0 <= t < size-1, filled by block doubling.

    Each round multiplies the known block by c = beta**filled. In a prime
    field that is one modular product. Otherwise the map x -> c*x is
    GF(p)-linear on the digits and is applied by lookup to the block held
    in spread form: digit j in bits [bits*j, bits*(j+1)), one bit per digit
    for p = 2 (the packed encoding itself) and room for the sum of two
    digits plus a flag bit for odd p (see _add_spread). The digits are cut
    into slices of w digits, w as large as keeps 2**(bits*w) <= 2**12 (at
    least 1), and slice lo maps through a table of c * (v * p**lo) indexed
    by the spread slice value v, built by linear doubling from the images
    c * p**j of the digit basis: table[v + (k << bits*t)] = table[v] +
    k * c * p**(lo+t). The block's image is one gather per slice, summed
    by _add_spread. Only the first round's images are raw products: the
    next round's constant is c**2, so its images c**2 * p**j are this
    round's map applied to this round's images. For odd p the finished
    table is packed back to base p by slice lookups too. Each round, and
    the packing, maps the table chunk by chunk (_map_block). The rounds run
    in the int32 table itself unless the spread form is wider (odd p with
    many digits: 39 bits for p = 3 with 13 digits); then they run in an
    int64 work table, and the packing writes into the int32 table.
    """
    n = size - 1
    exp = np.empty(n, dtype=np.int32)
    exp[0] = 1
    if digits == 1:
        c, filled = beta, 1
        while filled < n:
            take = min(filled, n - filled)
            _map_block(exp, take, filled, lambda x: x.astype(np.int64) * c % p)  # x * c passes 2**31
            c, filled = raw_mul(c, c), filled + take
        return exp
    bits = 1 if p == 2 else (p - 1).bit_length() + 1
    width = max(1, _SLICE_BITS // bits)
    slices = [(lo, min(width, digits - lo)) for lo in range(0, digits, width)]
    ones = sum(1 << bits * j for j in range(digits))
    spread = np.min_scalar_type(-(2 << bits * digits))  # holds a + b
    work = exp if spread.itemsize <= exp.itemsize else np.empty(n, dtype=np.int64)
    work[0] = 1
    places = bits * np.arange(digits, dtype=np.int64)  # digit j's shift in spread form
    scalars = np.arange(1 << bits)[:, None, None]

    def add(a, b):
        return _add_spread(a, b, p, bits, ones)

    def apply(tables, x, combine):  # one gather per slice of the spread elements x, combined
        image = None
        for (lo, w), table in zip(slices, tables):
            part = table[x >> bits * lo & (1 << bits * w) - 1]
            image = part if image is None else combine(image, part)
        return image

    raw = _unpack(np.array([raw_mul(beta, p**j) for j in range(digits)], dtype=np.int64), p, digits)
    basis = (raw << places).sum(axis=1).astype(spread)  # c * p**j in spread form, c = beta**filled
    filled = 1
    while filled < n:
        take = min(filled, n - filled)
        # multiples[k, j] = k * c * p**j in spread form; rows k >= p are never looked up
        digit_rows = basis[:, None] >> places & (1 << bits) - 1
        multiples = ((scalars * digit_rows % p * (scalars < p)) << places).sum(axis=2).astype(spread)
        tables = [_doubling_table(multiples[:, lo : lo + w], add) for lo, w in slices]
        _map_block(work, take, filled, lambda x: apply(tables, x.astype(spread, copy=False), add))
        basis = apply(tables, basis, add)
        filled += take
    if p != 2:
        unspread = [_doubling_table(scalars[:, 0] * p ** np.arange(lo, lo + w), np.add) for lo, w in slices]
        _map_block(work, n, 0, lambda x: apply(unspread, x, np.add), out=exp)
    return exp


def _power_tables(exp: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(exp, log) of g0**k from g0's exp table: exp[t*k mod n] for each t, and its inverse with log(0) = 0."""
    n = exp.size
    out = exp if k == 1 else np.empty_like(exp)
    log = np.zeros(n + 1, dtype=exp.dtype)

    def chunk(lo):
        t = np.arange(lo, min(lo + CHUNK, n), dtype=np.int64)
        if k != 1:
            out[lo : lo + CHUNK] = exp[t * k % n]
        log[out[lo : lo + CHUNK]] = t

    run_chunks(chunk, n, CHUNK)
    return out, log


def _generator_tables(raw_mul, p: int, digits: int, ratio: int, target: int, first: int = 1):
    """(g, exp, log) for the smallest-encoding primitive g with g**ratio == target.

    ratio = size-1 with target 1 asks only for a primitive element; an
    extension asks for norm(g) = beta. The smallest primitive g0 is found by
    raw arithmetic and its exp table built once. Every primitive element is
    g0**k with gcd(k, size-1) = 1, and g0**k qualifies iff
    k*ratio = log_g0(target) mod size-1. One comparison pass over exp finds
    log_g0(target); k then runs over one residue class mod
    (size-1)/gcd(ratio, size-1), gcd(ratio, size-1) candidates in all.
    g is the smallest encoding among those with gcd(k, size-1) = 1: the k of
    the smallest candidate left is tested, and dropped if it fails. g's exp
    table is g0's re-indexed by k, and log is scattered from it in the same
    chunked pass (_power_tables). g is then rechecked by raw arithmetic.
    The search for g0 starts at `first`: over a polynomial modulus the
    encodings below the radix are the coefficient field, a proper subfield,
    so none of them is primitive.
    """
    size = p**digits
    n = size - 1
    primes = prime_factors(n)
    for g0 in range(first, size):
        if all(power(raw_mul, g0, n // r, 1) != 1 for r in primes) and power(raw_mul, g0, n, 1) == 1:
            break
    else:
        raise InternalCheckError("no primitive element found; field arithmetic is broken")
    exp = _exp_table(size, g0, raw_mul, p, digits)
    g, k = g0, 1
    if not (target == 1 and ratio == n):
        log_target = int(np.argmax(exp == target))  # 0 where target never occurs, as log(0) = 0
        share = math.gcd(ratio, n)
        # k runs over k0 + i*period; that class holds a k prime to n iff k0 is prime to period
        period = n // share
        k0 = log_target // share * pow(ratio // share, -1, period) % period
        if log_target % share or math.gcd(k0, period) != 1:
            raise InternalCheckError(f"no primitive element with g**{ratio} == {target}")
        encodings = exp[k0::period].copy()  # g0**k, all distinct
        while math.gcd(k := k0 + int(np.argmin(encodings)) * period, n) != 1:
            encodings[(k - k0) // period] = size  # above every encoding
        g = int(exp[k])
    exp, log = _power_tables(exp, k)
    if (
        power(raw_mul, g, ratio, 1) != target
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
        # log(x**ratio) = (log x mod (q-1)) * ratio, below q**d - 1, so int32 holds it
        idx = self.log[xs] % (self.q - 1) * self.norm_ratio
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
    # above degree 1 a zero constant term means a factor x, so those tails are never formed
    for tail in itertools.product(range(deg > 1, ctx.size), *[range(ctx.size)] * (deg - 1)):
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


def check_field_order(p: int, n: int, limit: int | None = None) -> int:
    """q = p**n, once n, the table limit and the primality of p have passed, as build_field checks them first."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    check_table_size(p, n, limit)
    if not is_prime(p):
        raise ParameterError(f"p={p} is not prime")
    return p**n


def build_field(p: int, n: int, limit: int | None = None) -> FieldContext:
    """Construct GF(p**n) deterministically.

    The modulus is the lexicographically smallest monic irreducible of
    degree n over GF(p) (constant term compared first) and beta is the
    primitive element with the smallest packed-integer encoding.
    """
    q = check_field_order(p, n, limit)
    prime_ctx = _prime_context(p)
    if n == 1:
        return prime_ctx
    modulus = _smallest_irreducible(prime_ctx, n)
    beta, exp, log = _generator_tables(_poly_mul(prime_ctx, modulus), p, n, q - 1, 1, first=p)
    return FieldContext(p, n, modulus, beta, exp, log)


def check_extension(q: int, d: int, limit: int | None = None) -> None:
    """Refuse a degree d below 2 or a q**d above the table limit, as build_extension does first."""
    if d < 2:
        raise ParameterError("extension degree d must be >= 2")
    check_table_size(q, d, limit, "q**d")


def build_extension(base: FieldContext, d: int, limit: int | None = None) -> ExtensionContext:
    """Construct GF(q**d) on top of an existing GF(q) representation.

    alpha is the smallest-encoding primitive element whose norm equals
    base.beta, so the base field's generator is fixed first and the
    extension is chosen to be compatible with it.
    """
    check_extension(base.q, d, limit)
    size = base.q**d
    modulus = _smallest_irreducible(base, d)
    ratio = (size - 1) // (base.q - 1)
    alpha, exp, log = _generator_tables(
        _poly_mul(base, modulus), base.p, base.n * d, ratio, base.beta, first=base.q
    )
    ext = ExtensionContext(base, d, modulus, alpha, exp, log)
    if int(ext.exp[ratio % (size - 1)]) != base.beta:
        raise InternalCheckError("norm(alpha) disagrees with beta after table build")
    return ext

"""Dense polynomial arithmetic over a table-driven field context.

Polynomials are tuples of element encodings, constant term first.
Degrees stay tiny (bounded by the extension degree or the coset size),
so everything is schoolbook. The context only needs scalar add/neg/mul/inv
and its element count ``size``; coprime_rows works on many polynomials at
once, as rows of an int64 array, and also uses the array ops and the
exp/log tables.
"""

import numpy as np

from .errors import InternalCheckError
from .intmath import prime_factors

ZERO_POLY = (0,)


def trim(coeffs) -> tuple:
    """Drop trailing zero coefficients; the zero polynomial is (0,)."""
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(poly) -> int:
    """Degree with the convention deg(0) = -1."""
    p = trim(poly)
    return -1 if p == ZERO_POLY else len(p) - 1


def is_zero(poly) -> bool:
    return all(c == 0 for c in poly)


def add(ctx, a, b) -> tuple:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out.append(ctx.add(ai, bi))
    return trim(out)


def neg(ctx, a) -> tuple:
    return trim([ctx.neg(c) for c in a])


def sub(ctx, a, b) -> tuple:
    return add(ctx, a, neg(ctx, b))


def scale(ctx, a, c) -> tuple:
    if c == 0:
        return ZERO_POLY
    return trim([ctx.mul(x, c) for x in a])


def mul(ctx, a, b) -> tuple:
    if is_zero(a) or is_zero(b):
        return ZERO_POLY
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = ctx.add(out[i + j], ctx.mul(ai, bj))
    return trim(out)


def mul_linear(ctx, a, root_neg) -> tuple:
    """Multiply a by the monic linear factor (x + root_neg)."""
    return mul(ctx, a, (root_neg, 1))


def pow_(ctx, a, k: int) -> tuple:
    out = (1,)
    base = trim(a)
    while k:
        if k & 1:
            out = mul(ctx, out, base)
        base = mul(ctx, base, base)
        k >>= 1
    return out


def divmod_(ctx, a, b) -> tuple[tuple, tuple]:
    b = trim(b)
    if is_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    a = list(trim(a))
    db, lead_inv = len(b) - 1, ctx.inv(b[-1])
    if len(a) - 1 < db:
        return ZERO_POLY, trim(a)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i] == 0:
            continue
        f = ctx.mul(a[i], lead_inv)
        q[i - db] = f
        for j in range(db + 1):
            a[i - db + j] = ctx.add(a[i - db + j], ctx.neg(ctx.mul(f, b[j])))
    return trim(q), trim(a)


def mod(ctx, a, b) -> tuple:
    return divmod_(ctx, a, b)[1]


def monic(ctx, a) -> tuple:
    a = trim(a)
    if is_zero(a):
        return a
    return scale(ctx, a, ctx.inv(a[-1]))


def gcd(ctx, a, b) -> tuple:
    a, b = trim(a), trim(b)
    while not is_zero(b):
        a, b = b, mod(ctx, a, b)
    return monic(ctx, a)


def coprime_rows(ctx, a, b) -> np.ndarray:
    """Row-wise degree(gcd(a[i], b[i])) == 0 for coefficient rows, constant term first.

    A batched Euclid: each round swaps the rows where deg a < deg b, then
    cancels the leading term of a with a shifted multiple of b. Every
    round lowers deg a + deg b of each row with b != 0, so it ends within
    2 * width rounds; needing more raises InternalCheckError. The one-pair
    reference is gcd().
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    width = max(a.shape[1], b.shape[1])
    a = np.pad(a, ((0, 0), (0, width - a.shape[1])))
    b = np.pad(b, ((0, 0), (0, width - b.shape[1])))
    cols = np.arange(width)
    n = ctx.size - 1

    def degrees(rows):
        nonzero = rows != 0
        return np.where(nonzero.any(axis=1), width - 1 - np.argmax(nonzero[:, ::-1], axis=1), -1)

    for _ in range(2 * width):
        da, db = degrees(a), degrees(b)
        swap = da < db
        a[swap], b[swap] = b[swap], a[swap]
        da, db = np.where(swap, db, da), np.where(swap, da, db)
        live = db >= 0
        if not live.any():
            return da == 0
        lead_a = np.take_along_axis(a, np.maximum(da, 0)[:, None], axis=1)[:, 0]
        lead_b = np.take_along_axis(b, np.maximum(db, 0)[:, None], axis=1)[:, 0]
        factor = ctx.exp[(ctx.log[lead_a] - ctx.log[lead_b]) % n]  # lead_a / lead_b
        factor = np.where(live, ctx.neg_arr(factor), 0)
        source = cols - (da - db)[:, None]  # b shifted up by da - db places
        shifted = np.where(source >= 0, np.take_along_axis(b, np.maximum(source, 0), axis=1), 0)
        a = ctx.add_arr(a, ctx.mul_arr(factor[:, None], shifted))
    raise InternalCheckError("batched Euclid did not lower the degrees")


def eval_at(ctx, poly, x):
    """Horner evaluation at a single element."""
    acc = 0
    for c in reversed(trim(poly)):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def eval_arr(ctx, poly, xs):
    """Horner evaluation at an array of element encodings."""
    xs = np.asarray(xs, dtype=np.int64)
    acc = np.zeros(xs.shape, dtype=np.int64)
    for c in reversed(trim(poly)):
        acc = ctx.add_arr(ctx.mul_arr(acc, xs), int(c))
    return acc


def pow_x_mod(ctx, e: int, modulus) -> tuple:
    """x**e reduced modulo the given polynomial, by square and multiply."""
    result = (1,)
    base = mod(ctx, (0, 1), modulus)
    while e:
        if e & 1:
            result = mod(ctx, mul(ctx, result, base), modulus)
        base = mod(ctx, mul(ctx, base, base), modulus)
        e >>= 1
    return result


def is_irreducible(ctx, poly) -> bool:
    """Rabin test: gcd checks against x**(q**k) - x for maximal subfields."""
    poly = trim(poly)
    n = degree(poly)
    if n <= 0:
        return False
    if n == 1:
        return True
    q = ctx.size
    x = (0, 1)
    if pow_x_mod(ctx, q**n, poly) != mod(ctx, x, poly):
        return False
    for r in prime_factors(n):
        h = sub(ctx, pow_x_mod(ctx, q ** (n // r), poly), x)
        if degree(gcd(ctx, h, poly)) != 0:
            return False
    return True


def format_coeffs(poly) -> str:
    """Comma-separated coefficient encodings, constant term first."""
    return ",".join(str(c) for c in trim(poly))

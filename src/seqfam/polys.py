"""Dense polynomial arithmetic over a table-driven field context.

Polynomials are tuples of element encodings, constant term first.
Degrees stay tiny (bounded by the extension degree or the coset size),
so everything is schoolbook. The context only needs scalar add/neg/mul/inv
and its element count ``size``; eval_arr also uses the array ops.
"""

import numpy as np

from .intmath import power, prime_factors

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


def pow_(ctx, a, k: int) -> tuple:
    return power(lambda x, y: mul(ctx, x, y), trim(a), k, (1,))


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


def eval_at(ctx, poly, x):
    """Horner evaluation at a single element."""
    acc = 0
    for c in reversed(trim(poly)):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def eval_arr(ctx, poly, xs):
    """Horner evaluation at an array of element encodings; a (rows, k) block of polynomials gives a row each."""
    xs = np.asarray(xs, dtype=np.int64)
    acc = np.zeros(xs.shape, dtype=np.int64)
    for c in np.asarray(poly, dtype=np.int64).T[::-1]:
        acc = ctx.add_arr(ctx.mul_arr(acc, xs), c[..., None])
    return acc


def pow_mod(ctx, a, e: int, modulus) -> tuple:
    """a**e reduced modulo the given polynomial."""
    return power(lambda x, y: mod(ctx, mul(ctx, x, y), modulus), mod(ctx, a, modulus), e, (1,))


def is_irreducible(ctx, poly) -> bool:
    """Rabin test: gcd checks against x**(q**k) - x for maximal subfields.

    The powers x**(q**(n/r)), r prime, and x**(q**n) come from one chain of
    q-th powers, in increasing order, so a factor of small degree ends the
    test early.
    """
    poly = trim(poly)
    n = degree(poly)
    if n <= 0:
        return False
    if n == 1:
        return True
    q = ctx.size
    x = mod(ctx, (0, 1), poly)
    frob, done = x, 0
    for k in sorted(n // r for r in prime_factors(n)) + [n]:
        frob, done = pow_mod(ctx, frob, q ** (k - done), poly), k
        if k < n and degree(gcd(ctx, sub(ctx, frob, x), poly)) != 0:
            return False
    return frob == x


def format_coeffs(poly) -> str:
    """Comma-separated coefficient encodings, constant term first."""
    return ",".join(str(c) for c in trim(poly))

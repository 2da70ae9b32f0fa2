"""Elementary integer number theory (trial-division scale), and the one square and multiply.

Everything here but power works on plain Python ints, so values beyond
64 bits are fine; inputs are expected to stay below ~2**40 where trial
division is still instant. power works in any ring its caller multiplies.
"""

from functools import reduce


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def power(mul, x, k: int, one):
    """x**k for k >= 0 in whatever ring mul multiplies, with x**0 = one.

    Left-to-right square and multiply: bit_length(k) - 1 squarings and
    popcount(k) - 1 products by x, never a product with one.
    """
    if k < 0:
        raise ValueError("power expects k >= 0")
    if k == 0:
        return one
    out = x
    for i in range(k.bit_length() - 2, -1, -1):
        out = mul(out, out)
        if k >> i & 1:
            out = mul(out, x)
    return out


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}, by trial division."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for d in (2, 3):
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    d = 5
    while d * d <= n:
        for step in (d, d + 2):
            while n % step == 0:
                out[step] = out.get(step, 0) + 1
                n //= step
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_factors(n: int) -> list[int]:
    return sorted(factorize(n))


def divisor_phis(n: int) -> dict[int, int]:
    """Every positive divisor d of n, ascending, mapped to euler_phi(d), from the one factorization of n.

    phi is multiplicative, and phi(p**k) = (p - 1) * p**(k - 1).
    """
    phis = {1: 1}
    for p, e in factorize(n).items():
        powers = [(1, 1)] + [(p**k, (p - 1) * p ** (k - 1)) for k in range(1, e + 1)]
        phis = {d * pk: phi * phik for d, phi in phis.items() for pk, phik in powers}
    return dict(sorted(phis.items()))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending."""
    return list(divisor_phis(n))


def euler_phi(n: int) -> int:
    return reduce(lambda acc, p: acc // p * (p - 1), factorize(n), n)


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def as_prime_power(q: int) -> tuple[int, int]:
    """Write q = p**n for a prime p, or raise ValueError."""
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, n),) = fac.items()
    return p, n


def iter_prime_powers(lo: int, hi: int):
    """Yield (p, n, q) for every prime power q with lo <= q <= hi."""
    for q in range(max(lo, 2), hi + 1):
        fac = factorize(q)
        if len(fac) == 1:
            ((p, n),) = fac.items()
            yield p, n, q

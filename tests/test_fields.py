import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqfam import fields
from seqfam.errors import InternalCheckError, ParameterError, TableLimitError
from seqfam.fields import ExtensionContext, FieldContext, build_extension, build_field, check_table_size
from seqfam.intmath import iter_prime_powers, prime_factors

# (p, n) or (p, n, d) -> (modulus, generator, sha256 prefix of exp as little-endian int64).
# Pinned so that any change to the modulus or generator search shows up here;
# test_determinism only compares two builds made by the same code.
GOLDEN_CONSTRUCTIONS = {
    (2, 8): ((1, 0, 0, 0, 1, 1, 0, 1, 1), 6, "3e59f1480d282a65"),
    (3, 6): ((1, 0, 0, 0, 1, 1, 1), 4, "28064ffad714122f"),
    (2, 1, 8): ((1, 0, 0, 0, 1, 1, 0, 1, 1), 6, "3e59f1480d282a65"),
    (5, 1, 2): ((1, 1, 1), 13, "18d1ba5c0e359c7f"),
    (2, 2, 3): ((1, 0, 1, 1), 7, "874b128dbe8f8a64"),
    (13, 1, 2): ((1, 3, 1), 43, "680dde87a4405b41"),
    (2, 4, 2): ((1, 3, 1), 68, "d4c0058e450b53ac"),
    (977, 1, 2): ((1, 1, 1), 9863, "d174aaafbce8f8c3"),
    (2, 1, 20): ((1,) + (0,) * 16 + (1, 0, 0, 1), 2, "4cb1763d286d33f4"),
    (2, 2, 10): ((1, 0, 0, 0, 0, 0, 0, 2, 1, 0, 1), 8, "c30f5f9325c9b4a8"),
    (2, 4, 5): ((1, 0, 0, 0, 2, 1), 270, "fb096f99442b0208"),
    (2, 5, 4): ((1, 0, 0, 1, 1), 40, "6ac3fb3b720063f4"),
    (2, 10, 2): ((1, 3, 1), 3616, "7dc82f2900729904"),
    (3, 6, 2): ((1, 3, 1), 9056, "0b5eec8bacf50621"),
}


def test_gf5_smallest_primitive_root(gf5):
    # orders mod 5: 2 -> 4, so 2 is the smallest primitive root
    assert gf5.beta == 2
    assert gf5.q == 5
    assert list(gf5.exp) == [1, 2, 4, 3]


def test_gf2_trivial_group():
    ctx = build_field(2, 1)
    assert ctx.beta == 1
    assert ctx.dlog(0) == 0 and ctx.dlog(1) == 0


def test_gf16_generator_order(gf16):
    assert np.unique(gf16.exp).size == 15
    assert gf16.pow_(gf16.beta, 15) == 1
    assert all(gf16.pow_(gf16.beta, k) != 1 for k in range(1, 15))


def test_parameter_errors():
    with pytest.raises(ParameterError):
        build_field(12, 1)
    with pytest.raises(ParameterError):
        build_field(5, 0)
    with pytest.raises(TableLimitError):
        build_field(2, 10, limit=512)
    with pytest.raises(ParameterError):
        build_extension(build_field(5, 1), 1)


def test_check_table_size_bounds():
    check_table_size(2, 24, limit=1 << 24)  # exactly at the cap
    check_table_size(1, 10**9, limit=16)  # a base below 2 is the caller's to reject
    for base, exponent in ((2, 25), (1 << 24 | 1, 1), (3, 10**12)):
        with pytest.raises(TableLimitError, match=rf"q = {base}\*\*{exponent} exceeds the table limit"):
            check_table_size(base, exponent, limit=1 << 24)


def test_table_limit_env(monkeypatch):
    monkeypatch.setenv("SEQFAM_TABLE_LIMIT", "16")
    with pytest.raises(TableLimitError):
        build_field(5, 2)
    build_field(2, 4)  # exactly at the cap


def test_table_cap_keeps_entries_and_log_sums_in_int32(monkeypatch):
    monkeypatch.setenv("SEQFAM_TABLE_LIMIT", str(1 << 40))
    check_table_size(2, 30)
    with pytest.raises(TableLimitError, match=r"q = 2\*\*31 exceeds the table limit 1073741824"):
        check_table_size(2, 31)


def test_tables_are_int32(gf16, gf256):
    for ctx in (gf16, gf256):
        assert ctx.exp.dtype == ctx.log.dtype == np.int32
        assert (ctx.exp.nbytes, ctx.log.nbytes) == (4 * ctx.exp.size, 4 * ctx.log.size)


def test_prime_field_exp_above_2_16():
    # Each doubling round forms x * c mod p, which passes 2**31 once p > 2**16.
    p = 1048573
    gf = build_field(p, 1)
    ts = np.random.default_rng(3).integers(0, p - 1, size=200).tolist() + [p - 2]
    assert [int(gf.exp[t]) for t in ts] == [pow(gf.beta, t, p) for t in ts]


def test_norm_arr_of_gf2_22_over_gf2_11():
    # Without reducing log mod q - 1 first, log * norm_ratio reaches (2**22 - 2) * 2049, about 8.6e9.
    ext = build_extension(build_field(2, 11), 2)
    xs = np.random.default_rng(4).integers(0, ext.size, size=200).tolist() + [0, int(ext.exp[-1])]
    assert ext.norm_arr(xs).tolist() == [ext.pow_(x, ext.norm_ratio) for x in xs]


def test_determinism(gf16, gf256):
    again = build_field(2, 4)
    assert again.descriptor() == gf16.descriptor()
    assert np.array_equal(again.exp, gf16.exp)
    assert np.array_equal(again.log, gf16.log)
    ext_again = build_extension(again, 2)
    assert ext_again.descriptor() == gf256.descriptor()
    assert np.array_equal(ext_again.exp, gf256.exp)


def test_validate(gf16, gf256, gf25):
    gf16.validate()
    gf256.validate()
    gf25.validate()


@pytest.mark.parametrize("kind", ["field", "extension"])
@pytest.mark.parametrize("corrupt", ["log0", "swap", "exp-duplicate", "exp-zero"])
def test_validate_rejects_corrupt_log_table(gf16, gf256, kind, corrupt):
    ctx = gf16 if kind == "field" else gf256
    log, exp = ctx.log.copy(), ctx.exp.copy()
    if corrupt == "log0":
        log[0] = 1
    elif corrupt == "swap":
        log[[2, 3]] = log[[3, 2]]
    elif corrupt == "exp-duplicate":
        exp[5] = exp[4]
    else:
        exp[5] = 0
    if kind == "field":
        bad = FieldContext(ctx.p, ctx.n, ctx.modulus, ctx.beta, exp, log)
    else:
        bad = ExtensionContext(ctx.base, ctx.d, ctx.modulus, ctx.alpha, exp, log)
    with pytest.raises(InternalCheckError, match="generator order" if corrupt.startswith("exp") else "log"):
        bad.validate()


@pytest.mark.parametrize("key", sorted(GOLDEN_CONSTRUCTIONS))
def test_golden_construction(built, key):
    ctx = built(*key)
    modulus, generator, exp_sha = GOLDEN_CONSTRUCTIONS[key]
    assert tuple(ctx.modulus) == modulus
    assert (ctx.alpha if len(key) == 3 else ctx.beta) == generator
    assert hashlib.sha256(ctx.exp.astype("<i8").tobytes()).hexdigest()[:16] == exp_sha


# sha256 of exp and of log as little-endian int64, in full, for two of the benchmark's fields.
TABLE_DIGESTS = {
    (2, 1, 20): (
        "4cb1763d286d33f42814e96b18116a3f53b823240feed3677dbcb0bcef577222",
        "7d2f78c887085a97329e4562fd34ec1029570bc8fc53c3739d8780ec9579b0cf",
    ),
    (3, 6, 2): (
        "0b5eec8bacf50621c9b9b637df62a88281cadf3bb76ed675ea7a8137e8f8227a",
        "5a65f49509e384b669ab6da1a09bdef68e4240d8f534b4dc21679f0d1a8e87f3",
    ),
}


@pytest.mark.parametrize("key", sorted(TABLE_DIGESTS))
def test_exp_table_digest(built, key):
    ext = built(*key)
    digests = tuple(hashlib.sha256(t.astype("<i8").tobytes()).hexdigest() for t in (ext.exp, ext.log))
    assert digests == TABLE_DIGESTS[key]


@pytest.mark.parametrize(
    "p, n, d",
    [
        (2, 13, 1),  # p = 2: slices of 12 digits and 1, summed by XOR
        (3, 4, 2),  # 8 digits over GF(81) in 3-bit fields: slices of 4 and 4
        (97, 1, 2),  # 8-bit fields: one-digit slices with 256-entry tables
        (3, 9, 1),  # slices of 4, 4 and 1 digits; 27 spread bits need int32
        (32749, 1, 1),  # a prime field: one modular product per round
        (7, 4, 1),  # 4-bit fields: slices of 3 digits and 1
        (2, 2, 5),  # two digits per coefficient over GF(4)
    ],
)
def test_exp_table_equals_raw_multiplication_chain(p, n, d):
    ctx = build_field(p, n)
    if d > 1:
        ctx = build_extension(ctx, d)
        g, raw_mul = ctx.alpha, fields._poly_mul(ctx.base, ctx.modulus)
    elif n > 1:
        g, raw_mul = ctx.beta, fields._poly_mul(build_field(p, 1), ctx.modulus)
    else:
        g, raw_mul = ctx.beta, lambda a, b: a * b % p
    chain = [1]
    for _ in range(ctx.size - 2):
        chain.append(raw_mul(chain[-1], g))
    assert fields._exp_table(ctx.size, g, raw_mul, p, ctx.digits).tolist() == chain


@pytest.mark.parametrize(
    "p, modulus, ratio, target, message",
    [
        (5, (4, 0, 1), 24, 1, "no primitive element found"),  # x^2 - 1 = (x - 1)(x + 1)
        (2, (1, 0, 1), 3, 1, "no primitive element found"),  # (x + 1)^2
        (5, (1, 1, 1), 6, 4, "no primitive element with"),  # a norm of order 2 is never a primitive's
        (5, (1, 1, 1), 24, 0, "raw field arithmetic"),  # g**24 == 0 fits log(0) = 0 only
    ],
)
def test_generator_search_rejects(p, modulus, ratio, target, message):
    raw_mul = fields._poly_mul(build_field(p, 1), modulus)
    with pytest.raises(InternalCheckError, match=message):
        fields._generator_tables(raw_mul, p, 2, ratio, target)


def _generator_by_full_search(raw_mul, p, digits, ratio, target, first):
    """The search over every log: x = g0**k with k * ratio == log_g0(target) and gcd(k, size-1) == 1."""
    size = p**digits
    n = size - 1
    primes = prime_factors(n)
    g0 = next(
        x for x in range(first, size)
        if all(fields.power(raw_mul, x, n // r, 1) != 1 for r in primes) and fields.power(raw_mul, x, n, 1) == 1
    )
    exp = fields._exp_table(size, g0, raw_mul, p, digits)
    log = np.zeros(size, dtype=np.int64)
    log[exp] = np.arange(n, dtype=np.int64)
    ks = log[1:]  # ks[x-1] = log_g0(x)
    hits = np.flatnonzero((ks * (ratio % n) - log[target]) % n == 0)
    hits = hits[np.gcd(ks[hits], n) == 1]
    g, k = int(hits[0]) + 1, int(ks[hits[0]])
    exp = exp[np.arange(n, dtype=np.int64) * k % n]
    log[exp] = np.arange(n, dtype=np.int64)
    return g, exp, log


EXTENSIONS_UP_TO_2_12 = [(p, n, d) for p, n, q in iter_prime_powers(2, 64) for d in range(2, 13) if q**d <= 1 << 12]


def test_generator_search_matches_the_search_over_every_log(built):
    assert len(EXTENSIONS_UP_TO_2_12) == 57
    for p, n, d in EXTENSIONS_UP_TO_2_12:
        ext = built(p, n, d)
        raw_mul = fields._poly_mul(ext.base, ext.modulus)
        g, exp, log = _generator_by_full_search(raw_mul, p, n * d, ext.norm_ratio, ext.base.beta, ext.q)
        assert ext.alpha == g, (p, n, d)
        assert np.array_equal(ext.exp, exp) and np.array_equal(ext.log, log), (p, n, d)


def test_extension_generator_search_skips_the_base_field(monkeypatch):
    # Encodings 1..976 of GF(977^2) are GF(977) itself, which holds no primitive.
    base = build_field(977, 1)
    candidates = []
    power = fields.power
    monkeypatch.setattr(fields, "power", lambda mul, a, k, one: candidates.append(a) or power(mul, a, k, one))
    ext = build_extension(base, 2)
    assert ext.alpha == GOLDEN_CONSTRUCTIONS[(977, 1, 2)][1]
    assert min(candidates) >= 977
    assert len(candidates) == 15  # 991 when the search started at 1


def test_generator_search_checks_tables_by_raw_arithmetic(monkeypatch, gf25):
    build_exp, base = fields._exp_table, build_field(5, 1)

    def patched(corrupt):
        monkeypatch.setattr(fields, "_exp_table", lambda *args: corrupt(build_exp(*args)))

    # exp[t] = g**-t: a primitive's table, not g's; the search re-indexes any primitive's table
    patched(lambda exp: np.r_[exp[:1], exp[:0:-1]])
    with pytest.raises(InternalCheckError, match="raw field arithmetic"):
        build_field(2, 4)
    again = build_extension(base, 2)
    assert again.alpha == gf25.alpha and np.array_equal(again.exp, gf25.exp)
    # exp[t] = g**(t+1): every step multiplies by g, but exp[0] is not 1
    patched(lambda exp: np.roll(exp, -1))
    with pytest.raises(InternalCheckError, match="raw field arithmetic"):
        build_field(2, 4)
    with pytest.raises(InternalCheckError):  # log is off by one, so the search finds no g here
        build_extension(base, 2)


def test_norm_of_alpha_is_beta(gf25, gf256, gf64_over4):
    for ext in (gf25, gf256, gf64_over4):
        assert ext.norm(ext.alpha) == ext.base.beta
        assert ext.derived_beta == ext.base.beta
        assert ext.norm(0) == 0


def test_norm_of_base_elements(gf25):
    # conjugates of a base element coincide, so the norm is a**d
    for a in range(1, 5):
        assert gf25.norm(a) == gf25.base.pow_(a, 2)


def test_norm_is_product_of_conjugates(gf64_over4):
    ext = gf64_over4
    rng = np.random.default_rng(2)
    for x in map(int, rng.integers(1, ext.size, 40)):
        prod = 1
        for j in range(ext.d):
            prod = ext.mul(prod, ext.frobenius(x, j))
        assert prod == ext.norm(x)
        assert prod < ext.q


def test_frobenius_is_automorphism(gf256):
    ext = gf256
    rng = np.random.default_rng(3)
    for _ in range(40):
        x, y = map(int, rng.integers(0, ext.size, 2))
        assert ext.frobenius(ext.add(x, y)) == ext.add(ext.frobenius(x), ext.frobenius(y))
        assert ext.frobenius(ext.mul(x, y)) == ext.mul(ext.frobenius(x), ext.frobenius(y))


def test_trace_properties(gf25):
    ext = gf25
    assert ext.trace(0) == 0
    rng = np.random.default_rng(4)
    for _ in range(30):
        x, y = map(int, rng.integers(0, ext.size, 2))
        assert ext.trace(ext.add(x, y)) == ext.base.add(ext.trace(x), ext.trace(y))
        assert ext.trace(x) < ext.q
    # trace of a base element is d copies of it added together
    for a in range(5):
        assert ext.trace(a) == ext.base.add(a, a)


def test_dlog_convention(gf16):
    assert gf16.dlog(gf16.beta) == 1
    assert gf16.dlog(0) == 0
    assert gf16.dlog(int(gf16.exp[14])) == 14


def test_scalar_and_array_ops_agree(gf25):
    ext = gf25
    rng = np.random.default_rng(5)
    a = rng.integers(0, ext.size, 50)
    b = rng.integers(0, ext.size, 50)
    add_vec = ext.add_arr(a, b)
    mul_vec = ext.mul_arr(a, b)
    neg_vec = ext.neg_arr(a)
    for i in range(50):
        assert add_vec[i] == ext.add(int(a[i]), int(b[i]))
        assert mul_vec[i] == ext.mul(int(a[i]), int(b[i]))
        assert neg_vec[i] == ext.neg(int(a[i]))
    with pytest.raises(ZeroDivisionError):
        ext.pow_(0, -1)


def test_inverse_and_order(gf16):
    for a in range(1, 16):
        assert gf16.mul(a, gf16.inv(a)) == 1
        assert gf16.pow_(a, gf16.order(a)) == 1
    with pytest.raises(ZeroDivisionError):
        gf16.inv(0)


@pytest.fixture(scope="module", params=["gf25", "gf729", "gf256", "gf64_over4"])
def axiom_field(request):
    if request.param == "gf729":
        return build_field(3, 6)
    return request.getfixturevalue(request.param)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_field_axioms(axiom_field, data):
    f = axiom_field
    a, b, c = data.draw(st.tuples(*[st.integers(0, f.size - 1)] * 3))
    assert f.add(a, b) == f.add(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.add(a, f.neg(a)) == 0
    assert f.add(a, 0) == a
    # ties the digitwise add to the log-table mul
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_array_ops_match_scalar_ops(axiom_field, data):
    f = axiom_field
    elements = st.lists(st.integers(0, f.size - 1), min_size=1, max_size=20)
    xs = data.draw(elements)
    ys = data.draw(st.lists(st.integers(0, f.size - 1), min_size=len(xs), max_size=len(xs)))
    a, b = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    neg = f.neg_arr(a)
    assert not np.shares_memory(neg, a)
    assert neg.tolist() == [f.neg(x) for x in xs]
    assert f.add_arr(a, b).tolist() == [f.add(x, y) for x, y in zip(xs, ys)]
    assert f.add_arr(a, 1).tolist() == [f.add(x, 1) for x in xs]
    assert f.mul_arr(a, b).tolist() == [f.mul(x, y) for x, y in zip(xs, ys)]

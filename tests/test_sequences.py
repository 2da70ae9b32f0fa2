import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqfam.errors import ParameterError
from seqfam.sequences import (
    Character,
    MSequence,
    format_sequence,
    read_sequences,
    sidelnikov_sequence,
    sidelnikov_sequence_ext,
    sidelnikov_sequence_ext_direct,
    sidelnikov_sequence_via_cosets,
    write_sequences,
)


def test_base_sequence_gf5(gf5):
    # beta = 2: powers are 1,2,4,3; beta^1+1 = 3 = beta^3, beta^2+1 = 0
    seq = sidelnikov_sequence(gf5, 4)
    assert list(seq.symbols) == [1, 3, 0, 2]
    assert seq.period == 4 and seq.M == 4


def test_symbol_is_zero_where_power_hits_minus_one(gf5, gf13):
    for ctx in (gf5, gf13):
        for M in (2, 4):
            if (ctx.q - 1) % M:
                continue
            seq = sidelnikov_sequence(ctx, M)
            minus_one = ctx.neg(1)
            t = int(np.flatnonzero(ctx.exp == minus_one)[0])
            assert seq.symbols[t] == 0


def test_coset_definition_matches_log_formula(gf5, gf13, gf16):
    for ctx in (gf5, gf13, gf16):
        for M in (2, 3, 4, 5, 6, 12, 15):
            if M < 2 or (ctx.q - 1) % M:
                continue
            a = sidelnikov_sequence(ctx, M)
            b = sidelnikov_sequence_via_cosets(ctx, M)
            assert np.array_equal(a.symbols, b.symbols), (ctx.q, M)


def test_alphabet_validation(gf16):
    with pytest.raises(ParameterError):
        sidelnikov_sequence(gf16, 4)
    with pytest.raises(ParameterError):
        sidelnikov_sequence(gf16, 1)


def test_extension_routes_agree(gf25, gf64_over4, gf256):
    for ext, M in ((gf25, 4), (gf25, 2), (gf64_over4, 3), (gf256, 15)):
        a = sidelnikov_sequence_ext(ext, M)
        b = sidelnikov_sequence_ext_direct(ext, M)
        assert np.array_equal(a.symbols, b.symbols)
        assert a.period == ext.size - 1


def test_extension_sequence_against_independent_gf25_model(gf25):
    """Rebuild the period-24 sequence from a from-scratch GF(25) model.

    Independent arithmetic: pairs (a, b) meaning a + b*x with
    x**2 = -x - 1 (the lexicographically smallest irreducible), base
    generator 2, and the extension generator chosen by the same
    smallest-encoding-with-matching-norm rule.
    """

    def mul(u, v):
        a, b = u
        c, d = v
        # (a + bx)(c + dx) = ac + (ad+bc)x + bd(-x-1)
        return ((a * c - b * d) % 5, (a * d + b * c - b * d) % 5)

    def power(u, k):
        out = (1, 0)
        while k:
            if k & 1:
                out = mul(out, u)
            u = mul(u, u)
            k >>= 1
        return out

    def order(u):
        k, cur = 1, u
        while cur != (1, 0):
            cur = mul(cur, u)
            k += 1
        return k

    alpha = None
    for enc in range(2, 25):
        cand = (enc % 5, enc // 5)
        if order(cand) == 24 and power(cand, 6) == (2, 0):
            alpha = cand
            break
    assert alpha == (gf25.alpha % 5, gf25.alpha // 5)

    log2 = {power((2, 0), t)[0]: t for t in range(4)}
    expected = []
    for t in range(24):
        at = power(alpha, t)
        shifted = ((at[0] + 1) % 5, at[1])
        norm = power(shifted, 6)
        assert norm[1] == 0
        expected.append(log2[norm[0]] % 4 if norm[0] else 0)

    got = sidelnikov_sequence_ext(gf25, 4)
    assert list(got.symbols) == expected


def test_character_values(gf16):
    chi = Character(5, gf16)
    assert chi.value(0) == pytest.approx(1.0)
    assert chi.value(gf16.beta) == pytest.approx(np.exp(2j * np.pi / 5))
    total = sum(chi.value(x) for x in range(1, 16))
    assert abs(total) < 1e-9  # nontrivial character sums to zero over the units


def test_character_matches_symbols(gf5):
    chi = Character(4, gf5)
    seq = sidelnikov_sequence(gf5, 4)
    w = np.exp(2j * np.pi / 4)
    for t in range(4):
        lhs = w ** int(seq.symbols[t])
        rhs = chi.value(gf5.add(int(gf5.exp[t]), 1))
        assert lhs == pytest.approx(rhs)


def test_export_roundtrip(gf25):
    seqs = [
        sidelnikov_sequence_ext(gf25, 4),
        sidelnikov_sequence(gf25.base, 2),
    ]
    buf = io.StringIO()
    write_sequences(buf, seqs)
    text = buf.getvalue()
    assert text.splitlines()[0] == "# q=5 d=2 M=4 l=-1 c=1"
    back = read_sequences(io.StringIO(text))
    assert len(back) == 2
    for orig, parsed in zip(seqs, back):
        assert np.array_equal(orig.symbols, parsed.symbols)
        assert (parsed.q, parsed.d, parsed.M, parsed.l, parsed.c) == (
            orig.q, orig.d, orig.M, orig.l, orig.c,
        )


@pytest.mark.parametrize(
    "text, message",
    [
        ("# q=16 d=2 M=5 l=3\n0,1,2\n", "header lacks c"),
        ("# q=16 d=2 M=5 l=3 c\n0,1,2\n", "is not key=value"),
        ("# q=16 d=2 M=x l=3 c=1\n0,1,2\n", "non-integer header value: .*'x'"),
        ("# q=16 d=2 M=5 l=3 c=1\n0,x,2\n", "non-integer symbol: .*'x'"),
        ("# q=16 d=2 M=5 l=3 c=1\n0,1,2\n# q=16 d=2 M=5 l=4 c=1\n", "header without a symbol line"),
        ("# q=16 d=2 M=5 l=3 c=1\n# q=16 d=2 M=5 l=4 c=1\n0,1,2\n", "header without a symbol line"),
        ("0,1,2\n", "symbol line without a preceding header"),
    ],
    ids=[
        "missing-key", "no-equals", "bad-header-value", "bad-symbol",
        "trailing-header", "header-then-header", "no-header",
    ],
)
def test_read_sequences_rejects_malformed_input(text, message):
    with pytest.raises(ParameterError, match=message):
        read_sequences(io.StringIO(text))


def test_read_sequences_skips_blank_lines():
    text = "\n# q=16 d=2 M=5 l=3 c=1\n\n0,1,2\n  \n# q=16 d=2 M=5 l=4 c=2\n4,3\n\n"
    back = read_sequences(io.StringIO(text))
    assert [(s.l, s.c, s.symbols.tolist()) for s in back] == [(3, 1, [0, 1, 2]), (4, 2, [4, 3])]


def test_msequence_validation():
    with pytest.raises(ParameterError):
        MSequence(np.array([0, 1, 5]), 3, 4, "column", 5)
    with pytest.raises(ParameterError):
        MSequence(np.array([0, 1]), 3, 4, "column", 5)


def test_shifted():
    seq = MSequence(np.array([0, 1, 2, 3]), 4, 4, "column", 5)
    assert list(seq.shifted(1).symbols) == [1, 2, 3, 0]
    assert list(seq.shifted(4).symbols) == [0, 1, 2, 3]


@st.composite
def _exported(draw):
    M = draw(st.integers(2, 1000))
    length = draw(st.integers(1, 300))
    return MSequence(
        np.array(draw(st.lists(st.integers(0, M - 1), min_size=length, max_size=length))),
        length,
        M,
        "imported",
        draw(st.integers(2, 1 << 24)),
        draw(st.integers(1, 8)),
        draw(st.one_of(st.just(-1), st.integers(0, 1 << 20))),
        draw(st.integers(0, M - 1)),
    )


@settings(max_examples=50, deadline=None)
@given(st.lists(_exported(), min_size=1, max_size=4))
@example([MSequence(np.array([0]), 1, 2, "imported", 2, 1, -1, 1)])
def test_export_roundtrip_random(seqs):
    buf = io.StringIO()
    write_sequences(buf, seqs)
    back = read_sequences(io.StringIO(buf.getvalue()))
    assert len(back) == len(seqs)
    for orig, parsed in zip(seqs, back):
        assert np.array_equal(orig.symbols, parsed.symbols)
        assert (parsed.period, parsed.q, parsed.d, parsed.M, parsed.l, parsed.c) == (
            orig.period, orig.q, orig.d, orig.M, orig.l, orig.c,
        )

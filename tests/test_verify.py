import dataclasses

import numpy as np
import pytest

from seqfam import cli, columns, fields, polys, verify
from seqfam.errors import InternalCheckError
from seqfam.verify import format_verification, run_verification


def test_verify_q16(capsys):
    result = run_verification(2, 4, 2, 5)
    assert result["ok"], [c for c in result["checks"] if not c["ok"]]
    names = {c["name"] for c in result["checks"]}
    assert "correlation-bound" in names
    assert "cyclic-inequivalence-negative-control" in names
    assert "count-degree-two-identity" in names
    text = format_verification(result)
    assert "overall: PASS" in text
    assert text.count("PASS") == len(result["checks"]) + 1


def test_verify_relaxed_q13():
    result = run_verification(13, 1, 2, 4, policy="relaxed-d2")
    assert result["ok"], [c for c in result["checks"] if not c["ok"]]
    params = result["parameters"]
    assert params["policy"] == "relaxed-d2" and params["q"] == 13


def test_verify_computes_each_family_s_rotation_keys_once(rotation_key_calls):
    result = run_verification(2, 4, 2, 5)
    # The scan: the members' keys and two generator candidates. The negative
    # control: its own pass over the family plus one shifted member.
    assert rotation_key_calls == [(32, 15)] * 3 + [(33, 15)]
    checks = {c["name"]: c for c in result["checks"]}
    assert checks["cyclic-inequivalence"]["ok"] and checks["cyclic-inequivalence-negative-control"]["ok"]
    assert "'index2': 32" in checks["cyclic-inequivalence-negative-control"]["detail"]


def test_verify_times_each_check_and_is_deterministic_apart_from_timings():
    runs = [run_verification(2, 4, 2, 5) for _ in range(2)]
    for result in runs:
        times = [c["elapsed"] for c in result["checks"]]
        assert min(times) >= 0
        # Each check is timed from the one before it, the first from the start of the run.
        assert sum(times) <= result["elapsed"] + 1e-9
        # The text format prints no per-check times.
        bare = [{k: v for k, v in c.items() if k != "elapsed"} for c in result["checks"]]
        assert format_verification({**result, "checks": bare}) == format_verification(result)
    untimed = [
        {**result, "elapsed": None, "checks": [{**c, "elapsed": None} for c in result["checks"]]} for result in runs
    ]
    assert untimed[0] == untimed[1]


def test_verify_checks_every_column_above_2048():
    # q=47 d=3: m = 2257 columns, more than 2048; the stride and root-free checks still take every one.
    result = run_verification(47, 1, 3, 2)
    assert result["ok"], [c for c in result["checks"] if not c["ok"]]
    checks = {c["name"]: c["detail"] for c in result["checks"]}
    assert list(checks) == [
        "construction-determinism", "field-invariants", "restriction-gcd", "restriction-size-bound",
        "long-sequence-route-equivalence", "column-stride-vs-closed-form", "column-polynomial-structure",
        "column-polynomial-orbit-product", "column-symbols-from-polynomial", "column-q-multiple-identity",
        "column-polynomial-root-free", "column-reflection-shift-identity", "base-autocorrelation-bound",
        "family-size-identity", "correlation-bound", "correlation-pair-bounds", "correlation-same-column-bound",
        "correlation-character-sum-identity", "cyclic-inequivalence", "cyclic-inequivalence-negative-control",
        "count-cross-validation", "count-constant-term-oracle", "count-estimate-gap",
    ]
    assert checks["column-stride-vs-closed-form"] == "exhaustive over 2257 columns"
    assert checks["column-polynomial-root-free"] == "no base-field roots for 2256 of 2256 nonzero columns"
    assert checks["family-size-identity"] == "752 sequences"


def _wrong_norm_coefficient(index):
    """A column_polynomial wrapper whose norm polynomial has coefficient `index` moved to the next element."""
    def wrapped(ext, l):
        cp = columns.column_polynomial(ext, l)
        coeffs = list(cp.norm_poly)
        coeffs[index] = (coeffs[index] + 1) % ext.q
        return dataclasses.replace(cp, norm_poly=tuple(coeffs))
    return wrapped


def _first_min_poly_times_x(original):
    """An orbit_products wrapper that multiplies the first polynomial it yields by x, a root at 0."""
    def wrapped(*args):
        blocks = original(*args)
        rows, coeff = next(blocks)
        yield rows[:1], np.insert(coeff[:1], 0, 0, axis=1)
        yield rows[1:], coeff[1:]
        yield from blocks
    return wrapped


def _one_symbol_moved(original, moved=7):
    """A column_from_long_sequence wrapper that moves the first symbol of column `moved` to the next value."""
    def wrapped(ext, l, M, long_seq):
        column = original(ext, l, M, long_seq)
        if l != moved:
            return column
        symbols = column.symbols.copy()
        symbols[0] = (symbols[0] + 1) % M
        return dataclasses.replace(column, symbols=symbols)
    return wrapped


def _raise_internal(*args):
    raise InternalCheckError("planted")


# (attribute owner, attribute, replacement given the original) and the checks it must fail.
_PLANTED_FAULTS = {
    "extension-invariant": (
        (fields.ExtensionContext, "validate", lambda original: _raise_internal),
        ["field-invariants"],
    ),
    "constant-term": (
        (verify, "column_polynomial", lambda original: _wrong_norm_coefficient(0)),
        ["column-polynomial-structure", "column-symbols-from-polynomial"],
    ),
    "trace-coefficient": (
        (verify, "column_polynomial", lambda original: _wrong_norm_coefficient(1)),
        ["column-polynomial-structure", "column-symbols-from-polynomial"],
    ),
    "stride-symbol": (
        (verify, "column_from_long_sequence", _one_symbol_moved),
        ["column-stride-vs-closed-form"],
    ),
    "min-poly-root-at-zero": (
        (verify, "orbit_products", _first_min_poly_times_x),
        ["column-polynomial-root-free"],
    ),
    "orbit-conjugates": (
        (verify, "frobenius_poly", lambda original: lambda *args: polys.mul(args[0], original(*args), (0, 1))),
        ["column-polynomial-orbit-product"],
    ),
    "character-sum": (
        (verify, "correlation_via_character_sum", lambda original: lambda *args: original(*args) + 1),
        ["correlation-character-sum-identity"],
    ),
    "yucas-count": (
        (verify, "yucas_count", lambda original: lambda *args: original(*args) + 1),
        ["count-constant-term-oracle"],
    ),
}


@pytest.mark.parametrize("fault", _PLANTED_FAULTS)
def test_each_verify_check_fails_on_its_planted_fault(fault, monkeypatch):
    (owner, name, replacement), failing = _PLANTED_FAULTS[fault]
    monkeypatch.setattr(owner, name, replacement(getattr(owner, name)))
    result = run_verification(2, 4, 2, 5)
    checks = {c["name"]: c["ok"] for c in result["checks"]}
    assert [name for name, ok in checks.items() if not ok] == failing
    assert not result["ok"]
    if fault == "yucas-count":
        assert cli.main(["verify", "--p", "2", "--n", "4", "--d", "2", "--M", "5"]) == 1


def _check_entries(result) -> list[tuple]:
    return [(c["name"], c["ok"], c["detail"]) for c in result["checks"]]


@pytest.mark.parametrize("p, n, d, M, policy", [(2, 4, 2, 5, "strict"), (13, 1, 2, 4, "relaxed-d2")])
def test_verify_checks_in_several_chunks_equal_one_chunk(monkeypatch, p, n, d, M, policy):
    # 64 values a chunk is 4 columns or values of l at a time: the stride,
    # root-free and reflection checks each run in 4 or 5 chunks, not one.
    whole = run_verification(p, n, d, M, policy)
    monkeypatch.setattr(verify, "CHUNK", 64)
    assert _check_entries(run_verification(p, n, d, M, policy)) == _check_entries(whole)


def test_stride_check_in_chunks_reaches_the_last_column(monkeypatch):
    monkeypatch.setattr(verify, "CHUNK", 64)
    # q=16 d=2: m = 17 columns, so column 16 is the last one, in the fifth chunk.
    monkeypatch.setattr(verify, "column_from_long_sequence", _one_symbol_moved(verify.column_from_long_sequence, 16))
    result = run_verification(2, 4, 2, 5)
    assert [c["name"] for c in result["checks"] if not c["ok"]] == ["column-stride-vs-closed-form"]

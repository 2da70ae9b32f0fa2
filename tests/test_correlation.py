import dataclasses
import hashlib
import json
import math
import sys
import threading
import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqfam import correlation, kernels
from seqfam.correlation import (
    WITNESS_CAP,
    correlation_via_character_sum,
    cross_correlation,
    cyclic_inequivalence,
    empirical_character_sum,
    max_correlation,
    weil_bound,
)
from seqfam.columns import column_polynomial
from seqfam.errors import InternalCheckError, ParameterError
from seqfam.family import build_family
from seqfam.fields import build_extension, build_field
from seqfam.intmath import prime_factors
from seqfam.sequences import MSequence, sidelnikov_sequence


def test_cross_correlation_trivial(fam16_m5):
    seq = fam16_m5.sequences[0]
    assert cross_correlation(seq, seq, 0) == pytest.approx(15.0)


def test_cross_correlation_conjugate_symmetry(fam16_m5):
    a, b = fam16_m5.sequences[2], fam16_m5.sequences[17]
    for tau in range(15):
        lhs = cross_correlation(a, b, tau)
        rhs = cross_correlation(b, a, (15 - tau) % 15)
        assert lhs == pytest.approx(rhs.conjugate())


def test_cross_correlation_validation(fam16_m5, gf5):
    other = sidelnikov_sequence(gf5, 4)
    with pytest.raises(ParameterError):
        cross_correlation(fam16_m5.sequences[0], other, 0)
    with pytest.raises(ParameterError):
        cross_correlation(fam16_m5.sequences[0], fam16_m5.sequences[1], 15)


def test_max_correlation_q16_m5(fam16_m5):
    report = max_correlation(fam16_m5)
    assert report.bound == pytest.approx(3 * 4 + 1)
    assert report.bound_ok and report.pair_bound_ok and report.same_column_bound_ok
    # frozen value from two independent backends
    assert report.delta_max == pytest.approx(10.20752151626414, abs=1e-9)
    npairs = 32 * 33 // 2
    assert sum(report.histogram.values()) == npairs * 15 - 32
    assert report.histogram_resolution == 1e-6


def test_golden_fft_scan(monkeypatch):
    # q=256 d=2 M=5: period 255, above GEMM_MAX_PERIOD, so the scan runs the
    # FFT kernel. Pinned bit for bit: any change in the transform's rounding
    # moves the fine histogram keys or delta_max. The same on one scan
    # thread as on two, as the blocks are folded in scan order.
    fam = build_family(build_extension(build_field(2, 8), 2), 5)
    for cpus in (1, 2):
        monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
        report = max_correlation(fam)
        assert (report.backend, fam.period, fam.size, report.scan["threads"]) == ("fft", 255, 512, cpus)
        assert repr(report.delta_max) == "48.416407864998746"
        histogram = json.dumps(report.to_dict()["histogram"]).encode()
        assert hashlib.sha256(histogram).hexdigest() == "89aa700245e4771e8ab0516faa81840df94184f4f5123278f8ec0e6f891a3b37"


@pytest.mark.parametrize(
    "p, n, M, policy, period, size, delta_max, digest",
    [
        (2, 6, 7, "strict", 63, 192, "24.41614132496513",
         "ba93ac2884471bab654e923de1c797a399957cdf6c41a6c94c5dcdea27542aca"),
        (3, 4, 5, "relaxed-d2", 80, 160, "24.378409937149776",
         "0381adc57ed505506dd2a2e850f9451889f610d73cf24a26ded1bcf64ef65390"),
    ],
)
def test_golden_gemm_scan(monkeypatch, p, n, M, policy, period, size, delta_max, digest):
    # Periods 63 and 80, the top of the GEMM range: pinned bit for bit, as in
    # test_golden_fft_scan, so that a move of GEMM_MAX_PERIOD, which hands
    # these periods to the FFT kernel, shows in their last bits.
    fam = build_family(build_extension(build_field(p, n), 2), M, policy=policy)
    for cpus in (1, 2):
        monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
        report = max_correlation(fam)
        assert (report.backend, fam.period, fam.size, report.scan["threads"]) == ("gemm", period, size, cpus)
        assert repr(report.delta_max) == delta_max
        histogram = json.dumps(report.to_dict()["histogram"]).encode()
        assert hashlib.sha256(histogram).hexdigest() == digest


def test_max_correlation_backends_agree(fam16_m5):
    brute = _brute_force(fam16_m5)
    top = max(brute.values())
    ties = sorted(k for k, v in brute.items() if v >= top - 1e-9)[:WITNESS_CAP]
    for backend in ("gemm", "fft"):
        report = max_correlation(fam16_m5, backend=backend)
        assert report.backend == backend
        assert report.delta_max == pytest.approx(top, abs=1e-6)
        assert report.histogram == _fine_histogram(brute.values())
        assert _key_list(fam16_m5, report.argmax) == ties
    assert max_correlation(fam16_m5).backend == "gemm"  # period 15
    with pytest.raises(ParameterError, match="unknown correlation backend 'reference'"):
        max_correlation(fam16_m5, backend="reference")


def _brute_force(family):
    """(i, j, tau) -> |R| for every scanned entry, straight from cross_correlation."""
    seqs, period = family.sequences, family.period
    return {
        (i, j, tau): abs(cross_correlation(seqs[i], seqs[j], tau))
        for i in range(len(seqs))
        for j in range(i, len(seqs))
        for tau in range(period)
        if (i, j, tau) >= (i, i, 1)
    }


def _fine_histogram(values):
    """{rint(v * 1e6) / 1e6: count}, the scan's fine keys. Every |R| of fam16_m5 lies at least
    9.3e-10 from a key boundary, over 1e5 times the kernels' largest error on it (5.3e-15)."""
    keys = np.rint(np.fromiter(values, dtype=np.float64) * 1e6).astype(np.int64)
    return dict(Counter(k / 10**6 for k in keys.tolist()))


def _key_list(family, entries):
    index = {(s.c, s.l): k for k, s in enumerate(family.sequences)}
    return [(index[(w["c1"], w["l1"])], index[(w["c2"], w["l2"])], w["tau"]) for w in entries]


def _with_members(family, sequences):
    return dataclasses.replace(family, sequences=tuple(sequences))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_tiled_scan_matches_brute_force(fam16_m5, data):
    """Ragged and diagonal tiles, down to one member and tiles of one row."""
    members = data.draw(st.lists(st.sampled_from(fam16_m5.sequences), min_size=1, max_size=9, unique=True))
    family = _with_members(fam16_m5, sorted(members, key=lambda s: (s.c, s.l)))
    tile_elements = data.draw(st.sampled_from([15, 60, 240, kernels.TILE_ELEMENTS]))
    backend = data.draw(st.sampled_from(["gemm", "fft"]))
    brute = _brute_force(family)
    top = max(brute.values())
    with mock.patch.object(kernels, "TILE_ELEMENTS", tile_elements):
        report = max_correlation(family, backend=backend)
    assert report.delta_max == pytest.approx(top, abs=1e-9)
    ties = sorted(k for k, v in brute.items() if v >= top - 1e-9)[:WITNESS_CAP]
    assert _key_list(family, report.argmax) == ties
    assert report.histogram == _fine_histogram(brute.values())
    assert sum(report.histogram.values()) == len(brute)


@pytest.mark.parametrize("tile_elements", [60, kernels.TILE_ELEMENTS])
def test_argmax_keeps_first_witnesses_among_many_ties(fam16_m5, tile_elements):
    # Twenty shifted copies of one member: every pair of copies peaks at |R| = 15.
    base = fam16_m5.sequences[3]
    copies = [dataclasses.replace(base.shifted(k), c=100 + k) for k in range(20)]
    family = _with_members(fam16_m5, copies)
    brute = _brute_force(family)
    ties = sorted(k for k, v in brute.items() if v >= max(brute.values()) - 1e-9)
    assert len(ties) > WITNESS_CAP
    with mock.patch.object(kernels, "TILE_ELEMENTS", tile_elements):
        for backend in ("gemm", "fft"):
            assert _key_list(family, max_correlation(family, backend=backend).argmax) == ties[:WITNESS_CAP]


def _assert_first_violation_recomputes(family, report):
    w = report.pair_bound_violations[0]
    s1 = next(s for s in family.sequences if (s.c, s.l) == (w["c1"], w["l1"]))
    s2 = next(s for s in family.sequences if (s.c, s.l) == (w["c2"], w["l2"]))
    assert abs(cross_correlation(s1, s2, w["tau"])) == pytest.approx(w["value"], abs=1e-9)
    assert w["value"] > w["pair_bound"]


def test_pair_bound_violations_are_capped_in_order(fam16_m5):
    # The c = 0 multiples of four columns are all-zero sequences: every
    # pair of them correlates to the full period at every shift.
    zeros = [
        dataclasses.replace(fam16_m5.sequences[0], symbols=np.zeros(15, dtype=np.int64), c=0, l=l)
        for l in fam16_m5.used_columns[:4]
    ]
    family = _with_members(fam16_m5, zeros + list(fam16_m5.sequences))
    with mock.patch.object(kernels, "TILE_ELEMENTS", 240):
        report = max_correlation(family)
    assert not report.pair_bound_ok and not report.bound_ok
    assert len(report.pair_bound_violations) == WITNESS_CAP
    degs = [family.coset_sizes[s.l] for s in family.sequences]
    expected = sorted(
        (i, j, tau) for (i, j, tau), v in _brute_force(family).items()
        if v > (degs[i] + degs[j] - 1) * math.sqrt(family.q) + 1.0 + 1e-6
    )
    assert len(expected) > WITNESS_CAP
    assert _key_list(family, report.pair_bound_violations) == expected[:WITNESS_CAP]
    for w in report.pair_bound_violations:
        sizes = family.coset_sizes
        assert w["pair_bound"] == (sizes[w["l1"]] + sizes[w["l2"]] - 1) * math.sqrt(family.q) + 1.0
    _assert_first_violation_recomputes(family, report)


def test_same_column_bound_violation_is_reported(fam16_m5):
    # Relabel member (c', l) to carry the symbols of (c, l): the two now
    # agree at shift 0, far above the same-column bound (d_l - 1) * 4 + 1.
    members = list(fam16_m5.sequences)
    first = members[0]
    k = next(k for k, s in enumerate(members) if s.l == first.l and s.c != first.c)
    members[k] = dataclasses.replace(first, c=members[k].c)
    family = _with_members(fam16_m5, members)
    report = max_correlation(family)
    assert not report.same_column_bound_ok
    assert not report.pair_bound_ok
    assert 0 < len(report.pair_bound_violations) <= WITNESS_CAP
    _assert_first_violation_recomputes(family, report)
    assert max_correlation(fam16_m5).same_column_bound_ok


def test_coarse_histogram_ignores_member_order(fam16_m5, monkeypatch):
    # Few keys before the switch to 1e-3 bins, and many tiles, so that the
    # switch happens partway through the scan at a point the order decides.
    monkeypatch.setattr(kernels, "TILE_ELEMENTS", 240)
    exact = max_correlation(fam16_m5).histogram
    monkeypatch.setattr(correlation, "HISTOGRAM_EXACT_LIMIT", 20)
    coarse = {}
    for value, count in exact.items():
        key = (round(value * 10**6) + 500) // 1000 / 1000
        coarse[key] = coarse.get(key, 0) + count
    rng = np.random.default_rng(5)
    for _ in range(4):
        members = [fam16_m5.sequences[i] for i in rng.permutation(fam16_m5.size)]
        report = max_correlation(_with_members(fam16_m5, members))
        assert report.histogram_resolution == 1e-3
        assert report.histogram == coarse


def test_argmax_is_lexicographic_and_complete(fam16_m5):
    report = max_correlation(fam16_m5)
    keys = [(w["c1"], w["l1"], w["c2"], w["l2"], w["tau"]) for w in report.argmax]
    assert keys == sorted(keys)
    assert all(
        abs(w["value"] - report.delta_max) < 1e-9 for w in report.argmax
    )
    # recompute one witness directly
    w = report.argmax[0]
    s1 = next(s for s in fam16_m5.sequences if (s.c, s.l) == (w["c1"], w["l1"]))
    s2 = next(s for s in fam16_m5.sequences if (s.c, s.l) == (w["c2"], w["l2"]))
    assert abs(cross_correlation(s1, s2, w["tau"])) == pytest.approx(w["value"])


def test_max_correlation_shift_invariance(fam16_m5):
    shifted = dataclasses.replace(
        fam16_m5, sequences=tuple(s.shifted(3) for s in fam16_m5.sequences)
    )
    a = max_correlation(fam16_m5)
    b = max_correlation(shifted)
    assert a.delta_max == pytest.approx(b.delta_max, abs=1e-9)
    assert a.histogram == b.histogram


def test_singleton_family_reports_autocorrelation(gf169):
    fam = build_family(gf169, 4, "relaxed-d2")
    single = dataclasses.replace(fam, sequences=fam.sequences[:1])
    report = max_correlation(single)
    assert report.family_size == 1
    assert sum(report.histogram.values()) == 11  # period-1 shifts of one sequence


def test_report_serialization(fam16_m5, tmp_path):
    report = max_correlation(fam16_m5)
    payload = report.to_dict()
    text = json.dumps(payload)
    assert "delta_max" in payload and "histogram" in payload
    csv = report.histogram_csv()
    assert csv.startswith("abs_correlation,count\n")
    assert len(csv.strip().splitlines()) == len(report.histogram) + 1
    # deterministic apart from elapsed
    payload2 = max_correlation(fam16_m5).to_dict()
    payload.pop("elapsed"), payload2.pop("elapsed")
    assert json.dumps(payload) == json.dumps(payload2)


def test_cyclic_inequivalence(fam16_m5):
    ok, witness = cyclic_inequivalence(fam16_m5)
    assert ok and witness is None
    corrupted = list(fam16_m5.sequences) + [fam16_m5.sequences[5].shifted(9)]
    ok, witness = cyclic_inequivalence(corrupted)
    assert not ok
    assert witness["index1"] == 5 and witness["index2"] == 32
    ref = fam16_m5.sequences[5].symbols
    dup = corrupted[-1].symbols
    assert np.array_equal(ref, np.roll(dup, -witness["tau"]))


@pytest.mark.parametrize("period, M", [(6, 2), (5, 4)])
def test_cyclic_inequivalence_rejects_mixed_sequences(period, M):
    a = MSequence(np.array([0, 1, 1, 0, 1]), 5, 2, "column", 5)
    b = MSequence(np.array([0, 1, 1, 0, 1, 0][:period]), period, M, "column", 5)
    with pytest.raises(ParameterError):
        cyclic_inequivalence([a, b])


def test_cyclic_inequivalence_finds_a_planted_shift_at_a_large_alphabet(built):
    # M = 127: a large alphabet, over period 127.
    family = build_family(built(2, 7, 2), 127)
    assert cyclic_inequivalence(family) == (True, None)
    k = family.size // 3
    ok, witness = cyclic_inequivalence(list(family.sequences) + [family.sequences[k].shifted(100)])
    assert not ok
    assert (witness["index1"], witness["index2"], witness["tau"]) == (k, family.size, 27)


def test_report_carries_the_inequivalence_verdict(fam16_m5, rotation_key_calls):
    report = max_correlation(fam16_m5)
    # The members' keys once, then one pass per generator candidate: decimation and negation.
    assert rotation_key_calls == [(32, 15)] * 3
    assert report.scan["symmetry_order"] == 8
    assert cyclic_inequivalence(fam16_m5) == (True, None)
    assert (report.cyclically_inequivalent, report.equivalence_witness) == (True, None)


def test_report_finds_a_planted_shift(fam16_m5, rotation_key_calls):
    family = dataclasses.replace(fam16_m5, sequences=fam16_m5.sequences + (fam16_m5.sequences[5].shifted(9),))
    # Two members that are shifts of one another: no generator search, the trivial group.
    with mock.patch.object(correlation, "_find_generators", side_effect=AssertionError("generator search ran")):
        report = max_correlation(family)
    assert rotation_key_calls == [(33, 15)]
    assert report.scan["symmetry_order"] == 1
    assert not report.cyclically_inequivalent
    assert report.equivalence_witness["index1"] == 5 and report.equivalence_witness["index2"] == 32
    assert (report.cyclically_inequivalent, report.equivalence_witness) == cyclic_inequivalence(family)


def _brute_least_rotation(symbols: list) -> list:
    return min(symbols[r:] + symbols[:r] for r in range(len(symbols)))


def _check_least_rotation(symbols: list) -> None:
    # The row, a rotation and the reversal, scanned in lockstep.
    rows = [symbols, symbols[1:] + symbols[:1], symbols[::-1]]
    for row, start in zip(rows, correlation._least_rotations(np.array(rows)).tolist()):
        assert 0 <= start < len(row)
        assert row[start:] + row[:start] == _brute_least_rotation(row)


# Alphabets from 2 to 256 symbols; rows up to 130 long, so that Booth's skip
# and long runs of matching candidates both come up.
_symbol_bounds = st.sampled_from([1, 3, 7, 15, 255])


@settings(max_examples=300, deadline=None)
@given(_symbol_bounds.flatmap(lambda top: st.lists(st.integers(0, top), min_size=1, max_size=130)))
@example([7])
@example([255])
@example([2, 2, 2, 2, 2])
@example([0] * 130)
@example([255] * 129)
@example([1] * 64 + [0] + [1] * 64)
def test_least_rotation_matches_brute_force(symbols):
    _check_least_rotation(symbols)


@settings(max_examples=200, deadline=None)
@given(
    _symbol_bounds.flatmap(lambda top: st.lists(st.integers(0, top), min_size=1, max_size=13)),
    st.integers(1, 20),
    st.integers(0, 259),
    st.none() | st.integers(0, 259),
)
@example([1, 0], 6, 0, None)
@example([0, 1, 0], 3, 1, None)
@example([1, 0, 0], 43, 5, None)  # period 3, 129 symbols
@example([255, 0, 7], 43, 2, None)  # period 3 in a wide alphabet
@example([3, 0, 0, 0, 1], 26, 11, None)  # period 5, 130 symbols
@example([2, 3], 36, 0, 57)  # one 3 turned to 2: a single least window far from the start
def test_least_rotation_periodic_inputs(block, repeats, shift, defect):
    tiled = block * repeats
    if defect is not None:  # nearly periodic: one symbol flipped
        tiled[defect % len(tiled)] ^= 1
    shift %= len(tiled)
    _check_least_rotation(tiled[shift:] + tiled[:shift])


def test_weil_bound_values():
    assert weil_bound(((2, 0), (2, 0)), 16) == pytest.approx(3 * 4)
    assert weil_bound(((2, 0),), 16) == pytest.approx(4.0)
    assert weil_bound(((1, 1),), 16) == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        weil_bound((), 16)


def test_empirical_character_sum_identity_x(gf16):
    val = empirical_character_sum(gf16, 5, [((0, 1), 1, 1)])
    assert val == pytest.approx(1.0)  # only the x = 0 term survives


def test_empirical_character_sum_respects_weil_bound(gf256):
    base = gf256.base
    p1 = column_polynomial(gf256, 1).min_poly
    p2 = column_polynomial(gf256, 3).min_poly
    val = empirical_character_sum(base, 5, [(p1, 1, 1), (p2, 2, 1)])
    bound = weil_bound(((2, 0), (2, 0)), 16)
    assert abs(val) <= bound + 1e-6


def test_empirical_character_sum_validation(gf16):
    with pytest.raises(ParameterError):
        empirical_character_sum(gf16, 5, [((0, 1), 5, 1)])  # trivial character
    with pytest.raises(ParameterError):
        empirical_character_sum(gf16, 5, [((0, 1), 1, 0)])  # zero coefficient


def test_character_sum_route_matches_direct(fam16_m5, gf256):
    cases = [
        (1, 1, 1, 2, 3),
        (2, 3, 4, 8, 0),
        (1, 4, 1, 4, 5),
        (3, 2, 2, 2, 0),
        (4, 8, 4, 8, 7),
    ]
    sqrt_q = math.sqrt(16)
    for c1, l1, c2, l2, tau in cases:
        s1 = next(s for s in fam16_m5.sequences if (s.c, s.l) == (c1, l1))
        s2 = next(s for s in fam16_m5.sequences if (s.c, s.l) == (c2, l2))
        direct = cross_correlation(s1, s2, tau)
        via = correlation_via_character_sum(gf256, 5, c1, l1, c2, l2, tau)
        assert direct == pytest.approx(via, abs=1e-6)
        if not (l1 == l2 and tau == 0):
            d1 = column_polynomial(gf256, l1).full_coset.size
            d2 = column_polynomial(gf256, l2).full_coset.size
            assert abs(via + 1.0) <= (d1 + d2 - 1) * sqrt_q + 1e-6


def test_coarse_bin_does_not_depend_on_when_a_value_is_scanned(monkeypatch):
    # 1.0004996 has the 1e-6 key 1000500, which rounds half up to the 1e-3
    # bin 1.001; rounding the value directly at 1e-3 would give 1.000.
    monkeypatch.setattr(correlation, "HISTOGRAM_EXACT_LIMIT", 1)
    results = []
    for batches in ([[1.0004996], [0.25, 0.5]], [[0.25, 0.5], [1.0004996]]):
        acc = correlation._HistogramAccumulator(period=2)
        for batch in batches:
            acc.add_bins(acc.bins(np.array(batch)))
        results.append(acc.result())
    assert results[0] == results[1] == {0.25: 1, 0.5: 1, 1.001: 1}


@pytest.mark.parametrize("limit", [10, 200, 2000, 10**6])
def test_histogram_counts_every_key_exactly(monkeypatch, limit):
    # About 1,500 distinct keys over 40 weighted batches: the histogram
    # switches to 1e-3 bins (limits 10 and 200) or stays exact, folding its
    # batches into the kept keys at merges along the way (2000) or only at
    # the end (10**6).
    monkeypatch.setattr(correlation, "HISTOGRAM_EXACT_LIMIT", limit)
    rng = np.random.default_rng(11)
    acc, fine = correlation._HistogramAccumulator(period=2), {}
    for _ in range(40):
        keys = rng.integers(0, 1500, size=int(rng.integers(1, 400))) + 10**6
        weight = int(rng.integers(1, 4))
        acc.add_bins(acc.bins(keys / 10**6, weight))
        for k in keys.tolist():
            fine[k] = fine.get(k, 0) + weight
    expect = fine
    if limit < len(fine):
        expect = {}
        for k, count in fine.items():
            expect[(k + 500) // 1000] = expect.get((k + 500) // 1000, 0) + count
    scale = 10**6 if limit > len(fine) else 10**3
    got = acc.result()
    assert got == {k / scale: count for k, count in expect.items()}
    assert all(type(count) is int for count in got.values())


@pytest.mark.parametrize("limit", [10, 10**6])
def test_histogram_keys_past_int32_count_as_below_it(monkeypatch, limit):
    # At period 2200 keys reach 2.2e9 > 2**31 and are held as int64. The
    # same weighted batches, once at period 2 (int32 keys) and once shifted
    # past 2**31, are counted exactly (limit 10**6) or, after the switch at
    # the first merge (limit 10), in 1e-3 bins that round half up on either path.
    monkeypatch.setattr(correlation, "HISTOGRAM_EXACT_LIMIT", limit)
    low = np.random.default_rng(5).integers(0, 1500, size=600) + 10**6
    low[:3] = 10**6 + 500  # halfway between two coarse bins
    high = 2**31 + 352  # a multiple of 1000
    for period, shift, dtype in ((2, 0, np.int32), (2200, high - 10**6, np.int64)):
        acc, fine = correlation._HistogramAccumulator(period), {}
        assert acc.keys.dtype == dtype
        for keys, weight in zip(np.array_split(low + shift, 4), (1, 2, 3, 1)):
            acc.add_bins(acc.bins(keys / 10**6, weight))
            for k in keys.tolist():
                fine[k] = fine.get(k, 0) + weight
        expect, scale = fine, 10**6
        if limit < len(fine):
            expect, scale = {}, 10**3
            for k, count in fine.items():
                expect[(k + 500) // 1000] = expect.get((k + 500) // 1000, 0) + count
        assert acc.result() == {k / scale: count for k, count in expect.items()}
        assert acc.scale == scale
    assert min(fine) >= high > 2**31


@pytest.mark.parametrize("schedule", ["merged-at-the-end", "merging", "switching"])
@pytest.mark.parametrize("distinct", [30, 3000])
@pytest.mark.parametrize("period", [40, 2200])
def test_histogram_merges_equal_a_counter(monkeypatch, period, distinct, schedule):
    # Parts that share keys, weighted past 2**32 in all, with int32 keys
    # (period 40) and int64 keys past 2**31 (2200). A packed word leaves a
    # count 38 and 32 bits there, and a weight of 2**39 + 1 makes counts too
    # wide for that on every path. The batch is merged only by result(), at
    # several merges, or with the switch to 1e-3 bins at one of them; three
    # parts are binned before it and counted after it. The batch buffer
    # starts at 64 words, so it grows while it holds words, and a merge
    # reads its words 7 at a time, so runs of one key cross chunks.
    limit = {"merged-at-the-end": 10**9, "merging": distinct, "switching": distinct // 3}[schedule]
    monkeypatch.setattr(correlation, "HISTOGRAM_EXACT_LIMIT", limit)
    monkeypatch.setattr(correlation, "_BATCH_WORDS", 64)
    monkeypatch.setattr(correlation, "_CHUNK_WORDS", 7)
    rng = np.random.default_rng(period + distinct)
    top = period * 10**6
    pool = np.unique(np.concatenate(([0, top, 10**6 + 500], rng.integers(0, top, distinct - 3))))
    acc, fine = correlation._HistogramAccumulator(period), Counter()
    held = []
    for part in range(60):
        keys = rng.choice(pool, size=int(rng.integers(1, 3 * distinct // 10 + 2)))
        weight = int(rng.choice([1, 2, 7, 2**25 + 3, 2**39 + 1]))
        bins = acc.bins(keys / 10**6, weight)
        if part < 3:
            held.append(bins)
        else:
            acc.add_bins(bins)
        for k in keys.tolist():
            fine[k] += weight
    for bins in held:
        acc.add_bins(bins)
    assert (len(fine) > limit) == (schedule == "switching")
    assert max(fine.values()) > 2**32
    expect, scale = fine, 10**6
    if schedule == "switching":
        expect, scale = Counter(), 10**3
        for k, count in fine.items():
            expect[(k + 500) // 1000] += count
    got = acc.result()
    assert got == {k / scale: count for k, count in expect.items()}
    assert acc.scale == scale
    assert all(type(count) is int for count in got.values())


def _histogram_total(family) -> int:
    """P * N(N+1)/2 - N: every unordered pair at every shift, less the trivial ones."""
    n = family.size
    return family.period * n * (n + 1) // 2 - n


def _column_tiles(blocks):
    """The blocks grouped by column tile, in scan order: each tile's blocks are adjacent."""
    tiles = []
    for block in blocks:
        if tiles and np.array_equal(tiles[-1][0][1], block[1]):
            tiles[-1].append(block)
        else:
            tiles.append([block])
    return tiles


@pytest.mark.parametrize("regroup", ["sequential", "reversed"])
def test_block_order_does_not_change_the_report(fam16_m5, monkeypatch, regroup):
    # Tiles of 4 columns: 8 column tiles. With at most 60 exact keys the
    # histogram switches to 1e-3 bins at its second merge, partway through
    # the scan, at a point the block order decides.
    monkeypatch.setattr(kernels, "TILE_ELEMENTS", 240)
    monkeypatch.setattr(correlation, "HISTOGRAM_EXACT_LIMIT", 60)
    spread = max_correlation(fam16_m5).to_dict()
    original = correlation._OrbitScan.blocks

    def blocks(self, tile):
        tiles = _column_tiles(original(self, tile))
        position = {int(m): k for k, m in enumerate(self.order)}
        tiles.sort(key=lambda t: position[int(t[0][1][0])], reverse=regroup == "reversed")
        assert len(tiles) == 8
        return [block for t in tiles for block in t]

    monkeypatch.setattr(correlation._OrbitScan, "blocks", blocks)
    report = max_correlation(fam16_m5).to_dict()
    assert spread["histogram_resolution"] == 1e-3
    spread.pop("elapsed"), report.pop("elapsed")
    assert report == spread


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("backend", ["gemm", "fft"])
def test_one_column_operand_per_column_tile(fam16_m5, monkeypatch, triangle_scan, backend, threads):
    # The upper triangle in tiles of 4: column tile k meets 4 * (k + 1) rows, in bands of 2.
    monkeypatch.setattr(kernels, "TILE_ELEMENTS", 240)
    monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: set(range(threads)), raising=False)
    calls, original = [], kernels.PairScanner.operand

    def counted(self, cols):
        calls.append(cols.tolist())
        return original(self, cols)

    monkeypatch.setattr(kernels.PairScanner, "operand", counted)
    report = triangle_scan(fam16_m5, backend=backend)
    assert report.scan["threads"] == threads
    tile = kernels.tile_size(fam16_m5.period)
    tiles = -(-fam16_m5.size // tile)
    assert report.scan["blocks"] == sum((k + 1) * tile // 2 for k in range(tiles)) == 72
    assert len(calls) == tiles == 8


def test_scan_counters(fam16_m5):
    # D_2 has order 4 on t mod 15 and negation doubles it: 32 members, 4 orbits of 8.
    report = max_correlation(fam16_m5)
    with kernels.scan_blas_threads() as blas_threads:
        pass
    assert report.to_dict()["scan"] == {
        "symmetry_order": 8,
        "member_orbits": 4,
        "pairs_scanned": 4 * 32,
        "pairs_represented": 32 * 33 // 2,
        "blocks": 1,
        "blas_threads": blas_threads,
        "threads": kernels.usable_cpus(),  # one pool thread per usable CPU, whichever kernel runs
    }
    assert sum(report.histogram.values()) == _histogram_total(fam16_m5)


@pytest.mark.parametrize("p, n, M, order", [(3, 3, 13, 6), (3, 3, 26, 6), (13, 1, 12, 2), (13, 1, 4, 2)])
def test_orbit_scan_equals_triangle_relaxed_d2(p, n, M, order, triangle_scan, assert_same_scan):
    family = build_family(build_extension(build_field(p, n), 2), M, "relaxed-d2")
    report = max_correlation(family)
    assert report.scan["symmetry_order"] == order
    assert sum(report.histogram.values()) == _histogram_total(family)
    assert_same_scan(report, triangle_scan(family))


def _relabelled(family, seed: int, tamper: bool):
    """Seeded member order and per-column shifts; optionally one member and its negation altered."""
    rng = np.random.default_rng(seed)
    shifts = {l: int(rng.integers(family.period)) for l in family.used_columns}
    members = [family.sequences[i] for i in rng.permutation(family.size)]
    members = [s.shifted(shifts[s.l]) for s in members]
    if tamper:
        k = int(rng.integers(family.size))
        x = members[k].symbols
        mate = next(i for i, s in enumerate(members) if np.array_equal(s.symbols, -x % family.M))
        altered = x.copy()
        altered[int(rng.integers(family.period))] += 1
        altered %= family.M
        members[k] = dataclasses.replace(members[k], symbols=altered)
        members[mate] = dataclasses.replace(members[mate], symbols=-altered % family.M)
    return _with_members(family, members)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tamper=st.booleans())
@example(seed=0, tamper=True)
def test_orbit_scan_equals_triangle_on_relabelled_families(fam16_m5, seed, tamper, triangle_scan, assert_same_scan):
    family = _relabelled(fam16_m5, seed, tamper)
    report = max_correlation(family)
    # An altered member and its negation break the decimation but keep the negation.
    assert report.scan["symmetry_order"] == (2 if tamper else 8)
    assert sum(report.histogram.values()) == _histogram_total(family)
    assert_same_scan(report, triangle_scan(family))


def test_orbit_scan_expands_pair_bound_violations(fam16_m5, triangle_scan, assert_same_scan):
    # Degree 1 everywhere: the pair bound drops to 5 and most pairs break it.
    family = dataclasses.replace(fam16_m5, coset_sizes={l: 1 for l in fam16_m5.used_columns})
    report = max_correlation(family)
    assert report.scan["symmetry_order"] == 8
    assert len(report.pair_bound_violations) == WITNESS_CAP
    assert not report.same_column_bound_ok
    assert_same_scan(report, triangle_scan(family))
    _assert_first_violation_recomputes(family, report)


def test_expand_keeps_each_triple_once_with_its_least_value():
    # Trivial group on 3 members, period 5: only the pair swap acts.
    scan = correlation._OrbitScan([], 3, 5)
    i, j, tau, value = scan.expand(
        np.array([0, 1, 2, 0]), np.array([1, 0, 2, 1]), np.array([2, 3, 4, 2]), np.array([3.0, 2.0, 7.0, 4.0])
    )
    # (1, 0, 3) swaps to (0, 1, 2); (2, 2, 4) keeps itself and adds (2, 2, 1).
    assert list(zip(i.tolist(), j.tolist(), tau.tolist(), value.tolist())) == [
        (0, 1, 2, 2.0), (2, 2, 1, 7.0), (2, 2, 4, 7.0)
    ]
    # 198 triples given swapped and in reverse: the first WITNESS_CAP come back in order.
    triples = sorted((a, b, t) for a in range(12) for b in range(a + 1, 12) for t in range(3))
    a, b, t = (np.array(x) for x in zip(*triples[::-1]))
    i, j, tau, _ = correlation._OrbitScan([], 12, 3).expand(b, a, -t % 3, np.ones(len(triples)))
    assert list(zip(i.tolist(), j.tolist(), tau.tolist())) == triples[:WITNESS_CAP]


@pytest.mark.parametrize("tile_elements", [60, 240])
def test_orbits_that_cross_column_tiles_report_each_triple_once(
    fam16_m5, tile_elements, triangle_scan, assert_same_scan
):
    # Tiles of 2 or 4 columns split the orbits of 8, so triples of one orbit
    # are hits in several blocks and each expands to the whole orbit.
    family = dataclasses.replace(fam16_m5, coset_sizes={l: 1 for l in fam16_m5.used_columns})
    with mock.patch.object(kernels, "TILE_ELEMENTS", tile_elements):
        report = max_correlation(family)
        assert report.scan["blocks"] > 1
        assert_same_scan(report, triangle_scan(family))
    assert len(report.pair_bound_violations) == WITNESS_CAP


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_representative_with_a_stabilizer_reports_each_triple_once(seed, triangle_scan, assert_same_scan):
    # q=25, period 24: r is fixed by the negation, j by the decimation t -> 5t,
    # so (r, j, tau) and (r, -j, tau') lie in one orbit. With tiles of one
    # column both are hits in different blocks and expand to the same triples.
    fam = build_family(build_extension(build_field(5, 2), 2), 8, "relaxed-d2")
    P, M = fam.period, fam.M
    rng = np.random.default_rng(seed)
    half = rng.integers(0, M, P // 2)
    r = np.concatenate([half, -half % M])
    t = np.arange(P)
    j = rng.integers(0, M, P)[np.minimum(t, 5 * t % P)]
    rows = [r, r[5 * t % P], j, -j % M]
    members = [dataclasses.replace(fam.sequences[0], symbols=s, c=1, l=l) for s, l in zip(rows, fam.used_columns)]
    family = dataclasses.replace(
        fam, sequences=tuple(members), coset_sizes={l: 1 for l in fam.used_columns}
    )
    with mock.patch.object(kernels, "TILE_ELEMENTS", P):
        report = max_correlation(family)
        assert report.scan["symmetry_order"] == 4 and report.scan["member_orbits"] == 2
        assert report.pair_bound_violations
        assert_same_scan(report, triangle_scan(family))


@pytest.mark.parametrize("p, n, M, policy", [(2, 4, 5, "strict"), (3, 3, 26, "relaxed-d2")])
def test_histogram_total_survives_last_bit_noise(p, n, M, policy, monkeypatch):
    # Noise across the 1e-6 bin edges: a value and the orbit mate that the
    # scan does not compute may round to different keys, so the total must
    # not rely on the two landing in one bin. q=27 M=26 has orbits of 3.
    family = build_family(build_extension(build_field(p, n), 2), M, policy)
    rng = np.random.default_rng(7)
    exact = kernels.PairScanner.correlations_abs

    def noisy(self, rows, cols, *operand):
        vals = exact(self, rows, cols, *operand)
        return vals + rng.uniform(0.0, 1e-6, size=vals.shape)  # |R| stays >= 0

    monkeypatch.setattr(kernels.PairScanner, "correlations_abs", noisy)
    report = max_correlation(family)
    assert report.scan["symmetry_order"] > 1
    assert sum(report.histogram.values()) == _histogram_total(family)


def test_generator_that_changes_a_pair_bound_degree_is_dropped(fam16_m5, triangle_scan, assert_same_scan):
    # One column of degree 1: the decimation moves it onto columns of degree 2,
    # the negation keeps it. Its low pair bound makes hits the decimation must not spread.
    first = fam16_m5.used_columns[0]
    family = dataclasses.replace(fam16_m5, coset_sizes={**fam16_m5.coset_sizes, first: 1})
    report = max_correlation(family)
    assert report.scan["symmetry_order"] == 2
    assert report.pair_bound_violations
    assert_same_scan(report, triangle_scan(family))


def test_offset_off_by_one_fails_the_spot_check(fam16_m5, monkeypatch):
    find = correlation._find_generators

    def skewed(*args):
        first, *rest = find(*args)
        offset = first.offset.copy()
        offset[::2] = (offset[::2] + 1) % fam16_m5.period  # every other member
        return [dataclasses.replace(first, offset=offset)] + rest

    monkeypatch.setattr(correlation, "_find_generators", skewed)
    with pytest.raises(InternalCheckError, match="symmetry check failed"):
        max_correlation(fam16_m5)


@pytest.mark.parametrize("extra", [1, 2])
def test_weight_off_by_one_fails_the_histogram_total(fam16_m5, monkeypatch, extra):
    # One pair's weight off by one (extra=1) or by two (extra=2).
    blocks = correlation._OrbitScan.blocks

    def skewed(self, tile):
        for rows, cols, weights in blocks(self, tile):
            weights = weights.copy()
            weights[0, -1] += extra
            yield rows, cols, weights

    monkeypatch.setattr(correlation._OrbitScan, "blocks", skewed)
    try:
        total = sum(max_correlation(fam16_m5).histogram.values())
    except InternalCheckError:
        total = None
    assert total != _histogram_total(fam16_m5)


@pytest.mark.parametrize(
    "p, size, at_bound, first_witness, order_blocks",
    [
        (11, 300, 172, (1, 1, 5, 24, 53), (4, 9)),  # FFT at period 120
        (17, 720, 3336, (1, 1, 5, 10, 162), (4, 93)),  # FFT at period 288
    ],
    ids=["q121", "q289"],
)
def test_bound_attained_with_equality_at_q121(p, size, at_bound, first_witness, order_blocks):
    # q = p**2, d = 2, M = 6: delta_max equals the bound 3 * p + 1, counted exactly in the histogram.
    family = build_family(build_extension(build_field(p, 2), 2), 6, "relaxed-d2")
    report = max_correlation(family)
    bound = 3 * p + 1
    assert family.size == size
    assert report.histogram[float(bound)] == at_bound
    assert report.bound == bound
    assert abs(report.delta_max - bound) < 1e-9
    assert report.bound_ok
    first = report.argmax[0]
    assert (first["c1"], first["l1"], first["c2"], first["l2"], first["tau"]) == first_witness
    assert (report.scan["symmetry_order"], report.scan["blocks"]) == order_blocks


def _serial_fold(family, backend="auto", prepare_first=False):
    """The scan max_correlation(family, backend) runs, each block's kernel and reduction in turn on this thread.

    With prepare_first, every block is prepared before the first fold: the
    farthest the folds of a threaded scan can lag. Also returns the number
    of blocks with one row, and the index of the block after which the
    histogram's bins were coarse (None: never).
    """
    symbols = family.symbols_matrix()
    n, period = symbols.shape
    degs = family.degree_per_sequence()
    keys, starts = correlation._rotation_keys(symbols)
    index, shared = correlation._key_index(keys)
    assert shared is None
    generators = correlation._find_generators(symbols, family.M, degs, prime_factors(family.q)[0], index, starts)
    scan = correlation._OrbitScan(generators, n, period)
    scanner = kernels.PairScanner(symbols, family.M, backend)
    reducer = correlation._ScanReducer(scan, degs, math.sqrt(family.q))
    coarse_from = None
    with kernels.scan_blas_threads():
        blocks = list(scan.blocks((scanner.band, scanner.tile)))
        prepared = (reducer.prepare(*block, scanner.correlations_abs(*block[:2])) for block in blocks)
        for k, part in enumerate(list(prepared) if prepare_first else prepared):
            reducer.fold(part)
            if coarse_from is None and reducer.histogram.scale == 10**3:
                coarse_from = k
    return scan, reducer, sum(rows.size == 1 for rows, *_ in blocks), coarse_from


def _gemm_rows(monkeypatch) -> list[int]:
    """The row count of every matrix product that a scan's column operands take part in from now on."""
    rows, operand = [], kernels.PairScanner.operand

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                rows.append(inputs[0].shape[0])
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    monkeypatch.setattr(kernels.PairScanner, "operand", lambda self, cols: operand(self, cols).view(Counted))
    return rows


@pytest.fixture
def short_switch_interval():
    """Threads switch every 10 us, so that races between the scan threads show."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def _within(call, seconds: float = 60.0):
    """call() on a thread of its own: its result, or its error.

    Fails, rather than hangs, if the call takes longer than `seconds`.
    """
    out = {}

    def run():
        try:
            out["result"] = call()
        except BaseException as error:  # handed to the test's thread
            out["error"] = error

    thread = threading.Thread(target=run, name="scan-caller", daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"the call did not finish in {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["result"]


@pytest.mark.parametrize("backend, case", [
    pytest.param(backend, case, id=case if backend == "gemm" else f"{backend}-{case}")
    for backend in ("gemm", "fft")
    for case in ("symmetric", "trivial", "coarse")
])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_parallel_scan_equals_the_serial_fold(fam16_m5, monkeypatch, short_switch_interval, backend, threads, case):
    # Tiles of 4 members in bands of 2 rows: 10 blocks with the symmetry group, 72 without.
    # With 60 exact keys at most, the histogram turns coarse partway through the scan.
    monkeypatch.setattr(kernels, "TILE_ELEMENTS", 15 * 4 * 4)
    monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: set(range(threads)), raising=False)
    if case == "trivial":
        monkeypatch.setattr(correlation, "_find_generators", lambda *args: [])
    if case == "coarse":
        monkeypatch.setattr(correlation, "HISTOGRAM_EXACT_LIMIT", 60)
    scan, reducer, one_row, coarse_from = _serial_fold(fam16_m5, backend)
    gemm_rows = _gemm_rows(monkeypatch)
    report = _within(lambda: max_correlation(fam16_m5, backend))
    assert (report.backend, report.scan["threads"]) == (backend, threads)
    assert report.scan["blocks"] == scan.blocks_scanned == (72 if case == "trivial" else 10)
    assert 0 < coarse_from < scan.blocks_scanned - 1 if case == "coarse" else coarse_from is None
    # A band has one row only where its column tile meets one orbit: the
    # first two tiles meet only orbit 0. A GEMM product has one row only
    # where its band does.
    assert one_row == (0 if case == "trivial" else 2)
    assert gemm_rows.count(1) == (one_row if backend == "gemm" else 0)
    for reducer in (reducer, _serial_fold(fam16_m5, backend, prepare_first=True)[1]):
        assert report.delta_max == reducer.delta_max
        assert report.histogram == reducer.histogram.result()
        assert report.histogram_resolution == 1 / reducer.histogram.scale
        for entries, hits in ((report.argmax, reducer.witnesses), (report.pair_bound_violations, reducer.violations)):
            members = [fam16_m5.sequences[i] for i in hits[0].tolist() + hits[1].tolist()]
            labels = [(m.c, m.l) for m in members]
            expect = list(zip(labels[:len(hits[0])], labels[len(hits[0]):], hits[2].tolist(), hits[3].tolist()))
            assert [((e["c1"], e["l1"]), (e["c2"], e["l2"]), e["tau"], e["value"]) for e in entries] == expect


def test_a_fold_keeps_only_the_witnesses_of_the_maximum_at_its_turn():
    # Block 0 peaks 0.6e-9 above block 1, within the match tolerance, so
    # block 1 contributes its peak but not its value 0.5e-9 below it. A
    # thread can prepare block 1 before block 0 is folded, when its
    # candidates still include that value: the fold must drop it.
    scan = correlation._OrbitScan([], 3, 5)

    def blocks():
        for top, tau in ((10 + 6e-10, 1), (10.0, 3)):
            vals = np.ones((1, 2, 5))
            vals[0, 0, tau], vals[0, 1, 2] = top, 10 - 5e-10
            yield np.array([0]), np.array([1, 2]), np.ones((1, 2), dtype=np.int64), vals

    serial, lagging = (correlation._ScanReducer(scan, np.ones(3, dtype=np.int64), 100.0) for _ in range(2))
    for block in blocks():
        serial.fold(serial.prepare(*block))
    for prepared in [lagging.prepare(*block) for block in blocks()]:
        lagging.fold(prepared)
    for reducer in (serial, lagging):
        i, j, tau, value = (w.tolist() for w in reducer.witnesses)
        assert (i, j, tau, value) == ([0, 0], [1, 1], [1, 3], [10 + 6e-10, 10.0])
        assert reducer.delta_max == 10 + 6e-10
    assert serial.histogram.result() == lagging.histogram.result()


def test_folds_run_in_block_order_whatever_the_timing(monkeypatch):
    # With 2 witnesses kept, block 0's two values 0.5e-9 below its peak fill
    # the list and push the peak out; block 1's higher peak then drops them.
    # Folded the other way round, block 0's peak would stay. Block 0's kernel
    # is slow, so block 1 is ready first and must wait for its turn. Low
    # blocks of pair (2, 0) follow, none or two: the two are folded once the
    # scan has taken every block, or while it still takes them.
    monkeypatch.setattr(correlation, "WITNESS_CAP", 2)
    monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    vals = {0: np.ones((1, 2, 4)), 1: np.ones((1, 1, 4)), 2: np.ones((1, 1, 4))}
    vals[0][0, 0, :2], vals[0][0, 1, 0] = 10 - 5e-10, 10.0
    vals[1][0, 0, 0] = 10 + 6e-10

    class Scanner:
        threads = 2

        def operand(self, cols):
            return None

        def correlations_abs(self, rows, cols, operand):
            if rows[0] == 0:
                time.sleep(0.05)
            return vals[int(rows[0])].copy()

    scan = correlation._OrbitScan([], 3, 4)
    for after in (0, 2):
        blocks = [(np.array([0]), np.array([1, 2])), (np.array([1]), np.array([2]))]
        blocks += [(np.array([2]), np.array([0]))] * after
        blocks = [(rows, cols, np.ones((1, cols.size), dtype=np.int64)) for rows, cols in blocks]
        serial, threaded = (correlation._ScanReducer(scan, np.ones(3, dtype=np.int64), 100.0) for _ in range(2))
        for block in blocks:
            serial.fold(serial.prepare(*block, vals[int(block[0][0])].copy()))
        _within(lambda: correlation._parallel_scan(iter(blocks), Scanner(), threaded))
        for reducer in (serial, threaded):
            assert [w.tolist() for w in reducer.witnesses] == [[1], [2], [0], [10 + 6e-10]]
        assert threaded.histogram.result() == serial.histogram.result()


def test_a_fold_error_stops_the_pool_before_it_comes_out(monkeypatch):
    # The scan's result generator is kept alive here, as a traceback or a
    # runtime without reference counting could keep it: only closing it
    # stops the pool.
    kept = []

    def in_order(*args):
        kept.append(kernels.in_order(*args))
        return kept[-1]

    class Scanner:
        threads = 3

        def operand(self, cols):
            return None

        def correlations_abs(self, rows, cols, operand):
            time.sleep(0.005)
            return rows

    class Reducer:
        def prepare(self, rows, cols, weights, vals):
            return int(vals[0])

        def fold(self, block):
            if block == 4:
                raise RuntimeError("fold failed")

    monkeypatch.setattr(correlation, "in_order", in_order)
    before, cols = threading.active_count(), np.arange(2)
    with pytest.raises(RuntimeError, match="fold failed"):
        correlation._parallel_scan(((np.array([i]), cols, None) for i in range(30)), Scanner(), Reducer())
    assert kept and threading.active_count() == before


@pytest.mark.parametrize("stage", ["kernel", "reducer", "fold"])
def test_an_error_in_either_stage_comes_out_of_the_scan(fam16_m5, monkeypatch, short_switch_interval, stage):
    # 3 threads on 72 blocks. The 1st, then the 3rd call of the stage
    # raises: the kernel or the reducer's prepare on a pool thread, or the
    # fold on the caller.
    monkeypatch.setattr(kernels, "TILE_ELEMENTS", 15 * 4 * 4)
    monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(correlation, "_find_generators", lambda *args: [])
    owner, name = {
        "kernel": (kernels.PairScanner, "correlations_abs"),
        "reducer": (correlation._ScanReducer, "prepare"),
        "fold": (correlation._ScanReducer, "fold"),
    }[stage]
    original, blocks = getattr(owner, name), correlation._OrbitScan.blocks
    with kernels.scan_blas_threads() as during:
        pass
    before = threading.active_count(), kernels.blas_threads()
    for nth in (1, 3):
        calls, taken, failed_at, lock = [], [], [], threading.Lock()

        def failing(*args):
            with lock:  # pool threads call the kernel and prepare at once
                calls.append(kernels.blas_threads())
                count = len(calls)
            if count == nth:
                failed_at.append(len(taken))
                raise RuntimeError(f"{stage} failed")
            return original(*args)

        def counted(self, shape):
            for block in blocks(self, shape):
                taken.append(block)
                yield block

        monkeypatch.setattr(owner, name, failing)
        monkeypatch.setattr(correlation._OrbitScan, "blocks", counted)
        with pytest.raises(RuntimeError, match=f"{stage} failed"):
            _within(lambda: max_correlation(fam16_m5))
        assert (threading.active_count(), kernels.blas_threads()) == before
        assert set(calls) == {during}
        # The caller takes at most one round of threads blocks after the
        # failing call, and stops taking blocks once it meets the error.
        assert len(taken) <= failed_at[0] + 4 < 72

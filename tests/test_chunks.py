"""kernels.in_order, kernels.run_chunks and the whole-table passes that run through them.

in_order must yield in item order and stop its pool before an error, or
the consumer's leaving, comes out. Every pass must give the table it gives
on one thread, whatever the CPU count, at sizes one below, at and one
above a chunk and over several chunks. The module also runs under one CPU
in CI (`taskset -c 0`), where the unpatched calls take the serial path.
"""

import concurrent.futures
import math
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest

from seqfam import columns, fields, kernels
from seqfam.kernels import CHUNK, in_order, run_chunks

CPU_COUNTS = (1, 2, 3)
AROUND_A_CHUNK = (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5)


@pytest.fixture
def pools(monkeypatch) -> list:
    """max_workers of every pool in_order builds during the test."""
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    return made


def _on_each_cpu_count(pools, run, pooled_passes):
    """run() under 1, 2 and 3 usable CPUs; asserts every result equals the first and counts the pools.

    pooled_passes is the number of passes of more than one chunk: each
    builds one pool when cpus > 1, beside the calling thread, and none runs
    on a pool on one CPU.
    """
    results = []
    for cpus in CPU_COUNTS:
        pools.clear()
        with mock.patch.object(kernels, "usable_cpus", lambda: cpus):
            results.append(run())
        assert len(pools) == (pooled_passes if cpus > 1 else 0), cpus
        assert all(1 <= workers < cpus for workers in pools), (cpus, pools)
    for result in results[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(results[0], result))
    return results[0]


@pytest.mark.parametrize("threads", CPU_COUNTS)
def test_in_order_yields_in_item_order_whatever_the_timing(pools, threads):
    delays = np.random.default_rng(threads).uniform(0.0, 0.004, 40)

    def item(i):
        time.sleep(delays[i])
        return i, threading.get_ident()

    results = list(in_order(item, zip(range(40)), threads))
    idents = {ident for _, ident in results}
    assert [i for i, _ in results] == list(range(40))
    assert threading.get_ident() in idents and len(idents) <= threads  # one thread: all here
    assert pools == ([threads - 1] if threads > 1 else [])


@pytest.mark.parametrize("threads", CPU_COUNTS)
def test_in_order_takes_at_most_two_rounds_less_one_item_ahead(threads):
    taken = []

    def items():
        for i in range(20):
            taken.append(i)
            yield (i,)

    ahead = [len(taken) - (i + 1) for i in in_order(lambda i: i, items(), threads)]
    assert max(ahead) == (2 * threads - 1 if threads > 1 else 0)


@pytest.mark.parametrize("threads", CPU_COUNTS)
@pytest.mark.parametrize("failing", (0, 1, 2, 4, 5))  # pool items and the caller's, in two rounds
def test_in_order_raises_the_first_error_once_every_started_item_has_finished(threads, failing):
    started, finished, results = [], [], []

    def item(i):
        started.append(i)
        time.sleep(0.005)
        if i in (failing, failing + 1):  # the next item fails too, and may fail first
            raise ValueError(i)
        finished.append(i)
        return i

    with pytest.raises(ValueError, match=f"^{failing}$"):
        for result in in_order(item, zip(range(12)), threads):
            results.append(result)
    begun, done = sorted(started), sorted(finished)
    assert results == list(range(failing))
    assert done == sorted(set(begun) - {failing, failing + 1})  # every item begun has ended
    # No item starts after the error, and the caller's item of the next round never does.
    assert max(begun) <= (failing // threads + 2) * threads - 2
    time.sleep(0.02)
    assert sorted(started) == begun


def test_in_order_cancels_the_items_queued_when_an_error_comes_out():
    # Three threads: item 0 fails at once while items 1 and 3 hold both pool
    # threads, so item 4 is still queued when the error comes out, and item
    # 5, the caller's, has not begun.
    started = []

    def item(i):
        started.append(i)
        if i == 0:
            raise ValueError(i)
        time.sleep(0.1 if i in (1, 3) else 0.0)

    with pytest.raises(ValueError, match="^0$"):
        list(in_order(item, zip(range(9)), 3))
    assert sorted(started) == [0, 1, 2, 3]


def test_in_order_lets_an_interrupt_on_the_caller_out_at_once():
    # Item 0, on the pool, fails later in time but first in item order; an
    # interrupt in item 1, the caller's, still comes out, once item 0 has ended.
    finished = []

    def item(i):
        if i == 1:
            raise KeyboardInterrupt
        time.sleep(0.02)
        finished.append(i)
        raise ValueError(i)

    with pytest.raises(KeyboardInterrupt):
        list(in_order(item, zip(range(4)), 2))
    assert finished == [0]


@pytest.mark.parametrize("threads", CPU_COUNTS)
def test_in_order_stops_its_pool_when_the_consumer_stops_early(threads):
    before, started = threading.active_count(), []

    def item(i):
        started.append(i)
        time.sleep(0.005)
        return i

    results = in_order(item, zip(range(100)), threads)
    assert next(results) == 0
    results.close()
    assert threading.active_count() == before  # closed while `results` still refers to it
    begun = len(started)
    time.sleep(0.02)
    assert len(started) == begun <= 2 * threads - 1


@pytest.mark.parametrize("threads", (2, 3))
def test_in_order_runs_the_calling_thread_beside_the_pool(pools, threads):
    barrier = threading.Barrier(threads, timeout=30)

    def item(i):
        barrier.wait()  # passes only once an item runs on every thread at once
        return threading.get_ident()

    idents = list(in_order(item, zip(range(2 * threads)), threads))
    assert pools == [threads - 1] and len(set(idents)) == threads
    assert idents[threads - 1] == idents[-1] == threading.get_ident()  # the last item of each round


@pytest.mark.parametrize("cpus", CPU_COUNTS)
@pytest.mark.parametrize("stop", (1, *AROUND_A_CHUNK))
def test_run_chunks_calls_each_start_once(pools, cpus, stop):
    calls = []
    with mock.patch.object(kernels, "usable_cpus", lambda: cpus):
        run_chunks(lambda lo: calls.append((lo, threading.get_ident())), stop, CHUNK)
    starts = list(range(0, stop, CHUNK))
    assert sorted(lo for lo, _ in calls) == starts
    threads = {ident for _, ident in calls}
    if cpus == 1 or len(starts) == 1:
        assert pools == [] and threads == {threading.get_ident()}
    else:  # this thread and min(cpus, chunks) - 1 pool threads
        assert pools == [min(cpus, len(starts)) - 1]
        assert len(threads) <= pools[0] + 1


def test_run_chunks_hands_each_start_to_one_thread_under_fast_switching():
    # More threads than CPUs, switching every microsecond: a start handed out
    # twice, or lost, changes the list.
    calls, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(kernels, "usable_cpus", lambda: 8):
            run_chunks(lambda lo: calls.append(lo), 200 * 7, 7)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == list(range(0, 200 * 7, 7))


@pytest.mark.parametrize("cpus", CPU_COUNTS)
def test_run_chunks_raises_the_first_error_once_the_pool_has_stopped(cpus):
    started, finished = [], []

    def chunk(lo):
        started.append(lo)
        if lo in (CHUNK, 3 * CHUNK):
            raise ValueError(lo)
        time.sleep(0.02)
        finished.append(lo)

    with mock.patch.object(kernels, "usable_cpus", lambda: cpus):
        with pytest.raises(ValueError, match=f"^{CHUNK}$"):
            run_chunks(chunk, 6 * CHUNK, CHUNK)
    # every chunk begun has run to its end (or error) before the error came out
    assert sorted(finished) == sorted(set(started) - {CHUNK, 3 * CHUNK})
    assert len(started) < 6  # and no chunk began once the error was seen


@pytest.mark.parametrize("cpus", CPU_COUNTS)
def test_run_chunks_raises_the_error_of_the_first_chunk_whatever_the_timing(cpus):
    delays, raised = [0.03, 0.06, 0.0], []  # on three threads chunk 2 fails first, chunk 1 last

    def chunk(lo):
        time.sleep(delays[lo])
        raised.append(lo)
        raise ValueError(lo)

    with mock.patch.object(kernels, "usable_cpus", lambda: cpus):
        with pytest.raises(ValueError) as error:
            run_chunks(chunk, 3, 1)
    assert str(error.value) == str(min(raised))


@pytest.mark.parametrize("cpus", (2, 3))
def test_run_chunks_runs_this_thread_beside_the_pool(cpus):
    barrier, threads = threading.Barrier(cpus, timeout=30), set()

    def chunk(lo):
        threads.add(threading.get_ident())
        barrier.wait()  # passes only once a chunk runs on every thread at once

    with mock.patch.object(kernels, "usable_cpus", lambda: cpus):
        run_chunks(chunk, cpus, 1)
    assert len(threads) == cpus and threading.get_ident() in threads


@pytest.mark.parametrize("rows", (4095, 4096, 4097, 3 * 4096 + 5))
def test_root_products_on_each_cpu_count(pools, gf256, rows):
    exponents = np.random.default_rng(rows).integers(0, gf256.size, (rows, 3))
    chunks = -(-rows // 4096)
    (products,) = _on_each_cpu_count(pools, lambda: (columns.root_products(gf256, exponents),), int(chunks > 1))
    assert products.shape == (rows, 4)
    for i in (0, rows // 2, rows - 1):  # the one-row call, which takes no pool, agrees row by row
        assert np.array_equal(columns.root_products(gf256, exponents[i : i + 1])[0], products[i])


@pytest.mark.parametrize(
    "modulus, q",
    [
        (CHUNK - 1, 2),  # order 17, int32
        (CHUNK, CHUNK - 1),  # q = -1: order 2, int64
        (CHUNK + 1, 2),  # order 34, int32
        (4 * CHUNK - 1, 2),  # order 19, four chunks
    ],
)
def test_coset_minima_on_each_cpu_count(pools, modulus, q):
    (reps,) = _on_each_cpu_count(pools, lambda: (columns.coset_leaders(modulus, q),), int(modulus > CHUNK))
    sizes = columns._orbit_sizes(reps, q, modulus)
    assert sizes.sum() == modulus
    orbits = [columns.coset(int(l), modulus, q) for l in np.r_[0:3, CHUNK - 2 : min(CHUNK + 2, modulus), modulus - 3 : modulus]]
    at = np.searchsorted(reps, [c.representative for c in orbits])
    assert [(int(reps[i]), int(sizes[i])) for i in at] == [(c.representative, c.size) for c in orbits]


def _doubling_rounds(n: int) -> list[int]:
    """The block lengths _exp_table's rounds copy: 1, 2, 4, ... and the rest."""
    takes, filled = [], 1
    while filled < n:
        takes.append(min(filled, n - filled))
        filled += takes[-1]
    return takes


# n = CHUNK - 1, CHUNK, CHUNK + 1 put a whole table around one chunk (the odd-p
# packing pass); 2 CHUNK - 1, 2 CHUNK and 3 CHUNK + 1 end on a doubling round
# one below, at and one above a chunk; 7 CHUNK ends on a round of three.
EXP_LENGTHS = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 3 * CHUNK + 1, 7 * CHUNK)


@pytest.mark.parametrize(
    "p, digits",
    [
        (2, 20),  # p = 2: spread form is the packed encoding
        (3, 13),  # odd p: spread rounds, then the packing pass
        (1048573, 1),  # a prime field: one modular product per round
    ],
)
@pytest.mark.parametrize("n", EXP_LENGTHS)
def test_exp_table_on_each_cpu_count(pools, p, digits, n):
    if digits == 1:
        def raw_mul(a, b):
            return a * b % p
    else:
        prime = fields._prime_context(p)
        raw_mul = fields._poly_mul(prime, fields._smallest_irreducible(prime, digits))
    beta = p if digits > 1 else 2  # x, or 2 in the prime field
    passes = sum(take > CHUNK for take in _doubling_rounds(n)) + (p != 2 and digits > 1 and n > CHUNK)
    (exp,) = _on_each_cpu_count(pools, lambda: (fields._exp_table(n + 1, beta, raw_mul, p, digits),), passes)
    for t in (1, n // 2, n - 1):
        assert exp[t] == fields.power(raw_mul, beta, t, 1)


@pytest.mark.parametrize("n", AROUND_A_CHUNK)
@pytest.mark.parametrize("k", [1, 5])  # the log scatter alone, and with the re-index
def test_power_tables_on_each_cpu_count(pools, n, k):
    assert math.gcd(k, n) == 1
    exp = np.random.default_rng(n).permutation(n).astype(np.int64) + 1  # any primitive's table
    powered, log = _on_each_cpu_count(pools, lambda: fields._power_tables(exp, k), int(n > CHUNK))
    t = np.arange(n)
    assert np.array_equal(powered, exp[t * k % n])
    assert log[0] == 0 and np.array_equal(log[powered], t)

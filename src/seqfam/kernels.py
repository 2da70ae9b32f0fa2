"""Tiled pair-correlation kernels and their selection by period.

``PairScanner.correlations_abs(rows, cols)`` returns |R_ij(tau)| for every
i in rows, j in cols and every shift tau, as an array of shape
(len(rows), len(cols), period), where

    R_ij(tau) = sum_t A_i(t) * conj(A_j(t + tau)),   A = w**symbols.

Two kernels compute it:

* "gemm": one complex matrix product A_rows @ Circ(conj A_cols), where the
  period x (len(cols) * period) circulant operand holds every shift of
  every column member. It is built once per column tile and reused while
  the row tiles change. Cost grows as period**2 per pair.
* "fft": per-sequence DFTs are computed once; a tile costs one spectrum
  product F_rows[:, None] * conj(F_cols)[None] plus a batched transform.
  Cost grows as period * log(period) per pair.

The kernel is picked from the period alone, by default_backend: GEMM up
to GEMM_MAX_PERIOD, FFT above it. Either kernel forms a block, `band`
rows by one column tile, in one complex product of about a quarter of
TILE_ELEMENTS values.
A scan runs its blocks through in_order, on one thread per usable CPU
whichever kernel runs; OpenBLAS runs each product on one thread
(scan_blas_threads). Measured so on 2 CPUs, whole max_correlation scans of
real families, each kernel three times in alternation, in microseconds
per scanned pair (wall / CPU):

    period  family                     GEMM                   FFT
    28      q=29 d=3 M=14              0.43-0.48 / 0.69-0.75  0.41-0.41 / 0.64-0.66
    31      q=32 d=3 M=31              0.28-0.30 / 0.48-0.50  0.43-0.48 / 0.76-0.84
    36      q=37 d=2 M=36 relaxed-d2   0.99-1.05 / 1.38-1.44  0.95-0.98 / 1.30-1.32
    40      q=41 d=3 M=8               0.40-0.41 / 0.72-0.74  0.35-0.38 / 0.63-0.67
    46      q=47 d=3 M=2               0.50-0.51 / 0.87-0.89  0.55-0.71 / 0.94-1.16
    52      q=53 d=3 M=4               0.55-0.58 / 0.98-1.04  0.45-0.46 / 0.80-0.82
    58      q=59 d=3 M=2               0.61-0.65 / 1.08-1.14  0.63-0.64 / 1.11-1.13
    63      q=64 d=2 M=63              1.34-1.52 / 1.99-2.56  1.11-1.18 / 1.85-2.19
    70      q=71 d=3 M=5               0.85-0.90 / 1.56-1.64  0.66-0.76 / 1.20-1.34
    80      q=81 d=3 M=4               1.15-1.18 / 2.00-2.05  0.68-0.90 / 1.14-1.59

A row counts the scan's bookkeeping too, so a small family's fixed costs
show in its figures; compare the kernels within a row. FFT is ahead from
period 36 on, about even at 46 = 2*23 and 58 = 2*29, and well ahead at
52, 63, 70 and 80. Prime periods are slow in pocketfft: at 31 GEMM takes
two thirds of FFT's wall time, so GEMM_MAX_PERIOD is 31. No family has a
period from 32 to 35, as none of 33 to 36 is a prime power. The tests
check both kernels against correlation.cross_correlation, a direct sum
over the symbols that shares no code with them.
"""

import ctypes
import functools
import os
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ParameterError, ThreadStartError

# Kept for callers that still ask whether a compiled kernel was built;
# there is none any more.
COMPILED_AVAILABLE = False

GEMM_MAX_PERIOD = 31
# A tile holds about this many |R| values: tile**2 * period <= TILE_ELEMENTS.
TILE_ELEMENTS = 1 << 20


def default_backend(period: int | None = None) -> str:
    """The kernel that runs sequences of this period ("auto" while it is unknown); no other code picks one."""
    if period is None:
        return "auto"
    return "gemm" if period <= GEMM_MAX_PERIOD else "fft"


def tile_size(period: int) -> int:
    """Largest power of two t with t * t * period <= TILE_ELEMENTS."""
    tile = 1
    while (2 * tile) ** 2 * period <= TILE_ELEMENTS:
        tile *= 2
    return tile


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS in numpy's wheel, or None where there is none."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))  # numpy loaded it already: this returns the same handle
        for suffix in ("64_", ""):  # the ILP64 and the LP64 build of scipy-openblas
            get = getattr(dll, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(dll, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def blas_threads() -> int | None:
    """The thread count OpenBLAS runs numpy's matrix products with, None if unknown."""
    lib = _openblas()
    return None if lib is None else lib[0]()


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def in_order(fn, items, threads: int):
    """fn(*item) for each item, yielded in item order, on `threads` threads.

    The items run in rounds of `threads`: a pool of threads - 1 threads,
    built for this call, runs the first threads - 1 of a round and this
    thread the last (one pool thread fewer is one malloc arena fewer). The
    next round goes to the pool before this round's results are yielded,
    so at most 2 * threads - 1 items are taken beyond the one yielded; fn
    should release the interpreter lock, as numpy calls do. The first error
    in item order comes out once the pool has stopped, as does closing the
    generator, and every item not yet started is cancelled. A pool thread
    that cannot be started (a memory or process limit) raises
    ThreadStartError. With one thread the items run here in turn, with no
    pool.
    """
    if threads < 2:
        for item in items:
            yield fn(*item)
        return
    from concurrent.futures import Future, ThreadPoolExecutor  # here, as it adds about 10 ms to importing seqfam

    def here(item) -> Future:
        done = Future()
        try:
            done.set_result(fn(*item))
        except Exception as error:  # an interrupt comes out at once, through the finally below
            done.set_exception(error)
        return done

    def submit(item) -> Future:
        try:
            return pool.submit(fn, *item)
        except RuntimeError as error:  # a thread start, as the pool is shut down only below
            raise ThreadStartError(f"cannot start a worker thread: {error}") from error

    items = iter(items)
    pool = ThreadPoolExecutor(threads - 1)
    try:
        batch = list(islice(items, threads))
        running = [submit(item) for item in batch[:-1]]
        while batch:
            running.append(here(batch[-1]))
            batch = list(islice(items, threads))
            ahead = [submit(item) for item in batch[:-1]]
            for future in running:
                yield future.result()
            running = ahead
    finally:
        pool.shutdown(cancel_futures=True)


# Elements per chunk of a whole-table pass; a shorter pass runs on the caller alone.
CHUNK = 1 << 17


def run_chunks(fn, stop: int, step: int) -> list:
    """[fn(lo) for lo in range(0, stop, step)], each call writing its own slice or returning its part.

    The calls run through in_order on one thread per usable CPU, at most
    one per chunk, so a pass of one chunk runs here alone.
    """
    starts = range(0, stop, step)
    return list(in_order(fn, zip(starts), min(usable_cpus(), len(starts))))


@contextmanager
def scan_blas_threads():
    """One OpenBLAS thread per caller during a scan, the old count restored after it.

    A GEMM scan runs blocks on every usable CPU, each thread calling its
    own matrix products; with more OpenBLAS threads each product would take
    CPUs from the other scan threads, and idle OpenBLAS threads spin for a
    while before they sleep. Yields the count set, or None (changing
    nothing) where OpenBLAS is not found.
    """
    lib = _openblas()
    if lib is None:
        yield None
        return
    get, put = lib
    old = get()
    put(1)
    try:
        yield get()
    finally:
        put(old)


def root_phases(symbols, M: int) -> np.ndarray:
    """w**symbols, w = exp(2j*pi/M), read from a table of the M roots.

    Each entry is np.exp(2j * np.pi * (s % M) / M) to the bit: the table
    applies the same operations to the same residues, at M exp calls
    instead of one per symbol.
    """
    return np.exp(2j * np.pi * np.arange(M) / M)[np.asarray(symbols) % M]


class PairScanner:
    """Per-kernel state for one symbol matrix; serves (row tile x column tile) blocks."""

    def __init__(self, symbols: np.ndarray, M: int):
        symbols = np.asarray(symbols)
        if symbols.ndim != 2:
            raise ParameterError("symbols must be a 2-D (sequence, time) array")
        self.count, self.period = symbols.shape
        self.backend = default_backend(self.period)
        self.tile = tile_size(self.period)
        # A scan runs its blocks through in_order on every usable CPU. On two,
        # either scan benchmark peaks about 11 MB above one CPU (README).
        self.threads = usable_cpus()
        # Rows per block: a block is one complex product of about a quarter of
        # TILE_ELEMENTS values, twice the size of its |R| in bytes.
        self.band = max(1, TILE_ELEMENTS // (4 * self.tile * self.period))
        self._phases = root_phases(symbols, M)
        if self.backend == "fft":
            self._spectra = np.fft.fft(self._phases, axis=1)

    def operand(self, cols) -> np.ndarray:
        """What column tile `cols` contributes to every block it meets: Circ(conj A) or conj F."""
        cols = np.asarray(cols, dtype=np.int64)
        if self.backend == "fft":
            return np.conj(self._spectra[cols])
        period = self.period
        shifts = (np.arange(period)[:, None] + np.arange(period)) % period  # [t, tau] -> t + tau
        circ = np.conj(self._phases[cols])[:, shifts]  # [b, t, tau] = conj A_b(t + tau)
        return np.ascontiguousarray(circ.transpose(1, 0, 2)).reshape(period, cols.size * period)

    def correlations_abs(self, rows, cols, operand=None) -> np.ndarray:
        """|R(tau)| for every pair (rows[a], cols[b]) and every shift: shape (a, b, period).

        `operand` is operand(cols), where the caller has it; without it the call builds it.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if operand is None:
            operand = self.operand(cols)
        if self.backend == "gemm":
            return np.abs(self._phases[rows] @ operand).reshape(rows.size, cols.size, self.period)
        spectra = self._spectra[rows][:, None, :] * operand[None, :, :]
        return np.abs(np.fft.fft(spectra, axis=2, norm="forward", out=spectra))

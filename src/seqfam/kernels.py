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

The kernel is picked from the period alone: GEMM up to GEMM_MAX_PERIOD,
FFT above it. Either kernel forms a block, `band` rows by one column
tile, in one complex product of about a quarter of TILE_ELEMENTS values.
A scan runs its blocks through in_order, on one thread per usable CPU
whichever kernel runs; OpenBLAS runs each product on one thread
(scan_blas_threads). Measured so on 2 CPUs, kernels alone over the upper
triangle of 768 random members, in microseconds per pair (wall / CPU,
two runs):

    period   GEMM, 2 threads       FFT, 2 threads
    62       0.74-0.99 / 1.25-1.44 0.81-0.82 / 1.58-1.61
    80       1.07-1.09 / 1.96-2.03 0.58-0.58 / 1.11-1.11
    100      1.71-1.71 / 3.12-3.21 0.65-0.73 / 1.28-1.40
    126      2.45-2.52 / 4.60-4.78 1.00-1.03 / 1.89-1.98

The two are about even in wall time at period 62, and FFT is ahead from
period 80 on, at half the CPU time or less. The boundary stays where it was
set when FFT ran on one thread (even at 80), so each period keeps its
kernel and its values their last bits; the tests pin a GEMM report at
periods 63 and 80, which a move would change. The tests check both
kernels against correlation.cross_correlation, a direct sum over the
symbols that shares no code with them.
"""

import ctypes
import functools
import os
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ParameterError

# Kept for callers that still ask whether a compiled kernel was built;
# there is none any more.
COMPILED_AVAILABLE = False

GEMM_MAX_PERIOD = 80
# A tile holds about this many |R| values: tile**2 * period <= TILE_ELEMENTS.
TILE_ELEMENTS = 1 << 20
BACKENDS = ("gemm", "fft")


def default_backend(period: int | None = None) -> str:
    """The kernel used for sequences of this period ("auto" while it is unknown)."""
    if period is None:
        return "auto"
    return "gemm" if period <= GEMM_MAX_PERIOD else "fft"


def resolve_backend(name: str, period: int) -> str:
    if name == "auto":
        return default_backend(period)
    if name not in BACKENDS:
        raise ParameterError(f"unknown correlation backend {name!r}")
    return name


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
    generator, and every item not yet started is cancelled. With one
    thread the items run here in turn, with no pool.
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

    items = iter(items)
    pool = ThreadPoolExecutor(threads - 1)
    try:
        batch = list(islice(items, threads))
        running = [pool.submit(fn, *item) for item in batch[:-1]]
        while batch:
            running.append(here(batch[-1]))
            batch = list(islice(items, threads))
            ahead = [pool.submit(fn, *item) for item in batch[:-1]]
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

    def __init__(self, symbols: np.ndarray, M: int, backend: str = "auto"):
        symbols = np.asarray(symbols)
        if symbols.ndim != 2:
            raise ParameterError("symbols must be a 2-D (sequence, time) array")
        self.count, self.period = symbols.shape
        self.backend = resolve_backend(backend, self.period)
        self.M = M
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

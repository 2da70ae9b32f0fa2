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
FFT above it. A block's complex products are formed a few rows at a time,
so a block needs little more memory than its |R|. During a scan OpenBLAS
gets one thread fewer than the CPUs the process may use (scan_blas_threads),
so on 2 cores both kernels run on one thread. Measured so, in
microseconds per pair (wall / CPU, two runs):

    period   GEMM                  FFT
    62       1.08-1.16 / 1.08-1.16 1.72-2.04 / 1.72-2.04
    80       1.86-1.93 / 1.85-1.93 1.09-1.12 / 1.09-1.12
    100      2.78-2.80 / 2.78-2.80 1.39-1.41 / 1.38-1.40
    126      4.58-4.80 / 4.58-4.80 2.05-2.19 / 2.05-2.19

GEMM is ahead at period 62 and FFT at period 80. The boundary was set
where the two broke even in wall time with GEMM on both cores
(0.98-1.05 against 0.91-1.07 at period 80), and it stays there so that
each period keeps its kernel, and its values their last bits. In a GEMM
scan the reduction of one block runs beside the kernel of the next (see
correlation._pipelined). A slow pure-Python "reference" path is the
independent oracle for tests at tiny sizes.
"""

import ctypes
import functools
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ParameterError

# Kept for callers that still ask whether a compiled kernel was built;
# there is none any more.
COMPILED_AVAILABLE = False

GEMM_MAX_PERIOD = 80
# A tile holds about this many |R| values: tile**2 * period <= TILE_ELEMENTS.
TILE_ELEMENTS = 1 << 20
BACKENDS = ("gemm", "fft", "reference")


def default_backend(period: int | None = None) -> str:
    """The kernel used for sequences of this period ("auto" while it is unknown)."""
    if period is None:
        return "auto"
    return "gemm" if period <= GEMM_MAX_PERIOD else "fft"


def resolve_backend(name: str | None, period: int) -> str:
    if name in (None, "auto"):
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


@contextmanager
def scan_blas_threads():
    """Leave one CPU to the scan's reducer: OpenBLAS gets one thread fewer than
    this process may use, never fewer than one nor more than it had. Yields
    that count, or None (changing nothing) where OpenBLAS is not found.

    An idle OpenBLAS thread spins for a while before it sleeps, so with one
    thread per CPU the threads of each matrix product would spin through
    the reduction that runs beside the next one.
    """
    lib = _openblas()
    if lib is None:
        yield None
        return
    get, put = lib
    old = get()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    put(max(1, min(old, cpus - 1)))
    try:
        yield get()
    finally:
        put(old)


class PairScanner:
    """Per-kernel state for one symbol matrix; serves (row tile x column tile) blocks."""

    def __init__(self, symbols: np.ndarray, M: int, backend: str | None = "auto"):
        symbols = np.asarray(symbols)
        if symbols.ndim != 2:
            raise ParameterError("symbols must be a 2-D (sequence, time) array")
        self.count, self.period = symbols.shape
        self.backend = resolve_backend(backend, self.period)
        self.M = M
        self.tile = tile_size(self.period)
        self._phases = np.exp(2j * np.pi * (symbols % M) / M)
        if self.backend == "fft":
            self._spectra = np.fft.fft(self._phases, axis=1)
        self._cols = None
        self._operand = None

    def correlations_abs(self, rows, cols) -> np.ndarray:
        """|R(tau)| for every pair (rows[a], cols[b]) and every shift: shape (a, b, period)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if self.backend == "reference":
            return self._reference(rows, cols)
        if self._cols is None or not np.array_equal(cols, self._cols):
            self._cols = cols.copy()
            self._operand = self._column_operand(cols)
        out = np.empty((rows.size, cols.size, self.period))
        # The complex products, twice the size of their |R|, are formed for about a quarter
        # tile of rows at a time. No part has a single row unless the block does: numpy
        # hands a one-row product to GEMV, whose sums can differ from GEMM's in the last bit.
        parts = max(1, min(rows.size // 2, -(-4 * rows.size * cols.size * self.period // TILE_ELEMENTS)))
        bounds = [rows.size * k // parts for k in range(parts + 1)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if self.backend == "gemm":
                np.abs(self._phases[rows[lo:hi]] @ self._operand, out=out[lo:hi].reshape(hi - lo, -1))
            else:
                spectra = self._spectra[rows[lo:hi]][:, None, :] * self._operand[None, :, :]
                np.abs(np.fft.fft(spectra, axis=2, norm="forward", out=spectra), out=out[lo:hi])
        return out

    def _column_operand(self, cols: np.ndarray) -> np.ndarray:
        """What a column tile contributes to every block it meets: Circ(conj A) or conj F."""
        if self.backend == "fft":
            return np.conj(self._spectra[cols])
        period = self.period
        shifts = (np.arange(period)[:, None] + np.arange(period)) % period  # [t, tau] -> t + tau
        circ = np.conj(self._phases[cols])[:, shifts]  # [b, t, tau] = conj A_b(t + tau)
        return np.ascontiguousarray(circ.transpose(1, 0, 2)).reshape(period, cols.size * period)

    def _reference(self, rows, cols) -> np.ndarray:
        out = np.empty((rows.size, cols.size, self.period), dtype=np.float64)
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                for tau in range(self.period):
                    prod = self._phases[i] * np.conj(np.roll(self._phases[j], -tau))
                    out[a, b, tau] = abs(prod.sum())
        return out

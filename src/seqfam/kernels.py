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
FFT above it. Measured on 2 cores, GEMM in OpenBLAS on both cores and
numpy's FFT on one, in microseconds per pair (wall / CPU, two runs):

    period   GEMM                  FFT
    62       0.66-0.68 / 1.32      1.23-1.29 / 1.29-1.40
    80       0.98-1.05 / 1.86-2.05 0.91-1.07 / 0.91-1.10
    100      1.43-1.60 / 2.78-3.18 1.07-1.33 / 1.11-1.33
    126      2.29-2.46 / 4.48-4.93 1.53-1.95 / 1.53-1.97

GEMM takes half the wall time of FFT at period 62 for about the same CPU
time; the two break even on wall time near period 80, where FFT already
takes half the CPU time, and FFT is ahead from there on. A slow
pure-Python "reference" path is the independent oracle for tests at tiny
sizes.
"""

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
        if self.backend == "gemm":
            vals = self._phases[rows] @ self._operand
            return np.abs(vals).reshape(rows.size, cols.size, self.period)
        spectra = self._spectra[rows][:, None, :] * self._operand[None, :, :]
        return np.abs(np.fft.fft(spectra, axis=2, norm="forward", out=spectra))

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

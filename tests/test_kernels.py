import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqfam
from seqfam import kernels
from seqfam.correlation import cross_correlation
from seqfam.errors import ParameterError
from seqfam.kernels import (
    GEMM_MAX_PERIOD,
    TILE_ELEMENTS,
    PairScanner,
    default_backend,
    resolve_backend,
    root_phases,
    tile_size,
)
from seqfam.sequences import MSequence

# |R| <= period <= 48 here. Summing 48 unit-modulus float64 terms, by a
# matrix product or a transform of that length, errs by well under
# 48 * 48 * eps ~ 5e-13; the bound leaves a hundredfold margin.
PROPERTY_ATOL = 100 * 48 * 48 * np.finfo(np.float64).eps


def _random_case(rng, n, period, M):
    symbols = rng.integers(0, M, (n, period))
    rows = rng.integers(0, n, 8).astype(np.int64)
    cols = rng.integers(0, n, 8).astype(np.int64)
    return symbols, rows, cols


def _matches_cross_correlation(backend, period, M, seed):
    """Both kernels are checked against one reference, the direct sum cross_correlation."""
    symbols, rows, cols = _random_case(np.random.default_rng(seed), 40, period, M)
    vals = PairScanner(symbols, M, backend=backend).correlations_abs(rows, cols)
    assert vals.shape == (rows.size, cols.size, period)
    seqs = [MSequence(s, M, M + 1) for s in symbols]
    expect = [[[abs(cross_correlation(seqs[i], seqs[j], tau)) for tau in range(period)] for j in cols] for i in rows]
    assert np.abs(vals - expect).max() < 1e-6


KERNEL_CASES = [(15, 5), (12, 4), (31, 31), (40, 8), (7, 2), (255, 15)]


@pytest.mark.parametrize("period,M", KERNEL_CASES)
def test_fft_matches_reference(period, M):
    _matches_cross_correlation("fft", period, M, period * M)


@pytest.mark.parametrize("period,M", KERNEL_CASES)
def test_gemm_matches_reference(period, M):
    _matches_cross_correlation("gemm", period, M, period * M + 1)


@pytest.mark.parametrize("M", [*range(2, 65), 255])
def test_root_table_phases_equal_the_formula_to_the_bit(M):
    # Symbols past M, and rows of 61, no multiple of a vector width, so that
    # residues land in vector lanes and in scalar tails.
    symbols = np.random.default_rng(M).integers(0, 3 * M, (7, 61))
    direct = np.exp(2j * np.pi * (symbols % M) / M)
    assert np.array_equal(root_phases(symbols, M).view(np.int64), direct.view(np.int64))
    assert np.array_equal(PairScanner(symbols, M)._phases.view(np.int64), direct.view(np.int64))


def test_trivial_correlation_equals_period():
    rng = np.random.default_rng(9)
    symbols = rng.integers(0, 4, (5, 20))
    idx = np.arange(5, dtype=np.int64)
    for backend in ("gemm", "fft"):
        vals = PairScanner(symbols, 4, backend=backend).correlations_abs(idx, idx)
        assert np.allclose(vals[idx, idx, 0], 20.0, atol=1e-9)
    with pytest.raises(ParameterError):
        PairScanner(symbols, 4, backend="reference")


def test_backend_resolution():
    # Period 31, prime, is slow in pocketfft and stays on GEMM; 36 and 40 go to FFT.
    assert resolve_backend("auto", 31) == default_backend(31) == "gemm"
    for period in (36, 40, 255):
        assert resolve_backend("auto", period) == default_backend(period) == "fft"
    assert default_backend(GEMM_MAX_PERIOD) == "gemm"
    assert default_backend(GEMM_MAX_PERIOD + 1) == "fft"
    assert default_backend() == "auto"
    for name in ("gemm", "fft"):
        assert resolve_backend(name, 40) == name
    for name in ("nope", "compiled", "reference"):
        with pytest.raises(ParameterError, match=f"unknown correlation backend '{name}'"):
            resolve_backend(name, 40)
    with pytest.raises(ParameterError):  # "auto" is the one spelling of the default
        resolve_backend(None, 40)
    assert PairScanner(np.zeros((2, 31), dtype=np.int64), 2).backend == "gemm"
    for period in (36, 40, 255):
        assert PairScanner(np.zeros((2, period), dtype=np.int64), 2).backend == "fft"


def test_tile_size_follows_period():
    assert tile_size(40) == 128
    assert tile_size(255) == 64
    for period in (1, 7, 40, 255, 4095):
        tile = tile_size(period)
        assert tile * tile * period <= TILE_ELEMENTS < 4 * tile * tile * period


def test_bad_shape():
    with pytest.raises(ParameterError):
        PairScanner(np.zeros(5, dtype=np.int64), 2)


@st.composite
def _tile_case(draw):
    n = draw(st.integers(1, 6))
    period = draw(st.integers(1, 48))
    M = draw(st.integers(2, 16))
    flat = draw(st.lists(st.integers(0, M - 1), min_size=n * period, max_size=n * period))
    symbols = np.array(flat, dtype=np.int64).reshape(n, period)
    diagonal = draw(st.booleans())
    index = st.lists(st.integers(0, n - 1), min_size=1, max_size=5)
    rows = draw(index)
    cols = rows if diagonal else draw(index)
    return symbols, M, rows, cols


@pytest.mark.parametrize("backend", ["gemm", "fft"])
@settings(max_examples=60, deadline=None)
@given(case=_tile_case())
def test_tile_matches_cross_correlation(backend, case):
    symbols, M, rows, cols = case
    n, period = symbols.shape
    scanner = PairScanner(symbols, M, backend=backend)
    seqs = [MSequence(s, M, M + 1) for s in symbols]
    # Each call builds the operand of its columns: switch them, then switch back.
    for left, right in ((rows, cols), (cols, rows), (cols, rows)):
        vals = scanner.correlations_abs(left, right)
        assert vals.shape == (len(left), len(right), period)
        for a, i in enumerate(left):
            for b, j in enumerate(right):
                expect = [abs(cross_correlation(seqs[i], seqs[j], tau)) for tau in range(period)]
                assert np.allclose(vals[a, b], expect, rtol=0.0, atol=PROPERTY_ATOL)


def test_import_loads_no_scipy():
    code = "import sys, seqfam; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(seqfam.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("backend", ["gemm", "fft"])
def test_block_in_parts_equals_the_whole_product(backend):
    # A scan's bands vary in size: each band's values must not depend on the rows it is formed with.
    rng = np.random.default_rng(4)
    symbols = rng.integers(0, 7, (40, 24))
    rows, cols = rng.permutation(40)[:17], rng.permutation(40)[:9]
    scanner = PairScanner(symbols, 7, backend=backend)
    whole = scanner.correlations_abs(rows, cols)
    bounds = [0, 2, 4, 6, 8, 10, 12, 14, 17]  # seven bands of 2 rows and one of 3
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        assert np.array_equal(scanner.correlations_abs(rows[lo:hi], cols), whole[lo:hi])


@pytest.mark.parametrize("old, cpus, during", [(2, 2, 1), (8, 4, 1), (2, 8, 1), (1, 2, 1), (4, 1, 1)])
def test_scan_blas_threads_sets_one_thread_and_restores(monkeypatch, old, cpus, during):
    # One OpenBLAS thread per scan thread, whatever the CPU count: each leaves the other CPUs to the others.
    count = [old]
    monkeypatch.setattr(kernels, "_openblas", lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)))
    monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    with pytest.raises(KeyError):
        with kernels.scan_blas_threads() as threads:
            assert threads == count[0] == during
            raise KeyError
    assert count[0] == old


def test_scan_blas_threads_without_openblas(monkeypatch, fam16_m5):
    monkeypatch.setattr(kernels, "_openblas", lambda: None)
    with kernels.scan_blas_threads() as threads:
        assert threads is None
    assert kernels.blas_threads() is None
    assert seqfam.correlation.max_correlation(fam16_m5).scan["blas_threads"] is None


def test_scan_blas_threads_sets_the_openblas_numpy_loaded():
    before = kernels.blas_threads()
    with kernels.scan_blas_threads() as threads:
        assert kernels.blas_threads() == threads
        assert threads is None or 1 <= threads <= before
    assert kernels.blas_threads() == before

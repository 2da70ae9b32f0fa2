import sys
import threading
from unittest import mock

import pytest

from seqfam import correlation, kernels
from seqfam.family import build_family
from seqfam.fields import build_extension, build_field


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread running or OpenBLAS at another thread count."""
    before = threading.active_count(), kernels.blas_threads()
    yield
    assert (threading.active_count(), kernels.blas_threads()) == before, "(threads, BLAS threads) changed"


@pytest.fixture(scope="session")
def gf5():
    return build_field(5, 1)


@pytest.fixture(scope="session")
def gf16():
    return build_field(2, 4)


@pytest.fixture(scope="session")
def gf4():
    return build_field(2, 2)


@pytest.fixture(scope="session")
def gf13():
    return build_field(13, 1)


@pytest.fixture(scope="session")
def gf25(gf5):
    return build_extension(gf5, 2)


@pytest.fixture(scope="session")
def gf256(gf16):
    return build_extension(gf16, 2)


@pytest.fixture(scope="session")
def gf64_over4(gf4):
    return build_extension(gf4, 3)


@pytest.fixture(scope="session")
def gf169(gf13):
    return build_extension(gf13, 2)


@pytest.fixture(scope="session")
def built():
    """build(p, n) or build(p, n, d): GF(p**n) or its degree-d extension, built once per session."""
    cache = {}

    def build(*key):
        if key not in cache:
            cache[key] = build_field(*key) if len(key) == 2 else build_extension(build(*key[:2]), key[2])
        return cache[key]

    return build


@pytest.fixture(scope="session")
def fam16_m5(gf256):
    return build_family(gf256, 5)


def _triangle_scan(family):
    """max_correlation with no symmetry found: the plain upper-triangle scan."""
    with mock.patch.object(correlation, "_find_generators", lambda *args: []):
        return correlation.max_correlation(family)


def _kernel(name: str):
    """A context in which every PairScanner runs kernel `name`: GEMM_MAX_PERIOD is moved past every period."""
    return mock.patch.object(kernels, "GEMM_MAX_PERIOD", {"gemm": sys.maxsize, "fft": 0}[name])


@pytest.fixture(scope="session")
def kernel():
    return _kernel


def _entry_keys(entries: list[dict]) -> list[tuple]:
    return [(w["c1"], w["l1"], w["c2"], w["l2"], w["tau"], w.get("pair_bound")) for w in entries]


def _assert_same_scan(orbit, triangle) -> None:
    """The orbit scan reports what the triangle does; witness values may differ in the last bits."""
    assert orbit.histogram == triangle.histogram
    assert orbit.histogram_resolution == triangle.histogram_resolution
    assert _entry_keys(orbit.argmax) == _entry_keys(triangle.argmax)
    assert _entry_keys(orbit.pair_bound_violations) == _entry_keys(triangle.pair_bound_violations)
    for a, b in zip(orbit.argmax + orbit.pair_bound_violations, triangle.argmax + triangle.pair_bound_violations):
        assert abs(a["value"] - b["value"]) < 1e-12
    assert f"{orbit.delta_max:.6f}" == f"{triangle.delta_max:.6f}"
    verdicts = ("bound_ok", "pair_bound_ok", "same_column_bound_ok")
    assert [getattr(orbit, v) for v in verdicts] == [getattr(triangle, v) for v in verdicts]


@pytest.fixture(scope="session")
def triangle_scan():
    return _triangle_scan


@pytest.fixture(scope="session")
def assert_same_scan():
    return _assert_same_scan


@pytest.fixture
def rotation_key_calls(monkeypatch) -> list:
    """The row-matrix shape of every correlation._rotation_keys call in the test."""
    calls, original = [], correlation._rotation_keys

    def counted(rows):
        calls.append(rows.shape)
        return original(rows)

    monkeypatch.setattr(correlation, "_rotation_keys", counted)
    return calls

"""The names the benchmark in perfbench/ reads from seqfam must keep resolving.

perfbench/ is frozen between benchmark changes, so a refactor that renames
one of these breaks the benchmark run rather than any other test; these
checks make it break Tier-1 instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

import seqfam.correlation
import seqfam.kernels

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
tracing = importlib.import_module("tracing")


@pytest.mark.parametrize("module_name,attr,span", tracing.TARGETS)
def test_trace_target_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    if "." in attr:  # the tracer patches methods on the class itself
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_run_reads_kernel_names():
    assert seqfam.kernels.COMPILED_AVAILABLE is False
    assert isinstance(seqfam.kernels.default_backend(), str)


def test_traced_scan_counts_every_tile(fam16_m5, monkeypatch):
    monkeypatch.setattr(seqfam.kernels, "TILE_ELEMENTS", 15 * 8 * 8)  # tiles of 8 rows
    original = seqfam.correlation.max_correlation
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = seqfam.correlation.max_correlation(fam16_m5)
    finally:
        tracer.uninstall()
    tiles = 4 * 5 // 2  # 32 members: 4 tiles a side, upper triangle
    assert tracer.counts["kernels.blocks"] == tiles
    assert tracer.counts["kernels.shifts"] == tiles * 8 * 8 * 15
    assert tracer.counts["correlation.witnesses"] == len(report.argmax)
    assert seqfam.correlation.max_correlation is original

"""The names the benchmark in perfbench/ reads from seqfam must keep resolving.

perfbench/ is frozen between benchmark changes, so a refactor that renames
one of these breaks the benchmark run rather than any other test; these
checks make it break Tier-1 instead.
"""

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

import seqfam.cli
import seqfam.correlation
import seqfam.kernels

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
tracing = importlib.import_module("tracing")
workloads = importlib.import_module("workloads")


@pytest.mark.parametrize("module_name,attr,span", tracing.TARGETS)
def test_trace_target_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    if "." in attr:  # the tracer patches methods on the class itself
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


@pytest.mark.parametrize("workload", [workloads.CORRELATE, workloads.VERIFY])
def test_workload_command_line_parses(workload):
    # perfbench passes --jobs, which the command line keeps as an inert flag.
    args = seqfam.cli._build_parser().parse_args(workload["argv"] + ["--jobs", "2"])
    assert (args.command, args.jobs) == (workload["argv"][0], 2)


def _readme_command_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    return [line.split("#")[0].split()[1:] for line in block.splitlines() if line.startswith("seqfam ")]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert len(lines) >= 5
    for argv in lines:
        assert seqfam.cli._build_parser().parse_args(argv).command == argv[0]


def test_run_reads_kernel_names():
    assert seqfam.kernels.COMPILED_AVAILABLE is False
    assert isinstance(seqfam.kernels.default_backend(), str)


# What workloads._correlate_ops reads from the correlate JSON, and what
# workloads._verify_ops and tracing._count read from a CorrelationReport.
CORRELATE_JSON_READ = {
    "family_size", "delta_max", "histogram_resolution", "histogram", "argmax",
    "bound_ok", "pair_bound_ok", "same_column_bound_ok", "cyclically_inequivalent", "backend",
}
REPORT_ATTRIBUTES_READ = {"family_size", "delta_max", "histogram_resolution", "histogram", "argmax", "backend"}


def test_correlate_json_carries_what_the_benchmark_reads(capsys):
    code = seqfam.cli.main(["correlate", "--p", "2", "--n", "4", "--d", "2", "--M", "5", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert CORRELATE_JSON_READ <= set(out)
    assert all({"c1", "l1", "c2", "l2", "tau"} <= set(w) for w in out["argmax"])


def test_correlation_report_keeps_what_the_benchmark_reads(fam16_m5):
    assert REPORT_ATTRIBUTES_READ <= {f.name for f in dataclasses.fields(seqfam.correlation.CorrelationReport)}
    assert "histogram" in seqfam.correlation.max_correlation(fam16_m5).to_dict()


def _traced_scan(family):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = seqfam.correlation.max_correlation(family)
    finally:
        tracer.uninstall()
    return tracer, report


def test_traced_scan_counts_every_tile(fam16_m5, monkeypatch):
    monkeypatch.setattr(seqfam.kernels, "TILE_ELEMENTS", 15 * 8 * 8)  # tiles of 8 rows
    original = seqfam.correlation.max_correlation
    tracer, report = _traced_scan(fam16_m5)
    # The orbit scan: 4 orbits of 8, one column tile each; column tile k
    # meets the representatives of orbits 0..k, in bands of 2 rows (of 3 at
    # k = 2, and of 1 at k = 0). The tracer sees exactly the blocks the
    # report counts.
    assert (report.scan["symmetry_order"], report.scan["member_orbits"]) == (8, 4)
    assert tracer.counts["kernels.blocks"] == report.scan["blocks"] == 1 + 1 + 1 + 2
    assert tracer.counts["kernels.shifts"] == report.scan["pairs_scanned"] * 15 == (1 + 2 + 3 + 4) * 8 * 15
    assert tracer.counts["correlation.witnesses"] == len(report.argmax)
    # The trivial group: the plain upper triangle.
    monkeypatch.setattr(seqfam.correlation, "_find_generators", lambda *args: [])
    tracer, report = _traced_scan(fam16_m5)
    tiles = 4 * 5 // 2  # 32 members: 4 tiles a side, upper triangle
    assert tracer.counts["kernels.blocks"] == report.scan["blocks"] == tiles * 8 // 2  # bands of 2 rows
    assert tracer.counts["kernels.shifts"] == tiles * 8 * 8 * 15
    assert tracer.counts["correlation.witnesses"] == len(report.argmax)
    assert seqfam.correlation.max_correlation is original

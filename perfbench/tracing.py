"""Per-layer spans for the traced benchmark run.

Spans are recorded from the benchmark's own files: each public entry
point listed in TARGETS is replaced, in every ``seqfam.*`` namespace that
holds it, by a wrapper that records (name, start, end, parent) and a few
counters taken from the call's arguments and result. The program's
source is untouched. polys and intmath get no spans: they are called
10^5-10^6 times per iteration, so their cost shows as the self time of
the callers below.

trace.overhead_s is not a difference of two timed iterations, which the
drift between iterations would swamp: it is the number of spans times
span_cost(), the time one span adds to a call, timed on a no-op.
"""

import statistics
import sys
import time
from collections import Counter

# (module, attribute, span name). A span name is "<layer>" or "<layer>.<part>".
TARGETS = [
    ("seqfam.cli", "main", "cli"),
    ("seqfam.verify", "run_verification", "verify"),
    ("seqfam.fields", "build_field", "fields"),
    ("seqfam.fields", "build_extension", "fields"),
    ("seqfam.sequences", "sidelnikov_sequence", "sequences"),
    ("seqfam.sequences", "sidelnikov_sequence_ext", "sequences"),
    ("seqfam.sequences", "sidelnikov_sequence_ext_direct", "sequences"),
    ("seqfam.columns", "column_polynomial", "columns"),
    ("seqfam.columns", "column_symbols", "columns"),
    ("seqfam.columns", "column_from_long_sequence", "columns"),
    ("seqfam.family", "build_family", "family"),
    ("seqfam.family", "coset_representatives", "family"),
    ("seqfam.correlation", "max_correlation", "correlation.scan"),
    ("seqfam.correlation", "cyclic_inequivalence", "correlation.ineq"),
    ("seqfam.kernels", "PairScanner.__init__", "kernels.init"),
    ("seqfam.kernels", "PairScanner.correlations_abs", "kernels.scan"),
    ("seqfam.counting", "constant_term_counts", "counting.oracle"),
    ("seqfam.counting", "cyclotomic_factors", "counting.factors"),
    ("seqfam.counting", "count_report", "counting.formula"),
    ("seqfam.counting", "lambda_size_with_ctx", "counting.formula"),
    ("seqfam.counting", "lambda_size_formula", "counting.formula"),
    ("seqfam.counting", "yucas_count", "counting.formula"),
]

# Per-layer metrics in report order; also the per_layer list of BENCHMARK.json.
LAYER_METRICS = [
    ("kernels.s", "s"),
    ("kernels.init_s", "s"),
    ("kernels.blocks", "count"),
    ("kernels.pairs", "count"),
    ("kernels.shifts", "count"),
    ("kernels.ns_per_shift", "ns"),
    ("kernels.pair_ratio", "ratio"),
    ("correlation.scan_self_s", "s"),
    ("correlation.ineq_s", "s"),
    ("correlation.hist_bins", "count"),
    ("correlation.hist_resolution", "1"),
    ("correlation.witnesses", "count"),
    ("columns.s", "s"),
    ("columns.calls", "count"),
    ("fields.s", "s"),
    ("fields.calls", "count"),
    ("fields.table_mb", "MB"),
    ("counting.oracle_s", "s"),
    ("counting.factors_s", "s"),
    ("counting.s", "s"),
    ("counting.cases", "count"),
    ("family.s", "s"),
    ("family.sequences", "count"),
    ("sequences.s", "s"),
    ("sequences.calls", "count"),
    ("verify.self_s", "s"),
    ("verify.checks", "count"),
    ("verify.checks_failed", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _count(name, args, result, counts: Counter) -> None:
    """Counters taken at the span boundary, from arguments and result."""
    if name == "kernels.scan":
        counts["kernels.blocks"] += 1
        counts["kernels.pairs"] += len(args[1])
        counts["kernels.shifts"] += result.size
    elif name == "kernels.init":
        n = args[0].count
        counts["kernels.pairs_expected"] += n * (n + 1) // 2
    elif name == "correlation.scan":
        # Invariants of the last scan of the iteration; they must not drift.
        counts["correlation.hist_bins"] = len(result.histogram)
        counts["correlation.hist_resolution"] = result.histogram_resolution
        counts["correlation.witnesses"] = len(result.argmax)
    elif name == "fields":
        counts["fields.table_mb"] += (result.exp.nbytes + result.log.nbytes) / 2**20
    elif name == "family" and hasattr(result, "sequences"):
        counts["family.sequences"] += result.size
    elif name == "counting.oracle":
        counts["counting.cases"] += 1
    elif name == "verify":
        counts["verify.checks"] += len(result["checks"])
        counts["verify.checks_failed"] += sum(not c["ok"] for c in result["checks"])


class Tracer:
    """Records spans in memory while installed; ``summary`` derives the layer metrics."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            _count(name, args, result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every seqfam namespace that imported it."""
        namespaces = [m for key, m in sys.modules.items() if key == "seqfam" or key.startswith("seqfam.")]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch it once, on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def summary(self, span_cost: float) -> dict[str, float]:
        """Layer metrics for the spans recorded since this tracer was created.

        A span's self time is its duration minus the durations of its direct
        children; a layer's time is the sum of its spans' self times.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            self_s[name] += end - start - inner
            calls[name] += 1

        def layer(prefix):
            return sum(v for k, v in self_s.items() if k == prefix or k.startswith(prefix + "."))

        c = self.counts
        shifts = c["kernels.shifts"]
        out = {
            "kernels.s": self_s["kernels.scan"],
            "kernels.init_s": self_s["kernels.init"],
            "kernels.blocks": c["kernels.blocks"],
            "kernels.pairs": c["kernels.pairs"],
            "kernels.shifts": shifts,
            "kernels.ns_per_shift": self_s["kernels.scan"] / shifts * 1e9 if shifts else 0.0,
            "kernels.pair_ratio": (
                c["kernels.pairs"] / c["kernels.pairs_expected"] if c["kernels.pairs_expected"] else 0.0
            ),
            "correlation.scan_self_s": self_s["correlation.scan"],
            "correlation.ineq_s": self_s["correlation.ineq"],
            "correlation.hist_bins": c["correlation.hist_bins"],
            "correlation.hist_resolution": c["correlation.hist_resolution"],
            "correlation.witnesses": c["correlation.witnesses"],
            "columns.s": layer("columns"),
            "columns.calls": calls["columns"],
            "fields.s": layer("fields"),
            "fields.calls": calls["fields"],
            "fields.table_mb": c["fields.table_mb"],
            "counting.oracle_s": self_s["counting.oracle"],
            "counting.factors_s": self_s["counting.factors"],
            "counting.s": layer("counting"),
            "counting.cases": c["counting.cases"],
            "family.s": layer("family"),
            "family.sequences": c["family.sequences"],
            "sequences.s": layer("sequences"),
            "sequences.calls": calls["sequences"],
            "verify.self_s": self_s["verify"],
            "verify.checks": c["verify.checks"],
            "verify.checks_failed": c["verify.checks_failed"],
            "cli.self_s": self_s["cli"],
            "trace.overhead_s": len(self.spans) * span_cost,
        }
        return {k: float(v) for k, v in out.items()}


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Median seconds one span adds to a call: a wrapped no-op against the bare one."""

    def noop():
        return None

    costs = []
    for _ in range(repeats):
        wrapped = Tracer()._wrap("trace.probe", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append((t2 - t1 - (t1 - t0)) / calls)
    return statistics.median(costs)

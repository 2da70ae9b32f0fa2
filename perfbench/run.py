#!/usr/bin/env python3
"""seqfam benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload correlate-q41-M8 --seed 0 --seconds 20 --trace 0

Runs whole iterations of the workload until --seconds have elapsed (at
least one), checks every operation against golden values, and prints a
metric table, one JSON record (environment, iterations, failures) and,
as the last line, the summary JSON {correct, attempted, failed, metrics}.

--trace 0 reports the end-to-end metrics: median wall and CPU seconds per
iteration, peak resident memory, and setup_s, the median time for a fresh
interpreter to import seqfam, sampled before and after the workload.
--trace 1 traces every iteration and reports the per-layer metrics of
perfbench/tracing.py.

Runs from the root of a source checkout; exits 2 if src/seqfam is absent.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("correlate-q41-M8", "verify-q256-M15", "count-sweep")
SETUP_SAMPLES = 4  # imports timed before the workload, and again after it
MAX_LISTED_FAILURES = 20


def setup_samples(count: int) -> list[float]:
    """Wall seconds for each of `count` fresh interpreters to import seqfam."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import seqfam"], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _blas() -> dict:
    import ctypes

    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config instead
        info = {}
    threads = None
    libs = (Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")
    for lib in libs:
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                threads = getattr(dll, symbol)()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def environment(jobs: int, backends: set) -> dict:
    import numpy
    import scipy

    import seqfam.kernels

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": _git_rev(),
        "compiled_available": seqfam.kernels.COMPILED_AVAILABLE,
        "backend": sorted(backends) or [seqfam.kernels.default_backend()],
        "jobs": jobs,
    }


def run_iteration(workloads, name: str, seed: int, jobs: int, tracer=None) -> dict:
    """One pass over the workload's operations; only the program calls are timed."""
    gc.collect()
    wall = cpu = 0.0
    failed, failures, info = 0, [], {}
    ops = workloads.operations(name, seed, jobs)
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result = op.run()
                wall += time.perf_counter() - w0
                cpu += time.process_time() - c0
                op_failures, op_info = op.check(result)
            except Exception:  # a crash is a failed operation, reported with its traceback
                op_failures, op_info = [traceback.format_exc(limit=3)], {}
            failed += bool(op_failures)
            failures += [f"{op.name}: {f}" for f in op_failures]
            info.update(op_info)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"wall_s": wall, "cpu_s": cpu, "attempted": len(ops), "failed": failed,
            "failures": failures, "info": info}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not (SRC / "seqfam" / "__init__.py").is_file():
        print(f"error: no seqfam sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    jobs = len(os.sched_getaffinity(0))  # seqfam's --jobs: every CPU this process may use

    # One untimed import first, so that every timed one finds the files cached.
    setup = [] if args.trace else setup_samples(1 + SETUP_SAMPLES)[1:]

    import tracing
    import workloads

    span_cost = tracing.span_cost() if args.trace else None
    iterations = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < args.seconds:
        tracer = tracing.Tracer() if args.trace else None
        iterations.append(run_iteration(workloads, args.workload, args.seed, jobs, tracer))
        if tracer is not None:
            iterations[-1]["layers"] = tracer.summary(span_cost)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        metrics = {
            key: {"value": statistics.median(it["layers"][key] for it in iterations), "unit": unit}
            for key, unit in tracing.LAYER_METRICS
        }
    else:
        setup += setup_samples(SETUP_SAMPLES)
        metrics = {
            "wall_s": {"value": statistics.median(it["wall_s"] for it in iterations), "unit": "s"},
            "cpu_s": {"value": statistics.median(it["cpu_s"] for it in iterations), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }

    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    failures = [f for it in iterations for f in it["failures"]]
    info = {k: v for it in iterations for k, v in it["info"].items() if k != "backend"}
    backends = {it["info"]["backend"] for it in iterations if "backend" in it["info"]}
    for key, m in metrics.items():
        print(f"{args.workload} seed={args.seed}: {key} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} seed={args.seed}: fail_rate = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for failure in failures[:MAX_LISTED_FAILURES]:
        print(f"FAILED {failure}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(jobs, backends),
        "iterations": [{k: it[k] for k in ("wall_s", "cpu_s", "attempted", "failed")} for it in iterations],
        "fail_rate": failed / attempted,
        "failures": failures[:MAX_LISTED_FAILURES],
        "info": info,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

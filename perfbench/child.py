"""One measured process of a benchmark run.

``perfbench/run.py`` starts a fresh ``python -m perfbench.child`` for
every sample, so each sample pays the import, fit and cache-filling
costs that every ``python -m repro`` invocation pays.  The child:

1. imports ``repro``, fits the catalog and builds the workload's inputs
   (``setup_s``, timed from the child's first statement), then times
   :func:`reference_loop` right away (``setup_ref_s``, the quickest of
   those timings: the host's speed at set-up);
2. runs the workload's timed calls (``run_s``), with the span wrappers
   of :mod:`perfbench.spans` installed when ``--trace`` is given and
   only the coarse ones (:data:`perfbench.spans.UNIT_KEYS`, whose
   per-call self times go into ``units``) otherwise, and times
   :func:`reference_loop` just before and just after them
   (``ref_s``, the median of those timings);
3. checks the outputs: finite results and, unless ``--light-checks``
   is given, planned versus delivered cell count, a fixed sample of
   cells re-run on the other engine and compared field for field, and
   the workload's own checks;
4. prints one JSON record as the last line of its standard output.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

#: Reference-loop timings taken before and after the timed calls.
REF_REPS = 5


def reference_loop(iterations: int = 150_000) -> float:
    """A fixed pure-Python computation that times the host, not ``repro``.

    The host this benchmark runs on is shared: its speed drifts by tens
    of percent over minutes, and the workloads' run times follow it.
    Timing this loop next to the timed calls measures the host's speed
    at that moment, so ``run_ref`` (run time in units of this loop's
    time) cancels most of the drift.  It touches no ``repro`` code, so
    no change to the program can move it.
    """
    table: Dict[int, float] = {}
    acc = 0.0
    for i in range(iterations):
        x = (i * 0.618033988749895) % 1.0
        acc += x * x - acc * 1e-6
        table[i & 1023] = acc
    return acc


def _time_reference() -> List[float]:
    times = []
    for _ in range(REF_REPS):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return times


def _sim_metrics(workload: Any, inputs: Any, output: Any,
                 outcomes: List[Any]) -> Dict[str, float]:
    """Deterministic simulation outputs, identical on every run of a seed."""
    results = [o.result for o in outcomes]
    samples = sum(r.cap_stats.samples for r in results)
    over = sum(r.cap_stats.over_cap_samples for r in results)
    violation = sum(r.slo_violation_fraction for r in results) / max(1, len(results))
    warmup_s = inputs["config"].warmup_s
    return {
        "sim_be_throughput": workload.be_throughput(output),
        "sim_slo_violation_frac": violation,
        "sim_over_cap_frac": over / samples if samples else 0.0,
        # Simulated server-seconds, warm-up included.
        "sim_server_s": sum(r.duration_s + warmup_s for r in results),
    }


def _guard_counts(output: Any, outcomes: List[Any]) -> Dict[str, int]:
    """Invariant checks and violations of the cells and the budget audit."""
    reports = [o.result.guard_report for o in outcomes]
    result = output.get("result") if isinstance(output, dict) else output
    budget = getattr(result, "budget_report", None)
    if budget is not None:
        reports.append(budget.guard_report)
    reports = [r for r in reports if r is not None]
    return {
        "guard.checks": sum(r.checks for r in reports),
        "guard.violations": sum(r.total_violations for r in reports),
    }


def evaluate(workload: Any, inputs: Any, output: Any, tracer: Any,
             full: bool = True) -> Dict[str, Any]:
    """Check one run's outputs; count attempted and failed cells.

    Every sample checks that its results are finite; the parent checks
    that every sample of a seed delivers the same cell count and the same
    simulation outputs.  ``full`` adds the costlier checks, which need
    to run once per seed: planned versus delivered cells, the sample of
    cells re-run on the other engine, and the workload's own checks.
    """
    from perfbench import checks

    outcomes = workload.outcomes(output)
    failures: List[str] = []
    bad_cells = set()
    for i, outcome in enumerate(outcomes):
        fields = checks.nonfinite(outcome)
        if fields:
            bad_cells.add(i)
            failures.append(f"cell {i} has non-finite {fields}")
    attempted = max(len(outcomes), 1)
    missing = 0
    workload_failures: List[str] = []
    if full:
        tasks = workload.planned(inputs, output)
        attempted = max(attempted, len(tasks))
        missing = abs(len(tasks) - len(outcomes))
        if missing:
            failures.append(f"{len(outcomes)} cells delivered, {len(tasks)} planned")
        else:
            positions = workload.sample(len(outcomes))
            for i, diff in checks.cross_engine(
                    outcomes, tasks, positions, workload.other_engine):
                bad_cells.add(i)
                failures.append(f"cell {i} differs on the {workload.other_engine} "
                                f"engine: {diff}")
        workload_failures = workload.check(inputs, output, tracer)
    failed = len(bad_cells) + missing
    if workload_failures:
        # A broken whole-run property (ordering, budget audit, resume)
        # makes every cell of the run suspect.
        failed = attempted
    return {
        "attempted": attempted,
        "failed": min(failed, attempted),
        "cells": len(outcomes),
        "failures": failures + workload_failures,
        "sim": _sim_metrics(workload, inputs, output, outcomes),
        "guard": _guard_counts(output, outcomes),
    }


def measure(workload: Any, seed: int, trace: bool,
            trace_file: Optional[str] = None, full: bool = True) -> Dict[str, Any]:
    """Set up, run and check one workload in this process."""
    from perfbench import spans
    from repro.engine import batched

    tracer = spans.Tracer()
    patches = spans.install(tracer) if trace else []
    with tracer.root("setup"):
        inputs = workload.setup(seed)
    setup_s = time.perf_counter() - _START
    try:
        if not trace:
            patches = spans.install(tracer, spans.UNIT_KEYS)
        ref_times = _time_reference()
        setup_ref_s = min(ref_times)
        with tracer.root("run"):
            start = time.perf_counter()
            output = workload.run(inputs)
            run_s = time.perf_counter() - start
        ref_times += _time_reference()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Read before the checks, which may run cells on the batched engine.
        surface_tables = len(getattr(batched, "_SURFACE_TABLES", ()))
        units = {} if trace else tracer.calls["run"]
        other_s = tracer.results["run"][spans.OTHER]
        if not trace:
            # Timing is done; the checks use the full wrappers' counters.
            spans.uninstall(patches)
            patches = spans.install(tracer)
        record = evaluate(workload, inputs, output, tracer, full)
    finally:
        workload.cleanup(inputs)
        spans.uninstall(patches)
    record.update(setup_s=setup_s, setup_ref_s=setup_ref_s, run_s=run_s,
                  ref_s=statistics.median(ref_times),
                  units=units, other_s=other_s,
                  peak_rss_mb=peak_rss_mb)
    if trace:
        layers = dict(tracer.results["run"])
        layers["trace.run_s"] = layers.pop(spans.TOTAL)
        layers["evaluation.fit_s"] = tracer.results["setup"].get("evaluation.fit_s", 0.0)
        layers["batched.surface_tables"] = surface_tables
        layers.update(record["guard"])
        record["layers"] = layers
        layers["trace.ref_s"] = record["ref_s"]
        record["run_s"] = layers["trace.run_s"]
        if trace_file:
            spans.write_chrome_trace(tracer, trace_file)
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--light-checks", action="store_true",
                        help="skip the checks that need only run once per seed")
    args = parser.parse_args(argv)
    try:
        from perfbench import workloads

        workload = workloads.make(args.workload, args.out_dir)
        record = measure(workload, args.seed, args.trace, args.trace_file,
                         full=not args.light_checks)
    except Exception:  # the process boundary: report, never hide
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    # Everything is reported and the checkpoint removed; skip freeing the
    # run's object graphs one by one, which only delays the next sample.
    os._exit(code)

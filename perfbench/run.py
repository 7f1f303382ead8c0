"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_eval --seed 1 --seconds 30 --trace 0

Each sample is a fresh ``python -m perfbench.child`` process (see
``perfbench/child.py``); samples run one after another until
``--seconds`` have passed, and at least :data:`MIN_SAMPLES` of them.
The first sample runs every correctness check; the others check that
they reproduce its cell count and simulation outputs bit for bit.

* ``--trace 0`` prints the end-to-end metrics: medians over the
  samples for memory and for set-up time (scaled by the host's speed
  at each set-up, see :func:`setup_s`), and the simulation outputs,
  which every sample must reproduce bit for bit.  The run time is reported as
  ``run_ref``: every piece of work at its quickest over the samples, in
  units of a fixed reference loop timed in the same sample (see
  :func:`run_ref` and ``child.reference_loop``); the raw median
  ``run_s`` and ``sim_rate`` are printed in the table.
* ``--trace 1`` alternates untraced and traced samples and prints the
  per-layer metrics of the traced sample with the median run time over
  reference time, plus ``trace.overhead_frac`` (median of that ratio
  over the traced samples, over its median over the untraced ones,
  minus 1).  The first traced sample also writes its spans as Chrome
  trace-event JSON under ``.perfbench_out/``.

A readable table comes first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("paper_eval", "fleet_wide", "resilient_fleet")
MIN_SAMPLES = 5
#: A run must end within 180 s; no sample starts that could overrun this.
DEADLINE_S = 165.0
#: The reference loop's quickest time on the host the benchmark was
#: calibrated on (2-vCPU Intel Xeon VM, Python 3.11, quiet): ``setup_s``
#: reads as set-up seconds on that host at full speed.
REF_HOST_S = 0.028

#: End-to-end metrics: (name, unit, better).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("run_ref", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_be_throughput", "norm", "higher"),
    ("sim_slo_met_frac", "frac", "higher"),
    ("sim_within_cap_frac", "frac", "higher"),
)

#: Per-layer metrics: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("evaluation.fit_s", "s", "lower"),
    ("placement.matrix_s", "s", "lower"),
    ("placement.matrix_cells", "count", "higher"),
    ("solvers.assign_s", "s", "lower"),
    ("solvers.assign_calls", "count", "lower"),
    ("solvers.assign_fallbacks", "count", "lower"),
    ("budget.plan_s", "s", "lower"),
    ("budget.arbiter_ticks", "count", "higher"),
    ("budget.grants_issued", "count", "higher"),
    ("cluster.plan_s", "s", "lower"),
    ("cluster.cells", "count", "higher"),
    ("batched.partition_s", "s", "lower"),
    ("batched.surface_tables", "count", "lower"),
    ("batched.init_s", "s", "lower"),
    ("batched.step_s", "s", "lower"),
    ("batched.lane_ticks", "count", "higher"),
    ("batched.collect_s", "s", "lower"),
    ("batched.lanes", "count", "higher"),
    ("batched.fallback_cells", "count", "lower"),
    ("batched.demoted_groups", "count", "lower"),
    ("oracle.cells", "count", "lower"),
    ("oracle.cell_s", "s", "lower"),
    ("oracle.manager_s", "s", "lower"),
    ("oracle.capper_s", "s", "lower"),
    ("oracle.meter_s", "s", "lower"),
    ("guard.checks", "count", "higher"),
    ("guard.violations", "count", "lower"),
    ("runtime.checkpoint_writes", "count", "lower"),
    ("runtime.checkpoint_bytes", "bytes", "lower"),
    ("runtime.checkpoint_s", "s", "lower"),
    ("report.s", "s", "lower"),
    ("trace.other_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.ref_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

#: Self-time metrics of the run root: with ``trace.other_s`` they add up
#: to ``trace.run_s``.
SELF_TIMES = tuple(
    name for name, unit, _ in PER_LAYER
    if unit == "s" and name not in ("evaluation.fit_s", "trace.run_s", "trace.ref_s")
)


def _sample(workload: str, seed: int, traced: bool, trace_file: Optional[Path],
            full: bool, timeout_s: float) -> Dict[str, Any]:
    """Run one child process and return its JSON record."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--out-dir", str(OUT_DIR)]
    if traced:
        cmd.append("--trace")
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    if not full:
        cmd.append("--light-checks")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return {"error": f"sample timed out after {timeout_s:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        record = {}
    if proc.returncode != 0 or not isinstance(record, dict) or "run_s" not in record:
        detail = record.get("error") if isinstance(record, dict) else None
        return {"error": detail or proc.stderr[-4000:] or f"exit {proc.returncode}"}
    return record


def _collect(args: argparse.Namespace) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Sample until ``--seconds`` have passed; returns (untraced, traced)."""
    started = time.perf_counter()
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    longest = {False: 0.0, True: 0.0}
    while True:
        elapsed = time.perf_counter() - started
        if args.trace:
            want_traced = len(traced) < len(plain)
            enough = min(len(plain), len(traced)) >= 2 and len(plain) == len(traced)
        else:
            want_traced = False
            enough = len(plain) >= MIN_SAMPLES
        if enough and elapsed >= args.seconds:
            break
        if elapsed + 1.2 * longest[want_traced] > DEADLINE_S:
            break
        trace_file = None
        if want_traced and not traced:
            trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        begun = time.perf_counter()
        full = not (plain or traced)
        record = _sample(args.workload, args.seed, want_traced, trace_file, full,
                         DEADLINE_S + 10.0 - elapsed)
        longest[want_traced] = max(longest[want_traced], time.perf_counter() - begun)
        (traced if want_traced else plain).append(record)
        if "error" in record:
            break
    return plain, traced


def _median(records: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(r[key] for r in records)


def _ratio(records: List[Dict[str, Any]]) -> float:
    """Median run time in units of the sample's own reference-loop time."""
    return statistics.median(r["run_s"] / r["ref_s"] for r in records)


def setup_s(records: List[Dict[str, Any]]) -> float:
    """Median set-up time, each scaled by the host's speed at that set-up.

    Set-up is mostly importing: interpreter work that slows with the
    host just as the reference loop timed right after it does.
    """
    return statistics.median(
        r["setup_s"] / r["setup_ref_s"] for r in records) * REF_HOST_S


def run_ref(records: List[Dict[str, Any]]) -> float:
    """Run time in reference-loop units, every piece of work at its quickest.

    Each sample's unit self times (``child`` records them per call) and
    its remainder outside the units are divided by that sample's median
    reference-loop time.  The samples of one seed do the same work in
    the same order, so the i-th call of a unit is the same piece of work
    in every sample: take its smallest scaled time over the samples, and
    sum.  :func:`summarize` fails a run whose samples made different
    unit calls.
    """
    total = min(r["other_s"] / r["ref_s"] for r in records)
    for key in records[0]["units"]:
        for times in zip(*(r["units"].get(key, []) for r in records)):
            total += min(t / r["ref_s"] for t, r in zip(times, records))
    return total


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}  q3 {q3:.4f}"


def summarize(plain: List[Dict[str, Any]], traced: List[Dict[str, Any]],
              trace: bool) -> Dict[str, Any]:
    """Turn sample records into the printed rows and the result object.

    ``rows`` are (name, value, unit, note) for the readable table;
    ``result`` is the JSON object of the last output line.
    """
    records = plain + traced
    failures = [f for r in records for f in r["failures"]]
    sims = [(r["cells"], r["sim"]) for r in records]
    if any(sim != sims[0] for sim in sims):
        failures.append("cell counts or simulation outputs differ between "
                        "samples of one seed")
    calls = [{key: len(times) for key, times in r["units"].items()} for r in plain]
    if any(count != calls[0] for count in calls):
        failures.append("samples of one seed made different unit calls")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    sim = sims[0][1]
    rows: List[Tuple[str, float, str, str]] = []
    if trace:
        pick = sorted(traced, key=lambda r: r["run_s"] / r["ref_s"])[(len(traced) - 1) // 2]
        layers = dict(pick["layers"])
        layers["trace.overhead_frac"] = _ratio(traced) / _ratio(plain) - 1.0
        note = f"traced sample with the median run_s / ref_s of {len(traced)}"
        for name, unit, _ in PER_LAYER:
            rows.append((name, float(layers.get(name, 0)), unit, note))
            note = ""
        shown = PER_LAYER
    else:
        run_s = _median(plain, "run_s")
        values = {
            "run_ref": run_ref(plain),
            "setup_s": setup_s(plain),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
            "sim_be_throughput": sim["sim_be_throughput"],
            "sim_slo_met_frac": 1.0 - sim["sim_slo_violation_frac"],
            "sim_within_cap_frac": 1.0 - sim["sim_over_cap_frac"],
        }
        spread = {
            "setup_s": [r["setup_s"] / r["setup_ref_s"] * REF_HOST_S for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        for name, unit, _ in END_TO_END:
            note = f"each unit call at its quickest of {len(plain)} samples"
            if name in spread:
                note = f"median of {len(plain)}  {_quartiles(spread[name])}"
            elif name != "run_ref":
                note = ""
            rows.append((name, values[name], unit, note))
        rows += [
            ("setup_wall_s", _median(plain, "setup_s"), "s", "median, not scaled"),
            ("run_s", run_s, "s", f"median of {len(plain)}  "
                                  f"{_quartiles([r['run_s'] for r in plain])}"),
            ("ref_s", _median(plain, "ref_s"), "s", "reference loop, median"),
            ("sim_rate", sim["sim_server_s"] / run_s, "1/s", "sim server-s per run_s"),
            ("cells_failed_frac", failed / attempted, "frac", f"{failed}/{attempted}"),
            ("sim_slo_violation_frac", sim["sim_slo_violation_frac"], "frac", ""),
            ("sim_over_cap_frac", sim["sim_over_cap_frac"], "frac", ""),
        ]
        shown = END_TO_END
    names = {name for name, _, _ in shown}
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows if name in names}
    return {
        "rows": rows,
        "failures": failures,
        "result": {"correct": not failures and failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # On SIGTERM unwind through subprocess.run, which kills and waits for
    # the running sample instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    plain, traced = _collect(args)
    errors = [r["error"] for r in plain + traced if "error" in r]
    if errors or not plain or (args.trace and not traced):
        for error in errors:
            print(error, file=sys.stderr)
        print("perfbench: a sample failed to run; no result", file=sys.stderr)
        return 1
    summary = summarize(plain, traced, bool(args.trace))
    print(f"perfbench {args.workload} seed {args.seed}")
    for name, value, unit, note in summary["rows"]:
        print(f"  {name:28s} {value:18.6f} {unit:6s} {note}")
    if args.trace:
        layers = {name: value for name, value, _, _ in summary["rows"]}
        accounted = sum(layers[name] for name in SELF_TIMES)
        print(f"  layer self times + trace.other_s = {accounted:.6f} s "
              f"(trace.run_s {layers['trace.run_s']:.6f} s)")
    for failure in summary["failures"]:
        print(f"  FAILED: {failure}")
    result = summary["result"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

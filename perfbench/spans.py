"""In-memory span tracer installed around ``repro``'s public entry points.

Nothing under ``src/`` knows about it: :func:`install` rebinds each
entry point named in :data:`SPANS` to a timing wrapper, in the module
that defines it and in every module that imported it by name, and
:func:`uninstall` puts the originals back.

Spans only count inside a *root* (:meth:`Tracer.root`), so work the
benchmark does around the timed calls, such as its own correctness
checks, is never attributed to a layer.  Each span's *self time* is its
duration minus the time its child spans cover; the root's own self time
is reported as ``trace.other_s``, so the self times of one root always
add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Self time of a root that no wrapped entry point covers.
OTHER = "trace.other_s"
#: Wall time of a whole root.
TOTAL = "trace.total_s"

Hook = Callable[["Tracer", Tuple[Any, ...], Any], None]


class Tracer:
    """Keeps spans and per-root layer totals for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.active = False
        #: (root, span name, layer key, start, end), in completion order.
        self.events: List[Tuple[str, str, str, float, float]] = []
        #: root name -> {metric: value}: self times, counters, TOTAL.
        self.results: Dict[str, Dict[str, float]] = {}
        #: root name -> {layer key: self time of each span, in call order}.
        self.calls: Dict[str, Dict[str, List[float]]] = {}
        self._root = ""
        self._values: Dict[str, float] = {}
        self._calls: Dict[str, List[float]] = {}
        self._stack: List[List[Any]] = []

    @contextmanager
    def root(self, name: str) -> Iterator[Dict[str, float]]:
        """Account every span entered inside the block to root ``name``."""
        if self.active:
            raise RuntimeError(f"root {name!r} opened inside root {self._root!r}")
        self._root = name
        values: Dict[str, float] = {}
        self._values = values
        self._calls = self.calls[name] = {}
        self._stack = [[OTHER, self.clock(), 0.0]]
        self.active = True
        try:
            yield values
        finally:
            self.active = False
            end = self.clock()
            _key, start, child = self._stack.pop()
            values[OTHER] = values.get(OTHER, 0.0) + (end - start) - child
            values[TOTAL] = end - start
            self.events.append((name, name, "root", start, end))
            self.results[name] = values

    def enter(self, key: str) -> None:
        """Open a span whose self time is charged to ``key``."""
        self._stack.append([key, self.clock(), 0.0])

    def leave(self, name: str) -> None:
        """Close the innermost span and charge its self time."""
        end = self.clock()
        key, start, child = self._stack.pop()
        duration = end - start
        self._values[key] = self._values.get(key, 0.0) + duration - child
        self._calls.setdefault(key, []).append(duration - child)
        self._stack[-1][2] += duration
        self.events.append((self._root, name, key, start, end))

    def add(self, key: str, amount: float) -> None:
        """Add to a counter of the current root (ignored outside roots)."""
        if self.active:
            self._values[key] = self._values.get(key, 0) + amount

    def within(self, key: str) -> bool:
        """True when a span charged to ``key`` is open."""
        return any(frame[0] == key for frame in self._stack)


def timed(
    tracer: Tracer,
    key: str,
    name: str,
    fn: Callable[..., Any],
    after: Optional[Hook] = None,
    on_error: Optional[str] = None,
) -> Callable[..., Any]:
    """Wrap ``fn`` in a span; ``after`` reads counts off its result."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.enter(key)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if on_error is not None:
                tracer.add(on_error, 1)
            raise
        finally:
            tracer.leave(name)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def counted(
    tracer: Tracer,
    fn: Callable[..., Any],
    before: Optional[Hook] = None,
    on_error: Optional[str] = None,
) -> Callable[..., Any]:
    """Wrap ``fn`` without a span, only to count calls or failures."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.active:
            return fn(*args, **kwargs)
        if before is not None:
            before(tracer, args, None)
        try:
            return fn(*args, **kwargs)
        except Exception:
            if on_error is not None:
                tracer.add(on_error, 1)
            raise

    return wrapper


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _matrix_cells(tracer: Tracer, _args: Tuple[Any, ...], matrix: Any) -> None:
    tracer.add("placement.matrix_cells", len(matrix.be_names) * len(matrix.lc_names))


def _assign(tracer: Tracer, _args: Tuple[Any, ...], result: Any) -> None:
    tracer.add("solvers.assign_calls", 1)
    tracer.add("solvers.assign_fallbacks", result[3])


def _budget(tracer: Tracer, _args: Tuple[Any, ...], plan: Any) -> None:
    stats = plan.report.stats
    tracer.add("budget.arbiter_ticks", stats.ticks)
    tracer.add("budget.grants_issued", stats.grants_issued)


def _cells(tracer: Tracer, _args: Tuple[Any, ...], planned: Any) -> None:
    tracer.add("cluster.cells", len(planned[0]))


def _lanes(tracer: Tracer, args: Tuple[Any, ...], _result: Any) -> None:
    tracer.add("batched.lanes", args[0].n)


def _lane_ticks(tracer: Tracer, args: Tuple[Any, ...], _result: Any) -> None:
    tracer.add("batched.lane_ticks", args[0].n)


def _oracle_cell(tracer: Tracer, _args: Tuple[Any, ...], _result: Any) -> None:
    tracer.add("oracle.cells", 1)


def _checkpoint(tracer: Tracer, _args: Tuple[Any, ...], path: Any) -> None:
    tracer.add("runtime.checkpoint_writes", 1)
    tracer.add("runtime.checkpoint_bytes", os.path.getsize(path))


def _fallback_cell(tracer: Tracer, _args: Tuple[Any, ...], _result: Any) -> None:
    if tracer.within("batched.partition_s"):
        tracer.add("batched.fallback_cells", 1)


_REPORT_METHODS = (
    "be_throughput_by_server", "power_utilization_by_server",
    "violation_by_server", "cluster_be_throughput",
    "cluster_power_utilization", "cluster_violation_fraction",
    "total_energy_kwh",
)

#: Module-level functions: (module, name, self-time key, after-hook).
FUNCTION_SPANS: Tuple[Tuple[str, str, str, Optional[Hook]], ...] = (
    ("repro.evaluation.pipeline", "fit_catalog", "evaluation.fit_s", None),
    ("repro.core.placement", "build_performance_matrix", "placement.matrix_s",
     _matrix_cells),
    ("repro.core.placement", "assign_with_fallback", "solvers.assign_s", _assign),
    ("repro.budget.arbiter", "plan_budget", "budget.plan_s", _budget),
    ("repro.sim.cluster", "plan_cluster_tasks", "cluster.plan_s", _cells),
    ("repro.engine.batched", "run_batched_cells", "batched.partition_s", None),
    ("repro.evaluation.colocation_eval", "_average_dicts", "report.s", None),
    ("repro.analysis.reporting", "format_table", "report.s", None),
)

#: Methods: (module, class, method, self-time key, after-hook, error counter).
METHOD_SPANS: Tuple[Tuple[str, str, str, str, Optional[Hook], Optional[str]], ...] = (
    ("repro.engine.batched", "BatchedClusterSim", "__init__", "batched.init_s",
     _lanes, "batched.demoted_groups"),
    ("repro.engine.batched", "BatchedClusterSim", "step", "batched.step_s",
     _lane_ticks, None),
    ("repro.engine.batched", "BatchedClusterSim", "collect", "batched.collect_s",
     None, "batched.demoted_groups"),
    ("repro.sim.colocation", "ColocationSim", "run", "oracle.cell_s",
     _oracle_cell, None),
    ("repro.core.server_manager", "ServerManagerBase", "control_step",
     "oracle.manager_s", None, None),
    ("repro.hwmodel.capping", "PowerCapController", "step", "oracle.capper_s",
     None, None),
    ("repro.hwmodel.meter", "PowerMeter", "sample", "oracle.meter_s", None, None),
    ("repro.faults.meter", "FaultyPowerMeter", "sample", "oracle.meter_s",
     None, None),
    ("repro.runtime.checkpoint", "Checkpoint", "save", "runtime.checkpoint_s",
     _checkpoint, None),
) + tuple(
    ("repro.sim.cluster", "ClusterRunResult", method, "report.s", None, None)
    for method in _REPORT_METHODS
)

#: Count-only wrappers: (module, owner class or None, name, before, error).
COUNTERS: Tuple[Tuple[str, Optional[str], str, Optional[Hook], Optional[str]], ...] = (
    ("repro.sim.cluster", None, "_run_cell", _fallback_cell, None),
    ("repro.engine.batched", "BatchedClusterSim", "run", None,
     "batched.demoted_groups"),
)

Patch = Tuple[Any, str, Any]


def _rebind_everywhere(
    patches: List[Patch], module_name: str, name: str,
    make: Callable[[Any], Any],
) -> None:
    """Replace a function in its module and wherever it was imported."""
    original = getattr(importlib.import_module(module_name), name)
    wrapper = make(original)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                patches.append((module, attr, original))
                setattr(module, attr, wrapper)


def _rebind_method(
    patches: List[Patch], module_name: str, class_name: str, name: str,
    make: Callable[[Any], Any],
) -> None:
    owner = getattr(importlib.import_module(module_name), class_name)
    original = owner.__dict__[name]
    patches.append((owner, name, original))
    setattr(owner, name, make(original))


#: Spans cheap enough to stay on in untraced samples: entry points called
#: at most a few thousand times a run, each doing milliseconds of work.
#: Their per-call self times let ``run.py`` take every piece of work at
#: its quickest over a run's samples.
UNIT_KEYS = frozenset({
    "placement.matrix_s", "solvers.assign_s", "budget.plan_s", "cluster.plan_s",
    "batched.partition_s", "batched.init_s", "batched.step_s", "batched.collect_s",
    "oracle.cell_s", "runtime.checkpoint_s",
})


def install(tracer: Tracer, keys: Optional[frozenset] = None) -> List[Patch]:
    """Wrap the entry points in the tables above; returns the patches.

    With ``keys``, only the spans charged to those keys are wrapped and
    the count-only wrappers are left out.
    """
    patches: List[Patch] = []
    for module_name, name, key, after in FUNCTION_SPANS:
        if keys is not None and key not in keys:
            continue
        _rebind_everywhere(
            patches, module_name, name,
            lambda fn, k=key, n=name, a=after: timed(tracer, k, n, fn, after=a),
        )
    for module_name, class_name, name, key, after, error in METHOD_SPANS:
        if keys is not None and key not in keys:
            continue
        label = f"{class_name}.{name}"
        _rebind_method(
            patches, module_name, class_name, name,
            lambda fn, k=key, n=label, a=after, e=error: timed(
                tracer, k, n, fn, after=a, on_error=e),
        )
    for module_name, class_name, name, before, error in COUNTERS if keys is None else ():

        def make(fn: Any, b: Optional[Hook] = before, e: Optional[str] = error) -> Any:
            return counted(tracer, fn, before=b, on_error=e)

        if class_name is None:
            _rebind_everywhere(patches, module_name, name, make)
        else:
            _rebind_method(patches, module_name, class_name, name, make)
    return patches


def uninstall(patches: List[Patch]) -> None:
    """Undo :func:`install`."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    """Write the tracer's spans as Chrome trace-event JSON.

    The file opens in Perfetto or ``chrome://tracing``: one complete
    (``"ph": "X"``) event per span, timestamps in microseconds from the
    first span, the layer key as the category and the root as an arg.
    """
    origin = min((start for _r, _n, _k, start, _e in tracer.events), default=0.0)
    pid = os.getpid()
    events = [
        {
            "name": name, "cat": key, "ph": "X", "pid": pid, "tid": 0,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {"root": root},
        }
        for root, name, key, start, end in tracer.events
    ]
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle,
                  separators=(",", ":"))
    os.replace(tmp, path)

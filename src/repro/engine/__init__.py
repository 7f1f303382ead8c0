"""Execution engine: vectorized math and the cluster simulation cores.

The simulation and placement layers describe *what* to compute; this
package decides *how fast*.  Every mechanism is result-preserving:

* :mod:`repro.engine.vectorized` — the placement performance matrix
  (Fig 7 step II) computed with numpy broadcasting over the
  BE x LC x load-level cube instead of nested Python loops, bit-identical
  to the loop-based reference kept in :mod:`repro.core.placement`.
* :mod:`repro.engine.batched` — the structure-of-arrays cluster
  simulation core (``engine="batched"``): it advances every (plan,
  level) cell of a sweep together as numpy lanes, bit-identical to the
  per-object oracle.
* :mod:`repro.engine.parallel` — :func:`map_ordered`, the ordered loop
  that runs cells on the per-object oracle (the default engine) and
  wraps a failing cell in an :class:`~repro.errors.ExecutionError`
  naming it.

Cell **deduplication** (``dedupe=True`` on the cluster entry points)
runs each distinct (plan, level) cell once and fans the outcome back
out, which is exact because every cell is a pure function of its
explicit inputs; it lives with the cell definition in
:mod:`repro.sim.cluster`.

``tests/test_engine_differential.py`` and
``tests/test_batched_differential.py`` pin the equivalences;
``benchmarks/perf/`` tracks the speedups in ``BENCH_engine.json``.
"""

from repro.engine.parallel import map_ordered
from repro.engine.vectorized import (
    ModelGrid,
    build_performance_matrix_vectorized,
    cached_spare_capacity,
    clear_engine_caches,
    model_grid,
    predict_be_throughput_batch,
)

__all__ = [
    "BatchedClusterSim",
    "ENGINES",
    "ModelGrid",
    "build_performance_matrix_vectorized",
    "cached_spare_capacity",
    "clear_engine_caches",
    "map_ordered",
    "model_grid",
    "partition_cells",
    "predict_be_throughput_batch",
    "resolve_engine",
    "run_batched_cells",
]

from repro.engine.select import ENGINES, resolve_engine

#: Names served lazily from repro.engine.batched (PEP 562).  The
#: batched core imports repro.sim.colocation at module level, and
#: repro.sim.cluster imports repro.engine.parallel — resolving these on
#: first attribute access keeps package initialization acyclic.
_BATCHED_EXPORTS = (
    "BatchedClusterSim",
    "clear_batched_caches",
    "partition_cells",
    "run_batched_cells",
)


def __getattr__(name: str):
    if name in _BATCHED_EXPORTS:
        from repro.engine import batched

        return getattr(batched, name)
    # The module __getattr__ protocol demands AttributeError — any
    # other type breaks hasattr() and dir() probes.
    raise AttributeError(  # pocolint: disable=exception-policy
        f"module {__name__!r} has no attribute {name!r}"
    )

"""repro — a full reproduction of *Pocolo: Power Optimized Colocation in
Power Constrained Environments* (Narayanan, Kumar, Sivasubramaniam,
IISWC 2020).

Package layout
--------------
``repro.hwmodel``
    The simulated Xeon E5-2650 substrate: core pinning, CAT way masks,
    per-core DVFS, duty-cycle limiting, noisy power metering, and the
    100 ms power-cap loop.
``repro.apps``
    Ground-truth models of the paper's eight workloads (four
    latency-critical, four best-effort), calibrated to Table II and the
    Section II-C anchors.
``repro.workloads``
    Diurnal / step / replay load traces and the uniform evaluation sweep.
``repro.core``
    The paper's contribution: Cobb-Douglas indirect utility, profiling
    and fitting, the POM server manager, and the placement machinery.
``repro.solvers``
    Hungarian assignment and a two-phase simplex LP, from scratch.
``repro.sim``
    The time-stepped colocation and cluster simulators.
``repro.engine``
    The execution layer: vectorized placement math, the batched
    cluster simulation core, and the ordered per-object oracle loop.
``repro.guard``
    Runtime safety invariants (power cap, energy conservation, SLO
    floor), the violation ledger, and coverage-guided chaos campaigns.
``repro.cost``
    The Hamilton-style TCO model of Section V-F.
``repro.evaluation``
    One driver per paper table/figure; benchmarks and examples wrap these.

Quickstart
----------
>>> from repro.evaluation import fit_catalog, placement_for_policy
>>> catalog = fit_catalog(seed=7)
>>> sorted(placement_for_policy(catalog, "pocolo").mapping)
['graph', 'lstm', 'pbzip', 'rnn']
"""

from repro.errors import (
    AllocationError,
    CapacityError,
    ConfigError,
    InvariantViolationError,
    ModelFitError,
    ReproError,
    SimulationError,
    SolverError,
)

__version__ = "1.0.0"

__all__ = [
    "AllocationError",
    "CapacityError",
    "ConfigError",
    "InvariantViolationError",
    "ModelFitError",
    "ReproError",
    "SimulationError",
    "SolverError",
    "__version__",
]

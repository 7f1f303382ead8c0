"""Correctness checks shared by the workloads.

Each check names the cells it found wrong, so a run can report
``failed`` cells against ``attempted`` ones.
"""

from __future__ import annotations

import math
from typing import Any, List, Sequence, Tuple

#: The ColocationResult fields compared across engines and checked for
#: finiteness: the averages, the energy and the violation fraction.
RESULT_FIELDS = (
    "duration_s", "avg_be_throughput_norm", "avg_be_throughput_abs",
    "avg_lc_load_fraction", "avg_power_w", "power_utilization", "energy_kwh",
    "slo_violation_fraction",
)


def outcome_diff(a: Any, b: Any) -> str:
    """The first field where two cell outcomes differ, or ``""``.

    Compares the cell identity, the averages and energy, and the
    ``CapStats``, ``ManagerStats`` and ``GuardReport`` records exactly.
    """
    if (a.lc_name, a.be_name, a.level) != (b.lc_name, b.be_name, b.level):
        return (f"cell ({a.lc_name}, {a.be_name}, {a.level}) vs "
                f"({b.lc_name}, {b.be_name}, {b.level})")
    ra, rb = a.result, b.result
    for name in RESULT_FIELDS + ("cap_stats", "manager_stats", "guard_report"):
        va, vb = getattr(ra, name), getattr(rb, name)
        if va != vb:
            return f"{name}: {va!r} != {vb!r}"
    return ""


def nonfinite(outcome: Any) -> List[str]:
    """Result fields of one cell outcome that are not finite numbers."""
    result = outcome.result
    return [name for name in RESULT_FIELDS if not math.isfinite(getattr(result, name))]


def run_on_engine(engine: str, task: Tuple) -> Any:
    """Re-run one planned cell on ``engine``, alone."""
    if engine == "object":
        from repro.sim.cluster import _run_cell

        return _run_cell(*task)
    from repro.engine.batched import run_batched_cells

    return run_batched_cells([task])[0]


def cross_engine(
    outcomes: Sequence[Any], tasks: Sequence[Tuple], positions: Sequence[int],
    engine: str,
) -> List[Tuple[int, str]]:
    """Re-run the cells at ``positions`` on ``engine``; list mismatches."""
    return [
        (i, diff) for i in positions
        for diff in [outcome_diff(outcomes[i], run_on_engine(engine, tasks[i]))]
        if diff
    ]

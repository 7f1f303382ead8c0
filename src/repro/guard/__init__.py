"""Runtime safety guards: invariants, violation ledger, chaos campaigns.

The guard layer watches the simulated control stack uphold Pocolo's
safety contracts while everything else tries to break them:

``repro.guard.invariants`` / ``repro.guard.monitor``
    The contracts themselves — power-cap compliance, energy
    conservation, the LC SLO floor, budget conservation, monotonic time,
    RNG isolation — evaluated every control tick in ``record`` or
    ``enforce`` mode.
``repro.guard.ledger``
    Guarded sweep violations as durable JSONL, rebuilt deterministically
    from completed cells (so checkpoint resume is byte-identical).
``repro.guard.campaign`` / ``repro.guard.fixtures``
    Coverage-guided chaos search over fault schedules, with shrinking to
    minimal reproducers and JSON fixtures that pin them as regressions.

The campaign and ledger layers sit *above* the simulators (they drive
:class:`~repro.sim.colocation.ColocationSim` and consume cluster
results) while the invariant layer sits *below* them (the sim loop
calls the monitor), so this package imports the invariant side eagerly
and resolves the campaign/ledger side lazily via PEP 562 — importing
``repro.guard`` from the sim or runtime layer can never re-enter those
layers.
"""

from typing import TYPE_CHECKING

from repro.guard.invariants import (
    MODE_ENFORCE,
    MODE_RECORD,
    BudgetConservationInvariant,
    EnergyConservationInvariant,
    GuardConfig,
    GuardReport,
    GuardSample,
    Invariant,
    InvariantRegistry,
    LcSloFloorInvariant,
    MonotonicTimeInvariant,
    PowerCapInvariant,
    RngIsolationInvariant,
    Violation,
)
from repro.guard.monitor import GuardMonitor
from repro.guard.tolerance import exceeds_cap, tolerance_band, within_tolerance

if TYPE_CHECKING:  # pragma: no cover - names for type checkers only
    from repro.guard.campaign import (
        COVERAGE_COUNTERS,
        BudgetCaseRunner,
        CampaignConfig,
        CampaignResult,
        CaseOutcome,
        ColocationCaseRunner,
        ShrinkResult,
        ViolationCase,
        coverage_signature,
        mutate_schedule,
        run_campaign,
        shrink_schedule,
    )
    from repro.guard.fixtures import (
        FIXTURE_FORMAT,
        fault_from_data,
        fault_to_data,
        load_fixture,
        schedule_from_data,
        schedule_to_data,
        write_fixture,
    )
    from repro.guard.ledger import (
        LEDGER_FORMAT,
        ledger_entries,
        read_ledger,
        render_ledger,
        write_ledger,
    )

#: Lazily-resolved exports: symbol -> defining submodule (PEP 562).
_LAZY = {
    "COVERAGE_COUNTERS": "repro.guard.campaign",
    "BudgetCaseRunner": "repro.guard.campaign",
    "CampaignConfig": "repro.guard.campaign",
    "CampaignResult": "repro.guard.campaign",
    "CaseOutcome": "repro.guard.campaign",
    "ColocationCaseRunner": "repro.guard.campaign",
    "ShrinkResult": "repro.guard.campaign",
    "ViolationCase": "repro.guard.campaign",
    "coverage_signature": "repro.guard.campaign",
    "mutate_schedule": "repro.guard.campaign",
    "run_campaign": "repro.guard.campaign",
    "shrink_schedule": "repro.guard.campaign",
    "FIXTURE_FORMAT": "repro.guard.fixtures",
    "LEDGER_FORMAT": "repro.guard.ledger",
    "ledger_entries": "repro.guard.ledger",
    "read_ledger": "repro.guard.ledger",
    "render_ledger": "repro.guard.ledger",
    "write_ledger": "repro.guard.ledger",
    "fault_from_data": "repro.guard.fixtures",
    "fault_to_data": "repro.guard.fixtures",
    "load_fixture": "repro.guard.fixtures",
    "schedule_from_data": "repro.guard.fixtures",
    "schedule_to_data": "repro.guard.fixtures",
    "write_fixture": "repro.guard.fixtures",
}


def __getattr__(name: str):  # noqa: ANN202 - PEP 562 module hook
    """Resolve campaign/fixture exports on first touch (cycle-safe)."""
    module_name = _LAZY.get(name)
    if module_name is None:
        # PEP 562 contracts require AttributeError here, not ReproError.
        raise AttributeError(  # pocolint: disable=exception-policy
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    """Advertise lazy exports alongside the eager ones."""
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "MODE_ENFORCE",
    "MODE_RECORD",
    "COVERAGE_COUNTERS",
    "BudgetCaseRunner",
    "BudgetConservationInvariant",
    "CampaignConfig",
    "CampaignResult",
    "CaseOutcome",
    "ColocationCaseRunner",
    "EnergyConservationInvariant",
    "FIXTURE_FORMAT",
    "GuardConfig",
    "GuardMonitor",
    "GuardReport",
    "GuardSample",
    "Invariant",
    "InvariantRegistry",
    "LEDGER_FORMAT",
    "LcSloFloorInvariant",
    "MonotonicTimeInvariant",
    "PowerCapInvariant",
    "RngIsolationInvariant",
    "ShrinkResult",
    "Violation",
    "ViolationCase",
    "coverage_signature",
    "exceeds_cap",
    "fault_from_data",
    "fault_to_data",
    "ledger_entries",
    "load_fixture",
    "mutate_schedule",
    "read_ledger",
    "render_ledger",
    "run_campaign",
    "schedule_from_data",
    "schedule_to_data",
    "shrink_schedule",
    "tolerance_band",
    "within_tolerance",
    "write_fixture",
    "write_ledger",
]

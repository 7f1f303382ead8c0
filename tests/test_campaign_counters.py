"""Pinned campaign inputs: the exact counters the coverage signal sees.

A chaos campaign's search is steered by :attr:`CaseOutcome.counters`
(bucketed into coverage points), so any change in which degradation
counters reach a case — or in how a cluster's cells are summed into
them — silently changes which mutants the campaign keeps.  These tests
pin one colocation case, one budgeted case and one seeded campaign to
exact values, so the counter plumbing can be refactored only if it
feeds the coverage signature precisely what it fed before.
"""

import pytest

from repro.apps import REFERENCE_SPEC, best_effort_apps, latency_critical_apps
from repro.budget import BudgetConfig
from repro.evaluation.pipeline import (
    HeraclesFactory,
    cluster_plans,
    placement_for_policy,
)
from repro.faults.schedule import (
    FaultSchedule,
    GrantLoss,
    LoadSpike,
    MeterDrift,
    MeterStuckAt,
    RackPowerDerate,
)
from repro.guard.campaign import (
    BudgetCaseRunner,
    CampaignConfig,
    ColocationCaseRunner,
    run_campaign,
)
from repro.guard.invariants import GuardConfig
from repro.sim.colocation import SimConfig

CELL_SCHEDULE = FaultSchedule([
    MeterStuckAt(start_s=2.0, duration_s=4.0, value_w=60.0),
    LoadSpike(start_s=6.0, duration_s=3.0, factor=1.6),
])

BUDGET_SCHEDULE = FaultSchedule([
    RackPowerDerate(start_s=1.0, duration_s=4.0, factor=0.5, rack="rack0"),
    GrantLoss(start_s=7.0, duration_s=2.0),
    MeterDrift(start_s=2.0, duration_s=3.0, bias_w=-20.0),
])


@pytest.fixture(scope="module")
def cell_runner():
    lc = latency_critical_apps()["img-dnn"]
    return ColocationCaseRunner(
        lc_app=lc,
        manager_factory=HeraclesFactory(),
        spec=REFERENCE_SPEC,
        provisioned_power_w=lc.peak_server_power_w(),
        be_app=best_effort_apps()["graph"],
        level=0.5,
        duration_s=12.0,
    )


@pytest.fixture(scope="module")
def budget_runner(catalog):
    placement = placement_for_policy(catalog, "pocolo")
    plans = cluster_plans(catalog, placement, "pocolo")
    return BudgetCaseRunner(
        plans=tuple(plans[:4]),
        spec=catalog.spec,
        levels=(0.4, 0.8),
        duration_s=6.0,
        config=SimConfig(warmup_s=1.0, seed=0),
        guard=GuardConfig(mode="record"),
        budget=BudgetConfig(arbiter_period_s=1.0, lease_s=2.0, rack_size=2,
                            rack_slack=0.2),
    )


def test_colocation_case_counters_pinned(cell_runner):
    outcome = cell_runner.run(CELL_SCHEDULE)
    assert outcome.counters == (
        ("cap.duty_limited_samples", 139),
        ("cap.over_cap_samples", 36),
        ("cap.restore_events", 30),
        ("cap.safe_mode_entries", 1),
        ("cap.safe_mode_steps", 39),
        ("cap.throttle_events", 22),
        ("cap.watchdog_trips", 1),
        ("manager.model_fallback_steps", 0),
        ("manager.model_fallbacks", 0),
        ("manager.solver_fallbacks", 0),
    )


def test_budget_case_counters_pinned(budget_runner):
    outcome = budget_runner.run(BUDGET_SCHEDULE)
    assert outcome.counters == (
        ("budget.brownout_entries", 1),
        ("budget.evict_ticks", 2),
        ("budget.evicted_cells", 2),
        ("budget.grants_delayed", 0),
        ("budget.grants_expired", 4),
        ("budget.grants_lost", 8),
        ("budget.max_stage", 3),
        ("budget.shed_cells", 0),
        ("budget.shed_ticks", 5),
        ("budget.skipped_ticks", 0),
        ("budget.throttle_ticks", 2),
        ("cap.duty_limited_samples", 43),
        ("cap.over_cap_samples", 90),
        ("cap.restore_events", 33),
        ("cap.safe_mode_entries", 0),
        ("cap.safe_mode_steps", 0),
        ("cap.throttle_events", 85),
        ("cap.watchdog_trips", 0),
        ("manager.model_fallback_steps", 0),
        ("manager.model_fallbacks", 0),
        ("manager.solver_fallbacks", 0),
    )
    # The folded report counts cell checks plus the plan-time budget audit.
    assert (outcome.report.checks, outcome.report.total_violations) == (456, 0)


def test_seeded_campaign_pinned(cell_runner):
    result = run_campaign(cell_runner, CampaignConfig(
        seed=3, rounds=2, batch_size=3, initial_corpus=2, horizon_s=12.0,
        stop_on_violation=False,
    ))
    assert (result.cases_run, result.corpus_size, result.coverage_points) == (
        8, 4, 11,
    )

"""Budget-aware chaos campaigns and the pinned brownout-ladder fixture.

Satellite coverage for the infra-fault mutation pool: campaigns with
``infra_faults`` on draw rack derates/trips, arbiter crashes and grant
loss/delay alongside the cell faults, route them through
:class:`~repro.guard.campaign.BudgetCaseRunner` (which splits the
genome into plan-time infra faults and in-cell faults), and fold the
arbiter's ``budget.*`` degradation counters into coverage.

The pinned fixture ``tests/fixtures/budget_brownout.json`` walks the
whole brownout ladder (throttle -> evict -> shed -> hysteresis
recovery) and documents a real discovered behavior: a shed stage that
engages mid-level leaves a loaded LC server briefly unable to fit
under its 60%-floor cap — a power-cap finding the guard must keep
reporting — while both budget invariants stay clean.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.budget import BudgetConfig
from repro.errors import ConfigError
from repro.evaluation.pipeline import cluster_plans, placement_for_policy
from repro.faults.schedule import (
    ArbiterCrash,
    FaultSchedule,
    GrantDelay,
    GrantLoss,
    RackBreakerTrip,
    RackPowerDerate,
)
from repro.guard.campaign import (
    COVERAGE_COUNTERS,
    BudgetCaseRunner,
    CampaignConfig,
    mutate_schedule,
    run_campaign,
)
from repro.guard.fixtures import load_fixture
from repro.guard.invariants import GuardConfig
from repro.sim.colocation import SimConfig

FIXTURE = Path(__file__).parent / "fixtures" / "budget_brownout.json"

INFRA_KINDS = (RackPowerDerate, RackBreakerTrip, ArbiterCrash, GrantLoss,
               GrantDelay)


@pytest.fixture(scope="module")
def fleet(catalog):
    placement = placement_for_policy(catalog, "pocolo")
    return cluster_plans(catalog, placement, "pocolo")


@pytest.fixture(scope="module")
def runner(catalog, fleet):
    return BudgetCaseRunner(
        plans=tuple(fleet),
        spec=catalog.spec,
        levels=(0.4, 0.8),
        duration_s=6.0,
        config=SimConfig(warmup_s=1.0, seed=0),
        guard=GuardConfig(mode="record"),
        budget=BudgetConfig(arbiter_period_s=1.0, lease_s=2.0, rack_size=2,
                            rack_slack=0.2),
    )


class TestInfraMutationPool:
    def test_infra_faults_enter_the_pool(self):
        rng = np.random.default_rng(0)
        config = CampaignConfig(infra_faults=True, max_faults=6)
        seen = set()
        schedule = FaultSchedule([])
        for _ in range(300):
            schedule = mutate_schedule(schedule, rng, config)
            seen.update(type(f) for f in schedule)
        assert seen.intersection(INFRA_KINDS), (
            "300 mutations never drew a power-infrastructure fault"
        )

    def test_infra_faults_off_by_default(self):
        rng = np.random.default_rng(0)
        config = CampaignConfig(max_faults=6)
        schedule = FaultSchedule([])
        for _ in range(300):
            schedule = mutate_schedule(schedule, rng, config)
            assert not any(isinstance(f, INFRA_KINDS) for f in schedule)

    def test_runner_validation(self, catalog, fleet):
        with pytest.raises(ConfigError):
            BudgetCaseRunner(plans=(), spec=catalog.spec)
        with pytest.raises(ConfigError):
            BudgetCaseRunner(
                plans=tuple(fleet), spec=catalog.spec,
                guard=GuardConfig(mode="enforce"),
            )
        with pytest.raises(ConfigError):
            BudgetCaseRunner(
                plans=tuple(fleet), spec=catalog.spec, levels=(),
            )
        with pytest.raises(ConfigError):
            BudgetCaseRunner(
                plans=tuple(fleet), spec=catalog.spec, duration_s=0.0,
            )

    def test_runner_merges_budget_counters(self, runner):
        outcome = runner.run(FaultSchedule([
            RackPowerDerate(start_s=1.0, duration_s=4.0, factor=0.5,
                            rack="rack0"),
        ]))
        counters = dict(outcome.counters)
        for name in COVERAGE_COUNTERS:
            assert name in counters
        assert counters["budget.max_stage"] > 0
        assert any(name.startswith("cap.") for name in counters)

    def test_runner_is_deterministic(self, runner):
        schedule = FaultSchedule([
            GrantLoss(start_s=2.0, duration_s=3.0),
            ArbiterCrash(start_s=6.0, duration_s=2.0),
        ])
        first = runner.run(schedule)
        second = runner.run(schedule)
        assert first.counters == second.counters
        assert first.report == second.report

    def test_mini_campaign_with_infra_pool(self, catalog, fleet):
        runner = BudgetCaseRunner(
            plans=tuple(fleet[:2]),
            spec=catalog.spec,
            levels=(0.5,),
            duration_s=3.0,
            config=SimConfig(warmup_s=1.0, seed=0),
            guard=GuardConfig(mode="record"),
            budget=BudgetConfig(arbiter_period_s=1.0, lease_s=2.0),
        )
        config = CampaignConfig(
            seed=7, rounds=2, batch_size=2, initial_corpus=2,
            horizon_s=3.0, mean_duration_s=2.0, infra_faults=True,
            stop_on_violation=False,
        )
        result = run_campaign(runner, config)
        assert result.cases_run == 2 + 2 * 2
        assert result.coverage_points > 0


class TestBrownoutLadderFixture:
    """The pinned reproducer keeps reproducing, and the ladder moves."""

    def test_fixture_loads(self):
        schedule, meta = load_fixture(FIXTURE)
        assert len(schedule) == 3
        assert all(isinstance(f, RackPowerDerate) for f in schedule)
        assert meta["invariants"] == ["power-cap"]
        factors = [f.factor for f in schedule]
        assert factors == sorted(factors, reverse=True)

    def test_ladder_fully_exercised(self, runner):
        schedule, _ = load_fixture(FIXTURE)
        outcome = runner.run(schedule)
        counters = dict(outcome.counters)
        assert counters["budget.max_stage"] == 3
        assert counters["budget.throttle_ticks"] >= 1
        assert counters["budget.evict_ticks"] >= 1
        assert counters["budget.shed_ticks"] >= 1
        assert counters["budget.brownout_entries"] >= 1
        assert counters["budget.evicted_cells"] >= 1

    def test_power_cap_finding_still_reproduces(self, runner):
        schedule, meta = load_fixture(FIXTURE)
        outcome = runner.run(schedule)
        assert outcome.violating
        assert outcome.violated_invariants() == tuple(meta["invariants"])

    def test_budget_invariants_stay_clean(self, runner):
        schedule, _ = load_fixture(FIXTURE)
        outcome = runner.run(schedule)
        budget_violations = [
            v for v in outcome.report.violations
            if v.invariant in ("grant-conservation", "rack-overcommit")
        ]
        assert budget_violations == []

"""Chaos campaigns: mutation, coverage, shrinking, fixtures, detection.

The headline regression is the planted-bug drill (the acceptance
criterion of the guard subsystem): disable only the cap loop's
stale-meter watchdog under a power-unaware manager, and the campaign
must detect the resulting power-cap violation, shrink the schedule to a
minimal reproducer, and that reproducer must round-trip through a
pinned fixture and still violate.
"""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.apps import REFERENCE_SPEC, best_effort_apps, latency_critical_apps
from repro.errors import ConfigError
from repro.evaluation.pipeline import HeraclesFactory
from repro.faults import (
    FaultSchedule,
    LoadSpike,
    MeterDrift,
    MeterStuckAt,
    ModelStaleness,
)
from repro.guard import GuardConfig
from repro.guard.campaign import (
    CampaignConfig,
    ColocationCaseRunner,
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
    write_fixture,
)
from repro.guard.invariants import GuardReport, Violation
from repro.hwmodel.capping import PowerCapController

#: The pairing the planted bug is detectable under: moderate LC load
#: with a BE tenant holding real resources while the meter reads low.
DETECT_LC = "img-dnn"
DETECT_BE = "graph"

#: The smoke-proven search budget: 4 seed inputs + 8 rounds x 4 mutants.
DETECT_CONFIG = CampaignConfig(
    seed=0, rounds=8, batch_size=4, initial_corpus=4,
    horizon_s=20.0, max_faults=4, mean_duration_s=8.0,
)


@dataclass(frozen=True)
class WatchdogDisabledCapper:
    """Capper double with the stale-meter watchdog turned off."""

    def __call__(self, server, meter):
        return PowerCapController(server=server, meter=meter, watchdog=False)


def make_runner(capper_factory=None, duration_s=20.0, level=0.5):
    lc = latency_critical_apps()[DETECT_LC]
    return ColocationCaseRunner(
        lc_app=lc,
        manager_factory=HeraclesFactory(),
        spec=REFERENCE_SPEC,
        provisioned_power_w=lc.peak_server_power_w(),
        be_app=best_effort_apps()[DETECT_BE],
        level=level,
        duration_s=duration_s,
        capper_factory=capper_factory,
    )


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"rounds": -1},
        {"batch_size": 0},
        {"initial_corpus": 0},
        {"horizon_s": 0.0},
        {"mean_duration_s": 0.0},
        {"max_faults": 0},
        {"shrink_budget": -1},
    ])
    def test_bad_campaign_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CampaignConfig(**kwargs)

    def test_enforce_mode_runner_rejected(self):
        lc = latency_critical_apps()[DETECT_LC]
        with pytest.raises(ConfigError, match="record-mode guard"):
            ColocationCaseRunner(
                lc_app=lc, manager_factory=HeraclesFactory(),
                spec=REFERENCE_SPEC,
                provisioned_power_w=lc.peak_server_power_w(),
                guard=GuardConfig(mode="enforce"),
            )

    @pytest.mark.parametrize("kwargs", [
        {"level": 1.5},
        {"duration_s": 0.0},
    ])
    def test_bad_runner_knobs_rejected(self, kwargs):
        lc = latency_critical_apps()[DETECT_LC]
        with pytest.raises(ConfigError):
            ColocationCaseRunner(
                lc_app=lc, manager_factory=HeraclesFactory(),
                spec=REFERENCE_SPEC,
                provisioned_power_w=lc.peak_server_power_w(),
                **kwargs,
            )


class TestMutation:
    def test_same_seed_same_mutant(self):
        config = CampaignConfig()
        base = FaultSchedule([MeterStuckAt(start_s=2.0, duration_s=5.0)])
        first = mutate_schedule(base, np.random.default_rng(42), config)
        second = mutate_schedule(base, np.random.default_rng(42), config)
        assert first.faults == second.faults

    def test_empty_schedule_can_only_gain(self, rng):
        mutant = mutate_schedule(FaultSchedule(()), rng, CampaignConfig())
        assert len(mutant) == 1

    def test_max_faults_is_respected(self, rng):
        config = CampaignConfig(max_faults=2)
        schedule = FaultSchedule(())
        for _ in range(50):
            schedule = mutate_schedule(schedule, rng, config)
            assert len(schedule) <= config.max_faults

    def test_every_mutation_changes_the_schedule(self, rng):
        schedule = FaultSchedule([
            MeterDrift(start_s=1.0, duration_s=6.0, rate_w_per_s=1.0)
        ])
        for _ in range(30):
            mutant = mutate_schedule(schedule, rng, CampaignConfig())
            assert mutant.faults != schedule.faults
            schedule = mutant


class TestCoverageSignature:
    def _clean(self):
        return GuardReport(mode="record", checks=10, total_violations=0,
                           violations=())

    def test_zero_counters_contribute_nothing(self):
        assert coverage_signature(
            {"cap.watchdog_trips": 0}, self._clean()
        ) == frozenset()

    def test_order_of_magnitude_buckets(self):
        one = coverage_signature({"cap.watchdog_trips": 1}, self._clean())
        few = coverage_signature({"cap.watchdog_trips": 3}, self._clean())
        assert one == {("cap.watchdog_trips", 1)}
        assert few == {("cap.watchdog_trips", 2)}
        # 17 and 18 trips are the same coverage: not a new magnitude.
        assert coverage_signature(
            {"cap.watchdog_trips": 17}, self._clean()
        ) == coverage_signature({"cap.watchdog_trips": 18}, self._clean())

    def test_violations_contribute_their_own_points(self):
        v = Violation("power-cap", 1.0, "m", 1.0, 0.0)
        report = GuardReport(mode="record", checks=10, total_violations=3,
                             violations=(v, v, v))
        assert ("violation.power-cap", 2) in coverage_signature({}, report)


class TestFixtures:
    SCHEDULE = FaultSchedule([
        MeterStuckAt(start_s=2.0, duration_s=8.0, value_w=31.5),
        LoadSpike(start_s=4.0, duration_s=6.0, factor=1.7),
    ])

    def test_round_trip_preserves_every_field(self, tmp_path):
        path = tmp_path / "repro.json"
        write_fixture(path, self.SCHEDULE, invariants=("power-cap",),
                      note="campaign seed 0")
        schedule, meta = load_fixture(path)
        assert schedule.faults == self.SCHEDULE.faults
        assert meta["invariants"] == ["power-cap"]
        assert meta["note"] == "campaign seed 0"
        assert meta["format"] == FIXTURE_FORMAT

    def test_fault_data_is_json_native(self):
        data = fault_to_data(self.SCHEDULE.faults[0])
        assert json.loads(json.dumps(data)) == data
        assert fault_from_data(data) == self.SCHEDULE.faults[0]

    def test_live_object_faults_are_refused(self):
        stale = ModelStaleness(start_s=1.0, duration_s=2.0, model=object())
        with pytest.raises(ConfigError, match="not serializable"):
            fault_to_data(stale)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            fault_from_data({"kind": "DiskOnFire", "start_s": 0.0})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            fault_from_data({
                "kind": "MeterStuckAt", "start_s": 0.0, "duration_s": 1.0,
                "wattage": 3.0,
            })

    def test_wrong_typed_field_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            fault_from_data({
                "kind": "MeterStuckAt", "start_s": 0.0, "value_w": "lots",
            })

    def test_field_validation_still_applies(self):
        # A hand-edited fixture cannot smuggle in an invalid window.
        with pytest.raises(ConfigError):
            fault_from_data({"kind": "MeterStuckAt", "start_s": -1.0})

    def test_non_list_schedule_rejected(self):
        with pytest.raises(ConfigError, match="JSON array"):
            schedule_from_data({"kind": "MeterStuckAt"})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no guard fixture"):
            load_fixture(tmp_path / "absent.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_fixture(path)

    def test_unknown_format_tag_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"format": "pocolo-guard-fixture/99",
                                    "faults": []}))
        with pytest.raises(ConfigError, match="unknown fixture format"):
            load_fixture(path)


class TestCampaignSearch:
    @pytest.mark.slow
    def test_healthy_stack_stays_clean_and_deterministic(self):
        runner = make_runner(duration_s=10.0)
        config = CampaignConfig(seed=3, rounds=1, batch_size=2,
                                initial_corpus=2, horizon_s=10.0,
                                mean_duration_s=4.0)
        first = run_campaign(runner, config)
        second = run_campaign(runner, config)
        assert not first.found
        assert first.cases_run == config.initial_corpus + config.batch_size
        assert (first.cases_run, first.corpus_size, first.coverage_points) == (
            second.cases_run, second.corpus_size, second.coverage_points
        )

    @pytest.mark.slow
    def test_planted_watchdog_bug_is_detected_and_shrunk(self, tmp_path):
        """The guard acceptance criterion, as a permanent regression."""
        runner = make_runner(capper_factory=WatchdogDisabledCapper())
        result = run_campaign(runner, DETECT_CONFIG)
        assert result.found, (
            "the campaign must detect the watchdog-disabled capper"
        )
        case = result.violations[0]
        assert "power-cap" in case.invariants
        # Shrinking never grows the schedule, and the minimal reproducer
        # still violates when re-run directly.
        assert 1 <= len(case.shrunk) <= len(case.schedule)
        outcome = runner.run(case.shrunk)
        assert "power-cap" in outcome.violated_invariants()
        # The reproducer round-trips through a pinned fixture intact.
        path = tmp_path / "watchdog-bug.json"
        write_fixture(path, case.shrunk, invariants=case.invariants,
                      note="planted watchdog=False regression")
        reloaded, meta = load_fixture(path)
        assert reloaded.faults == case.shrunk.faults
        assert "power-cap" in meta["invariants"]
        # The fixed stack (watchdog back on) survives the reproducer —
        # what a pinned fixture asserts in perpetuity.
        healthy = make_runner().run(reloaded)
        assert "power-cap" not in healthy.violated_invariants()

    def test_shrink_is_bounded_by_its_budget(self):
        runner = make_runner(capper_factory=WatchdogDisabledCapper())
        stuck = MeterStuckAt(start_s=1.0, duration_s=18.0, value_w=20.0)
        noise = MeterDrift(start_s=2.0, duration_s=4.0, rate_w_per_s=0.5)
        result = shrink_schedule(
            runner, FaultSchedule([stuck, noise]), ["power-cap"], budget=3
        )
        assert result.evaluations <= 3
        assert 1 <= len(result.schedule) <= 2

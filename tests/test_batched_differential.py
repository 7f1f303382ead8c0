"""Differential proof: the batched engine is bit-exact vs the oracle.

:mod:`repro.engine.batched` re-implements the per-object
:class:`~repro.sim.colocation.ColocationSim` as a structure-of-arrays
core that advances every server of a sweep in lock step.  Its whole
claim is *exact* equality — not tolerance-based closeness — so every
test here compares full :class:`~repro.sim.colocation.ColocationResult`
objects field by field with ``==`` on raw floats:

* every scalar summary (throughput, SLO fraction, energy, utilization);
* :class:`CapStats` / :class:`ManagerStats` counters;
* :class:`~repro.guard.invariants.GuardReport` including the recorded
  :class:`~repro.guard.invariants.Violation` tuples and check counts;
* every telemetry series, name order, tick times and values.

Coverage spans three manager types (POM, Heracles-balanced,
Heracles-random), a no-BE plan, three fault schedules exercising all
six fault types, record- and enforce-mode guards, the ``engine`` knob
on :func:`~repro.sim.cluster.run_cluster` (dedupe on and off, and the
default), and a real mid-sweep SIGKILL resumed under the
*other* engine.
"""

import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.core.server_manager import HeraclesLikeManager
from repro.engine.batched import partition_cells, run_batched_cells
from repro.engine.parallel import map_ordered
from repro.engine.select import resolve_engine
from repro.evaluation.pipeline import (
    ServerPlan,
    cluster_plans,
    fit_catalog,
    placement_for_policy,
    run_policy,
)
from repro.faults.schedule import (
    FaultSchedule,
    LoadSpike,
    MeterDrift,
    MeterDropout,
    MeterStuckAt,
    ModelStaleness,
    TelemetryGap,
)
from repro.guard.invariants import GuardConfig
from repro.runtime import Checkpoint, run_cluster_checkpointed
from repro.sim.cluster import Cell, _run_cell, run_cluster
from repro.sim.colocation import SimConfig

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

#: Scalar result fields compared with ``==`` — every float the result
#: reports.  Kept explicit so a new summary field must be added here
#: (or the schema drift is caught by test_result_fields_covered).
RESULT_FIELDS = (
    "lc_name", "be_name", "duration_s",
    "avg_be_throughput_norm", "avg_be_throughput_abs",
    "avg_lc_load_fraction", "avg_power_w", "power_utilization",
    "energy_kwh", "slo_violation_fraction",
)


@dataclass(frozen=True)
class RandomHeraclesFactory:
    """Content-addressable factory for the randomized Heracles path."""

    seed: int = 3

    def __call__(self, server):
        return HeraclesLikeManager(server, path="random", seed=self.seed)


def assert_outcome_equal(a, b, where=""):
    """Exact equality of two LevelOutcomes, down to every telemetry tick."""
    assert (a.lc_name, a.be_name, a.level) == (b.lc_name, b.be_name, b.level)
    ra, rb = a.result, b.result
    for field in RESULT_FIELDS:
        va, vb = getattr(ra, field), getattr(rb, field)
        assert va == vb, f"{where}: {field}: {va!r} != {vb!r}"
    assert ra.cap_stats == rb.cap_stats, f"{where}: cap_stats"
    assert ra.manager_stats == rb.manager_stats, f"{where}: manager_stats"
    # GuardReport equality covers mode, check counts, violation totals,
    # and every Violation tuple (invariant, time, message, observed,
    # limit) — dataclass == is exact.
    assert ra.guard_report == rb.guard_report, f"{where}: guard_report"
    ta, tb = ra.telemetry, rb.telemetry
    assert ta.names() == tb.names(), f"{where}: series names"
    for name in ta.names():
        sa, sb = ta.series(name), tb.series(name)
        for part in ("times", "values"):
            xa, xb = getattr(sa, part), getattr(sb, part)
            assert xa.dtype == xb.dtype, f"{where}: {name} {part} dtype"
            assert np.array_equal(xa, xb), f"{where}: {name} {part}"


@pytest.fixture(scope="module")
def catalog():
    return fit_catalog(seed=7)


@pytest.fixture(scope="module")
def mixed_plans(catalog):
    """Three manager types plus a no-BE colocation in one sweep."""
    pom = cluster_plans(catalog, placement_for_policy(catalog, "pocolo"), "pocolo")
    her = cluster_plans(catalog, placement_for_policy(catalog, "random"), "random")
    plans = list(pom[:3]) + list(her[:2])
    base = plans[0]
    plans.append(ServerPlan(
        lc_app=base.lc_app, be_app=base.be_app,
        provisioned_power_w=base.provisioned_power_w,
        manager_factory=RandomHeraclesFactory(),
    ))
    plans.append(ServerPlan(
        lc_app=plans[1].lc_app, be_app=None,
        provisioned_power_w=plans[1].provisioned_power_w,
        manager_factory=plans[1].manager_factory,
    ))
    return plans


def _tasks(plans, spec, levels, duration_s, config, faults=None, guard=None):
    return [
        Cell(plan, spec, level, duration_s, config, plan.be_app, faults, guard)
        for plan in plans
        for level in levels
    ]


def _oracle(tasks):
    return [_run_cell(*task) for task in tasks]


class TestUnfaultedDifferential:
    """All manager types, idle through saturated, guard off and on."""

    @pytest.mark.parametrize("guard", [
        None,
        GuardConfig(),
        GuardConfig(deep_check_every=3),
    ], ids=["noguard", "default", "deep3"])
    def test_bit_exact(self, catalog, mixed_plans, guard):
        config = SimConfig(warmup_s=3.0, seed=1)
        tasks = _tasks(
            mixed_plans, catalog.spec, (0.0, 0.3, 0.8), 7.0, config,
            guard=guard,
        )
        groups, fallback = partition_cells(tasks)
        assert not fallback, "every cell must take the batched path"
        assert groups, "partitioning produced no groups"
        for a, b in zip(_oracle(tasks), run_batched_cells(tasks)):
            assert_outcome_equal(a, b, f"guard={guard!r}")

    def test_result_fields_covered(self, catalog, mixed_plans):
        """RESULT_FIELDS stays in sync with the result schema."""
        config = SimConfig(warmup_s=1.0, seed=0)
        task = _tasks(mixed_plans[:1], catalog.spec, (0.5,), 3.0, config)[0]
        result = _run_cell(*task).result
        import dataclasses

        names = {f.name for f in dataclasses.fields(result)}
        uncovered = names - set(RESULT_FIELDS) - {
            "cap_stats", "manager_stats", "guard_report", "telemetry",
        }
        assert not uncovered, (
            f"new ColocationResult fields {sorted(uncovered)} are not "
            "compared by assert_outcome_equal; add them to RESULT_FIELDS"
        )


class TestFaultedDifferential:
    """Every fault type, alone and overlapping, guard off and on."""

    @pytest.fixture(scope="class")
    def schedules(self, catalog):
        stale = catalog.lc_fits[list(catalog.lc_fits)[1]].model
        return {
            "meter-mix": FaultSchedule([
                MeterDrift(start_s=1.0, duration_s=3.0,
                           bias_w=-2.0, rate_w_per_s=-1.5),
                MeterDropout(start_s=4.2, duration_s=1.0),
                MeterStuckAt(start_s=6.0, duration_s=2.0),
                MeterStuckAt(start_s=9.0, duration_s=1.5, value_w=400.0),
            ]),
            "control-mix": FaultSchedule([
                LoadSpike(start_s=2.0, duration_s=2.0, factor=1.8),
                TelemetryGap(start_s=5.0, duration_s=2.0),
                ModelStaleness(start_s=3.0, duration_s=4.0, model=stale),
            ]),
            "everything": FaultSchedule([
                LoadSpike(start_s=1.0, duration_s=1.0, factor=2.5),
                TelemetryGap(start_s=2.0, duration_s=1.0),
                MeterDrift(start_s=3.0, duration_s=6.0,
                           bias_w=1.0, rate_w_per_s=2.0),
                MeterStuckAt(start_s=7.0, duration_s=1.0),
                MeterDropout(start_s=8.5, duration_s=0.8),
                ModelStaleness(start_s=4.0, duration_s=2.0, model=stale),
            ]),
        }

    @pytest.mark.parametrize("name", ["meter-mix", "control-mix", "everything"])
    @pytest.mark.parametrize("guarded", [False, True], ids=["noguard", "guard"])
    def test_bit_exact(self, catalog, mixed_plans, schedules, name, guarded):
        config = SimConfig(warmup_s=2.0, seed=5)
        guard = GuardConfig(deep_check_every=4) if guarded else None
        tasks = _tasks(
            mixed_plans[:-1], catalog.spec, (0.0, 0.4, 0.9), 11.0, config,
            faults=schedules[name], guard=guard,
        )
        _, fallback = partition_cells(tasks)
        assert not fallback
        for a, b in zip(_oracle(tasks), run_batched_cells(tasks)):
            assert_outcome_equal(a, b, f"{name} guarded={guarded}")


class TestGuardReportDifferential:
    """Violating runs: reports and enforce-mode raises must match."""

    def test_record_mode_violations_bit_exact(self, catalog, mixed_plans):
        config = SimConfig(warmup_s=2.0, seed=2)
        strict = GuardConfig(
            cap_margin_w=-40.0, cap_grace_steps=1,
            lc_min_cores=9, lc_min_ways=6,
        )
        tasks = _tasks(
            mixed_plans[:5], catalog.spec, (0.3, 0.8), 9.0, config,
            guard=strict,
        )
        oracle = _oracle(tasks)
        total = sum(o.result.guard_report.total_violations for o in oracle)
        assert total > 0, "scenario must actually violate"
        for a, b in zip(oracle, run_batched_cells(tasks)):
            assert_outcome_equal(a, b, "strict")

    def test_enforce_mode_raise_equivalent(self, catalog, mixed_plans):
        config = SimConfig(warmup_s=2.0, seed=2)
        enforce = GuardConfig(
            mode="enforce", cap_margin_w=-40.0, cap_grace_steps=1,
        )
        tasks = _tasks(
            mixed_plans[:5], catalog.spec, (0.3, 0.8), 9.0, config,
            guard=enforce,
        )

        def outcome(fn, *args, **kwargs):
            try:
                fn(*args, **kwargs)
                return None
            except Exception as exc:  # noqa: BLE001 - comparing raises
                return type(exc).__name__, str(exc)

        oracle = outcome(map_ordered, _run_cell, tasks)
        batched = outcome(run_batched_cells, tasks)
        assert oracle is not None, "enforce scenario must raise"
        assert oracle == batched


class TestEngineKnob:
    """run_cluster / run_policy produce identical results per engine."""

    def test_run_cluster_engines_agree(self, catalog, mixed_plans):
        kwargs = dict(
            levels=(0.2, 0.6), duration_s=7.0,
            config=SimConfig(seed=3), guard=GuardConfig(),
        )
        base = run_cluster(mixed_plans, catalog.spec, engine="object", **kwargs)
        for dedupe in (False, True):
            got = run_cluster(
                mixed_plans, catalog.spec, dedupe=dedupe,
                engine="batched", **kwargs,
            )
            assert len(got.outcomes) == len(base.outcomes)
            for a, b in zip(base.outcomes, got.outcomes):
                assert_outcome_equal(a, b, f"dedupe={dedupe}")

    def test_default_engine_context(self, catalog, mixed_plans):
        """The default engine is the oracle, equal to the batched core."""
        assert resolve_engine(None) == "object"
        kwargs = dict(levels=(0.5,), duration_s=5.0, config=SimConfig(seed=3))
        base = run_cluster(
            mixed_plans[:2], catalog.spec, engine="batched", **kwargs
        )
        got = run_cluster(mixed_plans[:2], catalog.spec, **kwargs)
        assert len(got.outcomes) == len(base.outcomes) == 2
        for a, b in zip(base.outcomes, got.outcomes):
            assert_outcome_equal(a, b, "default")

    def test_run_policy_engines_agree(self, catalog):
        kwargs = dict(levels=(0.2, 0.6), duration_s=7.0,
                      sim_config=SimConfig(seed=3))
        base = run_policy(catalog, "pocolo", engine="object", **kwargs)
        got = run_policy(catalog, "pocolo", engine="batched", **kwargs)
        assert len(base.outcomes) == len(got.outcomes)
        for a, b in zip(base.outcomes, got.outcomes):
            assert_outcome_equal(a, b, "policy")


_SWEEP_SNIPPET = """\
from repro.apps import REFERENCE_SPEC, best_effort_apps, latency_critical_apps
from repro.evaluation.pipeline import HeraclesFactory
from repro.sim.cluster import ServerPlan
from repro.sim.colocation import SimConfig


def build_sweep():
    lcs = latency_critical_apps()
    bes = best_effort_apps()
    plans = [
        ServerPlan(
            lc_app=lcs[lc], be_app=bes[be],
            provisioned_power_w=lcs[lc].peak_server_power_w(),
            manager_factory=HeraclesFactory(),
        )
        for lc, be in [("xapian", "rnn"), ("sphinx", "graph")]
    ]
    kwargs = dict(
        levels=[0.25, 0.5, 0.75], duration_s=150.0, config=SimConfig(seed=11)
    )
    return plans, REFERENCE_SPEC, kwargs
"""

_CHILD_MAIN = _SWEEP_SNIPPET + """

if __name__ == "__main__":
    import sys

    from repro.runtime import run_cluster_checkpointed

    plans, spec, kwargs = build_sweep()
    # The object engine checkpoints each cell as it finishes, so the
    # parent can kill the child between cells.
    run_cluster_checkpointed(
        plans, spec, sys.argv[1], resume=True,
        engine="object", **kwargs
    )
"""


class TestCrossEngineResume:
    """A checkpoint written under one engine resumes under the other."""

    def _flatten(self, result):
        return [
            (o.lc_name, o.be_name, o.level,
             tuple(getattr(o.result, f) for f in RESULT_FIELDS))
            for o in result.outcomes
        ]

    def test_partial_checkpoints_cross_resume(
        self, catalog, mixed_plans, tmp_path
    ):
        kwargs = dict(
            levels=(0.2, 0.6, 0.9), duration_s=10.0,
            config=SimConfig(seed=3), guard=GuardConfig(),
        )
        clean = run_cluster_checkpointed(
            mixed_plans, catalog.spec, tmp_path / "clean.ckpt",
            engine="object", **kwargs
        )
        # Full batched run equals the object run outright.
        batched = run_cluster_checkpointed(
            mixed_plans, catalog.spec, tmp_path / "batched.ckpt",
            engine="batched", **kwargs,
        )
        for a, b in zip(clean.outcomes, batched.outcomes):
            assert_outcome_equal(a, b, "full-batched")
        # Roll each checkpoint back to a partial state and resume it
        # under the *other* engine: results must not change a bit.
        for source, resume_engine, keep in [
            ("clean.ckpt", "batched", 4),
            ("batched.ckpt", "object", 3),
        ]:
            path = tmp_path / source
            checkpoint = Checkpoint.load(path)
            completed = checkpoint.payload["completed"]
            survivors = {
                i: completed[i] for i in sorted(completed)[:keep]
            }
            Checkpoint(
                run_key=checkpoint.run_key,
                payload={**checkpoint.payload, "completed": survivors},
            ).save(path)
            resumed = run_cluster_checkpointed(
                mixed_plans, catalog.spec, path, resume=True,
                engine=resume_engine, **kwargs,
            )
            for a, b in zip(clean.outcomes, resumed.outcomes):
                assert_outcome_equal(a, b, f"{source}->{resume_engine}")

    def test_sigkill_then_batched_resume(self, tmp_path):
        """A real SIGKILL mid-sweep; the survivor resumes batched."""
        script = tmp_path / "child_sweep.py"
        script.write_text(_CHILD_MAIN)
        ckpt = tmp_path / "sweep.ckpt"
        child = subprocess.Popen(
            [sys.executable, str(script), str(ckpt)],
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 60.0
            progressed = False
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    break
                if ckpt.exists():
                    extra = Checkpoint.load(ckpt).extra
                    if extra.get("cells_done", 0) >= 1:
                        progressed = True
                        break
                time.sleep(0.02)
            assert progressed, (
                "child finished or stalled before the kill: "
                f"{child.stderr.read().decode(errors='replace')}"
            )
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL

        namespace = {}
        exec(_SWEEP_SNIPPET, namespace)
        plans, spec, kwargs = namespace["build_sweep"]()
        resumed = run_cluster_checkpointed(
            plans, spec, ckpt, resume=True, engine="batched", **kwargs
        )
        clean = run_cluster(plans, spec, engine="object", **kwargs)
        assert len(resumed.outcomes) == len(clean.outcomes) == 6
        for a, b in zip(clean.outcomes, resumed.outcomes):
            assert_outcome_equal(a, b, "sigkill-resume")

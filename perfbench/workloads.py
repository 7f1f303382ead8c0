"""The benchmark's three workloads: inputs, timed calls and checks.

Every workload derives all of its inputs from one seed, which feeds
``fit_catalog``, ``SimConfig.seed`` and the placement seeds; the inputs
carry the ``SimConfig`` as ``"config"``.  Sizes are
constructor arguments so the benchmark's own tests can run each
workload at a tiny scale; the defaults are the benchmark's sizes.

A workload exposes:

* ``setup(seed)`` -- catalog fit and input generation (``setup_s``);
* ``run(inputs)`` -- the timed calls (``run_s``);
* ``outcomes(output)`` -- every cell outcome the run produced;
* ``planned(inputs, output)`` -- the cell tasks the run should have
  executed, in outcome order (re-planned after the run, outside the
  timed region);
* ``sample(n_cells)`` -- outcome positions re-run on the other engine;
* ``be_throughput(output)`` -- the Fig 12 cluster BE throughput;
* ``check(inputs, output, tracer)`` -- workload-specific correctness
  checks, returning a list of failure messages;
* ``cleanup(inputs)`` -- removes what the run wrote.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, List, Sequence, Tuple

from perfbench import checks
from perfbench.spans import Tracer
from repro.analysis import format_table
from repro.budget import BudgetConfig
from repro.evaluation import (
    FittedCatalog,
    cluster_plans,
    evaluate_all_policies,
    fit_catalog,
    placement_for_policy,
)
from repro.faults.cluster import ClusterFaultPlan, ServerCrash, ServerRejoin
from repro.faults.schedule import (
    ArbiterCrash,
    FaultSchedule,
    GrantLoss,
    LoadSpike,
    MeterDrift,
    RackPowerDerate,
)
from repro.guard.invariants import GuardConfig
from repro.runtime import run_cluster_checkpointed
from repro.sim.cluster import plan_cluster_tasks, run_cluster
from repro.sim.colocation import SimConfig
from repro.workloads.traces import UNIFORM_EVAL_LEVELS

#: Budget invariants that must stay silent on the resilient fleet.
BUDGET_INVARIANTS = ("grant-conservation", "rack-overcommit")


def _spread(total: int, count: int) -> List[int]:
    """``count`` positions spread evenly over ``range(total)``."""
    if total <= count:
        return list(range(total))
    return sorted({round(k * (total - 1) / (count - 1)) for k in range(count)})


class PaperEval:
    """``python -m repro evaluate``: three policies, Fig 12/13 tables."""

    name = "paper_eval"
    other_engine = "batched"

    def __init__(self, placement_seeds: int = 4, duration_s: float = 25.0,
                 levels: Sequence[float] = UNIFORM_EVAL_LEVELS) -> None:
        self.placement_seeds = placement_seeds
        self.duration_s = duration_s
        self.levels = tuple(levels)

    def setup(self, seed: int) -> Dict[str, Any]:
        first = self.placement_seeds * seed
        return {
            "catalog": fit_catalog(seed=seed),
            "seeds": list(range(first, first + self.placement_seeds)),
            "config": SimConfig(seed=seed),
        }

    def run(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        catalog = inputs["catalog"]
        evals = evaluate_all_policies(
            catalog, placement_seeds=inputs["seeds"], levels=self.levels,
            duration_s=self.duration_s, sim_seed=inputs["config"].seed,
        )
        servers = list(catalog.lc_apps)
        header = ["policy"] + servers + ["cluster"]
        tables = [
            format_table(header, [
                [policy] + [ev.be_throughput_by_server[s] for s in servers]
                + [ev.cluster_be_throughput]
                for policy, ev in evals.items()
            ], title="\nFig 12 — BE throughput by server"),
            format_table(header, [
                [policy] + [ev.power_utilization_by_server[s] for s in servers]
                + [ev.cluster_power_utilization]
                for policy, ev in evals.items()
            ], title="\nFig 13 — power utilization by server"),
        ]
        return {"evals": evals, "tables": tables}

    def outcomes(self, output: Dict[str, Any]) -> List[Any]:
        return [o for ev in output["evals"].values() for run in ev.runs
                for o in run.outcomes]

    def planned(self, inputs: Dict[str, Any], output: Any) -> List[Tuple]:
        catalog = inputs["catalog"]
        config = inputs["config"]
        tasks: List[Tuple] = []
        for policy in ("random", "pom", "pocolo"):
            seeds = inputs["seeds"] if policy != "pocolo" else [0]
            for seed in seeds:
                placement = placement_for_policy(
                    catalog, policy, seed=seed, levels=self.levels)
                plans = cluster_plans(catalog, placement, policy)
                tasks.extend(plan_cluster_tasks(
                    plans, catalog.spec, self.levels, self.duration_s, config)[0])
        return tasks

    def sample(self, n_cells: int) -> List[int]:
        return _spread(n_cells, 8)

    def be_throughput(self, output: Dict[str, Any]) -> float:
        return float(output["evals"]["pocolo"].cluster_be_throughput)

    def check(self, inputs: Dict[str, Any], output: Dict[str, Any],
              tracer: Tracer) -> List[str]:
        # The headline ordering the repo itself asserts
        # (tests/test_integration.py): POColo > Random by 3% and POColo
        # within 0.01 of POM or above.  POM >= Random holds on average
        # over placements, not on every four of them: with the catalog
        # fitted from seed 17 or 24, POM trails Random by about 0.01.
        by = {p: ev.cluster_be_throughput for p, ev in output["evals"].items()}
        failures = []
        if not (by["pocolo"] > by["random"] * 1.03
                and by["pocolo"] >= by["pom"] - 0.01):
            failures.append(f"Fig 12 order POColo > POM ~ Random broken: {by}")
        if not all(len(table) > 0 for table in output["tables"]):
            failures.append("Fig 12/13 tables came out empty")
        return failures

    def cleanup(self, inputs: Dict[str, Any]) -> None:
        pass


class FleetWide:
    """``run_cluster`` over ~10 000 replicas of the four POColo plans."""

    name = "fleet_wide"
    other_engine = "object"

    def __init__(self, servers: int = 10_000, duration_s: float = 3.0,
                 levels: Sequence[float] = (0.3, 0.6, 0.9)) -> None:
        self.servers = servers
        self.duration_s = duration_s
        self.levels = tuple(levels)

    def setup(self, seed: int) -> Dict[str, Any]:
        catalog = fit_catalog(seed=seed)
        placement = placement_for_policy(catalog, "pocolo", seed=seed)
        templates = cluster_plans(catalog, placement, "pocolo")
        return {
            "catalog": catalog,
            "plans": [templates[i % len(templates)] for i in range(self.servers)],
            "config": SimConfig(seed=seed),
        }

    def run(self, inputs: Dict[str, Any]) -> Any:
        return run_cluster(
            inputs["plans"], inputs["catalog"].spec, levels=self.levels,
            duration_s=self.duration_s, config=inputs["config"],
            engine="batched", dedupe=False,
        )

    def outcomes(self, output: Any) -> List[Any]:
        return list(output.outcomes)

    def planned(self, inputs: Dict[str, Any], output: Any) -> List[Tuple]:
        return plan_cluster_tasks(
            inputs["plans"], inputs["catalog"].spec, self.levels,
            self.duration_s, inputs["config"])[0]

    def sample(self, n_cells: int) -> List[int]:
        # Cells are server-major and servers 0..3 are the four templates:
        # one cell per distinct (template, level).
        return list(range(min(n_cells, 4 * len(self.levels))))

    def be_throughput(self, output: Any) -> float:
        return float(output.cluster_be_throughput())

    def check(self, inputs: Dict[str, Any], output: Any,
              tracer: Tracer) -> List[str]:
        return []

    def cleanup(self, inputs: Dict[str, Any]) -> None:
        pass


def _renamed(app: Any, name: str) -> Any:
    """The same application under another profile name."""
    return dataclasses.replace(app, profile=dataclasses.replace(app.profile, name=name))


class ResilientFleet:
    """Placement, budgets, faults and checkpoints on a 48-server fleet."""

    name = "resilient_fleet"
    other_engine = "object"

    def __init__(self, servers: int = 48, duration_s: float = 60.0,
                 levels: Sequence[float] = (0.2, 0.4, 0.6, 0.8),
                 out_dir: str = ".") -> None:
        if servers < 8:
            raise ValueError("the resilient fleet needs at least two racks")
        self.servers = servers
        self.duration_s = duration_s
        self.levels = tuple(levels)
        self.out_dir = out_dir

    def setup(self, seed: int) -> Dict[str, Any]:
        base = fit_catalog(seed=seed)
        lc_names, be_names = list(base.lc_apps), list(base.be_apps)
        lc_apps, be_apps, lc_fits, be_fits = {}, {}, {}, {}
        for k in range(self.servers):
            lc = lc_names[k % len(lc_names)]
            name = f"{lc}-{k:02d}"
            lc_apps[name] = _renamed(base.lc_apps[lc], name)
            lc_fits[name] = base.lc_fits[lc]
            be = be_names[k % len(be_names)]
            name = f"{be}-{k:02d}"
            be_apps[name] = _renamed(base.be_apps[be], name)
            be_fits[name] = base.be_fits[be]
        catalog = FittedCatalog(spec=base.spec, lc_apps=lc_apps, be_apps=be_apps,
                                lc_fits=lc_fits, be_fits=be_fits)
        victim = list(lc_apps)[5]
        horizon = self.duration_s * len(self.levels)
        fault_plan = ClusterFaultPlan(
            crashes=(ServerCrash(victim, at_level_index=1),),
            rejoins=(ServerRejoin(victim, at_level_index=len(self.levels) - 1),),
            cell_faults=FaultSchedule([
                MeterDrift(start_s=self.duration_s / 6, duration_s=self.duration_s / 3,
                           rate_w_per_s=0.5),
                LoadSpike(start_s=self.duration_s / 2, duration_s=self.duration_s / 6,
                          factor=1.3),
            ]),
            infra_faults=FaultSchedule([
                RackPowerDerate(start_s=horizon / 8, duration_s=horizon / 4,
                                factor=0.6, rack="rack1"),
                ArbiterCrash(start_s=horizon * 5 / 12, duration_s=horizon / 12),
                GrantLoss(start_s=horizon * 5 / 8, duration_s=horizon / 24),
            ]),
        )
        return {
            "catalog": catalog,
            "fault_plan": fault_plan,
            "config": SimConfig(seed=seed),
            "budget": BudgetConfig(rack_size=4),
            "guard": GuardConfig(),
            "checkpoint": os.path.join(
                self.out_dir, f"{self.name}-{seed}-{os.getpid()}.ckpt"),
        }

    def _sweep(self, inputs: Dict[str, Any], plans: Sequence[Any],
               resume: bool) -> Any:
        return run_cluster_checkpointed(
            plans, inputs["catalog"].spec, inputs["checkpoint"],
            levels=self.levels, duration_s=self.duration_s,
            config=inputs["config"], fault_plan=inputs["fault_plan"],
            engine="batched", budget=inputs["budget"], guard=inputs["guard"],
            resume=resume,
        )

    def run(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        catalog = inputs["catalog"]
        placement = placement_for_policy(catalog, "pocolo")
        plans = cluster_plans(catalog, placement, "pocolo")
        return {"plans": plans, "result": self._sweep(inputs, plans, resume=False)}

    def outcomes(self, output: Dict[str, Any]) -> List[Any]:
        return list(output["result"].outcomes)

    def planned(self, inputs: Dict[str, Any], output: Dict[str, Any]) -> List[Tuple]:
        catalog = inputs["catalog"]
        return plan_cluster_tasks(
            output["plans"], catalog.spec, self.levels, self.duration_s, inputs["config"],
            inputs["fault_plan"], guard=inputs["guard"], budget=inputs["budget"])[0]

    def sample(self, n_cells: int) -> List[int]:
        return _spread(n_cells, 8)

    def be_throughput(self, output: Dict[str, Any]) -> float:
        return float(output["result"].cluster_be_throughput())

    def check(self, inputs: Dict[str, Any], output: Dict[str, Any],
              tracer: Tracer) -> List[str]:
        result = output["result"]
        failures = []
        report = result.budget_report
        audit = report.guard_report if report is not None else None
        if audit is None:
            failures.append("budgeted sweep carries no budget audit")
        else:
            bad = {name: audit.count(name) for name in BUDGET_INVARIANTS}
            if audit.truncated or any(bad.values()):
                failures.append(f"budget invariants violated: {bad}")
        faults = result.fault_report
        if faults is None or (faults.crashes_handled, faults.rejoins_handled) != (1, 1):
            failures.append(f"crash/rejoin not handled once each: {faults}")
        with tracer.root("resume") as counts:
            resumed = self._sweep(inputs, output["plans"], resume=True)
        recomputed = counts.get("batched.lanes", 0) + counts.get("oracle.cells", 0)
        if recomputed:
            failures.append(f"resume from the final checkpoint recomputed "
                            f"{recomputed} cells")
        if len(resumed.outcomes) != len(result.outcomes):
            failures.append("resumed sweep has a different cell count")
        for position, (a, b) in enumerate(zip(result.outcomes, resumed.outcomes)):
            diff = checks.outcome_diff(a, b)
            if diff:
                failures.append(f"resumed cell {position} differs: {diff}")
                break
        if (resumed.fault_report, resumed.budget_report) != (faults, report):
            failures.append("resumed sweep's fault or budget report differs")
        return failures

    def cleanup(self, inputs: Dict[str, Any]) -> None:
        path = inputs["checkpoint"]
        if os.path.exists(path):
            os.remove(path)


WORKLOADS = {cls.name: cls for cls in (PaperEval, FleetWide, ResilientFleet)}


def make(name: str, out_dir: str) -> Any:
    """The named workload at the benchmark's own size."""
    if name == ResilientFleet.name:
        return ResilientFleet(out_dir=out_dir)
    return WORKLOADS[name]()

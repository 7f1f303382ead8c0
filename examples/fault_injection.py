#!/usr/bin/env python3
"""Fault injection and graceful degradation, end to end.

Three demonstrations of the `repro.faults` subsystem:

1. **Stuck power meter** — a server's socket meter freezes mid-run; the
   cap loop's watchdog notices the stale readings, enters safe mode
   (best-effort tenant pinned to its floor), and the true power stays
   honest while the sensor lies.
2. **Stale model + telemetry gap + load spike** — the POM manager is
   handed a mis-fitted model mid-run while telemetry drops and load
   surges; the model-distrust fallback keeps the SLO protected.
3. **Server crash in a cluster sweep** — one LC server dies between load
   levels; its displaced best-effort app is re-placed onto a surviving
   server and the cluster keeps earning BE throughput.

Run:  python examples/fault_injection.py
"""

from repro.analysis import FAULT_COLUMNS, counter_map, format_counters
from repro.core.server_manager import PowerOptimizedManager
from repro.evaluation import cluster_plans, fit_catalog, placement_for_policy
from repro.faults import (
    ClusterFaultPlan,
    FaultSchedule,
    LoadSpike,
    MeterStuckAt,
    ModelStaleness,
    ServerCrash,
    TelemetryGap,
)
from repro.sim import ColocationSim, SimConfig, build_colocated_server, run_cluster
from repro.workloads import ConstantTrace


def build_sim(catalog, faults=None, lc_name="xapian", be_name="rnn"):
    lc = catalog.lc_apps[lc_name]
    be = catalog.be_apps[be_name]
    server = build_colocated_server(
        catalog.spec, lc, provisioned_power_w=lc.peak_server_power_w(), be_app=be
    )
    manager = PowerOptimizedManager(server, model=catalog.lc_fits[lc_name].model)
    return ColocationSim(
        server=server, lc_app=lc, trace=ConstantTrace(0.5), manager=manager,
        be_app=be, config=SimConfig(seed=0), faults=faults,
    )


def main() -> None:
    catalog = fit_catalog(seed=7)

    # ------------------------------------------------------------------
    # 1. Stuck meter -> watchdog safe mode.
    # ------------------------------------------------------------------
    clean = build_sim(catalog).run(duration_s=40.0)
    stuck = build_sim(
        catalog, faults=FaultSchedule([MeterStuckAt(start_s=15.0, duration_s=15.0)])
    ).run(duration_s=40.0)
    print("Stuck meter (t=15s..30s):")
    print(f"  fault-free: over-cap frac {clean.cap_stats.over_cap_fraction:.3f}, "
          f"safe-mode steps {clean.cap_stats.safe_mode_steps}")
    print(f"  stuck:      over-cap frac {stuck.cap_stats.over_cap_fraction:.3f}, "
          f"safe-mode steps {stuck.cap_stats.safe_mode_steps} "
          f"(watchdog trips: {stuck.cap_stats.watchdog_trips})")
    print()

    # ------------------------------------------------------------------
    # 2. Stale model + telemetry gap + load spike -> model distrust.
    # ------------------------------------------------------------------
    # An overconfident mis-fit: claims 3x the real capacity everywhere,
    # so the model keeps promising allocations that starve the SLO.
    from dataclasses import replace

    true_model = catalog.lc_fits["xapian"].model
    stale_model = replace(
        true_model,
        perf=replace(true_model.perf, alpha0=true_model.perf.alpha0 * 3.0),
    )
    schedule = FaultSchedule([
        ModelStaleness(start_s=10.0, duration_s=20.0, model=stale_model),
        TelemetryGap(start_s=12.0, duration_s=4.0),
        LoadSpike(start_s=25.0, duration_s=5.0, factor=1.5),
    ])
    print("Fault schedule:")
    for line in schedule.describe():
        print(f"  {line}")
    faulted = build_sim(catalog, faults=schedule).run(duration_s=40.0)
    print(f"  SLO violation fraction: {faulted.slo_violation_fraction:.3f} "
          f"(fault-free: {clean.slo_violation_fraction:.3f})")
    print(f"  model-distrust fallbacks: {faulted.manager_stats.model_fallbacks}")
    print()
    print(format_counters([
        ("fault-free", counter_map(clean)),
        ("stuck meter", counter_map(stuck)),
        ("stale model", counter_map(faulted)),
    ], FAULT_COLUMNS, title="Degradation under faults"))
    print()

    # ------------------------------------------------------------------
    # 3. Cluster crash -> re-placement of the displaced BE app.
    # ------------------------------------------------------------------
    placement = placement_for_policy(catalog, "pocolo")
    plans = cluster_plans(catalog, placement, "pocolo")
    crashed = plans[0].lc_app.name
    fault_plan = ClusterFaultPlan(crashes=(ServerCrash(crashed, at_level_index=1),))
    levels = [0.3, 0.5, 0.7]
    run = run_cluster(plans, catalog.spec, levels=levels, duration_s=12.0,
                      config=SimConfig(seed=0, warmup_s=5.0),
                      fault_plan=fault_plan)
    report = run.fault_report
    print(f"Cluster crash: server {crashed!r} dies before level {levels[1]}")
    for r in report.replacements:
        dest = r.to_lc if r.to_lc is not None else "(parked)"
        print(f"  displaced BE {r.be_name!r}: {r.from_lc} -> {dest}")
    print(f"  degraded cells: {report.degraded_cells}, "
          f"solver fallbacks: {report.solver_fallbacks}")
    print(f"  cluster BE throughput retained: {run.cluster_be_throughput():.3f}")


if __name__ == "__main__":
    main()

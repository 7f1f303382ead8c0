"""Coverage-guided chaos campaigns against the colocation control stack.

A guarded simulation (:mod:`repro.guard.invariants`) tells you whether
one run upheld the safety contracts; a *campaign* goes looking for runs
that don't.  The search is the classic greybox-fuzzing loop, with fault
schedules as inputs and the stack's own degradation counters as the
coverage signal:

1. seed a corpus of :class:`~repro.faults.schedule.FaultSchedule` inputs
   (the empty schedule plus a few random mixes);
2. mutate schedules drawn from the corpus (add/drop/shift/stretch/
   intensify faults) with a seeded generator;
3. run each mutant through a guarded, *record-mode* colocation cell —
   in order, through :func:`~repro.engine.parallel.map_ordered`;
4. keep mutants that light up new coverage — a new combination of
   degradation counters (:class:`~repro.hwmodel.capping.CapStats`,
   :class:`~repro.core.server_manager.ManagerStats`) at a new order of
   magnitude — so the search walks toward the rarely-exercised corners
   (watchdog trips, safe-mode churn, solver fallbacks);
5. when a schedule produces invariant violations, *shrink* it: greedily
   drop faults and soften magnitudes while the violation reproduces,
   yielding a minimal reproducer fit for a pinned regression fixture
   (:mod:`repro.guard.fixtures`).

Everything is deterministic for a fixed
(:class:`CampaignConfig` seed, runner): mutation draws come from one
seeded generator in the parent process, cells are pure functions of
their schedules, and results are collected in submission order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.apps.best_effort import BestEffortApp
from repro.apps.latency_critical import LatencyCriticalApp
from repro.engine.parallel import map_ordered
from repro.errors import ConfigError
from repro.faults.schedule import (
    ArbiterCrash,
    Fault,
    FaultSchedule,
    GrantDelay,
    GrantLoss,
    LoadSpike,
    MeterDrift,
    MeterDropout,
    MeterStuckAt,
    RackBreakerTrip,
    RackPowerDerate,
    TelemetryGap,
)
from repro.guard.invariants import GuardConfig, GuardReport, Violation
from repro.hwmodel.server import Server
from repro.hwmodel.spec import ServerSpec
# Submodule import, not ``from repro.sim import``: repro.sim's package
# __init__ pulls in the cluster layer, which imports repro.guard — the
# direct submodule path keeps that cycle unwound during package init.
from repro.sim.colocation import (
    CapperFactory,
    ColocationSim,
    SimConfig,
    build_colocated_server,
)
from repro.workloads.traces import ConstantTrace

if TYPE_CHECKING:  # pragma: no cover - cluster/budget layers sit above
    from repro.budget.arbiter import BudgetConfig
    from repro.sim.cluster import ServerPlan

#: Builds a manager for a freshly assembled campaign server (mirrors
#: :data:`repro.sim.cluster.ManagerFactory`; restated here to keep this
#: module off the cluster layer).
ManagerFactory = Callable[[Server], "object"]

#: CapStats fields that count graceful degradation (coverage signal).
CAP_COUNTERS: Tuple[str, ...] = (
    "watchdog_trips",
    "safe_mode_entries",
    "safe_mode_steps",
    "throttle_events",
    "restore_events",
    "duty_limited_samples",
    "over_cap_samples",
)

#: ManagerStats fields that count graceful degradation (coverage signal).
MANAGER_COUNTERS: Tuple[str, ...] = (
    "model_fallbacks",
    "model_fallback_steps",
    "solver_fallbacks",
)

#: One coverage point: a counter name at an order-of-magnitude bucket.
CoveragePoint = Tuple[str, int]
CoverageSignature = FrozenSet[CoveragePoint]


@dataclass(frozen=True)
class CampaignConfig:
    """Search knobs of one campaign; frozen so runs are reproducible.

    ``rounds`` mutation rounds of ``batch_size`` mutants each follow the
    ``initial_corpus`` seed inputs, so the total evaluation budget is
    ``initial_corpus + rounds * batch_size`` cells (plus shrinking).
    Fault windows are drawn inside ``[0, horizon_s)`` — normally the
    runner's simulated duration.  ``shrink_budget`` bounds the extra
    serial evaluations spent minimizing each violating schedule.
    """

    seed: int = 0
    rounds: int = 8
    batch_size: int = 4
    initial_corpus: int = 4
    horizon_s: float = 30.0
    max_faults: int = 4
    mean_duration_s: float = 8.0
    shrink_budget: int = 32
    stop_on_violation: bool = True
    #: Include the power-infrastructure family (rack derates/trips,
    #: arbiter crashes, grant loss/delay) in the mutation pool.  Only
    #: meaningful with a budget-aware runner (cell runners ignore infra
    #: faults, wasting the campaign's budget on no-ops).
    infra_faults: bool = False

    def __post_init__(self) -> None:
        if self.rounds < 0 or self.batch_size < 1 or self.initial_corpus < 1:
            raise ConfigError(
                "campaign needs rounds >= 0, batch_size >= 1 and at least "
                "one initial corpus entry"
            )
        if self.horizon_s <= 0 or self.mean_duration_s <= 0:
            raise ConfigError("fault horizon and mean duration must be positive")
        if self.max_faults < 1:
            raise ConfigError("campaign schedules need room for one fault")
        if self.shrink_budget < 0:
            raise ConfigError("shrink budget cannot be negative")


@dataclass(frozen=True)
class ColocationCaseRunner:
    """One guarded colocation cell as a pure function of a fault schedule.

    A frozen value object (apps, specs and the pipeline's manager
    factories are plain data), so a case is fully determined by its
    schedule, exactly like a cluster-sweep cell.  The guard must be in
    ``record`` mode: a campaign *observes* violations and keeps
    searching — enforce mode would abort the very case that found one.

    ``capper_factory`` swaps the power-cap loop for a double — the hook
    regression tests use to plant a known-buggy controller and prove the
    campaign detects and shrinks it.
    """

    lc_app: LatencyCriticalApp
    manager_factory: ManagerFactory
    spec: ServerSpec
    provisioned_power_w: float
    be_app: Optional[BestEffortApp] = None
    level: float = 0.5
    duration_s: float = 20.0
    config: SimConfig = SimConfig()
    guard: GuardConfig = GuardConfig()
    capper_factory: Optional[CapperFactory] = None

    def __post_init__(self) -> None:
        if self.guard.enforcing:
            raise ConfigError(
                "campaign runners need a record-mode guard: enforce mode "
                "would kill the case instead of reporting its violations"
            )
        if not 0.0 <= self.level <= 1.0:
            raise ConfigError("load level must lie in [0, 1]")
        if self.duration_s <= 0:
            raise ConfigError("duration must be positive")

    def run(self, schedule: FaultSchedule) -> "CaseOutcome":
        """Execute one guarded cell under ``schedule`` and summarize it."""
        server = build_colocated_server(
            spec=self.spec,
            lc_app=self.lc_app,
            provisioned_power_w=self.provisioned_power_w,
            be_app=self.be_app,
            name=f"{self.lc_app.name}-campaign",
        )
        manager = self.manager_factory(server)
        sim = ColocationSim(
            server=server,
            lc_app=self.lc_app,
            trace=ConstantTrace(self.level),
            manager=manager,  # type: ignore[arg-type]
            be_app=self.be_app,
            config=self.config,
            faults=schedule if len(schedule) else None,
            guard=self.guard,
            capper_factory=self.capper_factory,
        )
        result = sim.run(self.duration_s)
        counters = dict(degradation_counters(result))
        report = result.guard_report
        if report is None:  # pragma: no cover - guarded by construction
            raise ConfigError("guarded run produced no guard report")
        return CaseOutcome(
            schedule=schedule,
            report=report,
            counters=tuple(sorted(counters.items())),
        )


def degradation_counters(result: "object") -> Dict[str, int]:
    """Extract the degradation-counter coverage signal from one result.

    Names are prefixed ``cap.`` / ``manager.`` after their source stats
    object; only the graceful-degradation counters participate (total
    sample/step counts would make every input "new coverage").
    """
    counters: Dict[str, int] = {}
    cap_stats = getattr(result, "cap_stats")
    for name in CAP_COUNTERS:
        counters[f"cap.{name}"] = int(getattr(cap_stats, name))
    manager_stats = getattr(result, "manager_stats")
    for name in MANAGER_COUNTERS:
        counters[f"manager.{name}"] = int(getattr(manager_stats, name))
    return counters


def coverage_signature(
    counters: Dict[str, int], report: GuardReport
) -> CoverageSignature:
    """Bucket counters into the AFL-style coverage signature.

    Each nonzero counter contributes ``(name, bit_length(count))`` — a
    power-of-two bucket, so "the watchdog tripped at all" and "the
    watchdog tripped an order of magnitude more" are distinct coverage
    while 17 vs 18 trips are not.  Violated invariants contribute their
    own points, pulling the search toward inputs *near* a violation.
    """
    points = {
        (name, count.bit_length())
        for name, count in counters.items()
        if count
    }
    by_invariant: Dict[str, int] = {}
    for violation in report.violations:
        by_invariant[violation.invariant] = (
            by_invariant.get(violation.invariant, 0) + 1
        )
    for invariant, count in by_invariant.items():
        points.add((f"violation.{invariant}", count.bit_length()))
    return frozenset(points)


@dataclass(frozen=True)
class CaseOutcome:
    """One evaluated campaign case: its schedule, report and coverage."""

    schedule: FaultSchedule
    report: GuardReport
    counters: Tuple[Tuple[str, int], ...]

    @property
    def coverage(self) -> CoverageSignature:
        """The case's coverage signature (see :func:`coverage_signature`)."""
        return coverage_signature(dict(self.counters), self.report)

    @property
    def violating(self) -> bool:
        """True when any invariant was violated during the case."""
        return not self.report.clean

    def violated_invariants(self) -> Tuple[str, ...]:
        """Distinct violated invariant names, in first-violation order."""
        seen: List[str] = []
        for violation in self.report.violations:
            if violation.invariant not in seen:
                seen.append(violation.invariant)
        return tuple(seen)


#: The power-infrastructure fault family: consumed at plan time by the
#: budget arbiter, never delivered to individual cells.
_INFRA_FAULTS = (
    RackPowerDerate, RackBreakerTrip, ArbiterCrash, GrantLoss, GrantDelay,
)

#: Budget counters that participate in coverage — degradation signals
#: only; tick/grant totals are invariant across inputs of one runner
#: and would bucket every case identically anyway.
BUDGET_COUNTERS: Tuple[str, ...] = (
    "budget.skipped_ticks",
    "budget.grants_expired",
    "budget.grants_lost",
    "budget.grants_delayed",
    "budget.brownout_entries",
    "budget.throttle_ticks",
    "budget.evict_ticks",
    "budget.shed_ticks",
    "budget.evicted_cells",
    "budget.shed_cells",
    "budget.max_stage",
)


@dataclass(frozen=True)
class BudgetCaseRunner:
    """One guarded, *budgeted* mini-cluster sweep as a function of a
    fault schedule.

    The budget twin of :class:`ColocationCaseRunner` for campaigns with
    ``infra_faults`` on: the genome schedule is split into its
    power-infrastructure faults (fed to the lease arbiter at plan time
    via ``ClusterFaultPlan.infra_faults``) and its cell faults (shared
    by every surviving cell), then the whole fleet runs under the
    budget's cap schedules.  Coverage merges the per-cell degradation
    counters with the arbiter's ``budget.*`` counters, so mutants that
    push the brownout ladder deeper or expire more leases light up new
    signatures; the returned report folds in the plan-time budget
    audit, letting the campaign shrink schedules that break the
    grant-conservation or rack-overcommit contracts too.
    """

    plans: Tuple["ServerPlan", ...]
    spec: ServerSpec
    levels: Tuple[float, ...] = (0.3, 0.6, 0.9)
    duration_s: float = 8.0
    config: SimConfig = SimConfig()
    guard: GuardConfig = GuardConfig()
    budget: Optional["BudgetConfig"] = None

    def __post_init__(self) -> None:
        if not self.plans:
            raise ConfigError("budget campaigns need at least one plan")
        if self.guard.enforcing:
            raise ConfigError(
                "campaign runners need a record-mode guard: enforce mode "
                "would kill the case instead of reporting its violations"
            )
        if not self.levels or any(
            not 0.0 <= level <= 1.0 for level in self.levels
        ):
            raise ConfigError("load levels must lie in [0, 1]")
        if self.duration_s <= 0:
            raise ConfigError("duration must be positive")

    def run(self, schedule: FaultSchedule) -> "CaseOutcome":
        """Execute one budgeted sweep under ``schedule``; summarize it."""
        # Imported lazily: the cluster and budget layers sit above this
        # module (repro.sim's package __init__ imports repro.guard).
        from repro.budget.arbiter import BudgetConfig
        from repro.faults.cluster import ClusterFaultPlan
        from repro.sim.cluster import run_cluster

        infra = [f for f in schedule if isinstance(f, _INFRA_FAULTS)]
        cell = [f for f in schedule if not isinstance(f, _INFRA_FAULTS)]
        fault_plan = ClusterFaultPlan(
            cell_faults=FaultSchedule(cell) if cell else None,
            infra_faults=FaultSchedule(infra) if infra else None,
        )
        budget = self.budget if self.budget is not None else BudgetConfig()
        result = run_cluster(
            list(self.plans), self.spec, levels=self.levels,
            duration_s=self.duration_s, config=self.config,
            fault_plan=fault_plan, guard=self.guard, budget=budget,
        )
        counters: Dict[str, int] = {}
        checks = 0
        total = 0
        violations: List[Violation] = []
        for outcome in result.outcomes:
            for name, value in degradation_counters(outcome.result).items():
                counters[name] = counters.get(name, 0) + value
            report = outcome.result.guard_report
            if report is not None:
                checks += report.checks
                total += report.total_violations
                violations.extend(report.violations)
        budget_report = result.budget_report
        if budget_report is not None:
            merged = budget_report.counters()
            for name in BUDGET_COUNTERS:
                counters[name] = counters.get(name, 0) + int(merged[name])
            audit = budget_report.guard_report
            if audit is not None:
                checks += audit.checks
                total += audit.total_violations
                violations.extend(audit.violations)
        report = GuardReport(
            mode=self.guard.mode,
            checks=checks,
            total_violations=total,
            violations=tuple(violations[: self.guard.max_violations]),
        )
        return CaseOutcome(
            schedule=schedule,
            report=report,
            counters=tuple(sorted(counters.items())),
        )


def _evaluate_case(
    runner: ColocationCaseRunner, schedule: FaultSchedule
) -> CaseOutcome:
    """Module-level wrapper around ``runner.run`` for ``map_ordered``."""
    return runner.run(schedule)


# ----------------------------------------------------------------------
# Mutation
# ----------------------------------------------------------------------

def _random_fault(
    rng: np.random.Generator,
    horizon_s: float,
    mean_duration_s: float,
    infra: bool = False,
) -> Fault:
    """Draw one fault, mirroring :meth:`FaultSchedule.random`'s mix
    (plus meter dropout, which the soak mix omits).

    With ``infra`` the pool widens to the power-infrastructure family;
    rack-scoped faults target rack0/rack1 (a fault naming a rack the
    budget tree lacks is a no-op, which the coverage signal discards).
    """
    start = float(rng.uniform(0.0, horizon_s * 0.8))
    duration = float(min(
        max(1.0, rng.exponential(mean_duration_s)),
        horizon_s - start,
    ))
    kind = int(rng.integers(10 if infra else 5))
    if kind == 5:
        factor = float(rng.uniform(0.3, 0.9))
        return RackPowerDerate(
            start, duration, rack=f"rack{int(rng.integers(2))}", factor=factor
        )
    if kind == 6:
        residual = float(rng.uniform(0.0, 0.6))
        return RackBreakerTrip(
            start, duration, rack=f"rack{int(rng.integers(2))}",
            residual=residual,
        )
    if kind == 7:
        return ArbiterCrash(start, duration)
    if kind == 8:
        return GrantLoss(start, duration)
    if kind == 9:
        return GrantDelay(
            start, duration, delay_s=float(rng.uniform(0.5, 8.0))
        )
    if kind == 0:
        if float(rng.uniform()) < 0.5:
            # Pinned low — the dangerous direction for a cap loop: the
            # controller sees comfortable headroom while true draw
            # climbs.  Half the stuck draws start here so the search
            # does not depend on an intensify mutation to reach it.
            return MeterStuckAt(
                start, duration, value_w=float(rng.uniform(0.0, 60.0))
            )
        return MeterStuckAt(start, duration)
    if kind == 1:
        rate = float(rng.uniform(-2.0, 2.0))
        return MeterDrift(start, duration, rate_w_per_s=rate)
    if kind == 2:
        return TelemetryGap(start, duration)
    if kind == 3:
        factor = float(rng.uniform(1.2, 2.0))
        return LoadSpike(start, duration, factor=factor)
    return MeterDropout(start, duration)


def _intensify(fault: Fault, rng: np.random.Generator) -> Fault:
    """Make one fault harsher without leaving its validity envelope."""
    if isinstance(fault, RackPowerDerate):
        factor = max(0.05, fault.factor * float(rng.uniform(0.5, 0.9)))
        return dataclasses.replace(fault, factor=factor)
    if isinstance(fault, RackBreakerTrip):
        return dataclasses.replace(fault, residual=fault.residual / 2.0)
    if isinstance(fault, GrantDelay):
        delay = min(30.0, fault.delay_s * float(rng.uniform(1.3, 2.0)))
        return dataclasses.replace(fault, delay_s=delay)
    if isinstance(fault, MeterDrift):
        scale = float(rng.uniform(1.3, 2.0))
        return dataclasses.replace(fault, rate_w_per_s=fault.rate_w_per_s * scale)
    if isinstance(fault, LoadSpike):
        factor = min(3.0, fault.factor * float(rng.uniform(1.1, 1.5)))
        return dataclasses.replace(fault, factor=factor)
    if isinstance(fault, MeterStuckAt):
        # Pinning the output low is the dangerous direction for a cap.
        return dataclasses.replace(fault, value_w=float(rng.uniform(0.0, 60.0)))
    # Gap/dropout faults intensify by lasting longer.
    duration = fault.duration_s
    if duration is not None:
        return dataclasses.replace(
            fault, duration_s=duration * float(rng.uniform(1.2, 1.8))
        )
    return fault


def mutate_schedule(
    schedule: FaultSchedule,
    rng: np.random.Generator,
    config: CampaignConfig,
) -> FaultSchedule:
    """One seeded mutation step: add, drop, shift, stretch or intensify.

    Only applicable operators are drawn (an empty schedule can only gain
    a fault; a full one cannot), so every call changes the schedule.
    """
    faults = list(schedule.faults)
    ops: List[str] = []
    if len(faults) < config.max_faults:
        ops.append("add")
    if faults:
        ops.extend(("drop", "shift", "stretch", "intensify"))
    op = ops[int(rng.integers(len(ops)))]
    if op == "add":
        faults.append(_random_fault(
            rng, config.horizon_s, config.mean_duration_s,
            infra=config.infra_faults,
        ))
    elif op == "drop":
        faults.pop(int(rng.integers(len(faults))))
    elif op == "shift":
        index = int(rng.integers(len(faults)))
        faults[index] = dataclasses.replace(
            faults[index],
            start_s=float(rng.uniform(0.0, config.horizon_s * 0.8)),
        )
    elif op == "stretch":
        index = int(rng.integers(len(faults)))
        duration = faults[index].duration_s
        if duration is not None:
            faults[index] = dataclasses.replace(
                faults[index],
                duration_s=max(1.0, duration * float(rng.uniform(0.5, 2.0))),
            )
    else:
        index = int(rng.integers(len(faults)))
        faults[index] = _intensify(faults[index], rng)
    return FaultSchedule(faults)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ShrinkResult:
    """A minimized violating schedule and what the search cost."""

    schedule: FaultSchedule
    evaluations: int


def _soften(fault: Fault) -> Optional[Fault]:
    """One step toward benign for a fault's magnitude; None when spent."""
    if isinstance(fault, RackPowerDerate) and fault.factor < 0.85:
        return dataclasses.replace(
            fault, factor=fault.factor + (0.9 - fault.factor) / 2.0
        )
    if isinstance(fault, RackBreakerTrip) and fault.residual < 0.45:
        return dataclasses.replace(
            fault, residual=fault.residual + (0.5 - fault.residual) / 2.0
        )
    if isinstance(fault, GrantDelay) and fault.delay_s > 0.5:
        return dataclasses.replace(fault, delay_s=fault.delay_s / 2.0)
    if isinstance(fault, MeterDrift) and abs(fault.rate_w_per_s) > 0.25:
        return dataclasses.replace(fault, rate_w_per_s=fault.rate_w_per_s / 2.0)
    if isinstance(fault, LoadSpike) and fault.factor > 1.1:
        return dataclasses.replace(
            fault, factor=1.0 + (fault.factor - 1.0) / 2.0
        )
    duration = fault.duration_s
    if duration is not None and duration > 2.0:
        return dataclasses.replace(fault, duration_s=duration / 2.0)
    return None


def shrink_schedule(
    runner: ColocationCaseRunner,
    schedule: FaultSchedule,
    invariants: Sequence[str],
    budget: int,
) -> ShrinkResult:
    """Minimize a violating schedule while it still violates.

    Delta-debugging in two greedy passes, re-run after every accepted
    step and bounded by ``budget`` evaluations:

    1. **drop** — remove one fault at a time; keep the removal if any of
       the original ``invariants`` still fires;
    2. **soften** — halve magnitudes (drift rate, spike factor,
       durations) toward benign, one fault at a time, same acceptance.

    The result is the reproducer worth pinning: typically one fault with
    the smallest magnitude that still breaks the contract.
    """
    wanted = frozenset(invariants)
    evaluations = 0

    def still_violates(candidate: FaultSchedule) -> bool:
        nonlocal evaluations
        evaluations += 1
        outcome = runner.run(candidate)
        return bool(wanted & frozenset(outcome.violated_invariants()))

    current = schedule
    improved = True
    while improved and evaluations < budget:
        improved = False
        for index in range(len(current.faults)):
            if len(current.faults) <= 1 or evaluations >= budget:
                break
            candidate = FaultSchedule(
                current.faults[:index] + current.faults[index + 1:]
            )
            if still_violates(candidate):
                current = candidate
                improved = True
                break
    improved = True
    while improved and evaluations < budget:
        improved = False
        for index, fault in enumerate(current.faults):
            if evaluations >= budget:
                break
            softened = _soften(fault)
            if softened is None:
                continue
            faults = list(current.faults)
            faults[index] = softened
            candidate = FaultSchedule(faults)
            if still_violates(candidate):
                current = candidate
                improved = True
                break
    return ShrinkResult(schedule=current, evaluations=evaluations)


# ----------------------------------------------------------------------
# The campaign loop
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ViolationCase:
    """One violation the campaign found, with its minimal reproducer."""

    schedule: FaultSchedule
    shrunk: FaultSchedule
    invariants: Tuple[str, ...]
    report: GuardReport
    shrink_evaluations: int


@dataclass(frozen=True)
class CampaignResult:
    """What one campaign run searched and what it found."""

    cases_run: int
    corpus_size: int
    coverage_points: int
    violations: Tuple[ViolationCase, ...]

    @property
    def found(self) -> bool:
        """True when at least one violating schedule was discovered."""
        return bool(self.violations)


def run_campaign(
    runner: ColocationCaseRunner,
    config: CampaignConfig = CampaignConfig(),
) -> CampaignResult:
    """Execute one coverage-guided chaos campaign.

    Deterministic for fixed ``(runner, config)``: every random draw
    comes from one generator seeded with ``config.seed`` in the parent
    process, cases are pure functions of their schedules, and batches
    run in submission order.

    Returns a :class:`CampaignResult`; with ``stop_on_violation`` (the
    default) the search ends at the first round that produced
    violations, after shrinking each to a minimal reproducer.
    """
    rng = np.random.default_rng(config.seed)
    schedules: List[FaultSchedule] = [FaultSchedule(())]
    for _ in range(config.initial_corpus - 1):
        schedules.append(FaultSchedule.random(
            seed=int(rng.integers(2**31)),
            horizon_s=config.horizon_s,
            n_faults=int(rng.integers(1, config.max_faults + 1)),
            mean_duration_s=config.mean_duration_s,
        ))

    corpus: List[CaseOutcome] = []
    seen: Dict[CoverageSignature, int] = {}
    coverage: set = set()
    violations: List[ViolationCase] = []
    cases_run = 0

    def process(outcome: CaseOutcome) -> None:
        nonlocal cases_run
        cases_run += 1
        signature = outcome.coverage
        coverage.update(signature)
        if signature not in seen:
            seen[signature] = len(corpus)
            corpus.append(outcome)
        if outcome.violating:
            invariants = outcome.violated_invariants()
            shrunk = shrink_schedule(
                runner, outcome.schedule, invariants, config.shrink_budget
            )
            violations.append(ViolationCase(
                schedule=outcome.schedule,
                shrunk=shrunk.schedule,
                invariants=invariants,
                report=outcome.report,
                shrink_evaluations=shrunk.evaluations,
            ))

    for outcome in map_ordered(
        _evaluate_case, [(runner, s) for s in schedules]
    ):
        process(outcome)
    for _ in range(config.rounds):
        if violations and config.stop_on_violation:
            break
        batch = [
            mutate_schedule(
                corpus[int(rng.integers(len(corpus)))].schedule, rng, config
            )
            for _ in range(config.batch_size)
        ]
        for outcome in map_ordered(
            _evaluate_case, [(runner, s) for s in batch]
        ):
            process(outcome)
    return CampaignResult(
        cases_run=cases_run,
        corpus_size=len(corpus),
        coverage_points=len(coverage),
        violations=tuple(violations),
    )

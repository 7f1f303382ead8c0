"""Crash-safe cluster sweeps: plan, execute, checkpoint, resume.

The cluster sweep (:func:`repro.sim.cluster.run_cluster`) is a list of
*pure* cells — each (server plan, load level) colocation is a function
of its explicit arguments only, with every RNG built inside the cell
from the config seed.  That purity is the whole recovery story:

1. :func:`repro.sim.cluster.plan_cluster_tasks` decides every cell (and
   the full fault report) before anything runs;
2. completed cell outcomes are persisted, keyed by cell index, in a
   single :class:`~repro.runtime.checkpoint.Checkpoint` file rewritten
   atomically as results land;
3. a resumed run re-plans (bit-identical, planning is deterministic),
   loads the completed cells, and re-runs only the missing ones.

The resumed :class:`~repro.sim.cluster.ClusterRunResult` is therefore
*bit-identical* to an uninterrupted run — the property
``tests/test_runtime_checkpoint.py`` pins with Hypothesis and a real
SIGKILL.  A checkpoint refuses to resume a different sweep: the
``run_key`` digests the sweep's full content (apps, provisioning,
levels, duration, sim config, fault plan), not object identities.

Cells run through the same engines as ``run_cluster``.  How much work a
crash costs depends on when outcomes reach the checkpoint: the default
object engine hands over each cell as it finishes and the checkpoint
is rewritten after every one (a crash costs at most one cell), the
batched engine hands over a lane
group's cells only once every group of the pending cells has run — and
a typical sweep is one group, so a crash before that point loses the
whole pending sweep.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.engine.select import resolve_engine
from repro.errors import CheckpointError, ConfigError
from repro.faults.cluster import ClusterFaultPlan
from repro.guard.invariants import GuardConfig
from repro.budget.arbiter import BudgetConfig
from repro.hwmodel.spec import ServerSpec
from repro.runtime.atomic import PathLike
from repro.runtime.checkpoint import Checkpoint
from repro.sim.cluster import (
    ClusterRunResult,
    LevelOutcome,
    ServerPlan,
    _dedupe_cells,
    _execute_cells,
    plan_cluster_tasks,
)
from repro.sim.colocation import SimConfig
from repro.workloads.traces import UNIFORM_EVAL_LEVELS

_ADDRESS_RE = re.compile(r" at 0x[0-9a-fA-F]+")


def _stable_repr(obj: Any) -> str:
    """A ``repr`` with memory addresses scrubbed.

    The catalog's apps, specs, configs and manager factories are all
    dataclasses whose reprs are pure content; anything that leaks an
    ``at 0x...`` address (a default ``object.__repr__``) is reduced to
    its type name so the run key never varies between processes.
    """
    return _ADDRESS_RE.sub("", repr(obj))


def sweep_run_key(
    plans: Sequence[ServerPlan],
    spec: ServerSpec,
    levels: Sequence[float] = UNIFORM_EVAL_LEVELS,
    duration_s: float = 60.0,
    config: SimConfig = SimConfig(),
    fault_plan: Optional[ClusterFaultPlan] = None,
    guard: Optional[GuardConfig] = None,
    budget: Optional[BudgetConfig] = None,
) -> str:
    """Digest a sweep's identity into a stable, content-based key.

    Two processes given the same configuration compute the same key;
    any change to the apps, provisioning, levels, duration, sim config,
    fault plan, guard config or budget config changes it.
    :meth:`Checkpoint.load` compares this key before resuming, so a
    checkpoint can never silently continue a *different* sweep.  The
    guard, budget, rejoin and infra-fault parts are appended only when
    configured, so checkpoints written before those features existed
    keep resuming.
    """
    parts: List[str] = [
        f"spec={_stable_repr(spec)}",
        f"levels={[float(level) for level in levels]!r}",
        f"duration_s={float(duration_s)!r}",
        f"config={_stable_repr(config)}",
    ]
    for plan in plans:
        parts.append("plan=" + "|".join((
            _stable_repr(plan.lc_app),
            _stable_repr(plan.be_app),
            repr(float(plan.provisioned_power_w)),
            _stable_repr(plan.manager_factory),
        )))
    if fault_plan is not None:
        parts.append(
            f"crashes={[_stable_repr(c) for c in fault_plan.crashes]!r}"
        )
        faults = fault_plan.cell_faults
        parts.append(
            "cell_faults=" + (
                "None" if faults is None
                else repr([_stable_repr(f) for f in faults])
            )
        )
        if fault_plan.rejoins:
            parts.append(
                f"rejoins={[_stable_repr(r) for r in fault_plan.rejoins]!r}"
            )
        if fault_plan.infra_faults is not None:
            parts.append(
                "infra_faults="
                + repr([_stable_repr(f) for f in fault_plan.infra_faults])
            )
    if guard is not None:
        parts.append(f"guard={_stable_repr(guard)}")
    if budget is not None:
        parts.append(f"budget={_stable_repr(budget)}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def _load_completed(
    path: Path, run_key: str, total: int
) -> Dict[int, LevelOutcome]:
    """Validate and extract the completed-cell map from a checkpoint."""
    checkpoint = Checkpoint.load(path, expect_run_key=run_key)
    payload = checkpoint.payload
    if not isinstance(payload, dict) or not isinstance(
        payload.get("completed"), dict
    ):
        raise CheckpointError(
            f"checkpoint {path} carries no completed-cell map; it was not "
            "written by run_cluster_checkpointed"
        )
    completed: Dict[int, LevelOutcome] = {}
    for index, outcome in payload["completed"].items():
        if not isinstance(index, int) or not 0 <= index < total:
            raise CheckpointError(
                f"checkpoint {path} names cell {index!r} outside this "
                f"sweep's 0..{total - 1} range"
            )
        completed[index] = outcome
    return completed


def run_cluster_checkpointed(
    plans: Sequence[ServerPlan],
    spec: ServerSpec,
    checkpoint_path: PathLike,
    levels: Sequence[float] = UNIFORM_EVAL_LEVELS,
    duration_s: float = 60.0,
    config: SimConfig = SimConfig(),
    fault_plan: Optional[ClusterFaultPlan] = None,
    dedupe: bool = False,
    resume: bool = False,
    guard: Optional[GuardConfig] = None,
    ledger_path: Optional[PathLike] = None,
    engine: Optional[str] = None,
    budget: Optional[BudgetConfig] = None,
) -> ClusterRunResult:
    """:func:`~repro.sim.cluster.run_cluster`, crash-safe.

    Semantics and results are bit-identical to ``run_cluster`` with the
    same arguments; the additions are durability knobs:

    * ``checkpoint_path`` — the single checkpoint file, atomically
      rewritten as cells complete (never observably half-written);
    * ``resume`` — load ``checkpoint_path`` first and re-run only the
      cells it lacks.  A missing file starts fresh (so "always pass
      ``--resume``" is a safe operating procedure); a checkpoint from a
      *different* sweep raises :class:`~repro.errors.CheckpointError`.

    The checkpoint is left in place on success — it doubles as the
    completed-run record (its header carries progress counters readable
    without unpickling).

    ``guard`` runs every cell under the safety invariants of
    :mod:`repro.guard` (and becomes part of the run key, so guarded and
    unguarded checkpoints never cross-resume).  ``ledger_path`` writes
    the violation ledger — rebuilt deterministically from the completed
    cells, so a resumed sweep emits a byte-identical ledger to an
    uninterrupted one.

    ``engine`` picks the core that runs the pending cells, as in
    ``run_cluster``, and decides how much a crash costs:

    * ``None`` (the default, the per-object oracle) hands each cell to
      the checkpoint as it finishes and rewrites the file after every
      cell, so a crash costs at most one cell of recomputation;
    * ``"batched"`` hands over a lane group's cells only
      after *every* lane group of the pending cells has run.  A typical
      sweep (one manager kind, one duration, one fault schedule) is a
      single group, so a crash before the end loses every pending cell
      and the resume re-runs them all.

    Both engines are bit-identical, so a checkpoint written by either
    resumes under the other without changing a single result byte (the
    ``run_key`` is engine-agnostic on purpose).
    """
    engine_name = resolve_engine(engine)
    if ledger_path is not None and guard is None:
        raise ConfigError("a violation ledger needs a guard config")
    cells, skeleton = plan_cluster_tasks(
        plans, spec, levels, duration_s, config, fault_plan, guard=guard,
        budget=budget,
    )
    run_key = sweep_run_key(
        plans, spec, levels=levels, duration_s=duration_s,
        config=config, fault_plan=fault_plan, guard=guard, budget=budget,
    )
    unique, fan_out = _dedupe_cells(cells, dedupe)
    target = Path(checkpoint_path)
    completed: Dict[int, LevelOutcome] = {}
    if resume and target.exists():
        completed = _load_completed(target, run_key, len(unique))
    placement = {
        plan.lc_app.name: (plan.be_app.name if plan.be_app else None)
        for plan in plans
    }

    def _save() -> None:
        cursor = 0
        while cursor in completed:
            cursor += 1
        Checkpoint(
            run_key=run_key,
            payload={"completed": dict(completed), "placement": placement},
            extra={
                "cells_total": len(unique),
                "cells_done": len(completed),
                "cursor": cursor,
            },
        ).save(target)

    pending = [i for i in range(len(unique)) if i not in completed]
    if pending:

        def _on_result(position: int, outcome: LevelOutcome) -> None:
            completed[pending[position]] = outcome
            _save()

        _execute_cells(
            [unique[i] for i in pending], engine_name, on_result=_on_result
        )
    _save()
    skeleton.outcomes.extend(completed[i] for i in fan_out)
    if ledger_path is not None:
        # Imported here: repro.guard.ledger writes through this
        # package's atomic helpers, so a module-level import would be
        # circular during package initialization.
        from repro.guard.ledger import write_ledger

        write_ledger(ledger_path, skeleton)
    return skeleton

"""Plain-text reporting: the tables the benchmark harness prints.

The reproduction's "figures" are emitted as aligned text tables (one per
paper table/figure), so a terminal diff against EXPERIMENTS.md is the
review workflow.  No plotting dependencies.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from repro.errors import ConfigError

Cell = Union[str, float, int]


def format_cell(value: Cell, precision: int = 3) -> str:
    """Render one cell: floats to fixed precision, everything else as str."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    precision: int = 3,
    title: str = "",
) -> str:
    """Render an aligned monospace table with optional title.

    Column widths adapt to content; numeric cells are right-aligned,
    text cells left-aligned.
    """
    if not headers:
        raise ConfigError("table needs at least one column")
    rendered: List[List[str]] = [[str(h) for h in headers]]
    numeric = [True] * len(headers)
    for row in rows:
        if len(row) != len(headers):
            raise ConfigError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        cells = []
        for i, cell in enumerate(row):
            if not isinstance(cell, (int, float)) or isinstance(cell, bool):
                numeric[i] = False
            cells.append(format_cell(cell, precision))
        rendered.append(cells)
    widths = [max(len(r[i]) for r in rendered) for i in range(len(headers))]

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            parts.append(cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(rendered[0]))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(r) for r in rendered[1:])
    return "\n".join(lines)


def format_series(
    x_label: str,
    y_labels: Sequence[str],
    x: Sequence[float],
    series: Sequence[Sequence[float]],
    precision: int = 3,
    title: str = "",
) -> str:
    """Render line-chart data (a figure's series) as a table.

    ``series[k][i]`` is the k-th line's value at ``x[i]``.
    """
    if len(series) != len(y_labels):
        raise ConfigError("one label per series required")
    for s in series:
        if len(s) != len(x):
            raise ConfigError("every series must match the x vector length")
    rows = [
        [x[i]] + [s[i] for s in series]
        for i in range(len(x))
    ]
    return format_table([x_label] + list(y_labels), rows,
                        precision=precision, title=title)


def percent_change(new: float, old: float) -> float:
    """Relative change of ``new`` against ``old`` (0.18 == +18 %)."""
    if old == 0:
        raise ConfigError("cannot compute change against a zero base")
    return new / old - 1.0


def _add_stats(counters: Dict[str, int], prefix: str, stats: Any) -> None:
    for name, value in dataclasses.asdict(stats).items():
        key = f"{prefix}.{name}"
        counters[key] = counters.get(key, 0) + int(value)


def _add_guard(counters: Dict[str, int], report: Any) -> None:
    if report is None:
        return
    counters["guard.checks"] = counters.get("guard.checks", 0) + report.checks
    counters["guard.violations"] = (
        counters.get("guard.violations", 0) + report.total_violations
    )


def counter_map(result: Any) -> Dict[str, int]:
    """Flatten one run's control-stack counters into one namespaced map.

    ``result`` is a :class:`~repro.sim.colocation.ColocationResult` or a
    :class:`~repro.sim.cluster.ClusterRunResult`; a cluster run sums its
    cells.  Keys:

    * ``cap.<field>`` — :class:`~repro.hwmodel.capping.CapStats`;
    * ``manager.<field>`` — :class:`~repro.core.server_manager.ManagerStats`;
    * ``budget.<field>`` and ``budget.max_stage`` —
      :class:`~repro.budget.arbiter.BudgetStats` and the deepest brownout
      stage, on budgeted cluster runs only;
    * ``guard.checks`` and ``guard.violations`` — every guard report of
      the run (cells and the plan-time budget audit), on guarded runs
      only.

    This is the one way reports, chaos-campaign coverage and the CLI read
    degradation counters (see ``docs/FAULTS.md``).
    """
    outcomes = getattr(result, "outcomes", None)
    cells = [result] if outcomes is None else [o.result for o in outcomes]
    counters: Dict[str, int] = {}
    for cell in cells:
        _add_stats(counters, "cap", cell.cap_stats)
        _add_stats(counters, "manager", cell.manager_stats)
        _add_guard(counters, cell.guard_report)
    budget_report = getattr(result, "budget_report", None)
    if budget_report is not None:
        _add_stats(counters, "budget", budget_report.stats)
        counters["budget.max_stage"] = budget_report.max_stage()
        _add_guard(counters, budget_report.guard_report)
    return counters


#: A counter-table column: its header and either one counter-map key or
#: a ``(numerator, denominator)`` key pair shown as a ratio (0.0 when the
#: denominator is zero).
Column = Tuple[str, Union[str, Tuple[str, str]]]

#: Graceful degradation under faults: safe-mode activity, watchdog trips,
#: model-distrust and solver fallbacks (see ``docs/FAULTS.md``).
FAULT_COLUMNS: Tuple[Column, ...] = (
    ("safe steps", "cap.safe_mode_steps"),
    ("safe frac", ("cap.safe_mode_steps", "cap.samples")),
    ("wd trips", "cap.watchdog_trips"),
    ("over-cap frac", ("cap.over_cap_samples", "cap.samples")),
    ("model fb", "manager.model_fallbacks"),
    ("model fb frac", ("manager.model_fallback_steps", "manager.control_steps")),
    ("solver fb", "manager.solver_fallbacks"),
)

#: The lease/brownout counters of a budgeted run: arbiter ticks lost to
#: crashes, grants expired, lost or delayed, the deepest brownout stage
#: and the cells it evicted or shed (see ``docs/BUDGETS.md``).
BUDGET_COLUMNS: Tuple[Column, ...] = (
    ("ticks", "budget.ticks"),
    ("skipped", "budget.skipped_ticks"),
    ("granted", "budget.grants_issued"),
    ("expired", "budget.grants_expired"),
    ("lost", "budget.grants_lost"),
    ("delayed", "budget.grants_delayed"),
    ("max stage", "budget.max_stage"),
    ("evicted", "budget.evicted_cells"),
    ("shed", "budget.shed_cells"),
)


def format_counters(
    rows: Sequence[Tuple[str, Mapping[str, int]]],
    columns: Sequence[Column],
    title: str = "",
    precision: int = 3,
) -> str:
    """Render ``(label, counter map)`` rows (see :func:`counter_map`)."""
    def lookup(label: str, counters: Mapping[str, int], key: str) -> int:
        if key not in counters:
            raise ConfigError(f"run {label!r} has no counter {key!r}")
        return counters[key]

    table_rows: List[List[Cell]] = []
    for row in rows:
        if len(row) != 2:
            raise ConfigError("counter rows are (label, counter map)")
        label, counters = row
        cells: List[Cell] = [str(label)]
        for _, key in columns:
            if isinstance(key, str):
                cells.append(lookup(label, counters, key))
            else:
                num = lookup(label, counters, key[0])
                den = lookup(label, counters, key[1])
                cells.append(num / den if den else 0.0)
        table_rows.append(cells)
    return format_table(
        ["run"] + [header for header, _ in columns],
        table_rows, precision=precision, title=title,
    )

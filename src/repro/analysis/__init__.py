"""Analysis utilities: reporting tables and resampling statistics."""

from repro.analysis.reporting import (
    BUDGET_COLUMNS,
    FAULT_COLUMNS,
    counter_map,
    format_cell,
    format_counters,
    format_series,
    format_table,
    percent_change,
)
from repro.analysis.stats import (
    Summary,
    bootstrap_ci,
    paired_diff_ci,
    relative_gain_ci,
)

__all__ = [
    "BUDGET_COLUMNS",
    "FAULT_COLUMNS",
    "Summary",
    "bootstrap_ci",
    "paired_diff_ci",
    "relative_gain_ci",
    "counter_map",
    "format_cell",
    "format_counters",
    "format_series",
    "format_table",
    "percent_change",
]

"""Tests for repro.analysis.reporting: table formatting."""

import pytest

from repro.analysis.reporting import (
    format_cell,
    format_series,
    format_table,
    percent_change,
)
from repro.errors import ConfigError


class TestFormatCell:
    def test_float_precision(self):
        assert format_cell(3.14159, precision=2) == "3.14"

    def test_int_passthrough(self):
        assert format_cell(42) == "42"

    def test_string_passthrough(self):
        assert format_cell("abc") == "abc"

    def test_bool_not_formatted_as_float(self):
        assert format_cell(True) == "True"


class TestFormatTable:
    def test_basic_layout(self):
        out = format_table(["name", "value"], [["a", 1.0], ["bb", 2.5]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_title_prepended(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_numeric_right_alignment(self):
        out = format_table(["v"], [[1.0], [100.0]])
        rows = out.splitlines()[2:]
        assert rows[0].endswith("1.000")
        assert rows[1].endswith("100.000")

    def test_text_left_alignment(self):
        out = format_table(["name", "v"], [["a", 1], ["long-name", 2]])
        rows = out.splitlines()[2:]
        assert rows[0].startswith("a ")

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            format_table(["a", "b"], [[1]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ConfigError):
            format_table([], [])

    def test_empty_rows_ok(self):
        out = format_table(["a"], [])
        assert len(out.splitlines()) == 2


class TestFormatSeries:
    def test_layout(self):
        out = format_series("x", ["s1", "s2"], [1.0, 2.0],
                            [[10.0, 20.0], [30.0, 40.0]])
        lines = out.splitlines()
        assert "s1" in lines[0] and "s2" in lines[0]
        assert len(lines) == 4

    def test_mismatched_labels_rejected(self):
        with pytest.raises(ConfigError):
            format_series("x", ["s1"], [1.0], [[1.0], [2.0]])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigError):
            format_series("x", ["s1"], [1.0, 2.0], [[1.0]])


class TestPercentChange:
    def test_increase(self):
        assert percent_change(1.18, 1.0) == pytest.approx(0.18)

    def test_decrease(self):
        assert percent_change(0.9, 1.0) == pytest.approx(-0.1)

    def test_zero_base_rejected(self):
        with pytest.raises(ConfigError):
            percent_change(1.0, 0.0)


class TestFormatBudgetDegradation:
    def _counters(self, **stats_overrides):
        from repro.analysis.reporting import counter_map
        from repro.budget.arbiter import BudgetReport, BudgetStats
        from repro.sim.cluster import ClusterRunResult

        stats = BudgetStats(**stats_overrides)
        return counter_map(ClusterRunResult(budget_report=BudgetReport(
            fairness="max-min",
            stats=stats,
            stage_history={"rack0": ((0.0, 0), (1.0, 2))},
        )))

    def _render(self, rows):
        from repro.analysis.reporting import BUDGET_COLUMNS, format_counters

        return format_counters(
            rows, BUDGET_COLUMNS, title="Degradation under power budgets",
        )

    def test_counters_render(self):
        out = self._render([
            ("pocolo", self._counters(ticks=12, skipped_ticks=3,
                                      grants_issued=20, grants_expired=4,
                                      grants_lost=2, grants_delayed=1)),
        ])
        assert "Degradation under power budgets" in out
        for header in ("run", "ticks", "skipped", "granted", "expired",
                       "lost", "delayed", "max stage"):
            assert header in out
        row = out.splitlines()[-1]
        assert "pocolo" in row
        for value in ("12", "3", "20", "4", "2", "1"):
            assert value in row

    def test_max_stage_comes_from_history(self):
        out = self._render([("run1", self._counters())])
        assert out.splitlines()[-1].split()[-3] == "2"

    def test_malformed_row_rejected(self):
        with pytest.raises(ConfigError):
            self._render([("label", None, "extra")])
        with pytest.raises(ConfigError, match="budget.ticks"):
            self._render([("no budget", {"cap.samples": 1})])

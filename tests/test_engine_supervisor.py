"""Tests for the engine's ordered cell loop and its failure context.

``map_ordered`` wraps a task exception in ``ExecutionError`` naming the
failing task's index, arguments and root cause, and reports each result
to its ``on_result`` hook in task order.
"""

import pytest

from repro.engine.parallel import map_ordered
from repro.errors import ExecutionError, ReproError


def double(x):
    return 2 * x


def boom(x):
    if x == 3:
        raise ValueError(f"cannot handle {x}")
    return x


def boom_chained(x):
    """Fail with a ``raise ... from`` chain, like a degraded cell does."""
    try:
        raise KeyError(f"stale-model-{x}")
    except KeyError as exc:
        raise ValueError("refit failed") from exc


class TestMapOrderedErrorContext:
    def test_serial_failure_names_index_and_args(self):
        with pytest.raises(ExecutionError, match=r"task 3 of 5.*boom.*ValueError.*args=\(3\)"):
            map_ordered(boom, [(i,) for i in range(5)])

    def test_original_exception_is_chained(self):
        with pytest.raises(ExecutionError) as excinfo:
            map_ordered(boom, [(3,)])
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_execution_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            map_ordered(boom, [(3,)])

    def test_long_arguments_are_truncated(self):
        with pytest.raises(ExecutionError) as excinfo:
            map_ordered(boom, [(3,), ("x" * 500,)])
        assert len(str(excinfo.value)) < 400

    def test_serial_failure_names_the_root_cause(self):
        with pytest.raises(
            ExecutionError,
            match=r"root cause: KeyError: 'stale-model-0'",
        ):
            map_ordered(boom_chained, [(0,)])

    def test_unchained_failure_omits_the_root_cause_suffix(self):
        with pytest.raises(ExecutionError) as excinfo:
            map_ordered(boom, [(3,)])
        assert "root cause" not in str(excinfo.value)


class TestMapOrdered:
    def test_on_result_fires_in_order(self):
        seen = []
        out = map_ordered(
            double, [(i,) for i in range(4)],
            on_result=lambda index, value: seen.append((index, value)),
        )
        assert out == [0, 2, 4, 6]
        assert seen == [(0, 0), (1, 2), (2, 4), (3, 6)]

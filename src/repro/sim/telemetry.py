"""Telemetry: the one columnar format both simulation engines write.

The paper's platform assumes "telemetry systems in today's datacenters
periodically collect these metrics for each application at fine temporal
granularity" (Section IV-A).  A :class:`TickBlock` holds the per-tick
telemetry of a set of cells that share one tick grid: a ``times`` array
plus one lane-major ``(lanes, ticks)`` array per series.  A cell's
:class:`Telemetry` is one lane of a block.  The per-object oracle writes
a one-lane block tick by tick; the batched core fills one block for its
whole sweep and hands each lane a view of it, so nothing is copied.
:class:`TimeSeries` is a read-only view of one row with the summary
operations the experiments need: means, percentiles and
fraction-above-threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, SimulationError

#: Series stored as int64; every other series is float64.
_INT_SERIES = frozenset({"lc_cores", "lc_ways"})

_EMPTY = np.zeros(0)
_EMPTY.flags.writeable = False


@lru_cache(maxsize=None)
def series_names(has_schedule: bool, has_be: bool) -> Tuple[str, ...]:
    """The series a colocation cell records, in recording order.

    A cell with a budget cap schedule also records ``effective_cap_w``;
    a cell with a best-effort app also records its throughput, frequency
    and duty cycle.
    """
    names: Tuple[str, ...] = (
        "power_w", "lc_load_fraction", "lc_slack", "safe_mode",
        "lc_cores", "lc_ways",
    )
    if has_schedule:
        names += ("effective_cap_w",)
    if has_be:
        names += ("be_throughput_norm", "be_freq_ghz", "be_duty")
    return names


def tick_times(n_ticks: int, interval_s: float) -> np.ndarray:
    """The times of ticks ``0 .. n_ticks - 1``, ``tick * interval_s`` each."""
    return np.arange(n_ticks) * interval_s


class TickBlock:
    """Per-tick telemetry of cells sharing one tick grid, lane-major.

    ``columns[name][lane]`` is one cell's series over ``times``.  The
    times must be non-decreasing: a clock that runs backwards means the
    *simulation* lost track of time, a runtime state fault, hence
    :class:`~repro.errors.SimulationError`.
    """

    __slots__ = ("times", "columns")

    def __init__(self, times: np.ndarray, columns: Dict[str, np.ndarray]) -> None:
        if (times[1:] < times[:-1]).any():
            raise SimulationError("telemetry tick times are out of order")
        self.times = times
        self.columns = columns

    @classmethod
    def allocate(
        cls, times: np.ndarray, names: Tuple[str, ...], lanes: int = 1
    ) -> "TickBlock":
        """A zeroed block with one column per name."""
        shape = (lanes, len(times))
        return cls(times, {
            name: np.zeros(shape, dtype=np.int64 if name in _INT_SERIES else float)
            for name in names
        })

    def freeze(self) -> None:
        """Make the block read-only once its run has finished."""
        self.times.flags.writeable = False
        for column in self.columns.values():
            column.flags.writeable = False


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A read-only (time, value) view of one lane of one block column."""

    name: str
    times: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    @property
    def empty(self) -> bool:
        """True when the series holds no ticks."""
        return not len(self.values)

    def mean(self) -> float:
        """Arithmetic mean of the values (0.0 when empty)."""
        return float(np.mean(self.values)) if len(self.values) else 0.0

    def percentile(self, q: float) -> float:
        """The q-th percentile of the values (0.0 when empty)."""
        if not 0.0 <= q <= 100.0:
            raise ConfigError("percentile must lie in [0, 100]")
        return float(np.percentile(self.values, q)) if len(self.values) else 0.0

    def fraction_above(self, threshold: float) -> float:
        """Fraction of samples strictly above ``threshold``."""
        if not len(self.values):
            return 0.0
        return float(np.mean(self.values > threshold))


class Telemetry:
    """One cell's telemetry: lane ``lane`` of a :class:`TickBlock`.

    ``names`` are the series this cell recorded, in recording order; it
    defaults to every column of the block.
    """

    __slots__ = ("block", "lane", "_names")

    def __init__(
        self, block: TickBlock, lane: int = 0,
        names: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.block = block
        self.lane = lane
        self._names = tuple(block.columns) if names is None else names

    def record(self, tick: int, **values: float) -> None:
        """Write this cell's value of each named series at ``tick``."""
        for name, value in values.items():
            self.block.columns[name][self.lane, tick] = value

    def series(self, name: str) -> TimeSeries:
        """The series called ``name``; empty if the cell did not record it."""
        if name not in self._names:
            return TimeSeries(name, _EMPTY, _EMPTY)
        return TimeSeries(name, self.block.times, self.block.columns[name][self.lane])

    def names(self) -> Tuple[str, ...]:
        """All series names, in recording order."""
        return self._names

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __reduce__(self):
        # Pickle this lane's rows only, as raw bytes: a checkpointed cell
        # must not carry its whole sweep's block, and bytes pickle several
        # times faster than small arrays.
        columns = [self.block.columns[name] for name in self._names]
        return (_unpickle_lane, (
            self.block.times, self._names,
            tuple(column.dtype.str for column in columns),
            tuple(column[self.lane].tobytes() for column in columns),
        ))


def _unpickle_lane(
    times: np.ndarray, names: Tuple[str, ...], dtypes: Tuple[str, ...],
    rows: Tuple[bytes, ...],
) -> Telemetry:
    """A one-lane, read-only :class:`Telemetry` from its pickled rows."""
    shape = (1, len(times))
    return Telemetry(TickBlock(times, {
        name: np.frombuffer(row, dtype=dtype).reshape(shape)
        for name, dtype, row in zip(names, dtypes, rows)
    }), 0, names)

"""Tests for repro.sim.telemetry: the columnar tick-block format."""

import numpy as np
import pytest

from repro.engine.batched import _np_mean_lanes
from repro.errors import ConfigError, SimulationError
from repro.sim.telemetry import (
    Telemetry,
    TickBlock,
    TimeSeries,
    series_names,
    tick_times,
)


def _series(values, name="x"):
    """A one-lane series over ticks 0, 1, 2, ... holding ``values``."""
    telemetry = Telemetry(TickBlock.allocate(tick_times(len(values), 1.0), (name,)))
    for tick, value in enumerate(values):
        telemetry.record(tick, **{name: value})
    return telemetry.series(name)


class TestTimeSeries:
    def test_record_and_len(self):
        t = Telemetry(TickBlock.allocate(tick_times(2, 1.0), ("power",)))
        t.record(0, power=100.0)
        t.record(1, power=110.0)
        s = t.series("power")
        assert len(s) == 2
        assert not s.empty
        assert list(s.times) == [0.0, 1.0]
        assert list(s.values) == [100.0, 110.0]

    def test_out_of_order_rejected(self):
        # A time going backwards is a simulation-state fault, not a
        # configuration mistake; the block refuses it when built.
        with pytest.raises(SimulationError):
            TickBlock.allocate(np.array([5.0, 4.0]), ("power",))

    def test_equal_times_allowed(self):
        block = TickBlock.allocate(np.array([1.0, 1.0]), ("power",))
        assert len(Telemetry(block).series("power")) == 2

    def test_mean(self):
        assert _series([1.0, 2.0, 3.0]).mean() == pytest.approx(2.0)

    def test_empty_statistics(self):
        s = _series([])
        assert s.empty
        assert s.mean() == 0.0
        assert s.percentile(99) == 0.0
        assert s.fraction_above(0.0) == 0.0

    def test_percentile(self):
        s = _series([float(i) for i in range(101)])
        assert s.percentile(50) == pytest.approx(50.0)
        assert s.percentile(99) == pytest.approx(99.0)
        with pytest.raises(ConfigError):
            s.percentile(101)

    def test_fraction_above(self):
        s = _series([1.0, 2.0, 3.0, 4.0])
        assert s.fraction_above(2.5) == pytest.approx(0.5)
        assert s.fraction_above(10.0) == 0.0

    def test_view_is_frozen(self):
        s = _series([1.0])
        with pytest.raises(AttributeError):
            s.values = np.zeros(1)


class TestTelemetry:
    def test_unrecorded_series_is_empty_not_created(self):
        t = Telemetry(TickBlock.allocate(tick_times(1, 1.0), ("power",)))
        assert "other" not in t
        assert t.series("other").empty
        # Reading a series the cell did not record never creates it.
        assert "other" not in t
        assert t.names() == ("power",)

    def test_names_in_creation_order(self):
        t = Telemetry(TickBlock.allocate(tick_times(1, 1.0), ("b", "a")))
        assert t.names() == ("b", "a")

    def test_same_series_instance(self):
        # Every read of a series is a view of the same block row.
        t = Telemetry(TickBlock.allocate(tick_times(3, 1.0), ("x",)))
        assert np.shares_memory(t.series("x").values, t.series("x").values)
        assert t.series("x").values.base is t.block.columns["x"]

    def test_lanes_are_views_of_one_block(self):
        block = TickBlock.allocate(tick_times(2, 0.5), ("x",), lanes=3)
        block.columns["x"][:] = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        middle = Telemetry(block, lane=1)
        assert list(middle.series("x").values) == [3.0, 4.0]
        assert middle.series("x").times is block.times

    def test_names_restrict_a_lane(self):
        block = TickBlock.allocate(tick_times(1, 1.0), ("x", "y"), lanes=2)
        lane = Telemetry(block, lane=0, names=("x",))
        assert lane.names() == ("x",)
        assert "y" not in lane and lane.series("y").empty

    def test_frozen_block_refuses_writes(self):
        t = Telemetry(TickBlock.allocate(tick_times(1, 1.0), ("x",)))
        t.block.freeze()
        with pytest.raises(ValueError):
            t.record(0, x=1.0)

    def test_integer_series_stay_int64(self):
        block = TickBlock.allocate(tick_times(1, 1.0), series_names(False, True))
        assert block.columns["lc_cores"].dtype == np.int64
        assert block.columns["lc_ways"].dtype == np.int64
        assert block.columns["power_w"].dtype == np.float64

    def test_pickle_carries_one_lane(self):
        import pickle

        block = TickBlock.allocate(tick_times(4, 1.0), ("x", "y"), lanes=50)
        block.columns["x"][:] = np.arange(200.0).reshape(50, 4)
        block.freeze()
        lane = Telemetry(block, lane=7, names=("x",))
        copy = pickle.loads(pickle.dumps(lane))
        assert copy.names() == ("x",)
        assert copy.block.columns["x"].shape == (1, 4)
        assert list(copy.series("x").values) == [28.0, 29.0, 30.0, 31.0]
        assert np.array_equal(copy.series("x").times, block.times)


class TestSeriesNames:
    def test_base_schedule_and_be_order(self):
        base = ("power_w", "lc_load_fraction", "lc_slack", "safe_mode",
                "lc_cores", "lc_ways")
        be = ("be_throughput_norm", "be_freq_ghz", "be_duty")
        assert series_names(False, False) == base
        assert series_names(False, True) == base + be
        assert series_names(True, True) == base + ("effective_cap_w",) + be


class TestMeanIdentity:
    """The block-wise lane mean equals ``np.mean`` of each row, bit for bit.

    The batched core averages a whole lane-major block in one reduction;
    the oracle averages its one row with ``np.mean``.  Goldens stay
    byte-identical only while the two agree in the last bit, so this
    catches a numpy that re-associates the reduction.
    """

    TICKS = (1, 2, 3, 7, 8, 9, 15, 16, 17, 60, 127, 128, 129, 255, 256, 257, 300)

    @pytest.mark.parametrize("lanes", [1, 2, 7, 64])
    @pytest.mark.parametrize("ticks", TICKS)
    def test_block_mean_is_row_mean(self, lanes, ticks):
        self._check(lanes, ticks, seed=lanes * 1000 + ticks)

    @pytest.mark.parametrize("ticks", [7, 8, 9, 127, 128, 129, 300])
    def test_block_mean_is_row_mean_at_thousands_of_lanes(self, ticks):
        self._check(3000, ticks, seed=ticks)

    def test_zero_ticks_average_to_zero(self):
        block = TickBlock.allocate(tick_times(0, 1.0), ("x",), lanes=5)
        assert _np_mean_lanes(block.columns["x"]).tolist() == [0.0] * 5
        assert Telemetry(block, lane=3).series("x").mean() == 0.0

    @staticmethod
    def _check(lanes, ticks, seed):
        rng = np.random.default_rng(seed)
        block = TickBlock.allocate(tick_times(ticks, 1.0), ("x",), lanes=lanes)
        scale = 10.0 ** rng.uniform(-3, 3, size=(lanes, 1))
        block.columns["x"][:] = rng.standard_normal((lanes, ticks)) * scale
        block.freeze()
        means = _np_mean_lanes(block.columns["x"]).tolist()
        for lane, row in enumerate(block.columns["x"]):
            expected = float(np.mean(list(row)))
            assert means[lane] == expected, (lanes, ticks, lane)
            assert Telemetry(block, lane).series("x").mean() == expected

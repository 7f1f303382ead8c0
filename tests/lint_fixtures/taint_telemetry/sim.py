"""Sink module: the oracle's per-tick write into its tick block."""

from repro.sim.telemetry import Telemetry, TickBlock, series_names, tick_times

from taint_telemetry.meter import read_power_w


class ColocationSim:
    def run(self, n_ticks, load_frac):
        telemetry = Telemetry(TickBlock.allocate(
            tick_times(n_ticks, 1.0), series_names(False, False),
        ))
        for tick in range(n_ticks):
            power = read_power_w()
            # BAD: the wall clock reaches telemetry through power_w=.
            telemetry.record(tick, power_w=power, lc_load_fraction=load_frac)
        telemetry.block.freeze()
        return telemetry

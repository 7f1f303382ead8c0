"""POCO901 fixture package: a wall clock reaching a cell's tick block.

``sim.py`` copies the oracle's telemetry write path — one
``telemetry.record(tick, name=value, ...)`` call per tick into a
one-lane tick block — and feeds it a power reading that is really a
wall-clock stamp taken in ``meter.py``.
"""

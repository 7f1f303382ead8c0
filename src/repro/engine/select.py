"""Engine selection for the cluster simulation entry points.

``run_cluster`` / ``run_policy`` / ``run_cluster_checkpointed`` accept an
``engine="object"|"batched"`` keyword.  ``None`` (the default) means
the per-object oracle; ``"batched"`` selects the structure-of-arrays
core, which the differential suites prove bit-identical to the oracle.

This module is dependency-free on purpose: it sits below both
``repro.sim`` and ``repro.engine.batched`` in the import graph, so
either side can import it without creating a cycle.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError

#: Engines the cluster entry points understand.
ENGINES = ("object", "batched")


def resolve_engine(engine: Optional[str]) -> str:
    """Validate ``engine`` and resolve ``None`` to ``"object"``."""
    if engine is None:
        return "object"
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r}: expected one of {ENGINES}"
        )
    return engine

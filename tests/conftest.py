"""Shared fixtures for the Pocolo reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    REFERENCE_SPEC,
    best_effort_apps,
    latency_critical_apps,
    make_graph,
    make_xapian,
)
from repro.evaluation import fit_catalog


@pytest.fixture(scope="session")
def spec():
    """The Table I reference server."""
    return REFERENCE_SPEC


@pytest.fixture(scope="session")
def lc_apps():
    """All four latency-critical apps."""
    return latency_critical_apps()


@pytest.fixture(scope="session")
def be_apps():
    """All four best-effort apps."""
    return best_effort_apps()


@pytest.fixture(scope="session")
def xapian():
    """The xapian LC app (the motivation study's primary)."""
    return make_xapian()


@pytest.fixture(scope="session")
def graph():
    """The graph BE app (the most power-hungry co-runner)."""
    return make_graph()


@pytest.fixture(scope="session")
def catalog():
    """A fitted catalog shared across tests (seeded, reproducible)."""
    return fit_catalog(seed=7)


@pytest.fixture()
def rng():
    """A fresh seeded generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def batched_engine(monkeypatch):
    """Resolve ``engine=None`` to the batched core for one test.

    The cluster entry points default to the per-object oracle; this runs
    the whole call tree under a test on the batched core without
    threading ``engine="batched"`` through every call site.
    """
    from repro.engine import select
    from repro.runtime import sweep
    from repro.sim import cluster

    def resolve(engine):
        return select.resolve_engine("batched" if engine is None else engine)

    for module in (cluster, sweep):
        monkeypatch.setattr(module, "resolve_engine", resolve)

"""Golden snapshot of a sweep-built report: the Fig 12/13 per-server table.

The two ``benchmarks/out`` goldens run no cluster cell, so they cannot
catch drift in the simulation epilogue.  This one is built from a small
``run_policy(fit_catalog(7), "pocolo", ...)`` sweep, whose per-server
numbers are averages of per-cell telemetry means.  Floats are rendered
with ``repr``, so a drift in the last bit of any mean fails the test.
The sweep runs 130 ticks per cell, so each mean crosses numpy's
128-element pairwise-summation block.

To update the snapshot intentionally::

    PYTHONPATH=src python -c "from tests.test_golden_sweep import render; \\
        print(render('object'), end='')" > tests/fixtures/golden_pocolo_sweep.txt
"""

import pathlib

import pytest

from repro.evaluation import fit_catalog, run_policy
from repro.sim.colocation import SimConfig

GOLDEN = pathlib.Path(__file__).resolve().parent / "fixtures" / "golden_pocolo_sweep.txt"

LEVELS = (0.3, 0.7)
DURATION_S = 130.0


def render(engine: str) -> str:
    """The Fig 12/13 per-server table of the pinned sweep, floats by repr."""
    result = run_policy(
        fit_catalog(seed=7), "pocolo", levels=LEVELS, duration_s=DURATION_S,
        sim_config=SimConfig(seed=0), engine=engine,
    )
    be_names = result.be_names_by_server()
    throughput = result.be_throughput_by_server()
    utilization = result.power_utilization_by_server()
    lines = [
        f"pocolo sweep: levels={LEVELS!r} duration_s={DURATION_S!r} sim_seed=0",
        "server be fig12_be_throughput fig13_power_utilization",
    ]
    for server in result.servers():
        lines.append(
            f"{server} {be_names[server]} {throughput[server]!r} "
            f"{utilization[server]!r}"
        )
    lines.append(
        f"cluster - {result.cluster_be_throughput()!r} "
        f"{result.cluster_power_utilization()!r}"
    )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("engine", ["object", "batched"])
def test_sweep_report_matches_golden(engine):
    assert render(engine) == GOLDEN.read_text(), (
        f"the pocolo sweep report drifted under engine={engine!r}; if the "
        "change is intended, regenerate the snapshot (see this module's "
        "docstring)"
    )

#!/usr/bin/env python3
"""Chaos smoke: SIGKILL a checkpointed sweep at a random point, resume, diff.

CI's ``chaos-smoke`` job runs this on every push (docs/RECOVERY.md).
The drill:

1. run the reference sweep uninterrupted (in-process);
2. launch the same sweep with a checkpoint file in a subprocess and
   SIGKILL it once the checkpoint shows ``--kill-after`` completed
   cells (chosen from ``--seed`` by default, so every CI run kills at a
   different-but-reproducible point);
3. resume from the surviving checkpoint and compare every reported
   float to the clean run.

Exit 0: resumed run bit-identical. Exit 1: drift, an unusable
checkpoint, or a child that failed for any reason other than our kill.

Usage:  PYTHONPATH=src python scripts/chaos_smoke.py [--seed N]
"""

import argparse
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps import (  # noqa: E402  (path bootstrap above)
    REFERENCE_SPEC,
    best_effort_apps,
    latency_critical_apps,
)
from repro.evaluation.pipeline import HeraclesFactory  # noqa: E402
from repro.runtime import Checkpoint, run_cluster_checkpointed  # noqa: E402
from repro.sim.cluster import ServerPlan, run_cluster  # noqa: E402
from repro.sim.colocation import SimConfig  # noqa: E402

LEVELS = [0.25, 0.5, 0.75]
DURATION_S = 150.0
CONFIG = SimConfig(seed=11)

_CHILD = f"""\
import sys
sys.path.insert(0, {str(REPO_ROOT / "src")!r})
sys.path.insert(0, {str(REPO_ROOT / "scripts")!r})
from chaos_smoke import build_plans, LEVELS, DURATION_S, CONFIG
from repro.apps import REFERENCE_SPEC
from repro.runtime import run_cluster_checkpointed

# The object engine checkpoints each cell as it finishes, so the kill
# lands between cells; the batched engine would checkpoint only at the end.
run_cluster_checkpointed(
    build_plans(), REFERENCE_SPEC, sys.argv[1], levels=LEVELS,
    duration_s=DURATION_S, config=CONFIG, resume=True,
    engine="object",
)
"""


def build_plans():
    lcs = latency_critical_apps()
    bes = best_effort_apps()
    return [
        ServerPlan(
            lc_app=lcs[lc], be_app=bes[be],
            provisioned_power_w=lcs[lc].peak_server_power_w(),
            manager_factory=HeraclesFactory(),
        )
        for lc, be in [("xapian", "rnn"), ("sphinx", "graph")]
    ]


def flatten(result):
    rows = []
    for o in result.outcomes:
        r = o.result
        rows.append((
            o.lc_name, o.be_name, o.level, r.duration_s,
            r.avg_be_throughput_norm, r.avg_be_throughput_abs,
            r.avg_lc_load_fraction, r.avg_power_w, r.power_utilization,
            r.energy_kwh, r.slo_violation_fraction,
        ))
    return rows


def kill_mid_flight(ckpt: Path, kill_after: int, timeout_s: float) -> int:
    """Run the sweep in a child; SIGKILL it after ``kill_after`` cells."""
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(ckpt)], cwd=REPO_ROOT
    )
    deadline = time.monotonic() + timeout_s
    try:
        while child.poll() is None and time.monotonic() < deadline:
            if ckpt.exists():
                done = Checkpoint.load(ckpt).extra.get("cells_done", 0)
                if done >= kill_after:
                    child.send_signal(signal.SIGKILL)
                    break
            time.sleep(0.02)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)
    return child.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the kill point (default 0)")
    parser.add_argument("--kill-after", type=int, default=None,
                        help="kill once this many cells are checkpointed "
                             "(default: random in [1, cells-1] from --seed)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="give up after this many seconds (default 300)")
    args = parser.parse_args(argv)

    plans = build_plans()
    kwargs = dict(levels=LEVELS, duration_s=DURATION_S, config=CONFIG)
    cells = len(plans) * len(LEVELS)
    kill_after = args.kill_after
    if kill_after is None:
        kill_after = random.Random(args.seed).randint(1, cells - 1)
    print(f"chaos-smoke: {cells} cells, killing after {kill_after} "
          f"(seed {args.seed})")

    clean = run_cluster(plans, REFERENCE_SPEC, **kwargs)

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "sweep.ckpt"
        returncode = kill_mid_flight(ckpt, kill_after, args.timeout)
        if returncode == 0:
            # The child outran the kill; the checkpoint is complete —
            # still a valid (if less adversarial) resume exercise.
            print("chaos-smoke: child completed before the kill landed")
        elif returncode != -signal.SIGKILL:
            print(f"chaos-smoke: FAIL — child died on its own "
                  f"(exit {returncode})")
            return 1
        if not ckpt.exists():
            print("chaos-smoke: FAIL — no checkpoint survived the kill")
            return 1
        extra = Checkpoint.load(ckpt).extra
        print(f"chaos-smoke: checkpoint survived with "
              f"{extra['cells_done']}/{extra['cells_total']} cells; resuming")
        resumed = run_cluster_checkpointed(
            plans, REFERENCE_SPEC, ckpt, resume=True, **kwargs
        )

    clean_rows, resumed_rows = flatten(clean), flatten(resumed)
    if resumed_rows == clean_rows:
        print("chaos-smoke: OK — resumed run bit-identical to clean run")
        return 0
    for index, (a, b) in enumerate(zip(clean_rows, resumed_rows)):
        if a != b:
            print(f"chaos-smoke: FAIL — cell {index} drifted:\n"
                  f"  clean:   {a}\n  resumed: {b}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""The violation ledger: format, error handling, and resume bit-identity.

The headline test is the crash drill `src/repro/guard/ledger.py` and
docs/RECOVERY.md both point at: a guarded, checkpointed sweep is
SIGKILLed mid-run — while cell fault windows are still ahead of it —
resumed from the surviving checkpoint, and its ledger file must be
**byte-identical** to the ledger of an uninterrupted run.  The ledger is
derived from completed cell outcomes (never streamed), and cells are
pure functions of their task tuples, so identity is exact, not
approximate.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.apps import REFERENCE_SPEC, best_effort_apps, latency_critical_apps
from repro.errors import ConfigError
from repro.evaluation.pipeline import HeraclesFactory
from repro.faults import ClusterFaultPlan, FaultSchedule, MeterStuckAt
from repro.guard import GuardConfig
from repro.guard.invariants import GuardReport, Violation
from repro.guard.ledger import (
    LEDGER_FORMAT,
    ledger_entries,
    read_ledger,
    render_ledger,
    write_ledger,
)
from repro.runtime import Checkpoint, run_cluster_checkpointed
from repro.sim import SimConfig, run_cluster
from repro.sim.cluster import ServerPlan

REPO_ROOT = Path(__file__).resolve().parents[1]

LEVELS = [0.3, 0.6]
DURATION_S = 30.0
CONFIG = SimConfig(seed=0, warmup_s=2.0)
#: A core floor no allocation can meet: every tick violates lc-slo-floor,
#: so the ledger is guaranteed non-empty and fully deterministic.
GUARD = GuardConfig(lc_min_cores=REFERENCE_SPEC.cores + 1)


def build_plans():
    """Two guarded servers; importable by the killed child process."""
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


def build_fault_plan():
    """A per-cell fault window, so the kill lands mid-fault-window."""
    return ClusterFaultPlan(cell_faults=FaultSchedule([
        MeterStuckAt(start_s=5.0, duration_s=20.0)
    ]))


_CHILD = f"""\
import sys
sys.path.insert(0, {str(REPO_ROOT / "src")!r})
sys.path.insert(0, {str(REPO_ROOT / "tests")!r})
from test_guard_ledger import (
    CONFIG, DURATION_S, GUARD, LEVELS, build_fault_plan, build_plans,
)
from repro.apps import REFERENCE_SPEC
from repro.runtime import run_cluster_checkpointed

run_cluster_checkpointed(
    build_plans(), REFERENCE_SPEC, sys.argv[1], levels=LEVELS,
    duration_s=DURATION_S, config=CONFIG, fault_plan=build_fault_plan(),
    guard=GUARD, ledger_path=sys.argv[2], resume=True,
)
"""


def _kill_after_one_cell(ckpt: Path, timeout_s: float = 120.0) -> int:
    """SIGKILL the child sweep once its checkpoint shows one cell done."""
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(ckpt), str(ckpt) + ".jsonl"],
        cwd=REPO_ROOT,
    )
    deadline = time.monotonic() + timeout_s
    try:
        while child.poll() is None and time.monotonic() < deadline:
            if ckpt.exists():
                done = Checkpoint.load(ckpt).extra.get("cells_done", 0)
                if done >= 1:
                    child.send_signal(signal.SIGKILL)
                    break
            time.sleep(0.01)
        child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=60)
    return child.returncode


class TestResumeBitIdentity:
    @pytest.mark.slow
    def test_killed_and_resumed_ledger_is_byte_identical(self, tmp_path):
        plans = build_plans()
        clean = run_cluster(
            plans, REFERENCE_SPEC, levels=LEVELS, duration_s=DURATION_S,
            config=CONFIG, fault_plan=build_fault_plan(), guard=GUARD,
        )
        reference = render_ledger(clean)
        assert reference, "the planted floor breach must populate the ledger"

        ckpt = tmp_path / "sweep.ckpt"
        returncode = _kill_after_one_cell(ckpt)
        assert returncode == -signal.SIGKILL, (
            "the child must die to our kill, not on its own"
        )
        assert ckpt.exists(), "no checkpoint survived the kill"
        extra = Checkpoint.load(ckpt).extra
        assert 1 <= extra["cells_done"] < extra["cells_total"], (
            "the kill must land mid-sweep for the drill to mean anything"
        )

        ledger_path = tmp_path / "violations.jsonl"
        resumed = run_cluster_checkpointed(
            plans, REFERENCE_SPEC, ckpt, levels=LEVELS,
            duration_s=DURATION_S, config=CONFIG,
            fault_plan=build_fault_plan(), guard=GUARD,
            ledger_path=ledger_path, resume=True,
        )
        assert ledger_path.read_text(encoding="utf-8") == reference
        assert render_ledger(resumed) == reference
        # And the parsed entries agree with the in-memory reports.
        entries = read_ledger(ledger_path)
        assert len(entries) == sum(
            len(o.result.guard_report.violations) for o in clean.outcomes
        )


def _fake_result(reports, lc="xapian", be="rnn"):
    outcomes = [
        SimpleNamespace(
            lc_name=lc, be_name=be, level=0.1 * (i + 1),
            result=SimpleNamespace(guard_report=report),
        )
        for i, report in enumerate(reports)
    ]
    return SimpleNamespace(outcomes=outcomes)


def _report(*violations, mode="record"):
    return GuardReport(
        mode=mode, checks=60, total_violations=len(violations),
        violations=tuple(violations),
    )


VIOLATION = Violation(
    invariant="power-cap", time_s=3.2,
    message="true draw above the provisioned cap envelope",
    observed=161.25, limit=157.0,
)


class TestLedgerFormat:
    def test_entries_ordered_by_cell_then_time(self):
        second = Violation("monotonic-time", 7.0, "clock stalled", 1.0, 1.0)
        result = _fake_result([
            _report(VIOLATION, second),
            _report(VIOLATION),
        ])
        entries = ledger_entries(result)
        assert [(e["cell"], e["invariant"]) for e in entries] == [
            (0, "power-cap"), (0, "monotonic-time"), (1, "power-cap"),
        ]
        assert all(e["format"] == LEDGER_FORMAT for e in entries)

    def test_unguarded_cells_are_skipped(self):
        result = _fake_result([None, _report(VIOLATION)])
        entries = ledger_entries(result)
        assert len(entries) == 1
        assert entries[0]["cell"] == 1

    def test_write_read_round_trip(self, tmp_path):
        result = _fake_result([_report(VIOLATION)])
        path = tmp_path / "ledger.jsonl"
        assert write_ledger(path, result) == 1
        entries = read_ledger(path)
        assert entries == ledger_entries(result)
        # repr-faithful floats survive the trip exactly.
        assert entries[0]["observed"] == 161.25

    def test_empty_ledger_is_still_written(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        assert write_ledger(path, _fake_result([_report()])) == 0
        assert path.exists() and path.read_bytes() == b""
        assert read_ledger(path) == []


class TestLedgerErrors:
    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no violation ledger"):
            read_ledger(tmp_path / "absent.jsonl")

    def test_invalid_json_line_rejected(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"format": "' + LEDGER_FORMAT + '"}\n{oops\n')
        with pytest.raises(ConfigError, match="not valid JSON"):
            read_ledger(path)

    def test_unknown_format_tag_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"format": "pocolo-guard-ledger/99"}) + "\n")
        with pytest.raises(ConfigError, match="unknown ledger format"):
            read_ledger(path)

    def test_ledger_without_guard_config_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="needs a guard config"):
            run_cluster_checkpointed(
                build_plans()[:1], REFERENCE_SPEC,
                tmp_path / "sweep.ckpt", levels=[0.3], duration_s=4.0,
                config=CONFIG, ledger_path=tmp_path / "ledger.jsonl",
            )

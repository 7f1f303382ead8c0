"""Crash-safe execution runtime: atomic artifacts, checkpoints, resume.

A power-constrained cluster study is long-running and restartable by
nature; this package makes the *reproduction* share that property.
Three layers, each usable alone:

* :mod:`repro.runtime.atomic` — write-temp → fsync → rename helpers;
  every durable artifact the repo emits goes through them, so a crash
  can never leave a half-written JSON/Markdown/CSV behind (enforced by
  pocolint's POCO501 ``atomic-artifacts`` rule).
* :mod:`repro.runtime.checkpoint` — a versioned, checksummed,
  self-describing checkpoint file format with paranoid validation on
  load (magic, version, length, SHA-256, run identity) before a single
  byte is unpickled.
* :mod:`repro.runtime.sweep` — :func:`run_cluster_checkpointed`, the
  crash-safe wrapper around the cluster sweep: completed (plan, level)
  cells persist as they land and a resumed run re-executes only the
  missing ones, producing a **bit-identical**
  :class:`~repro.sim.cluster.ClusterRunResult`.

Cells execute in-process, on the per-object oracle by default.  With
``engine="batched"`` they reach the checkpoint only after the whole
sweep has run.  The recovery runbook is ``docs/RECOVERY.md``.
"""

from repro.runtime.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.runtime.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Checkpoint,
)
from repro.runtime.sweep import run_cluster_checkpointed, sweep_run_key

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "run_cluster_checkpointed",
    "sweep_run_key",
]

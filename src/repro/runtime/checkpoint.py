"""Versioned, checksummed checkpoint files for crash-safe runs.

A checkpoint is one self-describing binary file::

    {"magic": "pocolo-checkpoint", "version": 2,
     "run_key": "<sha256 of the sweep identity>",
     "payload_sha256": "<sha256 of the payload bytes>",
     "payload_bytes": N, "extra": {...}}\\n
    <N bytes of pickled payload>

The JSON header line makes a checkpoint greppable and lets ``load``
validate *everything* before unpickling a single byte: magic and format
version (any other version is refused, never a silent misparse),
payload length (truncation from a crashed writer), SHA-256 checksum
(bit rot, torn writes that slipped past the filesystem), and the
``run_key`` — a digest of the sweep's identity that stops a checkpoint
from one configuration from silently resuming a different one.

Files are written through :func:`repro.runtime.atomic.atomic_write_bytes`
(write-temp → fsync → rename), so the file named ``sweep.ckpt`` is
always a *complete* checkpoint: the most recent one whose write
finished.  A crash mid-save costs at most the delta since the previous
save, never the file.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro.errors import CheckpointError
from repro.runtime.atomic import PathLike, atomic_write_bytes

#: First token of every checkpoint header; never changes.
CHECKPOINT_MAGIC = "pocolo-checkpoint"

#: Current format version.  Readers refuse every other version outright —
#: guessing at an unknown layout is how resumes corrupt results.  Version
#: 2 pickles each cell's telemetry as one lane of a tick block.
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class Checkpoint:
    """One decoded checkpoint: an opaque payload plus its identity.

    ``run_key`` ties the payload to the run configuration that produced
    it; ``extra`` carries small JSON-safe metadata (progress counters,
    human-readable context) readable without unpickling the payload.
    """

    run_key: str
    payload: Any
    extra: Dict[str, Any] = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    def save(self, path: PathLike) -> Path:
        """Encode and atomically write this checkpoint to ``path``."""
        payload_bytes = pickle.dumps(self.payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = {
            "magic": CHECKPOINT_MAGIC,
            "version": self.version,
            "run_key": self.run_key,
            "payload_sha256": hashlib.sha256(payload_bytes).hexdigest(),
            "payload_bytes": len(payload_bytes),
            "extra": self.extra,
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload_bytes
        return atomic_write_bytes(path, blob)

    @classmethod
    def load(
        cls, path: PathLike, expect_run_key: Optional[str] = None
    ) -> "Checkpoint":
        """Read, validate and decode the checkpoint at ``path``.

        Raises :class:`~repro.errors.CheckpointError` on any defect —
        a missing file, a malformed or alien header, an unsupported
        version, a truncated or corrupt payload, or (when
        ``expect_run_key`` is given) a checkpoint that belongs to a
        different run.
        """
        target = Path(path)
        try:
            blob = target.read_bytes()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {target}: {exc}") from exc
        newline = blob.find(b"\n")
        if newline < 0:
            raise CheckpointError(f"checkpoint {target} has no header line")
        try:
            header = json.loads(blob[:newline].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint {target} header is not valid JSON: {exc}"
            ) from exc
        if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{target} is not a pocolo checkpoint")
        version = header.get("version")
        if not isinstance(version, int) or version > CHECKPOINT_VERSION or version < 1:
            raise CheckpointError(
                f"checkpoint {target} has unsupported version {version!r} "
                f"(this reader supports {CHECKPOINT_VERSION})"
            )
        if version < CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {target} was written by an older format "
                f"(version {version}, this reader needs {CHECKPOINT_VERSION}); "
                "delete it and restart the run"
            )
        payload_bytes = blob[newline + 1:]
        declared = header.get("payload_bytes")
        if declared != len(payload_bytes):
            raise CheckpointError(
                f"checkpoint {target} is truncated: header declares "
                f"{declared} payload bytes, file carries {len(payload_bytes)}"
            )
        digest = hashlib.sha256(payload_bytes).hexdigest()
        if digest != header.get("payload_sha256"):
            raise CheckpointError(
                f"checkpoint {target} failed its checksum — the payload is "
                "corrupt; delete the file and restart the run"
            )
        run_key = header.get("run_key")
        if not isinstance(run_key, str):
            raise CheckpointError(f"checkpoint {target} header lacks a run_key")
        if expect_run_key is not None and run_key != expect_run_key:
            raise CheckpointError(
                f"checkpoint {target} belongs to a different run "
                f"(checkpoint key {run_key[:12]}…, this run "
                f"{expect_run_key[:12]}…); refusing to resume"
            )
        extra = header.get("extra")
        if not isinstance(extra, dict):
            extra = {}
        try:
            payload = pickle.loads(payload_bytes)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint {target} payload failed to unpickle: {exc}"
            ) from exc
        return cls(run_key=run_key, payload=payload, extra=extra, version=version)

"""Shared content-addressed artifact store.

PR 1's per-runner disk cache promoted to a service-level store with two
layers, each a :class:`~repro.durability.spool.RecordDir` and so safe
under concurrent writers (every write is a private tmp file + atomic
``os.replace``, so readers never see a torn artifact and two workers
finishing the same content simply overwrite each other with identical
bytes):

* **job artifacts** (``artifacts/<job id>.json``) — the full result
  payload of one job, keyed by the job's content digest.  Because the
  job id hashes the normalised ``(kind, spec)``, *any* client
  resubmitting identical work hits the same artifact: the submission
  completes instantly as a cache hit and simulates nothing.
* **the point cache** (``points/``) — the existing
  :class:`~repro.harness.runner.Runner` content-addressed cache, shared
  by every worker via ``cache_dir``.  Jobs that overlap partially
  (different figures sharing baseline points) dedup at point
  granularity even when their job-level artifacts differ.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, Optional

from ..durability.faultyfs import NULL_FS
from ..durability.spool import RecordDir


class ArtifactStore:
    """Job-level results plus the shared simulation point cache."""

    #: Envelope schema tag of job artifacts.
    SCHEMA = "artifact"

    def __init__(self, root: Path, fs=NULL_FS, fsync: bool = False) -> None:
        root = Path(root)
        self.artifacts = RecordDir(root / "artifacts", self.SCHEMA, fs,
                                   fsync)
        # Written and read by each job's Runner; opened here for the
        # tmp sweep and the stats.
        self.points = RecordDir(root / "points")
        self.point_cache_dir = self.points.root
        #: Orphaned tmp files reclaimed when this store opened.
        self.tmp_swept = self.artifacts.tmp_swept + self.points.tmp_swept

    # -- job artifacts -------------------------------------------------------
    def path(self, job: str) -> Path:
        return self.artifacts.path(f"{job}.json")

    def has(self, job: str) -> bool:
        """True only when a *valid* artifact exists.

        This is the dedup gate: submissions and claiming workers skip
        execution on it, so it must validate — a bit-rotted artifact
        answered as a cache hit would silently serve garbage forever.
        A corrupt one is quarantined here and the job re-executes.
        """
        return self.get(job) is not None

    def put(self, job: str, payload: Dict[str, Any]) -> Path:
        """Store one job's result payload (atomic, idempotent)."""
        return self.artifacts.put(f"{job}.json", {
            "job": job, "stored_ts": time.time(), "payload": payload})

    def get(self, job: str) -> Optional[Dict[str, Any]]:
        """The stored payload, or ``None`` when absent/quarantined."""
        doc = self.artifacts.get(f"{job}.json")
        if doc is None:
            return None
        return doc.get("payload")

    # -- introspection -------------------------------------------------------
    def quarantined(self) -> int:
        """Corrupt artifacts/points moved aside (derived from disk)."""
        return self.artifacts.quarantined() + self.points.quarantined()

    def stats(self) -> Dict[str, int]:
        artifacts = 0
        artifact_bytes = 0
        for name in self.artifacts.names():
            try:
                artifact_bytes += self.artifacts.path(name).stat().st_size
            except OSError:
                continue
            artifacts += 1
        return {"artifacts": artifacts, "artifact_bytes": artifact_bytes,
                "cached_points": len(self.points.names()),
                "quarantined": self.quarantined(),
                "tmp_swept": self.tmp_swept}


__all__ = ["ArtifactStore"]

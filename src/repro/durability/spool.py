"""The two durable primitives every store is built from.

* :class:`RecordDir` — one directory of envelope records
  (:mod:`.records`): ``put`` publishes by atomic replace, ``put_once``
  by first-writer-wins link; ``get`` validates, and a corrupt record is
  quarantined and reads as missing, so the owner's recompute/requeue
  path takes over.  Opening the directory reclaims tmp orphans older
  than :data:`~.records.TMP_SWEEP_AGE`.
* :class:`Spool` — a ``pending/`` + ``running/`` pair of RecordDirs.
  Every transition is one ``os.rename`` of one entry: a claim is
  race-free (exactly one of many claimers wins the rename), and an
  entry is always in exactly one directory, so a claimant that dies
  leaves its entry in ``running/`` for its owner (or ``repro fsck``)
  to requeue.

The service queue, job records, artifact store, point cache and the
model checker's spooled frontier all persist through these two types,
and :mod:`.fsck` scans any of them from a declared layout.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional

from .faultyfs import NULL_FS
from .records import (read_or_quarantine, quarantine, quarantine_count,
                      sweep_tmp, write_record)


def record_names(directory: Path, prefix: str = "") -> List[str]:
    """Sorted names of the ``<prefix>*.json`` records in ``directory``
    (tmp files and subdirectories excluded); empty when it does not
    exist."""
    try:
        names = [n for n in os.listdir(directory)
                 if n.startswith(prefix) and n.endswith(".json")]
    except FileNotFoundError:
        return []
    names.sort()
    return names


class RecordDir:
    """One directory of envelope records (see module docstring).

    ``schema`` tags every record written (it is also the fault-shim
    site) and is checked on every read.  Corrupt records move into
    ``<quarantine_root>/quarantine/`` — by default the directory's
    own.
    """

    def __init__(self, root: Path, schema: Optional[str] = None,
                 fs=NULL_FS, fsync: bool = False,
                 quarantine_root: Optional[Path] = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.schema = schema
        self.fs = fs
        self.fsync = fsync
        self.quarantine_root = Path(quarantine_root) \
            if quarantine_root is not None else self.root
        #: Orphaned tmp files reclaimed when this directory opened (a
        #: crash between a record's write and its rename leaks one).
        self.tmp_swept = sweep_tmp(self.root)

    def path(self, name: str) -> Path:
        return self.root / name

    def names(self, prefix: str = "") -> List[str]:
        return record_names(self.root, prefix)

    def put(self, name: str, body: Any,
            schema: Optional[str] = None) -> Path:
        """Publish ``body`` as ``name`` (atomic replace; last writer
        wins whole).  ``schema`` overrides the directory's tag for
        directories that hold several record kinds."""
        path = self.root / name
        write_record(path, schema or self.schema, body, fs=self.fs,
                     fsync=self.fsync)
        return path

    def put_once(self, name: str, body: Any,
                 schema: Optional[str] = None) -> bool:
        """First-writer-wins creation; True when this call created it."""
        return write_record(self.root / name, schema or self.schema,
                            body, fs=self.fs, fsync=self.fsync,
                            exclusive=True)

    def get(self, name: str,
            load: Optional[Callable[[Any], Any]] = None) -> Any:
        """The validated body of ``name`` (passed through ``load`` when
        given), or None when it is missing or corrupt — a record that
        fails validation, or that ``load`` rejects, is quarantined."""
        path = self.root / name
        body = read_or_quarantine(path, self.schema,
                                  root=self.quarantine_root)
        if body is None or load is None:
            return body
        try:
            return load(body)
        except (ValueError, KeyError, TypeError):
            quarantine(path, root=self.quarantine_root,
                       reason="unloadable")
            return None

    def quarantined(self) -> int:
        """Records moved into this directory's quarantine (from disk)."""
        return quarantine_count(self.quarantine_root)


class Spool:
    """A ``pending/`` + ``running/`` pair of :class:`RecordDir` s."""

    def __init__(self, root: Path, schema: str, fs=NULL_FS,
                 fsync: bool = False,
                 quarantine_root: Optional[Path] = None) -> None:
        self.root = Path(root)
        self.pending = RecordDir(self.root / "pending", schema, fs, fsync,
                                 quarantine_root)
        self.running = RecordDir(self.root / "running", schema, fs, fsync,
                                 quarantine_root)
        self.tmp_swept = self.pending.tmp_swept + self.running.tmp_swept

    def submit(self, name: str, body: Any) -> None:
        self.pending.put(name, body)

    def claim(self, names: Iterable[str]) -> Optional[str]:
        """Rename the first claimable pending entry of ``names`` into
        ``running/``; returns its name, or None when every candidate
        was lost to another claimer.  Safe from any number of
        processes.  An iterator passed again after a win goes on where
        the previous claim stopped."""
        for name in names:
            try:
                os.rename(self.pending.root / name,
                          self.running.root / name)
            except OSError:
                continue      # another claimer won this entry
            return name
        return None

    def ack(self, name: str) -> None:
        """The claimed work is finished; drop its entry."""
        try:
            os.unlink(self.running.root / name)
        except FileNotFoundError:
            pass

    def requeue(self, name: str) -> bool:
        """Move a running entry back to pending; False when it is gone
        (already acked or requeued elsewhere — the race is benign)."""
        try:
            os.rename(self.running.root / name, self.pending.root / name)
        except OSError:
            return False
        return True

    def running_age(self, name: str) -> Optional[float]:
        """Seconds since the entry's file was last written (a rename
        keeps it); None when it is no longer running."""
        try:
            stamp = os.stat(self.running.root / name).st_mtime
        except FileNotFoundError:
            return None
        return max(0.0, time.time() - stamp)


__all__ = ["RecordDir", "Spool", "record_names"]

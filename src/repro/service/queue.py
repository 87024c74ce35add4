"""Disk-backed, crash-safe, priority task queue with a bounded backlog.

The queue is two spool directories of tiny entry files::

    queue/pending/p<priority>-<seq>-<job id>.json
    queue/running/p<priority>-<seq>-<job id>.json

The two directories are a :class:`~repro.durability.spool.Spool`:
every transition is a single atomic ``os.rename`` of one entry file,
which gives three properties with no locks and no daemon:

* **claim is race-free** — many workers may try to rename the same
  pending entry into ``running/``; the filesystem lets exactly one
  succeed (the losers get ``FileNotFoundError`` and move on);
* **crash-safe** — an entry is always in exactly one directory, so a
  worker that dies mid-job leaves its entry in ``running/`` where the
  monitor finds it and renames it back (nothing accepted is ever lost);
* **restart-safe** — queue state *is* the directory listing; a service
  restart recovers the backlog by reading nothing but filenames.

Ordering: entries drain lexicographically, and filenames sort by
priority first (``p0`` < ``p1`` < ``p2``), then by a monotonic
submission sequence — strict priority, FIFO within a priority band.

The backlog is bounded: :meth:`DiskQueue.submit` refuses work beyond
``max_backlog`` pending entries by raising :class:`QueueFull`, which
the API layer turns into HTTP 429.  Shedding happens *only* at the
submission edge — once an entry is accepted it is never dropped, only
drained or explicitly failed after its retry budget.

:class:`QueueAudit` cross-checks the entries against the job records;
the service monitor and ``repro fsck`` (through :data:`SERVICE_LAYOUT`,
the whole service data dir declared as data) share it.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from ..common.errors import ReproError
from ..durability.faultyfs import NULL_FS
from ..durability.fsck import FsckReport, Layout, Records
from ..durability.records import CorruptRecord, read_record, write_record
from ..durability.spool import Spool, record_names
from .jobs import DEFAULT_PRIORITY, PRIORITIES, JobRecord, JobStore
from .store import ArtifactStore


class QueueFull(ReproError):
    """The pending backlog is at capacity; the submission was shed."""

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(
            f"backlog full ({depth}/{limit} pending); submission shed")
        self.depth = depth
        self.limit = limit


class Entry:
    """A parsed queue entry filename."""

    __slots__ = ("name", "priority", "seq", "job")

    def __init__(self, name: str) -> None:
        stem = name[:-5] if name.endswith(".json") else name
        prio, seq, job = stem.split("-", 2)
        self.name = name
        self.priority = int(prio[1:])
        self.seq = int(seq)
        self.job = job

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return f"Entry({self.name})"


def _entries(names: Iterable[str]) -> List[Entry]:
    entries = []
    for name in names:
        try:
            entries.append(Entry(name))
        except (ValueError, IndexError):
            continue
    return entries


def entry_name(job: str, priority: str, seq: int) -> str:
    """The filename of a fresh entry: priority band, then submission
    order (ms timestamp, pid, per-process ``seq``), then the job id."""
    stamp = time.time_ns() // 1_000_000
    return f"p{PRIORITIES[priority]}-{stamp:015d}" \
           f"{os.getpid() % 100_000:05d}{seq:06d}-{job}.json"


def entry_body(name: str) -> Optional[dict]:
    """An entry's payload, which is a pure function of its filename."""
    try:
        entry = Entry(name)
    except (ValueError, IndexError):
        return None
    by_num = {num: label for label, num in PRIORITIES.items()}
    return {"job": entry.job,
            "priority": by_num.get(entry.priority, DEFAULT_PRIORITY)}


class DiskQueue:
    """Priority FIFO over a pending/running spool (see module
    docstring)."""

    #: Envelope schema tag of queue entry payloads.
    SCHEMA = "queue-entry"

    def __init__(self, root: Path, max_backlog: int = 64, fs=NULL_FS,
                 fsync: bool = False) -> None:
        self.spool = Spool(root, self.SCHEMA, fs, fsync)
        self.pending_dir = self.spool.pending.root
        self.running_dir = self.spool.running.root
        self.max_backlog = max_backlog
        #: Orphaned tmp files reclaimed when this queue opened.
        self.tmp_swept = self.spool.tmp_swept
        # Sequence numbers only need to be unique and increasing per
        # submitting process; cross-process ties break on the counter
        # suffix which embeds the pid.
        self._seq = itertools.count()
        self._lock = threading.Lock()

    # -- introspection -------------------------------------------------------
    def pending(self) -> List[Entry]:
        return _entries(self.spool.pending.names())

    def running(self) -> List[Entry]:
        return _entries(self.spool.running.names())

    def depth(self) -> int:
        return len(self.pending())

    def inflight(self) -> int:
        return len(self.running())

    def depth_by_priority(self) -> Dict[str, int]:
        by_num = {num: 0 for num in PRIORITIES.values()}
        for entry in self.pending():
            by_num[entry.priority] = by_num.get(entry.priority, 0) + 1
        return {name: by_num.get(num, 0)
                for name, num in PRIORITIES.items()}

    # -- producer edge -------------------------------------------------------
    def submit(self, job: str, priority: str = DEFAULT_PRIORITY) -> str:
        """Enqueue ``job``; returns the entry name.

        Raises :class:`QueueFull` when the pending backlog is at
        ``max_backlog`` — the *only* point where work is ever refused.
        """
        with self._lock:
            depth = self.depth()
            if depth >= self.max_backlog:
                raise QueueFull(depth, self.max_backlog)
            name = entry_name(job, priority, next(self._seq))
            self.spool.submit(name, {"job": job, "priority": priority})
        return name

    # -- consumer edge -------------------------------------------------------
    def claim(self) -> Optional[Entry]:
        """Atomically move the best pending entry to ``running/``.

        Returns the claimed entry, or ``None`` when the queue is empty.
        Safe to call concurrently from any number of processes.
        """
        name = self.spool.claim(e.name for e in self.pending())
        return Entry(name) if name is not None else None

    def ack(self, entry_name: str) -> None:
        """The claimed job finished (terminally); drop its entry."""
        self.spool.ack(entry_name)

    def requeue(self, entry_name: str) -> bool:
        """Move a running entry back to pending (worker died/retreated).

        Returns ``False`` when the entry is gone (already acked or
        requeued by someone else) — requeue races are benign.
        """
        return self.spool.requeue(entry_name)

    def entry_payload(self, directory: Path, entry_name: str) -> Optional[dict]:
        records = self.spool.pending if Path(directory) == self.pending_dir \
            else self.spool.running
        # Missing or corrupt (quarantined by ``get``): rebuild it from
        # the name so a rotted entry never strands its job.
        return records.get(entry_name) or entry_body(entry_name)

    def quarantined(self) -> int:
        """Corrupt entries moved aside so far (derived from disk)."""
        return self.spool.pending.quarantined() \
            + self.spool.running.quarantined()



class QueueAudit:
    """Queue entries cross-checked against job records — the one
    classification behind the service monitor's repairs and ``repro
    fsck``'s orphan-entry, lost-entry and dangling-running findings.

    Pass the entry listings *before* reading the records, so no record
    is older than the listing it is matched against.
    """

    def __init__(self, pending: List[Entry], running: List[Entry],
                 records: Iterable[JobRecord]) -> None:
        by_id = {record.id: record for record in records}
        queued = {entry.job for entry in pending + running}

        def active(entry: Entry) -> bool:
            record = by_id.get(entry.job)
            return record is not None and record.active

        #: Pending entries with no job record: nothing says what to run.
        self.orphans = [e for e in pending if e.job not in by_id]
        #: Running entries whose job is gone or terminal: only the
        #: entry is left over (a worker died between record and ack).
        self.finished = [e for e in running if not active(e)]
        #: Running entries of active jobs: the claimant's liveness and
        #: lease decide.
        self.claimed = [(e, by_id[e.job]) for e in running if active(e)]
        #: Active records with no entry at all: to be re-enqueued.
        self.lost = [r for r in by_id.values()
                     if r.active and r.id not in queued]


# ----------------------------------------------------------------------
# The service data dir, as ``repro fsck`` scans it
# ----------------------------------------------------------------------

def _read_audit(root: Path) -> QueueAudit:
    """A :class:`QueueAudit` read without side effects: corrupt job
    records are skipped, not quarantined (fsck reports them itself)."""
    pending = _entries(record_names(root / "queue" / "pending"))
    running = _entries(record_names(root / "queue" / "running"))
    records = []
    for name in record_names(root / "jobs"):
        try:
            data = read_record(root / "jobs" / name, JobStore.SCHEMA)
        except CorruptRecord:
            continue
        if data:
            records.append(JobRecord.from_dict(data))
    return QueueAudit(pending, running, records)


def _fsck_audit(root: Path, report: FsckReport) -> None:
    pending = root / "queue" / "pending"
    audit = _read_audit(root)
    for entry in audit.orphans:
        path = pending / entry.name
        report.add("orphan-entry", path, "queue entry with no job record",
                   fix=lambda path=path: path.unlink(missing_ok=True),
                   action="removed")

    def enqueue(record: JobRecord, seq: int) -> None:
        record.reset()
        write_record(root / "jobs" / f"{record.id}.json", JobStore.SCHEMA,
                     record.to_dict())
        write_record(pending / entry_name(record.id, record.priority, seq),
                     DiskQueue.SCHEMA,
                     {"job": record.id, "priority": record.priority})

    for seq, record in enumerate(audit.lost):
        report.add("lost-entry", root / "jobs" / f"{record.id}.json",
                   f"{record.status} job {record.id} has no queue entry",
                   fix=lambda r=record, n=seq: enqueue(r, n),
                   action="re-enqueued")


#: The service data dir: job records, the queue spool (entries rebuilt
#: from their names), artifacts, the shared point cache, heartbeats
#: (ephemeral), and check jobs' nested frontier spools under scratch/.
SERVICE_LAYOUT = Layout(
    "service",
    dirs=(Records("jobs", JobStore.SCHEMA),
          Records("store/artifacts", ArtifactStore.SCHEMA),
          Records("store/points", "point-cache"),
          Records("workers", "heartbeat", ephemeral=True)),
    spool=Records("queue", DiskQueue.SCHEMA, rebuild=entry_body),
    finished=lambda root: {e.name for e in _read_audit(root).finished},
    audit=_fsck_audit,
    nested="scratch")

"""Worker fleet: long-lived processes draining the disk queue.

Each worker is an OS process whose loop is *claim -> execute -> ack*:

* **claim** — an atomic rename in :class:`~repro.service.queue
  .DiskQueue` (race-free against the rest of the fleet);
* **execute** — :func:`~repro.service.executor.execute_job`, i.e. the
  repo's existing harness entry points; sweep jobs run the
  crash-resilient :func:`~repro.harness.parallel.run_points`
  deadline/retry/checkpoint loop against the shared point cache;
* **ack** — artifact stored *first*, then the record marked done, then
  the queue entry dropped, in that order: a worker that dies between
  any two steps leaves a state the monitor (or the next claimer, which
  checks the artifact store before executing) repairs without
  re-simulating.

Failure bookkeeping: a job that raises is retried up to its record's
``max_attempts`` (the entry goes back to pending); a
:class:`~repro.common.errors.DeadlockError` or
:class:`~repro.common.errors.ModelError` is terminal immediately —
both are deterministic, so a retry can only reproduce them — and a
deadlock's structured :class:`~repro.sim.progress.ProgressDump` rides
on the job record for the status API to serve.

Shutdown is graceful: SIGTERM/SIGINT asks the loop to stop after the
current job, and a SIGTERM that lands *inside* ``run_points`` surfaces
as :class:`~repro.harness.parallel.SweepInterrupted` — the sweep's
manifest and cache checkpoint are already flushed, so the worker
requeues the job uncharged and a later worker resumes it from the
checkpoint (completed points replay as cache hits).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..common.errors import DeadlockError, ModelError
from ..harness.parallel import SweepInterrupted
from .executor import execute_job
from ..durability.spool import RecordDir
from .jobs import JobRecord, JobStore
from .queue import DiskQueue, Entry
from .store import ArtifactStore

#: Worker heartbeat states.
IDLE, BUSY = "idle", "busy"

#: Envelope schema tag of heartbeat records (``workers/<id>.json``).
HEARTBEAT_SCHEMA = "heartbeat"


def service_paths(data_dir: Path) -> Dict[str, Path]:
    """The service's on-disk layout, shared by every component."""
    data_dir = Path(data_dir)
    return {
        "data": data_dir,
        "queue": data_dir / "queue",
        "jobs": data_dir / "jobs",
        "store": data_dir / "store",
        "workers": data_dir / "workers",
        "scratch": data_dir / "scratch",
    }


class Worker:
    """One worker process's loop (also usable inline from tests)."""

    def __init__(self, data_dir: Path, worker_id: str,
                 poll_interval: float = 0.05,
                 max_backlog: int = 64,
                 handlers: Optional[Dict[str, Callable]] = None,
                 fsync: bool = False) -> None:
        paths = service_paths(data_dir)
        self.worker_id = worker_id
        self.fsync = fsync
        self.queue = DiskQueue(paths["queue"], max_backlog=max_backlog,
                               fsync=fsync)
        self.jobs = JobStore(paths["jobs"], fsync=fsync)
        self.store = ArtifactStore(paths["store"], fsync=fsync)
        self.scratch = paths["scratch"]
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.beats = RecordDir(paths["workers"], HEARTBEAT_SCHEMA)
        self.poll_interval = poll_interval
        self.handlers = handlers
        self.stop = False
        self.started_ts = time.time()
        self.busy_seconds = 0.0
        self.jobs_done = 0

    # -- heartbeat -----------------------------------------------------------
    def heartbeat(self, state: str, job: Optional[str] = None) -> None:
        self.beats.put(f"{self.worker_id}.json", {
            "worker": self.worker_id, "pid": os.getpid(),
            "state": state, "job": job, "ts": time.time(),
            "started_ts": self.started_ts,
            "busy_seconds": self.busy_seconds,
            "jobs_done": self.jobs_done,
        })

    # -- signals -------------------------------------------------------------
    def _handle_signal(self, signum, frame) -> None:
        self.stop = True

    def install_signals(self) -> None:
        signal.signal(signal.SIGTERM, self._handle_signal)
        signal.signal(signal.SIGINT, self._handle_signal)

    # -- record transitions --------------------------------------------------
    def _load_record(self, entry: Entry) -> Optional[JobRecord]:
        # The submitter writes the record before the queue entry, but
        # tolerate a beat of lag from foreign submitters.
        for _ in range(3):
            record = self.jobs.load(entry.job)
            if record is not None:
                return record
            time.sleep(0.02)
        return None

    def _finish(self, record: JobRecord, entry: Entry,
                status: str, error: Optional[dict] = None) -> None:
        record.status = status
        record.error = error
        record.finished_ts = time.time()
        self.jobs.save(record)
        self.queue.ack(entry.name)

    def _requeue(self, record: JobRecord, entry: Entry,
                 charge: bool) -> None:
        if not charge:
            record.attempts = max(0, record.attempts - 1)
        record.reset()
        self.jobs.save(record)
        self.queue.requeue(entry.name)

    # -- the loop ------------------------------------------------------------
    def run_one(self, entry: Entry) -> None:
        record = self._load_record(entry)
        if record is None:
            # Orphan entry (no record): nothing to execute or report.
            self.queue.ack(entry.name)
            return
        if self.store.has(record.id):
            # A previous attempt finished the work but died before its
            # ack; complete the job without executing anything.
            record.cache_hit = True
            self._finish(record, entry, "done")
            return
        record.status = "running"
        record.worker = self.worker_id
        record.pid = os.getpid()
        record.started_ts = time.time()
        record.attempts += 1
        self.jobs.save(record)
        self.heartbeat(BUSY, record.id)
        started = time.time()
        try:
            payload = execute_job(record, self.store, self.scratch,
                                  handlers=self.handlers)
            # The put is inside the try: an ENOSPC/EIO while storing
            # the artifact is a charged retry like any other failure,
            # not a worker crash.
            self.store.put(record.id, payload)
        except SweepInterrupted:
            # Service drain: the sweep already flushed its manifest and
            # cache checkpoint; hand the job back uncharged and stop.
            self._requeue(record, entry, charge=False)
            self.stop = True
        except DeadlockError as exc:
            dump = exc.dump.to_dict() if exc.dump is not None else None
            self._finish(record, entry, "failed", {
                "type": "DeadlockError", "message": str(exc),
                "progress_dump": dump})
        except ModelError as exc:
            # Deterministic model bug: retrying can never succeed.
            self._finish(record, entry, "failed", {
                "type": type(exc).__name__, "message": str(exc)})
        except Exception as exc:  # noqa: BLE001 - per-job bookkeeping
            error = {"type": type(exc).__name__, "message": str(exc)}
            if record.attempts >= record.max_attempts:
                self._finish(record, entry, "failed", error)
            else:
                self._requeue(record, entry, charge=True)
        else:
            self._finish(record, entry, "done")
            self.jobs_done += 1
        finally:
            self.busy_seconds += time.time() - started
            self.heartbeat(IDLE)

    def run(self, max_jobs: Optional[int] = None) -> int:
        """Drain the queue until stopped; returns jobs completed."""
        self.heartbeat(IDLE)
        done_at_start = self.jobs_done
        while not self.stop:
            if max_jobs is not None \
                    and self.jobs_done - done_at_start >= max_jobs:
                break
            entry = self.queue.claim()
            if entry is None:
                self.heartbeat(IDLE)
                if max_jobs is not None:
                    break
                time.sleep(self.poll_interval)
                continue
            self.run_one(entry)
        self.heartbeat("stopped")
        return self.jobs_done - done_at_start


def worker_main(data_dir: str, worker_id: str,
                poll_interval: float = 0.05,
                fsync: bool = False) -> None:
    """Entry point of one fleet process (spawn-safe: module level,
    plain arguments)."""
    worker = Worker(Path(data_dir), worker_id,
                    poll_interval=poll_interval, fsync=fsync)
    worker.install_signals()
    worker.run()


class WorkerFleet:
    """Spawns, watches, and stops the worker processes.

    Processes are started with the ``spawn`` method so the (threaded)
    service process never forks: each worker begins from a clean
    interpreter, which also means the monitor may restart workers at
    any time without inheriting stale state.
    """

    def __init__(self, data_dir: Path, size: int = 2,
                 poll_interval: float = 0.05,
                 fsync: bool = False) -> None:
        self.data_dir = Path(data_dir)
        self.size = size
        self.poll_interval = poll_interval
        self.fsync = fsync
        self.beats = RecordDir(service_paths(self.data_dir)["workers"],
                               HEARTBEAT_SCHEMA)
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: Dict[str, multiprocessing.Process] = {}
        self._serial = 0

    def _spawn_one(self) -> str:
        self._serial += 1
        worker_id = f"w{self._serial:03d}"
        proc = self._ctx.Process(
            target=worker_main,
            args=(str(self.data_dir), worker_id, self.poll_interval,
                  self.fsync),
            name=f"repro-service-{worker_id}")
        proc.start()
        self._procs[worker_id] = proc
        return worker_id

    def start(self) -> List[str]:
        return [self._spawn_one() for _ in range(self.size)]

    # -- liveness ------------------------------------------------------------
    def alive(self) -> Dict[str, bool]:
        return {wid: proc.is_alive()
                for wid, proc in self._procs.items()}

    def is_alive(self, worker_id: str) -> bool:
        proc = self._procs.get(worker_id)
        return proc.is_alive() if proc is not None else False

    def pid_of(self, worker_id: str) -> Optional[int]:
        proc = self._procs.get(worker_id)
        return proc.pid if proc is not None else None

    def reap(self, respawn: bool = True) -> List[str]:
        """Join dead workers; optionally respawn to maintain size.

        Returns the ids of workers found dead this pass.
        """
        dead = [wid for wid, proc in self._procs.items()
                if not proc.is_alive()]
        for wid in dead:
            self._procs[wid].join(timeout=0.1)
            del self._procs[wid]
        if respawn:
            while len(self._procs) < self.size:
                self._spawn_one()
        return dead

    # -- shutdown ------------------------------------------------------------
    def stop(self, timeout: float = 10.0) -> None:
        """Graceful SIGTERM, bounded join, SIGKILL stragglers."""
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()     # SIGTERM: finish current job
        deadline = time.time() + timeout
        for proc in self._procs.values():
            proc.join(timeout=max(0.1, deadline - time.time()))
        for proc in self._procs.values():
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        self._procs.clear()

    # -- heartbeats ----------------------------------------------------------
    def heartbeats(self) -> List[dict]:
        beats = (self.beats.get(name) for name in self.beats.names())
        return [beat for beat in beats if beat]

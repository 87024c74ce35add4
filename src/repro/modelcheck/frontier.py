"""Frontier stores: where the BFS keeps its queue, visited set and
bookkeeping — in memory (the default) or on disk (durable).

The disk store makes a model-check run *durable and distributable* by
building on :mod:`repro.durability.spool`, like the service queue:
every record is one small JSON file in a :class:`RecordDir`, every
state transition is one atomic ``os.rename`` of a :class:`Spool` entry
(or an ``os.link`` where first-writer-wins matters), so

* a SIGKILL at any instant loses no work — ``recover()`` renames the
  ``running/`` leftovers back to ``pending/`` and the redo is
  idempotent (record names, visited claims, terminal markers and
  proviso markers are all deterministic functions of their content);
* any number of worker processes can drain the same spool — pending
  claims race on rename, visited claims race on ``O_EXCL`` creation,
  and the first violation wins ``violation.json``.

Determinism: record names are ``<depth>-<sha1(prefix)>``, pending
drains in sorted-name order, and every marker is content-addressed —
so a killed-and-resumed single-worker run visits exactly the states an
uninterrupted run visits (``tests/test_frontier_resume.py`` pins
this).

The in-memory store presents the identical interface over a deque and
dicts; with POR off its pop/push order is exactly the pre-POR
explorer's BFS, which keeps ``--por off`` bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ..durability.faultyfs import NULL_FS
from ..durability.fsck import Layout, Records
from ..durability.spool import RecordDir, Spool

#: Signature tuples survive a JSON round-trip as lists; normalise back.
def _sig(raw) -> Tuple:
    return tuple(raw)


def _sleep_set(raw) -> frozenset:
    return frozenset(_sig(s) for s in raw)


def record_name(prefix, full: bool = False) -> str:
    digest = hashlib.sha1(
        json.dumps(list(prefix)).encode()).hexdigest()[:16]
    return f"{len(prefix):05d}-{digest}" + ("-full" if full else "")


def make_record(prefix, sleep=(), parent: Optional[str] = None,
                full: bool = False) -> dict:
    return {"id": record_name(prefix, full), "prefix": tuple(prefix),
            "sleep": tuple(sorted(frozenset(sleep))),
            "parent": parent, "full": full}


def _load_record(payload: dict) -> dict:
    return {"id": payload["id"],
            "prefix": tuple(payload["prefix"]),
            "sleep": tuple(_sig(s) for s in payload["sleep"]),
            "parent": payload.get("parent"),
            "full": bool(payload.get("full"))}


class MemoryFrontier:
    """The default store: a deque plus dicts, nothing durable."""

    durable = False

    def __init__(self) -> None:
        self._queue: deque = deque()
        self._visited: Dict[str, Optional[frozenset]] = {}
        self._terminals: Dict[str, str] = {}
        self._prov: Dict[str, dict] = {}
        self._violation: Optional[dict] = None

    # -- queue ---------------------------------------------------------------
    def seed(self, meta: dict, record: dict) -> bool:
        self._queue.append(record)
        return False          # never a resume

    def queue_empty(self) -> bool:
        return not self._queue

    def running_empty(self) -> bool:
        return True

    def push(self, record: dict) -> None:
        self._queue.append(record)

    def pop(self) -> Optional[dict]:
        return self._queue.popleft() if self._queue else None

    def ack(self, record: dict) -> None:
        pass

    def recover(self) -> int:
        return 0

    # -- visited claims ------------------------------------------------------
    def claim(self, key: str, owner: str, sleep) -> str:
        if key in self._visited:
            return "seen"
        self._visited[key] = frozenset(sleep)
        return "new"

    def get_sleep(self, key: str) -> Optional[frozenset]:
        return self._visited.get(key)

    def set_sleep(self, key: str, sleep) -> None:
        self._visited[key] = frozenset(sleep)

    def visited_count(self) -> int:
        return len(self._visited)

    # -- terminal states -----------------------------------------------------
    def terminal(self, record_id: str, key: str) -> None:
        self._terminals[record_id] = key

    def terminal_stats(self) -> Tuple[int, Tuple[str, ...]]:
        return (len(self._terminals),
                tuple(sorted(set(self._terminals.values()))))

    # -- proviso (the ignoring problem) --------------------------------------
    def proviso_open(self, key: str, expect: int, prefix) -> None:
        self._prov.setdefault(key, {
            "expect": expect, "prefix": tuple(prefix),
            "resolved": set(), "fresh": False, "refired": False})

    def proviso_resolve(self, key: str, child_id: str,
                        fresh: bool) -> Optional[tuple]:
        entry = self._prov.get(key)
        if entry is None:
            return None
        entry["resolved"].add(child_id)
        entry["fresh"] = entry["fresh"] or fresh
        if (len(entry["resolved"]) >= entry["expect"]
                and not entry["fresh"] and not entry["refired"]):
            entry["refired"] = True
            return entry["prefix"]
        return None

    # -- violation -----------------------------------------------------------
    def set_violation(self, payload: dict) -> bool:
        if self._violation is None:
            self._violation = payload
            return True
        return False

    def get_violation(self) -> Optional[dict]:
        return self._violation

    # -- worker stats --------------------------------------------------------
    def add_stats(self, label: str, executions: int) -> None:
        pass                  # an in-process report counts its own runs

    def stats_executions(self) -> int:
        return 0


def _done_ids(root: Path) -> Set[str]:
    """Ids of the records any worker acked (its ``done-<pid>.log``)."""
    done: Set[str] = set()
    for log in Path(root).glob("done-*.log"):
        try:
            done.update(line for line in log.read_text().splitlines()
                        if line)
        except FileNotFoundError:
            continue
    return done


#: The spool's directory tree, for :class:`DiskFrontier` and ``repro
#: fsck``: meta/violation/stats records at the root, the pending/running
#: record spool, visited claims (plus compacted segments), terminal and
#: proviso markers; one quarantine at the root.
FRONTIER_LAYOUT = Layout(
    "frontier",
    dirs=(Records(""), Records("visited", "frontier-claim"),
          Records("terminals", "frontier-terminal"),
          Records("prov", "frontier-prov")),
    spool=Records("", "frontier-record"),
    finished=lambda root: {f"{rid}.json" for rid in _done_ids(root)},
    quarantine="")


class DiskFrontier:
    """A durable, multi-process frontier over a spool directory."""

    durable = True

    def __init__(self, root, fs=NULL_FS, fsync: bool = False) -> None:
        self.root = Path(root)
        dirs = [RecordDir(self.root / decl.rel, decl.schema, fs, fsync,
                          quarantine_root=self.root)
                for decl in FRONTIER_LAYOUT.dirs]
        self.top, self.visited, self.terminals, self.prov = dirs
        self.spool = Spool(self.root, FRONTIER_LAYOUT.spool.schema, fs,
                           fsync, quarantine_root=self.root)
        #: Orphaned tmp files reclaimed on open.
        self.tmp_swept = self.spool.tmp_swept \
            + sum(d.tmp_swept for d in dirs)
        self._done: Set[str] = set()
        self._done_log = self.root / f"done-{os.getpid()}.log"
        self._load_done()

    @property
    def quarantined(self) -> int:
        """Corrupt records moved aside so far (derived from disk)."""
        return self.top.quarantined()

    def _load_done(self) -> None:
        self._done |= _done_ids(self.root)

    # -- queue ---------------------------------------------------------------
    def seed(self, meta: dict, record: dict) -> bool:
        """Write job metadata and the root record, or — when the spool
        already holds a run — recover it instead.  Returns True when
        resuming."""
        if self.top.path("meta.json").exists():
            self.recover()
            return True
        # Root record first, meta last: meta.json is the commit point
        # a resume keys on, so it must never exist before the work it
        # promises.  (The reverse order had a crash window that left a
        # spool which "resumed" to an instantly-complete empty run.)
        self.push(record)
        self.top.put("meta.json", meta, "frontier-meta")
        return False

    def meta(self) -> Optional[dict]:
        return self.top.get("meta.json")

    def queue_empty(self) -> bool:
        return not self.spool.pending.names()

    def running_empty(self) -> bool:
        return not self.spool.running.names()

    def push(self, record: dict) -> None:
        name = record["id"] + ".json"
        if (record["id"] in self._done
                or self.spool.pending.path(name).exists()
                or self.spool.running.path(name).exists()):
            return
        payload = dict(record)
        payload["prefix"] = list(record["prefix"])
        payload["sleep"] = [list(s) for s in record["sleep"]]
        self.spool.submit(name, payload)

    def pop(self) -> Optional[dict]:
        names = iter(self.spool.pending.names())
        while (name := self.spool.claim(names)) is not None:
            payload = self.spool.running.get(name)
            if payload is not None and payload["id"] not in self._done:
                return _load_record(payload)
            # A stale duplicate of an already-finished record — or a
            # corrupt one, which ``get`` has quarantined (kept for
            # fsck rather than silently unlinked).
            self.spool.ack(name)
        return None

    def ack(self, record: dict) -> None:
        self._done.add(record["id"])
        with open(self._done_log, "a") as log:
            log.write(record["id"] + "\n")
        self.spool.ack(record["id"] + ".json")

    def recover(self) -> int:
        """Requeue running leftovers (a killed worker's claims)."""
        self._load_done()
        requeued = 0
        for name in self.spool.running.names():
            if name[:-5] in self._done:
                self.spool.ack(name)
            elif self.spool.requeue(name):
                requeued += 1
        return requeued

    # -- visited claims ------------------------------------------------------
    def claim(self, key: str, owner: str, sleep) -> str:
        if self._segment_lookup(key) is not None:
            return "seen"     # already compacted: its owner was acked
        name = f"k-{key}.json"
        payload = {"key": key, "owner": owner,
                   "sleep": [list(s) for s in sorted(frozenset(sleep))]}
        if self.visited.put_once(name, payload):
            return "new"
        existing = self.visited.get(name)
        if existing is not None and existing.get("owner") == owner:
            return "ours"     # crash redo of our own expansion
        if existing is None and self._segment_lookup(key) is None:
            # The claim file either raced away (compaction moved it to
            # a segment mid-read) or was corrupt and has just been
            # quarantined; in the latter case the key is unclaimed
            # again — retake it so the state is not silently skipped.
            if self.visited.put_once(name, payload):
                return "new"
        return "seen"

    def _segment_lookup(self, key: str) -> Optional[dict]:
        for name in self.visited.names("seg-"):
            payload = self.visited.get(name)
            if payload and key in payload.get("keys", {}):
                return payload["keys"][key]
        return None

    def get_sleep(self, key: str) -> Optional[frozenset]:
        payload = self.visited.get(f"k-{key}.json")
        if payload is None:
            payload = self._segment_lookup(key)
        if payload is None:
            return None
        return _sleep_set(payload.get("sleep", []))

    def set_sleep(self, key: str, sleep) -> None:
        name = f"k-{key}.json"
        payload = self.visited.get(name) or {"key": key, "owner": ""}
        payload["sleep"] = [list(s) for s in sorted(frozenset(sleep))]
        self.visited.put(name, payload)

    def visited_count(self) -> int:
        keys = {name[2:-5] for name in self.visited.names("k-")}
        for name in self.visited.names("seg-"):
            payload = self.visited.get(name)
            if payload:
                keys.update(payload.get("keys", {}))
        return len(keys)

    def compact_visited(self) -> int:
        """Merge finished visited claims into one segment file (the
        periodic visited-set merge): claims whose owning record has
        been acked can no longer be redone, so their per-file owner
        information is dead weight.  Returns how many claims merged."""
        self._load_done()
        merged: Dict[str, dict] = {}
        victims: List[Path] = []
        for name in self.visited.names("k-"):
            payload = self.visited.get(name)
            if payload is None or payload.get("owner") not in self._done:
                continue
            merged[payload["key"]] = {"sleep": payload.get("sleep", [])}
            victims.append(self.visited.path(name))
        if not merged:
            return 0
        seg_id = hashlib.sha1(
            "".join(sorted(merged)).encode()).hexdigest()[:12]
        seg = f"seg-{seg_id}.json"
        existing = self.visited.get(seg) or {"keys": {}}
        existing["keys"].update(merged)
        self.visited.put(seg, existing)
        for path in victims:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        return len(merged)

    # -- terminal states -----------------------------------------------------
    def terminal(self, record_id: str, key: str) -> None:
        self.terminals.put_once(f"t-{record_id}.json", {"key": key})

    def terminal_stats(self) -> Tuple[int, Tuple[str, ...]]:
        keys = []
        for name in self.terminals.names():
            payload = self.terminals.get(name)
            if payload is not None:
                keys.append(payload["key"])
        return len(keys), tuple(sorted(set(keys)))

    # -- proviso -------------------------------------------------------------
    def proviso_open(self, key: str, expect: int, prefix) -> None:
        self.prov.put_once(f"p-{key}.json",
                           {"expect": expect, "prefix": list(prefix)})

    def proviso_resolve(self, key: str, child_id: str,
                        fresh: bool) -> Optional[tuple]:
        self.prov.put_once(f"m-{key}-{child_id}.json", {"fresh": fresh})
        head = self.prov.get(f"p-{key}.json")
        if head is None:
            return None
        resolved = 0
        any_fresh = False
        for name in self.prov.names(f"m-{key}-"):
            payload = self.prov.get(name)
            if payload is None:
                continue
            resolved += 1
            any_fresh = any_fresh or payload.get("fresh", False)
        if resolved < head["expect"] or any_fresh:
            return None
        if self.prov.put_once(f"r-{key}.json", {}):
            return tuple(head["prefix"])
        return None

    # -- violation -----------------------------------------------------------
    def set_violation(self, payload: dict) -> bool:
        return self.top.put_once("violation.json", payload,
                                 "frontier-violation")

    def get_violation(self) -> Optional[dict]:
        return self.top.get("violation.json")

    # -- worker stats --------------------------------------------------------
    def add_stats(self, label: str, executions: int) -> None:
        """Persist a finished worker's execution count so the merged
        report reflects the whole fleet's work."""
        self.top.put(f"stats-{label}.json", {"executions": executions},
                     "frontier-stats")

    def stats_executions(self) -> int:
        total = 0
        for name in self.top.names("stats-"):
            payload = self.top.get(name)
            if payload:
                total += int(payload.get("executions", 0))
        return total

"""``repro fsck``: scan and repair the repo's durable directories.

Every durable store is built from the two primitives of :mod:`.spool`
— :class:`~.spool.RecordDir` and :class:`~.spool.Spool` — and declares
its directory tree as data, a :class:`Layout`: which RecordDirs and
which Spool it has (relative to its root), the schema tag of each, how
a corrupt record can be rebuilt from its name, which claimed entries
are already finished, and any cross-store rule (the service's
queue/job-record audit).  fsck is one scanner over that data.  Pointed
at a directory, it recognises a service data dir, a ``--spool``
frontier, or a bare point-cache/record directory, walks the declared
layout, and classifies what it finds:

=====================  =================================================
finding kind           meaning / repair
=====================  =================================================
``tmp-orphan``         a ``*.tmp<pid>`` file older than the age gate —
                       a crash between write and rename; removed
``corrupt``            a record that fails envelope validation (parse,
                       checksum, or schema); quarantined — except where
                       the layout rebuilds it from its name (queue
                       entries) or drops it as ephemeral (heartbeats)
``dangling-running``   a claimed spool entry with no live claimant
                       (stopped service / killed checker); renamed back
                       to pending so the work reruns, or removed when
                       the layout says its work is finished
``orphan-entry``       a pending queue entry whose job record is gone —
                       nothing says what to execute; removed
``lost-entry``         an active job record with no queue entry (the
                       inverse crash window); a fresh entry is enqueued
``quarantined``        informational: evidence already moved aside by a
                       previous reader or fsck run
=====================  =================================================

A scan without ``repair`` is read-only: it opens no store (opening one
sweeps tmp files) and reads records without quarantining them.
Repairs are only applied with ``repair=True``, use ``tmp_age`` as the
only tmp-file age gate, and are only safe offline; run repair against
a *stopped* service or checker (a live monitor performs the
running-entry repairs itself).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .records import (QUARANTINE_DIR, CorruptRecord, quarantine,
                      quarantine_count, read_record, write_record)
from .spool import record_names

#: Finding kinds that leave data at risk (non-informational).
PROBLEM_KINDS = ("tmp-orphan", "corrupt", "dangling-running",
                 "orphan-entry", "lost-entry")


@dataclass
class Finding:
    """One thing fsck noticed, and what it did (or would do) about it."""

    kind: str
    path: str
    detail: str
    repaired: bool = False
    action: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "path": self.path,
                "detail": self.detail, "repaired": self.repaired,
                "action": self.action}


@dataclass
class FsckReport:
    """Everything one scan found."""

    root: str
    layout: str
    repair: bool
    findings: List[Finding] = field(default_factory=list)

    def add(self, kind: str, path: Path, detail: str,
            fix: Optional[Callable[[], Optional[str]]] = None,
            action: str = "") -> Finding:
        """Record a finding; in a repair run, also apply ``fix``, which
        returns the action it took (default ``action``)."""
        finding = Finding(kind, str(path), detail)
        self.findings.append(finding)
        if fix is not None and self.repair:
            try:
                finding.action = fix() or action
                finding.repaired = True
            except OSError as exc:
                finding.action = f"failed: {exc}"
        return finding

    @property
    def problems(self) -> List[Finding]:
        return [f for f in self.findings if f.kind in PROBLEM_KINDS]

    @property
    def unrepaired(self) -> List[Finding]:
        return [f for f in self.problems if not f.repaired]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.kind] = out.get(finding.kind, 0) + 1
        return out

    @property
    def clean(self) -> bool:
        return not self.unrepaired

    def to_dict(self) -> Dict[str, Any]:
        return {"root": self.root, "layout": self.layout,
                "repair": self.repair, "clean": self.clean,
                "counts": self.counts(),
                "findings": [f.to_dict() for f in self.findings]}

    def render(self) -> str:
        lines = [f"fsck {self.root} [{self.layout} layout]"]
        for finding in self.findings:
            mark = "fixed" if finding.repaired else (
                "info" if finding.kind not in PROBLEM_KINDS else "PROBLEM")
            line = f"  [{mark:>7}] {finding.kind}: {finding.path}" \
                   f" — {finding.detail}"
            if finding.action:
                line += f" ({finding.action})"
            lines.append(line)
        counts = self.counts()
        if counts:
            summary = ", ".join(f"{k}={v}"
                                for k, v in sorted(counts.items()))
            lines.append(f"  {summary}")
        lines.append("  clean" if self.clean else
                     f"  {len(self.unrepaired)} problem(s) remain"
                     + ("" if self.repair else " (re-run with --repair)"))
        return "\n".join(lines)


@dataclass(frozen=True)
class Records:
    """One RecordDir of a layout (or, as :attr:`Layout.spool`, the
    root of a Spool's ``pending/`` + ``running/`` pair)."""

    rel: str = ""
    schema: Optional[str] = None
    #: Corrupt record name -> replacement body (None: not rebuildable).
    rebuild: Optional[Callable[[str], Optional[dict]]] = None
    #: Corrupt records are deleted rather than kept as evidence.
    ephemeral: bool = False


@dataclass(frozen=True)
class Layout:
    """A store's directory tree, declared as data for the scanner."""

    name: str
    dirs: Tuple[Records, ...] = ()
    spool: Optional[Records] = None
    #: Root -> names of running spool entries whose work is finished
    #: (a repair drops those instead of requeueing them).
    finished: Optional[Callable[[Path], Set[str]]] = None
    #: Cross-store rules, run after the record scan.
    audit: Optional[Callable[[Path, FsckReport], None]] = None
    #: Shared quarantine root (relative); None: each directory's own.
    quarantine: Optional[str] = None
    #: Subdirectory whose children are scanned as their own layouts.
    nested: str = ""


#: A bare directory of records (the point cache, say).
RECORDS = Layout("records", dirs=(Records(),))


def detect_layout(root: Path) -> Layout:
    """The service, frontier, or flat-records layout ``root`` has."""
    root = Path(root)
    if (root / "queue").is_dir() and (root / "jobs").is_dir():
        from ..service.queue import SERVICE_LAYOUT
        return SERVICE_LAYOUT
    if (root / "meta.json").exists() or (root / "visited").is_dir():
        from ..modelcheck.frontier import FRONTIER_LAYOUT
        return FRONTIER_LAYOUT
    return RECORDS


def fsck(root: Path, repair: bool = False,
         tmp_age: float = 60.0) -> FsckReport:
    """Scan ``root`` (see module docstring); repairs only if asked."""
    root = Path(root)
    layout = detect_layout(root)
    report = FsckReport(str(root), layout.name, repair)
    if not root.is_dir():
        report.add("corrupt", root, "not a directory")
        return report
    _scan(root, layout, report, tmp_age)
    return report


def _scan(root: Path, layout: Layout, report: FsckReport,
          tmp_age: float) -> None:
    shared = root / layout.quarantine \
        if layout.quarantine is not None else None
    qroots = set()

    def scan(directory: Path, decl: Records) -> List[Path]:
        qroot = shared or directory
        count = quarantine_count(qroot) if qroot not in qroots else 0
        qroots.add(qroot)
        if count:
            report.add("quarantined", qroot / QUARANTINE_DIR,
                       f"{count} previously quarantined record(s)")
        return _scan_dir(directory, decl, qroot, report, tmp_age)

    for decl in layout.dirs:
        scan(root / decl.rel, decl)
    if layout.spool is not None:
        pending = root / layout.spool.rel / "pending"
        scan(pending, layout.spool)
        running = scan(pending.with_name("running"), layout.spool)
        finished = layout.finished(root) if running and layout.finished \
            else set()

        def settle(path: Path) -> str:
            if path.name in finished:
                path.unlink()
                return "removed (work finished)"
            os.rename(path, pending / path.name)
            return "requeued"

        for path in running:
            report.add("dangling-running", path,
                       "claimed entry, never acked",
                       fix=lambda path=path: settle(path))
    if layout.audit is not None:
        layout.audit(root, report)
    nested = root / layout.nested if layout.nested else None
    if nested is not None and nested.is_dir():
        for sub in sorted(nested.iterdir()):
            inner = detect_layout(sub)
            if sub.is_dir() and inner is not RECORDS:
                _scan(sub, inner, report, tmp_age)


def _scan_dir(directory: Path, decl: Records, qroot: Path,
              report: FsckReport, tmp_age: float) -> List[Path]:
    """Scan one RecordDir: tmp orphans, then every record.  Returns the
    records that are usable — valid, or rebuildable from their name."""
    if not directory.is_dir():
        return []
    now = time.time()
    for path in sorted(directory.glob("*.tmp*")):
        try:
            age = now - path.stat().st_mtime
        except OSError:
            continue
        if age >= tmp_age:
            report.add("tmp-orphan", path,
                       f"orphaned tmp file ({age:.0f}s old)",
                       fix=path.unlink, action="removed")
    usable = []
    for name in record_names(directory):
        path = directory / name
        try:
            read_record(path, decl.schema)
            usable.append(path)
            continue
        except CorruptRecord as exc:
            reason = exc.reason
        body = decl.rebuild(name) if decl.rebuild else None
        if body is not None:
            usable.append(path)

        def fix(path: Path = path, body: Optional[dict] = body) -> str:
            if body is not None:
                quarantine(path, root=qroot, reason="rebuilt")
                write_record(path, decl.schema, body)
                return "rebuilt from filename"
            if decl.ephemeral:
                path.unlink()
                return "removed"
            dest = quarantine(path, root=qroot, reason="fsck")
            return f"quarantined -> {dest}"

        report.add("corrupt", path, reason, fix=fix)
    return usable


__all__ = ["Finding", "FsckReport", "Layout", "PROBLEM_KINDS", "RECORDS",
           "Records", "detect_layout", "fsck"]

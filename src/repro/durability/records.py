"""Self-validating durable records: envelope, quarantine, tmp sweep.

Every durable store in the repo (service queue, job records, artifact
store, spooled frontier, point cache) persists JSON documents via the
same tmp-write + atomic-rename discipline.  This module upgrades that
discipline in one place:

* :func:`write_record` wraps the payload in a versioned **envelope** —
  ``{"v": 1, "schema": <tag>, "sha256": <digest>, "body": {...}}`` —
  where the digest covers the canonical JSON of the body.  Writes and
  renames route through an optional :class:`~.faultyfs.FaultyFS` shim
  and an opt-in fsync policy (tmp file before the rename, parent
  directory after).
* :func:`read_record` validates on every read: a parse failure, a
  checksum mismatch, or a wrong schema tag raises
  :class:`CorruptRecord` instead of leaking a half-written document to
  the caller.  Pre-envelope documents (no ``v``/``sha256`` keys) are
  returned as-is so existing spools and caches stay readable.
* :func:`quarantine` moves a corrupt file aside — into
  ``<root>/quarantine/`` — so the evidence survives for ``repro fsck``
  and the owning store can requeue or recompute the lost work.
* :func:`sweep_tmp` reclaims ``.tmp<pid>`` orphans left by crashes
  between write and rename, age-gated so a live writer is never raced.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Optional

from ..common.errors import ReproError
from .faultyfs import NULL_FS

#: Envelope format version; bump on incompatible layout changes.
RECORD_VERSION = 1

#: Name of the quarantine subdirectory created next to corrupt records.
QUARANTINE_DIR = "quarantine"

#: Age in seconds past which a store opening a directory reclaims a
#: ``.tmp<pid>`` orphan; younger ones may belong to a live writer.
TMP_SWEEP_AGE = 60.0

#: Envelope keys; a JSON object carrying all of them is an envelope.
_ENVELOPE_KEYS = frozenset(("v", "schema", "sha256", "body"))


class CorruptRecord(ReproError):
    """A durable record failed validation on read."""

    def __init__(self, path: Path, reason: str) -> None:
        super().__init__(f"corrupt record {path}: {reason}")
        self.path = Path(path)
        self.reason = reason


def _digest(body: Any) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def wrap(schema: str, body: Any) -> dict:
    """Wrap ``body`` in a versioned, checksummed envelope."""
    return {"v": RECORD_VERSION, "schema": schema,
            "sha256": _digest(body), "body": body}


def is_envelope(doc: Any) -> bool:
    return isinstance(doc, dict) and _ENVELOPE_KEYS <= doc.keys()


def unwrap(doc: Any, path: Path, schema: Optional[str] = None) -> Any:
    """Validate an envelope (or pass a legacy document through).

    Raises :class:`CorruptRecord` on checksum or schema mismatch.
    """
    if not is_envelope(doc):
        return doc
    if doc["v"] != RECORD_VERSION:
        raise CorruptRecord(path, f"unknown record version {doc['v']!r}")
    if schema is not None and doc["schema"] != schema:
        raise CorruptRecord(
            path, f"schema {doc['schema']!r}, expected {schema!r}")
    body = doc["body"]
    if _digest(body) != doc["sha256"]:
        raise CorruptRecord(path, "sha256 mismatch")
    return body


def tmp_name(path: Path) -> Path:
    """The tmp-file sibling a write of ``path`` goes through."""
    path = Path(path)
    return path.with_name(path.name + f".tmp{os.getpid()}")


def write_record(path: Path, schema: str, body: Any, fs=NULL_FS,
                 fsync: bool = False, exclusive: bool = False) -> bool:
    """Durably publish ``body`` at ``path`` inside an envelope.

    ``exclusive`` uses first-writer-wins ``os.link`` semantics and
    returns False when the record already exists; the plain path uses
    ``os.replace`` and always returns True.  All I/O routes through
    ``fs`` when a fault shim is enabled.
    """
    path = Path(path)
    tmp = tmp_name(path)
    data = json.dumps(wrap(schema, body), indent=1, sort_keys=True) + "\n"
    try:
        if fs:
            fs.write_text(tmp, data, schema)
        else:
            tmp.write_text(data)
        if fsync:
            fd = os.open(tmp, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        if fs:
            created = fs.publish(tmp, path, schema, exclusive=exclusive)
        elif exclusive:
            try:
                os.link(tmp, path)
                created = True
            except FileExistsError:
                created = False
        else:
            os.replace(tmp, path)
            created = True
    finally:
        if exclusive:
            # link() leaves the tmp behind on both outcomes.
            try:
                tmp.unlink()
            except OSError:
                pass
    if fsync:
        _fsync_dir(path.parent)
    return created


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def read_record(path: Path, schema: Optional[str] = None) -> Any:
    """Read and validate the record at ``path``.

    Returns the body (or a legacy document as-is), None when the file
    does not exist, and raises :class:`CorruptRecord` when it exists
    but cannot be trusted — including the zero-byte file a torn write
    leaves behind.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    except UnicodeDecodeError:
        # Bit rot easily lands outside UTF-8; not an OSError.
        raise CorruptRecord(path, "invalid encoding")
    except OSError as exc:
        raise CorruptRecord(path, f"unreadable: {exc}")
    try:
        doc = json.loads(text)
    except ValueError:
        reason = "empty file" if not text.strip() else "invalid JSON"
        raise CorruptRecord(path, reason)
    return unwrap(doc, path, schema)


def quarantine(path: Path, root: Optional[Path] = None,
               reason: str = "corrupt") -> Optional[Path]:
    """Move a corrupt record into ``<root>/quarantine/``.

    Returns the quarantined path, or None if the file vanished (a
    concurrent reader quarantined it first — not an error).  The name
    keeps the original plus the reason so fsck output is self-
    explanatory; collisions get a numeric suffix.
    """
    path = Path(path)
    qdir = Path(root) / QUARANTINE_DIR if root else path.parent / QUARANTINE_DIR
    qdir.mkdir(parents=True, exist_ok=True)
    base = f"{path.name}.{reason}"
    dest = qdir / base
    index = 0
    while dest.exists():
        index += 1
        dest = qdir / f"{base}.{index}"
    try:
        os.replace(path, dest)
    except FileNotFoundError:
        return None
    return dest


def read_or_quarantine(path: Path, schema: Optional[str] = None,
                       root: Optional[Path] = None) -> Any:
    """:func:`read_record`, but a corrupt record is quarantined and
    reads as missing — the caller's recovery path (requeue, recompute)
    takes over instead of an exception unwinding a monitor loop."""
    try:
        return read_record(path, schema)
    except CorruptRecord as exc:
        quarantine(path, root=root, reason=_slug(exc.reason))
        return None


def _slug(reason: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in reason)[:40].strip("-")


def quarantine_count(root: Path) -> int:
    """Number of quarantined records under ``root`` (for /metrics —
    derived from disk at scrape time, like the rest of the service's
    gauges)."""
    qdir = Path(root) / QUARANTINE_DIR
    if not qdir.is_dir():
        return 0
    return sum(1 for p in qdir.iterdir() if p.is_file())


def sweep_tmp(directory: Path, max_age: float = TMP_SWEEP_AGE,
              now: Optional[float] = None) -> int:
    """Remove orphaned ``*.tmp*`` files older than ``max_age`` seconds.

    Stores call this when they open a directory; the age gate keeps a
    concurrent writer's in-flight tmp file safe.  Returns the number
    of files removed.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    now = time.time() if now is None else now
    swept = 0
    for path in directory.glob("*.tmp*"):
        try:
            if now - path.stat().st_mtime < max_age:
                continue
            path.unlink()
            swept += 1
        except OSError:
            continue
    return swept

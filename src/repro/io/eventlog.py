"""Append-only JSONL event streams for scheduler observability.

The cluster layer (:mod:`repro.cluster`) records every state transition —
shard queued, worker started, heartbeat observed, timeout, requeue,
completion — as one JSON line appended to an event log that lives
alongside the shard checkpoints.  The discipline matches the shard logs
themselves (:mod:`repro.io.shards`) and the crash-tolerance model of the
secure-logging literature in PAPERS.md: records are immutable once
written, a crash at any instant leaves a recoverable prefix, and a torn
*final* line (killed mid-append) is treated as never-written rather than
as corruption.

Two kinds of streams use this module:

* the scheduler event log (``scheduler-events.jsonl``), written by the
  coordinating process, and
* per-shard heartbeat streams (``heartbeat-NNNN.jsonl``), appended by the
  worker processes and polled by the scheduler as its liveness signal.

Both are *telemetry*, not checkpoints — :func:`repro.io.shards.load_checkpoint`
skips them by their reserved name prefixes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from ..core.exceptions import SerializationError

__all__ = [
    "EVENTLOG_SUFFIX",
    "EventLogWriter",
    "read_events",
    "last_event",
]

PathLike = Union[str, Path]

#: Event streams share the shard logs' JSONL suffix (and directory); the
#: reserved name prefixes in :mod:`repro.io.shards` keep them apart.
EVENTLOG_SUFFIX = ".jsonl"


def _recover_committed_lines(path: Path) -> int:
    """Cut a torn final line (never a committed record) off an append-only
    JSONL file and count the committed lines: both writers' open-time recovery."""
    content = path.read_bytes()
    committed = content.rfind(b"\n") + 1  # 0 when no full line survives
    if committed < len(content):
        with open(path, "r+b") as handle:
            handle.truncate(committed)
    return content.count(b"\n", 0, committed)


class EventLogWriter:
    """Append events to a JSONL stream, one flushed line per event.

    The file is opened lazily on the first :meth:`append`.  Opening an
    existing stream truncates a torn final line (the unfinished write of
    a process killed mid-append — never a committed event) and resumes
    the ``seq`` counter after the last committed record, so a log
    appended across several scheduler invocations stays one strictly
    ordered stream.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._handle = None
        self._seq = 0

    def _open(self) -> None:
        if self.path.exists():
            self._seq = _recover_committed_lines(self.path)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, event: Mapping[str, Any]) -> Dict[str, Any]:
        """Commit one event (stamped with the next ``seq``) and return it."""
        if self._handle is None:
            self._open()
        record = {"seq": self._seq, **dict(event)}
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self._seq += 1
        return record

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_events(path: PathLike) -> List[Dict[str, Any]]:
    """Every committed event of a stream, in append order.

    A missing file reads as an empty stream (the writer is lazy, so a
    scheduler that never got to emit anything leaves no file).  A torn
    final line — no terminating newline, the signature of a process
    killed mid-append — is skipped; any *committed* malformed line raises
    :class:`SerializationError`, because committed records are immutable
    and a bad one means tampering or disk corruption.
    """
    path = Path(path)
    if not path.exists():
        return []
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    torn_tail = bool(text) and not text.endswith("\n")
    events: List[Dict[str, Any]] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            if number == len(lines) and torn_tail:
                break  # torn final append — the event was never committed
            raise SerializationError(
                f"event log {str(path)!r} line {number} is malformed: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise SerializationError(
                f"event log {str(path)!r} line {number} is not an event object"
            )
        events.append(payload)
    return events


def last_event(
    path: PathLike, kind: Optional[str] = None
) -> Optional[Dict[str, Any]]:
    """The most recent committed event (optionally of one ``event`` kind)."""
    events = read_events(path)
    if kind is not None:
        events = [event for event in events if event.get("event") == kind]
    return events[-1] if events else None

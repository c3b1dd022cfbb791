"""Append-only JSONL shard files for sharded and resumable experiment runs.

One shard file holds one shard's completed result rows: a single header
line carrying the shard's provenance (experiment name, seed, shard
index/count, total variant count, format version) followed by one
result-row object per line, in completion order.  Rows are appended as
each variant finishes, and nothing is ever rewritten — an interrupted run
simply stops mid-file, and re-invoking the shard (or
:meth:`Experiment.resume`) reads the completed rows back and skips them.
The merge-safety discipline follows the append-only audited-log designs
of the secure-logging literature (see PAPERS.md): records are immutable
once written, identity is content-based, and reassembly validates rather
than trusts.

Parsing re-validates each row's recorded variant hash (see
:func:`repro.io.experiments_io.result_row_from_dict`), so a tampered or
corrupted shard fails loudly instead of merging silently.  A truncated
*final* line — the signature of a run killed mid-append — is tolerated
and treated as not-yet-written; malformed content anywhere else raises
:class:`~repro.core.exceptions.SerializationError`.

Like the rest of :mod:`repro.io`, this module stays import-light: the
experiment classes are only touched lazily through
:mod:`repro.io.experiments_io` when rows are parsed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..core.exceptions import SerializationError
from .eventlog import _recover_committed_lines
from .experiments_io import result_row_from_dict, result_row_to_dict

__all__ = [
    "SHARD_FORMAT_VERSION",
    "RESUME_FILENAME",
    "TELEMETRY_PREFIXES",
    "shard_filename",
    "ShardLogWriter",
    "read_shard",
    "load_checkpoint",
]

#: Format version written into every shard header; bumped on layout changes.
SHARD_FORMAT_VERSION = 1

#: File that :meth:`Experiment.resume` appends rows it had to recompute to.
RESUME_FILENAME = "resume.jsonl"

#: JSONL files under these name prefixes are telemetry (scheduler event
#: logs, heartbeat streams, service job ledgers and cache streams — see
#: :mod:`repro.io.eventlog`, :mod:`repro.cluster`, and
#: :mod:`repro.service`) living alongside the shard logs; they are never
#: row checkpoints and :func:`load_checkpoint` skips them.
TELEMETRY_PREFIXES = ("scheduler-", "heartbeat-", "service-")

PathLike = Union[str, Path]


def shard_filename(shard_index: int, shard_count: int) -> str:
    """Canonical file name of one shard of a sharded run."""
    return f"shard-{shard_index:04d}-of-{shard_count:04d}.jsonl"


class ShardLogWriter:
    """Append rows to one shard file across a whole run, opening it once.

    The torn-tail recovery scan (find and truncate an unterminated final
    line) runs exactly once, when the file is first opened, so every
    :meth:`append` is a pure O(rows-written) line append + flush and a
    scheduler retrying a shard pays O(rows), not O(rows²).  Committed
    records are never rewritten: the one truncation removes only an
    unterminated fragment, which was never a committed record.

    The ``header`` mapping is only consulted when the file holds no
    committed content yet; appends to a populated file trust its recorded
    header.  The handle is opened lazily on the first append, so a run
    whose rows are all served from the checkpoint never creates a file.
    """

    def __init__(self, path: PathLike, header: Mapping[str, Any]) -> None:
        self.path = Path(path)
        self._header = dict(header)
        self._handle = None

    def _open(self) -> None:
        committed = _recover_committed_lines(self.path) if self.path.exists() else 0
        self._handle = open(self.path, "a", encoding="utf-8")
        if committed == 0:
            self._write_line(
                json.dumps(
                    {
                        "kind": "header",
                        "format_version": SHARD_FORMAT_VERSION,
                        **self._header,
                    },
                    sort_keys=True,
                )
            )

    def _write_line(self, line: str) -> None:
        self._handle.write(line + "\n")

    def append(self, rows: Iterable[Any]) -> None:
        """Commit rows (one JSON line each), flushed so a crash loses at
        most the line being written."""
        if self._handle is None:
            self._open()
        for row in rows:
            self._write_line(
                json.dumps(
                    {"kind": "row", "row": result_row_to_dict(row)}, sort_keys=True
                )
            )
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ShardLogWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_shard(path: PathLike) -> Tuple[Optional[Dict[str, Any]], List[Any]]:
    """Parse one shard file into its ``(header, rows)``.

    A truncated *final* line (run interrupted mid-append, recognizable
    by the missing line terminator) is treated as not-yet-written: a
    torn row line is skipped, and a torn header — crash during the very
    first append, leaving a single unterminated line — yields
    ``(None, [])``, meaning "no committed content".  Any malformed
    *committed* line (newline-terminated, the signature of tampering or
    disk corruption rather than a torn write), a missing header, or an
    unknown format version raises :class:`SerializationError`.  Row
    parsing re-validates the recorded variant hashes.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        # A 0-byte file is the narrowest torn first write: the file was
        # created but the header never flushed.  Same verdict as a torn
        # header — nothing was ever committed.
        return None, []
    # A committed record always ends in a newline (ShardLogWriter writes
    # line + "\n"); only an unterminated final line can be a torn write.
    torn_tail = not text.endswith("\n")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as error:
        if len(lines) == 1 and torn_tail:
            return None, []  # torn header — nothing was ever committed
        raise SerializationError(
            f"shard file {str(path)!r} has a malformed header line: {error}"
        ) from error
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise SerializationError(
            f"shard file {str(path)!r} does not start with a header record"
        )
    version = header.get("format_version")
    if version != SHARD_FORMAT_VERSION:
        raise SerializationError(
            f"shard file {str(path)!r} has format version {version!r}; "
            f"this reader understands {SHARD_FORMAT_VERSION}"
        )
    rows: List[Any] = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            if number == len(lines) and torn_tail:
                break  # torn final append — the row was never completed
            raise SerializationError(
                f"shard file {str(path)!r} line {number} is malformed: {error}"
            ) from error
        if not isinstance(payload, dict) or payload.get("kind") != "row" or "row" not in payload:
            raise SerializationError(
                f"shard file {str(path)!r} line {number} is not a row record"
            )
        rows.append(result_row_from_dict(payload["row"]))
    return header, rows


def load_checkpoint(
    directory: PathLike,
) -> List[Tuple[Path, Optional[Dict[str, Any]], List[Any]]]:
    """Every shard file in a checkpoint directory, as ``(path, header, rows)``.

    Files are visited in sorted name order, so reassembly is
    deterministic.  A file whose very first write was torn (see
    :func:`read_shard`) appears with a ``None`` header and no rows.
    Scheduler telemetry streams sharing the directory — names under
    :data:`TELEMETRY_PREFIXES` — are not checkpoints and are skipped.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise SerializationError(
            f"checkpoint directory {str(directory)!r} does not exist"
        )
    entries: List[Tuple[Path, Optional[Dict[str, Any]], List[Any]]] = []
    for path in sorted(directory.glob("*.jsonl")):
        if path.name.startswith(TELEMETRY_PREFIXES):
            continue
        header, rows = read_shard(path)
        entries.append((path, header, rows))
    return entries

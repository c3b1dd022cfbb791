"""Content-hash result cache: the load-bearing middle layer of the service.

Every result row the engine produces is provenance-complete and
bit-identical across execution strategies (serial, chunked, sharded,
scheduled — the PR 5-9 contracts), so a response is addressable by
*content* alone: the cache key is

    ``(variant_hash, seed, n_receivers, mode, rng_mode, rounds, task)``

— the exact reproduction identity of :func:`repro.experiments.reproduce_row`
minus ``batch_size``, which does change the bits: chunk boundaries key
the draw streams, so the same point at another batch size draws
different receivers (a row's ``chunk_workers`` is telemetry, never
identity).  The service always runs at
the engine's default batch size, and :meth:`ResultCache.store` keeps rows
recorded at any other batch size (an imported archive, say) out of the
cache, so every cached simulated row was computed at that one value.
The resolved task name rides along because a task
is the one run input outside ``variant_hash`` (it selects *which* of the
scenario's security-critical tasks the population faces); every other
engine knob the service accepts travels through the scenario's
``ParameterSpace`` and is therefore already inside the hash.  Before a
unit runs, its keys come from the unit's own plan
(:meth:`repro.experiments.runner.VariantRun.expected_rows`, which
resolves ``rounds`` and ``rng_mode`` against the engine defaults), so
this module and the service keep no copy of those defaults.  A repeated
policy query therefore becomes an O(1)
lookup returning the **exact bytes of the first computation**: entries
are stored as their canonical serialized JSON string and parsed fresh on
every hit, so no caller can mutate the cached bytes, and the first store
wins — a racing duplicate computation never replaces what an earlier
client was served.  Three fields of a row are not content but the
request's own label — ``experiment``, ``variant`` and ``variant_index``
— and a served row takes those from the request serving it
(:func:`repro.service.requests.serve_cached`).

Because the first store wins forever, a wrong row must never get in.
Before inserting, :meth:`ResultCache.store` checks the row — every metric
finite, every ``*_rate`` metric within [0, 1] — and raises
:class:`~repro.service.errors.IntegrityError` (an HTTP 500 naming the
failed check) instead of storing or appending anything.

With a backing path the cache is durable: every store appends one line
to a ``service-cache.jsonl`` stream (:class:`repro.io.eventlog.EventLogWriter`,
the same append-only, torn-tail-tolerant discipline as the shard
checkpoints), and a restarted server warms itself by replaying the
stream; replayed rows pass the same admission rules as stored ones.  The
``service-`` name prefix is registered in
:data:`repro.io.shards.TELEMETRY_PREFIXES`, so checkpoint loaders skip
service streams that share a directory with shard files.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..io.eventlog import EventLogWriter, read_events
from ..simulation.engine import SimulationConfig
from .errors import IntegrityError

__all__ = [
    "CACHE_FILENAME",
    "CacheKey",
    "ResultCache",
    "row_cache_key",
]

PathLike = Union[str, Path]

#: The backing stream's file name (``service-`` prefix: see module doc).
CACHE_FILENAME = "service-cache.jsonl"

#: ``(variant_hash, seed, n_receivers, mode, rng_mode, rounds, task)`` —
#: the content identity of one cached response.  Analytic rows use
#: ``(hash, None, None, "analytic", None, None, task)``.
CacheKey = Tuple[
    str,
    Optional[int],
    Optional[int],
    str,
    Optional[str],
    Optional[int],
    Optional[str],
]


def row_cache_key(row: Dict[str, Any]) -> CacheKey:
    """The cache key of one serialized result row (its recorded identity).

    Reads the *realized* provenance the run recorded — for simulated rows
    ``rng_mode`` / ``rounds`` / the resolved ``task`` name are always
    populated by the engine, so rows cached from a sweep and rows cached
    from an inline call agree on the key however the request spelled its
    overrides.  The one key function: a hit's key is this same function
    over the fields a planned work unit says its row will record
    (:func:`repro.service.requests.predicted_run_keys`).
    """
    return (
        str(row["variant_hash"]),
        row.get("seed"),
        row.get("n_receivers"),
        str(row["mode"]),
        row.get("rng_mode"),
        row.get("rounds"),
        row.get("task"),
    )


#: The only ``batch_size`` whose simulated rows the cache admits: the
#: engine default every service computation runs at (see module doc).
_DEFAULT_BATCH_SIZE = SimulationConfig().batch_size


def _row_defect(row: Dict[str, Any]) -> Optional[Tuple[str, str]]:
    """The ``(check, detail)`` of the first sanity check a row fails, or None."""
    for name, value in (row.get("metrics") or {}).items():
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
        ):
            return "finite", f"metric {name!r} is {value!r}"
        if name.endswith("_rate") and not 0.0 <= value <= 1.0:
            return "rate_range", f"metric {name!r} = {value!r} is outside [0, 1]"
    return None


def _default_batch_size(row: Dict[str, Any]) -> bool:
    """Whether a row ran at the engine's default batch size (analytic: yes)."""
    return row.get("batch_size") in (None, _DEFAULT_BATCH_SIZE)


def _normalize_key(raw: Any) -> Optional[CacheKey]:
    """A replayed JSON key (list form) back to the tuple form, or None."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 7:
        return None
    hash_, seed, n_receivers, mode, rng_mode, rounds, task = raw
    if not isinstance(hash_, str) or not isinstance(mode, str):
        return None
    return (hash_, seed, n_receivers, mode, rng_mode, rounds, task)


class ResultCache:
    """Thread-safe, first-write-wins, optionally JSONL-backed result cache."""

    def __init__(self, path: Optional[PathLike] = None) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[CacheKey, str] = {}
        self._hits = 0
        self._misses = 0
        self._writer: Optional[EventLogWriter] = None
        if path is not None:
            for event in read_events(path):
                key = _normalize_key(event.get("key"))
                payload = event.get("payload")
                if (
                    key is not None
                    and isinstance(payload, dict)
                    and _row_defect(payload) is None
                    and _default_batch_size(payload)
                ):
                    self._entries.setdefault(
                        key, json.dumps(payload, sort_keys=True)
                    )
            self._writer = EventLogWriter(path)

    # -- lookups -----------------------------------------------------------------

    def peek(self, key: CacheKey) -> bool:
        """Whether a key is cached — no hit/miss accounting."""
        with self._lock:
            return key in self._entries

    def serve(self, key: CacheKey) -> Optional[Dict[str, Any]]:
        """The cached payload for a key, counting a hit or a miss.

        A hit parses the stored canonical string fresh, so every caller
        gets an isolated object backed by the exact bytes first stored.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._hits += 1
        loaded = json.loads(entry)
        assert isinstance(loaded, dict)
        return loaded

    def rows_by_hash(self, variant_hash: str) -> List[Dict[str, Any]]:
        """Every cached row payload of one parameter point (no accounting).

        A provenance lookup, not a computation avoided — hit/miss
        counters are deliberately untouched.  Payloads parse fresh from
        the stored canonical strings, like :meth:`serve`.
        """
        with self._lock:
            entries = [
                entry
                for key, entry in self._entries.items()
                if key[0] == variant_hash
            ]
        rows: List[Dict[str, Any]] = []
        for entry in entries:
            loaded = json.loads(entry)
            assert isinstance(loaded, dict)
            rows.append(loaded)
        return rows

    def note_misses(self, count: int) -> None:
        """Account for responses computed because the cache lacked them."""
        if count > 0:
            with self._lock:
                self._misses += count

    # -- stores ------------------------------------------------------------------

    def store(self, key: CacheKey, payload: Dict[str, Any]) -> bool:
        """Cache one payload under a key; the first store wins.

        Returns whether this call inserted the entry.  A row recorded at
        a non-default ``batch_size`` is never inserted (see module doc);
        a row failing a sanity check raises :class:`IntegrityError` with
        nothing stored or appended.  Insertions are appended to the
        backing stream (when configured) under the lock, so the durable
        ledger and the in-memory view agree on which computation's bytes
        a key serves.
        """
        defect = _row_defect(payload)
        if defect is not None:
            check, detail = defect
            raise IntegrityError(
                f"refusing to cache a row that fails the {check!r} check: {detail}",
                check=check,
            )
        if not _default_batch_size(payload):
            return False
        with self._lock:
            if key in self._entries:
                return False
            self._entries[key] = json.dumps(payload, sort_keys=True)
            if self._writer is not None:
                self._writer.append({"key": list(key), "payload": payload})
            return True

    def store_rows(self, rows: List[Dict[str, Any]]) -> int:
        """Cache every serialized result row under its recorded identity."""
        inserted = 0
        for row in rows:
            if self.store(row_cache_key(row), row):
                inserted += 1
        return inserted

    # -- lifecycle / stats -------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
            }

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()

"""Result-cache unit tests: identity, accounting, durability, concurrency."""

from __future__ import annotations

import threading

import pytest

from repro.io.eventlog import EventLogWriter, read_events
from repro.service.cache import CACHE_FILENAME, ResultCache, row_cache_key
from repro.service.errors import IntegrityError

ROW = {
    "experiment": "exp",
    "scenario": "passwords",
    "variant": "passwords",
    "params": {},
    "mode": "batch",
    "metrics": {"failure_rate": 0.25},
    "seed": 7,
    "n_receivers": 40,
    "rounds": 1,
    "rng_mode": "counter",
    "task": "recall-passwords",
    "variant_hash": "abc123",
}


class TestKeys:
    def test_row_key_reads_recorded_identity(self):
        key = row_cache_key(ROW)
        assert key == ("abc123", 7, 40, "batch", "counter", 1, "recall-passwords")

    def test_task_separates_otherwise_identical_rows(self):
        other = dict(ROW, task="change-password", metrics={"failure_rate": 0.9})
        cache = ResultCache()
        assert cache.store(row_cache_key(ROW), ROW)
        assert cache.store(row_cache_key(other), other)
        served = cache.serve(row_cache_key(other))
        assert served is not None and served["metrics"]["failure_rate"] == 0.9


class TestAccounting:
    def test_serve_counts_hits_and_misses(self):
        cache = ResultCache()
        key = row_cache_key(ROW)
        assert cache.serve(key) is None
        cache.store(key, ROW)
        assert cache.serve(key) == ROW
        cache.note_misses(2)
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 3}

    def test_peek_does_not_touch_counters(self):
        cache = ResultCache()
        key = row_cache_key(ROW)
        assert not cache.peek(key)
        cache.store(key, ROW)
        assert cache.peek(key)
        assert cache.stats() == {"entries": 1, "hits": 0, "misses": 0}

    def test_served_payloads_are_isolated_copies(self):
        cache = ResultCache()
        key = row_cache_key(ROW)
        cache.store(key, ROW)
        first = cache.serve(key)
        first["metrics"]["failure_rate"] = 999.0
        again = cache.serve(key)
        assert again["metrics"]["failure_rate"] == 0.25


class TestFirstWriteWins:
    def test_second_store_never_replaces_bytes(self):
        cache = ResultCache()
        key = row_cache_key(ROW)
        assert cache.store(key, ROW) is True
        rival = dict(ROW, metrics={"failure_rate": 0.99})
        assert cache.store(key, rival) is False
        assert cache.serve(key)["metrics"]["failure_rate"] == 0.25


class TestAdmission:
    def test_rate_outside_unit_interval_is_refused(self, tmp_path):
        path = tmp_path / CACHE_FILENAME
        cache = ResultCache(path)
        bad = dict(ROW, metrics={"failure_rate": 1.5})
        with pytest.raises(IntegrityError) as caught:
            cache.store(row_cache_key(bad), bad)
        assert caught.value.status == 500
        assert caught.value.details == {"check": "rate_range"}
        assert cache.stats()["entries"] == 0
        cache.close()
        assert read_events(path) == []

    def test_replay_admits_only_sound_default_batch_rows(self, tmp_path):
        # A stream written before the admission checks existed: the
        # restarted cache must not serve what a store would now refuse.
        path = tmp_path / CACHE_FILENAME
        writer = EventLogWriter(path)
        rows = [
            dict(ROW, seed=1, metrics={"failure_rate": float("nan")}),
            dict(ROW, seed=2, batch_size=10_000),
            dict(ROW, seed=3, batch_size=25_000),
        ]
        for row in rows:
            writer.append({"key": list(row_cache_key(row)), "payload": row})
        writer.close()
        warmed = ResultCache(path)
        assert warmed.stats()["entries"] == 1
        assert warmed.peek(row_cache_key(rows[2]))
        warmed.close()


class TestPersistence:
    def test_restarted_cache_replays_its_stream(self, tmp_path):
        path = tmp_path / CACHE_FILENAME
        cache = ResultCache(path)
        cache.store(row_cache_key(ROW), ROW)
        cache.close()
        warmed = ResultCache(path)
        assert warmed.serve(row_cache_key(ROW)) == ROW
        assert warmed.stats()["entries"] == 1
        warmed.close()

    def test_torn_final_line_reads_as_never_written(self, tmp_path):
        path = tmp_path / CACHE_FILENAME
        cache = ResultCache(path)
        cache.store(row_cache_key(ROW), ROW)
        cache.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": ["torn"')  # killed mid-append
        recovered = ResultCache(path)
        assert recovered.stats()["entries"] == 1
        recovered.close()

    def test_unpersisted_cache_writes_nothing(self, tmp_path):
        cache = ResultCache()
        cache.store(row_cache_key(ROW), ROW)
        cache.close()
        assert list(tmp_path.iterdir()) == []


class TestConcurrency:
    def test_racing_stores_and_serves_stay_consistent(self):
        cache = ResultCache()
        key = row_cache_key(ROW)
        inserted = []

        def writer(value: float) -> None:
            payload = dict(ROW, metrics={"failure_rate": value})
            if cache.store(key, payload):
                inserted.append(value)

        def reader() -> None:
            for _ in range(50):
                payload = cache.serve(key)
                if payload is not None:
                    assert payload["metrics"]["failure_rate"] in (0.1, 0.2, 0.3)

        threads = [
            threading.Thread(target=writer, args=(value,))
            for value in (0.1, 0.2, 0.3)
        ] + [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Exactly one writer won, and every subsequent serve returns its bytes.
        assert len(inserted) == 1
        assert cache.serve(key)["metrics"]["failure_rate"] == inserted[0]

    def test_concurrent_distinct_keys_all_land(self):
        cache = ResultCache()

        def store_many(offset: int) -> None:
            for index in range(25):
                row = dict(
                    ROW,
                    seed=offset * 100 + index,
                    variant_hash=f"hash-{offset}-{index}",
                )
                cache.store(row_cache_key(row), row)

        threads = [
            threading.Thread(target=store_many, args=(offset,))
            for offset in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.stats()["entries"] == 100

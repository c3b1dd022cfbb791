"""Tests for the append-only JSONL event streams (ISSUE 7)."""

import json

import pytest

from repro.core.exceptions import SerializationError
from repro.io.eventlog import EventLogWriter, last_event, read_events

#: Unterminated final lines a process killed mid-append can leave: a cut
#: JSON fragment, and a complete record whose newline never landed.  A
#: line is committed only once its newline is written, so both are torn.
TORN_EVENT_TAILS = ('{"event": "sta', '{"event": "started", "seq": 1}')


class TestEventLogWriter:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "scheduler-events.jsonl"
        with EventLogWriter(path) as writer:
            writer.append({"event": "queued", "shard": 0})
            writer.append({"event": "started", "shard": 0})
        events = read_events(path)
        assert [event["event"] for event in events] == ["queued", "started"]
        assert [event["seq"] for event in events] == [0, 1]

    def test_lazy_open_leaves_no_file(self, tmp_path):
        path = tmp_path / "scheduler-events.jsonl"
        EventLogWriter(path).close()
        assert not path.exists()
        assert read_events(path) == []

    def test_seq_resumes_across_writers(self, tmp_path):
        path = tmp_path / "scheduler-events.jsonl"
        with EventLogWriter(path) as writer:
            writer.append({"event": "queued"})
        with EventLogWriter(path) as writer:
            record = writer.append({"event": "merged"})
        assert record["seq"] == 1
        assert [event["seq"] for event in read_events(path)] == [0, 1]

    def test_torn_final_line_truncated_on_reopen(self, tmp_path):
        for number, tail in enumerate(TORN_EVENT_TAILS):
            path = tmp_path / f"scheduler-events-{number}.jsonl"
            with EventLogWriter(path) as writer:
                writer.append({"event": "queued"})
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(tail)  # killed mid-append
            # A reader never serves what the next writer will cut.
            assert [event["event"] for event in read_events(path)] == ["queued"]
            with EventLogWriter(path) as writer:
                record = writer.append({"event": "requeued"})
            assert record["seq"] == 1
            assert [event["event"] for event in read_events(path)] == [
                "queued",
                "requeued",
            ]


class TestReadEvents:
    def test_torn_final_line_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for tail in ('{"ev', *TORN_EVENT_TAILS):
            path.write_text(json.dumps({"seq": 0, "event": "queued"}) + "\n" + tail)
            assert [event["event"] for event in read_events(path)] == ["queued"]

    def test_committed_garbage_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('not json\n{"seq": 0}\n')
        with pytest.raises(SerializationError, match="malformed"):
            read_events(path)

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(SerializationError, match="not an event object"):
            read_events(path)

    def test_last_event_filters_by_kind(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLogWriter(path) as writer:
            writer.append({"event": "heartbeat", "rows": 1})
            writer.append({"event": "heartbeat", "rows": 3})
            writer.append({"event": "completed"})
        assert last_event(path, kind="heartbeat")["rows"] == 3
        assert last_event(path)["event"] == "completed"
        assert last_event(path, kind="timeout") is None
        assert last_event(tmp_path / "missing.jsonl") is None

"""Tests for the append-only JSONL shard files (ISSUE 5)."""

import json

import pytest

from repro.core.exceptions import SerializationError
from repro.experiments import Experiment, SweepSpec
from repro.io import (
    SHARD_FORMAT_VERSION,
    TELEMETRY_PREFIXES,
    ShardLogWriter,
    load_checkpoint,
    read_shard,
    result_row_to_dict,
    shard_filename,
)

SEED = 20260726
HEADER = {
    "experiment": "shard-io-test",
    "seed": SEED,
    "shard_index": 0,
    "shard_count": 2,
    "n_variants": 2,
}


def torn_row_tails(rows):
    """Unterminated final lines a writer killed mid-append can leave: a cut
    row record, and a complete one whose newline never landed.  A line is
    committed only once its newline is written, so both are torn."""
    whole = json.dumps({"kind": "row", "row": result_row_to_dict(rows[0])})
    return ['{"kind": "row", "row": {"experi', whole]


def append_rows(path, rows):
    """Commit ``rows`` to a shard file in one writer session."""
    with ShardLogWriter(path, HEADER) as writer:
        writer.append(rows)


@pytest.fixture(scope="module")
def rows():
    sweep = SweepSpec(scenario="passwords", grid={"single_sign_on": [False, True]})
    experiment = Experiment.from_sweep(
        "shard-io-test", sweep, n_receivers=60, seed=SEED, task="recall-passwords"
    )
    return experiment.run().rows


class TestShardFilename:
    def test_canonical_and_sortable(self):
        names = [shard_filename(index, 12) for index in range(12)]
        assert names[0] == "shard-0000-of-0012.jsonl"
        assert names == sorted(names)


class TestRoundTrip:
    def test_rows_round_trip_exactly(self, rows, tmp_path):
        path = tmp_path / shard_filename(0, 2)
        append_rows(path, rows)
        header, loaded = read_shard(path)
        assert header["experiment"] == "shard-io-test"
        assert header["format_version"] == SHARD_FORMAT_VERSION
        assert [result_row_to_dict(row) for row in loaded] == [
            result_row_to_dict(row) for row in rows
        ]

    def test_append_is_append_only(self, rows, tmp_path):
        path = tmp_path / shard_filename(0, 2)
        append_rows(path, rows[:1])
        first = path.read_text()
        append_rows(path, rows[1:])
        assert path.read_text().startswith(first), "existing bytes must not change"
        header_lines = [
            line for line in path.read_text().splitlines() if '"kind": "header"' in line
        ]
        assert len(header_lines) == 1, "header is written exactly once"
        _, loaded = read_shard(path)
        assert len(loaded) == len(rows)

    def test_load_checkpoint_visits_files_in_name_order(self, rows, tmp_path):
        append_rows(tmp_path / shard_filename(1, 2), rows[1:])
        append_rows(tmp_path / shard_filename(0, 2), rows[:1])
        entries = load_checkpoint(tmp_path)
        assert [path.name for path, _, _ in entries] == [
            shard_filename(0, 2),
            shard_filename(1, 2),
        ]
        assert [len(loaded) for _, _, loaded in entries] == [1, 1]

    def test_load_checkpoint_requires_directory(self, tmp_path):
        with pytest.raises(SerializationError):
            load_checkpoint(tmp_path / "missing")

    def test_load_checkpoint_skips_telemetry_streams(self, rows, tmp_path):
        # Scheduler event logs and heartbeat streams share the directory
        # (and suffix) but are not checkpoints; loading must skip them
        # rather than choke on their headerless records.
        append_rows(tmp_path / shard_filename(0, 2), rows)
        (tmp_path / "scheduler-events.jsonl").write_text(
            json.dumps({"seq": 0, "event": "queued", "shard": 0}) + "\n"
        )
        (tmp_path / "heartbeat-0000.jsonl").write_text(
            json.dumps({"seq": 0, "event": "heartbeat", "rows": 1}) + "\n"
        )
        entries = load_checkpoint(tmp_path)
        assert [path.name for path, _, _ in entries] == [shard_filename(0, 2)]


class TestShardLogWriter:
    def test_open_once_appends_are_o_of_rows(self, rows, tmp_path, monkeypatch):
        # The writer's torn-tail recovery scan (the only full-file read
        # on the append path) must happen at most once per run, however
        # many appends the run makes — O(rows), not O(rows²).
        import pathlib

        reads = []
        original = pathlib.Path.read_bytes

        def counting_read_bytes(self):
            reads.append(str(self))
            return original(self)

        path = tmp_path / shard_filename(0, 2)
        append_rows(path, rows[:1])  # pre-existing file
        monkeypatch.setattr(pathlib.Path, "read_bytes", counting_read_bytes)
        with ShardLogWriter(path, HEADER) as writer:
            for row in rows * 3:  # many appends in one run
                writer.append([row])
        assert reads.count(str(path)) == 1
        _, loaded = read_shard(path)
        assert len(loaded) == 1 + len(rows) * 3

    def test_writer_recovers_torn_tail_once(self, rows, tmp_path):
        for number, tail in enumerate(torn_row_tails(rows)):
            path = tmp_path / shard_filename(number, 2)
            append_rows(path, rows[:1])
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(tail)  # killed mid-append
            with ShardLogWriter(path, HEADER) as writer:
                writer.append(rows[1:])
            header, loaded = read_shard(path)
            assert header is not None
            assert len(loaded) == len(rows)

    def test_lazy_open_creates_no_file_without_appends(self, tmp_path):
        path = tmp_path / shard_filename(0, 2)
        with ShardLogWriter(path, HEADER):
            pass
        assert not path.exists()


class TestTelemetryPrefixes:
    def test_reserved_prefixes_are_pinned(self):
        # repro.cluster derives its event-log and heartbeat file names
        # from these prefixes, and repro.service its cache stream and job
        # ledgers; renaming either side breaks checkpoint loading
        # silently, so the contract is pinned here.
        assert TELEMETRY_PREFIXES == ("scheduler-", "heartbeat-", "service-")


class TestCorruption:
    def test_empty_file_reads_as_nothing_committed(self, rows, tmp_path):
        # Crash after file creation but before the header flushed: the
        # narrowest torn first write, recoverable like any other.
        path = tmp_path / shard_filename(0, 2)
        path.write_text("")
        assert read_shard(path) == (None, [])
        append_rows(path, rows)
        header, loaded = read_shard(path)
        assert header is not None and len(loaded) == len(rows)

    def test_missing_header_rejected(self, rows, tmp_path):
        path = tmp_path / "headless.jsonl"
        path.write_text(
            json.dumps({"kind": "row", "row": result_row_to_dict(rows[0])}) + "\n"
        )
        with pytest.raises(SerializationError, match="header"):
            read_shard(path)

    def test_unknown_format_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "format_version": 99, **HEADER}) + "\n"
        )
        with pytest.raises(SerializationError, match="format version"):
            read_shard(path)

    def test_append_after_torn_tail_truncates_the_fragment(self, rows, tmp_path):
        for number, tail in enumerate(torn_row_tails(rows)):
            path = tmp_path / shard_filename(number, 2)
            append_rows(path, rows[:1])
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(tail)  # no trailing newline
            append_rows(path, rows[1:])
            header, loaded = read_shard(path)
            assert header is not None
            assert len(loaded) == len(rows), "fresh append must not fuse with the fragment"

    def test_torn_header_reads_as_nothing_committed(self, rows, tmp_path):
        whole = json.dumps(
            {"kind": "header", "format_version": SHARD_FORMAT_VERSION, **HEADER}
        )
        for number, tail in enumerate(['{"kind": "header", "format_ver', whole]):
            path = tmp_path / shard_filename(number, 2)
            path.write_text(tail)  # crash on first write
            header, loaded = read_shard(path)
            assert header is None and loaded == []
            # Appending recovers the file from scratch, header included.
            append_rows(path, rows)
            header, loaded = read_shard(path)
            assert header["experiment"] == "shard-io-test"
            assert len(loaded) == len(rows)

    def test_torn_final_line_is_tolerated(self, rows, tmp_path):
        for number, tail in enumerate(torn_row_tails(rows)):
            path = tmp_path / shard_filename(number, 2)
            append_rows(path, rows)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(tail)  # killed mid-append
            _, loaded = read_shard(path)
            assert len(loaded) == len(rows)

    def test_committed_malformed_final_line_rejected(self, rows, tmp_path):
        # A newline-terminated garbage line is a *committed* record gone
        # bad (tampering, disk corruption) — not a torn write — and must
        # raise rather than be silently dropped.
        path = tmp_path / shard_filename(0, 2)
        append_rows(path, rows)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        with pytest.raises(SerializationError, match="malformed"):
            read_shard(path)

    def test_terminated_malformed_header_rejected(self, tmp_path):
        path = tmp_path / shard_filename(0, 2)
        path.write_text('{"kind": "header", "format_ver\n')  # garbage, but committed
        with pytest.raises(SerializationError, match="header"):
            read_shard(path)

    def test_malformed_interior_line_rejected(self, rows, tmp_path):
        path = tmp_path / shard_filename(0, 2)
        append_rows(path, rows[:1])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        append_rows(path, rows[1:])
        with pytest.raises(SerializationError, match="malformed"):
            read_shard(path)

    def test_tampered_params_fail_the_hash_check(self, rows, tmp_path):
        path = tmp_path / shard_filename(0, 2)
        append_rows(path, rows)
        lines = path.read_text().splitlines()
        payload = json.loads(lines[1])
        payload["row"]["params"]["single_sign_on"] = True  # quietly "improve" a result
        lines[1] = json.dumps(payload, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SerializationError, match="hash"):
            read_shard(path)

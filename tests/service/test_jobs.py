"""Job ledger and worker: streams, crash visibility, restart recovery."""

from __future__ import annotations

from repro.io.shards import load_checkpoint
from repro.service import ServiceConfig, ServiceState, create_app
from repro.service.jobs import JobStore

SWEEP = {
    "scenario": "passwords",
    "grid": {"rounds": [1, 2]},
    "n_receivers": 25,
    "seed": 6,
    "name": "job-sweep",
    "detach": True,
}


def submit_and_run(app, state, body=SWEEP):
    status, payload = app.handle("POST", "/sweep", body=dict(body))
    assert status == 202
    state.run_pending_jobs()
    return payload["job"]["job_id"]


class TestLifecycle:
    def test_done_job_streams_every_transition(self, app, service_state):
        job_id = submit_and_run(app, service_state)
        status, payload = app.handle("GET", f"/jobs/{job_id}/events")
        assert status == 200
        kinds = [event["event"] for event in payload["events"]]
        assert kinds[0] == "submitted"
        assert kinds[1] == "running"
        assert "progress" in kinds
        assert kinds[-1] == "done"
        # seq is strictly ordered: the ledger is one append-only stream.
        assert [event["seq"] for event in payload["events"]] == list(
            range(len(kinds))
        )

    def test_progress_observations_come_from_shard_backend(
        self, app, service_state
    ):
        job_id = submit_and_run(app, service_state)
        record = service_state.jobs.get(job_id)
        assert record.progress["variants_done"] == 2
        assert record.progress["variants_total"] == 2
        assert record.progress["rows_committed"] == 2

    def test_job_checkpoint_files_live_in_job_dir(self, app, service_state):
        job_id = submit_and_run(app, service_state)
        entries = load_checkpoint(service_state.jobs.job_dir(job_id))
        rows = [row for _, header, shard_rows in entries for row in shard_rows]
        assert len(rows) == 2  # the ledger itself is skipped as telemetry

    def test_unknown_job_is_404(self, app):
        assert app.handle("GET", "/jobs/job-9999")[0] == 404
        assert app.handle("GET", "/jobs/job-9999/events")[0] == 404

    def test_jobs_listing(self, app, service_state):
        submit_and_run(app, service_state)
        status, payload = app.handle("GET", "/jobs")
        assert status == 200
        assert [job["status"] for job in payload["jobs"]] == ["done"]


class TestFailureInjection:
    def test_worker_crash_marks_failed_with_error_in_stream(
        self, app, service_state, monkeypatch
    ):
        def exploding_executor(job_id: str):
            raise RuntimeError("worker died mid-variant")

        monkeypatch.setattr(
            service_state.worker, "_executor", exploding_executor
        )
        status, payload = app.handle("POST", "/sweep", body=dict(SWEEP))
        assert status == 202
        job_id = payload["job"]["job_id"]
        service_state.run_pending_jobs()

        status, payload = app.handle("GET", f"/jobs/{job_id}")
        assert payload["job"]["status"] == "failed"
        assert "worker died mid-variant" in payload["job"]["error"]

        status, payload = app.handle("GET", f"/jobs/{job_id}/events")
        kinds = [event["event"] for event in payload["events"]]
        assert kinds == ["submitted", "running", "failed"]
        assert "worker died mid-variant" in payload["events"][-1]["error"]

    def test_failed_job_result_fetch_is_a_clean_400(
        self, app, service_state, monkeypatch
    ):
        monkeypatch.setattr(
            service_state.worker,
            "_executor",
            lambda job_id: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        _, payload = app.handle("POST", "/sweep", body=dict(SWEEP))
        job_id = payload["job"]["job_id"]
        service_state.run_pending_jobs()
        status, payload = app.handle("GET", f"/results/{job_id}")
        assert status == 400
        assert payload["status"] == "failed"


class TestRestartRecovery:
    def test_restarted_store_marks_in_flight_jobs_interrupted(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        record = store.submit({"scenario": "passwords"})
        store.mark_running(record.job_id)
        store.close()  # the process dies here, mid-run

        reopened = JobStore(tmp_path / "jobs")
        recovered = reopened.get(record.job_id)
        assert recovered.status == "failed"
        assert "restarted" in recovered.error
        kinds = [event["event"] for event in reopened.events(record.job_id)]
        assert kinds == ["submitted", "running", "interrupted"]
        reopened.close()

    def test_restarted_store_keeps_done_jobs_done(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        record = store.submit({"scenario": "passwords"})
        store.mark_running(record.job_id)
        store.mark_done(record.job_id, {"rows": 2})
        store.close()

        reopened = JobStore(tmp_path / "jobs")
        assert reopened.get(record.job_id).status == "done"
        assert reopened.get(record.job_id).summary == {"rows": 2}
        reopened.close()

    def test_restarted_service_still_serves_old_job_results(self, tmp_path):
        data_dir = str(tmp_path / "svc")
        state = ServiceState(
            ServiceConfig(
                data_dir=data_dir, inline_threshold=500, threaded_worker=False
            )
        )
        app = create_app(state=state)
        job_id = submit_and_run(app, state)
        first = app.handle("GET", f"/results/{job_id}")[1]
        state.close()

        # A fresh process over the same data directory: ledger and
        # checkpoints replay; the result is byte-identical.
        reopened = ServiceState(
            ServiceConfig(
                data_dir=data_dir, inline_threshold=500, threaded_worker=False
            )
        )
        app2 = create_app(state=reopened)
        status, second = app2.handle("GET", f"/results/{job_id}")
        assert status == 200
        assert second == first
        reopened.close()


class TestCachedJobPath:
    def test_second_identical_job_completes_from_cache(
        self, app, service_state, monkeypatch
    ):
        import repro.experiments.backends as backends

        first_id = submit_and_run(app, service_state)
        first = app.handle("GET", f"/results/{first_id}")[1]

        def forbidden(self, experiment):
            raise AssertionError("backend ran on a fully-cached job")

        def forbidden_run(run):
            raise AssertionError("a variant ran on a fully-cached job")

        monkeypatch.setattr(backends.ShardBackend, "execute", forbidden)
        monkeypatch.setattr(backends, "run_variant", forbidden_run)
        second_id = submit_and_run(app, service_state)
        record = service_state.jobs.get(second_id)
        assert record.status == "done"
        assert record.summary["from_cache"] is True
        second = app.handle("GET", f"/results/{second_id}")[1]
        assert second["resultset"] == first["resultset"]


class TestJobPlansOnce:
    def _submit(self, app):
        status, payload = app.handle("POST", "/sweep", body=dict(SWEEP))
        assert status == 202
        return payload["job"]["job_id"]

    def test_fresh_and_cached_jobs_plan_once(
        self, app, service_state, plan_runs_calls
    ):
        for expected_from_cache in (False, True):
            job_id = self._submit(app)
            del plan_runs_calls[:]  # the route plans to cost the request
            assert service_state.run_pending_jobs() == 1
            record = service_state.jobs.get(job_id)
            assert record.status == "done", record.error
            assert record.summary["from_cache"] is expected_from_cache
            assert plan_runs_calls == [SWEEP["name"]]

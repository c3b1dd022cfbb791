"""Simulate/sweep endpoints: dispatch threshold, cache bit-identity, threads."""

from __future__ import annotations

import concurrent.futures
import json
import sys
import threading
from pathlib import Path

import pytest

import repro.experiments.backends as backends_module
import repro.experiments.runner as runner_module
import repro.service.requests as service_requests
import repro.systems.passwords as passwords_module
from repro.experiments import Experiment, VariantSpec
from repro.experiments.results import WALL_CLOCK_METRICS
from repro.experiments.runner import plan_runs
from repro.io.eventlog import read_events
from repro.io.experiments_io import resultset_from_dict, resultset_to_dict
from repro.service import ServiceConfig, ServiceState, build_experiment, create_app
from repro.service.cache import CACHE_FILENAME, row_cache_key

from .conftest import computed_bytes, request_identity, wsgi_call


class TestDispatchThreshold:
    def test_small_request_runs_inline(self, app):
        status, payload = app.handle(
            "POST",
            "/simulate",
            body={"scenario": "passwords", "n_receivers": 30, "seed": 3},
        )
        assert status == 200
        assert payload["status"] == "completed"
        assert payload["cost"] == 30
        assert len(payload["resultset"]["rows"]) == 1

    def test_cost_above_threshold_becomes_job(self, app, service_state):
        # inline_threshold is 500 in the fixture; 80 receivers x 10 rounds
        # x 1 variant = 800 receiver-rounds.
        status, payload = app.handle(
            "POST",
            "/simulate",
            body={
                "scenario": "passwords",
                "params": {"rounds": 10},
                "n_receivers": 80,
            },
        )
        assert status == 202
        assert payload["status"] == "submitted"
        assert payload["cost"] == 800
        assert payload["job"]["status"] == "submitted"
        assert service_state.run_pending_jobs() == 1
        job_id = payload["job"]["job_id"]
        assert app.handle("GET", f"/jobs/{job_id}")[1]["job"]["status"] == "done"

    def test_detach_forces_async_even_when_small(self, app, service_state):
        status, payload = app.handle(
            "POST",
            "/simulate",
            body={"scenario": "passwords", "n_receivers": 10, "detach": True},
        )
        assert status == 202
        assert service_state.run_pending_jobs() == 1

    def test_rounds_param_scales_cost(self, app):
        status, payload = app.handle(
            "POST",
            "/sweep",
            body={
                "scenario": "passwords",
                "grid": {"rounds": [1, 2]},
                "n_receivers": 50,
            },
        )
        assert status == 200
        assert payload["cost"] == 50 * (1 + 2)


class TestValidationAndFields:
    def test_unknown_body_field_is_400(self, app):
        # Engine knobs must travel inside params, never as body fields —
        # that is what keeps them inside the variant hash.
        status, payload = app.handle(
            "POST",
            "/simulate",
            body={"scenario": "passwords", "rounds": 5},
        )
        assert status == 400
        assert "rounds" in payload["message"]

    def test_bad_parameter_is_422_naming_it(self, app):
        status, payload = app.handle(
            "POST",
            "/simulate",
            body={"scenario": "passwords", "params": {"rounds": 0}},
        )
        assert status == 422
        assert payload["parameter"] == "rounds"

    def test_unknown_scenario_is_422(self, app):
        status, payload = app.handle(
            "POST", "/simulate", body={"scenario": "nowhere"}
        )
        assert status == 422
        assert payload["parameter"] == "scenario"

    def test_params_and_grid_are_mutually_exclusive(self, app):
        status, payload = app.handle(
            "POST",
            "/sweep",
            body={
                "scenario": "passwords",
                "params": {"rounds": 2},
                "grid": {"rounds": [1]},
            },
        )
        assert status == 400


class TestCacheBitIdentity:
    def test_second_identical_sweep_served_from_cache_without_engine_work(
        self, app, service_state, monkeypatch
    ):
        body = {
            "scenario": "passwords",
            "grid": {"rounds": [1, 2]},
            "n_receivers": 30,
            "seed": 11,
            "name": "sweep-twice",
        }
        status, first = app.handle("POST", "/sweep", body=dict(body))
        assert status == 200
        assert first["cache"] == {"served": 0, "computed": 2}
        hits_before = service_state.cache.stats()["hits"]

        def forbidden(run):
            raise AssertionError("engine work on a fully-cached sweep")

        monkeypatch.setattr(backends_module, "run_variant", forbidden)
        status, second = app.handle("POST", "/sweep", body=dict(body))
        assert status == 200
        assert second["cache"] == {"served": 2, "computed": 0}
        # Bit-identical: the exact bytes of the first computation.
        assert second["resultset"] == first["resultset"]
        assert service_state.cache.stats()["hits"] == hits_before + 2

    def test_simulate_and_sweep_share_the_content_cache(self, app):
        # A sweep point and a single-point simulate at the same identity
        # are the same computation; the second query is a pure hit.
        common = {"scenario": "passwords", "n_receivers": 25, "seed": 4}
        status, swept = app.handle(
            "POST",
            "/sweep",
            body={**common, "grid": {"rounds": [1]}, "seed_strategy": "shared"},
        )
        assert status == 200 and swept["cache"]["computed"] == 1
        status, single = app.handle(
            "POST", "/simulate", body={**common, "params": {"rounds": 1}}
        )
        assert status == 200
        assert single["cache"] == {"served": 1, "computed": 0}

    def test_different_task_never_collides(self, app):
        # The task rides in the cache key: same scenario/params/seed with
        # a different task must be a distinct computation, never a hit.
        base = {"scenario": "passwords", "n_receivers": 20, "seed": 9}
        status, first = app.handle(
            "POST", "/simulate", body={**base, "task": "recall"}
        )
        assert status == 200
        status, second = app.handle(
            "POST", "/simulate", body={**base, "task": "create"}
        )
        assert status == 200
        assert second["cache"] == {"served": 0, "computed": 1}
        row_first = first["resultset"]["rows"][0]
        row_second = second["resultset"]["rows"][0]
        assert row_first["variant_hash"] == row_second["variant_hash"]
        assert row_first["task"] != row_second["task"]

    def test_task_spellings_of_one_task_share_one_computation(self, app):
        # Omitted, full name and unique prefix resolve to the same task, so
        # they are one cache key: only the first request computes.
        base = {"scenario": "passwords", "n_receivers": 20, "seed": 9}
        status, first = app.handle("POST", "/simulate", body=dict(base))
        assert status == 200
        assert first["cache"] == {"served": 0, "computed": 1}
        full_name = first["resultset"]["rows"][0]["task"]
        assert full_name.startswith("create-")
        for spelling in (full_name, "create"):
            status, again = app.handle(
                "POST", "/simulate", body={**base, "task": spelling}
            )
            assert status == 200
            assert again["cache"] == {"served": 1, "computed": 0}
            assert again["resultset"] == first["resultset"]

    @pytest.mark.parametrize(
        "path, body",
        [
            # "re" prefixes both recall-passwords and refrain-from-sharing.
            ("/simulate", {"scenario": "passwords", "task": "re"}),
            ("/simulate", {"scenario": "passwords", "task": "no-such-task"}),
            ("/analyze", {"scenario": "passwords", "task": "re"}),
            # Each value is valid alone; the binder rejects the combination.
            (
                "/simulate",
                {
                    "scenario": "antiphishing",
                    "params": {"variant": "no_warning", "activeness": 0.5},
                },
            ),
            (
                "/analyze",
                {
                    "scenario": "antiphishing",
                    "params": {"variant": "no_warning", "activeness": 0.5},
                },
            ),
        ],
    )
    def test_unresolvable_task_or_binding_fails_on_every_repeat(
        self, app, service_state, path, body
    ):
        common = {"n_receivers": 20, "seed": 9} if path == "/simulate" else {}
        if "task" in body:
            # Warm the point under its default task first: a failed spelling
            # must not borrow the memoised name of a spelling that resolved.
            warm = {name: value for name, value in body.items() if name != "task"}
            status, _ = app.handle("POST", path, body={**warm, **common})
            assert status == 200
        before = service_state.cache.stats()
        for _ in range(3):
            status, payload = app.handle("POST", path, body={**body, **common})
            assert status == 422, payload
        assert service_state.cache.stats() == before


class TestCacheAdmission:
    """Nothing the first-write-wins cache would serve wrongly may enter it."""

    def test_nan_row_is_a_500_and_never_cached(
        self, app, service_state, monkeypatch
    ):
        real = runner_module._simulation_metrics

        def corrupted(result):
            return {**real(result), "protection_rate": float("nan")}

        monkeypatch.setattr(runner_module, "_simulation_metrics", corrupted)
        status, payload = app.handle(
            "POST",
            "/simulate",
            body={"scenario": "passwords", "n_receivers": 30, "seed": 5},
        )
        assert status == 500
        assert payload["error"] == "integrity"
        assert payload["check"] == "finite"
        assert "protection_rate" in payload["message"]
        assert service_state.cache.stats()["entries"] == 0
        stream = Path(service_state.config.data_dir) / CACHE_FILENAME
        assert read_events(stream) == []

    def test_row_at_another_batch_size_never_serves_simulate(self, tmp_path):
        # batch_size changes the bits (chunk boundaries key the draws), and
        # row_cache_key does not carry it: an archived row computed at a
        # non-default batch size must not answer a fresh /simulate.
        state = ServiceState(
            ServiceConfig(
                data_dir=str(tmp_path / "service"),
                inline_threshold=100_000,
                threaded_worker=False,
            )
        )
        try:
            app = create_app(state=state)
            archived = resultset_to_dict(
                Experiment(
                    name="archive",
                    variants=(VariantSpec(scenario="passwords", params={}),),
                    n_receivers=50_000,
                    seed=7,
                    batch_size=10_000,
                    seed_strategy="shared",
                ).run()
            )
            status, imported = app.handle(
                "POST", "/results/import", body={"resultset": archived}
            )
            assert status == 200
            assert imported["rows"] == 1 and imported["inserted"] == 0

            status, fresh = app.handle(
                "POST",
                "/simulate",
                body={"scenario": "passwords", "n_receivers": 50_000, "seed": 7},
            )
            assert status == 200
            assert fresh["cache"] == {"served": 0, "computed": 1}
            archived_row = archived["rows"][0]
            fresh_row = fresh["resultset"]["rows"][0]
            assert fresh_row["batch_size"] != archived_row["batch_size"]
            assert (
                fresh_row["metrics"]["protection_rate"]
                != archived_row["metrics"]["protection_rate"]
            )
        finally:
            state.close()


class TestAnalyze:
    def test_analyze_is_cached_and_inline(self, app):
        body = {"scenario": "antiphishing"}
        status, first = app.handle("POST", "/analyze", body=dict(body))
        assert status == 200
        assert first["cache"] == {"served": 0, "computed": 1}
        status, second = app.handle("POST", "/analyze", body=dict(body))
        assert second["cache"] == {"served": 1, "computed": 0}
        assert second["row"] == first["row"]

    def test_analyze_rejects_simulation_fields(self, app):
        status, payload = app.handle(
            "POST", "/analyze", body={"scenario": "passwords", "n_receivers": 5}
        )
        assert status == 400


class TestHitsDoNoBinding:
    """A warm point's key comes from the task-name memo, not a built system."""

    BODY = {"scenario": "passwords", "n_receivers": 20, "seed": 5}

    @staticmethod
    def _forbid_binding(monkeypatch):
        def forbidden(policy):
            raise AssertionError("a scenario system was built on a cache hit")

        monkeypatch.setattr(passwords_module, "build_system_for", forbidden)

    @staticmethod
    def _counts(app):
        cache = app.handle("GET", "/health")[1]["cache"]
        return cache["hits"], cache["misses"]

    @staticmethod
    def _canonical_bytes(payload):
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def _planned_identity(state, job_id):
        """Each planned row's ``(experiment, variant, variant_index)``."""
        experiment = build_experiment(state.jobs.get(job_id).request, job_id)
        return [
            (run.experiment, run.label, run.variant_index)
            for run in plan_runs(experiment)
            for _ in run.expected_rows()
        ]

    def _assert_hit(self, app, path, body, first, key, served):
        hits, misses = self._counts(app)
        status, again = wsgi_call(app, "POST", path, body)
        assert status == 200, again
        assert again["cache"] == {"served": served, "computed": 0}
        assert self._canonical_bytes(again[key]) == self._canonical_bytes(first[key])
        assert self._counts(app) == (hits + served, misses)

    def test_repeated_simulate(self, app, monkeypatch):
        status, first = wsgi_call(app, "POST", "/simulate", self.BODY)
        assert status == 200 and first["cache"]["computed"] == 1
        self._forbid_binding(monkeypatch)
        self._assert_hit(app, "/simulate", self.BODY, first, "resultset", 1)

    def test_repeated_analyze(self, app, monkeypatch):
        body = {"scenario": "passwords", "params": {"single_sign_on": True}}
        status, first = wsgi_call(app, "POST", "/analyze", body)
        assert status == 200 and first["cache"]["computed"] == 1
        self._forbid_binding(monkeypatch)
        self._assert_hit(app, "/analyze", body, first, "row", 1)

    def test_fully_cached_sweep(self, app, monkeypatch):
        body = {**self.BODY, "grid": {"single_sign_on": [False, True]}}
        status, first = wsgi_call(app, "POST", "/sweep", body)
        assert status == 200 and first["cache"]["computed"] == 2
        self._forbid_binding(monkeypatch)
        self._assert_hit(app, "/sweep", body, first, "resultset", 2)

    def test_fully_cached_detached_job(self, app, service_state, monkeypatch):
        body = {**self.BODY, "grid": {"single_sign_on": [False, True]}}
        status, first = wsgi_call(app, "POST", "/sweep", body)
        assert status == 200 and first["cache"]["computed"] == 2
        self._forbid_binding(monkeypatch)
        hits, misses = self._counts(app)
        status, submitted = wsgi_call(
            app, "POST", "/sweep", {**body, "detach": True}
        )
        assert status == 202
        assert service_state.run_pending_jobs() == 1
        job_id = submitted["job"]["job_id"]
        job = app.handle("GET", f"/jobs/{job_id}")[1]["job"]
        assert job["status"] == "done", job["error"]
        assert job["summary"]["from_cache"] is True
        assert self._counts(app) == (hits + 2, misses)
        status, result = wsgi_call(app, "GET", f"/results/{job_id}")
        assert status == 200
        rows = result["resultset"]["rows"]
        # The first computation's bytes, under the job's own identity.
        assert [computed_bytes(row) for row in rows] == [
            computed_bytes(row) for row in first["resultset"]["rows"]
        ]
        assert [request_identity(row) for row in rows] == self._planned_identity(
            service_state, job_id
        )

    def test_partially_cached_detached_sweep(self, app, service_state, monkeypatch):
        point = {**self.BODY, "params": {"single_sign_on": True}}
        status, first = wsgi_call(app, "POST", "/simulate", point)
        assert status == 200 and first["cache"]["computed"] == 1
        hits, misses = self._counts(app)
        ran = []
        original = backends_module.run_variant

        def counting(run):
            ran.append(run.label)
            return original(run)

        monkeypatch.setattr(backends_module, "run_variant", counting)
        status, submitted = wsgi_call(app, "POST", "/sweep", {
            **self.BODY,
            "grid": {"single_sign_on": [False, True]},
            "seed_strategy": "shared",
            "detach": True,
        })
        assert status == 202
        assert service_state.run_pending_jobs() == 1
        job_id = submitted["job"]["job_id"]
        job = app.handle("GET", f"/jobs/{job_id}")[1]["job"]
        assert job["status"] == "done", job["error"]
        assert job["summary"]["from_cache"] is False
        assert ran == ["single_sign_on=False"]  # the uncached point only
        assert self._counts(app) == (hits + 1, misses + 1)
        status, result = wsgi_call(app, "GET", f"/results/{job_id}")
        assert status == 200
        rows = result["resultset"]["rows"]
        assert len(rows) == 2
        cached = first["resultset"]["rows"][0]
        assert [
            computed_bytes(row)
            for row in rows
            if row["variant_hash"] == cached["variant_hash"]
        ] == [computed_bytes(cached)]
        assert [request_identity(row) for row in rows] == self._planned_identity(
            service_state, job_id
        )

    def test_replayed_row_is_a_hit_with_a_cold_memo(self, tmp_path, monkeypatch):
        config = ServiceConfig(
            data_dir=str(tmp_path / "service"), threaded_worker=False
        )
        state = ServiceState(config)
        try:
            status, first = wsgi_call(
                create_app(state=state), "POST", "/simulate", self.BODY
            )
            assert status == 200 and first["cache"]["computed"] == 1
        finally:
            state.close()

        restarted = ServiceState(config)
        try:
            app = create_app(state=restarted)
            # The memo starts cold: the first hit resolves the task once...
            self._assert_hit(app, "/simulate", self.BODY, first, "resultset", 1)
            # ...and the next one needs no binding at all.
            self._forbid_binding(monkeypatch)
            self._assert_hit(app, "/simulate", self.BODY, first, "resultset", 1)
        finally:
            restarted.close()


class TestServedRowIdentity:
    """A served row names the request serving it, not the one that computed it."""

    POINT = {"scenario": "passwords", "n_receivers": 200, "seed": 2}
    GRID = {
        **POINT,
        "grid": {"single_sign_on": [False, True]},
        "seed_strategy": "shared",
    }

    def _cache_point(self, app):
        status, first = app.handle(
            "POST", "/simulate", body={**self.POINT, "params": {"single_sign_on": True}}
        )
        assert status == 200 and first["cache"] == {"served": 0, "computed": 1}
        return first["resultset"]["rows"][0]

    def test_inline_sweep_over_a_simulated_point(self, app):
        cached = self._cache_point(app)
        status, swept = app.handle("POST", "/sweep", body=dict(self.GRID))
        assert status == 200 and swept["cache"] == {"served": 1, "computed": 1}
        rows = swept["resultset"]["rows"]
        assert [request_identity(row) for row in rows] == [
            ("sweep", "single_sign_on=False", 0),
            ("sweep", "single_sign_on=True", 1),
        ]
        assert computed_bytes(rows[1]) == computed_bytes(cached)

    def test_analyze_under_another_name(self, app):
        body = {"scenario": "passwords", "params": {"single_sign_on": True}}
        status, mine = app.handle("POST", "/analyze", body={**body, "name": "mine"})
        assert status == 200 and mine["experiment"] == "mine"
        status, other = app.handle("POST", "/analyze", body={**body, "name": "other"})
        assert status == 200 and other["cache"] == {"served": 1, "computed": 0}
        assert request_identity(other["row"]) == (
            "other",
            "passwords[single_sign_on=True]",
            0,
        )
        assert computed_bytes(other["row"]) == computed_bytes(mine["row"])

    def test_detached_sweep_over_a_simulated_point(self, app, service_state):
        cached = self._cache_point(app)
        status, submitted = app.handle(
            "POST", "/sweep", body={**self.GRID, "name": "grid", "detach": True}
        )
        assert status == 202
        assert service_state.run_pending_jobs() == 1
        job_id = submitted["job"]["job_id"]
        status, result = app.handle("GET", f"/results/{job_id}")
        assert status == 200
        rows = result["resultset"]["rows"]
        assert [request_identity(row) for row in rows] == [
            ("grid", "single_sign_on=False", 0),
            ("grid", "single_sign_on=True", 1),
        ]
        assert computed_bytes(rows[1]) == computed_bytes(cached)


class TestOneRunPath:
    """Inline requests and jobs each make one call into the checkpointed loop."""

    COMMON = {"scenario": "passwords", "n_receivers": 20, "seed": 3}
    REQUESTS = (
        ("/simulate", {**COMMON, "name": "point"}),
        ("/sweep", {**COMMON, "grid": {"single_sign_on": [False, True]}, "name": "sso"}),
        ("/analyze", {"scenario": "passwords", "name": "walk"}),
        ("/sweep", {**COMMON, "grid": {"rounds": [1, 2]}, "name": "j", "detach": True}),
    )

    def test_fresh_and_cached_requests_call_the_loop_once(
        self, app, service_state, monkeypatch
    ):
        calls = []
        original = service_requests.run_checkpointed

        def spy(experiment, *args, **kwargs):
            calls.append(experiment.name)
            return original(experiment, *args, **kwargs)

        monkeypatch.setattr(service_requests, "run_checkpointed", spy)
        for cached in (False, True):  # fresh, then every row from the cache
            for path, body in self.REQUESTS:
                del calls[:]
                status, payload = app.handle("POST", path, body=dict(body))
                if body.get("detach"):
                    assert status == 202
                    assert service_state.run_pending_jobs() == 1
                    job = service_state.jobs.get(payload["job"]["job_id"])
                    assert job.status == "done", job.error
                    assert job.summary["from_cache"] is cached
                else:
                    assert status == 200
                    assert (payload["cache"]["computed"] == 0) is cached
                assert calls == [body["name"]], path


class TestRowHashedOnce:
    """A served row hashes its params once, on load, and never again."""

    def test_served_simulate_hit_hashes_its_row_once(self, app, monkeypatch):
        from repro.experiments import results as results_module

        calls = []
        original = results_module.compute_variant_hash

        def spy(scenario, params):
            calls.append(scenario)
            return original(scenario, params)

        monkeypatch.setattr(results_module, "compute_variant_hash", spy)
        body = {"scenario": "passwords", "params": {"single_sign_on": True},
                "n_receivers": 20, "seed": 3}
        status, payload = app.handle("POST", "/simulate", body=dict(body))
        assert (status, payload["cache"]) == (200, {"served": 0, "computed": 1})
        del calls[:]
        status, payload = app.handle("POST", "/simulate", body=dict(body))
        assert (status, payload["cache"]) == (200, {"served": 1, "computed": 0})
        assert calls == ["passwords"]


class TestConcurrentInlineRequests:
    """Threaded clients get, and cache, exactly the serial bits."""

    SEEDS = range(21, 37)

    def _state(self, tmp_path, name):
        return ServiceState(
            ServiceConfig(
                data_dir=str(tmp_path / name),
                inline_threshold=100_000,
                threaded_worker=False,
            )
        )

    def _body(self, seed):
        return {
            "scenario": "antiphishing",
            "params": {"rounds": 3},
            "n_receivers": 10_000,
            "seed": seed,
        }

    @staticmethod
    def _without_clock(row):
        metrics = {
            name: value
            for name, value in row["metrics"].items()
            if name not in WALL_CLOCK_METRICS
        }
        return {**row, "metrics": metrics}

    def test_threads_equal_serial_and_cache_only_correct_rows(self, tmp_path):
        serial_state = self._state(tmp_path, "serial")
        threaded_state = self._state(tmp_path, "threaded")
        try:
            serial_app = create_app(state=serial_state)
            serial = {}
            for seed in self.SEEDS:
                status, payload = wsgi_call(
                    serial_app, "POST", "/simulate", self._body(seed)
                )
                assert status == 200
                serial[seed] = payload

            app = create_app(state=threaded_state)
            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                responses = dict(
                    zip(
                        self.SEEDS,
                        pool.map(
                            lambda seed: wsgi_call(
                                app, "POST", "/simulate", self._body(seed)
                            ),
                            self.SEEDS,
                        ),
                    )
                )

            def canonical(payload):
                return resultset_from_dict(payload["resultset"]).canonical_dict()

            for seed in self.SEEDS:
                status, payload = responses[seed]
                assert status == 200, payload
                assert payload["cache"] == {"served": 0, "computed": 1}
                assert canonical(payload) == canonical(serial[seed])

            expected = {
                tuple(row_cache_key(row)): self._without_clock(row)
                for payload in serial.values()
                for row in payload["resultset"]["rows"]
            }
            stream = Path(threaded_state.config.data_dir) / CACHE_FILENAME
            cached = read_events(stream)
            assert len(cached) == len(self.SEEDS)
            for event in cached:
                key = tuple(event["key"])
                assert self._without_clock(event["payload"]) == expected[key]
        finally:
            serial_state.close()
            threaded_state.close()

    def test_threads_racing_on_one_cold_point_count_exactly(self, tmp_path):
        # Every request shares one point (the seed is not part of it) and
        # each seed is sent three times.  The first four requests start
        # together on a cold service: they resolve the point's task while
        # the memo is still empty, and three of them race on one cache key.
        seeds = list(self.SEEDS)[:4]
        bodies = [self._body(seed) for seed in seeds for _ in range(3)]
        serial_state = self._state(tmp_path, "serial")
        threaded_state = self._state(tmp_path, "threaded")
        try:
            serial_app = create_app(state=serial_state)
            serial = {}
            for seed in seeds:
                status, payload = wsgi_call(
                    serial_app, "POST", "/simulate", self._body(seed)
                )
                assert status == 200
                serial[seed] = payload

            app = create_app(state=threaded_state)
            workers = 4
            start = threading.Barrier(workers)

            def send(index):
                if index < workers:
                    start.wait(timeout=30)
                return wsgi_call(app, "POST", "/simulate", bodies[index])

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the racing threads finely
            try:
                with concurrent.futures.ThreadPoolExecutor(workers) as pool:
                    responses = list(pool.map(send, range(len(bodies))))
            finally:
                sys.setswitchinterval(interval)

            def canonical(payload):
                return resultset_from_dict(payload["resultset"]).canonical_dict()

            served = computed = 0
            for body, (status, payload) in zip(bodies, responses):
                assert status == 200, payload
                assert canonical(payload) == canonical(serial[body["seed"]])
                served += payload["cache"]["served"]
                computed += payload["cache"]["computed"]
            assert served + computed == len(bodies)
            stats = threaded_state.cache.stats()
            assert (stats["hits"], stats["misses"]) == (served, computed)
            assert stats["entries"] == len(seeds)

            expected = {
                tuple(row_cache_key(row)): self._without_clock(row)
                for payload in serial.values()
                for row in payload["resultset"]["rows"]
            }
            stream = Path(threaded_state.config.data_dir) / CACHE_FILENAME
            cached = read_events(stream)
            assert len(cached) == len(seeds)
            for event in cached:
                key = tuple(event["key"])
                assert self._without_clock(event["payload"]) == expected[key]
        finally:
            serial_state.close()
            threaded_state.close()

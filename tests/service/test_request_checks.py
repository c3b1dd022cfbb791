"""Request checks and row identity, owned by the experiment layer.

The service validates nothing of its own: a rejected request is the
experiment layer's error, mapped to a status with the parameter or field
it names.  These tests pin that mapping per endpoint, count how often a
cached sweep validates its values, and check that a planned work unit
predicts exactly the settings and keys its rows record.
"""

from __future__ import annotations

import collections

import pytest

from repro.experiments import Experiment, VariantSpec
from repro.experiments.runner import plan_runs, run_variant
from repro.io.experiments_io import result_row_to_dict
from repro.service.cache import row_cache_key
from repro.service.requests import TaskNameMemo, predicted_run_keys, run_cost
from repro.systems.parameters import Parameter

POINT = {"scenario": "passwords", "n_receivers": 20, "seed": 1}
SWEEP = {**POINT, "grid": {"rounds": [1, 2]}}

#: ``(case, body, status, error kind, parameter, field)``; a ``None``
#: detail must be absent from the error body.
REJECTED = [
    ("bad mode", {**POINT, "mode": "bogus"}, 422, "validation", "mode", None),
    ("mode not a string", {**POINT, "mode": 5}, 400, "bad_request", None, "mode"),
    ("bad paths", {**POINT, "paths": ["bogus"]}, 422, "validation", "paths", None),
    ("empty paths", {**POINT, "paths": []}, 422, "validation", "paths", None),
    ("paths not a list", {**POINT, "paths": "simulate"}, 400, "bad_request", None, "paths"),
    (
        "bad seed_strategy",
        {**SWEEP, "seed_strategy": "bogus"},
        422, "validation", "seed_strategy", None,
    ),
    (
        "grid axis not a list",
        {**POINT, "grid": {"rounds": 3}},
        400, "bad_request", None, "rounds",
    ),
    (
        "grid axis a string",
        {**POINT, "grid": {"rng_mode": "matrix"}},
        400, "bad_request", None, "rng_mode",
    ),
    ("empty grid", {**POINT, "grid": {}}, 400, "bad_request", None, None),
    (
        "grid value out of range",
        {**POINT, "grid": {"rounds": [1, 0]}},
        422, "validation", "rounds", None,
    ),
    (
        "unknown grid parameter",
        {**POINT, "grid": {"bogus_knob": [1]}},
        422, "validation", "bogus_knob", None,
    ),
    (
        "base value out of range",
        {**SWEEP, "base": {"recovery_rate": 7.5}},
        422, "validation", "recovery_rate", None,
    ),
    (
        "params value out of range",
        {**POINT, "params": {"rounds": 2, "recovery_rate": 7.5}},
        422, "validation", "recovery_rate", None,
    ),
    (
        "unknown scenario",
        {**POINT, "scenario": "nowhere"},
        422, "validation", "scenario", None,
    ),
    (
        "unknown scenario in a sweep",
        {**SWEEP, "scenario": "nowhere"},
        422, "validation", "scenario", None,
    ),
]


@pytest.mark.parametrize("endpoint", ["/simulate", "/sweep"])
@pytest.mark.parametrize(
    "body, status, kind, parameter, field",
    [case[1:] for case in REJECTED],
    ids=[case[0] for case in REJECTED],
)
def test_rejected_request_names_what_it_rejects(
    app, service_state, endpoint, body, status, kind, parameter, field
):
    got_status, payload = app.handle("POST", endpoint, body=dict(body))
    assert (got_status, payload["error"]) == (status, kind), payload
    assert payload.get("parameter") == parameter
    assert payload.get("field") == field
    assert payload["message"]
    assert service_state.cache.stats()["entries"] == 0


def test_cached_sweep_validates_each_value_once(app, monkeypatch):
    body = {
        **POINT,
        "grid": {"rounds": [1, 2], "recovery_rate": [0.0, 0.5]},
        "base": {"dismiss_weight": 2.0},
    }
    status, first = app.handle("POST", "/sweep", body=dict(body))
    assert status == 200 and first["cache"] == {"served": 0, "computed": 4}

    calls: collections.Counter = collections.Counter()
    validate = Parameter.validate

    def spy(self, value):
        calls[self.name, repr(value)] += 1
        return validate(self, value)

    monkeypatch.setattr(Parameter, "validate", spy)
    status, second = app.handle("POST", "/sweep", body=dict(body))
    assert status == 200 and second["cache"] == {"served": 4, "computed": 0}
    assert calls == collections.Counter(
        {
            ("rounds", "1"): 1,
            ("rounds", "2"): 1,
            ("recovery_rate", "0.0"): 1,
            ("recovery_rate", "0.5"): 1,
            ("dismiss_weight", "2.0"): 1,
        }
    )


@pytest.mark.parametrize(
    "params, batch_size",
    [
        ({}, None),
        ({"rounds": 3}, None),
        ({"rng_mode": "matrix"}, None),
        ({}, 150),
        ({"rounds": 2, "rng_mode": "matrix", "recovery_rate": 0.3}, 150),
    ],
)
def test_planned_unit_predicts_what_its_rows_record(params, batch_size):
    experiment = Experiment(
        "plan",
        (VariantSpec("passwords", params=params),),
        n_receivers=400,
        seed=7,
        paths=("analyze", "simulate"),
        batch_size=batch_size,
    )
    (run,) = plan_runs(experiment)
    rows = run_variant(run)
    analytic, simulated = rows
    assert (run.rounds, run.rng_mode, run.batch_size) == (
        simulated.rounds, simulated.rng_mode, simulated.batch_size
    )
    expected = run.expected_rows()
    assert list(expected) == [row.row_key() for row in rows]
    for row, fields in zip(rows, expected.values()):
        assert {name: getattr(row, name) for name in fields} == fields
    predicted = predicted_run_keys(run, TaskNameMemo())
    assert predicted == [row_cache_key(result_row_to_dict(row)) for row in rows]
    assert run_cost([run]) == 400 * simulated.rounds

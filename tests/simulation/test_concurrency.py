"""Concurrent simulate calls equal serial ones, bit for bit.

The service's threading server and its job worker call the engine at the
same time, and its first-write-wins cache keeps whatever they compute.
So the engine must give every call its own draw memory: threads running
distinct seeds, on their own simulators or on one shared simulator, must
each reproduce the serial tallies and funnels exactly.
"""

import concurrent.futures
import copy
import dataclasses
import json
import threading
import warnings

import pytest

from repro.systems import get_scenario

SEEDS = range(300, 316)
THREADS = 4
N = 20_000
ROUNDS = 2
BATCH_SIZE = 5_000


def canonical(result):
    return json.dumps(
        {
            "tally": dataclasses.asdict(result.tally),
            "round_tallies": [dataclasses.asdict(t) for t in result.round_tallies],
            "funnel": result.funnel.to_dict(),
            "round_funnels": [f.to_dict() for f in result.round_funnels],
        },
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def scenario():
    return get_scenario("antiphishing")


@pytest.fixture(scope="module")
def serial(scenario):
    simulator = scenario.simulator(batch_size=BATCH_SIZE)
    task, population = scenario.task(), scenario.population()
    return {
        seed: canonical(
            simulator.simulate_task(
                task, population, n_receivers=N, seed=seed, rounds=ROUNDS
            )
        )
        for seed in SEEDS
    }


def _threaded(scenario, simulator_for):
    task, population = scenario.task(), scenario.population()

    def run(seed):
        return canonical(
            simulator_for().simulate_task(
                task, population, n_receivers=N, seed=seed, rounds=ROUNDS
            )
        )

    with warnings.catch_warnings():
        # Clobbered draw memory shows up as log/sqrt of garbage first.
        warnings.simplefilter("error", RuntimeWarning)
        with concurrent.futures.ThreadPoolExecutor(THREADS) as pool:
            return dict(zip(SEEDS, pool.map(run, SEEDS)))


def test_one_simulator_per_thread_equals_serial(scenario, serial):
    local = threading.local()

    def simulator_for():
        if not hasattr(local, "simulator"):
            local.simulator = scenario.simulator(batch_size=BATCH_SIZE)
        return local.simulator

    threaded = _threaded(scenario, simulator_for)
    wrong = [seed for seed in SEEDS if threaded[seed] != serial[seed]]
    assert wrong == []


def test_one_shared_simulator_equals_serial(scenario, serial):
    shared = scenario.simulator(batch_size=BATCH_SIZE)
    threaded = _threaded(scenario, lambda: shared)
    wrong = [seed for seed in SEEDS if threaded[seed] != serial[seed]]
    assert wrong == []


def test_one_bound_variant_serves_every_thread():
    """A bound variant keeps the components it built and shares them.

    Two serial ``simulate`` calls and four threads at once, all on one
    variant, must equal freshly bound variants seed for seed, and the
    shared components must come out exactly as they went in.
    """
    scenario = get_scenario("antiphishing")
    params = {"activeness": 0.5, "training_fraction": 0.3, "rounds": ROUNDS}
    shared = scenario.bind(**params)
    built = shared.components()
    before = copy.deepcopy(built)

    def run(variant, seed):
        return canonical(variant.simulate(N, seed=seed, batch_size=BATCH_SIZE))

    fresh = {seed: run(scenario.bind(**params), seed) for seed in SEEDS}
    assert [run(shared, SEEDS[0]), run(shared, SEEDS[1])] == [
        fresh[SEEDS[0]],
        fresh[SEEDS[1]],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with concurrent.futures.ThreadPoolExecutor(THREADS) as pool:
            threaded = dict(zip(SEEDS, pool.map(lambda seed: run(shared, seed), SEEDS)))
    wrong = [seed for seed in SEEDS if threaded[seed] != fresh[seed]]
    assert wrong == []
    assert shared.components() is built
    assert built == before

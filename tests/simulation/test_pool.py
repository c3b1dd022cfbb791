"""The shared local process pool and the engine's automatic fan-out.

Chunks are pure functions of ``(seed, chunk index)``, so wherever the
pool runs them the merged result must equal the serial fold bit for
bit: at any group count, in both rng modes, single- and multi-round,
from concurrent threads, and across a worker killed mid-call.  The
automatic rule fans out only large multi-round batch runs, and never
from inside a multiprocessing child (pool or cluster worker), where
``run_groups`` itself runs its groups in place.
"""

import concurrent.futures
import os
import signal
import sys
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cluster import LocalProcessFleet, ShardScheduler
from repro.experiments import (
    WALL_CLOCK_METRICS,
    Experiment,
    ProcessBackend,
    SerialBackend,
    SweepSpec,
)
from repro.simulation import engine as engine_module
from repro.simulation import pool as pool_module
from repro.simulation.engine import (
    FAN_OUT_MIN_RECEIVER_ROUNDS,
    RNG_MODES,
    HumanLoopSimulator,
    SimulationConfig,
)
from repro.simulation.metrics import ENGINE_PHASES
from repro.simulation.population import general_web_population
from repro.systems import get_scenario

SEED = 20261019


@pytest.fixture(scope="module")
def population():
    return general_web_population()


@pytest.fixture(scope="module")
def antiphishing():
    scenario = get_scenario("antiphishing")
    return scenario, scenario.task("heed-ie_passive-warning"), scenario.population()


def _expected_workers(chunks: int) -> int:
    return min(chunks, pool_module.usable_cpus()) if pool_module.can_fan_out() else 1


def _with_groups(monkeypatch, groups, call):
    """``call()`` with the automatic rule pinned to ``groups`` (1: serial).

    The pool starts first: workers forked while the rule is patched
    would keep the patched rule for good.
    """
    pool_module.run_groups(list, [None], 1)
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "_fan_out", lambda config, chunks: groups)
        return call()


def _serially(monkeypatch, call):
    return _with_groups(monkeypatch, 1, call)


# Pool tasks: module-level so they pickle by reference into the workers.


def _fan_out_in_worker(chunk_counts):
    config = SimulationConfig(n_receivers=100_000, rounds=10)
    return [engine_module._fan_out(config, chunks) for chunks in chunk_counts]


def _squares(items):
    return [item * item for item in items]


def _nested_run_groups(batches):
    """A pool task that itself calls run_groups, once per batch."""
    return [pool_module.run_groups(_squares, batch, 2) for batch in batches]


def _die_once(items):
    """Kill this worker the first time any task runs; simulate afterwards."""
    marker = items[0][0]
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return engine_module._simulate_group([spec for _, spec in items])
    os.kill(os.getpid(), signal.SIGKILL)


def _die_always(items):
    os.kill(os.getpid(), signal.SIGKILL)


class TestContiguousGroups:
    def test_groups_are_contiguous_and_balanced(self):
        items = list(range(7))
        for groups in range(1, 10):
            split = pool_module.contiguous_groups(items, groups)
            assert [item for part in split for item in part] == items
            assert len(split) == min(groups, len(items))
            sizes = [len(part) for part in split]
            assert max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)

    def test_worker_count_is_capped_by_groups_and_cpus(self):
        results, workers = pool_module.run_groups(_fan_out_in_worker, [2, 3], 2)
        assert workers == min(2, pool_module.usable_cpus())
        assert results == [1, 1]


class TestGroupsEqualSerialFold:
    """Serial fold == pool fan-out at group counts 1-4, 2-7 chunks."""

    @pytest.mark.parametrize("rounds", (1, 10))
    @pytest.mark.parametrize("rng_mode", RNG_MODES)
    def test_partials_at_every_group_count(
        self, warning_task, population, rng_mode, rounds
    ):
        simulator = HumanLoopSimulator(SimulationConfig())
        plan = simulator._plan_for(warning_task)
        for chunks in range(2, 8):
            config = SimulationConfig(
                n_receivers=100 * chunks - 37, seed=SEED + chunks, batch_size=100,
                rng_mode=rng_mode, rounds=rounds, recovery_rate=0.2,
                dismiss_weight=2.0,
            )
            specs = engine_module._chunk_specs(plan, population, config)
            assert len(specs) == chunks
            serial = [engine_module._simulate_chunk(spec) for spec in specs]
            for groups in range(1, 5):
                fanned, workers = pool_module.run_groups(
                    engine_module._simulate_group, specs, groups
                )
                assert fanned == serial, (chunks, groups)
                assert workers == min(groups, chunks, pool_module.usable_cpus())

    @pytest.mark.parametrize("rounds", (1, 10))
    @pytest.mark.parametrize("rng_mode", RNG_MODES)
    def test_results_with_records_at_forced_group_counts(
        self, warning_task, population, rng_mode, rounds, monkeypatch
    ):
        simulator = HumanLoopSimulator(SimulationConfig(batch_size=100, rng_mode=rng_mode))
        for chunks in (2, 7):
            def run():
                return simulator.simulate_task(
                    warning_task, population, n_receivers=100 * chunks - 37,
                    seed=SEED, rounds=rounds, recovery_rate=0.2,
                )

            serial = _serially(monkeypatch, run)
            for groups in range(2, 5):
                fanned = _with_groups(monkeypatch, groups, run)
                assert fanned.tally == serial.tally
                assert fanned.round_tallies == serial.round_tallies
                assert fanned.funnel == serial.funnel
                assert fanned.round_funnels == serial.round_funnels
                assert list(fanned.records) == list(serial.records)
                assert fanned.chunk_workers == min(
                    groups, chunks, pool_module.usable_cpus()
                )


class TestAutomaticRule:
    def test_rule_conditions(self):
        fan = engine_module._fan_out
        big = SimulationConfig(n_receivers=100_000, rounds=10)
        assert fan(big, 4) == _expected_workers(4)
        assert fan(big, 1) == 1
        assert fan(SimulationConfig(n_receivers=100_000, rounds=1), 4) == 1
        assert fan(SimulationConfig(n_receivers=100_000, rounds=10, mode="reference"), 4) == 1
        at = SimulationConfig(n_receivers=FAN_OUT_MIN_RECEIVER_ROUNDS // 2, rounds=2)
        below = SimulationConfig(n_receivers=FAN_OUT_MIN_RECEIVER_ROUNDS // 2 - 1, rounds=2)
        assert fan(at, 2) == _expected_workers(2)
        assert fan(below, 2) == 1

    def test_pool_workers_never_nest(self):
        results, _ = pool_module.run_groups(_fan_out_in_worker, [2, 4, 8], 3)
        assert results == [1, 1, 1]

    def test_run_groups_inside_a_pool_task_runs_serially(self):
        # A forked worker holds a dead copy of the parent's executor; a
        # submit into it would never return, so the call runs in place.
        outcome = []
        caller = threading.Thread(
            target=lambda: outcome.append(
                pool_module.run_groups(_nested_run_groups, [[1, 2, 3], [4, 5]], 2)
            ),
            daemon=True,
        )
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "run_groups inside a pool task hung"
        (results, _), = outcome
        assert results == [([1, 4, 9], 1), ([16, 25], 1)]

    def test_small_and_single_round_runs_stay_serial(self, antiphishing):
        scenario, task, population = antiphishing
        simulator = scenario.simulator()
        single = simulator.simulate_task(task, population, n_receivers=100_000, seed=1)
        assert (single.chunks, single.chunk_workers) == (4, 1)
        below = scenario.simulator(batch_size=2_500).simulate_task(
            task, population, n_receivers=10_000, seed=1, rounds=4
        )
        assert below.receiver_rounds < FAN_OUT_MIN_RECEIVER_ROUNDS
        assert (below.chunks, below.chunk_workers) == (4, 1)

    def test_large_multi_round_run_fans_out(self, antiphishing, monkeypatch):
        scenario, task, population = antiphishing
        simulator = scenario.simulator()

        def run():
            return simulator.simulate_task(
                task, population, n_receivers=100_000, seed=3, rounds=10,
                recovery_rate=0.1,
            )

        serial = _serially(monkeypatch, run)
        fanned = run()
        assert fanned.chunks == 4
        assert serial.chunk_workers == 1
        assert fanned.chunk_workers == _expected_workers(4)
        assert fanned.tally == serial.tally
        assert fanned.round_tallies == serial.round_tallies
        assert fanned.round_funnels == serial.round_funnels
        for result in (serial, fanned):
            assert set(result.phase_seconds) == set(ENGINE_PHASES)
            assert all(seconds > 0.0 for seconds in result.phase_seconds.values())


def _eligible_experiment(name="fan-out") -> Experiment:
    # Two variants of 30k receivers x 2-3 rounds in 10k chunks: each is
    # large enough to fan out when it runs in the parent process.
    sweep = SweepSpec(scenario="passwords", grid={"rounds": [2, 3]})
    return Experiment.from_sweep(
        name, sweep, n_receivers=30_000, seed=SEED, task="recall-passwords",
        batch_size=10_000,
    )


class TestNoNesting:
    @pytest.fixture(scope="class")
    def serial(self):
        return _eligible_experiment().run(backend=SerialBackend())

    def test_serial_backend_fans_chunks_out(self, serial):
        assert [row.chunk_workers for row in serial] == [_expected_workers(3)] * 2

    def test_process_backend_variants_run_their_chunks_serially(self, serial):
        parallel = _eligible_experiment().run(backend=ProcessBackend())
        assert parallel.canonical_dict() == serial.canonical_dict()
        assert [row.chunk_workers for row in parallel] == [1, 1]

    def test_cluster_fleet_workers_run_their_chunks_serially(self, serial, tmp_path):
        scheduler = ShardScheduler(
            _eligible_experiment(),
            checkpoint_dir=str(tmp_path),
            shard_count=2,
            transport=LocalProcessFleet(max_workers=2),
            heartbeat_timeout=60.0,
            poll_interval=0.02,
        )
        merged = scheduler.run()
        assert merged.canonical_dict() == serial.canonical_dict()
        assert [row.chunk_workers for row in merged] == [1, 1]


class TestConcurrentCallers:
    def test_threads_during_a_process_backend_sweep_equal_serial(
        self, antiphishing, monkeypatch
    ):
        scenario, task, population = antiphishing
        seeds = range(40, 48)

        def run(seed):
            return scenario.simulator(batch_size=20_000).simulate_task(
                task, population, n_receivers=60_000, seed=seed, rounds=2
            )

        serial_runs = _serially(monkeypatch, lambda: {seed: run(seed) for seed in seeds})
        serial_sweep = _eligible_experiment().run(backend=SerialBackend())
        with concurrent.futures.ThreadPoolExecutor(5) as threads:
            sweep = threads.submit(_eligible_experiment().run, ProcessBackend())
            runs = dict(zip(seeds, threads.map(run, seeds)))
            swept = sweep.result(timeout=300)
        assert swept.canonical_dict() == serial_sweep.canonical_dict()
        for seed in seeds:
            assert runs[seed].tally == serial_runs[seed].tally
            assert runs[seed].round_funnels == serial_runs[seed].round_funnels
            assert runs[seed].chunk_workers == _expected_workers(3)


class TestPoolStress:
    def test_threads_share_one_pool_through_a_break(self, warning_task, population, tmp_path):
        """8 threads (more than the cores) at a short switch interval, one
        of them killing a worker once: every call still returns its own
        serial fold."""
        plan = HumanLoopSimulator(SimulationConfig())._plan_for(warning_task)
        specs = {
            seed: engine_module._chunk_specs(
                plan, population,
                SimulationConfig(n_receivers=300, seed=seed, batch_size=100, rounds=2),
            )
            for seed in range(8)
        }
        serial = {
            seed: [engine_module._simulate_chunk(spec) for spec in chunk_specs]
            for seed, chunk_specs in specs.items()
        }
        marker = str(tmp_path / "killed")
        results = {}
        errors = []

        def caller(seed):
            try:
                for _ in range(3):
                    if seed == 0:
                        items = [(marker, spec) for spec in specs[seed]]
                        fanned, _ = pool_module.run_groups(_die_once, items, 2)
                    else:
                        fanned, _ = pool_module.run_groups(
                            engine_module._simulate_group, specs[seed], 2
                        )
                    assert fanned == serial[seed]
                results[seed] = True
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(seed,)) for seed in specs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert sorted(results) == list(specs)
        assert os.path.exists(marker)


class TestBrokenWorker:
    @pytest.fixture
    def specs(self, warning_task, population):
        plan = HumanLoopSimulator(SimulationConfig())._plan_for(warning_task)
        config = SimulationConfig(
            n_receivers=550, seed=SEED, batch_size=100, rounds=3, recovery_rate=0.1
        )
        return engine_module._chunk_specs(plan, population, config)

    def test_worker_killed_mid_call_is_retried_once(self, specs, tmp_path):
        marker = str(tmp_path / "killed")
        serial = [engine_module._simulate_chunk(spec) for spec in specs]
        fanned, _ = pool_module.run_groups(
            _die_once, [(marker, spec) for spec in specs], 2
        )
        assert os.path.exists(marker)
        assert fanned == serial

    def test_second_break_propagates_and_the_pool_recovers(self, specs):
        with pytest.raises(BrokenProcessPool):
            pool_module.run_groups(_die_always, [(None, spec) for spec in specs], 2)
        serial = [engine_module._simulate_chunk(spec) for spec in specs]
        fanned, _ = pool_module.run_groups(engine_module._simulate_group, specs, 2)
        assert fanned == serial


class TestPhaseTimes:
    def test_laps_charge_each_phase(self, warning_task, population):
        ticks = iter(range(10_000))
        plan = HumanLoopSimulator(SimulationConfig())._plan_for(warning_task)
        config = SimulationConfig(n_receivers=50, rounds=3)
        (spec,) = engine_module._chunk_specs(plan, population, config)
        partial = engine_module._simulate_chunk(spec, clock=lambda: float(next(ticks)))
        # One tick per lap: traits once, the habituation/pipeline set-up
        # once each, then per round: encounter (rounds 1-2), pipeline,
        # metrics and habituation (rounds 0-1).
        assert partial.phase_seconds == {
            "simulation.traits": 1.0,
            "simulation.encounter": 2.0,
            "core.pipeline": 4.0,
            "simulation.metrics": 3.0,
            "simulation.habituation": 3.0,
        }

    def test_rows_carry_phases_outside_identity(self):
        experiment = Experiment.from_sweep(
            "phases", SweepSpec(scenario="passwords", grid={"rounds": [1, 2]}),
            n_receivers=200, seed=SEED, task="recall-passwords",
        )
        results = experiment.run()
        names = [f"perf:phase:{phase}_s" for phase in ENGINE_PHASES]
        assert set(names) <= set(WALL_CLOCK_METRICS)
        for row in results:
            assert all(row.metrics[name] >= 0.0 for name in names)
        for row in results.canonical_dict()["rows"]:
            assert not set(names) & set(row["metrics"])
            assert "chunk_workers" not in row

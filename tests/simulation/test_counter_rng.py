"""Counter-based decision streams and in-call chunk parallelism (PR 6).

The ``CounterDraws`` source must make every draw O(1)-addressable: any
single receiver×round decision recomputed from its ``(seed, chunk,
round, stream, receiver)`` coordinates alone must equal the value the
bulk batch draw produced, bit for bit.  On top of that sit the engine
contracts: counter-mode batch == counter-mode reference per round, and
chunks fanned out over the process pool bit-identical to the serial
fold for any group count.
"""

import concurrent.futures
import pickle

import numpy as np
import pytest

from repro.core.exceptions import SimulationError
from repro.simulation import batch as batch_module
from repro.simulation import engine as engine_module
from repro.simulation import pool as pool_module
from repro.simulation.engine import (
    RNG_MODES,
    HumanLoopSimulator,
    SimulationConfig,
)
from repro.simulation.metrics import ENGINE_PHASES, SimulationResult
from repro.simulation.population import general_web_population
from repro.simulation.rng import (
    AGE_STREAMS,
    DECISION_STREAM_BASE,
    NOISE_STREAMS,
    SPOOF_STREAM,
    TRAINED_STREAM,
    CounterDraws,
    DrawBuffers,
    trait_streams,
)

SEED = 20080124
N = 1_200


@pytest.fixture
def population():
    return general_web_population()


@pytest.fixture
def plan(warning_task):
    return HumanLoopSimulator(SimulationConfig())._plan_for(warning_task)


def _spy_chunk_calls(monkeypatch):
    """Record the ``(buffers, records)`` arguments of every chunk run."""
    calls = []
    real = engine_module._simulate_chunk

    def spy(spec, buffers=None, records=None):
        calls.append((buffers, records))
        return real(spec, buffers, records)

    monkeypatch.setattr(engine_module, "_simulate_chunk", spy)
    return calls


def _simulator(**overrides) -> HumanLoopSimulator:
    overrides.setdefault("seed", SEED)
    overrides.setdefault("batch_size", 400)
    return HumanLoopSimulator(SimulationConfig(**overrides))


class TestPointAddressing:
    """Bulk draws vs O(1) single-element recomputation."""

    def test_uniform_at_matches_bulk(self):
        draws = CounterDraws(SEED, chunk=3, round_index=2)
        for stream in (0, SPOOF_STREAM, DECISION_STREAM_BASE + 5):
            bulk = draws.uniforms(stream, 1_000)
            for index in (0, 1, 2, 3, 4, 5, 57, 511, 999):
                assert draws.uniform_at(stream, index) == bulk[index]

    def test_clipped_normal_at_matches_bulk(self):
        draws = CounterDraws(SEED, chunk=1)
        bulk = draws.clipped_normals(NOISE_STREAMS, 0.0, 0.1, -0.2, 0.2, 1_000)
        # Indices straddle the dual-output layout boundary (cos block
        # [0, 500), sin block [500, 1000)).
        for index in (0, 3, 4, 250, 499, 500, 501, 999):
            assert (
                draws.clipped_normal_at(NOISE_STREAMS, 0.0, 0.1, -0.2, 0.2, index, 1_000)
                == bulk[index]
            )

    def test_zero_std_normals_are_constant(self):
        draws = CounterDraws(SEED)
        values = draws.clipped_normals(NOISE_STREAMS, 0.4, 0.0, 0.0, 1.0, 10)
        assert np.all(values == 0.4)
        assert draws.clipped_normal_at(NOISE_STREAMS, 0.4, 0.0, 0.0, 1.0, 7, 10) == 0.4

    def test_streams_are_distinct(self):
        draws = CounterDraws(SEED)
        streams = [trait_streams(0)[0], AGE_STREAMS[0], TRAINED_STREAM,
                   SPOOF_STREAM, DECISION_STREAM_BASE]
        values = [draws.uniforms(stream, 4).tolist() for stream in streams]
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                assert values[i] != values[j]

    def test_chunk_and_round_rekey_the_streams(self):
        base = CounterDraws(SEED).uniforms(DECISION_STREAM_BASE, 4).tolist()
        other_chunk = CounterDraws(SEED, chunk=1).uniforms(DECISION_STREAM_BASE, 4)
        other_round = CounterDraws(SEED).for_round(1).uniforms(DECISION_STREAM_BASE, 4)
        assert other_chunk.tolist() != base
        assert other_round.tolist() != base
        # for_round preserves seed/chunk identity.
        again = CounterDraws(SEED, round_index=1).uniforms(DECISION_STREAM_BASE, 4)
        assert other_round.tolist() == again.tolist()

    def test_coordinate_validation(self):
        with pytest.raises(SimulationError):
            CounterDraws(-1)
        with pytest.raises(SimulationError):
            CounterDraws(SEED, chunk=2**24)
        with pytest.raises(SimulationError):
            CounterDraws(SEED, round_index=2**20)
        with pytest.raises(SimulationError):
            CounterDraws(SEED).uniforms(2**20, 4)


class TestSingleDecisionRecompute:
    """Any receiver×round decision reproduced from coordinates alone."""

    def test_decision_matrix_cells_recompute(self, plan, population):
        cell = CounterDraws(SEED, chunk=2)
        draws = batch_module.draw_batch_counter(plan, population, 300, cell)
        columns = draws.decisions.shape[1]
        for row in (0, 1, 7, 113, 299):
            for column in range(columns):
                assert (
                    cell.uniform_at(DECISION_STREAM_BASE + column, row)
                    == draws.decisions[row, column]
                )

    def test_spoof_and_noise_recompute(self, plan, population):
        cell = CounterDraws(SEED, chunk=0)
        draws = batch_module.draw_batch_counter(plan, population, 200, cell)
        for row in (0, 5, 42, 199):
            assert cell.uniform_at(SPOOF_STREAM, row) == draws.spoof_uniforms[row]
            assert (
                cell.clipped_normal_at(
                    NOISE_STREAMS, 0.0, plan.user_noise_std, -0.2, 0.2, row, 200
                )
                == draws.noise[row]
            )

    def test_later_round_decisions_recompute(self, plan, population):
        cell = CounterDraws(SEED, chunk=1)
        draws = batch_module.draw_batch_counter(plan, population, 150, cell)
        round_cell = cell.for_round(3)
        redrawn = batch_module.redraw_decisions_counter(plan, draws.samples, round_cell)
        # Traits persist across rounds; encounter randomness is re-keyed.
        assert redrawn.samples is draws.samples
        for row in (0, 9, 149):
            assert (
                round_cell.uniform_at(DECISION_STREAM_BASE, row)
                == redrawn.decisions[row, 0]
            )
        assert redrawn.decisions[0, 0] != draws.decisions[0, 0]

    def test_trait_draws_recompute(self, population):
        cell = CounterDraws(SEED, chunk=4)
        samples = population.sample_traits(100, cell)
        trained = cell.uniforms(TRAINED_STREAM, 100) < population.training_fraction
        assert np.array_equal(samples.trained, trained)
        # Chunk identity alone determines the traits.
        again = population.sample_traits(100, CounterDraws(SEED, chunk=4))
        for name, values in samples.traits.items():
            assert np.array_equal(values, again.traits[name])
        assert np.array_equal(samples.ages, again.ages)


class TestCounterModeEngine:
    """Engine-level equivalence contracts in counter mode."""

    def test_batch_matches_reference_per_round(self, warning_task, population):
        simulator = _simulator(rng_mode="counter")
        batch = simulator.simulate_task(
            warning_task, population, n_receivers=N, rounds=3, recovery_rate=0.4
        )
        reference = simulator.simulate_task(
            warning_task, population, n_receivers=N, rounds=3, recovery_rate=0.4,
            mode="reference",
        )
        assert batch.tally.summary() == reference.tally.summary()
        for batch_round, reference_round in zip(
            batch.round_tallies, reference.round_tallies
        ):
            assert batch_round.summary() == reference_round.summary()
        assert batch.funnel.entered == reference.funnel.entered
        assert batch.funnel.passed == reference.funnel.passed
        assert list(batch.records) == list(reference.records)

    def test_counter_and_matrix_modes_draw_different_streams(
        self, warning_task, population
    ):
        matrix = _simulator(rng_mode="matrix").simulate_task(
            warning_task, population, n_receivers=N
        )
        counter = _simulator(rng_mode="counter").simulate_task(
            warning_task, population, n_receivers=N
        )
        assert matrix.rng_mode == "matrix"
        assert counter.rng_mode == "counter"
        # Same seed, different sources: outcomes must not be identical.
        assert matrix.tally.summary() != counter.tally.summary()

    def test_rng_mode_validated(self, warning_task, population):
        assert RNG_MODES == ("matrix", "counter")
        with pytest.raises(SimulationError):
            SimulationConfig(rng_mode="quantum")
        with pytest.raises(SimulationError):
            _simulator().simulate_task(
                warning_task, population, n_receivers=10, rng_mode="quantum"
            )

    def test_counter_mode_independent_of_batch_size_chunking(self, warning_task, population):
        # Matrix mode ties draws to chunk geometry; counter mode does too
        # (chunk is a stream coordinate) — pin that contract explicitly.
        small = _simulator(rng_mode="counter", batch_size=200).simulate_task(
            warning_task, population, n_receivers=600
        )
        whole = _simulator(rng_mode="counter", batch_size=600).simulate_task(
            warning_task, population, n_receivers=600
        )
        assert small.chunks == 3
        assert whole.chunks == 1
        assert small.tally.summary() != whole.tally.summary()


def _force_groups(monkeypatch, rule):
    """Fan every call's chunks into ``rule(config)`` pool groups (1: serial).

    The pool starts first: workers forked while the rule is patched
    would keep the patched rule for good.
    """
    pool_module.run_groups(list, [None], 1)
    monkeypatch.setattr(engine_module, "_fan_out", lambda config, chunks: rule(config))


class TestChunkWorkerDeterminism:
    """Pool fan-out: partial merges bit-identical to the serial fold."""

    @pytest.mark.parametrize("rng_mode", RNG_MODES)
    def test_worker_counts_are_bit_identical(
        self, warning_task, population, rng_mode, monkeypatch
    ):
        simulator = _simulator(rng_mode=rng_mode)
        serial = simulator.simulate_task(
            warning_task, population, n_receivers=2_000, rounds=2, recovery_rate=0.3
        )
        assert serial.chunk_workers == 1
        for groups in (1, 2, 4):
            _force_groups(monkeypatch, lambda config: groups)
            parallel = simulator.simulate_task(
                warning_task, population, n_receivers=2_000, rounds=2,
                recovery_rate=0.3,
            )
            assert parallel.tally.summary() == serial.tally.summary()
            assert [tally.summary() for tally in parallel.round_tallies] == [
                tally.summary() for tally in serial.round_tallies
            ]
            assert parallel.funnel.entered == serial.funnel.entered
            assert parallel.funnel.passed == serial.funnel.passed
            assert list(parallel.records) == list(serial.records)
            assert parallel.chunk_workers == min(groups, pool_module.usable_cpus())
            assert parallel.chunks == serial.chunks == 5

    def test_threads_at_different_worker_counts_equal_serial(
        self, warning_task, population, monkeypatch
    ):
        # Calls fanning out at different group counts share one pool and
        # must not disturb each other.
        serial = {
            seed: _simulator(seed=seed).simulate_task(
                warning_task, population, n_receivers=2_000, rounds=2
            )
            for seed in (0, 1)
        }
        _force_groups(monkeypatch, lambda config: 2 + config.seed)

        def run(seed):
            return seed, _simulator(seed=seed).simulate_task(
                warning_task, population, n_receivers=2_000, rounds=2
            )

        with concurrent.futures.ThreadPoolExecutor(4) as threads:
            results = list(threads.map(run, (0, 1) * 6))
        for seed, result in results:
            assert result.tally == serial[seed].tally
            assert result.funnel.entered == serial[seed].funnel.entered

    def test_chunk_workers_validated(self):
        # A telemetry field on the result now, not a configuration knob.
        with pytest.raises(SimulationError):
            SimulationResult(task_name="t", population_name="p", chunk_workers=0)
        with pytest.raises(TypeError):
            SimulationConfig(chunk_workers=2)

    def test_perf_provenance_recorded(self, warning_task, population):
        result = _simulator().simulate_task(warning_task, population, n_receivers=900)
        assert result.chunks == 3
        assert result.elapsed_seconds > 0.0
        assert result.throughput() == result.receiver_rounds / result.elapsed_seconds


class TestLazyRecords:
    """Records regenerate from chunk coordinates on first read, once."""

    def _result(self, warning_task, population, **kwargs):
        return _simulator().simulate_task(
            warning_task, population, n_receivers=300, **kwargs
        )

    def test_engine_returns_lazy_records_for_batch_mode(
        self, warning_task, population, monkeypatch
    ):
        calls = _spy_chunk_calls(monkeypatch)
        result = self._result(warning_task, population)

        def building():
            return [records is not None for _, records in calls]

        # The run itself builds no records; its length needs no re-run.
        assert building() == [False]
        assert len(result.records) == 300
        assert building() == [False]
        first = result.records[0]
        assert building() == [False, True]
        # Later reads are served from the regenerated list.
        assert result.records[0] is first
        assert len(list(result.records)) == 300
        assert building() == [False, True]

    def test_lazy_equals_eager(self, warning_task, population):
        for mode in ("batch", "reference"):
            for rng_mode in RNG_MODES:
                simulator = _simulator(rng_mode=rng_mode)
                result = simulator.simulate_task(
                    warning_task, population, n_receivers=600, rounds=2, mode=mode
                )
                # The eager build: each chunk run with record building on.
                eager = []
                plan = simulator._plan_for(warning_task)
                for index, offset in enumerate(range(0, 600, 400)):
                    spec = engine_module._ChunkSpec(
                        plan=plan, population=population,
                        config=SimulationConfig(
                            n_receivers=600, seed=SEED, batch_size=400,
                            mode=mode, rng_mode=rng_mode, rounds=2,
                            recovery_rate=0.0, dismiss_weight=1.0,
                            heed_weight=1.0, trace=True,
                        ),
                        chunk_index=index, offset=offset,
                        size=min(400, 600 - offset),
                    )
                    engine_module._simulate_chunk(spec, records=eager)
                assert len(eager) == 1_200
                assert result.records == eager
                assert eager == result.records
                assert list(result.records) == eager

    def test_pickle_produces_plain_list(self, warning_task, population):
        records = self._result(warning_task, population).records
        revived = pickle.loads(pickle.dumps(records))
        assert type(revived) is list
        assert revived == list(records)

    def test_records_beyond_limit_are_never_regenerated(
        self, warning_task, population, monkeypatch
    ):
        calls = _spy_chunk_calls(monkeypatch)
        result = self._result(warning_task, population, rounds=2)
        dropped = _simulator(record_limit=100).simulate_task(
            warning_task, population, n_receivers=300
        )
        assert dropped.records == []
        assert len(result.records) == 600
        assert all(records is None for _, records in calls)


class TestGeneratorCaching:
    """One bit generator per cell; the state-template cache is bit-exact."""

    def test_bit_generator_constructed_once_per_cell(self):
        draws = CounterDraws(SEED, chunk=1, round_index=0)
        assert draws.bit_generator_constructions == 0
        draws.uniforms(0, 500)
        out = np.empty(300)
        draws.fill_uniforms(SPOOF_STREAM, out)
        for index in (0, 7, 299):
            draws.uniform_at(DECISION_STREAM_BASE, index)
        draws.clipped_normals(NOISE_STREAMS, 0.0, 0.1, -0.2, 0.2, 250)
        draws.clipped_normal_at(NOISE_STREAMS, 0.0, 0.1, -0.2, 0.2, 13, 250)
        # Every stream, fill, and point query above shared ONE generator.
        assert draws.bit_generator_constructions == 1

    def test_sibling_cells_do_not_share_constructions(self):
        base = CounterDraws(SEED, chunk=0, round_index=0)
        base.uniforms(0, 10)
        successor = base.for_round(1)
        successor.uniforms(0, 10)
        assert base.bit_generator_constructions == 1
        assert successor.bit_generator_constructions == 1

    def test_cached_cell_equals_fresh_cell(self):
        """State-template reuse must be invisible: a long-lived cell that
        has served many interleaved queries answers every query exactly
        like a brand-new cell constructed for that one query."""
        warm = CounterDraws(SEED, chunk=2, round_index=1)
        streams = (0, SPOOF_STREAM, TRAINED_STREAM, DECISION_STREAM_BASE + 3)
        # Warm the cache with interleaved bulk and point traffic.
        for stream in streams:
            warm.uniforms(stream, 400)
            warm.uniform_at(stream, 57)
        warm.clipped_normals(NOISE_STREAMS, 0.0, 0.1, -0.2, 0.2, 200)
        for stream in streams:
            fresh_bulk = CounterDraws(SEED, chunk=2, round_index=1)
            np.testing.assert_array_equal(
                warm.uniforms(stream, 400), fresh_bulk.uniforms(stream, 400)
            )
            for index in (0, 1, 123, 399):
                fresh_point = CounterDraws(SEED, chunk=2, round_index=1)
                assert warm.uniform_at(stream, index) == fresh_point.uniform_at(
                    stream, index
                )
        fresh_normals = CounterDraws(SEED, chunk=2, round_index=1)
        np.testing.assert_array_equal(
            warm.clipped_normals(NOISE_STREAMS, 0.0, 0.1, -0.2, 0.2, 200),
            fresh_normals.clipped_normals(NOISE_STREAMS, 0.0, 0.1, -0.2, 0.2, 200),
        )


class TestDefaultRngMode:
    """PR 9 flips the engine default to the counter source."""

    def test_config_defaults_to_counter(self):
        assert SimulationConfig().rng_mode == "counter"

    def test_matrix_mode_still_selectable(self, warning_task, population):
        result = _simulator(rng_mode="matrix").simulate_task(
            warning_task, population, n_receivers=200
        )
        assert result.rng_mode == "matrix"


class TestZeroCopyDispatch:
    """Pool workers ship integer tallies and phase times only, in both rng modes."""

    def _run_spied(self, rng_mode, warning_task, population, monkeypatch):
        _force_groups(monkeypatch, lambda config: 2)
        shipped = []
        real = pool_module.run_groups

        def spy(fn, items, groups):
            partials, workers = real(fn, items, groups)
            shipped.extend(partials)
            return partials, workers

        monkeypatch.setattr(pool_module, "run_groups", spy)
        result = _simulator(rng_mode=rng_mode).simulate_task(
            warning_task, population, n_receivers=1_200
        )
        assert len(shipped) == 3
        for partial in shipped:
            assert set(vars(partial)) == {
                "round_tallies", "round_funnels", "phase_seconds"
            }
            assert set(partial.phase_seconds) == set(ENGINE_PHASES)
            assert all(isinstance(s, float) for s in partial.phase_seconds.values())
        serial = _simulator(rng_mode=rng_mode).simulate_task(
            warning_task, population, n_receivers=1_200
        )
        # Records regenerate at home from the same coordinates.
        assert list(result.records) == list(serial.records)

    def test_workers_receive_no_record_buffers(
        self, warning_task, population, monkeypatch
    ):
        self._run_spied("counter", warning_task, population, monkeypatch)

    def test_matrix_mode_parallel_ships_no_records(
        self, warning_task, population, monkeypatch
    ):
        # Matrix chunks draw from a stream keyed by (seed, chunk) too, so
        # records regenerate at home just like counter-mode ones.
        self._run_spied("matrix", warning_task, population, monkeypatch)


class TestBufferReuse:
    """Draw buffers belong to the simulator: same values, recycled memory."""

    def _block(self, buffers=None):
        return CounterDraws(SEED, chunk=1).clipped_normal_block(
            [trait_streams(0), trait_streams(1)],
            [0.4, 0.6], [0.1, 0.2], [0.0, 0.0], [1.0, 1.0], 501,
            buffers=buffers,
        )

    def test_reused_block_shares_memory_and_values(self):
        fresh = self._block()
        buffers = DrawBuffers()
        first = self._block(buffers)
        np.testing.assert_array_equal(first, fresh)
        first_base = first.base
        second = self._block(buffers)
        assert second.base is first_base
        np.testing.assert_array_equal(second, fresh)

    def test_fresh_blocks_stay_distinct_by_default(self):
        cell = CounterDraws(SEED, chunk=1)
        first = cell.clipped_normals(NOISE_STREAMS, 0.0, 0.1, -0.2, 0.2, 400)
        second = cell.clipped_normals(NOISE_STREAMS, 0.0, 0.1, -0.2, 0.2, 400)
        assert first.base is not second.base

    def test_record_dropping_runs_stay_deterministic(self, warning_task, population):
        # The simulator recycles its draw buffers chunk to chunk and call
        # to call; two full runs must still agree to the last bit.
        simulator = _simulator(rng_mode="counter", record_limit=100)
        first = simulator.simulate_task(warning_task, population, n_receivers=N)
        second = simulator.simulate_task(warning_task, population, n_receivers=N)
        assert not list(first.records)
        assert first.tally == second.tally
        assert first.protection_rate() == second.protection_rate()

    def test_kept_records_never_share_reused_buffers(self, warning_task, population):
        # Records are built while their round's draws are live, so later
        # chunks and calls reusing the buffers cannot change them.
        simulator = _simulator(rng_mode="counter")
        result = simulator.simulate_task(warning_task, population, n_receivers=N)
        records = list(result.records)
        assert len(records) == N
        simulator.simulate_task(warning_task, population, n_receivers=N, seed=SEED + 1)
        again = list(
            _simulator(rng_mode="counter")
            .simulate_task(warning_task, population, n_receivers=N)
            .records
        )
        assert records == again

    def test_consecutive_calls_reuse_the_simulators_buffers(
        self, warning_task, population, monkeypatch
    ):
        seen = _spy_chunk_calls(monkeypatch)
        simulator = _simulator()
        simulator.simulate_task(warning_task, population, n_receivers=N)
        simulator.simulate_task(warning_task, population, n_receivers=N)
        assert len(seen) == 6
        assert all(buffers is simulator._buffers for buffers, _ in seen)
        trait_block = simulator._buffers.array("normals", (22, 400))
        simulator.simulate_task(warning_task, population, n_receivers=N)
        assert simulator._buffers.array("normals", (22, 400)) is trait_block

    def test_busy_simulator_gives_a_call_private_buffers(
        self, warning_task, population, monkeypatch
    ):
        seen = _spy_chunk_calls(monkeypatch)
        simulator = _simulator()
        expected = simulator.simulate_task(warning_task, population, n_receivers=N)
        seen.clear()
        with simulator._draw_buffers() as held:
            assert held is simulator._buffers
            busy = simulator.simulate_task(warning_task, population, n_receivers=N)
        assert len(seen) == 3
        private = {id(buffers) for buffers, _ in seen}
        assert len(private) == 1
        assert all(isinstance(buffers, DrawBuffers) for buffers, _ in seen)
        assert all(buffers is not simulator._buffers for buffers, _ in seen)
        assert busy.tally == expected.tally
        assert list(busy.records) == list(expected.records)

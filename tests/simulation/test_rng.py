"""Tests for the matrix-layout seed derivation and its replay adapter."""

import platform
import random
import sys

import pytest

from repro.core.exceptions import SimulationError
from repro.simulation.rng import MatrixDraws, _spawn_seed

#: ``(seed, index) -> child seed`` pairs recorded from 64-bit CPython's
#: ``hash((seed, index)) % 2**32``, the derivation archived matrix rows
#: were drawn with.
RECORDED_SPAWN_SEEDS = {
    (0, 0): 397586535,
    (0, 1): 16979904,
    (20080124, 0): 138252198,
    (20080124, 3): 3192060714,
    (20080326, 1): 254093619,
    (12345, 7): 2841296835,
    (2**32 - 1, 9): 2923435799,
    (2**63 + 5, 2): 2227519245,
}

#: The first two uniforms of ``MatrixDraws(seed, chunk, round_index)``,
#: recorded from the sequential sampler the matrix layout was drawn with.
RECORDED_MATRIX_UNIFORMS = {
    (0, 0, 0): [0.7228383082160706, 0.9709907038611254],
    (5, 3, 0): [0.9058688436479875, 0.48620419941031967],
    (5, 3, 4): [0.8825109145638331, 0.4568033215833931],
    (2**63 + 5, 2, 1): [0.9710846963692482, 0.43566577880651525],
}

CPYTHON_64 = platform.python_implementation() == "CPython" and sys.hash_info.width == 64


class TestDeterminism:
    def test_same_seed_same_stream(self):
        assert MatrixDraws(7).uniforms(0, 4).tolist() == MatrixDraws(7).uniforms(0, 4).tolist()

    def test_different_seeds_differ(self):
        assert MatrixDraws(1).uniforms(0, 1)[0] != MatrixDraws(2).uniforms(0, 1)[0]

    def test_spawned_streams_are_deterministic(self):
        first = MatrixDraws(5, chunk=3).uniforms(0, 4).tolist()
        assert MatrixDraws(5, chunk=3).uniforms(0, 4).tolist() == first

    def test_spawned_streams_independent_of_order(self):
        # A later round depends on its (seed, chunk, round) cell only, not
        # on what the chunk's round-0 stream drew before it.
        cell = MatrixDraws(5, chunk=3)
        cell.uniforms(0, 10)
        later = cell.for_round(2).uniforms(0, 3).tolist()
        assert MatrixDraws(5, chunk=3, round_index=2).uniforms(0, 3).tolist() == later


class TestSpawnDerivation:
    @pytest.mark.parametrize("coords", sorted(RECORDED_SPAWN_SEEDS))
    def test_spawn_seed_matches_recording(self, coords):
        assert _spawn_seed(*coords) == RECORDED_SPAWN_SEEDS[coords]

    @pytest.mark.parametrize("coords", sorted(RECORDED_MATRIX_UNIFORMS))
    def test_matrix_cell_matches_recording(self, coords):
        assert MatrixDraws(*coords).uniforms(0, 2).tolist() == RECORDED_MATRIX_UNIFORMS[coords]

    @pytest.mark.skipif(not CPYTHON_64, reason="the recorded derivation is 64-bit CPython's hash")
    def test_spawn_seed_equals_tuple_hash(self):
        draws = random.Random(20080124)
        pairs = list(RECORDED_SPAWN_SEEDS) + [
            (draws.randrange(2**64), draws.randrange(2**24)) for _ in range(2000)
        ]
        for seed, index in pairs:
            assert _spawn_seed(seed, index) == hash((seed, index)) % 2**32, (seed, index)


class TestDraws:
    def test_truncated_normal_respects_bounds(self):
        values = MatrixDraws(3).clipped_normals((0, 1), 0.5, 0.5, 0.0, 1.0, 200)
        assert ((values >= 0.0) & (values <= 1.0)).all()

    def test_truncated_normal_zero_std_returns_mean(self):
        draws = MatrixDraws(3)
        assert draws.clipped_normals((0, 1), 0.4, 0.0, 0.0, 1.0, 3).tolist() == [0.4] * 3
        # A constant row draws nothing from the sequential stream.
        assert draws.uniforms(0, 2).tolist() == MatrixDraws(3).uniforms(0, 2).tolist()

    def test_uniform_range(self):
        values = MatrixDraws(11).uniforms(0, 500)
        assert ((values >= 0.0) & (values < 1.0)).all()

    def test_invalid_construction(self):
        with pytest.raises(SimulationError):
            MatrixDraws(-1)
        with pytest.raises(SimulationError):
            MatrixDraws(0, chunk=-1)
        with pytest.raises(SimulationError):
            MatrixDraws(0, chunk=0, round_index=-1)

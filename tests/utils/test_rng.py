"""Unit tests for RNG helpers."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng, spawn_streams


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_invalid_type(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestSpawnStreams:
    def test_count_and_type(self):
        streams = spawn_streams(0, 4)
        assert len(streams) == 4
        assert all(isinstance(s, np.random.Generator) for s in streams)
        assert spawn_streams(0, 0) == []

    def test_same_int_seed_identical_streams(self):
        a = [g.random(5) for g in spawn_streams(7, 3)]
        b = [g.random(5) for g in spawn_streams(7, 3)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_streams_are_pairwise_distinct(self):
        streams = spawn_streams(0, 4)
        draws = [tuple(g.random(8)) for g in streams]
        assert len(set(draws)) == 4

    def test_stream_i_independent_of_count(self):
        """Worker i can rebuild its stream regardless of the fan-out width."""
        wide = spawn_streams(3, 8)
        narrow = spawn_streams(3, 2)
        assert np.array_equal(wide[0].random(4), narrow[0].random(4))
        assert np.array_equal(wide[1].random(4), narrow[1].random(4))

    def test_seed_sequence_root(self):
        root = np.random.SeedSequence(11)
        a = [g.random() for g in spawn_streams(np.random.SeedSequence(11), 2)]
        b = [g.random() for g in spawn_streams(root, 2)]
        assert a == b

    def test_generator_root_spawns(self):
        parent = np.random.default_rng(5)
        streams = spawn_streams(parent, 3)
        assert len(streams) == 3
        # numpy's spawn-counter semantics: a second spawn from the same
        # parent yields new, distinct streams.
        again = spawn_streams(parent, 3)
        assert not np.array_equal(streams[0].random(4), again[0].random(4))

    def test_none_root_gives_fresh_entropy(self):
        assert len(spawn_streams(None, 2)) == 2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            spawn_streams(0, -1)
        with pytest.raises(TypeError):
            spawn_streams("seed", 2)

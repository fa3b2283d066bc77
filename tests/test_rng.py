"""Block Philox keys and the keyed generator equal numpy's per-row substreams."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from switchdiff._rng import KeyedGenerator, philox_keys, substream

seeds = st.integers(0, 2 ** 320)
trajs = st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=40)
purposes = st.integers(0, 3)
chunks = st.lists(st.integers(0, 2 ** 40), max_size=1)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, trajs=trajs, purpose=purposes, extra=chunks)
def test_keys_equal_seed_sequence(seed, trajs, purpose, extra):
    keys = philox_keys(seed, trajs, purpose, *extra)
    assert keys.shape == (len(trajs), 2) and keys.dtype == np.uint64
    for traj, key in zip(trajs, keys):
        ss = np.random.SeedSequence(seed, spawn_key=(traj, purpose, *extra))
        assert np.array_equal(key, ss.generate_state(2, np.uint64))


def test_keys_of_long_seeds_and_indices():
    # seeds past the 4-word pool and indices past one word shift the hash
    # calls; a block of one-word indices takes the array path, and one index
    # of two words sends the whole block to SeedSequence
    trajs = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 7, 2 ** 64 - 1]
    for seed in (12345, 2 ** 128, 2 ** 200 + 12345):
        for block in (trajs[:3], trajs):
            keys = philox_keys(seed, block, 2, 5)
            for traj, key in zip(block, keys):
                ss = np.random.SeedSequence(seed, spawn_key=(traj, 2, 5))
                assert np.array_equal(key, ss.generate_state(2, np.uint64))


def draws(gen, n):
    return (gen.standard_normal(n), gen.uniform(0.0, 3.0, n), gen.poisson(2.5, n))


def assert_draws_equal(a, b):
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, trajs=trajs, purpose=purposes, extra=chunks,
       size=st.integers(1, 9), skip=st.integers(1, 40), steps=st.integers(0, 9))
def test_keyed_generator_reproduces_substream(seed, trajs, purpose, extra, size, skip, steps):
    keyed = KeyedGenerator()
    keys = philox_keys(seed, trajs, purpose, *extra)
    for traj, key in zip(trajs, keys):
        # each row's first draws, one row after another
        assert_draws_equal(draws(keyed.start(key), size),
                           draws(substream(seed, traj, purpose, *extra), size))
    for traj, key in zip(trajs, keys):
        # a row goes on where it left its substream by starting its key
        # again and discarding the normals it has taken
        for n in (0, skip):
            want = substream(seed, traj, purpose, *extra).standard_normal(n + 2 * steps)[n:]
            for shape in ((2 * steps,), (steps, 2)):
                gen = keyed.start(key)
                gen.standard_normal(n)
                out = np.empty(shape)
                gen.standard_normal(out=out)
                assert np.array_equal(out.ravel(), want)

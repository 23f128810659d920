"""Seed streams: the vectorised state words against numpy's SeedSequence."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jspr import seeding

SEEDS = st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64 - 1))
TRIALS = st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=6)
PURPOSES = st.lists(st.integers(0, 4), min_size=1, max_size=5)


def reference(seed, trial, purpose):
    return np.random.SeedSequence(entropy=(seed, trial, purpose))


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, trials=TRIALS, purposes=PURPOSES)
@example(seed=0, trials=[0], purposes=[0])
@example(seed=2 ** 32 - 1, trials=[2 ** 32 - 1], purposes=[4])
@example(seed=2 ** 32, trials=[0, 1], purposes=[0, 1, 2, 3, 4])
@example(seed=2 ** 64 - 1, trials=[2 ** 32 - 1, 0], purposes=[3])
def test_words_equal_seed_sequence(seed, trials, purposes):
    words = seeding.state_words(seed, trials, purposes)
    assert words.shape == (len(trials), len(purposes), 4) and words.dtype == np.uint64
    for t, trial in enumerate(trials):
        for p, purpose in enumerate(purposes):
            want = reference(seed, trial, purpose).generate_state(4, np.uint64)
            assert words[t, p].tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, trial=st.integers(0, 2 ** 32 - 1), purpose=st.integers(0, 4))
def test_generator_draws_what_default_rng_draws(seed, trial, purpose):
    words = seeding.state_words(seed, [trial], [purpose])[0, 0]
    for got in (np.random.Generator(np.random.PCG64(seeding.StateWords(words))),
                seeding.stream(seed, purpose, trial)):
        want = np.random.default_rng(reference(seed, trial, purpose))
        assert got.bit_generator.state == want.bit_generator.state
        assert got.standard_normal(7).tobytes() == want.standard_normal(7).tobytes()


@pytest.mark.parametrize("seed, trials, purposes", [
    (0, [2 ** 32], [0]), (0, [0, 2 ** 40], [0]), (0, [-1], [0]), (0, [0], [2 ** 32]),
    (-1, [0], [0]), (2 ** 64, [0], [0])])
def test_out_of_range_raises(seed, trials, purposes):
    with pytest.raises(ValueError):
        seeding.state_words(seed, trials, purposes)


@pytest.mark.parametrize("seed, trial", [(0, 2 ** 32), (0, -1), (-1, 0), (2 ** 64, 0)])
def test_stream_out_of_range_raises(seed, trial):
    with pytest.raises(ValueError):
        seeding.stream(seed, seeding.TOPOLOGY, trial)


def test_state_words_serve_pcg64_only():
    words = seeding.StateWords(seeding.state_words(1, [2], [3])[0, 0])
    with pytest.raises(ValueError):
        words.generate_state(4, np.uint32)
    with pytest.raises(ValueError):
        words.generate_state(2, np.uint64)

"""Counter-based seed splitting for reproducible Monte Carlo trials.

Every random draw in a run is made from a generator keyed by
(master_seed, trial_index, stream id), so any single trial can be
reproduced in isolation and trials may execute in any order or in
parallel without changing results. A key's generator is the one
`np.random.default_rng(np.random.SeedSequence(entropy=key))` gives, seeded
from words that `state_words` hashes for a whole chunk of trials at once.
"""

import numpy as np

# Stream ids, one per draw purpose.
SUPPORT = 0
AMPLITUDES = 1
MATRICES = 2
NOISE = 3
TOPOLOGY = 4

_M32 = (1 << 32) - 1
# SeedSequence's hash constant before each of its successive pool and output hashes
_POOL = np.array([0x43B0D7E5 * pow(0x931E8875, j, 1 << 32) & _M32 for j in range(17)], np.uint32)
_OUT = np.array([0x8B51F9DD * pow(0x58F38DED, j, 1 << 32) & _M32 for j in range(9)], np.uint32)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def state_words(master_seed: int, trials, purposes) -> np.ndarray:
    """`(T, P, 4)` uint64 words, entry [t, p] those of `SeedSequence(entropy=
    (master_seed, trials[t], purposes[p])).generate_state(4, np.uint64)`: its
    uint32 xor-multiply-shift hash (O'Neill's seed_seq redesign), each step
    one array call over all entries. A seed in [0, 2^64) and trials and
    purposes in [0, 2^32) fit its 4-word pool; others raise ValueError."""
    seed = int(master_seed)
    _check_key(seed, (*trials, *purposes))
    head = [seed & _M32, seed >> 32] if seed > _M32 else [seed]
    pool = np.zeros((4, len(trials), len(purposes)), dtype=np.uint32)
    pool[:len(head)] = np.array(head, dtype=np.uint32)[:, None, None]
    pool[len(head)] = np.asarray(trials, dtype=np.uint32)[:, None]
    pool[len(head) + 1] = purposes
    pool = (pool.reshape(4, -1) ^ _POOL[:4, None]) * _POOL[1:5, None]
    pool ^= pool >> 16
    for src, dst in enumerate(([1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2])):
        j = 4 + 3 * src         # pool word src, hashed 3 times, mixed into the 3 others
        hashed = (pool[src] ^ _POOL[j:j + 3, None]) * _POOL[j + 1:j + 4, None]
        hashed ^= hashed >> 16
        mixed = _MIX_L * pool[dst] - _MIX_R * hashed
        pool[dst] = mixed ^ mixed >> 16
    out = (np.concatenate([pool, pool]) ^ _OUT[:8, None]) * _OUT[1:, None]
    out ^= out >> 16
    words = out[0::2].astype(np.uint64) | out[1::2].astype(np.uint64) << np.uint64(32)
    return np.ascontiguousarray(words.T).reshape(len(trials), len(purposes), 4)


class StateWords(np.random.bit_generator.ISeedSequence):
    """PCG64's seed from one entry of `state_words`."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("StateWords holds exactly 4 uint64 words")
        return np.ascontiguousarray(self.words, dtype=np.uint64)   # PCG64 reads its buffer


def _check_key(seed: int, indices) -> None:
    if not 0 <= seed < 1 << 64 or not all(0 <= i <= _M32 for i in indices):
        raise ValueError("need a seed in [0, 2^64), trials and purposes in [0, 2^32)")


def stream(master_seed: int, stream_id: int, trial: int = 0) -> np.random.Generator:
    """Independent generator for one purpose within one trial: numpy's own
    SeedSequence of the key, which hashes one key faster than `state_words`."""
    _check_key(master_seed, (trial, stream_id))
    return np.random.default_rng(np.random.SeedSequence(entropy=(master_seed, trial, stream_id)))

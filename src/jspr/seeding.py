"""Counter-based seed splitting for reproducible Monte Carlo trials.

Every random draw in a run is made from a generator keyed by
(master_seed, trial_index, stream id), so any single trial can be
reproduced in isolation and trials may execute in any order or in
parallel without changing results.
"""

import numpy as np

# Stream ids, one per draw purpose.
SUPPORT = 0
AMPLITUDES = 1
MATRICES = 2
NOISE = 3
TOPOLOGY = 4


def stream(master_seed: int, stream_id: int, trial: int = 0) -> np.random.Generator:
    """Independent generator for one purpose within one trial."""
    seq = np.random.SeedSequence(entropy=(int(master_seed), int(trial), int(stream_id)))
    return np.random.default_rng(seq)

"""The algorithm table: every tag's runner charges exactly what its Table-1
formula says, on random shapes and topologies. A tag added to the table
without a matching formula fails here."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jspr.algorithms import ALGORITHMS, table1_expected
from jspr.errors import SingularProjectionError
from jspr.harness import draw_trial
from jspr.network import build_topology, complete_topology

SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def topologies(draw):
    """A connected complete, ring or random graph on 2..8 nodes."""
    l_count = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["complete", "ring", "random"]))
    # even n0 keeps any ring connected; two nodes only have n0 = 1
    n0 = 1 if l_count == 2 else draw(st.sampled_from(range(2, l_count, 2)))
    return build_topology(kind, l_count, rng=np.random.default_rng(draw(SEEDS)),
                          n0=n0, p=draw(st.floats(0.3, 1.0)))


@pytest.mark.parametrize("tag", sorted(ALGORITHMS))
@settings(max_examples=25, deadline=None)
@given(topology=topologies(), n=st.integers(12, 24), k=st.integers(1, 4), data=st.data())
def test_ledger_totals_equal_table1(tag, topology, n, k, data):
    algorithm = ALGORITHMS[tag]
    l_count = topology.node_count
    m = data.draw(st.integers(k, 10), label="m")
    _, meas, obs = draw_trial(n, k, l_count, m, sigma2=0.01, amp_low=10.0, amp_high=15.0,
                              shared=algorithm.shared_matrix,
                              master_seed=data.draw(SEEDS, label="seed"), trial=0)
    try:
        result = algorithm.run(obs, meas, topology, k)
    except SingularProjectionError:
        assume(False)
    graph = complete_topology(l_count) if algorithm.complete_graph else topology
    expected = table1_expected(tag, l_count, k, n, graph.adjacency, result.iterations)
    ledger = result.ledger
    assert (ledger.local_scalar_count, ledger.global_scalar_count) == expected

"""The algorithm table: every tag's runner charges exactly what its Table-1
formula says, on random shapes and topologies, and relabeling the nodes by
an automorphism of the topology only permutes what it returns. A tag added
to the table without a matching formula fails here."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jspr.algorithms
from jspr.algorithms import ALGORITHMS, table1_expected
from jspr.config import ExperimentConfig
from jspr.ensembles import mac_aggregate
from jspr.errors import SingularProjectionError
from jspr.harness import _draw_chunk
from jspr.network import build_topology, complete_topology, ring_topology

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
    cfg = ExperimentConfig(n=n, k=k, sigma2=0.01, amp_low=10.0, amp_high=15.0,
                           master_seed=data.draw(SEEDS, label="seed"))
    _, ys, dictionaries, *_ = _draw_chunk(cfg, l_count, m, range(1), str,
                                             shared=algorithm.shared_matrix)
    try:
        result = algorithm.run(ys, dictionaries, topology, k)[0]
    except SingularProjectionError:
        assume(False)
    expected = table1_expected(tag, l_count, k, n, topology.adjacency, result.iterations)
    ledger = result.ledger
    assert (ledger.local_scalar_count, ledger.global_scalar_count) == expected


# tags that settle a round with no agreement by the smallest node id's proposal
NODE_ORDER_FALLBACK = ("dc-omp1", "dc-omp2")


@st.composite
def automorphisms(draw):
    """(topology, pi): a complete graph with any permutation, or a ring with
    a rotation, possibly followed by the reflection i -> -i. pi[l] is node
    l's new label."""
    l_count = draw(st.integers(3, 10))
    if draw(st.booleans()):
        return complete_topology(l_count), np.array(draw(st.permutations(range(l_count))))
    # odd n0 adds the antipodal link, which needs an even l_count
    n0 = draw(st.sampled_from([n0 for n0 in range(2, l_count)
                               if n0 % 2 == 0 or l_count % 2 == 0]))
    shift = draw(st.integers(0, l_count - 1))
    sign = draw(st.sampled_from([1, -1]))
    return ring_topology(l_count, n0), sign * (np.arange(l_count) + shift) % l_count


def relabeled(pi, array):
    """A chunk's array with node l (axis 1) moved to node pi[l]."""
    out = np.empty_like(array)
    out[:, pi] = array
    return out


def settled_by_fallback(result) -> bool:
    return any(len(set(r.proposals)) == len(r.proposals) for r in result.rounds)


@pytest.mark.parametrize("tag", sorted(set(ALGORITHMS) - {"mac-omp"}))
def test_relabeling_nodes_permutes_result(tag):
    algorithm = ALGORITHMS[tag]
    checked = []

    @settings(max_examples=40, deadline=None)
    @given(graph=automorphisms(), k=st.integers(1, 6), data=st.data())
    def relabeling_permutes(graph, k, data):
        topology, pi = graph
        l_count = topology.node_count
        edges = {frozenset((i, j)) for i in range(l_count) for j in topology.adjacency[i]}
        assert {frozenset(pi[list(e)]) for e in edges} == edges   # pi is an automorphism
        m = data.draw(st.integers(k, 20), label="m")
        cfg = ExperimentConfig(n=64, k=k, sigma2=0.05, amp_low=-3.0, amp_high=3.0,
                               master_seed=data.draw(SEEDS, label="seed"))
        _, ys, dictionaries, *_ = _draw_chunk(cfg, l_count, m, range(1), str, shared=False)
        moved_ys, moved_dictionaries = relabeled(pi, ys), relabeled(pi, dictionaries)
        try:
            result = algorithm.run(ys, dictionaries, topology, k)[0]
        except SingularProjectionError:
            with pytest.raises(SingularProjectionError):
                algorithm.run(moved_ys, moved_dictionaries, topology, k)[0]
            return
        moved = algorithm.run(moved_ys, moved_dictionaries, topology, k)[0]
        if tag in NODE_ORDER_FALLBACK and (settled_by_fallback(result)
                                           or settled_by_fallback(moved)):
            return
        checked.append(True)
        assert [moved.per_node_support[pi[l]] for l in range(l_count)] == \
            result.per_node_support
        assert [moved.iterations[pi[l]] for l in range(l_count)] == result.iterations
        assert (moved.ledger.local_scalar_count, moved.ledger.global_scalar_count) == \
            (result.ledger.local_scalar_count, result.ledger.global_scalar_count)

    relabeling_permutes()
    assert checked, "every trial was settled by the node-order fallback"


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, t_count=st.integers(2, 6), l_count=st.integers(1, 12),
       m=st.integers(1, 40), sigma2=st.sampled_from([0.0, 0.01, 5.0]))
def test_sum_channel_output_is_mac_aggregate(seed, t_count, l_count, m, sigma2):
    # the sum-channel output has one definition: mac-omp's node-axis sum over
    # a chunk of shared-matrix trials is each trial's mac_aggregate, bit for bit
    cfg = ExperimentConfig(n=48, k=2, sigma2=sigma2, master_seed=seed)
    _, ys, drawn, *_ = _draw_chunk(cfg, l_count, m, range(t_count), str, shared=True)
    solved = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jspr.algorithms, "solve_chunk", lambda *args: solved.append(args) or [])
        ALGORITHMS["mac-omp"].run(ys, drawn, complete_topology(l_count), cfg.k)
    [(zs, dictionaries, *_)] = solved
    assert zs.shape == (t_count, 1, m) and dictionaries.shape == (t_count, 1, m, 48)
    for z, dictionary, obs, own in zip(zs, dictionaries, ys, drawn):
        assert z[0].tobytes() == mac_aggregate(obs).tobytes()
        assert np.array_equal(dictionary[0], own[0])


@pytest.mark.parametrize("tag", sorted(ALGORITHMS))
def test_topology_of_the_wrong_size_is_rejected(tag):
    # a 3-node chunk on a 5-node graph: no tag may return 5 supports or
    # charge the ledger for nodes that observed nothing
    cfg = ExperimentConfig(n=16, k=2, sigma2=0.01, master_seed=3)
    _, ys, dictionaries, *_ = _draw_chunk(cfg, 3, 6, range(1), str,
                                             shared=ALGORITHMS[tag].shared_matrix)
    with pytest.raises(ValueError, match="topology size"):
        ALGORITHMS[tag].run(ys, dictionaries, complete_topology(5), cfg.k)

"""Fusion rules and the collaborative recovery algorithms."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jspr.algorithms import ALGORITHMS, table1_expected
from jspr.config import ExperimentConfig
from jspr.decentralized import (
    _admit,
    _neighbor_table,
    _neighborhood_sum,
    dcomp1,
    dcomp2,
    domp_majority,
    index_fusion_full,
    index_fusion_neighborhood,
    majority_vote,
)
from jspr.ensembles import (
    MeasurementEnsemble,
    gen_measurements,
    gen_signals,
    gen_support,
    measure,
)
from jspr.errors import SingularProjectionError
from jspr.greedy import correlate, omp, somp
from jspr.harness import _draw_chunk
from jspr.network import complete_topology, random_connected_topology, ring_topology


def rng_of(seed):
    return np.random.default_rng(seed)


def make_instance(seed, n=32, k=4, l_count=5, m=12, sigma2=0.01,
                  amp=(10.0, 15.0), shared=False):
    rng = rng_of(seed)
    support = gen_support(n, k, rng)
    ensemble = gen_signals(support, n, l_count, amp[0], amp[1], rng)
    meas = gen_measurements(n, m, l_count, sigma2, rng, shared=shared)
    obs = measure(ensemble, meas, rng)
    return ensemble, meas, obs


class TestIndexFusionFull:
    def test_multiplicity_rule(self):
        assert index_fusion_full([5, 5, 9]) == {5}

    def test_all_distinct_smallest_node_id(self):
        assert index_fusion_full([3, 7, 9]) == {3}

    def test_two_agreement_groups(self):
        assert index_fusion_full([2, 2, 8, 8, 8]) == {2, 8}

    @pytest.mark.parametrize("row, need, adopted", [
        ([8, 2, 8, 2, 2, 5], 3, [2, 8]),
        ([1, 1, 0, 0, 4, 4], 2, [0, 1]),
        ([3, 7, 9], 2, [3]),
    ], ids=["count-then-index", "tied-counts", "all-distinct"])
    def test_adoption_order(self, row, need, adopted):
        # what every node adopts: by descending count, then the smaller index
        assert _admit(index_fusion_full(row), need, Counter(row)) == adopted


class TestNeighborhoodSum:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), t_count=st.integers(1, 3),
           l_count=st.integers(1, 12), n=st.integers(2, 40), p=st.floats(0.2, 1.0))
    def test_equals_per_node_sum_bit_for_bit(self, seed, t_count, l_count, n, p):
        # random connected graphs have unequal degrees, so the table is padded
        rng = rng_of(seed)
        topology = (random_connected_topology(l_count, p, rng) if l_count > 1
                    else complete_topology(1))
        f = np.abs(rng.standard_normal((t_count, l_count, n))) * 10.0 ** rng.integers(
            -6, 6, size=(t_count, l_count, 1))
        f[rng.random(f.shape) < 0.2] = -np.inf          # held indices
        self.check(f, topology)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), t_count=st.integers(1, 3),
           l_count=st.integers(9, 64))
    def test_wide_complete_graph_at_two_columns(self, seed, t_count, l_count):
        # degree 8 to 63 over rows of N = 2: where a numpy reduction could
        # unroll or pair its additions instead of adding the rows in order
        rng = rng_of(seed)
        f = np.abs(rng.standard_normal((t_count, l_count, 2))) * 10.0 ** rng.integers(
            -8, 8, size=(t_count, l_count, 1))
        f[rng.random(f.shape) < 0.05] = -np.inf
        self.check(f, complete_topology(l_count))

    @staticmethod
    def check(f, topology):
        want = [[f[t, l] + f[t, list(topology.adjacency[l])].sum(axis=0)
                 for l in range(topology.node_count)] for t in range(len(f))]
        assert np.array_equal(_neighborhood_sum(f, _neighbor_table(topology)), np.array(want))


class TestIndexFusionNeighborhood:
    def test_agreement_with_own(self):
        assert index_fusion_neighborhood(4, [4, 9], set()) == {4}

    def test_all_distinct_keeps_own(self):
        assert index_fusion_neighborhood(6, [2, 9], {1}) == {6}

    def test_agreed_index_already_held(self):
        assert index_fusion_neighborhood(6, [2, 2], {2}) == {6}

    def test_partial_overlap_drops_held(self):
        assert index_fusion_neighborhood(6, [2, 2, 9, 9], {2}) == {9}


class TestMajorityVote:
    def test_unanimous(self):
        assert majority_vote([[1, 5], [5, 1], [1, 5]], 2) == (1, 5)

    def test_vote_counts(self):
        # votes a=3, b=2, c=1, d=1 with (a, b, c, d) = (0, 4, 7, 9)
        estimates = [[0, 4], [0, 4], [0, 7], [9]]
        assert majority_vote(estimates, 2) == (0, 4)

    def test_tie_at_cut_smaller_index(self):
        estimates = [[2, 8], [2, 5]]   # 2 twice, then 5 and 8 tied
        assert majority_vote(estimates, 2) == (2, 5)


class TestDcomp1:
    def test_single_node_equals_omp(self):
        ensemble, meas, obs = make_instance(1, l_count=1)
        topo = complete_topology(1)
        for mode in ("full", "neighborhood"):
            result = dcomp1(obs[None], meas.matrices[None], topo, 4, mode=mode)[0]
            assert result.per_node_support[0] == tuple(sorted(
                omp(obs[0], meas.matrices[0], 4)))
            assert result.iterations == [4]

    def test_single_round_when_all_agree(self):
        # noiseless 1-sparse: every node proposes the true column
        ensemble, meas, obs = make_instance(2, n=8, k=1, l_count=5, m=6, sigma2=0.0)
        truth = ensemble.support[0]
        proposals = correlate(obs, meas.matrices).argmax(axis=1).tolist()
        assert proposals == [truth] * 5   # precondition for the trace below
        result = dcomp1(obs[None], meas.matrices[None], complete_topology(5), 1, mode="full")[0]
        assert result.iterations == [1] * 5
        assert all(sup == (truth,) for sup in result.per_node_support)

    def test_full_mode_requires_complete(self):
        ensemble, meas, obs = make_instance(3, l_count=6)
        with pytest.raises(ValueError):
            dcomp1(obs[None], meas.matrices[None], ring_topology(6, 2), 4, mode="full")

    def test_full_mode_invariants(self):
        for seed in range(8):
            ensemble, meas, obs = make_instance(10 + seed, l_count=6, k=4)
            result = dcomp1(obs[None], meas.matrices[None], complete_topology(6), 4, mode="full")[0]
            assert len(set(result.per_node_support)) == 1
            for sup in result.per_node_support:
                assert len(sup) == 4
                assert len(set(sup)) == 4
            assert all(1 <= t <= 4 for t in result.iterations)
            admitted = [len(r.fused[0]) for r in result.rounds]
            if max(admitted) > 1:
                assert result.iterations[0] < 4

    def test_neighborhood_mode_invariants(self):
        for seed in range(8):
            ensemble, meas, obs = make_instance(20 + seed, l_count=6, k=4)
            result = dcomp1(obs[None], meas.matrices[None], ring_topology(6, 2), 4,
                            mode="neighborhood")[0]
            for sup in result.per_node_support:
                assert len(sup) == 4
                assert len(set(sup)) == 4
            assert all(1 <= t <= 4 for t in result.iterations)

    @pytest.mark.parametrize("mode", ["full", "neighborhood"])
    def test_zero_residual_picks_unheld_indices(self, mode):
        # identity dictionaries, 2-sparse y: after two rounds the residual is
        # exactly 0, every score ties, and only the held-index mask keeps a
        # node from proposing an index it already holds
        meas = MeasurementEnsemble(matrices=np.stack([np.eye(6)] * 3), noise_sigma2=0.0)
        obs = np.tile([3.0, 2.0, 0, 0, 0, 0], (3, 1))
        result = dcomp1(obs[None], meas.matrices[None], ring_topology(3, 2), 4, mode=mode)[0]
        assert result.per_node_support == [(0, 1, 2, 3)] * 3
        assert result.iterations == [4] * 3

    @pytest.mark.parametrize("mode", ["full", "neighborhood"])
    def test_zero_residual_in_a_chunk_of_unequal_sizes(self, mode):
        # trial 1 adopts two agreed indices in round 1 and trial 0 one, so
        # the chunk's lanes deflate in two support-size groups; once a
        # residual is exactly 0, only the held mask of those groups keeps a
        # node from proposing an index it already holds
        ys = np.zeros((2, 4, 6))
        ys[0, :, :2] = [3.0, 2.0]
        ys[1, :2, :2] = [3.0, 2.0]
        ys[1, 2:, :2] = [2.0, 3.0]
        results = dcomp1(ys, np.broadcast_to(np.eye(6), (2, 4, 6, 6)), complete_topology(4), 4,
                         mode=mode)
        assert [r.per_node_support for r in results] == [[(0, 1, 2, 3)] * 4] * 2
        assert [r.iterations for r in results] == [[4] * 4, [3] * 4]

    def test_ledger_matches_expected_formula(self):
        ensemble, meas, obs = make_instance(30, l_count=6, k=4)
        topo = complete_topology(6)
        result = dcomp1(obs[None], meas.matrices[None], topo, 4, mode="full")[0]
        local, glob = table1_expected("dc-omp1", 6, 4, 32, topo.adjacency,
                                      result.iterations)
        assert result.ledger.local_scalar_count == local
        assert result.ledger.global_scalar_count == glob == 0
        assert local == 6 * 5 * result.iterations[0]

        ring = ring_topology(6, 2)
        result = dcomp1(obs[None], meas.matrices[None], ring, 4, mode="neighborhood")[0]
        local, _ = table1_expected("dc-omp1-nbr", 6, 4, 32, ring.adjacency,
                                   result.iterations)
        assert result.ledger.local_scalar_count == local

    def test_beats_no_collaboration_on_paired_trials(self):
        wins = {"dc-omp1": 0, "d-omp": 0}
        topo = complete_topology(10)
        for seed in range(60):
            ensemble, meas, obs = make_instance(100 + seed, n=256, k=10,
                                                l_count=10, m=30)
            truth = set(ensemble.support)
            c = dcomp1(obs[None], meas.matrices[None], topo, 10, mode="full")[0]
            d = domp_majority(obs[None], meas.matrices[None], topo, 10)[0]
            wins["dc-omp1"] += set(c.per_node_support[0]) == truth
            wins["d-omp"] += set(d.per_node_support[0]) == truth
        assert wins["dc-omp1"] >= wins["d-omp"]


class TestDcomp2:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), l_count=st.integers(2, 6),
           k=st.integers(1, 5), data=st.data())
    def test_complete_graph_tracks_somp_step_by_step(self, seed, l_count, k, data):
        m = data.draw(st.integers(k, 16), label="m")
        _, meas, obs = make_instance(seed, l_count=l_count, k=k, m=m)
        result = dcomp2(obs[None], meas.matrices[None], complete_topology(l_count), k)[0]
        somp_selection = somp(obs, meas.matrices, k)
        fused_sequence = [r.fused[0] for r in result.rounds]
        assert [idx for admitted in fused_sequence for idx in admitted] == somp_selection
        assert all(len(set(r.proposals)) == 1 for r in result.rounds)
        assert result.common_support == tuple(sorted(somp_selection))

    def test_two_node_path_symmetric_scores(self):
        ensemble, meas, obs = make_instance(50, l_count=2, k=2)
        result = dcomp2(obs[None], meas.matrices[None], complete_topology(2), 2)[0]
        # both nodes sum the same pair of correlation vectors
        assert all(len(set(r.proposals)) == 1 for r in result.rounds)

    def test_identical_supports_on_ring(self):
        for seed in range(6):
            ensemble, meas, obs = make_instance(60 + seed, l_count=6, k=4)
            result = dcomp2(obs[None], meas.matrices[None], ring_topology(6, 3), 4)[0]
            assert len(set(result.per_node_support)) == 1
            assert len(result.per_node_support[0]) == 4
            assert all(1 <= t <= 4 for t in result.iterations)

    def test_ledger_matches_expected_formula(self):
        ensemble, meas, obs = make_instance(70, l_count=6, k=4)
        ring = ring_topology(6, 2)
        result = dcomp2(obs[None], meas.matrices[None], ring, 4)[0]
        local, glob = table1_expected("dc-omp2", 6, 4, 32, ring.adjacency,
                                      result.iterations)
        t2 = result.iterations[0]
        assert result.ledger.local_scalar_count == local == 6 * 2 * 32 * t2
        assert result.ledger.global_scalar_count == glob == 6 * 5 * t2

    def test_multi_index_rounds_shorten_termination(self):
        shortened = False
        for seed in range(20):
            ensemble, meas, obs = make_instance(80 + seed, l_count=8, k=4,
                                                m=20, n=64)
            result = dcomp2(obs[None], meas.matrices[None], ring_topology(8, 4), 4)[0]
            if any(len(r.fused[0]) > 1 for r in result.rounds):
                assert result.iterations[0] < 4
                shortened = True
        assert shortened   # the regime must actually exercise multi-index rounds


class TestChunkLanes:
    """A chunk's trials run as lanes of the one round loop; under every tag,
    each trial's RecoveryResult (supports, iterations, ledger and every
    FusionRound) is the one it gets as a chunk of one."""

    @pytest.mark.parametrize("tag", sorted(ALGORITHMS))
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), t_count=st.integers(1, 6),
           l_count=st.integers(1, 7), k=st.integers(1, 4), extra_m=st.integers(0, 8),
           p=st.floats(0.3, 1.0), shared=st.booleans(),
           sigma2=st.sampled_from([0.0, 0.01, 5.0]))
    def test_each_trial_equals_its_chunk_of_one(self, tag, seed, t_count, l_count, k,
                                                extra_m, p, shared, sigma2):
        rng = rng_of(seed)
        topology = (random_connected_topology(l_count, p, rng) if l_count > 1
                    else complete_topology(1))
        cfg = ExperimentConfig(n=24, k=k, sigma2=sigma2, master_seed=seed)
        _, ys, dictionaries, _ = _draw_chunk(cfg, l_count, k + extra_m, range(t_count), str,
                                             shared=shared)
        run = ALGORITHMS[tag].run
        try:
            alone = [run(ys[t:t + 1], dictionaries[t:t + 1], topology, k)[0]
                     for t in range(t_count)]
        except SingularProjectionError:
            with pytest.raises(SingularProjectionError):
                run(ys, dictionaries, topology, k)
            return
        assert run(ys, dictionaries, topology, k) == alone


class TestDompMajority:
    def test_unanimous_nodes(self):
        ensemble, meas, obs = make_instance(90, l_count=4, m=20, sigma2=0.0)
        result = domp_majority(obs[None], meas.matrices[None], complete_topology(4), 4)[0]
        assert all(sup == tuple(sorted(ensemble.support))
                   for sup in result.per_node_support)
        assert result.iterations == [4] * 4

    def test_ledger_global_count(self):
        ensemble, meas, obs = make_instance(91, l_count=5, k=4)
        result = domp_majority(obs[None], meas.matrices[None], complete_topology(5), 4)[0]
        _, glob = table1_expected("d-omp", 5, 4, 32, complete_topology(5).adjacency, 4)
        assert result.ledger.global_scalar_count == glob == 4 * 4 * 5

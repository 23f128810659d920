"""Properties of the batched least-squares kernel and the solvers built on it.

The batched `ls_residual` is checked lane by lane against its single-vector
form and against `np.linalg.lstsq`; the round loop under D-OMP's per-node
rule against `omp` on each node, and on a chunk of trials against one call
per trial; `dc-omp1`, `dc-omp1-nbr` and `dc-omp2` against a per-node
reference that updates one node's residual at a time; and every solver,
which checks the Gram conditioning only on the support it returns, against
the same solver checking it on every round.
"""

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jspr import greedy
from jspr.algorithms import ALGORITHMS
from jspr.decentralized import _own_argmax, dcomp1, dcomp2, domp_majority, majority_vote
from jspr.ensembles import gen_measurements, gen_signals, gen_support, measure
from jspr.errors import SingularProjectionError
from jspr.greedy import greedy_rounds, ls_residual, omp, pooled_argmax, somp
from jspr.network import MessageLedger, complete_topology, random_connected_topology, ring_topology

SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def lanes(draw):
    """(ys (L, M), dictionaries (L, M, N), selected (L, s)) of Gaussian data."""
    l_count = draw(st.integers(1, 6))
    m = draw(st.integers(1, 10))
    n = m + draw(st.integers(0, 8))
    s = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(SEEDS))
    ys = rng.standard_normal((l_count, m))
    dictionaries = rng.standard_normal((l_count, m, n))
    selected = np.stack([rng.choice(n, size=s, replace=False) for _ in range(l_count)])
    return ys, dictionaries, selected


def single_lane(ys, dictionaries, selected, lane):
    """Per-lane single-vector call, or the exception it raised."""
    try:
        return ls_residual(ys[lane], dictionaries[lane], list(selected[lane]))
    except SingularProjectionError as exc:
        return exc


class TestBatchedLsResidual:
    @settings(max_examples=80, deadline=None)
    @given(data=lanes())
    def test_equals_per_lane_single_vector_calls(self, data):
        ys, dictionaries, selected = data
        loop = [single_lane(ys, dictionaries, selected, l) for l in range(len(ys))]
        assume(not any(isinstance(r, Exception) for r in loop))
        batched = ls_residual(ys, dictionaries, selected)
        assert batched.shape == ys.shape
        for l, expected in enumerate(loop):
            scale = max(np.linalg.norm(ys[l]), 1.0)
            assert np.max(np.abs(batched[l] - expected)) <= 1e-10 * scale

    @settings(max_examples=60, deadline=None)
    @given(data=lanes())
    def test_matches_lstsq_on_well_conditioned_lanes(self, data):
        ys, dictionaries, selected = data
        subs = np.take_along_axis(dictionaries, selected[:, None, :], axis=2)
        assume(max(np.linalg.cond(sub) for sub in subs) < 1e4)
        batched = ls_residual(ys, dictionaries, selected)
        for l, sub in enumerate(subs):
            coef, *_ = np.linalg.lstsq(sub, ys[l], rcond=None)
            expected = ys[l] - sub @ coef
            assert np.max(np.abs(batched[l] - expected)) <= 1e-8 * np.linalg.norm(ys[l])

    @settings(max_examples=40, deadline=None)
    @given(data=lanes())
    def test_shared_list_equals_repeated_rows(self, data):
        ys, dictionaries, selected = data
        shared = list(selected[0])
        repeated = np.repeat(selected[:1], len(ys), axis=0)
        assume(not any(isinstance(single_lane(ys, dictionaries, repeated, l), Exception)
                       for l in range(len(ys))))
        assert np.array_equal(ls_residual(ys, dictionaries, shared),
                              ls_residual(ys, dictionaries, repeated))

    @settings(max_examples=80, deadline=None)
    @given(data=lanes(), pick=st.data())
    def test_raises_exactly_when_some_lane_raises(self, data, pick):
        ys, dictionaries, selected = data
        if selected.shape[1] >= 2 and pick.draw(st.booleans(), label="duplicate"):
            lane = pick.draw(st.integers(0, len(ys) - 1), label="lane")
            a, b = selected[lane, :2]
            dictionaries[lane, :, b] = dictionaries[lane, :, a]
        lane_raises = [isinstance(single_lane(ys, dictionaries, selected, l), Exception)
                       for l in range(len(ys))]
        if any(lane_raises):
            with pytest.raises(SingularProjectionError):
                ls_residual(ys, dictionaries, selected)
        else:
            ls_residual(ys, dictionaries, selected)

    def test_duplicate_column_in_one_lane_raises(self):
        rng = np.random.default_rng(5)
        ys = rng.standard_normal((3, 6))
        dictionaries = rng.standard_normal((3, 6, 9))
        dictionaries[1, :, 4] = dictionaries[1, :, 2]
        selected = np.array([[2, 4], [2, 4], [0, 1]])
        assert not isinstance(single_lane(ys, dictionaries, selected, 0), Exception)
        with pytest.raises(SingularProjectionError):
            ls_residual(ys[1], dictionaries[1], [2, 4])
        with pytest.raises(SingularProjectionError, match="lane 1"):
            ls_residual(ys, dictionaries, selected)

    def test_empty_selection_returns_copies(self):
        ys = np.ones((2, 3))
        out = ls_residual(ys, np.ones((2, 3, 4)), [])
        assert np.array_equal(out, ys)
        out[0, 0] = 5.0
        assert ys[0, 0] == 1.0


def instance(seed, n, k, l_count, m, sigma2=0.01, shared=False):
    rng = np.random.default_rng(seed)
    support = gen_support(n, k, rng)
    ensemble = gen_signals(support, n, l_count, 10.0, 15.0, rng)
    meas = gen_measurements(n, m, l_count, sigma2, rng, shared=shared)
    return meas, measure(ensemble, meas, rng)


def lockstep_picks(ys, dictionaries, k, pooled):
    """The round loop on `ys (T, L, M)`: S-OMP's pooled rule (one row per
    trial) or D-OMP's per-node rule (one row per node); per trial and row the
    picks in order, then the rounds of each row's last pick."""
    rule, rows = (pooled_argmax, 1) if pooled else (_own_argmax, ys.shape[1])
    return greedy_rounds(ys, dictionaries, k, rule, rows=rows)


class TestLockstepOmp:
    """The fixed-round rules of the one round loop: every lane of every trial
    picks once a round, in lockstep, for k rounds."""

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, l_count=st.integers(1, 6), m=st.integers(2, 12),
           extra=st.integers(1, 12), k_frac=st.floats(0.0, 1.0))
    def test_equals_per_node_omp(self, seed, l_count, m, extra, k_frac):
        n = m + extra
        k = 1 + int(k_frac * (min(m, n - 1) - 1))
        meas, obs = instance(seed, n, k, l_count, m)
        expected = [omp(obs[l], meas.matrices[l], k) for l in range(l_count)]
        picks, iterations = lockstep_picks(obs[None], meas.matrices[None], k,
                                           pooled=False)
        assert picks == [expected]
        assert iterations == [[k] * l_count]
        result = domp_majority(obs[None], meas.matrices[None], complete_topology(l_count), k)[0]
        assert result.per_node_support == [majority_vote(expected, k)] * l_count

    @settings(max_examples=40, deadline=None)
    @given(seeds=st.lists(SEEDS, min_size=1, max_size=5), l_count=st.integers(1, 6),
           m=st.integers(2, 12), extra=st.integers(1, 12), k_frac=st.floats(0.0, 1.0),
           shared=st.booleans(), pooled=st.booleans())
    def test_chunk_lanes_equal_per_trial_calls(self, seeds, l_count, m, extra, k_frac,
                                               shared, pooled):
        # trials as extra lanes, a shared matrix stacked once per trial as
        # (T, 1, M, N): the picks of T separate calls on (L, M, N) copies
        n = m + extra
        k = 1 + int(k_frac * (min(m, n - 1) - 1))
        trials = [instance(seed, n, k, l_count, m, shared=shared) for seed in seeds]
        ys = np.stack([obs for _, obs in trials])
        dictionaries = np.stack([meas.matrices[:1] if shared else meas.matrices
                                 for meas, _ in trials])
        try:
            expected = [lockstep_picks(obs[None],
                                       np.ascontiguousarray(meas.matrices)[None], k, pooled)
                        for meas, obs in trials]
        except SingularProjectionError:
            with pytest.raises(SingularProjectionError):
                lockstep_picks(ys, dictionaries, k, pooled)
            return
        picks, iterations = lockstep_picks(ys, dictionaries, k, pooled)
        assert picks == [trial_picks[0] for trial_picks, _ in expected]
        assert iterations == [trial_iterations[0] for _, trial_iterations in expected]

    def test_ties_go_to_smallest_unpicked_index(self):
        # the last node's residual vanishes after one pick: every score ties at 0
        ys = np.array([[0.0, 2.0, 2.0, 1.0], [3.0, 0.0, 0.0, 3.0], [5.0, 0.0, 0.0, 0.0]])
        dictionaries = np.repeat(np.eye(4)[None, :, :], 3, axis=0)
        expected = [omp(ys[l], dictionaries[l], 2) for l in range(3)]
        assert expected == [[1, 2], [0, 3], [0, 1]]
        picks, _ = lockstep_picks(ys[None], dictionaries[None], 2, pooled=False)
        assert picks == [expected]


COLLABORATIVE = ("dc-omp1", "dc-omp1-nbr", "dc-omp2")


def rule_topology(rule, l_count, n0, edge_p, rng):
    """The topology a collaborative rule's reference is checked on: the
    complete graph for dc-omp1; for the others a ring of n0 neighbours, or
    with an edge probability a random connected graph, whose unequal
    neighbourhoods fuse over groups of unequal size and pad the neighbour
    table."""
    if rule == "dc-omp1":
        return complete_topology(l_count)
    if edge_p is None:
        return ring_topology(l_count, n0)
    return random_connected_topology(l_count, edge_p, rng)


def reference_collaborative(rule, obs, meas, topology, k):
    """The solver of `rule` with one single-vector kernel call per node and
    round: supports, iteration counts, both ledger totals and each round's
    (proposals, fused) by node, None at a node that has stopped. dc-omp2 sums
    the neighbours' correlations in the solver's order, f[l] + f[nbrs]. A node
    adopts its fused indices by descending count, then by its own descending
    score (dc-omp1-nbr only), then the smaller index."""
    l_count, n = obs.shape[0], meas.matrices.shape[2]
    ledger = MessageLedger(topology)
    residuals = np.array(obs, dtype=float, copy=True)
    supports = [[] for _ in range(l_count)]
    iterations = [0] * l_count
    rounds = []
    round_no = 0
    while any(len(s) < k for s in supports):
        round_no += 1
        active = [l for l in range(l_count) if len(supports[l]) < k]
        f = np.stack([np.abs(meas.matrices[l].T @ residuals[l]) for l in range(l_count)])
        proposals = [None] * l_count
        for l in active:
            nbrs = list(topology.adjacency[l])
            score = f[l] + f[nbrs].sum(axis=0) if rule == "dc-omp2" else f[l].copy()
            score[supports[l]] = -np.inf
            proposals[l] = int(np.argmax(score))
            if rule == "dc-omp2":
                ledger.send_local(l, n)
                ledger.send_global(l, 1)
            else:
                ledger.send_local(l, 1)
        adopted = [None] * l_count
        for l in active:
            if rule == "dc-omp1-nbr":
                heard = [proposals[l], *(proposals[j] for j in topology.adjacency[l]
                                         if proposals[j] is not None)]
                scores = f[l]
            else:   # network-wide: every node fuses the same proposals, scores tie
                heard, scores = proposals, np.zeros(n)
            counts = Counter(heard)
            agreed = {idx for idx, c in counts.items() if c >= 2}
            fused = agreed.difference(supports[l]) or {heard[0]}
            adopted[l] = sorted(fused, key=lambda idx: (-counts[idx], -scores[idx], idx))[
                :k - len(supports[l])]
            supports[l].extend(adopted[l])
            iterations[l] = round_no
            residuals[l] = ls_residual(obs[l], meas.matrices[l], supports[l])
        rounds.append((proposals, adopted))
    return ([tuple(sorted(s)) for s in supports], iterations,
            ledger.local_scalar_count, ledger.global_scalar_count, rounds)


class TestDcomp1Neighborhood:
    @pytest.mark.parametrize("rule", COLLABORATIVE)
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, half=st.integers(2, 4), n0_pick=st.integers(0, 10),
           edge_p=st.one_of(st.none(), st.floats(0.3, 1.0)), graph_seed=SEEDS,
           m=st.integers(4, 12), k=st.integers(1, 4), sigma2=st.sampled_from([0.01, 5.0]))
    def test_equals_per_node_reference(self, rule, seed, half, n0_pick, edge_p, graph_seed,
                                       m, k, sigma2):
        l_count = 2 * half
        n0 = 1 + n0_pick % (l_count - 1)
        assume(n0 > 1 or edge_p is not None)
        topology = rule_topology(rule, l_count, n0, edge_p, np.random.default_rng(graph_seed))
        meas, obs = instance(seed, 32, k, l_count, m, sigma2)
        result = ALGORITHMS[rule].run(obs[None], meas.matrices[None], topology, k)[0]
        supports, iterations, local, global_, rounds = reference_collaborative(
            rule, obs, meas, topology, k)
        assert result.per_node_support == supports
        assert result.iterations == iterations
        assert [r.iteration for r in result.rounds] == list(range(1, max(iterations) + 1))
        assert [(r.proposals, r.fused) for r in result.rounds] == rounds
        assert result.ledger.local_scalar_count == local
        assert result.ledger.global_scalar_count == global_


def near_dependent_instance(seed, l_count, m, extra, k_frac, bad, scale,
                            partner_in_support):
    """A noiseless instance with N = m + extra in which `bad` nodes have one
    support column copied into a second column, times `scale` (1 for an exact
    copy). Returns (meas, obs, k, the first bad node)."""
    n, k = m + extra, 1 + int(k_frac * (m - 1))
    rng = np.random.default_rng(seed)
    support = gen_support(n, k, rng)
    ensemble = gen_signals(support, n, l_count, 10.0, 15.0, rng)
    meas = gen_measurements(n, m, l_count, 0.0, rng)
    nodes = rng.choice(l_count, size=bad, replace=False)
    for l in nodes:
        a = rng.choice(support)
        pool = [j for j in (support if partner_in_support else range(n)) if j != a]
        b = rng.choice(pool) if pool else (a + 1) % n
        meas.matrices[l, :, b] = scale * meas.matrices[l, :, a]
    return meas, measure(ensemble, meas, rng), k, int(nodes[0])


SOLVER_PATHS = {
    "omp": lambda obs, meas, k, node: omp(obs[node], meas.matrices[node], k),
    "somp": lambda obs, meas, k, node: somp(obs, meas.matrices, k),
    "dcomp1-full": lambda obs, meas, k, node: dcomp1(
        obs[None], meas.matrices[None], complete_topology(len(obs)), k)[0],
    "dcomp1-nbr": lambda obs, meas, k, node: dcomp1(
        obs[None], meas.matrices[None], ring_topology(len(obs), 2), k, mode="neighborhood")[0],
    "dcomp2": lambda obs, meas, k, node: dcomp2(
        obs[None], meas.matrices[None], ring_topology(len(obs), 2), k)[0],
    "d-omp": lambda obs, meas, k, node: domp_majority(
        obs[None], meas.matrices[None], ring_topology(len(obs), 2), k)[0],
}


def solver_outcome(path, meas, obs, k, node):
    """Selection (and per-node iterations) or the SingularProjectionError
    raised; any other exception, and any warning, escapes as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = SOLVER_PATHS[path](obs, meas, k, node)
        except SingularProjectionError as exc:
            return exc
    if isinstance(result, list):
        return result
    return result.per_node_support, result.iterations


def every_round_checked(path, meas, obs, k, node):
    """solver_outcome with every kernel call forced to check the Gram."""
    original = greedy.ls_residual

    def checked(y, dictionary, selected, *, check=True):
        return original(y, dictionary, selected, check=True)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greedy, "ls_residual", checked)
        return solver_outcome(path, meas, obs, k, node)


# somp selects both copies of an exactly duplicated column before its last
# round; that round is unchecked, and LU meets an exactly zero pivot
REACHES_LU = dict(seed=0, l_count=3, m=5, extra=3, k_frac=1.0, bad=1, scale=1.0,
                  partner_in_support=True)


class TestCheckOnReturnedSupport:
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, l_count=st.integers(3, 6), m=st.integers(2, 10),
           extra=st.integers(1, 10), k_frac=st.floats(0.0, 1.0), bad=st.integers(1, 3),
           scale=st.sampled_from([1.0, 1.0 + 1e-7]), partner_in_support=st.booleans())
    @example(**REACHES_LU)
    def test_flags_match_every_round_check(self, **params):
        meas, obs, k, node = near_dependent_instance(**params)
        for path in SOLVER_PATHS:
            got = solver_outcome(path, meas, obs, k, node)
            want = every_round_checked(path, meas, obs, k, node)
            if isinstance(want, SingularProjectionError):
                assert isinstance(got, SingularProjectionError), path
            else:
                assert got == want, path

    def test_unchecked_singular_round_raises_through_lu(self):
        meas, obs, k, node = near_dependent_instance(**REACHES_LU)
        got = solver_outcome("somp", meas, obs, k, node)
        assert isinstance(got, SingularProjectionError)
        assert isinstance(got.__cause__, np.linalg.LinAlgError)
        assert isinstance(every_round_checked("somp", meas, obs, k, node),
                          SingularProjectionError)

"""Decentralized collaborative support recovery.

Three schemes over a connected topology:

* dcomp1 -- each node proposes the index best correlated with its own
  residual, exchanges the single index one hop, and adopts indices proposed
  by more than one node (index fusion only).
* dcomp2 -- each node first sums full correlation vectors over its one-hop
  neighborhood (measurement fusion), proposes the argmax, then all proposals
  are fused network-wide, so every node ends with the same support.
* domp_majority -- no collaboration during recovery: independent per-node OMP
  followed by one majority vote over the completed supports.

All three, and every other tag, run a chunk of trials through the one round
loop (`solve_chunk` over `greedy.greedy_rounds`) and state only their rule:
what a node scores, what it charges to its trial's MessageLedger and what it
adopts. `dcomp2`'s neighbourhood sum is an array operation over all trials
at once; index fusion runs per trial, network-wide (`dcomp1` in full mode,
`dcomp2`) by `index_fusion_full`'s rule and `dcomp1`'s one-hop rule node by
node. Multi-index fusion rounds let them terminate in fewer than k iterations.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .greedy import _lanes, greedy_rounds
from .network import MessageLedger, Topology


@dataclass
class FusionRound:
    """Per-round trace: proposals and fused sets by node."""

    iteration: int
    proposals: list           # per-node proposed index (None once a node stops)
    fused: list               # per-node admitted index lists (post-truncation)


@dataclass
class RecoveryResult:
    """Per-node estimated supports with iteration counts and the ledger."""

    per_node_support: list    # L sorted tuples
    iterations: list          # per-node round counts
    ledger: MessageLedger
    rounds: list = field(default_factory=list)

    @property
    def common_support(self) -> tuple:
        supports = {s for s in self.per_node_support}
        if len(supports) != 1:
            raise ValueError("nodes hold differing supports")
        return self.per_node_support[0]


def index_fusion_full(proposals) -> set:
    """Network-wide fusion: keep every index proposed at least twice.

    When all proposals are distinct, every node must still act on one common
    index; the deterministic pick is the proposal of the smallest node id, so
    no extra coordination traffic is needed. No proposal is ever held: the
    round loop masks held indices. The rule `dc-omp1` and `dc-omp2` run
    (`_network_wide`), with `_admit` ordering what it keeps.
    """
    return _agreed(Counter(proposals), proposals[0], ())


def index_fusion_neighborhood(own: int, received, prior) -> set:
    """One-hop fusion at a single node.

    Keeps multi-occurrence indices from {own} + received that the node does
    not already hold, so an index is never selected twice; with no such
    agreement the node keeps its own proposal.
    """
    return _agreed(Counter([own, *received]), own, prior)


def _agreed(counts: Counter, own: int, prior) -> set:
    """The indices heard at least twice (`counts`) that are not in `prior`,
    else `{own}`: `index_fusion_neighborhood` at one node, and with node 0's
    proposal as `own` and nothing prior, `index_fusion_full`."""
    return {idx for idx, c in counts.items() if c >= 2}.difference(prior) or {own}


def _admit(fused, need: int, counts: Counter, scores=None) -> list:
    """Order fused indices for adoption and truncate to the k budget.

    Descending occurrence count first; the optional per-node score breaks
    count ties (globally fused paths pass none, keeping every node's ordering
    identical); final tie-break is the smaller index.
    """
    if scores is None:
        key = lambda idx: (-counts[idx], idx)
    else:
        key = lambda idx: (-counts[idx], -float(scores[idx]), idx)
    return sorted(fused, key=key)[:need]


def _neighbor_table(topology: Topology) -> np.ndarray:
    """`(L, max(1, max degree))` sorted neighbour ids per node, padded with
    L, the row a neighbourhood sum appends as zeros."""
    l_count = topology.node_count
    width = max(1, *map(len, topology.adjacency))
    return np.array([[*nbrs] + [l_count] * (width - len(nbrs)) for nbrs in topology.adjacency],
                    dtype=np.intp)


def _neighborhood_sum(f: np.ndarray, table: np.ndarray) -> np.ndarray:
    """`f[:, l] + f[:, nbrs].sum(axis=1)` for every node l of every trial of
    `f (T, L, N)`, N ≥ 2, bit for bit: the neighbours are added in sorted
    order, as numpy reduces a C-contiguous `(degree, N)` array over its first
    axis, a padded slot adds an exact zero, and the node's own row comes
    last."""
    padded = np.concatenate([f, np.zeros_like(f[:, :1])], axis=1)
    total = padded[:, table[:, 0]]
    for column in table.T[1:]:
        total += padded[:, column]
    total += f
    return total


def solve_chunk(ys: np.ndarray, dictionaries: np.ndarray, topology: Topology, k: int,
                rule, rows: int = 1) -> list:
    """One tag on a chunk of T trials (shapes and `rows` as in
    `greedy.greedy_rounds`): T RecoveryResults, a one-row support being
    every node's. `rule(scores, supports, active, results)` is the loop's
    rule; it also charges and records each running trial on `results`."""
    copies = topology.node_count // rows
    results = [RecoveryResult([], [], MessageLedger(topology)) for _ in range(len(ys))]
    supports, iterations = greedy_rounds(ys, dictionaries, k, lambda scores, supports, active:
                                         rule(scores, supports, active, results), rows=rows)
    for result, own, last in zip(results, supports, iterations):
        result.per_node_support = [tuple(sorted(s)) for s in own] * copies
        result.iterations = last * copies
    return results


def _check_nodes(ys: np.ndarray, topology: Topology) -> None:
    if topology.node_count != ys.shape[1]:
        raise ValueError("topology size does not match observation count")


def _network_wide(propose, sent: tuple, k: int):
    """The one-row rule of a network-wide fusion tag: every node of each
    running trial sends `sent`, its (one-hop, network-wide) scalar counts;
    each trial's row of the `(T, L)` proposals `propose(scores)` is fused by
    `index_fusion_full`'s rule and ordered by `_admit`, and the trial
    records its round and adopts the fused indices at every node."""
    def rule(scores, supports, active, results):
        rows = propose(scores).tolist()
        out = []
        for t in active:
            counts = Counter(rows[t])
            fused = _admit(_agreed(counts, rows[t][0], ()), k - len(supports[t][0]), counts)
            results[t].ledger.send_all(*sent)
            rounds = results[t].rounds
            rounds.append(FusionRound(len(rounds) + 1, rows[t], [fused] * len(rows[t])))
            out.append([fused])
        return out
    return rule


def dcomp1(obs, meas, topology: Topology, k: int, mode: str = "full") -> RecoveryResult:
    """Collaborative OMP with per-iteration one-hop index fusion.

    Each node proposes its best-scoring index and sends it one hop.
    mode="full" assumes every node hears the whole network (complete
    topology required); all nodes then share one estimate throughout.
    mode="neighborhood" fuses within each node's one-hop neighborhood, so
    estimates (and termination rounds) may differ across nodes.
    """
    return dcomp1_chunk(*_lanes(obs, meas), topology, k, mode)[0]


def dcomp1_chunk(ys: np.ndarray, dictionaries: np.ndarray, topology: Topology, k: int,
                 mode: str = "full") -> list:
    """`dcomp1` on T trials at once, as lanes of the round loop (see
    `solve_chunk`); returns T RecoveryResults."""
    if mode not in ("full", "neighborhood"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "full" and not topology.is_complete():
        raise ValueError("full mode requires a complete topology")
    _check_nodes(ys, topology)
    l_count = topology.node_count

    # every node of a running trial proposes one index to every other
    fuse_full = _network_wide(lambda scores: scores.argmax(axis=2), (1, 0), k)

    def fuse_neighborhood(scores, supports, active, results):
        picks = scores.argmax(axis=2).tolist()
        out = []
        for t in active:
            ledger, own_supports, rounds = results[t].ledger, supports[t], results[t].rounds
            proposals = [None] * l_count
            for l in range(l_count):
                if len(own_supports[l]) < k:
                    proposals[l] = picks[t][l]
                    ledger.send_local(l, 1)
            adopted = [None] * l_count
            for l, own in enumerate(proposals):
                if own is not None:
                    # every neighbour that proposed this round is heard, as send_local charged
                    counts = Counter([own, *(proposals[j] for j in topology.adjacency[l]
                                             if proposals[j] is not None)])
                    prior = own_supports[l]
                    adopted[l] = _admit(_agreed(counts, own, prior), k - len(prior), counts,
                                        scores=scores[t, l])
            rounds.append(FusionRound(len(rounds) + 1, proposals, adopted))
            out.append(adopted)
        return out

    rule, rows = (fuse_full, 1) if mode == "full" else (fuse_neighborhood, l_count)
    return solve_chunk(ys, dictionaries, topology, k, rule, rows)


def dcomp2(obs, meas, topology: Topology, k: int) -> RecoveryResult:
    """Collaborative OMP with one-hop measurement fusion and global index fusion.

    Phase I: each node ships its full length-N correlation vector to its
    neighbors and proposes the argmax of the neighborhood sum. Phase II: the
    single proposed indices are exchanged network-wide and fused by
    multiplicity, so every node applies the identical update and all final
    supports agree.
    """
    return dcomp2_chunk(*_lanes(obs, meas), topology, k)[0]


def dcomp2_chunk(ys: np.ndarray, dictionaries: np.ndarray, topology: Topology,
                 k: int) -> list:
    """`dcomp2` on T trials at once, as lanes of the round loop (see
    `solve_chunk`); returns T RecoveryResults."""
    _check_nodes(ys, topology)
    n, table = dictionaries.shape[-1], _neighbor_table(topology)
    fuse = _network_wide(lambda f: _neighborhood_sum(f, table).argmax(axis=2), (n, 1), k)
    return solve_chunk(ys, dictionaries, topology, k, fuse)


def majority_vote(estimates, k: int) -> tuple:
    """The k indices with the most votes across per-node estimates; ties at
    the cut go to the smaller index."""
    votes = Counter()
    for est in estimates:
        votes.update(est)
    return tuple(sorted(_admit(votes, k, votes)))


def domp_majority(obs, meas, topology: Topology, k: int) -> RecoveryResult:
    """No-collaboration baseline: independent per-node OMP, one majority vote.

    Each node runs k OMP iterations on its own data, ships its k indices
    network-wide, and adopts the winning k-index set.
    """
    return domp_chunk(*_lanes(obs, meas), topology, k)[0]


def domp_chunk(ys: np.ndarray, dictionaries: np.ndarray, topology: Topology,
               k: int) -> list:
    """`domp_majority` on T trials at once, as lanes of the round loop (see
    `solve_chunk`): each node is a row of its own and adopts its own argmax
    every round. After k rounds every node ships its k indices network-wide
    and adopts the vote. Returns T RecoveryResults."""
    _check_nodes(ys, topology)
    results = solve_chunk(ys, dictionaries, topology, k, _own_argmax, rows=topology.node_count)
    for result in results:
        result.ledger.send_all(0, k)
        result.per_node_support = [majority_vote(result.per_node_support, k)] * topology.node_count
    return results


def _own_argmax(scores: np.ndarray, *_) -> list:
    """D-OMP's rule: every node adopts the argmax of its own scores."""
    return [[[i] for i in row] for row in scores.argmax(axis=2).tolist()]

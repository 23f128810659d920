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

The first two share one round loop, `_fusion_rounds`, and state only their
fusion rules. Multi-index fusion rounds let them terminate in fewer than k
iterations; every transmission is charged to a MessageLedger.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .greedy import _lockstep_select, correlate, ls_residual
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
    round loop masks held indices.
    """
    counts = Counter(proposals)
    return {idx for idx, c in counts.items() if c >= 2} or {proposals[0]}


def index_fusion_neighborhood(own: int, received, prior) -> set:
    """One-hop fusion at a single node.

    Keeps multi-occurrence indices from {own} + received that the node does
    not already hold, so an index is never selected twice; with no such
    agreement the node keeps its own proposal.
    """
    counts = Counter([own, *received])
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


def _fuse_network_wide(proposals, need: int) -> tuple:
    """Network-wide fusion of one proposal per node: `(proposals, adopted)`
    in which every node adopts the same indices in the same order, since no
    per-node score breaks count ties."""
    admitted = _admit(index_fusion_full(proposals), need, Counter(proposals))
    return proposals, [admitted] * len(proposals)


def _fusion_rounds(obs, meas, topology: Topology, k: int, fuse) -> RecoveryResult:
    """The round loop of the collaborative solvers.

    Each round, every node still short of k indices correlates its residual
    with its own dictionary; `fuse(scores, supports, ledger)` gets the (L, N)
    scores with held indices at -inf, charges what the nodes send and returns
    the per-node `(proposals, adopted)` lists, None for a node that has
    stopped. The nodes that adopted indices then deflate their residuals, one
    kernel call per distinct support size.
    """
    l_count, m = obs.per_node.shape
    if not 1 <= k <= m:
        raise ValueError(f"sparsity k must satisfy 1 <= k <= M, got k={k}, M={m}")
    if topology.node_count != l_count:
        raise ValueError("topology size does not match observation count")

    ledger = MessageLedger(topology)
    residuals = np.array(obs.per_node, dtype=float, copy=True)
    supports = [[] for _ in range(l_count)]
    held = np.zeros((l_count, meas.matrices.shape[2]), dtype=bool)   # supports as a mask
    iterations = [0] * l_count
    rounds = []
    round_no = 0
    while any(len(s) < k for s in supports):
        round_no += 1
        # every node's row, finished ones discarded: reading each matrix once
        # costs less than gathering the active ones
        scores = correlate(residuals, meas.matrices)
        scores[held] = -np.inf
        proposals, adopted = fuse(scores, supports, ledger)
        grown = [l for l in range(l_count) if adopted[l] is not None]
        for l in grown:
            supports[l].extend(adopted[l])
            iterations[l] = round_no
        held[[l for l in grown for _ in adopted[l]],
             [idx for l in grown for idx in adopted[l]]] = True
        for size in sorted({len(supports[l]) for l in grown}):
            lanes = [l for l in grown if len(supports[l]) == size]
            selected = [supports[l] for l in lanes]
            if len(lanes) == l_count:   # every node grew: the dictionaries as they are
                ys, dictionaries = obs.per_node, meas.matrices
            else:                       # a subset: gather only the s columns each lane reads
                ys = obs.per_node[lanes]
                dictionaries = meas.matrices[np.array(lanes)[:, None], :, selected]
                dictionaries, selected = np.swapaxes(dictionaries, 1, 2), range(size)
            residuals[lanes] = ls_residual(ys, dictionaries, selected, check=size == k)
        rounds.append(FusionRound(iteration=round_no, proposals=proposals, fused=adopted))

    return RecoveryResult(per_node_support=[tuple(sorted(s)) for s in supports],
                          iterations=iterations, ledger=ledger, rounds=rounds)


def dcomp1(obs, meas, topology: Topology, k: int, mode: str = "full") -> RecoveryResult:
    """Collaborative OMP with per-iteration one-hop index fusion.

    Each node proposes its best-scoring index and sends it one hop.
    mode="full" assumes every node hears the whole network (complete
    topology required); all nodes then share one estimate throughout.
    mode="neighborhood" fuses within each node's one-hop neighborhood, so
    estimates (and termination rounds) may differ across nodes.
    """
    if mode not in ("full", "neighborhood"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "full" and not topology.is_complete():
        raise ValueError("full mode requires a complete topology")
    l_count = topology.node_count

    def fuse(scores, supports, ledger):
        picks = scores.argmax(axis=1)
        proposals = [None] * l_count
        for l in range(l_count):
            if len(supports[l]) < k:
                proposals[l] = int(picks[l])
                ledger.send_local(l, 1)
        if mode == "full":   # every node active, one shared support
            return _fuse_network_wide(proposals, k - len(supports[0]))
        adopted = [None] * l_count
        for l in range(l_count):
            if proposals[l] is not None:
                # every neighbour that proposed this round is heard, as send_local charged
                received = [proposals[j] for j in topology.adjacency[l]
                            if proposals[j] is not None]
                fused = index_fusion_neighborhood(proposals[l], received, supports[l])
                adopted[l] = _admit(fused, k - len(supports[l]),
                                    Counter([proposals[l], *received]), scores=scores[l])
        return proposals, adopted

    return _fusion_rounds(obs, meas, topology, k, fuse)


def dcomp2(obs, meas, topology: Topology, k: int) -> RecoveryResult:
    """Collaborative OMP with one-hop measurement fusion and global index fusion.

    Phase I: each node ships its full length-N correlation vector to its
    neighbors and proposes the argmax of the neighborhood sum. Phase II: the
    single proposed indices are exchanged network-wide and fused by
    multiplicity, so every node applies the identical update and all final
    supports agree.
    """
    l_count, n = topology.node_count, meas.matrices.shape[2]
    neighbors = [list(nbrs) for nbrs in topology.adjacency]

    def fuse(f, supports, ledger):
        proposals = []
        for l in range(l_count):
            ledger.send_local(l, n)
            ledger.send_global(l, 1)
            proposals.append(int(np.argmax(f[l] + f[neighbors[l]].sum(axis=0))))
        return _fuse_network_wide(proposals, k - len(supports[0]))

    return _fusion_rounds(obs, meas, topology, k, fuse)


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
    return domp_chunk(np.asarray(obs.per_node, dtype=float)[None],
                      np.asarray(meas.matrices, dtype=float)[None], topology, k)[0]


def domp_chunk(ys: np.ndarray, dictionaries: np.ndarray, topology: Topology,
               k: int) -> list:
    """`domp_majority` on T trials at once: `ys (T, L, M)` against
    `dictionaries (T, L, M, N)`, or `(T, 1, M, N)` for one shared matrix per
    trial. Every node of every trial is one lane of one lockstep loop; the
    vote and the ledger stay per trial. Returns T RecoveryResults."""
    l_count = ys.shape[1]
    if topology.node_count != l_count:
        raise ValueError("topology size does not match observation count")
    results = []
    for estimates in _lockstep_select(ys, dictionaries, k, pooled=False).tolist():
        ledger = MessageLedger(topology)
        for l in range(l_count):
            ledger.send_global(l, k)
        fused = majority_vote(estimates, k)
        results.append(RecoveryResult(per_node_support=[fused] * l_count,
                                      iterations=[k] * l_count, ledger=ledger, rounds=[]))
    return results

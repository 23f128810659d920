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

Multi-index fusion rounds let the first two terminate in fewer than k
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


def index_fusion_full(proposals, already_selected) -> set:
    """Network-wide fusion: keep every index proposed at least twice.

    When all proposals are distinct, every node must still act on one common
    index; the deterministic pick is the proposal of the smallest node id not
    already selected, so no extra coordination traffic is needed.
    """
    proposals = list(proposals)
    counts = Counter(proposals)
    fused = {idx for idx, c in counts.items() if c >= 2}
    if fused:
        return fused
    already = set(already_selected)
    for proposal in proposals:           # node-id order
        if proposal not in already:
            return {proposal}
    return {proposals[0]}


def index_fusion_neighborhood(own: int, received, prior) -> set:
    """One-hop fusion at a single node.

    Keeps multi-occurrence indices from {own} + received; with no agreement
    the node keeps its own proposal. Agreed indices already held are dropped
    (falling back to the own proposal if nothing new remains) so an index is
    never selected twice.
    """
    prior = set(prior)
    counts = Counter([own, *received])
    alpha_star = {idx for idx, c in counts.items() if c >= 2}
    if not alpha_star:
        return {own}
    if alpha_star <= prior:
        return {own}
    return alpha_star - prior


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
    ordered = sorted(fused, key=key)
    return ordered[:need]


def dcomp1(obs, meas, topology: Topology, k: int, mode: str = "full") -> RecoveryResult:
    """Collaborative OMP with per-iteration one-hop index fusion.

    mode="full" assumes every node hears the whole network (complete
    topology required); all nodes then share one estimate throughout.
    mode="neighborhood" fuses within each node's one-hop neighborhood, so
    estimates (and termination rounds) may differ across nodes.
    """
    l_count, m = obs.per_node.shape
    if not 1 <= k <= m:
        raise ValueError(f"sparsity k must satisfy 1 <= k <= M, got k={k}, M={m}")
    if topology.node_count != l_count:
        raise ValueError("topology size does not match observation count")
    if mode not in ("full", "neighborhood"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "full" and not topology.is_complete():
        raise ValueError("full mode requires a complete topology")

    ledger = MessageLedger(topology)
    residuals = np.array(obs.per_node, dtype=float, copy=True)
    supports = [[] for _ in range(l_count)]
    held = np.zeros((l_count, meas.matrices.shape[2]), dtype=bool)   # supports as a mask
    iterations = [0] * l_count
    active = [True] * l_count
    rounds = []
    round_no = 0

    def adopt(l, admitted):
        fused_lists[l] = admitted
        supports[l].extend(admitted)
        held[l, admitted] = True
        active[l] = len(supports[l]) < k

    while any(active):
        round_no += 1
        proposals = [None] * l_count
        updated = [l for l in range(l_count) if active[l]]
        # every node's row, finished ones discarded: reading each matrix once
        # costs less than gathering the active ones
        scores = correlate(residuals, meas.matrices)
        picks = np.where(held, -np.inf, scores).argmax(axis=1)
        for l in updated:
            proposals[l] = int(picks[l])
            ledger.send_local(l, 1)

        fused_lists = [None] * l_count
        if mode == "full":   # every node active, one shared support
            fused = index_fusion_full(proposals, supports[0])
            # global: no per-node score, so every node admits the same order
            admitted = _admit(fused, k - len(supports[0]), Counter(proposals))
            for l in updated:
                adopt(l, admitted)
        else:
            for l in updated:
                # every neighbour that proposed this round is heard, as send_local charged
                received = [proposals[j] for j in topology.adjacency[l]
                            if proposals[j] is not None]
                fused = index_fusion_neighborhood(proposals[l], received, supports[l])
                adopt(l, _admit(fused, k - len(supports[l]),
                                Counter([proposals[l], *received]), scores=scores[l]))
        for size in sorted({len(supports[l]) for l in updated}):   # one call in full mode
            lanes = [l for l in updated if len(supports[l]) == size]
            residuals[lanes] = ls_residual(obs.per_node[lanes], meas.matrices[lanes],
                                           [supports[l] for l in lanes], check=size == k)
        for l in updated:
            iterations[l] = round_no
        rounds.append(FusionRound(iteration=round_no, proposals=proposals,
                                  fused=fused_lists))

    return RecoveryResult(per_node_support=[tuple(sorted(s)) for s in supports],
                          iterations=iterations, ledger=ledger, rounds=rounds)


def dcomp2(obs, meas, topology: Topology, k: int) -> RecoveryResult:
    """Collaborative OMP with one-hop measurement fusion and global index fusion.

    Phase I: each node ships its full length-N correlation vector to its
    neighbors and proposes the argmax of the neighborhood sum. Phase II: the
    single proposed indices are exchanged network-wide and fused by
    multiplicity, so every node applies the identical update and all final
    supports agree.
    """
    l_count, m = obs.per_node.shape
    n = meas.matrices.shape[2]
    if not 1 <= k <= m:
        raise ValueError(f"sparsity k must satisfy 1 <= k <= M, got k={k}, M={m}")
    if topology.node_count != l_count:
        raise ValueError("topology size does not match observation count")

    ledger = MessageLedger(topology)
    residuals = np.array(obs.per_node, dtype=float, copy=True)
    support = []                       # shared by construction
    rounds = []
    round_no = 0

    while len(support) < k:
        round_no += 1
        f = correlate(residuals, meas.matrices)   # (L, N)
        for l in range(l_count):
            ledger.send_local(l, n)
        proposals = []
        for l in range(l_count):
            g = f[l] + f[list(topology.adjacency[l])].sum(axis=0)
            g[support] = -np.inf
            proposals.append(int(np.argmax(g)))
        for l in range(l_count):
            ledger.send_global(l, 1)

        fused = index_fusion_full(proposals, support)
        admitted = _admit(fused, k - len(support), Counter(proposals))
        support.extend(admitted)
        residuals = ls_residual(obs.per_node, meas.matrices, support,
                                check=len(support) == k)
        rounds.append(FusionRound(iteration=round_no, proposals=proposals,
                                  fused=[admitted] * l_count))

    final = tuple(sorted(support))
    return RecoveryResult(per_node_support=[final] * l_count,
                          iterations=[round_no] * l_count, ledger=ledger, rounds=rounds)


def majority_vote(estimates, k: int) -> tuple:
    """The k indices with the most votes across per-node estimates; ties at
    the cut go to the smaller index."""
    votes = Counter()
    for est in estimates:
        votes.update(est)
    return tuple(sorted(sorted(votes, key=lambda idx: (-votes[idx], idx))[:k]))


def domp_majority(obs, meas, topology: Topology, k: int) -> RecoveryResult:
    """No-collaboration baseline: independent per-node OMP, one majority vote.

    Each node runs k OMP iterations on its own data, ships its k indices
    network-wide, and adopts the winning k-index set.
    """
    l_count = obs.per_node.shape[0]
    if topology.node_count != l_count:
        raise ValueError("topology size does not match observation count")
    ledger = MessageLedger(topology)
    estimates = _lockstep_select(np.asarray(obs.per_node, dtype=float),
                                 np.asarray(meas.matrices, dtype=float), k,
                                 pooled=False).tolist()
    for l in range(l_count):
        ledger.send_global(l, k)
    fused = majority_vote(estimates, k)
    return RecoveryResult(per_node_support=[fused] * l_count,
                          iterations=[k] * l_count, ledger=ledger, rounds=[])

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

The first two share one round loop, `_fusion_rounds`, which runs a chunk of
trials with every node of every trial as one lane, and state only their
fusion rules: network-wide fusion (`dcomp1` in full mode, `dcomp2`) and
`dcomp2`'s neighbourhood sum are array operations over all trials at once;
`dcomp1`'s one-hop rule runs node by node. Multi-index fusion rounds let
them terminate in fewer than k iterations; every transmission is charged to
a MessageLedger.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .greedy import _lane_index, _lockstep_select, correlate, ls_residual
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
    round loop masks held indices. The scalar specification of
    `_fuse_network_wide`.
    """
    counts = Counter(proposals)
    return {idx for idx, c in counts.items() if c >= 2} or {proposals[0]}


def index_fusion_neighborhood(own: int, received, prior) -> set:
    """One-hop fusion at a single node.

    Keeps multi-occurrence indices from {own} + received that the node does
    not already hold, so an index is never selected twice; with no such
    agreement the node keeps its own proposal.
    """
    return _agreed(Counter([own, *received]), own, prior)


def _agreed(counts: Counter, own: int, prior) -> set:
    """`index_fusion_neighborhood` from the counts of the heard proposals."""
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


def _fuse_network_wide(proposals: np.ndarray, active, needs, n: int) -> list:
    """Network-wide fusion of the trials `active` of `proposals (T, L)`, one
    index in [0, n) per node, trial `active[i]` admitting at most `needs[i]`
    indices. Per active trial `(proposals, adopted)`, in which every node
    adopts the same indices in the same order, `_admit(index_fusion_full(p),
    need, Counter(p))` on the trial's row p.

    An L×L equality count gives each node's proposal its multiplicity c; the
    key p - c·n orders by descending count, then ascending index, so one
    row-wise sort puts the repeated proposals first, each as a run of equal
    keys below -n. With none, node 0's proposal is kept.
    """
    l_count = proposals.shape[1]
    counts = (proposals[:, :, None] == proposals[:, None, :]).sum(axis=2)
    ranked = np.sort(proposals - counts * n, axis=1).tolist()
    rows = proposals.tolist()
    out = []
    for t, need in zip(active, needs):
        fused = [key % n for key in dict.fromkeys(ranked[t]) if key < -n] or rows[t][:1]
        out.append((rows[t], [fused[:need]] * l_count))
    return out


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


def _fusion_rounds(ys: np.ndarray, dictionaries: np.ndarray, topology: Topology, k: int,
                   fuse) -> list:
    """The round loop of the collaborative solvers, on a chunk of T trials:
    `ys (T, L, M)` against `dictionaries (T, L, M, N)`, or `(T, 1, M, N)`
    for one shared matrix per trial, as `algorithms._lanes` stacks them.
    Every node of every trial is one lane. Returns T RecoveryResults.

    Each round, one `correlate` call scores every lane, finished ones too
    (reading each matrix once costs less than gathering the active ones),
    and held indices are set to -inf. `fuse(scores, supports, ledgers,
    active)` gets the (T, L, N) scores, each trial's per-node support lists
    and ledger, and the indices of the trials still running; it charges what
    their nodes send and returns, per running trial, the per-node
    `(proposals, adopted)` lists, None for a node that has stopped. The
    lanes that adopted indices then deflate their residuals, one kernel call
    per distinct support size across the chunk.
    """
    t_count, l_count, m = ys.shape
    if not 1 <= k <= m:
        raise ValueError(f"sparsity k must satisfy 1 <= k <= M, got k={k}, M={m}")
    if topology.node_count != l_count:
        raise ValueError("topology size does not match observation count")

    ledgers = [MessageLedger(topology) for _ in range(t_count)]
    residuals = np.array(ys, dtype=float, copy=True)
    lane_dictionaries = np.broadcast_to(dictionaries, (t_count, l_count, *dictionaries.shape[2:]))
    supports = [[[] for _ in range(l_count)] for _ in range(t_count)]
    held = np.zeros(residuals.shape[:2] + dictionaries.shape[3:], dtype=bool)
    every_lane = _lane_index((t_count, l_count))
    iterations = [[0] * l_count for _ in range(t_count)]
    rounds = [[] for _ in range(t_count)]
    active = list(range(t_count))
    round_no = 0
    while active:
        round_no += 1
        scores = correlate(residuals, dictionaries)
        scores[held] = -np.inf
        grown = {}      # support size -> the (trial, node) lanes that reached it
        for t, (proposals, adopted) in zip(active, fuse(scores, supports, ledgers, active)):
            rounds[t].append(FusionRound(iteration=round_no, proposals=proposals, fused=adopted))
            for l, new in enumerate(adopted):
                if new is not None:
                    supports[t][l].extend(new)
                    iterations[t][l] = round_no
                    grown.setdefault(len(supports[t][l]), []).append((t, l))
        for size, lanes in grown.items():
            selected = np.array([supports[t][l] for t, l in lanes], dtype=np.intp)
            if len(lanes) == t_count * l_count:     # every lane: the dictionaries as they are
                selected = selected.reshape(t_count, l_count, size)
                held[(*every_lane, selected)] = True
                residuals = ls_residual(ys, dictionaries, selected, check=size == k)
            else:                                   # gather only the s columns each lane reads
                trials, nodes = np.array(lanes).T
                held[trials[:, None], nodes[:, None], selected] = True
                columns = lane_dictionaries[trials[:, None], nodes[:, None], :, selected]
                residuals[trials, nodes] = ls_residual(ys[trials, nodes], columns.swapaxes(1, 2),
                                                       range(size), check=size == k)
        active = [t for t in active if any(len(s) < k for s in supports[t])]

    return [RecoveryResult(per_node_support=[tuple(sorted(s)) for s in supports[t]],
                           iterations=iterations[t], ledger=ledgers[t], rounds=rounds[t])
            for t in range(t_count)]


def _chunk_of_one(obs, meas) -> tuple:
    """One trial's observations and matrices as a chunk of one."""
    return (np.asarray(obs.per_node, dtype=float)[None],
            np.asarray(meas.matrices, dtype=float)[None])


def dcomp1(obs, meas, topology: Topology, k: int, mode: str = "full") -> RecoveryResult:
    """Collaborative OMP with per-iteration one-hop index fusion.

    Each node proposes its best-scoring index and sends it one hop.
    mode="full" assumes every node hears the whole network (complete
    topology required); all nodes then share one estimate throughout.
    mode="neighborhood" fuses within each node's one-hop neighborhood, so
    estimates (and termination rounds) may differ across nodes.
    """
    return dcomp1_chunk(*_chunk_of_one(obs, meas), topology, k, mode)[0]


def dcomp1_chunk(ys: np.ndarray, dictionaries: np.ndarray, topology: Topology, k: int,
                 mode: str = "full") -> list:
    """`dcomp1` on T trials at once, as lanes of `_fusion_rounds` (which
    gives the shapes); returns T RecoveryResults."""
    if mode not in ("full", "neighborhood"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "full" and not topology.is_complete():
        raise ValueError("full mode requires a complete topology")
    l_count, n = topology.node_count, dictionaries.shape[-1]

    def fuse_full(scores, supports, ledgers, active):
        # every node of a running trial is active and holds the trial's one support
        for t in active:
            ledgers[t].send_all(1, 0)
        return _fuse_network_wide(scores.argmax(axis=2), active,
                                  [k - len(supports[t][0]) for t in active], n)

    def fuse_neighborhood(scores, supports, ledgers, active):
        picks = scores.argmax(axis=2).tolist()
        out = []
        for t in active:
            ledger, own_supports = ledgers[t], supports[t]
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
            out.append((proposals, adopted))
        return out

    return _fusion_rounds(ys, dictionaries, topology, k,
                          fuse_full if mode == "full" else fuse_neighborhood)


def dcomp2(obs, meas, topology: Topology, k: int) -> RecoveryResult:
    """Collaborative OMP with one-hop measurement fusion and global index fusion.

    Phase I: each node ships its full length-N correlation vector to its
    neighbors and proposes the argmax of the neighborhood sum. Phase II: the
    single proposed indices are exchanged network-wide and fused by
    multiplicity, so every node applies the identical update and all final
    supports agree.
    """
    return dcomp2_chunk(*_chunk_of_one(obs, meas), topology, k)[0]


def dcomp2_chunk(ys: np.ndarray, dictionaries: np.ndarray, topology: Topology,
                 k: int) -> list:
    """`dcomp2` on T trials at once, as lanes of `_fusion_rounds` (which
    gives the shapes); returns T RecoveryResults."""
    n = dictionaries.shape[-1]
    table = _neighbor_table(topology)

    def fuse(f, supports, ledgers, active):
        for t in active:
            ledgers[t].send_all(n, 1)
        return _fuse_network_wide(_neighborhood_sum(f, table).argmax(axis=2), active,
                                  [k - len(supports[t][0]) for t in active], n)

    return _fusion_rounds(ys, dictionaries, topology, k, fuse)


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
    return domp_chunk(*_chunk_of_one(obs, meas), topology, k)[0]


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

"""Connected node topologies and transmission accounting.

The ledger counts every transmitted scalar, split into one-hop (local) and
network-wide (global) categories, assuming pairwise delivery: a local send
reaches each neighbor separately, a global send reaches each of the other
L-1 nodes separately.
"""

from dataclasses import dataclass

import numpy as np

RANDOM_TOPOLOGY_MAX_RETRIES = 1000


@dataclass(frozen=True)
class Topology:
    """Undirected connected graph over node ids 0..node_count-1."""

    node_count: int
    adjacency: tuple            # per-node tuple of sorted neighbor ids

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def is_complete(self) -> bool:
        return all(len(nbrs) == self.node_count - 1 for nbrs in self.adjacency)


@dataclass
class MessageLedger:
    """Monotone counts of transmissions within one simulated run."""

    topology: Topology
    local_scalar_count: int = 0
    global_scalar_count: int = 0

    def send_local(self, sender: int, payload_len: int) -> None:
        """Deliver payload_len scalars to each one-hop neighbor of sender."""
        if payload_len < 1:
            raise ValueError("payload_len must be positive")
        self.local_scalar_count += payload_len * self.topology.degree(sender)

    def send_global(self, sender: int, payload_len: int) -> None:
        """Deliver payload_len scalars to every other node in the network."""
        if payload_len < 1:
            raise ValueError("payload_len must be positive")
        self.global_scalar_count += payload_len * (self.topology.node_count - 1)

    def send_all(self, local_len: int, global_len: int) -> None:
        """`send_from` with every node as a sender."""
        self.send_from(range(self.topology.node_count), local_len, global_len)

    def send_from(self, senders, local_len: int, global_len: int) -> None:
        """Each node of the sequence senders sends local_len scalars one hop
        and global_len network-wide, charged at once: one send_local and one
        send_global per sender. A zero length sends nothing."""
        if local_len < 0 or global_len < 0:
            raise ValueError("payload lengths must be nonnegative")
        adjacency = self.topology.adjacency
        self.local_scalar_count += local_len * sum(len(adjacency[s]) for s in senders)
        self.global_scalar_count += global_len * len(senders) * (self.topology.node_count - 1)


def _finalize(node_count: int, edge_set: set) -> Topology:
    adjacency = [[] for _ in range(node_count)]
    for i, j in edge_set:
        adjacency[i].append(j)
        adjacency[j].append(i)
    return Topology(node_count=node_count,
                    adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adjacency))


def _is_connected(node_count: int, adjacency) -> bool:
    if node_count == 0:
        return False
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for nbr in adjacency[node]:
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return len(seen) == node_count


def complete_topology(l_count: int) -> Topology:
    if l_count < 1:
        raise ValueError("l_count must be positive")
    edges = {(i, j) for i in range(l_count) for j in range(i + 1, l_count)}
    return _finalize(l_count, edges)


def ring_topology(l_count: int, n0: int) -> Topology:
    """Circulant graph where every node has exactly n0 neighbors.

    Even n0: links to the n0/2 nearest ids on each side. Odd n0 additionally
    links each node to its antipode, which requires an even l_count.
    """
    if l_count < 2:
        raise ValueError("ring topology needs l_count >= 2")
    if n0 < 1 or n0 >= l_count:
        raise ValueError(f"need 1 <= n0 < l_count, got n0={n0}, L={l_count}")
    if n0 % 2 == 1 and l_count % 2 == 1:
        raise ValueError("odd n0 requires an even l_count (antipodal link)")
    offsets = list(range(1, n0 // 2 + 1))
    if n0 % 2 == 1:
        offsets.append(l_count // 2)
    edges = set()
    for i in range(l_count):
        for off in offsets:
            j = (i + off) % l_count
            edges.add((min(i, j), max(i, j)))
    topo = _finalize(l_count, edges)
    if not _is_connected(l_count, topo.adjacency):
        raise ValueError(f"ring(n0={n0}) on L={l_count} nodes is disconnected")
    return topo


def random_connected_topology(l_count: int, p: float, rng: np.random.Generator) -> Topology:
    """Erdos-Renyi draw, rejected until connected (capped retries)."""
    if l_count < 2:
        raise ValueError("random topology needs l_count >= 2")
    if not 0 < p <= 1:
        raise ValueError(f"edge probability must be in (0, 1], got {p}")
    pairs = [(i, j) for i in range(l_count) for j in range(i + 1, l_count)]
    for _ in range(RANDOM_TOPOLOGY_MAX_RETRIES):
        mask = rng.random(len(pairs)) < p
        edges = {pair for pair, keep in zip(pairs, mask) if keep}
        topo = _finalize(l_count, edges)
        if _is_connected(l_count, topo.adjacency):
            return topo
    raise ValueError(
        f"no connected draw in {RANDOM_TOPOLOGY_MAX_RETRIES} tries (L={l_count}, p={p})")


def build_topology(kind: str, l_count: int, rng: np.random.Generator | None = None,
                   n0: int | None = None, p: float | None = None) -> Topology:
    """Connected topology of the requested family: complete, ring, or random."""
    if kind == "complete":
        return complete_topology(l_count)
    if kind == "ring":
        if n0 is None:
            raise ValueError("ring topology requires n0")
        return ring_topology(l_count, n0)
    if kind == "random":
        if p is None:
            raise ValueError("random topology requires edge probability p")
        if rng is None:
            raise ValueError("random topology requires an rng")
        return random_connected_topology(l_count, p, rng)
    raise ValueError(f"unknown topology kind {kind!r}")

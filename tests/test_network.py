"""Topology families and transmission accounting."""

import numpy as np
import pytest

from jspr.network import (
    MessageLedger,
    build_topology,
    complete_topology,
    random_connected_topology,
    ring_topology,
)


def bfs_connected(topology):
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for nbr in topology.adjacency[node]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen) == topology.node_count


class TestTopologies:
    def test_complete_degrees(self):
        topo = complete_topology(4)
        assert all(topo.degree(l) == 3 for l in range(4))
        assert topo.is_complete()

    def test_complete_single_node(self):
        topo = complete_topology(1)
        assert topo.adjacency == ((),)

    def test_ring_cycle(self):
        topo = ring_topology(5, 2)
        assert all(topo.degree(l) == 2 for l in range(5))
        assert bfs_connected(topo)
        assert topo.adjacency[0] == (1, 4)

    @pytest.mark.parametrize("n0", [3, 5, 7])
    def test_ring_odd_degrees(self, n0):
        topo = ring_topology(10, n0)
        assert all(topo.degree(l) == n0 for l in range(10))
        assert bfs_connected(topo)

    def test_ring_invalid(self):
        with pytest.raises(ValueError):
            ring_topology(10, 10)
        with pytest.raises(ValueError):
            ring_topology(9, 3)     # odd n0 needs even L
        with pytest.raises(ValueError):
            ring_topology(1, 1)

    def test_random_connected_and_deterministic(self):
        topo1 = build_topology("random", 10, rng=np.random.default_rng(3), p=0.3)
        topo2 = build_topology("random", 10, rng=np.random.default_rng(3), p=0.3)
        assert bfs_connected(topo1)
        assert topo1 == topo2

    def test_random_invalid(self):
        with pytest.raises(ValueError):
            random_connected_topology(5, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            random_connected_topology(1, 0.5, np.random.default_rng(0))

    def test_build_dispatch_errors(self):
        with pytest.raises(ValueError):
            build_topology("star", 5)
        with pytest.raises(ValueError):
            build_topology("ring", 5)        # n0 missing
        with pytest.raises(ValueError):
            build_topology("random", 5)      # p missing


class TestMessageLedger:
    def test_global_send_complete(self):
        ledger = MessageLedger(complete_topology(10))
        ledger.send_global(0, 1)
        assert ledger.global_scalar_count == 9
        assert ledger.local_scalar_count == 0

    def test_local_send_ring(self):
        ledger = MessageLedger(ring_topology(6, 2))
        ledger.send_local(3, 256)
        assert ledger.local_scalar_count == 512

    def test_counts_monotone_and_order_independent(self):
        topo = ring_topology(6, 2)
        first = MessageLedger(topo)
        second = MessageLedger(topo)
        sends = [(0, 4), (5, 1), (2, 7), (0, 2)]
        previous = 0
        for sender, payload in sends:
            first.send_local(sender, payload)
            assert first.local_scalar_count >= previous
            previous = first.local_scalar_count
        for sender, payload in reversed(sends):
            second.send_local(sender, payload)
        assert first.local_scalar_count == second.local_scalar_count

    @pytest.mark.parametrize("topology", [complete_topology(5), ring_topology(6, 2),
                                          random_connected_topology(7, 0.4,
                                                                    np.random.default_rng(3))])
    def test_send_all_is_one_send_per_node(self, topology):
        each, at_once = MessageLedger(topology), MessageLedger(topology)
        for sender in range(topology.node_count):
            each.send_local(sender, 256)
            each.send_global(sender, 1)
        at_once.send_all(256, 1)
        assert at_once == each
        at_once.send_all(1, 0)
        assert at_once.global_scalar_count == each.global_scalar_count
        with pytest.raises(ValueError):
            at_once.send_all(-1, 0)
        senders = list(range(0, topology.node_count, 2))    # send_from: some nodes only
        each, at_once = MessageLedger(topology), MessageLedger(topology)
        for sender in senders:
            each.send_local(sender, 3)
            each.send_global(sender, 2)
        at_once.send_from(senders, 3, 2)
        assert at_once == each

    def test_invalid_payload(self):
        ledger = MessageLedger(complete_topology(3))
        with pytest.raises(ValueError):
            ledger.send_local(0, 0)
        with pytest.raises(ValueError):
            ledger.send_global(0, -1)

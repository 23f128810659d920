"""The table of algorithm tags: each tag's runner, Table-1 ledger formula
and needs, read by the config check, the trial harness and
`table1_expected`.

A runner solves a chunk of T trials drawn as lanes
(`harness._draw_chunk`): observations `ys (T, L, M)` and dictionaries
`(T, L, M, N)`, or `(T, 1, M, N)` for one shared matrix per trial. It
returns one RecoveryResult per trial; a single trial is a chunk of one.
Every runner takes the whole chunk at once, its trials as extra lanes of
the one round loop (`decentralized.solve_chunk`), and states only its
tag's rule. The decentralized tags run `dcomp1`, `dcomp2` and
`domp_majority` themselves, and the table holds those function objects,
bound when it is built: re-pointing a module's name does not reach it.
"""

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .decentralized import _check_nodes, dcomp1, dcomp2, domp_majority, solve_chunk
from .greedy import pooled_argmax
from .network import Topology, complete_topology


@dataclass(frozen=True)
class Algorithm:
    """One tag's entry; table1 gives the expected ledger totals of one run
    from the per-node degrees and round counts."""

    run: Callable           # (ys, dictionaries, topology, k) -> one RecoveryResult per trial
    table1: Callable        # (l_count, k, n, degrees, t_nodes) -> (local, global)
    shared_matrix: bool = False   # needs one measurement matrix shared by all nodes


def _run_somp(ys, dictionaries, topology: Topology, k: int) -> list:
    """Centralized simultaneous OMP (`pooled_argmax`), charged as each node
    shipping its k*N correlation summaries network-wide."""
    _check_nodes(ys, topology)
    results = solve_chunk(ys, dictionaries, topology, k, pooled_argmax)
    for result in results:
        result.ledger.send_all(0, k * dictionaries.shape[-1])
    return results


def _run_mac(ys, dictionaries, topology: Topology, k: int) -> list:
    """OMP on the sum-channel output z = sum_l y_l, one lane per trial whose
    support every node adopts; no node-to-node messages to charge."""
    _check_nodes(ys, topology)
    return solve_chunk(ys.sum(axis=1, keepdims=True), dictionaries[:, :1], topology, k,
                       pooled_argmax)


ALGORITHMS = {
    # each node ships its k final indices network-wide
    "d-omp": Algorithm(
        run=domp_majority,
        table1=lambda l_count, k, n, degrees, t_nodes: (0, k * (l_count - 1) * l_count)),
    # runs on the complete graph whatever the topology: one index to each of
    # the L-1 other nodes per round
    "dc-omp1": Algorithm(
        run=lambda ys, dictionaries, topo, k, dcomp1=dcomp1: dcomp1(
            ys, dictionaries, complete_topology(topo.node_count), k, mode="full"),
        table1=lambda l_count, k, n, degrees, t_nodes: ((l_count - 1) * int(np.sum(t_nodes)), 0)),
    # one index to each neighbour per round: sum_l |G_l| T_l local
    "dc-omp1-nbr": Algorithm(
        run=functools.partial(dcomp1, mode="neighborhood"),
        table1=lambda l_count, k, n, degrees, t_nodes: (int(np.sum(degrees * t_nodes)), 0)),
    # N values to each neighbour plus one global index per round
    "dc-omp2": Algorithm(
        run=dcomp2,
        table1=lambda l_count, k, n, degrees, t_nodes: (int(np.sum(degrees * t_nodes)) * n,
                                                        int((l_count - 1) * np.sum(t_nodes)))),
    # each node ships k*N correlation summaries network-wide
    "s-omp": Algorithm(
        run=_run_somp,
        table1=lambda l_count, k, n, degrees, t_nodes: (0, l_count * (l_count - 1) * k * n)),
    "mac-omp": Algorithm(
        run=_run_mac, table1=lambda l_count, k, n, degrees, t_nodes: (0, 0),
        shared_matrix=True),
}
MAC_COMPARE = ("mac-omp", "s-omp")   # the paired tags of `jspr mac-compare`


def table1_expected(algorithm: str, l_count: int, k: int, n: int,
                    neighborhoods, t_observed) -> tuple:
    """Expected (local, global) scalar totals for one full run of `algorithm`
    over the given per-node neighbour sets.

    `t_observed` is the run's per-node round count (a scalar is broadcast).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm tag {algorithm!r}")
    t_nodes = np.broadcast_to(np.asarray(t_observed, dtype=int), (l_count,))
    degrees = np.asarray([len(nbrs) for nbrs in neighborhoods], dtype=int)
    if degrees.shape != (l_count,):
        raise ValueError("neighborhoods must list each node's neighbor set")
    return ALGORITHMS[algorithm].table1(l_count, k, n, degrees, t_nodes)

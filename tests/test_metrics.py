"""Support scoring, expected communication totals, and trial aggregation."""

import math

import numpy as np
import pytest

from jspr.algorithms import table1_expected
from jspr.metrics import (
    TrialRecord,
    aggregate,
    exact_recovery,
    support_fraction,
)
from jspr.network import complete_topology, ring_topology


def record(per_node_supports, truth=(1, 5), iters=2, local=0, glob=0):
    return TrialRecord(true_support=truth,
                       per_node_supports=per_node_supports,
                       iterations=[iters] * len(per_node_supports),
                       local_scalars=local, global_scalars=glob)


class TestScoring:
    def test_exact_recovery_order_free(self):
        assert exact_recovery((1, 5), (5, 1))
        assert not exact_recovery((1, 5), (1, 6))
        assert exact_recovery((), ())

    def test_support_fraction(self):
        assert support_fraction(tuple(range(10)), tuple(range(10))) == 1.0
        assert support_fraction((0, 1), (2, 3)) == 0.0
        estimated = tuple(range(7)) + (90, 91, 92)
        assert support_fraction(estimated, tuple(range(10))) == pytest.approx(0.7)
        with pytest.raises(ValueError):
            support_fraction((1,), ())


class TestTable1Expected:
    def test_somp_global(self):
        topo = complete_topology(10)
        assert table1_expected("s-omp", 10, 10, 256, topo.adjacency, 10) == (0, 230400)

    def test_domp_global(self):
        topo = complete_topology(10)
        assert table1_expected("d-omp", 10, 10, 256, topo.adjacency, 10) == (0, 900)

    def test_dcomp1_complete(self):
        topo = complete_topology(10)
        local, glob = table1_expected("dc-omp1", 10, 10, 256, topo.adjacency, 6)
        assert (local, glob) == (540, 0)

    def test_dcomp1_per_node_iterations(self):
        topo = ring_topology(4, 2)
        local, _ = table1_expected("dc-omp1-nbr", 4, 3, 16, topo.adjacency, [1, 2, 3, 1])
        assert local == 2 * (1 + 2 + 3 + 1)

    def test_dcomp2_totals(self):
        topo = ring_topology(6, 2)
        local, glob = table1_expected("dc-omp2", 6, 4, 32, topo.adjacency, 3)
        assert local == 6 * 2 * 32 * 3
        assert glob == 6 * 5 * 3

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            table1_expected("lasso", 4, 2, 16, complete_topology(4).adjacency, 2)


class TestAggregate:
    def test_all_success(self):
        stats = aggregate([record([(1, 5)] * 3) for _ in range(10)])
        assert stats.p_d == 1.0
        assert stats.p_d_stderr == 0.0
        assert stats.fraction == 1.0

    def test_half_success_binomial_stderr(self):
        records = [record([(1, 5)]) for _ in range(8)] + \
                  [record([(1, 6)]) for _ in range(8)]
        stats = aggregate(records)
        assert stats.p_d == 0.5
        assert stats.p_d_stderr == pytest.approx(0.5 / math.sqrt(16))

    def test_mixed_per_node_mean(self):
        # node 0 always right, node 1 right half the time, node 2 never
        records = [record([(1, 5), (1, 5), (0, 2)]),
                   record([(1, 5), (3, 4), (0, 2)])]
        stats = aggregate(records)
        assert stats.p_d == pytest.approx(0.5)

    def test_permutation_invariance(self):
        records = [record([(1, 5)], iters=3), record([(2, 3)], iters=1),
                   record([(1, 5)], iters=2)]
        forward = aggregate(records)
        backward = aggregate(list(reversed(records)))
        assert forward == backward

    def test_exact_recovery_implies_full_fraction(self):
        records = [record([(1, 5), (1, 6)]), record([(2, 9), (1, 5)])]
        stats = aggregate(records)
        assert stats.p_d <= stats.fraction + 1e-12

    def test_iteration_and_ledger_means(self):
        records = [record([(1, 5)], iters=2, local=10, glob=4),
                   record([(1, 5)], iters=4, local=30, glob=8)]
        stats = aggregate(records)
        assert stats.mean_iters == 3.0
        assert stats.iters_min == 2 and stats.iters_max == 4
        assert stats.local_scalars == 20.0
        assert stats.global_scalars == 6.0

    def test_means_equal_per_node_scoring(self):
        # each distinct support is scored once per record; the means are those
        # of scoring every node on its own
        truth = (1, 5, 7)
        per_node = [[truth] * 4, [(1, 5, 9)] * 4, [truth, (1, 2, 3), truth, [5, 7, 1]],
                    [(0, 2, 4), (1, 5, 9), (0, 2, 4), (1, 5, 9)]] * 3
        records = [record(supports, truth=truth) for supports in per_node]
        stats = aggregate(records)
        success = np.array([[exact_recovery(est, truth) for est in supports]
                            for supports in per_node], dtype=float)
        frac = np.array([[support_fraction(est, truth) for est in supports]
                         for supports in per_node])
        assert stats.p_d == float(success.mean())
        assert stats.fraction == float(frac.mean())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

"""Scoring recovered supports and reducing Monte Carlo trial records."""

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class TrialRecord:
    """Outcome of one algorithm on one trial."""

    true_support: tuple
    per_node_supports: list   # one tuple per node
    iterations: list          # per-node round counts
    local_scalars: int
    global_scalars: int


@dataclass
class AggregateStats:
    """Reduced statistics over the records of one (sweep point, algorithm),
    named and ordered as the sweep row's columns (harness.COLUMNS)."""

    p_d: float
    p_d_stderr: float
    fraction: float
    mean_iters: float
    iters_min: int
    iters_max: int
    local_scalars: float
    global_scalars: float
    trials: int


def exact_recovery(estimated, truth) -> bool:
    """True iff the two index sets are equal (indicator vectors match)."""
    return set(estimated) == set(truth)


def support_fraction(estimated, truth) -> float:
    """Fraction of the true support present in the estimate."""
    truth = set(truth)
    if not truth:
        raise ValueError("true support must be nonempty")
    return len(set(estimated) & truth) / len(truth)


def aggregate(records) -> AggregateStats:
    """Means and errors over trial records; per-node stats are averaged over
    nodes."""
    records = list(records)
    if not records:
        raise ValueError("no records to aggregate")

    node_counts = {len(r.per_node_supports) for r in records}
    if len(node_counts) != 1:
        raise ValueError("records disagree on node count")
    l_count = node_counts.pop()

    success, frac = [], []
    for rec in records:
        # the global tags repeat one support at every node: score each distinct one once
        scored = {}
        for est in map(tuple, rec.per_node_supports):
            if est not in scored:
                scored[est] = (exact_recovery(est, rec.true_support),
                               support_fraction(est, rec.true_support))
            hit, part = scored[est]
            success.append(hit)
            frac.append(part)
    success = np.array(success, dtype=float).reshape(len(records), l_count)
    frac = np.array(frac, dtype=float).reshape(len(records), l_count)
    iters = np.array([rec.iterations for rec in records], dtype=float)
    local = np.array([rec.local_scalars for rec in records], dtype=float)
    glob = np.array([rec.global_scalars for rec in records], dtype=float)

    p_d = float(success.mean())
    n = len(records)
    return AggregateStats(
        p_d=p_d,
        p_d_stderr=math.sqrt(max(p_d * (1.0 - p_d), 0.0) / n),
        fraction=float(frac.mean()),
        mean_iters=float(iters.mean()),
        iters_min=int(iters.min()),
        iters_max=int(iters.max()),
        local_scalars=float(local.mean()),
        global_scalars=float(glob.mean()),
        trials=n,
    )

"""Per-layer metrics from the spans of traced sweeps (see tracing.py).

Layers are jspr's modules. Unless a name says otherwise a value is per
paired trial: one (sweep point, trial index) with every configured
algorithm, or one oracle trial on `desk`. Every workload reports every
metric BENCHMARK.json lists; a layer a workload does not reach reads 0.
"""

import json
import os
import statistics
from collections import defaultdict

TAGS = ("d-omp", "dc-omp1", "dc-omp1-nbr", "dc-omp2", "s-omp", "mac-omp")
LAYERS = ("ensembles", "greedy", "decentralized", "harness", "metrics", "macbounds")
DRAW_SPANS = ("ensembles.gen_support", "ensembles.gen_signals",
              "ensembles.gen_measurements", "ensembles.measure")
FUSION_SPANS = ("decentralized.index_fusion_full", "decentralized.index_fusion_neighborhood",
                "decentralized.majority_vote")
EMIT_SPANS = ("harness.rows_to_csv", "harness.rows_to_json")
SOLVER_LAYER = {"solver.s-omp": "greedy", "solver.mac-omp": "macbounds"}  # others: decentralized

# Counts that must repeat exactly between traced sweeps of one seed.
REPEATING = ["ensembles.qr_calls", "greedy.ls_residual.calls",
             "greedy.correlate.mflop_computed", "decentralized.fusion.calls",
             "network.ledger.calls", "harness.exhaustive_oracle.calls",
             *[f"solver.{tag}.rounds" for tag in TAGS],
             *[f"network.{kind}_scalars.{tag}" for tag in TAGS for kind in ("local", "global")]]


def load(trace_dir: str) -> list:
    """(spans, counts) batches: the main process's, then each worker trial's."""
    with open(os.path.join(trace_dir, "main.json"), encoding="utf-8") as fh:
        batches = [json.load(fh)]
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("worker-"):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                batches.extend(json.loads(line) for line in fh)
    return batches


def _layer(name: str) -> str:
    if name.startswith("solver."):
        return SOLVER_LAYER.get(name, "decentralized")
    return name.split(".", 1)[0]


def _is_solver(name: str) -> bool:
    return name.startswith("solver.") or name == "greedy.omp"


def sweep_metrics(batches: list, paired: int, points: int) -> tuple:
    """Per-layer metrics of one traced sweep, and its run_trial times in ms."""
    total = defaultdict(float)    # span name -> summed duration in s
    calls = defaultdict(int)
    rounds = defaultdict(int)
    self_s = defaultdict(float)   # layer -> summed self time in s
    scalars = defaultdict(int)
    counts = defaultdict(int)
    solver_s = flop = child_cpu = pool_s = 0.0
    trial_ms = []
    for batch in batches:
        spans = batch["spans"]
        for key, value in batch["counts"].items():
            counts[key] += value
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, _, extra) in enumerate(spans):
            dur = end - start
            total[name] += dur
            calls[name] += 1
            self_s[_layer(name)] += dur - covered[i]
            if _is_solver(name):
                rounds[name] += extra["rounds"]
                ancestor = parent
                while ancestor >= 0 and not _is_solver(spans[ancestor][0]):
                    ancestor = spans[ancestor][3]
                if ancestor < 0:          # outermost solver call
                    solver_s += dur
                    flop += extra["flop"]
            elif name == "harness.run_trial":
                trial_ms.append(dur * 1e3)
                for tag, (local, glob) in extra.items():
                    scalars[f"network.local_scalars.{tag}"] += local
                    scalars[f"network.global_scalars.{tag}"] += glob
            elif name == "harness.run_point":
                child_cpu += extra["child_cpu_s"]
                pool_s += dur * extra["workers"]

    def per_trial_ms(*names):
        return sum(total[n] for n in names) * 1e3 / paired

    out = {
        "ensembles.draw_ms": per_trial_ms(*DRAW_SPANS),
        "ensembles.qr_calls": calls["ensembles.gen_orthoprojector"] / paired,
        "greedy.ls_residual.calls": calls["greedy.ls_residual"] / paired,
        "greedy.ls_residual.ms": per_trial_ms("greedy.ls_residual"),
        "greedy.ls_residual.share": total["greedy.ls_residual"] / solver_s if solver_s else 0.0,
        "greedy.correlate.mflop_computed": flop / 1e6 / paired,
        "decentralized.fusion.ms": per_trial_ms(*FUSION_SPANS),
        "decentralized.fusion.calls": sum(calls[n] for n in FUSION_SPANS) / paired,
        "network.ledger.calls": counts["network.ledger.calls"] / paired,
        "harness.run_point.s": (total["harness.run_point"] / calls["harness.run_point"]
                                if calls["harness.run_point"] else 0.0),
        "harness.worker_busy_share": child_cpu / pool_s if pool_s else 0.0,
        "harness.emit.ms": per_trial_ms(*EMIT_SPANS),
        "harness.exhaustive_oracle.ms": per_trial_ms("harness.exhaustive_oracle"),
        "harness.exhaustive_oracle.calls": calls["harness.exhaustive_oracle"] / paired,
        "metrics.aggregate.ms": total["metrics.aggregate"] * 1e3 / points,
    }
    for tag in TAGS:
        out[f"solver.{tag}.ms"] = per_trial_ms(f"solver.{tag}")
        out[f"solver.{tag}.rounds"] = rounds[f"solver.{tag}"] / paired
        for kind in ("local", "global"):
            key = f"network.{kind}_scalars.{tag}"
            out[key] = scalars[key] / paired
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_s[layer] * 1e3 / paired
    return out, trial_ms


def combine(per_sweep: list, trial_ms: list) -> tuple:
    """Median of each metric over traced sweeps, pooled run_trial percentiles,
    and the counts that failed to repeat exactly."""
    out = {name: statistics.median(m[name] for m in per_sweep) for name in per_sweep[0]}
    if len(trial_ms) >= 2:
        out["harness.run_trial.ms.p50"] = statistics.median(trial_ms)
        out["harness.run_trial.ms.p90"] = statistics.quantiles(trial_ms, n=10)[8]
    else:
        out["harness.run_trial.ms.p50"] = out["harness.run_trial.ms.p90"] = 0.0
    out["harness.run_trial.samples"] = len(trial_ms)
    unstable = [name for name in REPEATING
                if len({m[name] for m in per_sweep}) != 1]
    return out, unstable

"""Spans and counters around the public functions of each jspr module.

Nothing in jspr is edited: `install` replaces every binding of a traced
public function, in every loaded jspr module, with a timing wrapper, and
its `uninstall` puts the original back. Spans
are kept in memory. The main process writes them when the sweep ends; a pool
worker (forked after `install`) appends the spans of each trial it ran to its
own file, because pool workers exit without running exit handlers.

A span is `[name, start, end, parent, request, extra]`: `parent` indexes the
enclosing span of the same batch (-1 at top level), `request` is the trial
index of the enclosing `run_trial` call, and `extra` holds per-call facts
taken from the arguments and the result.
"""

import functools
import json
import os
import resource
import sys
import time
from collections import Counter

_perf = time.perf_counter


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _solver_extra(args, kwargs, result):
    """Rounds run, and correlation flops computed from shapes: 2*M*N per node
    and round. omp and mac_omp take an (M, N) dictionary, the other solvers a
    MeasurementEnsemble; list results ran k rounds at every node."""
    matrices = getattr(args[1], "matrices", None)
    if matrices is None:
        nodes, (m, n) = 1, args[1].shape
    else:
        nodes, m, n = matrices.shape
    if isinstance(result, list):
        rounds, node_rounds = len(result), nodes * len(result)
    else:
        rounds, node_rounds = max(result.iterations), sum(result.iterations)
    return {"rounds": rounds, "flop": 2 * m * n * node_rounds}


def _dcomp1_name(args, kwargs):
    return "solver.dc-omp1-nbr" if kwargs.get("mode", "full") == "neighborhood" \
        else "solver.dc-omp1"


def _trial_extra(args, kwargs, result):
    """Ledger totals per algorithm, as the harness recorded them."""
    return {alg: [rec.local_scalars, rec.global_scalars]
            for alg, rec in result.items() if rec is not None}


# (defining module, public name, span name or name function, extra function)
TRACED = (
    ("jspr.ensembles", "gen_support", "ensembles.gen_support", None),
    ("jspr.ensembles", "gen_signals", "ensembles.gen_signals", None),
    ("jspr.ensembles", "gen_measurements", "ensembles.gen_measurements", None),
    ("jspr.ensembles", "measure", "ensembles.measure", None),
    ("jspr.ensembles", "gen_orthoprojector", "ensembles.gen_orthoprojector", None),
    ("jspr.greedy", "ls_residual", "greedy.ls_residual", None),
    ("jspr.greedy", "omp", "greedy.omp", _solver_extra),
    ("jspr.greedy", "somp", "solver.s-omp", _solver_extra),
    ("jspr.decentralized", "domp_majority", "solver.d-omp", _solver_extra),
    ("jspr.decentralized", "dcomp1", _dcomp1_name, _solver_extra),
    ("jspr.decentralized", "dcomp2", "solver.dc-omp2", _solver_extra),
    ("jspr.decentralized", "index_fusion_full", "decentralized.index_fusion_full", None),
    ("jspr.decentralized", "index_fusion_neighborhood",
     "decentralized.index_fusion_neighborhood", None),
    ("jspr.decentralized", "majority_vote", "decentralized.majority_vote", None),
    ("jspr.macbounds", "mac_omp", "solver.mac-omp", _solver_extra),
    ("jspr.macbounds", "bound_report", "macbounds.bound_report", None),
    ("jspr.metrics", "aggregate", "metrics.aggregate", None),
    ("jspr.harness", "run_sweep", "harness.run_sweep", None),
    ("jspr.harness", "oracle_check", "harness.oracle_check", None),
    ("jspr.harness", "bounds_report", "harness.bounds_report", None),
    ("jspr.harness", "exhaustive_oracle", "harness.exhaustive_oracle", None),
    ("jspr.harness", "rows_to_csv", "harness.rows_to_csv", None),
    ("jspr.harness", "rows_to_json", "harness.rows_to_json", None),
)


class Tracer:
    """Span and counter store of one process; reset in a forked worker."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.worker = False
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.request = None

    def _own(self):
        if os.getpid() != self.pid:        # first call in a forked pool worker
            self.pid = os.getpid()
            self.worker = True
            self.spans, self.stack, self.counts, self.request = [], [], Counter(), None

    def wrap(self, fn, name, extra=None, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._own()
            state = before(args, kwargs) if before else None
            span_name = name(args, kwargs) if callable(name) else name
            rec = [span_name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                   tracer.request, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _perf()
                tracer.stack.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, result)
            if after is not None:
                after(rec, state, args, kwargs)
            return result
        return traced

    def count(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer._own()
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # run_trial: carries the trial index as request id; workers flush per trial
    def _trial_before(self, args, kwargs):
        self.request = args[0].trial_index

    def _trial_after(self, rec, state, args, kwargs):
        self.request = None
        if self.worker and not self.stack:
            path = os.path.join(self.out_dir, f"worker-{self.pid}.jsonl")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")
            self.spans, self.counts = [], Counter()

    # run_point: child CPU over the point is the pool workers' CPU
    @staticmethod
    def _point_before(args, kwargs):
        return _children_cpu()

    @staticmethod
    def _point_after(rec, state, args, kwargs):
        rec[5] = {"child_cpu_s": _children_cpu() - state, "workers": args[0].workers}

    def dump(self):
        path = os.path.join(self.out_dir, "main.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _rebind(original, replacement):
    """Point every jspr binding of `original` at `replacement`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "jspr" or mod_name.startswith("jspr."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(out_dir: str):
    """Wrap the traced public functions of every loaded jspr module; returns
    the tracer and a function that puts the originals back."""
    import jspr.harness
    import jspr.network

    tracer = Tracer(out_dir)
    harness = jspr.harness
    swaps = [(getattr(sys.modules[mod_name], attr), name, extra, None, None)
             for mod_name, attr, name, extra in TRACED]
    swaps += [(harness.run_trial, "harness.run_trial", _trial_extra,
               tracer._trial_before, tracer._trial_after),
              (harness.run_point, "harness.run_point", None,
               tracer._point_before, tracer._point_after)]
    undo = []
    for original, name, extra, before, after in swaps:
        wrapped = tracer.wrap(original, name, extra, before, after)
        _rebind(original, wrapped)
        undo.append((wrapped, original))
    ledger = jspr.network.MessageLedger
    methods = {m: getattr(ledger, m) for m in ("send_local", "send_global")}
    for method, original in methods.items():
        setattr(ledger, method, tracer.count(original, "network.ledger.calls"))

    def uninstall():
        for wrapped, original in undo:
            _rebind(wrapped, original)
        for method, original in methods.items():
            setattr(ledger, method, original)
    return tracer, uninstall

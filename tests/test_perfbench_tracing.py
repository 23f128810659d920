"""perfbench's tracer installs on the package as it stands: every name it
wraps exists, uninstalling puts every binding back, and a traced sweep
computes what an untraced one does."""

import importlib.util
import sys
from pathlib import Path

import jspr.harness  # imports every module the tracer wraps
from jspr.algorithms import ALGORITHMS
from jspr.config import ExperimentConfig
from jspr.network import ring_topology

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(traced) -> dict:
    """The current binding of every traced (module, name); a name the
    package no longer defines raises AttributeError naming it."""
    return {(mod, attr): getattr(sys.modules[mod], attr) for mod, attr, _, _ in traced}


def test_install_wraps_every_traced_name_and_uninstall_restores_it(tmp_path):
    tracing = load_tracing()
    before = bindings(tracing.TRACED)
    _, uninstall = tracing.install(str(tmp_path))
    try:
        wrapped = bindings(tracing.TRACED)
    finally:
        uninstall()
    assert [key for key, fn in before.items() if wrapped[key] is fn] == []
    after = bindings(tracing.TRACED)
    assert [key for key, fn in before.items() if after[key] is not fn] == []


def test_traced_chunk_equals_untraced(tmp_path):
    # the tracer re-points every module name `dcomp1`, `dcomp2`,
    # `domp_majority` and `somp` at a wrapper that reads one trial's
    # arguments; the algorithm table holds its solvers as objects, so no tag
    # of a sweep reaches those wrappers and the records do not change
    tracing = load_tracing()
    cfg = ExperimentConfig(n=24, k=2, l_values=[4], m_values=[8], trials=3, master_seed=5,
                           algorithms=sorted(ALGORITHMS))
    topology = ring_topology(4, 2)
    untraced = jspr.harness.run_chunk(cfg, 8, [(4, topology)], range(3))
    _, uninstall = tracing.install(str(tmp_path))
    try:
        traced = jspr.harness.run_chunk(cfg, 8, [(4, topology)], range(3))
    finally:
        uninstall()
    assert all(record is not None for trial in untraced[0] for record in trial.values())
    assert traced == untraced

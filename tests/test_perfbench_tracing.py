"""perfbench's tracer installs on the package as it stands: every name it
wraps exists, and uninstalling puts every binding back."""

import importlib.util
import sys
from pathlib import Path

import jspr.harness  # noqa: F401  (imports every module the tracer wraps)

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

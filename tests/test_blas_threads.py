"""jspr pins BLAS to one thread on import, and its outputs do not depend on
the BLAS thread count. Each check runs in a fresh interpreter, because
numpy reads the thread variables once, when it is first imported."""

import os
import pathlib
import subprocess
import sys

import pytest

from test_golden import DIGESTS

ROOT = pathlib.Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(code: str, **env_vars) -> str:
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    env.update(env_vars)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_import_pins_one_thread():
    code = ("import os, jspr\n"
            "print(*(os.environ[v] for v in "
            "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))")
    assert run_python(code) == "1 1 1"


def test_caller_setting_wins():
    code = "import os, jspr; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, OPENBLAS_NUM_THREADS="3") == "3"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_pin_precedes_numpy_load():
    # an OpenBLAS loaded before the pin would have started its thread pool
    code = "import os, jspr; print(len(os.listdir('/proc/self/task')))"
    assert run_python(code) == "1"


def test_golden_digest_with_two_blas_threads():
    code = ("import pathlib, tempfile\n"
            "from test_golden import output_digest\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            "    print(output_digest('sweep-m-ring', pathlib.Path(tmp)))")
    assert run_python(code, OPENBLAS_NUM_THREADS="2") == DIGESTS["sweep-m-ring"]

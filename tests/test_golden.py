"""Golden outputs: the CLI's bytes for small pinned configurations.

Each case runs one CLI command on a pinned config, seed and trial count
and compares the sha256 of the output file with the digest recorded when
the case was added. Together the cases run every algorithm tag: the five
network solvers on a ring through sweep-m, sweep-l and sweep-neighborhood
(the last as JSON), on a random topology through sweep-l with trials sent
to a two-worker pool, and mac-omp with s-omp through mac-compare. They
also pin the bound report, on a small and on a larger support space, and
the oracle check. A change that is meant to alter what the
solvers compute must re-record these digests and say why; any other change
must leave them as they are.

To print the current digests: `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import pathlib
import tempfile

import pytest

from jspr.cli import main

NETWORK_ALGORITHMS = "d-omp, dc-omp1, dc-omp1-nbr, dc-omp2, s-omp"

CASES = {
    "sweep-m-ring": ("sweep-m", f"""
n = 64
k = 5
l = 6
m = 8, 12, 20
topology = ring
n0 = 4
sigma2 = 0.05
amp_low = -3
amp_high = 3
algorithms = {NETWORK_ALGORITHMS}
trials = 30
seed = 20261018
"""),
    "sweep-l-ring": ("sweep-l", f"""
n = 64
k = 4
l = 4, 7
m = 12
topology = ring
n0 = 2
sigma2 = 0.01
algorithms = {NETWORK_ALGORITHMS}
trials = 30
seed = 7
"""),
    "mac-compare": ("mac-compare", """
n = 64
k = 4
l = 5
m = 8, 16
sigma2 = 0.01
trials = 30
seed = 3
"""),
    "bounds-exact": ("bounds", """
n = 12
k = 2
l = 3
m = 6
sigma2 = 0.1
seed = 5
"""),
    "bounds-large": ("bounds", """
n = 64
k = 3
l = 4
m = 16
seed = 8
"""),
    "sweep-n0-ring-json": ("sweep-neighborhood", f"""
n = 64
k = 4
l = 8
m = 12
topology = ring
n0 = 2, 3, 6
sigma2 = 0.02
algorithms = {NETWORK_ALGORITHMS}
trials = 20
seed = 11
format = json
"""),
    "sweep-l-random": ("sweep-l", f"""
n = 64
k = 4
l = 6, 9
m = 12
topology = random
p = 0.4
sigma2 = 0.01
algorithms = {NETWORK_ALGORITHMS}
trials = 20
seed = 4
workers = 2
"""),
    "oracle-check": ("oracle-check", """
n = 10
k = 3
l = 3
m = 6
trials = 20
seed = 2
"""),
}

DIGESTS = {
    "bounds-exact": "8bef6d973154de074c08a7e723aba7984d1e1837395083a5e39f0415aecf854c",
    "bounds-large": "56c95827aceabeba630e6a2a11d945643aab416f1b4702b8865004ddb1e24456",
    "mac-compare": "36148e72c98368c80949199580e3c6b6c2d5d71278b2de7b7a00d504846ade5d",
    "oracle-check": "1613178889f6e604eb4b63221b9b426dd978e3f7118b7ddf3f0cc75ff517653d",
    "sweep-l-random": "084ba23a4e656d0200d918e67c32107d4bfe59a9fe700a4e94a53bf1b5798b16",
    "sweep-l-ring": "5faca6eb3a35656e3793b0a55afa3cc3fb86b48e4ec8349ec0c62cb57780d525",
    "sweep-m-ring": "4ec3fa811fb7d9e777c3b6aabac956326a5327fa982e9ca04f402be9b16af296",
    "sweep-n0-ring-json": "202de47d9ac332b00826df49afd00121ac49a1d9c9d23f456b3a5d54bc4d81e7",
}


def output_digest(name: str, tmp_dir) -> str:
    command, text = CASES[name]
    cfg = tmp_dir / f"{name}.cfg"
    cfg.write_text(text)
    out = tmp_dir / f"{name}.out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_digest_unchanged(name, tmp_path):
    assert output_digest(name, tmp_path) == DIGESTS[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            print(f'    "{case}": "{output_digest(case, pathlib.Path(tmp))}",')

"""Golden outputs: the CLI's bytes for small pinned configurations.

Each case runs one CLI command on a pinned config, seed and trial count
and compares the output, byte for byte, with the file stored for it under
`tests/golden/<case>.out`; each stored file must hash to the sha256 digest
recorded for it in DIGESTS, so the two change together. Together the
cases run every algorithm tag: the five network solvers on a ring through
sweep-m, sweep-l and sweep-neighborhood (the last as JSON), on a random
topology through sweep-l with trials sent to a two-worker pool, and
mac-omp with s-omp through mac-compare. They also pin the bound report,
on a small and on a larger support space, and the oracle check three
times: once where nearly every trial is settled from the greedy supports'
own costs, once where most trials need the full cost table, and once at
k = 10, where every candidate takes the SVD rule without a QR. A change
that is meant to alter what the solvers compute must re-record the files
and digests and say why; any other change must leave them as they are.
On a mismatch the failure shows the first differing lines, each with its
row's sweep_var and algorithm, and the numpy and BLAS versions.

To rewrite the stored files and print their digests:
`PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import itertools
import pathlib
import tempfile

import numpy as np
import pytest

from jspr.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
SHOWN_LINES = 4           # differing lines a mismatch report shows

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
    # most of these trials cannot be settled from the greedy supports' own
    # costs and go through oracle-check's full cost tables
    "oracle-check-fallback": ("oracle-check", """
n = 10
k = 4
l = 2
m = 5
trials = 20
seed = 2
"""),
    # k = 10: τ_k ≥ 1, so the oracle runs no QR and scores every candidate
    # by its SVD rule
    "oracle-check-svd": ("oracle-check", """
n = 12
k = 10
l = 2
m = 11
trials = 20
seed = 2
"""),
}

DIGESTS = {
    "bounds-exact": "8bef6d973154de074c08a7e723aba7984d1e1837395083a5e39f0415aecf854c",
    "bounds-large": "56c95827aceabeba630e6a2a11d945643aab416f1b4702b8865004ddb1e24456",
    "mac-compare": "36148e72c98368c80949199580e3c6b6c2d5d71278b2de7b7a00d504846ade5d",
    "oracle-check": "1613178889f6e604eb4b63221b9b426dd978e3f7118b7ddf3f0cc75ff517653d",
    "oracle-check-fallback": "f0199b892966be74cc8acaa4699e3af0ce089c1cc9a1e6254826477dcc77f650",
    "oracle-check-svd": "7ec26ae59c6dcddca66915ead97b27fddb24bb90c804a670318817ee50124337",
    "sweep-l-random": "084ba23a4e656d0200d918e67c32107d4bfe59a9fe700a4e94a53bf1b5798b16",
    "sweep-l-ring": "5faca6eb3a35656e3793b0a55afa3cc3fb86b48e4ec8349ec0c62cb57780d525",
    "sweep-m-ring": "4ec3fa811fb7d9e777c3b6aabac956326a5327fa982e9ca04f402be9b16af296",
    "sweep-n0-ring-json": "202de47d9ac332b00826df49afd00121ac49a1d9c9d23f456b3a5d54bc4d81e7",
}


def case_output(name: str, tmp_dir) -> bytes:
    command, text = CASES[name]
    cfg = tmp_dir / f"{name}.cfg"
    cfg.write_text(text)
    out = tmp_dir / f"{name}.out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out.read_bytes()


def output_digest(name: str, tmp_dir) -> str:
    return hashlib.sha256(case_output(name, tmp_dir)).hexdigest()


def row_of(lines, i: int) -> str:
    """The sweep_var and algorithm of the row holding line i of a sweep's CSV
    or JSON output (rows_to_json lists those two keys first); '-' for a line
    of a document without rows."""
    if not lines[0].startswith(("[", "{")):
        var, alg = (lines[i].split(",") + ["", ""])[:2]
    else:
        opening = max((j for j in range(i + 1) if lines[j].strip() == "{"), default=-1)
        if opening < 0 or not lines[opening + 1].strip().startswith('"sweep_var":'):
            return "-"
        var, alg = (lines[j].split(":", 1)[1].strip(' ,"') for j in (opening + 1, opening + 2))
    return f"sweep_var={var} algorithm={alg}"


def mismatch_report(name: str, got: bytes, want: bytes) -> str:
    """The first differing lines of a case's output against its stored file,
    each with its row, and the numpy and BLAS versions."""
    got_lines, want_lines = got.decode().splitlines(), want.decode().splitlines()
    differing = [i for i, (g, w) in enumerate(itertools.zip_longest(got_lines, want_lines))
                 if g != w]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = [f"{name}: {len(differing)} of {len(want_lines)} lines differ from "
              f"tests/golden/{name}.out (numpy {np.__version__}, "
              f"BLAS {blas.get('name')} {blas.get('version')})"]
    for i in differing[:SHOWN_LINES]:
        lines = want_lines if i < len(want_lines) else got_lines
        report += [f"  line {i + 1} ({row_of(lines, i)}):",
                   f"    want {want_lines[i] if i < len(want_lines) else '(none)'}",
                   f"    got  {got_lines[i] if i < len(got_lines) else '(none)'}"]
    return "\n".join(report)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_digest_unchanged(name, tmp_path):
    stored = (GOLDEN / f"{name}.out").read_bytes()
    assert hashlib.sha256(stored).hexdigest() == DIGESTS[name], \
        f"tests/golden/{name}.out does not hash to its digest"
    got = case_output(name, tmp_path)
    assert got == stored, mismatch_report(name, got, stored)


def test_mismatch_report_names_the_rows_that_moved():
    csv = (GOLDEN / "sweep-m-ring.out").read_text().splitlines()
    moved = csv[:2] + [csv[2].replace(",", ",x", 2)] + csv[3:]
    report = mismatch_report("sweep-m-ring", "\n".join(moved).encode(),
                             "\n".join(csv).encode())
    var, alg = csv[2].split(",")[:2]
    assert f"1 of {len(csv)} lines differ" in report
    assert f"line 3 (sweep_var={var} algorithm={alg})" in report
    assert f"numpy {np.__version__}" in report
    rows = (GOLDEN / "sweep-n0-ring-json.out").read_text().splitlines()
    p_d = max(i for i, line in enumerate(rows) if '"p_d":' in line)      # the last row's
    moved = rows[:p_d] + ['    "p_d": -1.0,'] + rows[p_d + 1:]
    report = mismatch_report("sweep-n0-ring-json", "\n".join(moved).encode(),
                             "\n".join(rows).encode())
    var = rows[p_d - 2].split(":", 1)[1].strip(" ,")
    alg = rows[p_d - 1].split(":", 1)[1].strip(' ,"')
    assert f"line {p_d + 1} (sweep_var={var} algorithm={alg})" in report


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            output = case_output(case, pathlib.Path(tmp))
            (GOLDEN / f"{case}.out").write_bytes(output)
            print(f'    "{case}": "{hashlib.sha256(output).hexdigest()}",')

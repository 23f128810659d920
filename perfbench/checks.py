"""Output checks for every sweep the benchmark runs.

On the default seed the output must match, byte for byte, the digest
recorded in digests.json. On any seed the rows must satisfy the paper's
Table-1 ledger identities, to the precision the CSV prints, and every row
must account for all configured trials.
"""

import json

CSV_HEADER = ("sweep_var,algorithm,p_d,p_d_stderr,fraction,mean_iters,"
              "iters_min,iters_max,local_scalars,global_scalars,trials,"
              "failed_trials,seed")
MEAN_ITERS_HALF_ULP = 0.5e-4     # mean_iters is printed with 4 decimals
SCALARS_REL = 1e-9               # scalar means are printed with 10 significant digits


def parse_config(text: str) -> dict:
    """key -> value string of a flat `key = value` config."""
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def int_list(value: str) -> list:
    return [int(v) for v in value.split(",") if v.strip()]


def table1(alg: str, l_count: int, n0: int, k: int, n: int, mean_iters: float):
    """Expected (local, global) scalars per trial as (value, slack) pairs; the
    slack is what the printed precision of mean_iters allows."""
    def per_round(coef):
        return coef * mean_iters, coef * MEAN_ITERS_HALF_ULP

    exact_zero = (0, 0.0)
    return {
        "s-omp": (exact_zero, (l_count * (l_count - 1) * k * n, 0.0)),
        "d-omp": (exact_zero, (k * (l_count - 1) * l_count, 0.0)),
        "dc-omp2": (per_round(n0 * l_count * n), per_round((l_count - 1) * l_count)),
        "dc-omp1": (per_round((l_count - 1) * l_count), exact_zero),
        "dc-omp1-nbr": (per_round(n0 * l_count), exact_zero),
        "mac-omp": (exact_zero, exact_zero),
    }[alg]


def check_rows(text: str, cfg: dict, command: str, algorithms: list, trials: int,
               seed: int) -> list:
    """Problems found in a sweep CSV; an empty list means it passed."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["CSV header differs"]
    sweep_key = "l" if command == "sweep-l" else "m"
    points = int_list(cfg[sweep_key])
    expected_keys = [(p, alg) for p in points for alg in algorithms]
    rows = [line.split(",") for line in lines[1:]]
    if [(int(r[0]), r[1]) for r in rows] != expected_keys:
        return [f"rows are not {len(points)} points x {algorithms}"]
    n, k = int(cfg["n"]), int(cfg["k"])
    problems = []
    for r in rows:
        point, alg = int(r[0]), r[1]
        mean_iters, local, glob = float(r[5]), float(r[8]), float(r[9])
        n_trials, failed, row_seed = int(r[10]), int(r[11]), int(r[12])
        l_count = point if sweep_key == "l" else int(cfg["l"])
        n0 = int(cfg["n0"]) if cfg.get("topology") == "ring" else l_count - 1
        where = f"point {point} {alg}"
        if n_trials + failed != trials:
            problems.append(f"{where}: trials {n_trials} + failed {failed} != {trials}")
        if row_seed != seed:
            problems.append(f"{where}: seed {row_seed} != {seed}")
        for name, got, (want, slack) in zip(("local", "global"), (local, glob),
                                            table1(alg, l_count, n0, k, n, mean_iters)):
            if abs(got - want) > slack + SCALARS_REL * abs(want):
                problems.append(f"{where}: {name} scalars {got} != Table-1 {want}")
    return problems


def failed_pairs(text: str) -> int:
    """Failed (trial, algorithm) pairs a sweep CSV reports."""
    return sum(int(line.split(",")[11]) for line in text.splitlines()[1:])


def check_oracle(text: str, cfg: dict, trials: int, seed: int) -> list:
    """Problems found in an oracle-check JSON document."""
    doc = json.loads(text)
    problems = []
    if doc.get("trials") != trials:
        problems.append(f"trials {doc.get('trials')} != {trials}")
    want = {key: int(cfg[key]) for key in ("n", "k", "l", "m")}
    want["seed"] = seed
    if doc.get("params") != want:
        problems.append(f"params {doc.get('params')} != {want}")
    for key in ("omp_oracle_agreement", "somp_oracle_agreement", "dcomp2_somp_matches"):
        if not 0 <= doc.get(key, -1) <= trials:
            problems.append(f"{key} {doc.get(key)} outside [0, {trials}]")
    return problems

"""Config-driven Monte Carlo sweeps, bound reports, and a brute-force oracle.

Every trial draws a fresh ensemble, measurement matrices, and noise from
purpose-split seed streams, so runs are reproducible byte-for-byte (also
under parallel trial execution and whatever the chunk size) and all
algorithms at a sweep point consume identical data (paired trials).
"""

import contextlib
import dataclasses
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import seeding
from .algorithms import ALGORITHMS
from .config import ExperimentConfig
from .decentralized import dcomp2
from .ensembles import gen_measurements, gen_signals, gen_support, measure
from .errors import (ConfigError, EnumerationTooLargeError, SingularProjectionError,
                     TrialError)
from .greedy import _lockstep_select
from .macbounds import bound_report
from .metrics import TrialRecord, aggregate
from .network import Topology, build_topology, complete_topology

# The sweep row: (column, format spec) in output order. CSV cells are
# format(row[column], spec); JSON keeps the unformatted values.
COLUMNS = (
    ("sweep_var", "d"), ("algorithm", "s"),
    ("p_d", ".6f"), ("p_d_stderr", ".6f"), ("fraction", ".6f"),
    ("mean_iters", ".4f"), ("iters_min", "d"), ("iters_max", "d"),
    ("local_scalars", ".10g"), ("global_scalars", ".10g"),
    ("trials", "d"), ("failed_trials", "d"), ("seed", "d"),
)
CSV_HEADER = ",".join(name for name, _ in COLUMNS)
ORACLE_CAP = 10 ** 5
_ORACLE_BLOCK = 256       # candidate supports per stacked SVD in the oracle
_CHUNK_BYTES = 1 << 20    # distinct dictionary bytes per chunk of trials
MAX_FAILED_FRACTION = 0.01


@dataclasses.dataclass(frozen=True)
class TrialTask:
    """One trial of one sweep point; picklable for process pools."""

    cfg: ExperimentConfig
    l_count: int
    m: int
    topology: Topology
    trial_index: int


def draw_trial(cfg: ExperimentConfig, l_count: int, m: int, trial: int, *,
               shared: bool) -> tuple:
    """(ensemble, meas, obs) of one trial on `l_count` nodes with `m`
    measurements each, drawn from the seed streams of (cfg.master_seed, trial);
    with `shared`, every node gets the same matrix."""
    seed = cfg.master_seed
    support = gen_support(cfg.n, cfg.k, seeding.stream(seed, seeding.SUPPORT, trial))
    ensemble = gen_signals(support, cfg.n, l_count, cfg.amp_low, cfg.amp_high,
                           seeding.stream(seed, seeding.AMPLITUDES, trial))
    meas = gen_measurements(cfg.n, m, l_count, cfg.sigma2,
                            seeding.stream(seed, seeding.MATRICES, trial), shared=shared)
    obs = measure(ensemble, meas, seeding.stream(seed, seeding.NOISE, trial))
    return ensemble, meas, obs


def _shares_matrix(cfg: ExperimentConfig) -> bool:
    """Whether a configured tag needs one measurement matrix shared by all nodes."""
    return any(ALGORITHMS[tag].shared_matrix for tag in cfg.algorithms)


def _run_algorithm(alg: str, draws, topology: Topology, k: int) -> list:
    return ALGORITHMS[alg].run(draws, topology, k)


def _trial_error(task: TrialTask, alg: str, exc: Exception) -> TrialError:
    return TrialError(
        f"sweep point m={task.m}, L={task.l_count}, algorithm {alg}, "
        f"trial {task.trial_index}, seed {task.cfg.master_seed}: "
        f"{type(exc).__name__}: {exc}")


def _solve(alg: str, tasks, draws) -> list:
    """`alg`'s RecoveryResult on each trial of the chunk, None where it hit
    a singular projection. If the chunk call raises anything, the chunk is
    solved again trial by trial, so a failure is charged to its own trial
    alone; on a single trial, any other exception becomes a TrialError."""
    try:
        return _run_algorithm(alg, [(obs, meas) for _, meas, obs in draws],
                              tasks[0].topology, tasks[0].cfg.k)
    except Exception as exc:
        if len(tasks) == 1:
            if isinstance(exc, SingularProjectionError):
                return [None]
            raise _trial_error(tasks[0], alg, exc) from exc
    return [_solve(alg, [task], [draw])[0] for task, draw in zip(tasks, draws)]


def run_chunk(tasks) -> list:
    """Paired trials of one sweep point (`tasks`, a sequence of TrialTask);
    per trial, per algorithm a TrialRecord, or None on a singular-projection
    failure. Any other exception is re-raised as a TrialError naming the
    sweep point, algorithm, trial index and seed.

    Each trial is drawn from its own seed streams. Each algorithm then runs
    once on the whole chunk: the fixed-round tags take its trials as extra
    lanes of one kernel loop, the collaborative tags go trial by trial. The
    records do not depend on how trials are chunked."""
    cfg = tasks[0].cfg
    shared = _shares_matrix(cfg)
    draws = []
    for task in tasks:
        try:
            draws.append(draw_trial(cfg, task.l_count, task.m, task.trial_index,
                                    shared=shared))
        except Exception as exc:
            raise _trial_error(task, "(trial draw)", exc) from exc
    out = [{} for _ in tasks]
    for alg in cfg.algorithms:
        for trial, (ensemble, _, _), result in zip(out, draws, _solve(alg, tasks, draws)):
            trial[alg] = None if result is None else TrialRecord(
                true_support=ensemble.support,
                per_node_supports=result.per_node_support,
                iterations=list(result.iterations),
                local_scalars=result.ledger.local_scalar_count,
                global_scalars=result.ledger.global_scalar_count,
            )
    return out


def run_trial(task: TrialTask) -> dict:
    """One paired trial, a chunk of one: per algorithm a TrialRecord or None
    (see run_chunk)."""
    return run_chunk([task])[0]


def _point_topology(cfg: ExperimentConfig, l_count: int, n0: int | None) -> Topology:
    rng = seeding.stream(cfg.master_seed, seeding.TOPOLOGY)
    try:
        return build_topology(cfg.topology_kind, l_count, rng=rng, n0=n0, p=cfg.edge_p)
    except ValueError as exc:   # a random graph too sparse to draw connected
        raise ConfigError(f"keys 'l', 'p': {exc}") from None


def _single(values, name: str) -> int:
    if len(values) != 1:
        raise ConfigError(f"key '{name}': exactly one value expected here, got {values}")
    return values[0]


def _check_sparsity(cfg: ExperimentConfig, m_values) -> None:
    """Reject, before any trial runs, a point whose m is below k."""
    for m in m_values:
        if cfg.k > m:
            raise ConfigError(f"point m={m}: greedy recovery requires k <= M (k={cfg.k})")


def _chunk_size(cfg: ExperimentConfig, l_count: int, m: int) -> int:
    """Trials per chunk at one sweep point: a quarter of each worker's share
    of the trials, for pool load balance, capped so that the chunk's
    distinct dictionaries (one matrix per trial when shared, else one per
    node) fit in _CHUNK_BYTES."""
    trial_bytes = (1 if _shares_matrix(cfg) else l_count) * m * cfg.n * 8
    return max(1, min(cfg.trials // (4 * cfg.workers), _CHUNK_BYTES // trial_bytes))


def run_point(cfg: ExperimentConfig, *, sweep_var: int, l_count: int, m: int,
              topology: Topology, pool: ProcessPoolExecutor | None = None) -> list:
    """All configured algorithms on `trials` paired trials at one sweep point,
    in chunks of consecutive trials (run_chunk), on `pool` if one is given,
    else serially in this process."""
    tasks = [TrialTask(cfg=cfg, l_count=l_count, m=m, topology=topology, trial_index=t)
             for t in range(cfg.trials)]
    size = _chunk_size(cfg, l_count, m)
    chunks = [tasks[start:start + size] for start in range(0, len(tasks), size)]
    chunk_results = pool.map(run_chunk, chunks) if pool is not None else map(run_chunk, chunks)
    results = [trial for chunk in chunk_results for trial in chunk]

    rows = []
    for alg in cfg.algorithms:
        records = [res[alg] for res in results if res[alg] is not None]
        failed = cfg.trials - len(records)
        if failed > MAX_FAILED_FRACTION * cfg.trials:
            raise RuntimeError(
                f"sweep point {sweep_var}, algorithm {alg}: {failed}/{cfg.trials} "
                "trials hit singular projections; the configuration is degenerate")
        rows.append({"sweep_var": sweep_var, "algorithm": alg,
                     **dataclasses.asdict(aggregate(records)),
                     "failed_trials": failed, "seed": cfg.master_seed})
    return rows


def _sweep_points(cfg: ExperimentConfig, sweep: str) -> list:
    """(sweep_var, l_count, m, topology) of every point of a sweep over m, l, or n0."""
    if sweep == "m":
        l_count = _single(cfg.l_values, "l")
        n0 = _single(cfg.n0_values, "n0") if cfg.topology_kind == "ring" else None
        topology = _point_topology(cfg, l_count, n0)
        return [(m, l_count, m, topology) for m in cfg.m_values]
    if sweep == "l":
        m = _single(cfg.m_values, "m")
        n0 = _single(cfg.n0_values, "n0") if cfg.topology_kind == "ring" else None
        return [(l_count, l_count, m, _point_topology(cfg, l_count, n0))
                for l_count in cfg.l_values]
    if sweep == "n0":
        if cfg.topology_kind != "ring":
            raise ConfigError("key 'topology': neighborhood sweeps require ring topology")
        if not cfg.n0_values:
            raise ConfigError("key 'n0': required for a neighborhood sweep")
        m = _single(cfg.m_values, "m")
        l_count = _single(cfg.l_values, "l")
        return [(n0, l_count, m, _point_topology(cfg, l_count, n0)) for n0 in cfg.n0_values]
    raise ValueError(f"unknown sweep kind {sweep!r}")


def run_sweep(cfg: ExperimentConfig, sweep: str) -> list:
    """Row dicts for a sweep over m, l, or n0 (one row per point x algorithm).

    With workers > 1, one process pool serves every point of the sweep. A
    point with k > M is rejected before any point runs a trial."""
    points = _sweep_points(cfg, sweep)
    _check_sparsity(cfg, [m for _, _, m, _ in points])
    rows = []
    with (ProcessPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1
          else contextlib.nullcontext()) as pool:
        for sweep_var, l_count, m, topology in points:
            rows.extend(run_point(cfg, sweep_var=sweep_var, l_count=l_count, m=m,
                                  topology=topology, pool=pool))
    return rows


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(format(row[name], spec) for name, spec in COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    return json.dumps(rows, indent=2, sort_keys=False) + "\n"


def _candidates(n: int, k: int) -> np.ndarray:
    """The C(n, k) candidate supports of an exhaustive search as a `(C, k)`
    array, in lexicographic (`itertools.combinations`) order; more than
    ORACLE_CAP of them raise EnumerationTooLargeError."""
    count = math.comb(n, k)
    if count > ORACLE_CAP:
        raise EnumerationTooLargeError(
            f"C({n},{k}) = {count} candidate supports exceed the cap {ORACLE_CAP}")
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(count, k)


def _candidate_costs(ys: np.ndarray, dictionaries: np.ndarray,
                     candidates: np.ndarray) -> np.ndarray:
    """(C, L) least-squares residual ‖y_l − P y_l‖² of every candidate
    support (a row of `candidates (C, k)`) on every node, where P projects
    onto the span of that node's candidate columns.

    One stacked SVD per block of _ORACLE_BLOCK candidates. Left singular
    vectors whose singular value is at most eps·max(M, k)·σ_max are dropped,
    `np.linalg.lstsq`'s rank rule for rcond=None, so a rank-deficient
    candidate costs what lstsq's residual does. LAPACK factors each matrix of
    a stack on its own, so the costs do not depend on the block size.
    """
    l_count, m, _ = dictionaries.shape
    k = candidates.shape[1]
    rcond = np.finfo(float).eps * max(m, k)
    y = ys[:, :, None]                                                   # (L, M, 1)
    costs = np.empty((len(candidates), l_count))
    for start in range(0, len(candidates), _ORACLE_BLOCK):
        block = candidates[start:start + _ORACLE_BLOCK]
        subs = dictionaries[:, :, block].transpose(2, 0, 1, 3)           # (c, L, M, k)
        u, s, _ = np.linalg.svd(subs, full_matrices=False)
        coef = u.transpose(0, 1, 3, 2) @ y                               # (c, L, r, 1)
        coef[s <= rcond * s[..., :1]] = 0.0
        resid = (y - u @ coef)[..., 0]                                   # (c, L, M)
        costs[start:start + len(block)] = np.square(resid).sum(axis=-1)
    return costs


def exhaustive_oracle(ys, dictionaries, k: int) -> tuple:
    """Support minimizing the total least-squares residual over all C(N,k)
    candidates (summed over nodes when several observations are given).

    Independent of the greedy path: the candidates' residuals come from
    stacked SVDs with `np.linalg.lstsq`'s rank rule, not from the normal
    equations of `ls_residual`. Ties keep the lexicographically smallest
    support.
    """
    ys = np.asarray(ys, dtype=float)
    dictionaries = np.asarray(dictionaries, dtype=float)
    if ys.ndim == 1:
        ys = ys[None, :]
        dictionaries = dictionaries[None, :, :]
    candidates = _candidates(dictionaries.shape[2], k)
    costs = _candidate_costs(ys, dictionaries, candidates).sum(axis=1)
    return tuple(candidates[np.argmin(costs)].tolist())


def bounds_report(cfg: ExperimentConfig) -> dict:
    """JSON-ready document: the configuration's parameters and the bound
    entries (macbounds.bound_report) of its trial 0."""
    if cfg.sigma2 <= 0:
        raise ConfigError("key 'sigma2': bound reports need positive noise variance")
    l_count = _single(cfg.l_values, "l")
    m = _single(cfg.m_values, "m")
    ensemble, meas, _ = draw_trial(cfg, l_count, m, 0, shared=True)
    return {
        "params": {
            "n": cfg.n, "k": cfg.k, "l": l_count, "m": m,
            **{key: getattr(cfg, key)
               for key in ("sigma2", "amp_low", "amp_high", "delta0", "slack_t")},
            "seed": cfg.master_seed,
        },
        "bounds": bound_report(ensemble, meas, delta0=cfg.delta0, slack_t=cfg.slack_t),
    }


def _oracle_error(cfg: ExperimentConfig, trial: int, comparison: str,
                  exc: Exception) -> TrialError:
    return TrialError(f"oracle-check trial {trial}, seed {cfg.master_seed}, "
                      f"comparison {comparison}: {type(exc).__name__}: {exc}")


def _oracle_picks(cfg: ExperimentConfig, trials, comparison: str, ys: np.ndarray,
                  dictionaries: np.ndarray) -> list:
    """The k pooled picks of each trial of a chunk, its trials as the lanes
    of one lockstep loop: `ys (T, L, M)` against `dictionaries (T, L, M, N)`.
    If the chunk call raises, the chunk is solved again trial by trial, so
    the TrialError names the failing trial and `comparison`."""
    try:
        return _lockstep_select(ys, dictionaries, cfg.k, pooled=True)[:, 0].tolist()
    except Exception as exc:
        if len(trials) == 1:
            raise _oracle_error(cfg, trials[0], comparison, exc) from exc
    return [_oracle_picks(cfg, trials[i:i + 1], comparison, ys[i:i + 1],
                          dictionaries[i:i + 1])[0] for i in range(len(trials))]


def oracle_check(cfg: ExperimentConfig) -> dict:
    """Agreement of the greedy solvers with the exhaustive oracle on
    noiseless desk-scale trials, plus the dcomp2/somp equivalence count.

    Trials run in chunks whose per-node matrices fit in _CHUNK_BYTES. Node-0
    OMP and S-OMP each run once per chunk, its trials as lanes. Per trial,
    one `(C, L)` candidate-cost table serves both oracles: node 0's is the
    first minimum of column 0, the MMV oracle's the first minimum of the row
    sums. The table's columns are factored independently, so column 0 equals
    a node-0-only search bit for bit. DC-OMP 2 runs trial by trial. A
    failure raises a TrialError naming its trial, the seed and the
    comparison."""
    l_count = _single(cfg.l_values, "l")
    m = _single(cfg.m_values, "m")
    _check_sparsity(cfg, [m])
    try:
        candidates = _candidates(cfg.n, cfg.k)
    except EnumerationTooLargeError as exc:
        raise ConfigError(f"keys 'n', 'k': {exc}") from None
    topo = complete_topology(l_count)
    noiseless = dataclasses.replace(cfg, sigma2=0.0)
    size = max(1, _CHUNK_BYTES // (l_count * m * cfg.n * 8))
    omp_agree = somp_agree = dcomp2_match = 0
    for start in range(0, cfg.trials, size):
        trials = range(start, min(start + size, cfg.trials))
        draws = []
        for t in trials:
            try:
                draws.append(draw_trial(noiseless, l_count, m, t, shared=False))
            except Exception as exc:
                raise _oracle_error(cfg, t, "(trial draw)", exc) from exc
        ys = np.stack([obs.per_node for _, _, obs in draws])                # (T, L, M)
        dictionaries = np.stack([meas.matrices for _, meas, _ in draws])    # (T, L, M, N)
        omp_picks = _oracle_picks(cfg, trials, "omp", ys[:, :1], dictionaries[:, :1])
        somp_picks = _oracle_picks(cfg, trials, "s-omp", ys, dictionaries)
        for t, (_, meas, obs), omp_sel, somp_sel in zip(trials, draws, omp_picks, somp_picks):
            costs = _candidate_costs(obs.per_node, meas.matrices, candidates)   # (C, L)
            omp_agree += set(omp_sel) == set(candidates[np.argmin(costs[:, 0])].tolist())
            somp_agree += set(somp_sel) == set(candidates[np.argmin(costs.sum(axis=1))].tolist())
            try:
                fused = dcomp2(obs, meas, topo, cfg.k).common_support
            except Exception as exc:
                raise _oracle_error(cfg, t, "dc-omp2", exc) from exc
            dcomp2_match += fused == tuple(sorted(somp_sel))
    return {
        "trials": cfg.trials,
        "params": {"n": cfg.n, "k": cfg.k, "l": l_count, "m": m, "seed": cfg.master_seed},
        "omp_oracle_agreement": omp_agree,
        "somp_oracle_agreement": somp_agree,
        "dcomp2_somp_matches": dcomp2_match,
    }

"""Config-driven Monte Carlo sweeps, bound reports, and a brute-force oracle.

Every trial draws a fresh ensemble, measurement matrices, and noise from
purpose-split seed streams, a chunk of trials at a time (`_draw_chunk`), so
runs are reproducible byte-for-byte, whatever the chunks and workers, and
all algorithms at a sweep point consume identical data (paired trials). A
sweep draws each chunk once for all its points that share m, at their
largest L (`run_chunk`). Sweeps and oracle-check size their chunks by one
rule (`_chunks`) and run them through one map (`_map`).
"""

import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os

import numpy as np

from . import seeding
from .algorithms import ALGORITHMS
from .config import ExperimentConfig
from .ensembles import (JointSparseEnsemble, MeasurementEnsemble, draw_amplitudes, gen_support,
                        orthoprojectors)
from .errors import (ConfigError, EnumerationTooLargeError, SingularProjectionError,
                     TrialError)
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
_KAPPA_MAX = 1e4          # condition bound under which the oracle trusts its QR costs
_TABLE_BYTES = 1 << 18    # bytes per stacked oracle [A | y] call and per chunk's cost table
_TIE_TOLERANCE = 1e-10    # oracle-check costs within this·(‖y‖² + 1) of the least tie
_CHUNK_BYTES = 1 << 20    # distinct dictionary bytes per chunk of trials
MAX_FAILED_FRACTION = 0.01


def _shares_matrix(cfg: ExperimentConfig) -> bool:
    """Whether a configured tag needs one measurement matrix shared by all nodes."""
    return any(ALGORITHMS[tag].shared_matrix for tag in cfg.algorithms)


def _run_algorithm(alg: str, ys, dictionaries, topology: Topology, k: int) -> list:
    return ALGORITHMS[alg].run(ys, dictionaries, topology, k)


def _per_trial(run, trials, lead, tolerated=()) -> list:
    """One result per trial of a chunk, which `trials` labels; `run(part)`
    solves the trials that the slice `part` picks. The chunk runs as one
    call, `run(slice(None))`. If that raises, each trial runs again alone,
    `run(slice(i, i + 1))`, so a failure is charged to its own trial: there
    an error of a `tolerated` type gives None, and any other becomes a
    TrialError whose message starts with `lead(trial)`."""
    with contextlib.suppress(Exception):
        return run(slice(None))
    out = []
    for i, trial in enumerate(trials):
        try:
            out += run(slice(i, i + 1))
        except tolerated:
            out.append(None)
        except Exception as exc:
            raise TrialError(f"{lead(trial)}: {type(exc).__name__}: {exc}") from exc
    return out


def _draw_chunk(cfg: ExperimentConfig, l_count: int, m: int, trials: range, lead, *,
                shared: bool) -> tuple:
    """(supports, ys (T, L, M), dictionaries (T, 1 or L, M, N), signals
    (T, L, N), redrawn (T,)) of trials `trials` (one matrix per trial when
    `shared`), the round loop's lanes, seeded by one `seeding.state_words`
    call. Trial by trial, its seed streams give its support and amplitudes
    (`redrawn` marks a trial whose amplitudes redrew an exact zero), its
    slice of one standard-normal block and, only when sigma2 > 0, its noise;
    a failure there fails as in `_per_trial`, led by `lead`. Per chunk:
    stacked QRs (`orthoprojectors`), one einsum.

    Every stream fills C-order `(L, ...)` node blocks, so the draw at L' < L
    is the first L' nodes of the draw at L, bit for bit, except in a trial
    that `redrawn` marks: there a zero redrawn after the whole (L, k) block
    may sit below L'."""
    count, n, noisy = len(trials), cfg.n, cfg.sigma2 > 0
    normals = np.empty((count, 1 if shared else l_count, n, m))
    signals, noise = np.zeros((count, l_count, n)), np.empty((count, l_count, m))
    redrawn = np.zeros(count, dtype=bool)
    words = seeding.state_words(cfg.master_seed, trials, (
        seeding.SUPPORT, seeding.AMPLITUDES, seeding.MATRICES, seeding.NOISE)[:3 + noisy])

    def read(part):
        supports = []
        for i in range(count)[part]:
            support_rng, amplitude_rng, matrix_rng, *noise_rng = [
                np.random.Generator(np.random.PCG64(seeding.StateWords(w))) for w in words[i]]
            supports.append(gen_support(n, cfg.k, support_rng))
            redrawn[i] = draw_amplitudes(supports[-1], cfg.amp_low, cfg.amp_high, amplitude_rng,
                                         signals[i])
            matrix_rng.standard_normal(out=normals[i])
            if noisy:
                noise_rng[0].standard_normal(out=noise[i])
        return supports

    supports = _per_trial(read, trials, lead)
    dictionaries = orthoprojectors(normals)
    ys = np.einsum("tlmn,tln->tlm", dictionaries, signals)
    if noisy:
        ys += noise * np.sqrt(cfg.sigma2)
    return supports, ys, dictionaries, signals, redrawn


def run_chunk(cfg: ExperimentConfig, m: int, points, trials: range) -> list:
    """Paired trials `trials` at every sweep point of `points`, `(l_count,
    topology)` pairs that share `m`: per point, per trial, per algorithm a
    TrialRecord, or None on a singular-projection failure. Any other
    exception is re-raised as a TrialError naming the sweep point,
    algorithm, trial index and seed.

    The chunk is drawn once, as lanes, at the points' largest L
    (`_draw_chunk`). A point with fewer nodes reads its first L of them,
    `ys[:, :L]` and `dictionaries[:, :L]` (a shared `(T, 1, M, N)` matrix as
    is), which is its own draw bit for bit; a trial whose draw redrew a zero
    amplitude has its observations drawn again at that L, the one output a
    redraw can change. At each point, each algorithm then runs once on the
    whole chunk, its trials as extra lanes of the one round loop
    (`decentralized.solve_chunk`). A chunk call that raises is run again
    trial by trial (`_per_trial`), so the records do not depend on how
    trials are chunked."""
    def lead(l_count, alg):
        return lambda trial: (f"sweep point m={m}, L={l_count}, algorithm {alg}, "
                              f"trial {trial}, seed {cfg.master_seed}")

    shared, top = _shares_matrix(cfg), max(l_count for l_count, _ in points)
    supports, ys, dictionaries, signals, redrawn = _draw_chunk(
        cfg, top, m, trials, lead(top, "(trial draw)"), shared=shared)
    del signals     # only the lanes outlive the draw
    out = []
    for l_count, topology in points:
        own_ys, own_dictionaries = ys[:, :l_count], dictionaries[:, :l_count]
        if l_count < top and redrawn.any():
            own_ys = own_ys.copy()
            for i in np.flatnonzero(redrawn):
                own_ys[i] = _draw_chunk(cfg, l_count, m, trials[i:i + 1],
                                        lead(l_count, "(trial draw)"), shared=shared)[1][0]
        records = [{} for _ in trials]
        for alg in cfg.algorithms:
            results = _per_trial(lambda part: _run_algorithm(
                alg, own_ys[part], own_dictionaries[part], topology, cfg.k),
                trials, lead(l_count, alg), SingularProjectionError)
            for trial, support, result in zip(records, supports, results):
                trial[alg] = None if result is None else TrialRecord(
                    support, result.per_node_support, list(result.iterations),
                    result.ledger.local_scalar_count, result.ledger.global_scalar_count)
        out.append(records)
    return out


def run_trial(cfg: ExperimentConfig, l_count: int, m: int, topology: Topology,
              trial: int) -> dict:
    """One paired trial at one sweep point, a chunk of one: per algorithm a
    TrialRecord or None (see run_chunk)."""
    return run_chunk(cfg, m, [(l_count, topology)], range(trial, trial + 1))[0][0]


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


def _chunks(cfg: ExperimentConfig, cap: int) -> list:
    """The trials as ranges of consecutive trials: at most `cap` each, the most
    that fit the caller's byte budgets, and with a pool (workers > 1) at most
    a quarter of each worker's share, for load balance; at least one each."""
    size = max(1, min(cap, cfg.trials // (4 * cfg.workers) if cfg.workers > 1 else cap))
    return [range(start, min(start + size, cfg.trials)) for start in range(0, cfg.trials, size)]


def _map(cfg: ExperimentConfig, task, *args) -> list:
    """`task(cfg, *row)` for each row of `zip(*args)`, in order: serially at
    workers = 1, else on one process pool of at most as many processes as
    the CPUs this process may run on. Every command that runs trials maps here."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cfg.workers > 1:    # the pool's modules load only when a command opens one
        from concurrent.futures import ProcessPoolExecutor
    with (ProcessPoolExecutor(max_workers=min(cfg.workers, cpus)) if cfg.workers > 1
          else contextlib.nullcontext()) as pool:
        return list((pool.map if pool is not None else map)(functools.partial(task, cfg), *args))


def _run_points(cfg: ExperimentConfig, points) -> list:
    """Rows of `points`, (sweep_var, l_count, m, topology) tuples, in point
    order: all configured algorithms on `trials` paired trials at each.

    The points that share an m form a group. Each group's trials run in
    chunks (`_chunks`) whose distinct dictionaries at the group's largest L
    (one matrix per trial when shared, else one per node) fit in
    _CHUNK_BYTES, one task (`run_chunk`) per chunk that runs every point of
    the group. All tasks go through one map (`_map`). A TrialError surfaces
    with the first task that raises; a point over MAX_FAILED_FRACTION, the
    first in point order, only once every task has run."""
    groups = {}
    for index, (_, _, m, _) in enumerate(points):
        groups.setdefault(m, []).append(index)
    tasks, owners = [], []        # run_chunk's (m, points, trials), and whose points they are
    for m, members in groups.items():
        nodes = [(points[i][1], points[i][3]) for i in members]
        trial_bytes = (1 if _shares_matrix(cfg) else max(l for l, _ in nodes)) * m * cfg.n * 8
        for trials in _chunks(cfg, _CHUNK_BYTES // trial_bytes):
            tasks.append((m, nodes, trials))
            owners.append(members)
    chunk_results = _map(cfg, run_chunk, *zip(*tasks))
    results = [[] for _ in points]
    for members, per_point in zip(owners, chunk_results):
        for i, trials in zip(members, per_point):
            results[i] += trials

    rows = []
    for (sweep_var, *_), point_results in zip(points, results):
        for alg in cfg.algorithms:
            records = [res[alg] for res in point_results if res[alg] is not None]
            failed = cfg.trials - len(records)
            if failed > MAX_FAILED_FRACTION * cfg.trials:
                raise RuntimeError(
                    f"sweep point {sweep_var}, algorithm {alg}: {failed}/{cfg.trials} "
                    "trials hit singular projections; the configuration is degenerate")
            rows.append({"sweep_var": sweep_var, "algorithm": alg,
                         **dataclasses.asdict(aggregate(records)),
                         "failed_trials": failed, "seed": cfg.master_seed})
    return rows


def run_point(cfg: ExperimentConfig, *, sweep_var: int, l_count: int, m: int,
              topology: Topology) -> list:
    """All configured algorithms on `trials` paired trials at one sweep point:
    a sweep of one point (`_run_points`), on a pool when workers > 1."""
    return _run_points(cfg, [(sweep_var, l_count, m, topology)])


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

    Each trial is drawn once per m, not once per point (`_run_points`), and
    every task of the sweep goes through one map (`_map`). A point with
    k > M is rejected before any point runs a trial."""
    points = _sweep_points(cfg, sweep)
    _check_sparsity(cfg, [m for _, _, m, _ in points])
    return _run_points(cfg, points)


def rows_to_csv(rows) -> str:
    lines = [",".join(format(row[name], spec) for name, spec in COLUMNS) for row in rows]
    return "\n".join([CSV_HEADER, *lines]) + "\n"


def rows_to_json(rows) -> str:
    return json.dumps(rows, indent=2, sort_keys=False) + "\n"


def _candidates(n: int, k: int) -> np.ndarray:
    """The C(n, k) candidate supports of an exhaustive search as a `(C, k)`
    array, in lexicographic (`itertools.combinations`) order. A k outside
    [1, n] raises ValueError; more than ORACLE_CAP candidates raise
    EnumerationTooLargeError."""
    if not 1 <= k <= n:
        raise ValueError(f"support size k={k} outside [1, N] for N={n} columns")
    count = math.comb(n, k)
    if count > ORACLE_CAP:
        raise EnumerationTooLargeError(
            f"C({n},{k}) = {count} candidate supports exceed the cap {ORACLE_CAP}")
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    return np.fromiter(flat, dtype=np.intp, count=count * k).reshape(count, k)


def _screen_tau(k: int) -> float:
    """τ_k = (k^{3/2}·2^{k−1}/_KAPPA_MAX)^{1/k}, the threshold of the oracle's
    QR screen for k columns. It is below 1 only for k ≤ 9."""
    return (k ** 1.5 * 2.0 ** (k - 1) / _KAPPA_MAX) ** (1 / k)


def _well_conditioned(r: np.ndarray, tau: float) -> np.ndarray:
    """Mask over a stack of upper-triangular `(..., k, k)` R factors: True
    where every |R_ii| exceeds tau·max_j ‖R[:, j]‖. With tau = τ_k
    (`_screen_tau`) and τ_k < 1 that proves κ₂(R) ≤ _KAPPA_MAX.

    With D = diag(R) and U = D⁻¹R, the screen makes every off-diagonal
    |U_ij| < 1/τ, so κ₂(R) ≤ k^{3/2}·(1 + 1/τ)^{k−1}/τ ≤ k^{3/2}·2^{k−1}/τ^k
    for τ ≤ 1, and τ_k sets that to _KAPPA_MAX."""
    diag = np.square(np.diagonal(r, axis1=-2, axis2=-1))
    widest = np.square(r).sum(axis=-2).max(axis=-1, keepdims=True)
    return (diag > tau * tau * widest).all(axis=-1)


def _svd_costs(subs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares residual ‖y − P y‖² of each `(..., M, k)` matrix of a
    stack against its `(..., M)` observation (broadcast against the stack),
    from its SVD. Left singular vectors whose singular value is at most
    eps·max(M, k)·σ_max are dropped, `np.linalg.lstsq`'s rank rule for
    rcond=None, so a rank-deficient matrix costs what lstsq's residual does.
    LAPACK factors each matrix of the stack on its own."""
    rcond = np.finfo(float).eps * max(subs.shape[-2:])
    u, s, _ = np.linalg.svd(subs, full_matrices=False)
    coef = u.swapaxes(-1, -2) @ y[..., None]                             # (..., r, 1)
    coef[s <= rcond * s[..., :1]] = 0.0
    resid = (y[..., None] - u @ coef)[..., 0]                            # (..., M)
    return np.square(resid).sum(axis=-1)


def _candidate_costs(ys: np.ndarray, dictionaries: np.ndarray,
                     candidates: np.ndarray) -> np.ndarray:
    """(..., C, L) least-squares residual ‖y_l − P y_l‖² of every candidate
    support on every node of every trial, where P projects onto the span of
    that node's candidate columns. `ys (..., L, M)` and `dictionaries
    (..., L, M, N)` share their leading trial axes; `candidates` is one
    `(C, k)` list for every trial or one `(..., C, k)` list per trial.

    Per block of (trial, candidate) entries whose [A | y], `(b, L, M, k+1)`,
    fit in _TABLE_BYTES, one stacked QR (mode "r"): an entry costs R[k, k]²
    when its A passes the conditioning screen (`_well_conditioned`, which
    proves κ₂(A) ≤ _KAPPA_MAX = 1e4). There the cost differs from the SVD
    rule's by about eps·κ·‖y‖², and A lies far from lstsq's rank cut-off.
    Every other entry takes lstsq's SVD rank rule (`_svd_costs`). When M ≤ k
    (R has no [k, k]) or k ≥ 10 (τ_k ≥ 1, so nothing can pass the screen),
    no QR is run and every entry is flagged. LAPACK factors each matrix of
    a stack on its own, so a trial's slice equals its own call, a node's
    column its own table, and the costs do not depend on the block size.
    """
    *trial_axes, l_count, m, n = dictionaries.shape
    count, k = candidates.shape[-2:]
    tau = _screen_tau(k)
    lists = np.broadcast_to(candidates, (*trial_axes, count, k)).reshape(-1, count, k)
    augmented = np.moveaxis(np.concatenate([dictionaries, ys[..., None]], axis=-1)
                            .reshape(-1, l_count, m, n + 1), -1, 1)       # (T, N+1, L, M)
    costs = np.empty((len(lists) * count, l_count))
    block = max(1, _TABLE_BYTES // (l_count * m * (k + 1) * 8))
    for start in range(0, len(costs), block):
        trial, pick = np.divmod(np.arange(start, min(start + block, len(costs))), count)
        columns = np.concatenate([lists[trial, pick], np.full((len(trial), 1), n)], axis=1)
        stacks = augmented[trial[:, None], columns].transpose(0, 2, 3, 1)  # (b, L, M, k+1)
        out = costs[start:start + len(trial)]
        if m <= k or tau >= 1:        # no R[k, k], or no entry can pass the screen
            flagged = np.ones(out.shape, dtype=bool)
        else:
            r = np.linalg.qr(stacks, mode="r")                           # (b, L, k+1, k+1)
            out[...] = np.square(r[..., k, k])
            flagged = ~_well_conditioned(r[..., :k, :k], tau)
        if flagged.any():
            out[flagged] = _svd_costs(stacks[..., :k][flagged], stacks[..., k][flagged])
    return costs.reshape(*trial_axes, count, l_count)


def exhaustive_oracle(ys, dictionaries, k: int) -> tuple:
    """Support minimizing the total least-squares residual over all C(N,k)
    candidates (summed over nodes when several observations are given).

    Independent of the greedy path: the residuals come from
    `_candidate_costs`, not from the normal equations of `ls_residual`. Ties
    keep the lexicographically smallest support. A k outside [1, N] raises
    ValueError.
    """
    dictionaries = np.asarray(dictionaries, dtype=float)
    ys = np.asarray(ys, dtype=float).reshape(-1, dictionaries.shape[-2])
    dictionaries = dictionaries.reshape(len(ys), *dictionaries.shape[-2:])
    candidates = _candidates(dictionaries.shape[2], k)
    costs = _candidate_costs(ys, dictionaries, candidates).sum(axis=1)
    return tuple(candidates[np.argmin(costs)].tolist())


def bounds_report(cfg: ExperimentConfig) -> dict:
    """JSON-ready document: the configuration's parameters and the bound
    entries (macbounds.bound_report) of its trial 0, drawn as a chunk of one
    on one matrix that every node shares (a read-only stride-0 view)."""
    if cfg.sigma2 <= 0:
        raise ConfigError("key 'sigma2': bound reports need positive noise variance")
    l_count, m = _single(cfg.l_values, "l"), _single(cfg.m_values, "m")
    (support,), _, dictionaries, signals, _ = _draw_chunk(
        cfg, l_count, m, range(1), lambda t: f"trial {t}, seed {cfg.master_seed}", shared=True)
    ensemble = JointSparseEnsemble(cfg.n, cfg.k, l_count, support, signals[0])
    meas = MeasurementEnsemble(np.broadcast_to(dictionaries[0], (l_count, m, cfg.n)),
                               float(cfg.sigma2))
    return {
        "params": {
            "n": cfg.n, "k": cfg.k, "l": l_count, "m": m,
            **{key: getattr(cfg, key)
               for key in ("sigma2", "amp_low", "amp_high", "delta0", "slack_t")},
            "seed": cfg.master_seed,
        },
        "bounds": bound_report(ensemble, meas, delta0=cfg.delta0, slack_t=cfg.slack_t),
    }


def _least_cost(mine: np.ndarray, costs: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """`(G, 2)` verdicts on whether the supports of costs `mine (G, 2)` are
    oracle supports, judged on `costs (G, C, L)`: node-0 OMP's cost against
    node 0's costs, S-OMP's against their node sums. With slack =
    _TIE_TOLERANCE·(energy + 1), the energy `energies (G, L)` summed over
    the nodes the costs cover: 1 (agree) where the own cost is at most
    slack, 0 (disagree) where it exceeds the least cost plus slack, else −1
    (undecided). Costs that close tie: at k = M every candidate costs
    rounding noise. On all C(N, k) candidates undecided is such a tie. On
    only some, costs are nonnegative and rounding is monotone, so 1 and 0
    hold whatever the others cost."""
    totals = np.stack([costs[..., 0], costs.sum(axis=-1)], axis=-1)     # (G, C, 2)
    slack = _TIE_TOLERANCE * (np.stack([energies[:, 0], energies.sum(axis=1)], axis=-1) + 1)
    return np.where(mine <= slack, 1, np.where(mine > totals.min(axis=1) + slack, 0, -1))


def _oracle_chunk(cfg: ExperimentConfig, candidates: np.ndarray, trials: range) -> np.ndarray:
    """oracle-check's task: the three counts of the noiseless trials `trials`.
    Each comparison runs once per chunk through the sweeps' algorithm table
    (`_run_algorithm`): `s-omp` and `dc-omp2` on the complete graph, and
    node-0 OMP as `s-omp` on each trial's node-0 slice, a one-node network.
    Their supports form `(T, 3, k)` picks. One `_candidate_costs` call scores
    each trial's three (its witness table), and `_least_cost` judges node-0
    OMP's and S-OMP's own costs on it, which settles most trials. The
    undecided trials' full tables over `candidates`, the `(C, k)` supports
    of a full search, one more call, judge the same costs. Every entry is
    factored on its own, so it equals the same entry of a full search bit
    for bit. A chunk that raises is run again trial by trial (`_per_trial`,
    tolerating nothing), so the TrialError names the failing trial, the
    seed and the comparison."""
    l_count, m = _single(cfg.l_values, "l"), _single(cfg.m_values, "m")

    def lead(comparison):
        return lambda t: (f"oracle-check trial {t}, seed {cfg.master_seed}, "
                          f"comparison {comparison}")

    def supports(comparison, alg, nodes):
        return _per_trial(lambda part: [r.common_support for r in _run_algorithm(
            alg, ys[part, :nodes], dictionaries[part, :nodes], complete_topology(nodes),
            cfg.k)], trials, lead(comparison))

    ys, dictionaries = _draw_chunk(cfg, l_count, m, trials, lead("(trial draw)"),
                                   shared=False)[1:3]
    picks = np.array([supports(*comparison) for comparison in (
        ("omp", "s-omp", 1), ("s-omp", "s-omp", l_count),
        ("dc-omp2", "dc-omp2", l_count))], dtype=np.intp).swapaxes(0, 1)       # (T, 3, k)
    energies = np.square(ys).sum(axis=2)                                 # ‖y_l‖² per node
    witness = _candidate_costs(ys, dictionaries, picks)                  # (T, 3, L)
    mine = np.stack([witness[:, 0, 0], witness[:, 1].sum(axis=-1)], axis=-1)
    verdicts = _least_cost(mine, witness, energies)
    undecided = (verdicts < 0).any(axis=1)
    verdicts[undecided] = _least_cost(                           # −1 left here is a tie
        mine[undecided], _candidate_costs(ys[undecided], dictionaries[undecided], candidates),
        energies[undecided])
    return np.array([*(verdicts != 0).sum(axis=0), (picks[:, 2] == picks[:, 1]).all(axis=1).sum()])


def oracle_check(cfg: ExperimentConfig) -> dict:
    """Agreement of the greedy solvers with the exhaustive oracle on
    noiseless desk-scale trials, plus the dcomp2/somp equivalence count.

    Trials run in chunks (`_chunks`) whose per-node matrices fit in
    _CHUNK_BYTES and whose full `(T, C, L)` cost tables fit in _TABLE_BYTES,
    one task (`_oracle_chunk`) per chunk through the sweeps' map (`_map`)."""
    l_count, m = _single(cfg.l_values, "l"), _single(cfg.m_values, "m")
    _check_sparsity(cfg, [m])
    try:
        candidates = _candidates(cfg.n, cfg.k)
    except EnumerationTooLargeError as exc:
        raise ConfigError(f"keys 'n', 'k': {exc}") from None
    chunks = _chunks(cfg, min(_CHUNK_BYTES // (l_count * m * cfg.n * 8),
                              _TABLE_BYTES // (len(candidates) * l_count * 8)))
    counts = np.sum(_map(dataclasses.replace(cfg, sigma2=0.0), _oracle_chunk,
                         [candidates] * len(chunks), chunks), axis=0)
    omp_agree, somp_agree, dcomp2_match = counts.tolist()
    return {
        "trials": cfg.trials,
        "params": {"n": cfg.n, "k": cfg.k, "l": l_count, "m": m, "seed": cfg.master_seed},
        "omp_oracle_agreement": omp_agree,
        "somp_oracle_agreement": somp_agree,
        "dcomp2_somp_matches": dcomp2_match,
    }

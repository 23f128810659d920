"""Greedy support recovery: the two kernels, the one round loop every
solver runs, and OMP and simultaneous OMP on it.

Each round, `greedy_rounds` scores every lane (`correlate`), lets a rule
pick what each support adopts, and deflates the lanes that grew by least
squares onto their support (`ls_residual`). OMP and S-OMP adopt the argmax
of the scores summed over a trial's nodes (`pooled_argmax`).
"""

from itertools import chain

import numpy as np

from .errors import SingularProjectionError

GRAM_COND_LIMIT = 1e12


def _lane_index(shape) -> tuple:
    """Open-mesh index arrays over leading axes of `shape`, each with a
    trailing unit axis, so that together with an `(..., s)` index array they
    pick s entries per lane; an axis of length 1 broadcasts."""
    index = []
    for i, n in enumerate(shape):
        index.append(np.arange(n).reshape((n,) + (1,) * (len(shape) - i)))
    return tuple(index)


def correlate(residuals: np.ndarray, dictionaries: np.ndarray) -> np.ndarray:
    """Absolute inner product of each lane's residual with every column of
    its own dictionary: `residuals (..., M)`, `dictionaries (..., M, N)` ->
    (..., N).

    The one correlation kernel of the package. The leading lane axes are
    anything that broadcasts, e.g. `(L,)` nodes of one trial or `(T, L)`
    nodes of T trials against a `(T, 1, M, N)` stack of shared matrices. It
    is one stacked matmul, so each lane's row equals
    `np.abs(dictionary.T @ residual)` bit for bit; `dcomp1` breaks count
    ties on these floats.
    """
    return np.abs(np.matmul(dictionaries.swapaxes(-1, -2), residuals[..., None]))[..., 0]


def ls_residual(y: np.ndarray, dictionary: np.ndarray, selected, *,
                check: bool = True) -> np.ndarray:
    """y minus its orthogonal projection onto the selected columns.

    The one least-squares kernel of the package. A single vector `y (M,)`
    with `dictionary (M, N)` gives an `(M,)` residual. With leading lane
    axes, `y (..., M)` and `dictionary (..., M, N)`, every lane is projected
    onto its own columns and the result has y's shape. The lane axes
    broadcast, so one dictionary can serve many lanes: `y (T, L, M)` against
    `dictionary (T, 1, M, N)` reads T matrices, not T*L copies. `selected`
    is one index list shared by all lanes, or an `(..., s)` array of rows
    whose lane axes broadcast too. Sub-dictionaries, Gram matrices and
    condition numbers span only the dictionaries' and rows' lane axes, so
    one row per trial on a shared matrix costs one Gram per trial. The
    lanes' right-hand sides are built in one call, and the normal equations
    of all lanes are solved in one batched `np.linalg.solve` (LAPACK gesv,
    LU with partial pivoting).

    With `check` (the default), the 2-norm condition number
    (`np.linalg.cond`, an SVD) of every lane's Gram matrix is checked against
    GRAM_COND_LIMIT before solving; if any lane exceeds it,
    SingularProjectionError is raised instead of regularizing. `check=False`
    skips only that SVD; the Gram matrix and the solve are the same. Every
    solver checks only the call completing its support (SingularProjectionError
    says why that suffices). An empty selection returns a copy of y.
    """
    ys = np.asarray(y, dtype=float)
    dictionaries = np.asarray(dictionary, dtype=float)
    selected = np.asarray(selected, dtype=np.intp)
    if selected.size == 0:
        return np.array(ys, copy=True)
    # gathered over the dictionaries' and selections' lanes only; ys broadcasts below
    columns = dictionaries.swapaxes(-1, -2)                             # (..., N, M)
    sub_t = columns[(*_lane_index(columns.shape[:-2]), selected)]       # (..., s, M)
    gram = sub_t @ sub_t.swapaxes(-1, -2)                               # (..., s, s)
    if check:
        cond = np.linalg.cond(gram)
        bad = ~np.isfinite(cond) | (cond > GRAM_COND_LIMIT)
        if bad.any():
            lane = np.unravel_index(np.argmax(bad), bad.shape)
            where = f"lane {', '.join(map(str, lane))}, " if bad.size > 1 else ""
            raise SingularProjectionError(
                f"selected columns nearly dependent ({where}cond={cond[lane]:.3e})")
    try:
        coef = np.linalg.solve(gram, sub_t @ ys[..., None])            # (..., s, 1)
    except np.linalg.LinAlgError as exc:
        # an unchecked round can reach an exactly singular Gram (a zero pivot);
        # its support is part of the final one, which the check would reject
        raise SingularProjectionError(str(exc)) from exc
    return ys - (coef.swapaxes(-1, -2) @ sub_t)[..., 0, :]


def greedy_rounds(ys: np.ndarray, dictionaries: np.ndarray, k: int, rule, *,
                  rows: int = 1) -> tuple:
    """The round loop of every solver on a chunk of T trials: `ys (T, L, M)`
    against `dictionaries (T, L, M, N)`, or `(T, 1, M, N)` for one shared
    matrix per trial. Every node of every trial is one lane; each trial
    holds `rows` supports, one that all its nodes share or one per node.

    Each round, one `correlate` call scores every lane, finished ones too,
    with each row's held indices at -inf. `rule(scores, supports, active)`
    gets the (T, L, N) scores, the per-trial, per-row support lists and the
    running trials, and returns per running trial the indices each row
    adopts (None for none). Lanes whose row grew deflate, one `ls_residual`
    call per distinct support size (a one-row support is one row per trial,
    so a shared matrix costs one Gram per trial); only the call completing
    a support is cond-checked. A trial runs until every row holds k indices.
    Returns per trial and row the indices in adoption order (supports) and
    the round of the last adoption (iterations).
    """
    t_count, _, m = ys.shape
    if not 1 <= k <= m:
        raise ValueError(f"sparsity k must satisfy 1 <= k <= M, got k={k}, M={m}")
    n = dictionaries.shape[-1]
    residuals = np.array(ys, dtype=float, copy=True)
    supports = [[[] for _ in range(rows)] for _ in range(t_count)]
    iterations = [[0] * rows for _ in range(t_count)]
    held = np.zeros((t_count, rows, n), dtype=bool)
    every_row = _lane_index((t_count, rows))
    # each row's lanes, and the columns of their dictionaries, for deflating some rows only
    by_row = (t_count, rows, -1, m)
    per_row = dictionaries.shape[1] // rows or 1
    columns_by_row = np.broadcast_to(dictionaries.reshape(t_count, -1, per_row, m, n),
                                     (t_count, rows, per_row, m, n)).swapaxes(-1, -2)
    active = list(range(t_count))
    round_no = 0
    while active:
        round_no += 1
        scores = correlate(residuals, dictionaries)
        np.copyto(scores, -np.inf, where=held)
        picked = rule(scores, supports, active)
        del scores      # freed first, the next round's scores reuse its memory
        grown = {}      # support size -> the (trial, row) pairs that reached it
        for t, adopted in zip(active, picked):
            for r, new in enumerate(adopted):
                if new:
                    supports[t][r].extend(new)
                    iterations[t][r] = round_no
                    grown.setdefault(len(supports[t][r]), []).append((t, r))
        for size, lanes in grown.items():
            if len(lanes) == t_count * rows:        # every row: the dictionaries as they are
                flat = chain.from_iterable(chain.from_iterable(supports))
                selected = np.fromiter(flat, np.intp).reshape(t_count, rows, size)
                held[(*every_row, selected)] = True
                residuals = ls_residual(ys, dictionaries, selected, check=size == k)
            else:                                   # gather only the s columns each lane reads
                selected = np.array([supports[t][r] for t, r in lanes], dtype=np.intp)
                trials, grew = np.array(lanes).T
                held[trials[:, None], grew[:, None], selected] = True
                columns = columns_by_row[trials[:, None, None], grew[:, None, None],
                                         np.arange(per_row)[:, None], selected[:, None, :]]
                residuals.reshape(by_row)[trials, grew] = ls_residual(
                    ys.reshape(by_row)[trials, grew], columns.swapaxes(-1, -2), range(size),
                    check=size == k)
        done = {t for t, _ in grown.get(k, ())}      # trials with a row just completed
        active = [t for t in active if t not in done or any(len(s) < k for s in supports[t])]
    return supports, iterations


def pooled_argmax(scores: np.ndarray, *_) -> list:
    """S-OMP's rule, for a one-row loop: each trial's node scores summed,
    every node adopts the argmax. OMP is S-OMP on one lane."""
    return [[[i]] for i in scores.sum(axis=1).argmax(axis=1).tolist()]


def omp(y: np.ndarray, dictionary: np.ndarray, k: int) -> list:
    """Standard OMP on one measurement vector; returns k indices in selection order.

    Ties in the correlation argmax go to the smallest column index.
    """
    supports, _ = greedy_rounds(np.asarray(y, dtype=float)[None, None],
                                np.asarray(dictionary, dtype=float)[None, None], k, pooled_argmax)
    return supports[0][0]


def somp(ys, meas, k: int) -> list:
    """Simultaneous OMP: per-iteration score is the sum over nodes of each
    node's absolute residual correlation against its own dictionary."""
    supports, _ = greedy_rounds(*_lanes(ys, meas), k, pooled_argmax)
    return supports[0][0]


def _lanes(ys, meas) -> tuple:
    """One trial's `ys (L, M)` and `meas` as views, a chunk of one of the round loop's lanes:
    `ys (1, L, M)` and dictionaries `(1, 1 or L, M, N)`, 1 if shared."""
    shared = meas.matrices.strides[0] == 0
    return ys[None], (meas.matrices[:1] if shared else meas.matrices)[None]

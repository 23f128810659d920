"""Greedy support recovery: OMP on a single vector and simultaneous OMP
across nodes with per-node dictionaries.

Both run exactly k iterations: pick the column (most) correlated with the
residual(s), then deflate each residual by least squares onto everything
selected so far. `correlate` and `ls_residual` are the two kernels every
greedy solver in the package is built on.
"""

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
    solver checks only the call whose selection is the support it returns:
    no solver ever drops an index, and by Cauchy's interlacing theorem the
    Gram matrix of a subset of columns, a principal submatrix of the larger
    Gram, has no larger condition number. If any round's Gram exceeds the
    limit, the final one does too, so the solver still raises, only later.
    An empty selection returns a copy of y.
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


def _lockstep_select(ys: np.ndarray, dictionaries: np.ndarray, k: int, *,
                     pooled: bool) -> np.ndarray:
    """k rounds of OMP on lanes `ys (..., L, M)` in lockstep, one `correlate`
    and one `ls_residual` call per round for all lanes; `dictionaries
    (..., L, M, N)` broadcasts as in those kernels. `pooled` sums the scores
    over the L axis, so the lanes of one group (the nodes of one trial) take
    the same pick (S-OMP); otherwise each lane picks its own. Held indices
    are masked; ties go to the smallest index. Returns the (..., L, k) picks
    in selection order."""
    m = ys.shape[-1]
    if not 1 <= k <= m:
        raise ValueError(f"sparsity k must satisfy 1 <= k <= M, got k={k}, M={m}")
    picks = np.empty((*ys.shape[:-1], k), dtype=np.intp)
    rows = 1 if pooled else ys.shape[-2]        # rows of scores, and of picks, per group
    held = _lane_index((*ys.shape[:-2], rows))
    residuals = ys
    for t in range(k):
        scores = correlate(residuals, dictionaries)
        if pooled:
            scores = scores.sum(axis=-2, keepdims=True)
        scores[(*held, picks[..., :rows, :t])] = -np.inf
        picks[..., t] = scores.argmax(axis=-1)
        # pooled picks are one row per group: the kernel then gathers and
        # checks one Gram per distinct dictionary, not one per lane
        residuals = ls_residual(ys, dictionaries, picks[..., :rows, :t + 1],
                                check=t == k - 1)
    return picks


def omp(y: np.ndarray, dictionary: np.ndarray, k: int) -> list:
    """Standard OMP on one measurement vector; returns k indices in selection order.

    Ties in the correlation argmax go to the smallest column index.
    """
    y = np.asarray(y, dtype=float)
    dictionary = np.asarray(dictionary, dtype=float)
    return _lockstep_select(y[None, :], dictionary[None, :, :], k, pooled=True)[0].tolist()


def somp(obs, meas, k: int) -> list:
    """Simultaneous OMP: per-iteration score is the sum over nodes of each
    node's absolute residual correlation against its own dictionary."""
    return _lockstep_select(np.asarray(obs.per_node, dtype=float),
                            np.asarray(meas.matrices, dtype=float), k, pooled=True)[0].tolist()

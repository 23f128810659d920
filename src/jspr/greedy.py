"""Greedy support recovery: OMP on a single vector and simultaneous OMP
across nodes with per-node dictionaries.

Both run exactly k iterations: pick the column (most) correlated with the
residual(s), then deflate each residual by least squares onto everything
selected so far.
"""

import numpy as np

from .errors import SingularProjectionError

GRAM_COND_LIMIT = 1e12


def correlate(residual: np.ndarray, dictionary: np.ndarray) -> np.ndarray:
    """Absolute inner product of the residual with every dictionary column."""
    return np.abs(dictionary.T @ residual)


def ls_residual(y: np.ndarray, dictionary: np.ndarray, selected, *,
                check: bool = True) -> np.ndarray:
    """y minus its orthogonal projection onto the selected columns.

    The one least-squares kernel of the package. A single vector `y (M,)`
    with `dictionary (M, N)` gives an `(M,)` residual. With a leading lane
    axis, `y (L, M)` and `dictionary (L, M, N)`, every lane l is projected
    onto its own columns and the result is `(L, M)`; `selected` is then one
    index list shared by all lanes, or an `(L, s)` array with one row per
    lane. The lanes' sub-dictionaries, Gram matrices and right-hand sides are
    each built in one call, and the normal equations of all lanes are solved
    in one batched `np.linalg.solve` (LAPACK gesv, LU with partial pivoting).

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
    if ys.ndim == 1:
        return ls_residual(ys[None, :], np.asarray(dictionary)[None, :, :], selected,
                           check=check)[0]
    dictionaries = np.asarray(dictionary, dtype=float)
    selected = np.asarray(selected, dtype=np.intp)
    if selected.size == 0:
        return np.array(ys, copy=True)
    lanes = np.arange(len(ys))[:, None]
    sub_t = dictionaries.transpose(0, 2, 1)[lanes, selected]           # (L, s, M)
    gram = sub_t @ sub_t.transpose(0, 2, 1)                            # (L, s, s)
    if check:
        cond = np.linalg.cond(gram)
        bad = ~np.isfinite(cond) | (cond > GRAM_COND_LIMIT)
        if bad.any():
            lane = int(np.argmax(bad))
            where = f"lane {lane}, " if len(ys) > 1 else ""
            raise SingularProjectionError(
                f"selected columns nearly dependent ({where}cond={cond[lane]:.3e})")
    try:
        coef = np.linalg.solve(gram, sub_t @ ys[:, :, None])           # (L, s, 1)
    except np.linalg.LinAlgError as exc:
        # an unchecked round can reach an exactly singular Gram (a zero pivot);
        # its support is part of the final one, which the check would reject
        raise SingularProjectionError(str(exc)) from exc
    return ys - (coef.transpose(0, 2, 1) @ sub_t)[:, 0, :]


def _greedy_select(ys: np.ndarray, dictionaries: np.ndarray, k: int) -> list:
    """Shared k-step selection loop over L (residual, dictionary) pairs."""
    m = ys.shape[1]
    if not 1 <= k <= m:
        raise ValueError(f"sparsity k must satisfy 1 <= k <= M, got k={k}, M={m}")
    selected = []
    residuals = np.array(ys, dtype=float, copy=True)
    for t in range(k):
        scores = np.abs(np.einsum("lmn,lm->ln", dictionaries, residuals)).sum(axis=0)
        if selected:
            scores[selected] = -np.inf  # orthogonality already rules these out
        selected.append(int(np.argmax(scores)))
        residuals = ls_residual(ys, dictionaries, selected, check=t == k - 1)
    return selected


def omp(y: np.ndarray, dictionary: np.ndarray, k: int) -> list:
    """Standard OMP on one measurement vector; returns k indices in selection order.

    Ties in the correlation argmax go to the smallest column index.
    """
    y = np.asarray(y, dtype=float)
    dictionary = np.asarray(dictionary, dtype=float)
    return _greedy_select(y[None, :], dictionary[None, :, :], k)


def somp(obs, meas, k: int) -> list:
    """Simultaneous OMP: per-iteration score is the sum over nodes of each
    node's absolute residual correlation against its own dictionary."""
    return _greedy_select(np.asarray(obs.per_node, dtype=float),
                          np.asarray(meas.matrices, dtype=float), k)

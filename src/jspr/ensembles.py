"""Common-support sparse ensembles, orthoprojector measurements, and sum-channel output.

L nodes each hold a length-N sparse vector; all vectors share one support of
size k. Node l observes y_l = B_l s_l + v_l through an M x N matrix with
orthonormal rows (optionally one shared by all nodes), one of a stack made by
`orthoprojectors`. The sum channel delivers only z = sum_l y_l to a fusion center.
"""

from dataclasses import dataclass

import numpy as np

_QR_BYTES = 1 << 16       # bytes of normal draws per stacked QR call


@dataclass
class JointSparseEnsemble:
    """L sparse signals sharing one support."""

    n: int
    k: int
    l_count: int
    support: tuple            # k sorted distinct indices in [0, n)
    signals: np.ndarray       # (L, N)


@dataclass
class MeasurementEnsemble:
    """Per-node measurement matrices and the noise level."""

    matrices: np.ndarray      # (L, M, N); one read-only stride-0 view when shared
    noise_sigma2: float


def gen_support(n: int, k: int, rng: np.random.Generator) -> tuple:
    """Draw k distinct indices uniformly without replacement from [0, n)."""
    if k < 1 or k >= n:
        raise ValueError(f"sparsity k must satisfy 1 <= k < n, got k={k}, n={n}")
    idx = rng.choice(n, size=k, replace=False)
    return tuple(sorted(int(i) for i in idx))


def gen_signals(support, n: int, l_count: int, amp_low: float, amp_high: float,
                rng: np.random.Generator) -> JointSparseEnsemble:
    """Build an ensemble with iid uniform nonzeros on [amp_low, amp_high].

    Every node's vector is nonzero exactly on `support`. The range may be
    sign-mixed (e.g. [-25, 25]); exact zero draws are redrawn so the support
    definition stays exact.
    """
    support = tuple(sorted(int(i) for i in support))
    if len(support) == 0:
        raise ValueError("support must be nonempty")
    if len(set(support)) != len(support):
        raise ValueError("support indices must be distinct")
    if support[0] < 0 or support[-1] >= n:
        raise ValueError(f"support indices must lie in [0, {n})")
    if amp_low > amp_high:
        raise ValueError("amp_low must not exceed amp_high")
    if amp_low == 0.0 and amp_high == 0.0:
        raise ValueError("amplitude range [0, 0] would empty the support")
    if l_count < 1:
        raise ValueError("l_count must be positive")

    k = len(support)
    vals = rng.uniform(amp_low, amp_high, size=(l_count, k))
    while np.any(vals == 0.0):               # measure-zero event, but possible
        redraw = vals == 0.0
        vals[redraw] = rng.uniform(amp_low, amp_high, size=int(np.count_nonzero(redraw)))

    signals = np.zeros((l_count, n))
    signals[:, list(support)] = vals
    return JointSparseEnsemble(n=n, k=k, l_count=l_count, support=support, signals=signals)


def orthoprojectors(normals: np.ndarray) -> np.ndarray:
    """`(..., M, N)` matrices with orthonormal rows (A A^T = I_M to 1e-10):
    each `(..., N, M)` normal draw's reduced QR factor, transposed, each row's
    sign fixed so its first nonzero entry is positive. Stacked QRs over blocks
    of at most _QR_BYTES of draws, each matrix factored on its own (so equal
    to its own call bit for bit), sign-fixed in place in the output."""
    *lead, n, m = normals.shape
    if m < 1 or m > n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    draws, out = normals.reshape(-1, n, m), np.empty((*lead, m, n))
    block = max(1, _QR_BYTES // (n * m * 8))
    for start in range(0, len(draws), block):
        a = out.reshape(-1, m, n)[start:start + block]
        np.copyto(a, np.linalg.qr(draws[start:start + block])[0].swapaxes(1, 2))
        a *= np.sign(np.take_along_axis(a, (np.abs(a) > 0.0).argmax(axis=2)[..., None], axis=2))
    return out


def gen_orthoprojector(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """M x N matrix with orthonormal rows from one N x M draw (orthoprojectors)."""
    return orthoprojectors(rng.standard_normal((n, m)))


def gen_measurements(n: int, m: int, l_count: int, sigma2: float,
                     rng: np.random.Generator, shared: bool = False) -> MeasurementEnsemble:
    """Per-node orthoprojector matrices, the bits of `l_count`
    gen_orthoprojector calls on `rng`. One shared draw when `shared`, stored
    once as a read-only (L, M, N) stride-0 view (`np.broadcast_to`)."""
    if sigma2 < 0:
        raise ValueError("noise variance must be nonnegative")
    mats = orthoprojectors(rng.standard_normal((1 if shared else l_count, n, m)))
    mats = np.broadcast_to(mats[0], (l_count, m, n)) if shared else mats
    return MeasurementEnsemble(matrices=mats, noise_sigma2=float(sigma2))


def measure(ensemble: JointSparseEnsemble, meas: MeasurementEnsemble,
            rng: np.random.Generator | None) -> np.ndarray:
    """The `(L, M)` observations y_l = B_l s_l + v_l, iid Gaussian noise of variance sigma2.

    `rng` is read only when sigma2 > 0, so a noiseless draw may pass None."""
    l_count, m, n = meas.matrices.shape
    if n != ensemble.n or l_count != ensemble.l_count:
        raise ValueError(
            f"measurement shape {meas.matrices.shape} incompatible with "
            f"ensemble (L={ensemble.l_count}, N={ensemble.n})")
    ys = np.einsum("lmn,ln->lm", meas.matrices, ensemble.signals)
    if meas.noise_sigma2 > 0:
        ys += rng.standard_normal(ys.shape) * np.sqrt(meas.noise_sigma2)
    return ys


def mac_aggregate(ys: np.ndarray) -> np.ndarray:
    """Sum-channel output z = sum_l y_l of the `(L, M)` observations."""
    if ys.shape[0] < 1:
        raise ValueError("need at least one per-node observation")
    return ys.sum(axis=0)


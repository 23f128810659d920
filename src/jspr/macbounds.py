"""Sum-channel (MAC) recovery path and information-theoretic bound calculators.

Covers recovery from the aggregated observation via standard OMP, the
interleaved block dictionary that casts the aggregate as a block-sparse
system, a block-RIP sufficient measurement count, KL distances between
support hypotheses under MAC and parallel-channel (PAC) forwarding, their
Fano error lower bound, and the Gaussian-ensemble necessary condition.
Natural logarithms throughout.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationTooLargeError
from .greedy import omp

XI_PAIR_CAP = 10 ** 6


@dataclass
class BlockDictionary:
    """M x (L*N) matrix; block j holds column j of every node's matrix."""

    matrix: np.ndarray
    block_size: int           # L
    block_count: int          # N


@dataclass
class XiEstimate:
    """Average pairwise KL distance, exact or sampled (with standard error)."""

    value: float
    stderr: float
    n_pairs: int
    exact: bool


def mac_omp(z: np.ndarray, dictionary: np.ndarray, k: int) -> list:
    """Standard OMP on the aggregated observation (shared-matrix case)."""
    return omp(z, dictionary, k)


def build_block_dictionary(meas) -> BlockDictionary:
    """Interleave per-node columns: output column L*j + l is column j of node l."""
    l_count, m, n = meas.matrices.shape
    matrix = np.ascontiguousarray(meas.matrices.transpose(1, 2, 0).reshape(m, n * l_count))
    return BlockDictionary(matrix=matrix, block_size=l_count, block_count=n)


def block_coefficients(ensemble) -> np.ndarray:
    """Flatten signals into the matching block layout: entry L*j + l is s_l(j)."""
    return np.ascontiguousarray(ensemble.signals.T.reshape(-1))


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


BLOCK_RIP_FORMULA = "ceil((36/(7*delta0)) * (ln(2*C(N,k)) + k*L*ln(12/delta0) + t))"


def block_rip_measurement_bound(n: int, k: int, l_count: int,
                                delta0: float, slack_t: float) -> int:
    """Measurements per node sufficient for reliable block-sparse recovery:
    ceil((36/(7 d0)) (ln(2 C(N,k)) + k L ln(12/d0) + t))."""
    if not 0 < delta0 < 1:
        raise ValueError(f"delta0 must be in (0, 1), got {delta0}")
    if slack_t <= 0:
        raise ValueError(f"slack_t must be positive, got {slack_t}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if l_count < 1:
        raise ValueError("l_count must be positive")
    rhs = (36.0 / (7.0 * delta0)) * (
        math.log(2.0) + _log_comb(n, k)
        + k * l_count * math.log(12.0 / delta0) + slack_t)
    return math.ceil(rhs)


GAMMA_C_MIN_FORMULA = "(min nonzero |s_l(j)|)^2 / sigma2"


def gamma_c_min(ensemble, sigma2: float) -> float:
    """Minimum component SNR: squared smallest nonzero magnitude over sigma2."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    nonzeros = ensemble.signals[:, list(ensemble.support)]
    return float(np.min(np.abs(nonzeros)) ** 2 / sigma2)


SBAR_MIN_FORMULA = "min over the support of |sum_l s_l(j)|"


def sbar_min(ensemble) -> float:
    """Smallest summed-coefficient magnitude over the support."""
    sbar = ensemble.signals.sum(axis=0)
    return float(np.min(np.abs(sbar[list(ensemble.support)])))


GAUSS_FORMULA = "ceil(max(ln(C(N,k))/(8*k*L*gamma_c_min), ln(N-k)/(4*L*gamma_c_min)))"


def gauss_necessary_bound(n: int, k: int, l_count: int, gamma: float) -> int:
    """Measurements below which no scheme can recover the pattern from the
    aggregate: ceil(max(ln C(N,k) / (8 k L g), ln(N-k) / (4 L g)))."""
    if gamma <= 0:
        raise ValueError(f"minimum component SNR must be positive, got {gamma}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if l_count < 1:
        raise ValueError("l_count must be positive")
    term1 = _log_comb(n, k) / (8.0 * k * l_count * gamma)
    term2 = math.log(n - k) / (4.0 * l_count * gamma)
    return math.ceil(max(term1, term2))


def _hypothesis_means(b: np.ndarray, signals: np.ndarray, support) -> np.ndarray:
    """(L, M) noiseless observation means under a hypothesized support.

    Signal values are taken as-is at the hypothesized coordinates (zero off
    the true support), so the distance between the true support and itself
    is exactly zero.
    """
    cols = list(support)
    return signals[:, cols] @ b[:, cols].T


def _check_pair(support_m, support_n, ensemble, meas):
    if len(support_m) != len(support_n):
        raise ValueError("support hypotheses must have equal cardinality")
    if meas.noise_sigma2 <= 0:
        raise ValueError("KL distance needs positive noise variance")
    return meas.matrices[0], ensemble.signals


def kl_pair_mac(support_m, support_n, ensemble, meas) -> float:
    """KL distance between aggregate-output densities for two hypotheses:
    ||sum_l (B_Un s_l,Un - B_Um s_l,Um)||^2 / (2 sigma2 L)."""
    b, signals = _check_pair(support_m, support_n, ensemble, meas)
    diff = (_hypothesis_means(b, signals, support_n)
            - _hypothesis_means(b, signals, support_m)).sum(axis=0)
    return float(diff @ diff) / (2.0 * meas.noise_sigma2 * ensemble.l_count)


def kl_pair_pac(support_m, support_n, ensemble, meas) -> float:
    """KL distance with all observation vectors forwarded separately:
    sum_l ||B_Un s_l,Un - B_Um s_l,Um||^2 / (2 sigma2)."""
    b, signals = _check_pair(support_m, support_n, ensemble, meas)
    diff = (_hypothesis_means(b, signals, support_n)
            - _hypothesis_means(b, signals, support_m))
    return float(np.sum(diff * diff)) / (2.0 * meas.noise_sigma2)


def _mean_pairwise_sqdist(x: np.ndarray) -> float:
    """Mean squared distance over all ordered pairs of rows (diagonal included)."""
    p, d = x.shape
    block = max(1, (1 << 24) // max(1, p * d))
    total = 0.0
    for start in range(0, p, block):
        diff = x[start:start + block, None, :] - x[None, :, :]
        total += float(np.sum(diff * diff))
    return total / (p * p)


XI_FORMULAS = {
    "mac": "mean over support pairs of ||sum_l (B_Un s_l,Un - B_Um s_l,Um)||^2 / (2*sigma2*L)",
    "pac": "mean over support pairs of sum_l ||B_Un s_l,Un - B_Um s_l,Um||^2 / (2*sigma2)",
}


def xi_average(ensemble, meas, channel: str, sample_pairs: int | None = None,
               rng: np.random.Generator | None = None) -> XiEstimate:
    """Average KL distance over support-hypothesis pairs.

    Exact mode enumerates every ordered pair of the C(N,k) supports and
    requires C(N,k)^2 <= XI_PAIR_CAP. When the budget is exceeded, pass
    sample_pairs to average over uniformly drawn pairs instead; the estimate
    then carries a standard error.
    """
    if channel not in ("mac", "pac"):
        raise ValueError(f"channel must be 'mac' or 'pac', got {channel!r}")
    if meas.noise_sigma2 <= 0:
        raise ValueError("KL distance needs positive noise variance")
    n, k = ensemble.n, ensemble.k
    sigma2, l_count = meas.noise_sigma2, ensemble.l_count
    b, signals = meas.matrices[0], ensemble.signals
    n_supports = math.comb(n, k)

    if sample_pairs is None:
        if n_supports ** 2 > XI_PAIR_CAP:
            raise EnumerationTooLargeError(
                f"C({n},{k})^2 = {n_supports ** 2} ordered pairs exceed the cap "
                f"{XI_PAIR_CAP}; pass sample_pairs for a sampled estimate")
        supports = list(itertools.combinations(range(n), k))
        v = np.stack([_hypothesis_means(b, signals, u) for u in supports])  # (P, L, M)
        if channel == "mac":
            flat = v.sum(axis=1)
            scale = 2.0 * sigma2 * l_count
        else:
            flat = v.reshape(len(supports), -1)
            scale = 2.0 * sigma2
        value = _mean_pairwise_sqdist(flat) / scale
        return XiEstimate(value=value, stderr=0.0,
                          n_pairs=n_supports ** 2, exact=True)

    if rng is None:
        raise ValueError("sampled mode requires an rng")
    if sample_pairs < 2:
        raise ValueError("sample_pairs must be at least 2")
    pair_fn = kl_pair_mac if channel == "mac" else kl_pair_pac
    draws = np.empty(sample_pairs)
    for i in range(sample_pairs):
        um = tuple(sorted(int(j) for j in rng.choice(n, size=k, replace=False)))
        un = tuple(sorted(int(j) for j in rng.choice(n, size=k, replace=False)))
        draws[i] = pair_fn(um, un, ensemble, meas)
    stderr = float(np.std(draws, ddof=1) / math.sqrt(sample_pairs))
    return XiEstimate(value=float(np.mean(draws)), stderr=stderr,
                      n_pairs=sample_pairs, exact=False)


FANO_FORMULA = "max(0, 1 - (xi_mac + ln 2)/ln(C(N,k)))"


def fano_pe_lower(xi: float, n: int, k: int) -> float:
    """Fano lower bound on hypothesis-test error: max(0, 1 - (xi + ln 2)/ln C(N,k))."""
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    if math.comb(n, k) < 2:
        raise ValueError("need at least two support hypotheses")
    return max(0.0, 1.0 - (xi + math.log(2.0)) / _log_comb(n, k))


def bound_report(ensemble, meas, *, delta0: float, slack_t: float, sample_pairs: int,
                 rng: np.random.Generator) -> dict:
    """JSON-ready entries, each a value and the formula it evaluates, of
    every analytical quantity for one ensemble/measurement pair.

    xi is exact when the C(N,k)^2 ordered support pairs fit XI_PAIR_CAP;
    otherwise each channel averages `sample_pairs` pairs drawn from `rng`,
    MAC first. The xi entries also carry their standard error, whether they
    are exact, and the number of pairs.
    """
    n, k, l_count = ensemble.n, ensemble.k, ensemble.l_count
    exact = math.comb(n, k) ** 2 <= XI_PAIR_CAP
    xi = {}
    for channel in ("mac", "pac"):
        est = xi_average(ensemble, meas, channel,
                         sample_pairs=None if exact else sample_pairs, rng=rng)
        xi[channel] = {"value": est.value, "formula": XI_FORMULAS[channel],
                       "stderr": est.stderr, "exact": est.exact, "pairs": est.n_pairs}
    gamma = gamma_c_min(ensemble, meas.noise_sigma2)
    return {
        "m_block_rip": {"value": block_rip_measurement_bound(n, k, l_count, delta0, slack_t),
                        "formula": BLOCK_RIP_FORMULA},
        "m_gauss_lower": {"value": gauss_necessary_bound(n, k, l_count, gamma),
                          "formula": GAUSS_FORMULA},
        "fano_pe_lower": {"value": fano_pe_lower(xi["mac"]["value"], n, k),
                          "formula": FANO_FORMULA},
        "xi_mac": xi["mac"],
        "xi_pac": xi["pac"],
        "gamma_c_min": {"value": gamma, "formula": GAMMA_C_MIN_FORMULA},
        "sbar_min": {"value": sbar_min(ensemble), "formula": SBAR_MIN_FORMULA},
    }

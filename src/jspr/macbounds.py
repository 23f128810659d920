"""Sum-channel (MAC) recovery path and information-theoretic bound calculators.

Covers recovery from the aggregated observation via standard OMP, a
block-RIP sufficient measurement count for the aggregate read as a
block-sparse system, the average KL distance between support hypotheses
under MAC and parallel-channel (PAC) forwarding, its Fano error lower bound,
and the Gaussian-ensemble necessary condition. Natural logarithms throughout.
"""

import math

import numpy as np

from .greedy import omp


def mac_omp(z: np.ndarray, dictionary: np.ndarray, k: int) -> list:
    """Standard OMP on the aggregated observation (shared-matrix case)."""
    return omp(z, dictionary, k)


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


XI_FORMULAS = {
    "mac": "mean over support pairs of ||sum_l (B_Un s_l,Un - B_Um s_l,Um)||^2 / (2*sigma2*L)",
    "pac": "mean over support pairs of sum_l ||B_Un s_l,Un - B_Um s_l,Um||^2 / (2*sigma2)",
}


def xi_average(ensemble, meas, channel: str) -> float:
    """Average KL distance over all ordered pairs of the C(N,k) support
    hypotheses, in closed form.

    A hypothesis U takes the signal as-is on its coordinates, and the signal
    is zero off the true support S, so U's noiseless mean is linear in the
    indicator of U within S. The pair average is then
    sum_{i,j in S} C_ij K_ij / (sigma2 c): C is the covariance of those
    indicators under a uniform k-subset of [N], and K the Gram matrix of
    each index's share of the mean, with c = L for MAC and 1 for PAC.
    """
    if channel not in XI_FORMULAS:
        raise ValueError(f"channel must be 'mac' or 'pac', got {channel!r}")
    if meas.noise_sigma2 <= 0:
        raise ValueError("KL distance needs positive noise variance")
    n, k = ensemble.n, ensemble.k
    support = list(ensemble.support)
    b = meas.matrices[0][:, support]
    signals = ensemble.signals[:, support]               # (L, k)
    p = k / n
    off = k * (k - 1) / (n * (n - 1)) - p * p if k > 1 else 0.0   # k = 1: no off-diagonal
    cov = np.full((k, k), off)
    np.fill_diagonal(cov, p * (1.0 - p))
    if channel == "mac":
        sbar = signals.sum(axis=0)
        weights, count = np.outer(sbar, sbar), ensemble.l_count
    else:
        weights, count = signals.T @ signals, 1
    return float(np.sum(cov * (b.T @ b) * weights)) / (meas.noise_sigma2 * count)


FANO_FORMULA = "max(0, 1 - (xi_mac + ln 2)/ln(C(N,k)))"


def fano_pe_lower(xi: float, n: int, k: int) -> float:
    """Fano lower bound on hypothesis-test error: max(0, 1 - (xi + ln 2)/ln C(N,k))."""
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    if math.comb(n, k) < 2:
        raise ValueError("need at least two support hypotheses")
    return max(0.0, 1.0 - (xi + math.log(2.0)) / _log_comb(n, k))


def bound_report(ensemble, meas, *, delta0: float, slack_t: float) -> dict:
    """JSON-ready entries, each a value and the formula it evaluates, of
    every analytical quantity for one ensemble/measurement pair."""
    n, k, l_count = ensemble.n, ensemble.k, ensemble.l_count
    xi = {channel: {"value": xi_average(ensemble, meas, channel),
                    "formula": XI_FORMULAS[channel]}
          for channel in XI_FORMULAS}
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

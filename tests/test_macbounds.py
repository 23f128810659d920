"""Sum-channel recovery path and bound calculators."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jspr.ensembles import (
    JointSparseEnsemble,
    MeasurementEnsemble,
    gen_measurements,
    gen_signals,
    gen_support,
    mac_aggregate,
    measure,
)
from jspr.greedy import omp
from jspr.macbounds import (
    block_rip_measurement_bound,
    fano_pe_lower,
    gamma_c_min,
    gauss_necessary_bound,
    mac_omp,
    sbar_min,
    xi_average,
)

mpmath.mp.dps = 60


def rng_of(seed):
    return np.random.default_rng(seed)


def shared_instance(seed, n=8, k=2, l_count=3, m=5, sigma2=1.0, amp=(-2.0, 2.0)):
    rng = rng_of(seed)
    support = gen_support(n, k, rng)
    ensemble = gen_signals(support, n, l_count, amp[0], amp[1], rng)
    meas = gen_measurements(n, m, l_count, sigma2, rng, shared=True)
    return ensemble, meas


def kl_oracle(support_m, support_n, ensemble, meas, channel):
    """From-scratch evaluation via zero-padded length-N hypothesis vectors."""
    b = meas.matrices[0]
    n = ensemble.n
    diffs = []
    for sig in ensemble.signals:
        padded_n = np.zeros(n)
        padded_n[list(support_n)] = sig[list(support_n)]
        padded_m = np.zeros(n)
        padded_m[list(support_m)] = sig[list(support_m)]
        diffs.append(b @ padded_n - b @ padded_m)
    diffs = np.array(diffs)
    if channel == "mac":
        total = diffs.sum(axis=0)
        return float(total @ total) / (2 * meas.noise_sigma2 * ensemble.l_count)
    return float(np.sum(diffs ** 2)) / (2 * meas.noise_sigma2)


class TestMacOmp:
    def test_is_omp(self):
        # one OMP: the sum-channel path is OMP on the aggregate, not a copy
        assert mac_omp is omp

    def test_single_node_equals_omp(self):
        ensemble, meas = shared_instance(1, l_count=1, sigma2=0.01, amp=(10, 15))
        obs = measure(ensemble, meas, rng_of(2))
        z = mac_aggregate(obs)
        assert mac_omp(z, meas.matrices[0], 2) == omp(obs[0], meas.matrices[0], 2)

    def test_noiseless_identity_same_sign(self):
        n = 6
        rng = rng_of(3)
        ensemble = gen_signals((1, 4), n, 4, 10.0, 15.0, rng)
        mats = np.repeat(np.eye(n)[None, :, :], 4, axis=0)
        meas = MeasurementEnsemble(matrices=mats, noise_sigma2=0.0)
        obs = measure(ensemble, meas, rng)
        z = mac_aggregate(obs)
        assert set(mac_omp(z, meas.matrices[0], 2)) == {1, 4}


class TestBlockRipBound:
    def test_monotone_in_l(self):
        values = [block_rip_measurement_bound(128, 4, l, 0.5, 1.0) for l in range(1, 9)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_high_precision_eval(self):
        n, k, l_count, delta0, t = 256, 5, 10, 0.5, 1.0
        got = block_rip_measurement_bound(n, k, l_count, delta0, t)
        exact = (36 / (mpmath.mpf(7) * delta0)) * (
            mpmath.log(2 * mpmath.binomial(n, k)) + k * l_count * mpmath.log(12 / mpmath.mpf(delta0)) + t)
        assert abs(got - mpmath.ceil(exact)) <= 1

    def test_slack_additivity_before_ceiling(self):
        delta0, t = 0.3, 2.0
        low = block_rip_measurement_bound(64, 3, 4, delta0, t)
        high = block_rip_measurement_bound(64, 3, 4, delta0, 2 * t)
        assert abs((high - low) - (36.0 / (7.0 * delta0)) * t) <= 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(n=16, k=2, l_count=2, delta0=0.0, slack_t=1.0),
        dict(n=16, k=2, l_count=2, delta0=1.0, slack_t=1.0),
        dict(n=16, k=2, l_count=2, delta0=0.5, slack_t=0.0),
        dict(n=16, k=16, l_count=2, delta0=0.5, slack_t=1.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            block_rip_measurement_bound(**kwargs)


class TestGaussBound:
    def test_monotone_decreasing_in_l(self):
        values = [gauss_necessary_bound(4096, 4, l, 1e-4) for l in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monotone_decreasing_in_gamma(self):
        values = [gauss_necessary_bound(4096, 4, 2, g) for g in (1e-5, 1e-4, 1e-3)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_matches_high_precision_eval(self):
        n, k, l_count, gamma = 256, 5, 10, 1e-4
        got = gauss_necessary_bound(n, k, l_count, gamma)
        exact = mpmath.ceil(max(
            mpmath.log(mpmath.binomial(n, k)) / (8 * k * l_count * mpmath.mpf(gamma)),
            mpmath.log(n - k) / (4 * l_count * mpmath.mpf(gamma))))
        assert abs(got - exact) <= 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            gauss_necessary_bound(16, 2, 2, 0.0)
        with pytest.raises(ValueError):
            gauss_necessary_bound(16, 16, 2, 1.0)


class TestEnsembleScalars:
    def test_gamma_c_min(self):
        signals = np.zeros((2, 5))
        signals[0, 1], signals[0, 3] = 2.0, -0.5
        signals[1, 1], signals[1, 3] = 3.0, 1.0
        ens = JointSparseEnsemble(5, 2, 2, (1, 3), signals)
        assert gamma_c_min(ens, 0.25) == pytest.approx(0.25 / 0.25)
        with pytest.raises(ValueError):
            gamma_c_min(ens, 0.0)

    def test_sbar_min(self):
        signals = np.zeros((2, 4))
        signals[0, 0], signals[1, 0] = 2.0, -1.5    # sums to 0.5
        signals[0, 2], signals[1, 2] = 3.0, 3.0     # sums to 6
        ens = JointSparseEnsemble(4, 2, 2, (0, 2), signals)
        assert sbar_min(ens) == pytest.approx(0.5)


class TestXiAverage:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8), l_count=st.integers(1, 4),
           identical=st.booleans(), data=st.data())
    def test_exact_matches_double_loop(self, seed, n, l_count, identical, data):
        k = data.draw(st.integers(1, n - 1), label="k")
        m = data.draw(st.integers(1, n - 1), label="m")
        ensemble, meas = shared_instance(seed, n=n, k=k, l_count=l_count, m=m)
        if identical:
            ensemble.signals = np.repeat(ensemble.signals[:1], l_count, axis=0)
        supports = list(itertools.combinations(range(n), k))
        for channel in ("mac", "pac"):
            expected = np.mean([kl_oracle(um, un, ensemble, meas, channel)
                                for um in supports for un in supports])
            assert math.isclose(xi_average(ensemble, meas, channel), expected,
                                rel_tol=1e-12)

    def test_mac_below_pac(self):
        ensemble, meas = shared_instance(12, n=7, k=2, l_count=4)
        assert xi_average(ensemble, meas, "mac") <= xi_average(ensemble, meas, "pac") + 1e-10

    def test_identical_signals_equality(self):
        ensemble, meas = shared_instance(13, n=6, k=2, l_count=4)
        ensemble.signals = np.repeat(ensemble.signals[:1], 4, axis=0)
        mac = xi_average(ensemble, meas, "mac")
        pac = xi_average(ensemble, meas, "pac")
        assert abs(mac - pac) <= 1e-10


class TestFano:
    def test_closed_form_half(self):
        assert fano_pe_lower(0.0, 4, 1) == pytest.approx(0.5, abs=1e-12)

    def test_vacuous_clamped(self):
        xi = math.log(math.comb(6, 1)) - math.log(2.0) + 0.1
        assert fano_pe_lower(xi, 6, 1) == 0.0

    def test_matches_direct_formula(self):
        ensemble, meas = shared_instance(17, n=6, k=1, l_count=2)
        xi = xi_average(ensemble, meas, "mac")
        expected = max(0.0, 1.0 - (xi + math.log(2.0)) / math.log(6))
        assert fano_pe_lower(xi, 6, 1) == pytest.approx(expected, abs=1e-12)

    def test_monotone_nonincreasing_in_xi(self):
        values = [fano_pe_lower(xi, 24, 3) for xi in (0.0, 0.5, 1.0, 3.0, 10.0)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_invalid(self):
        with pytest.raises(ValueError):
            fano_pe_lower(-0.1, 6, 1)
        with pytest.raises(ValueError):
            fano_pe_lower(0.0, 1, 1)

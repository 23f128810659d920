"""Sparse-ensemble generation, measurement, and sum-channel aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jspr import ensembles, seeding
from jspr.ensembles import (
    JointSparseEnsemble,
    MeasurementEnsemble,
    gen_measurements,
    gen_orthoprojector,
    gen_signals,
    gen_support,
    mac_aggregate,
    measure,
)
from jspr.greedy import correlate, ls_residual


def rng_of(seed):
    return np.random.default_rng(seed)


def identity_measurements(n, l_count, sigma2=0.0):
    mats = np.repeat(np.eye(n)[None, :, :], l_count, axis=0)
    return MeasurementEnsemble(matrices=mats, noise_sigma2=sigma2)


class TestGenSupport:
    def test_two_outcomes_deterministic(self):
        first = gen_support(2, 1, rng_of(5))
        assert first in ((0,), (1,))
        assert gen_support(2, 1, rng_of(5)) == first

    def test_cardinality_and_range(self):
        support = gen_support(256, 10, rng_of(1))
        assert len(support) == 10
        assert len(set(support)) == 10
        assert all(0 <= i < 256 for i in support)

    def test_same_seed_same_set(self):
        assert gen_support(64, 5, rng_of(9)) == gen_support(64, 5, rng_of(9))

    @pytest.mark.parametrize("n,k", [(4, 0), (4, 4), (4, 5), (3, 3)])
    def test_invalid_parameters(self, n, k):
        with pytest.raises(ValueError):
            gen_support(n, k, rng_of(0))


class TestGenSignals:
    def test_placement_and_range(self):
        ens = gen_signals((3,), 8, 2, 10.0, 15.0, rng_of(2))
        assert ens.signals.shape == (2, 8)
        for sig in ens.signals:
            assert np.all(sig[np.arange(8) != 3] == 0.0)
            assert 10.0 <= sig[3] <= 15.0

    def test_degenerate_interval(self):
        ens = gen_signals((0,), 4, 1, 5.0, 5.0, rng_of(3))
        assert ens.signals.tolist() == [[5.0, 0.0, 0.0, 0.0]]

    def test_zero_mean_sum_clt(self):
        # the summed signal's coefficient has mean 0; check the sample mean
        # over many draws against a 3-sigma CLT band
        l_count, draws = 10, 10 ** 4
        rng = rng_of(11)
        sums = np.empty(draws)
        for t in range(draws):
            ens = gen_signals((1,), 4, l_count, -25.0, 25.0, rng)
            sums[t] = ens.signals[:, 1].sum()
        per_node_var = 50.0 ** 2 / 12.0
        sigma_mean = np.sqrt(l_count * per_node_var / draws)
        assert abs(sums.mean()) < 3.0 * sigma_mean

    def test_support_exact_no_accidental_zeros(self):
        ens = gen_signals((1, 5, 9), 12, 4, -2.0, 2.0, rng_of(7))
        nonzero_cols = np.where(np.any(ens.signals != 0.0, axis=0))[0]
        assert tuple(nonzero_cols) == (1, 5, 9)
        assert np.all(ens.signals[:, [1, 5, 9]] != 0.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            gen_signals((), 8, 2, 1.0, 2.0, rng_of(0))
        with pytest.raises(ValueError):
            gen_signals((1,), 8, 2, 3.0, 2.0, rng_of(0))
        with pytest.raises(ValueError):
            gen_signals((9,), 8, 2, 1.0, 2.0, rng_of(0))


class TestOrthoprojector:
    def test_scalar_row(self):
        a = gen_orthoprojector(1, 1, rng_of(4))
        assert a.shape == (1, 1)
        assert abs(abs(a[0, 0]) - 1.0) < 1e-12

    def test_rows_orthonormal(self):
        a = gen_orthoprojector(2, 4, rng_of(5))
        assert np.max(np.abs(a @ a.T - np.eye(2))) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 12), extra=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_orthonormal_property(self, m, extra, seed):
        n = m + extra
        a = gen_orthoprojector(m, n, rng_of(seed))
        assert np.max(np.abs(a @ a.T - np.eye(m))) <= 1e-10

    def test_distinct_seeds_differ(self):
        a1 = gen_orthoprojector(3, 8, rng_of(1))
        a2 = gen_orthoprojector(3, 8, rng_of(2))
        assert np.max(np.abs(a1 - a2)) > 1e-6

    def test_sign_convention(self):
        a = gen_orthoprojector(4, 9, rng_of(6))
        assert np.all(a[:, 0] > 0)   # first entry nonzero a.s., flipped positive

    def test_invalid(self):
        with pytest.raises(ValueError):
            gen_orthoprojector(5, 4, rng_of(0))
        with pytest.raises(ValueError):
            gen_orthoprojector(0, 4, rng_of(0))

    @staticmethod
    def one_qr(m, n, rng):
        """The M x N matrix of one unstacked QR of an N x M draw, rows
        sign-fixed one at a time."""
        q, _ = np.linalg.qr(rng.standard_normal((n, m)))
        a = np.ascontiguousarray(q.T)
        first = (np.abs(a) > 0.0).argmax(axis=1)
        return a * np.sign(a[np.arange(m), first])[:, None]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), l_count=st.integers(1, 6),
           shared=st.booleans(), qr_bytes=st.sampled_from([1, 2048, ensembles._QR_BYTES]),
           data=st.data())
    def test_measurements_equal_sequential_orthoprojectors(self, seed, n, l_count, shared,
                                                          qr_bytes, data):
        # gen_measurements is `l_count` gen_orthoprojector draws from one
        # generator (one when shared), and every matrix is the one of its
        # own unstacked QR, bit for bit, whatever the block of stacked QRs
        m = data.draw(st.integers(1, n), label="m")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ensembles, "_QR_BYTES", qr_bytes)
            got = gen_measurements(n, m, l_count, 0.0, rng_of(seed), shared=shared).matrices
            rng = rng_of(seed)
            each = [gen_orthoprojector(m, n, rng) for _ in range(1 if shared else l_count)]
        rng = rng_of(seed)
        alone = [self.one_qr(m, n, rng) for _ in each]
        want = np.broadcast_to(np.stack(each), (l_count, m, n))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(each, alone))


class TestMeasure:
    def test_noiseless_identity(self):
        ens = gen_signals((1, 3), 4, 2, 2.0, 3.0, rng_of(8))
        obs = measure(ens, identity_measurements(4, 2), rng_of(0))
        assert np.array_equal(obs, ens.signals)

    def test_noise_variance(self):
        # 100 observation draws x (4 x 25) components = 10^4 samples
        ens = gen_signals((0, 7), 32, 4, 10.0, 15.0, rng_of(12))
        meas = gen_measurements(32, 25, 4, 0.01, rng_of(13))
        clean = np.einsum("lmn,ln->lm", meas.matrices, ens.signals)
        rng = rng_of(14)
        residuals = []
        for _ in range(100):
            obs = measure(ens, meas, rng)
            residuals.append(obs - clean)
        var = np.var(np.concatenate(residuals))
        assert abs(var - 0.01) / 0.01 < 0.05

    def test_shared_matrix_identical_signals(self):
        sig = np.zeros((2, 6))
        sig[:, 2] = 4.0
        ens = JointSparseEnsemble(n=6, k=1, l_count=2, support=(2,), signals=sig)
        meas = gen_measurements(6, 3, 2, 0.0, rng_of(15), shared=True)
        obs = measure(ens, meas, rng_of(0))
        assert np.array_equal(obs[0], obs[1])

    def test_dimension_mismatch(self):
        ens = gen_signals((1,), 8, 2, 1.0, 2.0, rng_of(0))
        meas = gen_measurements(8, 3, 3, 0.0, rng_of(0))
        with pytest.raises(ValueError):
            measure(ens, meas, rng_of(0))

    def test_shared_flag_bitwise_equal_matrices(self):
        meas = gen_measurements(12, 5, 4, 0.01, rng_of(19), shared=True)
        for l in range(1, 4):
            assert np.array_equal(meas.matrices[0], meas.matrices[l])


class TestSharedMatrixView:
    """A shared draw is one matrix seen by every node, not L copies."""

    def draw(self, l_count=5, m=12, n=40, seed=31):
        return gen_measurements(n, m, l_count, 0.01, rng_of(seed), shared=True).matrices

    def test_equals_the_repeated_matrix(self):
        repeated = np.repeat(gen_orthoprojector(12, 40, rng_of(31))[None], 5, axis=0)
        view = self.draw()
        assert view.shape == repeated.shape and np.array_equal(view, repeated)
        assert view.strides[0] == 0                     # stored once

    def test_read_only(self):
        view = self.draw()
        with pytest.raises(ValueError, match="read-only"):
            view[1, 0, 0] = 1.0

    def test_kernels_bit_identical_on_view_and_copy(self):
        view = self.draw()
        copy = np.repeat(view[:1], 5, axis=0)
        rng = rng_of(32)
        ys = rng.standard_normal((5, 12))
        assert np.array_equal(correlate(ys, view), correlate(ys, copy))
        for selected in ([3, 17, 4], np.stack([rng.choice(40, 3, replace=False)
                                               for _ in range(5)])):
            assert np.array_equal(ls_residual(ys, view, selected),
                                  ls_residual(ys, copy, selected))
        # and as a (T, 1, M, N) chunk that broadcasts over the nodes
        chunk = np.stack([view[:1], self.draw(seed=33)[:1]])
        chunk_ys = rng.standard_normal((2, 5, 12))
        picks = np.array([[rng.choice(40, 4, replace=False) for _ in range(5)]
                          for _ in range(2)])
        expanded = np.repeat(chunk, 5, axis=1)
        assert np.array_equal(correlate(chunk_ys, chunk), correlate(chunk_ys, expanded))
        assert np.array_equal(ls_residual(chunk_ys, chunk, picks, check=False),
                              ls_residual(chunk_ys, expanded, picks, check=False))


class TestMacAggregate:
    def test_single_node(self):
        ens = gen_signals((2,), 6, 1, 1.0, 2.0, rng_of(1))
        obs = measure(ens, gen_measurements(6, 4, 1, 0.01, rng_of(2)), rng_of(3))
        z = mac_aggregate(obs)
        assert np.array_equal(z, obs[0])

    def test_noiseless_shared_equals_summed_model(self):
        ens = gen_signals((1, 4), 9, 3, 2.0, 5.0, rng_of(4))
        meas = gen_measurements(9, 5, 3, 0.0, rng_of(5), shared=True)
        obs = measure(ens, meas, rng_of(6))
        z = mac_aggregate(obs)
        assert np.max(np.abs(z - meas.matrices[0] @ ens.signals.sum(axis=0))) <= 1e-10

    def test_linearity(self):
        ens = gen_signals((0,), 5, 2, 1.0, 2.0, rng_of(7))
        obs = measure(ens, gen_measurements(5, 3, 2, 0.01, rng_of(8)), rng_of(9))
        z = mac_aggregate(obs)
        obs = 3.0 * obs
        assert np.allclose(mac_aggregate(obs), 3.0 * z)

    def test_mac_noise_variance_matches_summed_model(self):
        # aggregating noisy measurements must match the one-shot model
        # z = B sbar + w with Var(w) = L sigma2, in first two moments
        sigma2, l_count, draws = 0.04, 5, 10 ** 4
        ens = gen_signals((1, 3), 8, l_count, 2.0, 4.0, rng_of(20))
        meas = gen_measurements(8, 4, l_count, sigma2, rng_of(21), shared=True)
        clean = meas.matrices[0] @ ens.signals.sum(axis=0)
        rng = rng_of(22)
        zs = np.empty((draws, 4))
        for t in range(draws):
            zs[t] = mac_aggregate(measure(ens, meas, rng))
        direct_rng = rng_of(23)
        direct = clean + direct_rng.standard_normal((draws, 4)) * np.sqrt(l_count * sigma2)
        assert np.max(np.abs(zs.mean(0) - direct.mean(0))) < 0.05 * np.abs(clean).max()
        assert abs(zs.var() / direct.var() - 1.0) < 0.05


class TestSumSignal:
    def test_interval_bounds(self):
        ens = gen_signals((3, 5), 8, 10, 10.0, 15.0, rng_of(30))
        sbar = ens.signals.sum(axis=0)
        assert np.all(sbar[[3, 5]] >= 100.0)
        assert np.all(sbar[[3, 5]] <= 150.0)


class TestDeterminism:
    def test_generators_bitwise_identical(self):
        for build in (lambda r: gen_support(64, 6, r),
                      lambda r: gen_signals((1, 2), 8, 3, -1.0, 1.0, r).signals,
                      lambda r: gen_orthoprojector(4, 10, r),
                      lambda r: gen_measurements(10, 4, 2, 0.01, r).matrices):
            a = build(seeding.stream(123, seeding.MATRICES, 7))
            b = build(seeding.stream(123, seeding.MATRICES, 7))
            assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_streams_independent(self):
        a = seeding.stream(123, seeding.SUPPORT, 0).standard_normal(8)
        b = seeding.stream(123, seeding.NOISE, 0).standard_normal(8)
        assert np.max(np.abs(a - b)) > 1e-9

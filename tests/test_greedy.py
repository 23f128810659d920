"""Greedy solver kernels against brute-force and least-squares oracles."""

import numpy as np
import pytest

from jspr.ensembles import gen_orthoprojector
from jspr.errors import SingularProjectionError
from jspr.greedy import correlate, ls_residual, omp, somp
from jspr.harness import exhaustive_oracle


def rng_of(seed):
    return np.random.default_rng(seed)


class TestCorrelate:
    def test_basis_vector_identity(self):
        scores = correlate(np.eye(4)[:1], np.eye(4)[None])
        assert scores.tolist() == [[1.0, 0.0, 0.0, 0.0]]

    def test_orthogonal_residual(self):
        dictionary = np.zeros((3, 2))
        dictionary[0, 0] = dictionary[1, 1] = 1.0
        scores = correlate(np.array([[0.0, 0.0, 2.0]]), dictionary[None])
        assert np.all(scores <= 1e-12)

    def test_matches_double_loop(self):
        rng = rng_of(1)
        dictionary = rng.standard_normal((4, 6))
        residual = rng.standard_normal(4)
        expected = np.array([abs(sum(residual[i] * dictionary[i, w] for i in range(4)))
                             for w in range(6)])
        scores = correlate(residual[None], dictionary[None])
        assert np.max(np.abs(scores[0] - expected)) <= 1e-12

    def test_rows_equal_per_lane_products_bit_for_bit(self):
        # dcomp1 breaks count ties on these scores, so every row must be the
        # per-node product's floats exactly, not merely close
        rng = rng_of(4)
        for l_count, m, n in ((1, 5, 9), (6, 30, 256), (10, 17, 40)):
            dictionaries = rng.standard_normal((l_count, m, n))
            residuals = rng.standard_normal((l_count, m))
            scores = correlate(residuals, dictionaries)
            assert scores.shape == (l_count, n)
            for l in range(l_count):
                assert np.array_equal(scores[l], np.abs(dictionaries[l].T @ residuals[l]))


class TestLsResidual:
    def test_empty_selection_returns_y(self):
        y = np.array([1.0, -2.0, 3.0])
        out = ls_residual(y, np.eye(3), [])
        assert np.array_equal(out, y)
        out[0] = 99.0
        assert y[0] == 1.0   # copy, not a view

    def test_in_span_vanishes(self):
        rng = rng_of(2)
        dictionary = rng.standard_normal((6, 4))
        y = dictionary[:, [0, 2]] @ np.array([1.5, -0.5])
        r = ls_residual(y, dictionary, [0, 2])
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(y)

    def test_matches_lstsq_oracle(self):
        rng = rng_of(3)
        dictionary = rng.standard_normal((5, 8))
        y = rng.standard_normal(5)
        selected = [1, 6]
        sub = dictionary[:, selected]
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        expected = y - sub @ coef
        assert np.max(np.abs(ls_residual(y, dictionary, selected) - expected)) <= 1e-9

    def test_residual_orthogonal_to_selection(self):
        rng = rng_of(4)
        dictionary = rng.standard_normal((8, 12))
        y = rng.standard_normal(8)
        selected = [3, 7, 11]
        r = ls_residual(y, dictionary, selected)
        for j in selected:
            col = dictionary[:, j]
            assert abs(r @ col) <= 1e-8 * np.linalg.norm(r) * np.linalg.norm(col)

    def test_duplicate_column_raises(self):
        dictionary = np.zeros((4, 3))
        dictionary[:, 0] = dictionary[:, 1] = [1.0, 2.0, 0.0, 1.0]
        dictionary[:, 2] = [0.0, 1.0, 1.0, 0.0]
        with pytest.raises(SingularProjectionError):
            ls_residual(np.ones(4), dictionary, [0, 1])


class TestOmp:
    def test_identity_dictionary(self):
        y = np.zeros(6)
        y[1], y[4] = 3.0, -2.0
        assert set(omp(y, np.eye(6), 2)) == {1, 4}

    def test_orthonormal_columns_one_sparse(self):
        basis = gen_orthoprojector(5, 5, rng_of(5))   # square orthonormal
        y = 2.0 * basis[:, 3]
        assert omp(y, basis, 1) == [3]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            omp(np.ones(3), np.ones((3, 5)), 0)
        with pytest.raises(ValueError):
            omp(np.ones(3), np.ones((3, 5)), 4)

    def test_against_exhaustive_search(self):
        # noiseless: the oracle always lands on the true support; raw-scored
        # OMP recovers it on most draws at N=8, M=6 (44 of these 50 seeds,
        # 2535 of 3000 further draws made the same way)
        hits = 0
        for seed in range(50):
            rng = rng_of(100 + seed)
            dictionary = gen_orthoprojector(6, 8, rng)
            support = sorted(rng.choice(8, size=2, replace=False))
            coeffs = rng.uniform(10.0, 15.0, size=2)
            y = dictionary[:, support] @ coeffs
            oracle = exhaustive_oracle(y, dictionary, 2)
            assert set(oracle) == set(support)
            if set(omp(y, dictionary, 2)) == set(oracle):
                hits += 1
        assert hits >= 35

    def test_exactly_k_distinct_selections(self):
        rng = rng_of(6)
        dictionary = gen_orthoprojector(10, 16, rng)
        y = rng.standard_normal(10)
        for k in (1, 3, 7, 10):
            selected = omp(y, dictionary, k)
            assert len(selected) == k
            assert len(set(selected)) == k

    def test_permutation_equivariance(self):
        rng = rng_of(7)
        dictionary = gen_orthoprojector(6, 9, rng)
        y = rng.standard_normal(6)
        perm = rng.permutation(9)
        base = omp(y, dictionary, 3)
        permuted = omp(y, dictionary[:, perm], 3)
        assert set(perm[permuted]) == set(base)


class TestSomp:
    def test_single_node_reduces_to_omp(self):
        rng = rng_of(8)
        dictionary = gen_orthoprojector(6, 10, rng)
        y = rng.standard_normal(6)
        assert somp(y[None, :], dictionary[None, :, :], 3) == omp(y, dictionary, 3)

    def test_identical_copies_reduce_to_omp(self):
        rng = rng_of(9)
        dictionary = gen_orthoprojector(6, 10, rng)
        y = rng.standard_normal(6)
        obs, matrices = np.repeat(y[None, :], 3, axis=0), np.repeat(dictionary[None], 3, axis=0)
        assert somp(obs, matrices, 4) == omp(y, dictionary, 4)

    def test_beats_single_node_on_paired_trials(self):
        # N=16, M=6, k=2, L=5 at roughly 28 dB average SNR
        n, m, k, l_count, trials = 16, 6, 2, 5, 500
        mean_power = k * (10.0 ** 2 + 10.0 * 15.0 + 15.0 ** 2) / 3.0
        sigma2 = mean_power / (n * 10 ** 2.8)
        somp_wins = omp_wins = 0
        rng = rng_of(10)
        for _ in range(trials):
            support = sorted(rng.choice(n, size=k, replace=False))
            signals = np.zeros((l_count, n))
            signals[:, support] = rng.uniform(10.0, 15.0, size=(l_count, k))
            mats = np.stack([gen_orthoprojector(m, n, rng) for _ in range(l_count)])
            ys = np.einsum("lmn,ln->lm", mats, signals)
            ys = ys + rng.standard_normal(ys.shape) * np.sqrt(sigma2)
            if set(somp(ys, mats, k)) == set(support):
                somp_wins += 1
            if set(omp(ys[0], mats[0], k)) == set(support):
                omp_wins += 1
        assert somp_wins > omp_wins

    def test_no_duplicates_under_noise(self):
        rng = rng_of(11)
        mats = np.stack([gen_orthoprojector(5, 12, rng) for _ in range(3)])
        ys = rng.standard_normal((3, 5))
        selected = somp(ys, mats, 5)
        assert len(set(selected)) == 5

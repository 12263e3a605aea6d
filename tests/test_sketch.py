import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nystromngd import sketch
from nystromngd.gramian import DenseOperator


def random_psd(rng, n, rank=None):
    rank = rank if rank is not None else n
    a = rng.standard_normal((n, rank))
    return a @ a.T


def rotated_diag(rng, eigs):
    p = len(eigs)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return (q * np.asarray(eigs)) @ q.T


class TestNystromApproximate:
    def test_identity_full_rank(self):
        p = 12
        factor = sketch.nystrom_approximate(np.eye(p), rank=p, seed=0)
        np.testing.assert_allclose(factor.dense(), np.eye(p), atol=1e-12)

    def test_rank_one_recovery(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(15)
        g = np.outer(z, z)
        factor = sketch.nystrom_approximate(g, rank=3, seed=2)
        assert factor.eigenvalues[0] == pytest.approx(z @ z, rel=1e-10)
        assert factor.eigenvalues[1] <= 1e-10 * (z @ z)
        assert factor.eigenvalues[2] <= 1e-10 * (z @ z)
        err = np.linalg.norm(factor.dense() - g, 2)
        assert err <= 1e-10 * np.linalg.norm(g, 2)

    def test_expectation_bound_polynomial_decay(self):
        # mean spectral error over seeds obeys the rank-k expectation bound
        p, k, ell, n_seeds = 200, 10, 20, 100
        lam = 1.0 / np.arange(1, p + 1) ** 2
        g = np.diag(lam)
        bound = lam[k] + (k / (ell - k - 1)) * lam[k + 1 :].sum()
        errs = []
        for seed in range(n_seeds):
            factor = sketch.nystrom_approximate(g, rank=ell, seed=seed)
            errs.append(np.linalg.norm(g - factor.dense(k), 2))
        assert np.mean(errs) <= bound

    def test_batched_matvecs(self):
        op = DenseOperator(random_psd(np.random.default_rng(3), 30))
        sketch.nystrom_approximate(op, rank=8, seed=0)
        assert op.matvec_count == 8

    def test_seed_determinism(self):
        g = random_psd(np.random.default_rng(4), 20)
        a = sketch.nystrom_approximate(g, rank=5, seed=9)
        b = sketch.nystrom_approximate(g, rank=5, seed=9)
        assert np.array_equal(a.basis, b.basis)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            sketch.nystrom_approximate(np.eye(4), rank=5, seed=0)


class TestPreconditioner:
    def _factor(self, seed=0, p=25, rank=8):
        rng = np.random.default_rng(seed)
        g = rotated_diag(rng, 2.0 ** -np.arange(p))
        return g, sketch.nystrom_approximate(g, rank=rank, seed=seed)

    def test_complement_identity(self):
        g, factor = self._factor()
        pre = sketch.NystromPreconditioner(factor, mu=1e-3)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(g.shape[0])
        v -= factor.basis @ (factor.basis.T @ v)  # project out range(U)
        np.testing.assert_allclose(pre.apply(v), v, rtol=1e-12, atol=1e-12)

    def test_last_basis_vector_unchanged(self):
        g, factor = self._factor()
        pre = sketch.NystromPreconditioner(factor, mu=1e-3)
        u_last = factor.basis[:, -1]
        np.testing.assert_allclose(pre.apply(u_last), u_last, rtol=1e-12)

    def test_dense_inverse_consistent(self):
        g, factor = self._factor()
        pre = sketch.NystromPreconditioner(factor, mu=1e-2)
        v = np.random.default_rng(6).standard_normal(g.shape[0])
        np.testing.assert_allclose(pre.apply(v), pre.dense_inverse() @ v, rtol=1e-12)

    def test_exact_low_rank_condition_number_one(self):
        rng = np.random.default_rng(7)
        p, k = 30, 5
        g = random_psd(rng, p, rank=k)
        factor = sketch.nystrom_approximate(g, rank=k + 3, seed=1)
        mu = 1e-4
        inv = sketch.NystromPreconditioner(factor, mu).dense_inverse()
        # symmetric preconditioning via the inverse square root
        w, q = np.linalg.eigh(inv)
        half = (q * np.sqrt(w)) @ q.T
        system = half @ (g + mu * np.eye(p)) @ half
        cond = np.linalg.cond(system)
        assert cond == pytest.approx(1.0, abs=1e-8)


class TestEffectiveDimension:
    def test_all_equal_mu(self):
        p = 40
        assert sketch.effective_dimension(np.full(p, 0.3), 0.3) == pytest.approx(p / 2)

    def test_rank_one_limit(self):
        eigs = np.zeros(50)
        eigs[0] = 1.0
        val = sketch.effective_dimension(eigs, 1e-12)
        assert val == pytest.approx(1.0, rel=1e-11)

    def test_direct_sum_oracle(self):
        lam = 1.0 / np.arange(1, 101) ** 2
        mu = 0.01
        direct = sum(l / (l + mu) for l in lam)
        assert sketch.effective_dimension(lam, mu) == pytest.approx(direct, rel=1e-14)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bounded_by_count_above(self, seed):
        rng = np.random.default_rng(seed)
        eigs = np.sort(rng.random(30))[::-1]
        mu = 0.1
        val = sketch.effective_dimension(eigs, mu)
        assert 0 <= val <= len(eigs)


class TestPivotedCholesky:
    def test_diagonal_greedy_recovers_top_entries(self):
        d = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
        f, pivots = sketch.pivoted_cholesky(np.diag(d), rank=3, strategy="greedy")
        assert pivots == [0, 2, 4]
        np.testing.assert_allclose((f @ f.T).diagonal(), [5.0, 0, 4.0, 0, 3.0], atol=1e-12)

    @pytest.mark.parametrize("strategy", ["greedy", "uniform", "rp"])
    def test_full_rank_exact(self, strategy):
        rng = np.random.default_rng(8)
        g = random_psd(rng, 12)
        f, _ = sketch.pivoted_cholesky(g, rank=12, strategy=strategy, seed=0)
        np.testing.assert_allclose(f @ f.T, g, atol=1e-10 * np.linalg.norm(g))

    @pytest.mark.parametrize("strategy", ["greedy", "rp"])
    def test_equals_column_nystrom_on_pivots(self, strategy):
        rng = np.random.default_rng(9)
        for trial in range(20):
            g = random_psd(rng, 20)
            f, pivots = sketch.pivoted_cholesky(g, rank=6, strategy=strategy, seed=trial)
            s = list(pivots)
            nys = g[:, s] @ np.linalg.pinv(g[np.ix_(s, s)]) @ g[:, s].T
            assert np.linalg.norm(f @ f.T - nys) <= 1e-10 * np.linalg.norm(g)

    def test_exact_on_low_rank_matrix(self):
        rng = np.random.default_rng(10)
        g = random_psd(rng, 15, rank=4)
        f, _ = sketch.pivoted_cholesky(g, rank=6, strategy="greedy")
        np.testing.assert_allclose(f @ f.T, g, atol=1e-9 * np.linalg.norm(g))

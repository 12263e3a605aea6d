import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nystromngd import gramian, sketch
from nystromngd.gramian import DenseOperator


def random_psd(rng, n, rank=None):
    rank = rank if rank is not None else n
    a = rng.standard_normal((n, rank))
    return a @ a.T


def rotated_diag(rng, eigs):
    p = len(eigs)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return (q * np.asarray(eigs)) @ q.T


def orthonormal(rng, p, k):
    q, _ = np.linalg.qr(rng.standard_normal((p, k)))
    return q


def gaussian_nystrom(g, rank, seed):
    """The cold-start sketch written out step by step: QR'd Gaussian test
    matrix, Frobenius-norm shift, Cholesky, triangular solve, SVD."""
    rng = np.random.default_rng(seed)
    omega, _ = np.linalg.qr(rng.standard_normal((g.shape[0], rank)), mode="reduced")
    y = g @ omega
    shift = np.finfo(float).eps * np.linalg.norm(y, "fro")
    y_shifted = y + shift * omega
    chol = np.linalg.cholesky(omega.T @ y_shifted)
    u, s, _ = np.linalg.svd(np.linalg.solve(chol, y_shifted.T).T, full_matrices=False)
    return u, np.maximum(s**2 - shift, 0.0)


class RecordingOperator(DenseOperator):
    """DenseOperator that keeps every block of test vectors it is given."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.blocks = []

    def matmat(self, vmat):
        self.blocks.append(np.array(vmat))
        return super().matmat(vmat)


def preconditioned_cond(g, factor, mu):
    inv = sketch.NystromPreconditioner(factor, mu).dense_inverse()
    w, q = np.linalg.eigh(inv)
    half = (q * np.sqrt(w)) @ q.T
    eigs = np.linalg.eigvalsh(half @ (g + mu * np.eye(g.shape[0])) @ half)
    return eigs[-1] / eigs[0]


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

    def test_invalid_basis_shape(self):
        with pytest.raises(ValueError, match="basis"):
            sketch.nystrom_approximate(np.eye(4), rank=2, seed=0, basis=np.eye(5)[:, :2])


class TestWarmTestMatrix:
    """The test matrix built from a previous basis (``basis=``)."""

    @pytest.mark.parametrize("p, rank, seed", [(12, 12, 0), (30, 8, 3), (200, 20, 7)])
    def test_cold_start_is_the_gaussian_sketch(self, p, rank, seed):
        # the eigendecomposed core and the Cholesky oracle give the same
        # factor; basis columns may differ in sign, so compare G_hat
        g = random_psd(np.random.default_rng(seed), p)
        factor = sketch.nystrom_approximate(g, rank=rank, seed=seed, basis=None)
        u, eigs = gaussian_nystrom(g, rank, seed)
        np.testing.assert_allclose(factor.eigenvalues, eigs, rtol=1e-10, atol=0)
        oracle = (u * eigs) @ u.T
        err = np.linalg.norm(factor.dense() - oracle) / np.linalg.norm(oracle)
        assert err <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("p, k, ell", [(60, 3, 30), (100, 10, 50), (40, 1, 40)])
    def test_cold_start_on_exactly_rank_deficient_g(self, p, k, ell, seed):
        # ell far above rank(G): most core eigenvalues sit at the floor,
        # the one regulariser, and the factor is still finite and exact
        f = np.random.default_rng(seed).standard_normal((p, k))
        g = f @ f.T
        factor = sketch.nystrom_approximate(g, rank=ell, seed=seed, basis=None)
        assert np.all(np.isfinite(factor.basis))
        assert np.all(factor.eigenvalues >= 0)
        assert np.all(np.diff(factor.eigenvalues) <= 0)
        assert np.linalg.norm(g - factor.dense(), 2) <= 1e-12 * np.linalg.norm(g, 2)

    def test_basis_wider_than_rank_is_the_test_matrix(self):
        rng = np.random.default_rng(11)
        p, k, rank = 30, 9, 6
        basis = orthonormal(rng, p, k)
        op = RecordingOperator(random_psd(rng, p))
        sketch.nystrom_approximate(op, rank=rank, seed=0, basis=basis)
        assert len(op.blocks) == 1
        assert np.array_equal(op.blocks[0], basis[:, :rank])
        assert op.matvec_count == rank

    @pytest.mark.parametrize("p, rank, seed", [(12, 12, 0), (40, 8, 5)])
    def test_cold_test_matrix_is_the_q_of_a_gaussian(self, p, rank, seed):
        # the empty-basis top-up draws and factors exactly what a plain
        # Gaussian sketch does
        op = RecordingOperator(random_psd(np.random.default_rng(1), p))
        sketch.nystrom_approximate(op, rank=rank, seed=seed, basis=None)
        expected, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, rank)))
        assert len(op.blocks) == 1
        assert np.array_equal(op.blocks[0], expected)

    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_topped_up_test_matrix_is_orthonormal_and_starts_with_basis(self, k):
        # one QR of [basis, Gaussian]: the block is orthonormal, contains
        # range(basis), and its first k columns are the basis up to sign
        rng = np.random.default_rng(12)
        p, rank = 40, 8
        basis = orthonormal(rng, p, k)
        op = RecordingOperator(random_psd(rng, p))
        sketch.nystrom_approximate(op, rank=rank, seed=5, basis=basis)
        omega = op.blocks[0]
        assert omega.shape == (p, rank)
        assert np.linalg.norm(omega.T @ omega - np.eye(rank)) <= 1e-12
        assert np.linalg.norm(omega @ (omega.T @ basis) - basis) <= 1e-12
        assert np.linalg.norm(np.abs(omega[:, :k].T @ basis) - np.eye(k)) <= 1e-12
        assert op.matvec_count == rank

    @pytest.mark.parametrize("extra", [-2, 0, 4])
    def test_warm_basis_spanning_range_recovers_low_rank_matrix(self, extra):
        # criterion 5's setup; the basis spans range(G), plus `extra`
        # orthonormal directions outside it (negative: fewer than rank(G))
        rng = np.random.default_rng(7)
        p, k = 60, 6
        f = rng.standard_normal((p, k))
        g = f @ f.T
        ell = k + 2
        # the first k columns of this QR span range(G)
        full, _ = np.linalg.qr(np.hstack([f, rng.standard_normal((p, 4))]))
        basis = full[:, : k + extra]
        factor = sketch.nystrom_approximate(g, ell, seed=1, basis=basis)
        err = np.linalg.norm(g - factor.dense(), 2) / np.linalg.norm(g, 2)
        assert err <= 1e-10
        assert preconditioned_cond(g, factor, 1e-5) <= 1.0 + 1e-6

    @pytest.mark.parametrize("kind", ["negative definite", "mixed sign"])
    def test_non_psd_operator_raises_after_one_block(self, kind):
        rng = np.random.default_rng(13)
        p, rank = 20, 5
        if kind == "negative definite":
            g = -random_psd(rng, p)
        else:
            g = np.diag([1.0] * 10 + [-1.0] * 10)
        op = RecordingOperator(g)
        basis = orthonormal(rng, p, rank)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            sketch.nystrom_approximate(op, rank=rank, seed=0, basis=basis)
        assert len(op.blocks) == 1
        assert np.array_equal(op.blocks[0], basis)

    def test_psd_to_rounding_operator_gives_finite_factor(self):
        # one eigenvalue at -1e-14 makes the full-rank core indefinite at
        # rounding level; a Cholesky of it fails for every test matrix
        rng = np.random.default_rng(14)
        p = 20
        g = rotated_diag(rng, np.append(np.logspace(0, -12, p - 1), -1e-14))
        factor = sketch.nystrom_approximate(g, rank=p, seed=0)
        assert np.all(np.isfinite(factor.basis))
        assert np.all(factor.eigenvalues >= 0)
        assert np.linalg.norm(g - factor.dense(), 2) <= 1e-12


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

    @pytest.mark.parametrize("mu_ratio", [1e-10, 1e-4, 1.0])
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_the_papers_form(self, mu_ratio, seed):
        """apply and dense_inverse against P^{-1} as the paper writes it,
        (lam_l + mu) U (Lam + mu I)^{-1} U^T + (I - U U^T), on a random
        orthonormal U and a descending spectrum from 1e2 down to 1e-10."""
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 41))
        ell = int(rng.integers(1, p + 1))
        u = orthonormal(rng, p, ell)
        lam = np.sort(10.0 ** rng.uniform(-10, 2, ell))[::-1]
        lam[0], lam[-1] = 1e2, (1e-10 if ell > 1 else 1e2)
        mu = mu_ratio * lam[0]
        paper = (lam[-1] + mu) * (u / (lam + mu)) @ u.T + (np.eye(p) - u @ u.T)
        pre = sketch.NystromPreconditioner(sketch.NystromFactor(u, lam), mu)
        v = rng.standard_normal(p)
        want = paper @ v
        assert np.linalg.norm(pre.apply(v) - want) <= 1e-12 * np.linalg.norm(want)
        assert np.linalg.norm(pre.dense_inverse() - paper) <= 1e-12 * np.linalg.norm(paper)

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

    @pytest.mark.parametrize("strategy", ["greedy", "rp"])
    def test_full_rank_exact(self, strategy):
        rng = np.random.default_rng(8)
        g = random_psd(rng, 12)
        f, _ = sketch.pivoted_cholesky(g, rank=12, strategy=strategy, seed=0)
        np.testing.assert_allclose(f @ f.T, g, atol=1e-10 * np.linalg.norm(g))

    @pytest.mark.parametrize("strategy", ["uniform", "nope"])
    def test_unknown_strategy_raises(self, strategy):
        with pytest.raises(ValueError, match="unknown pivot strategy"):
            sketch.pivoted_cholesky(np.eye(3), rank=2, strategy=strategy)

    @pytest.mark.parametrize("strategy", ["greedy", "rp"])
    def test_equals_column_nystrom_on_pivots(self, strategy):
        rng = np.random.default_rng(9)
        for trial in range(20):
            g = random_psd(rng, 20)
            f, pivots = sketch.pivoted_cholesky(g, rank=6, strategy=strategy, seed=trial)
            s = list(pivots)
            nys = g[:, s] @ np.linalg.pinv(g[np.ix_(s, s)]) @ g[:, s].T
            assert np.linalg.norm(f @ f.T - nys) <= 1e-10 * np.linalg.norm(g)

    def test_explicit_matrix_above_the_dense_guard(self):
        # an explicit matrix needs no assembly, so the dense guard does not apply
        d = np.arange(1.0, gramian.DENSE_GUARD + 2)
        f, pivots = sketch.pivoted_cholesky(np.diag(d), rank=2, strategy="greedy")
        assert f.shape == (d.size, 2)
        assert pivots == [d.size - 1, d.size - 2]

    def test_exact_on_low_rank_matrix(self):
        rng = np.random.default_rng(10)
        g = random_psd(rng, 15, rank=4)
        f, _ = sketch.pivoted_cholesky(g, rank=6, strategy="greedy")
        np.testing.assert_allclose(f @ f.T, g, atol=1e-9 * np.linalg.norm(g))

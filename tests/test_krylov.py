import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nystromngd import sketch
from nystromngd.gramian import DenseOperator, ShiftedOperator
from nystromngd.krylov import pcg


class TestPcg:
    def test_identity_converges_in_one_iteration(self):
        b = np.array([3.0, -1.0, 2.0])
        report = pcg(DenseOperator(np.eye(3)), b, rel_tol=1e-12, maxit=10)
        assert report.iterations == 1
        assert report.converged
        np.testing.assert_allclose(report.solution, b, rtol=1e-14)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 10))
        spd = a @ a.T + 10.0 * np.eye(10)
        b = rng.standard_normal(10)
        report = pcg(DenseOperator(spd), b, rel_tol=1e-12, maxit=100)
        np.testing.assert_allclose(report.solution, np.linalg.solve(spd, b), rtol=1e-10)

    def test_zero_rhs(self):
        report = pcg(DenseOperator(np.eye(4)), np.zeros(4), rel_tol=1e-8, maxit=5)
        assert report.converged and report.iterations == 0
        np.testing.assert_array_equal(report.solution, np.zeros(4))

    def test_matvec_accounting(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((20, 20))
        spd = a @ a.T + np.eye(20)
        op = DenseOperator(spd)
        report = pcg(op, rng.standard_normal(20), rel_tol=1e-10, maxit=100)
        # one matvec per iteration plus the final true-residual check
        assert op.matvec_count == report.iterations + 1

    def test_operator_counts_residual_recomputations(self):
        op = DenseOperator(np.diag(np.logspace(0, 8, 80)))
        report = pcg(op, np.ones(80), rel_tol=1e-15, maxit=60)
        assert report.iterations == 60
        # 60 iterations, the true residual at iteration 50, the exit check
        assert op.matvec_count == 60 + 1 + 1

    def test_exact_preconditioner_two_iterations(self):
        rng = np.random.default_rng(2)
        p, k = 30, 4
        f = rng.standard_normal((p, k))
        g = f @ f.T
        mu = 1e-3
        factor = sketch.nystrom_approximate(g, rank=k + 3, seed=0)
        pre = sketch.NystromPreconditioner(factor, mu)
        b = rng.standard_normal(p)
        report = pcg(ShiftedOperator(DenseOperator(g), mu), b, 1e-10, 50, precond=pre)
        assert report.converged
        assert report.iterations <= 2

    @pytest.mark.parametrize("preconditioned", [False, True])
    def test_report_holds_python_scalars_for_a_numpy_tolerance(self, preconditioned):
        # a traced benchmark run writes the report's fields as JSON, which takes no numpy scalar
        rng = np.random.default_rng(4)
        f = rng.standard_normal((12, 12))
        g, mu = f @ f.T, 1e-2
        pre = sketch.NystromPreconditioner(sketch.nystrom_approximate(g, rank=4, seed=0), mu)
        op = ShiftedOperator(DenseOperator(g), mu)
        report = pcg(
            op, rng.standard_normal(12), rel_tol=np.float64(0.1), maxit=20,
            precond=pre if preconditioned else None,
        )
        assert type(report.converged) is bool and type(report.breakdown) is bool
        assert type(report.relative_residual) is float

    def test_breakdown_on_indefinite_operator(self):
        indef = np.diag([1.0, -1.0])
        report = pcg(DenseOperator(indef), np.array([0.0, 1.0]), 1e-10, 10)
        assert report.breakdown and not report.converged

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            pcg(DenseOperator(np.eye(2)), np.ones(2), rel_tol=0.0, maxit=5)
        with pytest.raises(ValueError):
            pcg(DenseOperator(np.eye(2)), np.ones(2), rel_tol=1.0, maxit=5)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_converges_on_random_spd(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        a = rng.standard_normal((n, n))
        spd = a @ a.T + n * np.eye(n)
        b = rng.standard_normal(n)
        report = pcg(DenseOperator(spd), b, rel_tol=1e-10, maxit=10 * n)
        assert report.converged
        assert report.relative_residual <= 1e-10

    def test_iteration_cap_respected(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((50, 50))
        spd = a @ a.T + 1e-6 * np.eye(50)
        report = pcg(DenseOperator(spd), rng.standard_normal(50), 1e-14, maxit=3)
        assert report.iterations <= 3

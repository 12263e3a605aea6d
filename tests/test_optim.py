from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nystromngd import autodiff as ad
from nystromngd import model, optim, problems
from nystromngd.gramian import GramianOperator, ShiftedOperator, assemble_dense
from nystromngd.krylov import pcg
from nystromngd.sketch import NystromPreconditioner, nystrom_approximate

EPS = np.finfo(float).eps


class LinearLeastSquares:
    """Toy problem: u_theta = Phi theta fitted to y with weights w.

    The Gramian of the L2 metric equals the (weighted) normal matrix,
    so natural gradient with an exact solve is Newton's method here.
    """

    def __init__(self, phi, y, w):
        self.phi = np.asarray(phi, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.w = np.asarray(w, dtype=float)

    def residual_jacobian(self, theta, quad, out=None):
        if out is None:
            return self.phi @ theta - self.y, self.phi
        out[...] = self.phi
        return self.phi @ theta - self.y, out

    def metric_weights(self, quad):
        return self.w

    def loss_value(self, theta, quad):
        r, _ = self.residual_jacobian(theta, quad)
        return 0.5 * float(np.sum(self.w * r * r))

    def loss_grad(self, theta, quad):
        r, jac = self.residual_jacobian(theta, quad)
        return jac.T @ (self.w * r)

    def optimum(self):
        a = self.phi.T @ (self.w[:, None] * self.phi)
        b = self.phi.T @ (self.w * self.y)
        return np.linalg.solve(a, b)

    def h1_relative_error(self, theta, quad):
        """Stand-in for the H1 error: relative distance to the optimum."""
        best = self.optimum()
        return float(np.linalg.norm(theta - best) / np.linalg.norm(best))


def numeric(records):
    """Every RunRecord field but the wall-clock seconds."""
    return [astuple(r)[:-1] for r in records]


def toy(seed=0, n=40, p=8):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    w = rng.random(n) + 0.5
    return LinearLeastSquares(phi, y, w)


class TestAdaptMu:
    def test_machine_epsilon_scaling(self):
        mu = optim.adapt_mu(1.0, 1217, loss=0.0, coeff=0.0)
        assert mu == pytest.approx(1217 * 2.220446e-16, rel=1e-6)
        assert mu == pytest.approx(2.702e-13, rel=1e-3)

    def test_loss_power_floor_dominates_for_small_top_eigenvalue(self):
        mu = optim.adapt_mu(1e-10, 100, loss=1e-2, coeff=1e-4)
        assert mu == pytest.approx(1e-8, rel=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            optim.adapt_mu(-1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            optim.adapt_mu(1.0, 0.0, 0.0, 0.0)


class TestAdaptRank:
    def test_doubles_when_spectrum_not_resolved(self):
        nxt = optim.adapt_rank(np.array([1.0]), mu=0.05, ell=8, ell_max=100)
        assert nxt == 16

    def test_doubling_capped(self):
        nxt = optim.adapt_rank(np.array([1.0]), mu=0.05, ell=80, ell_max=100)
        assert nxt == 100

    def test_shrinks_to_first_resolved_index_plus_offset(self):
        nxt = optim.adapt_rank(np.array([1.0, 0.5, 1e-6]), mu=1e-3, ell=3, ell_max=50)
        assert nxt == 4  # first eigenvalue below 10*mu is the 3rd (1-based) + 1

    def test_cap_when_already_at_max(self):
        nxt = optim.adapt_rank(np.full(10, 1.0), mu=1e-6, ell=10, ell_max=10)
        assert nxt == 10


class TestLinesearch:
    def test_quadratic_full_step(self):
        theta = np.array([2.0, -1.0])
        loss_fn = lambda th: 0.5 * float(th @ th)
        alpha, new_loss = optim.backtracking_linesearch(
            theta, theta, loss_fn, float(theta @ theta), loss_fn(theta)
        )
        assert alpha == 1.0
        assert new_loss == 0.0

    def test_descent_direction_accepted(self):
        theta = np.array([1.0])
        loss_fn = lambda th: float(np.cosh(th[0]))
        g = np.sinh(1.0) * np.ones(1)
        alpha, new_loss = optim.backtracking_linesearch(
            theta, g, loss_fn, float(g @ g), loss_fn(theta)
        )
        assert alpha > 0.0
        assert new_loss < loss_fn(theta)

    def test_nan_trial_backtracks(self):
        # a NaN loss at alpha = 1 fails the Armijo test; alpha = 1/2 is taken
        theta = np.array([2.0, -1.0])
        quadratic = lambda th: 0.5 * float(th @ th)
        loss_fn = lambda th: np.nan if np.array_equal(th, np.zeros(2)) else quadratic(th)
        alpha, new_loss = optim.backtracking_linesearch(
            theta, theta, loss_fn, float(theta @ theta), loss_fn(theta)
        )
        assert alpha == 0.5
        assert new_loss == quadratic(0.5 * theta)

    def test_ascent_direction_fails(self):
        theta = np.array([1.0, 1.0])
        loss_fn = lambda th: 0.5 * float(th @ th)
        alpha, new_loss = optim.backtracking_linesearch(
            theta, -theta, loss_fn, float(theta @ theta), loss_fn(theta)
        )
        assert alpha == 0.0
        assert new_loss == loss_fn(theta)


class TestBfgsUpdate:
    def textbook(self, h, s, y):
        rho = 1.0 / (s @ y)
        n = len(s)
        left = np.eye(n) - rho * np.outer(s, y)
        return left @ h @ left.T + rho * np.outer(s, s)

    def test_identity_fixed_point(self):
        s = np.array([1.0, 0.0, 0.0])
        h = optim.bfgs_update(np.eye(3), s, s)
        np.testing.assert_allclose(h, np.eye(3), atol=1e-15)

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        h = a @ a.T + np.eye(5)
        s = rng.standard_normal(5)
        y = rng.standard_normal(5)
        if s @ y <= 0:
            y = -y
        np.testing.assert_allclose(
            optim.bfgs_update(h, s, y), self.textbook(h, s, y), rtol=1e-12
        )

    def test_skips_on_negative_curvature(self):
        h = np.diag([1.0, 2.0])
        s = np.array([1.0, 0.0])
        y = -s
        np.testing.assert_array_equal(optim.bfgs_update(h, s, y), h)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_preserves_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        a = rng.standard_normal((n, n))
        h = a @ a.T + np.eye(n)
        s, y = rng.standard_normal(n), rng.standard_normal(n)
        out = optim.bfgs_update(h, s, y)
        np.testing.assert_allclose(out, out.T, rtol=1e-12, atol=1e-12)


REACH_PROBLEMS = ("poisson2d", "heat1p1d", "nlpoisson2d")
REACH_SEEDS = range(3)


@pytest.fixture(scope="module")
def reach_runs():
    """Records of each problem and seed on the criterion-10 setup with the
    default config, run once and stopped at H1 <= 1e-3."""
    runs = {}
    for name in REACH_PROBLEMS:
        for seed in REACH_SEEDS:
            prob = problems.make_problem(name, hidden_width=16, hidden_depth=2)
            quad = prob.sample_quadrature(400, 160, seed=seed)
            theta0 = model.init(prob.topology, seed).values
            cfg = optim.NystromNgdConfig(iterations=45, seed=seed)
            _, runs[name, seed] = optim.nystrom_ngd_run(
                prob, theta0, cfg, quad, quad_eval=quad, h1_stop=1e-3
            )
    return runs


class TestNystromNgdRun:
    def test_linear_least_squares_converges_fast(self, monkeypatch):
        monkeypatch.setattr(optim, "MU_FLOOR_COEFF", 0.0)
        prob = toy()
        theta0 = np.zeros(8)
        cfg = optim.NystromNgdConfig(ell0=8, ell_max=8, iterations=5, cg_maxit=50, seed=0)
        theta, records = optim.nystrom_ngd_run(prob, theta0, cfg, quad=None)
        best = prob.loss_value(prob.optimum(), None)
        assert records[-1].loss - best <= 1e-10 or prob.loss_value(theta, None) - best <= 1e-10

    def test_rank_trajectory_bounded_and_monotone_until_shrink(self, monkeypatch):
        monkeypatch.setattr(optim, "MU_FLOOR_COEFF", 1e-10)
        prob = toy(seed=3, n=60, p=12)
        cfg = optim.NystromNgdConfig(ell0=2, ell_max=10, iterations=8, seed=1)
        _, records = optim.nystrom_ngd_run(prob, np.zeros(12), cfg, quad=None)
        ells = [r.ell for r in records]
        assert all(e <= 10 for e in ells)
        shrunk = False
        for prev, cur in zip(ells, ells[1:]):
            if cur < prev:
                shrunk = True
            if not shrunk:
                assert cur >= prev

    def test_records_well_formed(self):
        prob = toy(seed=4)
        cfg = optim.NystromNgdConfig(ell0=4, ell_max=8, iterations=4, seed=0)
        for name in optim.OPTIMIZER_NAMES:
            _, records = optim.run_optimizer(name, prob, np.zeros(8), cfg, quad=None)
            its = [r.iteration for r in records]
            assert its == list(range(4)), name
            mv = [r.matvecs for r in records]
            assert all(b >= a for a, b in zip(mv, mv[1:])), name

    def test_h1_stop_ends_at_first_record_at_target(self):
        prob = toy(seed=4)
        cfg = optim.NystromNgdConfig(ell0=2, ell_max=4, iterations=6, seed=0)
        run = lambda **kw: optim.nystrom_ngd_run(prob, np.zeros(8), cfg, None, "eval", **kw)
        _, full = run()
        target = full[2].h1_rel_error
        first = next(i for i, r in enumerate(full) if r.h1_rel_error <= target)
        assert first < len(full) - 1  # the stop has records to cut
        _, records = run(h1_stop=target)
        assert numeric(records) == numeric(full[: first + 1])

    @pytest.mark.parametrize("seed", REACH_SEEDS)
    @pytest.mark.parametrize("name", REACH_PROBLEMS)
    def test_reaches_target(self, reach_runs, name, seed):
        # damping above the Gramian's rounding floor reaches H1 <= 1e-3
        # within 45 iterations (with gamma = p the worst seeds took 73, 57, 48)
        assert reach_runs[name, seed][-1].h1_rel_error <= 1e-3

    def test_median_iterations_to_target(self, reach_runs):
        # warm-started sketches: median 20 iterations over the nine runs
        # (28 with a fresh Gaussian test matrix every step)
        assert np.median([len(r) for r in reach_runs.values()]) <= 24


class TestRunOptimizer:
    def test_unknown_name_raises(self):
        cfg = optim.NystromNgdConfig(iterations=1)
        with pytest.raises(KeyError, match="unknown optimizer"):
            optim.run_optimizer("adam", toy(), np.zeros(8), cfg, quad=None)

    @pytest.mark.parametrize("name", optim.OPTIMIZER_NAMES)
    def test_loss_evaluated_once_per_run_plus_line_search_trials(self, name, monkeypatch):
        # each step hands back the loss its line search accepted
        calls = {"loss": 0, "trials": 0}

        class Counting(LinearLeastSquares):
            def loss_value(self, theta, quad):
                calls["loss"] += 1
                return super().loss_value(theta, quad)

        search = optim.backtracking_linesearch

        def counted_search(theta, direction, loss_fn, *args, **kwargs):
            def trial(th):
                calls["trials"] += 1
                return loss_fn(th)

            return search(theta, direction, trial, *args, **kwargs)

        monkeypatch.setattr(optim, "backtracking_linesearch", counted_search)
        base = toy(seed=4)
        cfg = optim.NystromNgdConfig(ell0=4, ell_max=8, iterations=4, seed=0)
        prob = Counting(base.phi, base.y, base.w)
        _, records = optim.run_optimizer(name, prob, np.zeros(8), cfg, quad=None)
        assert len(records) == 4
        assert calls["loss"] == 1 + calls["trials"]

    @pytest.mark.parametrize("name", optim.OPTIMIZER_NAMES)
    def test_nonfinite_loss_raises(self, name):
        class NanLoss(LinearLeastSquares):
            def loss_value(self, theta, quad):
                return float("nan")

        prob = NanLoss(np.eye(3), np.ones(3), np.ones(3))
        cfg = optim.NystromNgdConfig(iterations=2)
        with pytest.raises(ad.NonFiniteError, match="iteration 0"):
            optim.run_optimizer(name, prob, np.zeros(3), cfg, quad=None)


    @pytest.mark.parametrize("name", ["nystrom_ngd", "ngd_cg", "ngd_dense"])
    def test_ngd_steps_assemble_into_one_buffer_per_run(self, name):
        outs = []

        class Recording(LinearLeastSquares):
            def residual_jacobian(self, theta, quad, out=None):
                if out is not None:  # the loss evaluations pass none
                    outs.append(out)
                return super().residual_jacobian(theta, quad, out)

        base = toy(seed=2)
        cfg = optim.NystromNgdConfig(ell0=4, ell_max=8, iterations=3, seed=0)
        prob = Recording(base.phi, base.y, base.w)
        optim.run_optimizer(name, prob, np.zeros(8), cfg, quad=None)
        assert len(outs) == 3
        assert all(out is outs[0] for out in outs)
        assert outs[0].shape == base.phi.shape


class TestDenseNgd:
    def test_identity_gramian_direction(self):
        prob = LinearLeastSquares(np.eye(3), np.array([1.0, 2.0, 3.0]), np.ones(3))
        theta = np.zeros(3)
        mu = 0.5
        g = prob.loss_grad(theta, None)
        gop = GramianOperator.from_problem(prob, theta, None)
        direction = optim.ngd_dense_direction(gop, g, mu)
        np.testing.assert_allclose(direction, g / (1.0 + mu), rtol=1e-12)

    def test_large_mu_gradient_limit(self):
        prob = toy(seed=5)
        theta = np.random.default_rng(6).standard_normal(8)
        g = prob.loss_grad(theta, None)
        mu = 1e8
        gop = GramianOperator.from_problem(prob, theta, None)
        direction = optim.ngd_dense_direction(gop, g, mu)
        cos = (direction @ g) / (np.linalg.norm(direction) * np.linalg.norm(g))
        assert np.arccos(np.clip(cos, -1, 1)) <= 1e-3

    def test_agrees_with_nystrom_ngd_direction(self):
        prob = toy(seed=7, n=50, p=10)
        theta = np.random.default_rng(8).standard_normal(10)
        mu = 1e-6
        g = prob.loss_grad(theta, None)
        gop = GramianOperator.from_problem(prob, theta, None)
        dense = assemble_dense(gop) + mu * np.eye(10)
        d_dense = np.linalg.solve(dense, g)
        factor = nystrom_approximate(GramianOperator.from_problem(prob, theta, None), 10, seed=0)
        pre = NystromPreconditioner(factor, mu)
        report = pcg(ShiftedOperator(gop, mu), g, 1e-12, 200, precond=pre)
        rel = np.linalg.norm(report.solution - d_dense) / np.linalg.norm(d_dense)
        assert rel <= 1e-6


class TestCgNgd:
    def test_matches_dense_step_when_well_conditioned(self):
        prob = toy(seed=9, n=50, p=6)
        theta = np.random.default_rng(10).standard_normal(6)
        mu = 1e-3
        g = prob.loss_grad(theta, None)
        gop = GramianOperator.from_problem(prob, theta, None)
        d_dense = optim.ngd_dense_direction(gop, g, mu)
        report = pcg(ShiftedOperator(gop, mu), g, 1e-12, 500)
        np.testing.assert_allclose(report.solution, d_dense, rtol=1e-6, atol=1e-8)

    def test_matvec_budget_per_step(self):
        prob = toy(seed=11)
        cfg = optim.NystromNgdConfig(iterations=2, cg_maxit=5, ell0=8, ell_max=8, seed=0)
        _, records = optim.ngd_cg_run(prob, np.zeros(8), cfg, quad=None)
        per_step = np.diff([0] + [r.matvecs for r in records])
        assert all(m <= 5 + 8 + 1 for m in per_step)

    def test_matvec_budget_ends_at_first_record_reaching_it(self):
        prob = toy(seed=11)
        cfg = optim.NystromNgdConfig(iterations=6, cg_maxit=5, ell0=4, ell_max=4, seed=0)
        run = lambda **kw: optim.ngd_cg_run(prob, np.zeros(8), cfg, None, "eval", **kw)
        _, full = run()
        budget = full[1].matvecs
        first = next(i for i, r in enumerate(full) if r.matvecs >= budget)
        assert first < len(full) - 1  # the stop has records to cut
        _, records = run(matvec_budget=budget)
        assert numeric(records) == numeric(full[: first + 1])


class TestGradientDescent:
    def test_monotone_on_quadratic_bowl(self):
        prob = LinearLeastSquares(np.eye(4), np.ones(4), np.ones(4))
        cfg = optim.NystromNgdConfig(iterations=10, seed=0)
        _, records = optim.run_optimizer("gd", prob, np.full(4, 5.0), cfg, quad=None)
        losses = [r.loss for r in records]
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_stationary_point_unchanged(self):
        prob = LinearLeastSquares(np.eye(2), np.array([1.0, -1.0]), np.ones(2))
        theta_star = np.array([1.0, -1.0])
        cfg = optim.NystromNgdConfig(iterations=1)
        theta, _ = optim.run_optimizer("gd", prob, theta_star, cfg, quad=None)
        np.testing.assert_allclose(theta, theta_star, atol=1e-15)


class TestBfgsRun:
    def test_converges_on_quadratic(self):
        prob = toy(seed=12, n=30, p=5)
        cfg = optim.NystromNgdConfig(iterations=40, seed=0)
        theta, records = optim.run_optimizer("bfgs", prob, np.zeros(5), cfg, quad=None)
        best = prob.loss_value(prob.optimum(), None)
        assert records[-1].loss - best <= 1e-8

    def test_guard(self, monkeypatch):
        class NoEvaluation(LinearLeastSquares):
            def loss_grad(self, theta, quad):
                raise AssertionError("evaluated before the guard")

        prob = NoEvaluation(np.eye(8), np.ones(8), np.ones(8))
        monkeypatch.setattr(optim, "BFGS_GUARD", 4)
        cfg = optim.NystromNgdConfig(iterations=1)
        with pytest.raises(ValueError, match="guard"):
            optim.run_optimizer("bfgs", prob, np.zeros(8), cfg, quad=None)

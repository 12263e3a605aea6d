import re
import warnings
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nystromngd import gramian, harness, optim, problems
from nystromngd.gramian import DenseOperator, GramianOperator, ShiftedOperator, assemble_dense
from nystromngd.krylov import RECOMPUTE_EVERY, SolveReport, pcg
from nystromngd.sketch import NystromPreconditioner, nystrom_approximate

EPS = np.finfo(float).eps


class LinearLeastSquares:
    """Toy problem: u_theta = Phi theta fitted to y with weights w.

    The Gramian of the L2 metric equals the (weighted) normal matrix,
    so natural gradient with an exact solve is Newton's method here.
    Like a PdeProblem it hands out the weighted residual
    s = W^{1/2} (Phi theta - y) and its Jacobian A = W^{1/2} Phi.
    """

    def __init__(self, phi, y, w):
        self.phi = np.asarray(phi, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.w = np.asarray(w, dtype=float)
        self.a = np.sqrt(self.w)[:, None] * self.phi

    def residual(self, theta):
        return np.sqrt(self.w) * (self.phi @ theta - self.y)

    def residual_jacobian(self, theta, quad, out=None):
        s = self.residual(theta)
        if out is None:
            return s, self.a
        out[...] = self.a
        return s, out

    def metric_weights(self, quad):
        return self.w

    def loss_value(self, theta, quad):
        s = self.residual(theta)  # not residual_jacobian, whose calls are the run loop's
        return 0.5 * float(s @ s)

    def loss_grad(self, theta, quad, out=None):
        s, a = self.residual_jacobian(theta, quad, out)
        return a.T @ s

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


def svd_pseudoinverse_direction(gop, g, mu):
    """The oracle: (G + mu I)^+ g by an SVD pseudoinverse with the
    numerical-rank cutoff p*eps*s1, G assembled column by column."""
    matrix = assemble_dense(gop) + mu * np.eye(gop.dim)
    u, s, vt = np.linalg.svd(matrix, hermitian=True)
    cutoff = matrix.shape[0] * EPS * s[0]
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return vt.T @ (inv * (u.T @ g))


def duplicated_columns(scale):
    """A = [B, B] with B a 20 x 4 Gaussian of the given scale: G = A^T A has
    rank 4 of p = 8, and its null space is the vectors (v, -v)."""
    rng = np.random.default_rng(0)
    b = scale * rng.standard_normal((20, 4))
    return LinearLeastSquares(np.hstack([b, b]), rng.standard_normal(20), np.ones(20))


NGD_NAMES = ("nystrom_ngd", "ngd_cg", "ngd_dense")


class TestConfig:
    @pytest.mark.parametrize("name", ["iterations", "seed"])
    def test_negative_count_raises(self, name):
        # a negative seed would only fail inside numpy at the first sketch,
        # and negative iterations would silently run nothing
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            optim.NystromNgdConfig(**{name: -1})
        assert getattr(optim.NystromNgdConfig(**{name: 0}), name) == 0

    def test_ell0_below_one_raises(self):
        with pytest.raises(ValueError, match="ell0 must be >= 1"):
            optim.NystromNgdConfig(ell0=0)

    def test_fields_are_rank_bounds_budget_and_seed(self):
        # the damping, rank and PCG rules are module constants, not options
        names = [f.name for f in fields(optim.NystromNgdConfig)]
        assert names == ["ell0", "ell_max", "iterations", "seed"]


# lam1 and loss values log-uniform over [1e-320, 1e308], subnormals included, and the edges
MAGNITUDES = st.one_of(
    st.floats(-320.0, 308.0).map(lambda e: 10.0**e), st.sampled_from([0.0, np.inf, np.nan])
)


class TestAdaptMu:
    def test_machine_epsilon_scaling(self, monkeypatch):
        monkeypatch.setattr(optim, "GAMMA", 1217)
        monkeypatch.setattr(optim, "MU_FLOOR_COEFF", 0.0)
        mu = optim.adapt_mu(1.0, loss=0.0)
        assert mu == pytest.approx(1217 * 2.220446e-16, rel=1e-6)
        assert mu == pytest.approx(2.702e-13, rel=1e-3)

    def test_loss_power_floor_dominates_for_small_top_eigenvalue(self, monkeypatch):
        monkeypatch.setattr(optim, "GAMMA", 100)
        monkeypatch.setattr(optim, "MU_FLOOR_COEFF", 1e-4)
        mu = optim.adapt_mu(1e-10, loss=1e-2)
        assert mu == pytest.approx(1e-8, rel=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            optim.adapt_mu(-1.0, 0.0)

    def test_returns_a_python_float(self):
        # mu reaches the trace rows and, through PCG's tolerance, the solve reports
        assert type(optim.adapt_mu(np.float64(2.0), 0.0)) is float

    @settings(max_examples=500, deadline=None)
    @given(lam1=st.floats(0.0, 1e308), loss=st.floats(0.0, 1e154, exclude_max=True))
    def test_is_bitwise_the_python_power_formula_where_the_square_is_finite(self, lam1, loss):
        # the loss is squared in float64, which gives inf past ~1.34e154 where Python's
        # float ** would raise OverflowError; below that both round alike
        gamma_eps, c = optim.GAMMA * optim.EPS_MACH, optim.MU_FLOOR_COEFF
        expected = float(max(gamma_eps * lam1, c * abs(loss) ** 2.0)) or gamma_eps
        assert optim.adapt_mu(lam1, loss).hex() == expected.hex()

    def test_zero_when_both_terms_vanish_falls_back_to_gamma_eps(self):
        # no NGD variant solves undamped: where lam1 and L both give 0, mu is GAMMA * eps
        mu = optim.adapt_mu(0.0, 0.0)
        assert mu == optim.GAMMA * optim.EPS_MACH and type(mu) is float

    @pytest.mark.parametrize("name", NGD_NAMES)
    def test_every_ngd_variant_damps_by_adapt_mu(self, name, monkeypatch):
        # the criterion-10 set-up; step 1's lam1 estimate is recomputed here.
        # At theta0 the loss floor binds, so a second run drops it to check lam1.
        cfg = harness.ExperimentConfig(optimizer=name, iterations=1)
        prob, quad, theta0 = harness.set_up(cfg)
        a = np.empty((prob.metric_weights(quad).shape[0], theta0.size))
        g = prob.loss_grad(theta0, quad, out=a)
        if name == "nystrom_ngd":
            rng = np.random.default_rng([cfg.seed, 4])  # the run's one stream, first drawn here
            assert cfg.ell0 <= theta0.size // 2  # the first rank is ell0, under the default cap
            lam1 = nystrom_approximate(GramianOperator(a), cfg.ell0, seed=rng).eigenvalues[0]
        else:  # both baselines take g's Rayleigh quotient on the formed G = A^T A
            lam1 = (g @ (a.T @ a @ g)) / (g @ g)
        for floor_coeff in (optim.MU_FLOOR_COEFF, 0.0):
            monkeypatch.setattr(optim, "MU_FLOOR_COEFF", floor_coeff)
            _, records = optim.run_optimizer(name, prob, theta0, cfg, quad)
            mu = optim.adapt_mu(lam1, records[0].loss)
            if name == "ngd_dense":
                mu = max(mu, theta0.size * EPS * np.trace(a.T @ a))
            assert records[1].mu == mu


class TestCgRelTol:
    def test_cap_ratio_and_floor(self):
        cap, ratio = optim.CG_TOL_CAP, optim.CG_TOL_RATIO
        assert optim._cg_rel_tol(1.0, 0.0) == cap  # no top eigenvalue estimate
        assert optim._cg_rel_tol(1.0, -1.0) == cap
        assert optim._cg_rel_tol(1.0, 2.0) == cap  # mu large next to lam1
        assert optim._cg_rel_tol(1e-6, 2.0) == ratio * 1e-6 / 2.0 < cap

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=500, deadline=None)
    @given(lam1=MAGNITUDES, loss=MAGNITUDES)
    def test_lies_in_1e_9_to_the_cap_at_every_adapt_mu(self, lam1, loss):
        # mu >= GAMMA * eps * lam1 keeps the ratio term near 10 * GAMMA * eps or above, down
        # to subnormal lam1 and through an overflowing, infinite or NaN loss
        tol = optim._cg_rel_tol(optim.adapt_mu(lam1, loss), lam1)
        assert 1e-9 <= tol <= optim.CG_TOL_CAP


class TestAdaptRank:
    # each spectrum's length is the rank it was sketched at, as nystrom_approximate returns it
    def test_doubles_when_spectrum_not_resolved(self):
        nxt = optim.adapt_rank(np.full(8, 1.0), mu=0.05, ell_max=100)
        assert nxt == 16

    def test_doubling_capped(self):
        nxt = optim.adapt_rank(np.full(80, 1.0), mu=0.05, ell_max=100)
        assert nxt == 100

    def test_shrinks_to_first_resolved_index_plus_offset(self):
        nxt = optim.adapt_rank(np.array([1.0, 0.5, 1e-6]), mu=1e-3, ell_max=50)
        assert nxt == 4  # first eigenvalue below 10*mu is the 3rd (1-based) + 1

    def test_cap_when_already_at_max(self):
        nxt = optim.adapt_rank(np.full(10, 1.0), mu=1e-6, ell_max=10)
        assert nxt == 10

    @pytest.mark.parametrize(
        "eigenvalues, expected",
        [([5.0, 5.0, 5.0, 5.0], 8), ([9.0, 6.0, 5.1, 5.0], 8), ([9.0, 6.0, 5.0, 4.0], 5)],
    )
    def test_estimate_at_the_threshold_is_not_below_it(self, eigenvalues, expected):
        # threshold 10 * mu = 5: an estimate equal to it counts as unresolved in both
        # branches, so with none below it the rank doubles instead of collapsing to 2
        nxt = optim.adapt_rank(np.array(eigenvalues), mu=0.5, ell_max=8)
        assert nxt == expected


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_trial_backtracks(self, bad):
        # a NaN or +inf loss at alpha = 1 fails the Armijo test; alpha = 1/2 is taken
        theta = np.array([2.0, -1.0])
        quadratic = lambda th: 0.5 * float(th @ th)
        loss_fn = lambda th: bad if np.array_equal(th, np.zeros(2)) else quadratic(th)
        alpha, new_loss = optim.backtracking_linesearch(
            theta, theta, loss_fn, float(theta @ theta), loss_fn(theta)
        )
        assert alpha == 0.5
        assert new_loss == quadratic(0.5 * theta)

    @pytest.mark.parametrize("slope", [0.0, np.nan, -1.0], ids=["zero", "nan", "uphill"])
    def test_no_descent_direction_fails_before_any_trial(self, slope):
        # g^T d not > 0: no trial is made, so d = 0 is not accepted at alpha = 1 with an
        # equal loss, and a NaN slope does not backtrack through every trial
        trials = []
        loss_fn = lambda th: trials.append(th) or 1.0
        alpha, new_loss = optim.backtracking_linesearch(
            np.ones(2), np.zeros(2), loss_fn, slope, 1.0
        )
        assert (alpha, new_loss) == (0.0, 1.0) and trials == []

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
            cfg = harness.ExperimentConfig(problem=name, iterations=45, seed=seed)
            prob, quad, theta0 = harness.set_up(cfg)
            _, runs[name, seed] = optim.nystrom_ngd_run(
                prob, theta0, cfg, quad, quad_eval=quad, h1_stop=1e-3
            )
    return runs


class TestNystromNgdRun:
    @pytest.mark.parametrize(
        "ell0, ell_max, first",
        [(10, 12, 8), (3, None, 3), (6, None, 6), (11, None, 8)],
        ids=["explicit-clamped-to-p", "unset", "ell0-above-p/2", "ell0-above-p"],
    )
    def test_first_rank_is_ell0_under_the_resolved_cap(self, ell0, ell_max, first):
        # p = 8: an explicit ell_max is clamped to p; unset, the cap is
        # min(500, p // 2) = 4 raised to ell0, then clamped to p
        cfg = optim.NystromNgdConfig(ell0=ell0, ell_max=ell_max, iterations=1)
        _, records = optim.nystrom_ngd_run(toy(), np.zeros(8), cfg, quad=None)
        assert records[1].ell == first

    def test_linear_least_squares_converges_fast(self, monkeypatch):
        monkeypatch.setattr(optim, "MU_FLOOR_COEFF", 0.0)
        monkeypatch.setattr(optim, "CG_MAXIT", 50)
        prob = toy()
        theta0 = np.zeros(8)
        cfg = optim.NystromNgdConfig(ell0=8, ell_max=8, iterations=5, seed=0)
        theta, records = optim.nystrom_ngd_run(prob, theta0, cfg, quad=None)
        best = prob.loss_value(prob.optimum(), None)
        assert records[-1].loss - best <= 1e-10 or prob.loss_value(theta, None) - best <= 1e-10

    def test_rank_trajectory_bounded_and_monotone_until_shrink(self, monkeypatch):
        monkeypatch.setattr(optim, "MU_FLOOR_COEFF", 1e-10)
        prob = toy(seed=3, n=60, p=12)
        cfg = optim.NystromNgdConfig(ell0=2, ell_max=10, iterations=8, seed=1)
        _, records = optim.nystrom_ngd_run(prob, np.zeros(12), cfg, quad=None)
        ells = [r.ell for r in records[1:]]  # row 0 took no step
        assert all(e <= 10 for e in ells)
        shrunk = False
        for prev, cur in zip(ells, ells[1:]):
            if cur < prev:
                shrunk = True
            if not shrunk:
                assert cur >= prev

    def test_every_sketch_draws_from_the_runs_one_generator(self, monkeypatch):
        # one Generator, seeded (seed, 4), reaches every sketch; it is drawn
        # from only where Gaussian columns are needed: the first sketch and
        # each rank growth past the previous basis
        calls = []

        def spy(op, rank, seed, basis=None):
            assert isinstance(seed, np.random.Generator)
            before = seed.bit_generator.state
            factor = nystrom_approximate(op, rank, seed, basis=basis)
            k = 0 if basis is None else basis.shape[1]
            calls.append((seed, before, seed.bit_generator.state, rank > k))
            return factor

        monkeypatch.setattr(optim, "nystrom_approximate", spy)
        monkeypatch.setattr(optim, "MU_FLOOR_COEFF", 1e-10)
        cfg = optim.NystromNgdConfig(ell0=2, ell_max=10, iterations=8, seed=1)
        optim.nystrom_ngd_run(toy(seed=3, n=60, p=12), np.zeros(12), cfg, quad=None)
        (rng, first, _, _), *_ = calls
        assert all(seed is rng for seed, *_ in calls)
        assert first == np.random.default_rng([cfg.seed, 4]).bit_generator.state
        drew = [before != after for _, before, after, _ in calls]
        assert drew == [grew for *_, grew in calls]
        assert drew[0] and any(drew[1:]) and not all(drew)  # it grows, and holds or shrinks

    def test_records_well_formed(self):
        prob = toy(seed=4)
        cfg = optim.NystromNgdConfig(ell0=4, ell_max=8, iterations=4, seed=0)
        # the step fields each direction leaves unset, which read zero
        unset = {"nystrom_ngd": (), "ngd_cg": ("ell",), "ngd_dense": ("ell",)}
        for name in optim.OPTIMIZER_NAMES:
            _, records = optim.run_optimizer(name, prob, np.zeros(8), cfg, quad=None)
            its = [r.iteration for r in records]
            assert its == list(range(5)), name  # theta0 and one row per step
            mv = [r.matvecs for r in records]
            assert all(b >= a for a, b in zip(mv, mv[1:])), name
            for r in records[1:]:
                kinds = type(r.mu), type(r.ell), type(r.pcg_iters)
                assert kinds == (float, int, int), name
                zero = unset.get(name, ("mu", "ell", "pcg_iters"))
                assert all(getattr(r, f) == 0 for f in zero), name
                assert r.mu > 0 or "mu" in zero, name

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
        # within 45 iterations
        assert reach_runs[name, seed][-1].h1_rel_error <= 1e-3

    def test_median_iterations_to_target(self, reach_runs):
        # warm-started sketches: median 20 iterations over the nine runs
        # (28 with a fresh Gaussian test matrix every step); the last row's
        # index counts the steps
        assert np.median([r[-1].iteration for r in reach_runs.values()]) <= 24


class TestRunOptimizer:
    def test_unknown_name_raises(self):
        # before any loss is evaluated
        class NoLoss(LinearLeastSquares):
            def loss_value(self, theta, quad):
                raise AssertionError("a loss was evaluated")

        prob, cfg = toy(), optim.NystromNgdConfig(iterations=1)
        message = f"unknown optimizer 'adam'; available: {optim.OPTIMIZER_NAMES}"
        with pytest.raises(ValueError, match=re.escape(message)):
            optim.run_optimizer(
                "adam", NoLoss(prob.phi, prob.y, prob.w), np.zeros(8), cfg, quad=None
            )

    def test_a_step_field_the_record_lacks_raises(self, monkeypatch):
        # a misspelled step column is refused, not dropped from the trace
        def misspelled(theta0, config):
            return lambda theta, loss, g, s, gop: (g, {"alpha": 1.0})

        monkeypatch.setitem(optim._OPTIMIZERS, "gd", misspelled)
        cfg = optim.NystromNgdConfig(iterations=1)
        with pytest.raises(TypeError, match="alpha"):
            optim.run_optimizer("gd", toy(), np.zeros(8), cfg, quad=None)

    @pytest.mark.parametrize("name", ["nystrom_ngd", "ngd_cg"])
    def test_a_solve_that_returns_zero_stalls_the_run(self, name, monkeypatch):
        # a solve that breaks down at its first iteration returns x0 = 0; g^T d = 0 is no
        # descent, so the run ends at row 1 as at a failed line search, not at its cap
        def broken_pcg(op, b, rel_tol, maxit, precond=None):
            return SolveReport(np.zeros_like(b), 0, 1.0, False, True)

        monkeypatch.setattr(optim, "pcg", broken_pcg)
        theta0 = np.random.default_rng(1).standard_normal(8)
        cfg = optim.NystromNgdConfig(iterations=50)
        theta, records = optim.run_optimizer(name, toy(), theta0, cfg, quad=None)
        assert [r.iteration for r in records] == [0, 1]
        assert records[1].loss == records[0].loss
        np.testing.assert_array_equal(theta, theta0)

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
        assert len(records) == 5
        assert calls["loss"] == 1 + calls["trials"]

    @pytest.mark.parametrize("name", optim.OPTIMIZER_NAMES)
    def test_record_k_describes_iterate_k(self, name):
        # row 0 is theta0 before any step; the last row is the returned theta
        prob = toy(seed=4)
        theta0 = np.random.default_rng(1).standard_normal(8)
        cfg = optim.NystromNgdConfig(ell0=4, ell_max=8, iterations=4, seed=0)
        theta, records = optim.run_optimizer(name, prob, theta0, cfg, None, "eval")
        first = (0, prob.loss_value(theta0, None), prob.h1_relative_error(theta0, "eval"))
        assert numeric(records[:1]) == [first + (0.0, 0, 0, 0)]
        assert [r.iteration for r in records] == list(range(cfg.iterations + 1))
        assert records[-1].loss.hex() == prob.loss_value(theta, None).hex()
        assert records[-1].h1_rel_error.hex() == prob.h1_relative_error(theta, "eval").hex()

    @pytest.mark.parametrize("run", ["run_optimizer", "nystrom_ngd_run"])
    def test_h1_stop_without_quad_eval_raises_before_any_loss(self, run):
        # without quad_eval every H1 error is NaN and NaN <= h1_stop is
        # False, so the run would spend its whole budget
        calls = []

        class Counting(LinearLeastSquares):
            def loss_value(self, theta, quad):
                calls.append(theta)
                return super().loss_value(theta, quad)

        base = toy(seed=4)
        prob = Counting(base.phi, base.y, base.w)
        cfg = optim.NystromNgdConfig(iterations=4)
        args = ("nystrom_ngd",) if run == "run_optimizer" else ()
        with pytest.raises(ValueError, match="h1_stop needs quad_eval"):
            getattr(optim, run)(*args, prob, np.zeros(8), cfg, None, h1_stop=1e-3)
        assert calls == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", NGD_NAMES)
    def test_a_theta0_loss_whose_square_overflows_stalls_the_run(self, name):
        # the damping floor squares the loss in float64: past ~1.34e154 mu would be inf,
        # so the run ends at theta0's own record, with no solver handed mu = inf
        cfg = harness.ExperimentConfig(optimizer=name, iterations=3)
        prob, quad, theta0 = harness.set_up(cfg)
        theta0[-1] = 1e78  # the output bias
        theta, records = optim.run_optimizer(name, prob, theta0, cfg, quad)
        (first,) = records
        assert 1e156 < first.loss < np.inf and first.matvecs == 0
        assert theta.tobytes() == theta0.tobytes()

    @pytest.mark.parametrize("name", optim.OPTIMIZER_NAMES)
    def test_nonfinite_theta0_loss_ends_the_run_at_row_0(self, name, monkeypatch):
        # nothing raises or warns: a theta0 loss with no finite square (NaN, inf, or past
        # ~1.34e154, where adapt_mu's mu would be inf) ends the run at its own record, as a
        # failed line search does, with no step taken
        theta0 = np.random.default_rng(5).standard_normal(8)
        calls = {"direction": 0, "jacobian": 0}
        make = optim._OPTIMIZERS[name]

        def counted(theta, config):
            direction = make(theta, config)

            def wrapped(*args):
                calls["direction"] += 1
                return direction(*args)

            return wrapped

        class Nowhere(LinearLeastSquares):
            def loss_value(self, theta, quad):
                return bad

            def residual_jacobian(self, theta, quad, out=None):
                calls["jacobian"] += 1
                return super().residual_jacobian(theta, quad, out)

        monkeypatch.setitem(optim._OPTIMIZERS, name, counted)
        base = toy(seed=4)
        cfg = optim.NystromNgdConfig(ell0=4, ell_max=8, iterations=5, seed=0)
        for bad in (np.nan, np.inf, 2e156):
            prob = Nowhere(base.phi, base.y, base.w)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                theta, records = optim.run_optimizer(name, prob, theta0.copy(), cfg, None, "eval")
            assert theta.tobytes() == theta0.tobytes()
            (first,) = records
            assert first.loss.hex() == float(bad).hex()
            assert first.h1_rel_error == base.h1_relative_error(theta0, "eval")
            assert (first.iteration, first.mu, first.ell, first.pcg_iters) == (0, 0.0, 0, 0)
            assert first.matvecs == 0
        assert calls == {"direction": 0, "jacobian": 0}

    @pytest.mark.parametrize("name", optim.OPTIMIZER_NAMES)
    def test_residual_jacobian_once_per_step_into_one_buffer(self, name):
        # the driver loop takes every residual and J, assembling J into one array
        outs = []

        class Recording(LinearLeastSquares):
            def residual_jacobian(self, theta, quad, out=None):
                outs.append(out)
                return super().residual_jacobian(theta, quad, out)

        base = toy(seed=2)
        cfg = optim.NystromNgdConfig(ell0=4, ell_max=8, iterations=3, seed=0)
        prob = Recording(base.phi, base.y, base.w)
        optim.run_optimizer(name, prob, np.zeros(8), cfg, quad=None)
        assert len(outs) == 3
        assert all(out is outs[0] for out in outs)
        assert outs[0].shape == base.phi.shape

    @pytest.mark.parametrize("name", optim.OPTIMIZER_NAMES)
    def test_failed_line_search_ends_the_run(self, name, monkeypatch):
        # every trial step is rejected, so the first line search fails
        theta0 = np.zeros(8)
        calls = {"loss": 0}

        class Wall(LinearLeastSquares):
            def loss_value(self, theta, quad):
                calls["loss"] += 1
                if np.array_equal(theta, theta0):
                    return super().loss_value(theta, quad)
                return float("inf")

        updates = []
        update = optim.bfgs_update

        def counted_update(h, s, y):
            updates.append(s)
            return update(h, s, y)

        monkeypatch.setattr(optim, "bfgs_update", counted_update)
        base = toy(seed=2)
        cfg = optim.NystromNgdConfig(ell0=4, ell_max=8, iterations=300, seed=0)
        prob = Wall(base.phi, base.y, base.w)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            theta, records = optim.run_optimizer(name, prob, theta0.copy(), cfg, None, "eval")
        assert len(records) == 2
        assert theta.tobytes() == theta0.tobytes()
        assert records[1].iteration == 1
        assert records[1].loss == records[0].loss
        assert records[1].h1_rel_error == records[0].h1_rel_error
        assert calls["loss"] == 1 + optim.LS_MAX_BACKTRACKS + 1
        assert updates == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", optim.OPTIMIZER_NAMES)
    def test_nonfinite_trial_losses_stall_the_run(self, name, bad):
        # the loss is finite at theta0 only: the Armijo test rejects every
        # trial, so the run ends stalled at theta0 instead of raising
        theta0 = np.random.default_rng(1).standard_normal(8)

        class Cliff(LinearLeastSquares):
            def loss_value(self, theta, quad):
                if np.array_equal(theta, theta0):
                    return super().loss_value(theta, quad)
                return bad

        base = toy(seed=4)
        cfg = optim.NystromNgdConfig(ell0=4, ell_max=8, iterations=5, seed=0)
        prob = Cliff(base.phi, base.y, base.w)
        theta, records = optim.run_optimizer(name, prob, theta0.copy(), cfg, None, "eval")
        assert theta.tobytes() == theta0.tobytes()
        assert [r.iteration for r in records] == [0, 1]
        assert all(np.isfinite(astuple(r)).all() for r in records)
        assert records[1].loss == records[0].loss == base.loss_value(theta0, None)

    @pytest.mark.parametrize("name", NGD_NAMES)
    def test_zero_gradient_leaves_theta_and_finite_records(self, name):
        # theta0 is an exact zero-residual minimizer: L = 0 and g = 0
        rng = np.random.default_rng(3)
        phi, theta0 = rng.standard_normal((40, 8)), rng.standard_normal(8)
        prob = LinearLeastSquares(phi, phi @ theta0, np.ones(40))
        assert prob.loss_value(theta0, None) == 0.0
        assert not prob.loss_grad(theta0, None).any()
        cfg = optim.NystromNgdConfig(ell0=4, iterations=3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            theta, records = optim.run_optimizer(name, prob, theta0.copy(), cfg, None, "eval")
        assert theta.tobytes() == theta0.tobytes()
        assert [r.iteration for r in records] == [0, 1]
        assert all(np.isfinite(astuple(r)).all() for r in records)
        assert all(r.loss == 0.0 for r in records)
        assert optim._rayleigh_lam1(np.zeros(8), np.zeros(8)) == 0.0

    @pytest.mark.parametrize("name", optim.OPTIMIZER_NAMES)
    def test_zero_jacobian_asks_for_no_direction(self, name):
        # A = 0 and s = 0: g = 0 at every theta, and G has no spectrum to damp by
        prob = LinearLeastSquares(np.zeros((10, 4)), np.zeros(10), np.ones(10))
        theta0 = np.ones(4)
        cfg = optim.NystromNgdConfig(ell0=2, iterations=3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, records = optim.run_optimizer(name, prob, theta0.copy(), cfg, None)
        assert theta.tobytes() == theta0.tobytes()
        assert [r.iteration for r in records] == [0, 1]
        for r in records:  # no H1 without quad_eval; no step reported mu, ell or matvecs
            assert (r.loss, r.mu, r.ell, r.pcg_iters, r.matvecs) == (0.0, 0.0, 0, 0, 0)
            assert np.isfinite(r.seconds)

    @pytest.mark.parametrize("name", optim.OPTIMIZER_NAMES)
    def test_stationary_run_takes_one_gradient(self, name):
        # g = 0 at theta0 ends the run: no later step could move theta
        class Stationary(LinearLeastSquares):
            grads = 0  # residual_jacobian calls, one per gradient the loop forms

            def residual_jacobian(self, theta, quad, out=None):
                self.grads += 1
                return super().residual_jacobian(theta, quad, out)

        prob = Stationary(np.zeros((10, 4)), np.zeros(10), np.ones(10))
        cfg = optim.NystromNgdConfig(ell0=2, iterations=300, seed=0)
        _, records = optim.run_optimizer(name, prob, np.ones(4), cfg, None)
        assert prob.grads == 1
        assert len(records) == 2

    @pytest.mark.parametrize("name", optim.OPTIMIZER_NAMES)
    def test_run_stalled_after_m_steps_repeats_the_m_step_run(self, name):
        # steps 1..m are accepted as usual; every trial of step m + 1 is walled
        m = 3

        class LateWall(LinearLeastSquares):
            steps = 0  # residual_jacobian calls, one per step

            def residual_jacobian(self, theta, quad, out=None):
                self.steps += 1
                return super().residual_jacobian(theta, quad, out)

            def loss_value(self, theta, quad):
                # the driver's only loss calls after theta0's are trials
                if self.steps > m:
                    return float("inf")
                return super().loss_value(theta, quad)

        base = toy(seed=4)
        theta0 = np.random.default_rng(1).standard_normal(8)

        def run(iterations):
            cfg = optim.NystromNgdConfig(ell0=4, ell_max=8, iterations=iterations, seed=0)
            prob = LateWall(base.phi, base.y, base.w)
            return optim.run_optimizer(name, prob, theta0, cfg, None, "eval")

        theta, records = run(300)
        theta_m, records_m = run(m)
        assert len(records) == m + 2
        assert numeric(records[: m + 1]) == numeric(records_m)
        assert theta.tobytes() == theta_m.tobytes()
        assert records[-1].loss == records[-2].loss
        assert records[-1].h1_rel_error == records[-2].h1_rel_error


def dense_direction(monkeypatch, gop, g, s, mu):
    """(d, mu~): the ngd_dense direction at g = A^T s on gop, asked for as run_optimizer
    asks, with adapt_mu returning mu, and the damping mu~ its fields record."""
    monkeypatch.setattr(optim, "adapt_mu", lambda lam1, loss: mu)
    theta, cfg = np.zeros(gop.dim), optim.NystromNgdConfig()
    d, fields = optim._OPTIMIZERS["ngd_dense"](theta, cfg)(theta, 1.0, g, s, gop)
    return d, fields["mu"]


class TestDenseNgd:
    def test_identity_gramian_direction(self, monkeypatch):
        prob = LinearLeastSquares(np.eye(3), np.array([1.0, 2.0, 3.0]), np.ones(3))
        theta = np.zeros(3)
        mu = 0.5
        g = prob.loss_grad(theta, None)
        gop = GramianOperator.from_problem(prob, theta, None)
        direction, mu_used = dense_direction(monkeypatch, gop, g, prob.residual(theta), mu)
        np.testing.assert_allclose(direction, g / (1.0 + mu), rtol=1e-12)
        assert mu_used == mu

    def test_large_mu_gradient_limit(self, monkeypatch):
        prob = toy(seed=5)
        theta = np.random.default_rng(6).standard_normal(8)
        g = prob.loss_grad(theta, None)
        mu = 1e8
        gop = GramianOperator.from_problem(prob, theta, None)
        direction, _ = dense_direction(monkeypatch, gop, g, prob.residual(theta), mu)
        cos = (direction @ g) / (np.linalg.norm(direction) * np.linalg.norm(g))
        assert np.arccos(np.clip(cos, -1, 1)) <= 1e-3

    @pytest.mark.parametrize("seed, mu", [(0, 1e-8), (1, 1e-3), (2, 1.0)])
    def test_matches_svd_pseudoinverse_when_well_conditioned(self, seed, mu, monkeypatch):
        prob = toy(seed=seed, n=50, p=10)
        theta = np.random.default_rng(seed + 10).standard_normal(10)
        g = prob.loss_grad(theta, None)
        gop = GramianOperator.from_problem(prob, theta, None)
        direction, mu_used = dense_direction(monkeypatch, gop, g, prob.residual(theta), mu)
        oracle = svd_pseudoinverse_direction(gop, g, mu)
        assert mu_used == mu  # above the floor p*eps*tr G
        assert np.linalg.norm(direction - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_rank_deficient_gramian_takes_the_floor(self, monkeypatch):
        # G's diagonal is 1.5e3-2.3e3, so mu = 1e-14 is below half its ulp
        prob = duplicated_columns(scale=10.0)
        theta = np.zeros(8)
        mu = 1e-14
        g = prob.loss_grad(theta, None)
        gop = GramianOperator.from_problem(prob, theta, None)
        dense = gop.dense()
        with pytest.raises(np.linalg.LinAlgError):  # the unfloored solve
            np.linalg.solve(dense + mu * np.eye(8), g)
        direction, mu_used = dense_direction(monkeypatch, gop, g, prob.residual(theta), mu)
        assert np.all(np.isfinite(direction)) and g @ direction > 0
        assert mu_used == 8 * EPS * np.trace(dense) > mu
        # the floored solve and the pseudoinverse differ only in G's null
        # space, where rounding divided by mu~ leaves a component of about
        # |d| / p; A d, the step in the residual, is the same
        oracle = svd_pseudoinverse_direction(gop, g, mu)
        gap = np.linalg.norm(prob.a @ (direction - oracle))
        assert gap <= 1e-5 * np.linalg.norm(prob.a @ oracle)

    def test_each_call_counts_p_matvecs(self, monkeypatch):
        prob = toy(seed=3)
        theta = np.zeros(8)
        g = prob.loss_grad(theta, None)
        gop = GramianOperator.from_problem(prob, theta, None)
        for calls in (1, 2):
            dense_direction(monkeypatch, gop, g, prob.residual(theta), 1e-6)
            assert gop.matvec_count == 8 * calls

    def test_a_step_makes_no_gramian_product_but_forming_g(self, monkeypatch):
        # lam1 is g's Rayleigh quotient on the G the step formed, so gop.dense()'s p
        # matvecs are its one charge
        def refuse(self, v):
            raise AssertionError("a Gramian product was asked for")

        monkeypatch.setattr(GramianOperator, "matvec", refuse)
        monkeypatch.setattr(GramianOperator, "matmat", refuse)
        cfg = harness.ExperimentConfig(optimizer="ngd_dense", iterations=3)
        prob, quad, theta0 = harness.set_up(cfg)
        _, records = optim.run_optimizer("ngd_dense", prob, theta0, cfg, quad)
        p = theta0.size
        assert [r.matvecs for r in records] == [0, p, 2 * p, 3 * p]

    def test_run_records_the_floored_damping(self):
        # A = [B, B], G's nonzero eigenvalues 2e8 ... 2e-4, and g along the
        # smallest one's eigenvector: adapt_mu of its Rayleigh quotient lies
        # far below the floor p*eps*tr G
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((20, 4)))[0]
        b = q * np.array([1e4, 1e2, 1.0, 1e-2])
        prob = LinearLeastSquares(np.hstack([b, b]), 1e-3 * q[:, 3], np.ones(20))
        cfg = optim.NystromNgdConfig(iterations=1)
        _, records = optim.run_optimizer("ngd_dense", prob, np.zeros(8), cfg, quad=None)
        g = prob.loss_grad(np.zeros(8), None)
        lam1 = (g @ (prob.a.T @ (prob.a @ g))) / (g @ g)
        floor = 8 * EPS * np.trace(GramianOperator(prob.a).matmat(np.eye(8)))
        assert floor > 1e3 * optim.adapt_mu(lam1, records[0].loss)
        assert records[1].mu == pytest.approx(floor, rel=1e-14)
        assert records[1].matvecs == 8  # G; its Rayleigh quotient costs no matvec

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 12), extra=st.integers(1, 20), scale=st.floats(-3.0, 3.0),
        ratio=st.floats(-4.0, 1.0), seed=st.integers(0, 2**32 - 1),
    )
    def test_row_side_is_the_p_side_step(self, rows, extra, scale, ratio, seed):
        # rows < p: the step solves (K + mu~ I) x = s with K = A A^T and returns A^T x, which
        # is (A^T A + mu~ I)^-1 g for g = A^T s; lam1 is still g's Rayleigh quotient on A^T A
        rng = np.random.default_rng(seed)
        a = 10.0**scale * rng.standard_normal((rows, rows + extra))
        s = rng.standard_normal(rows)
        g = a.T @ s
        mu = 10.0**ratio * np.linalg.norm(a, 2) ** 2  # (lam1 + mu) / mu <= 1 + 1e4
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optim, "adapt_mu", lambda lam1, loss: seen.append(lam1) or mu)
            theta, cfg = np.zeros(a.shape[1]), optim.NystromNgdConfig()
            gop = GramianOperator(a)
            d, fields = optim._OPTIMIZERS["ngd_dense"](theta, cfg)(theta, 1.0, g, s, gop)
        reference = np.linalg.solve(a.T @ a + fields["mu"] * np.eye(a.shape[1]), g)
        assert np.linalg.norm(d - reference) <= 1e-8 * np.linalg.norm(reference)
        assert seen == [pytest.approx((g @ (a.T @ (a @ g))) / (g @ g), rel=1e-12)]
        assert gop.matvec_count == rows

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


def record_pcg_operators(monkeypatch):
    """The operators that optim hands to pcg, in call order."""
    ops = []

    def recording(op, *args, **kwargs):
        ops.append(op)
        return pcg(op, *args, **kwargs)

    monkeypatch.setattr(optim, "pcg", recording)
    return ops


def ngd_cg_step(prob, theta, quad, cfg):
    """(d, report, g, gop): one ngd_cg direction at theta and its fields dict, asked
    for as run_optimizer asks, on a fresh run Gramian gop."""
    gop = GramianOperator(np.empty((prob.metric_weights(quad).shape[0], theta.shape[0])))
    s, a = prob.residual_jacobian(theta, quad, out=gop.jacobian)
    g = a.T @ s
    direction = optim._OPTIMIZERS["ngd_cg"](theta, cfg)
    d, report = direction(theta, prob.loss_value(theta, quad), g, s, gop)
    return d, report, g, gop


def reference_cg_solve(base, g, loss):
    """(mu, SolveReport): NGD-CG's damping from g's Rayleigh quotient on
    ``base`` and its CG solve on base + mu I in at most CG_MAXIT + min(500, p // 2)
    iterations, written out."""
    lam1 = float(g @ base.matvec(g)) / float(g @ g)
    mu = optim.adapt_mu(lam1, loss)
    maxit = optim.CG_MAXIT + min(500, base.dim // 2)
    tol = optim._cg_rel_tol(mu, lam1)
    return mu, pcg(ShiftedOperator(base, mu), g, tol, maxit)


class TestFormedGramian:
    """Each NGD-CG step forms G = A^T A when p <= min(rows, DENSE_GUARD)."""

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_step_solves_on_the_formed_gramian(self, name):
        # the criterion-10 set-up (16x2 net, 400 + 160 points) has p <= rows
        cfg = harness.ExperimentConfig(problem=name, optimizer="ngd_cg", iterations=1)
        prob, quad, theta = harness.set_up(cfg)
        d, report, g, gop = ngd_cg_step(prob, theta, quad, cfg)
        a = gop.jacobian
        assert gop.dim <= a.shape[0]
        mu, ref = reference_cg_solve(DenseOperator(a.T @ a), g, prob.loss_value(theta, quad))
        assert report["mu"] == mu and report["pcg_iters"] == ref.iterations
        np.testing.assert_array_equal(d, ref.solution)
        # the Rayleigh quotient, the iterations and the true-residual recomputes; forming is free
        recomputes = ref.iterations // RECOMPUTE_EVERY + 1
        assert gop.matvec_count == 1 + ref.iterations + recomputes
        _, records = optim.run_optimizer("ngd_cg", prob, theta, cfg, quad)
        assert records[1].matvecs - records[0].matvecs == gop.matvec_count

    @pytest.mark.parametrize("limit", ["rows", "guard"])
    def test_two_pass_solve_when_p_exceeds_rows_or_the_guard(self, limit, monkeypatch):
        shape = (4, 5) if limit == "rows" else (12, 5)
        if limit == "guard":
            monkeypatch.setattr(gramian, "DENSE_GUARD", 4)
        rng = np.random.default_rng(2)
        prob = LinearLeastSquares(
            rng.standard_normal(shape), rng.standard_normal(shape[0]), np.ones(shape[0])
        )
        cfg = optim.NystromNgdConfig(iterations=1)
        theta = np.zeros(5)
        ops = record_pcg_operators(monkeypatch)
        d, report, g, gop = ngd_cg_step(prob, theta, None, cfg)
        assert len(ops) == 1 and ops[0].base is gop
        two_pass = GramianOperator(prob.a)
        mu, ref = reference_cg_solve(two_pass, g, prob.loss_value(theta, None))
        assert report["mu"] == mu
        np.testing.assert_array_equal(d, ref.solution)
        assert gop.matvec_count == two_pass.matvec_count

    def test_formed_solve_matches_the_two_pass_solve(self):
        prob = toy(seed=9, n=50, p=6)
        theta = np.random.default_rng(10).standard_normal(6)
        cfg = optim.NystromNgdConfig(iterations=1)
        d, report, g, _ = ngd_cg_step(prob, theta, None, cfg)
        _, ref = reference_cg_solve(GramianOperator(prob.a), g, prob.loss_value(theta, None))
        assert report["pcg_iters"] == ref.iterations
        assert np.linalg.norm(d - ref.solution) <= 1e-10 * np.linalg.norm(ref.solution)


class TestCgNgd:
    @pytest.mark.parametrize("name, forms", [("nystrom_ngd", False), ("ngd_cg", True)])
    def test_only_ngd_cg_solves_form_the_gramian(self, monkeypatch, name, forms):
        ops = record_pcg_operators(monkeypatch)
        cfg = harness.ExperimentConfig(problem="poisson2d", optimizer=name, iterations=25)
        prob, quad, theta0 = harness.set_up(cfg)
        _, records = optim.run_optimizer(
            name, prob, theta0, cfg, quad, quad_eval=quad, h1_stop=1e-3
        )
        # every solve is on G + mu I; only NGD-CG's G is formed, Nystrom-NGD's applied in two passes
        base = DenseOperator if forms else GramianOperator
        assert ops and all(type(op) is ShiftedOperator and type(op.base) is base for op in ops)
        if not forms:
            assert records[-1].h1_rel_error <= 1e-3  # the whole run, to the target

    def test_matches_dense_step_when_well_conditioned(self):
        prob = toy(seed=9, n=50, p=6)
        theta = np.random.default_rng(10).standard_normal(6)
        mu = 1e-3
        g = prob.loss_grad(theta, None)
        gop = GramianOperator.from_problem(prob, theta, None)
        d_dense = np.linalg.solve(gop.dense() + mu * np.eye(6), g)
        report = pcg(ShiftedOperator(gop, mu), g, 1e-12, 500)
        np.testing.assert_allclose(report.solution, d_dense, rtol=1e-6, atol=1e-8)

    def test_matvec_budget_per_step(self, monkeypatch):
        # columns over two decades: CG runs into its cap CG_MAXIT + min(500, p // 2) = 5
        # iterations at p = 8; Nystrom-NGD's ell0 and ell_max do not enter it
        monkeypatch.setattr(optim, "CG_MAXIT", 1)
        base = toy(seed=11)
        prob = LinearLeastSquares(base.phi * np.logspace(0, -2, 8), base.y, base.w)
        cfg = optim.NystromNgdConfig(iterations=3, ell0=2, ell_max=2, seed=0)
        _, records = optim.ngd_cg_run(prob, np.zeros(8), cfg, quad=None)
        assert max(r.pcg_iters for r in records) == 1 + 4
        per_step = np.diff([r.matvecs for r in records])  # row 0 has 0
        # the Rayleigh quotient, the iterations and the closing true residual
        assert max(per_step) == optim.CG_MAXIT + 4 + 2

    @pytest.mark.parametrize("ell0, ell_max", [(2, 2), (40, 60)])
    def test_reads_no_rank_setting(self, ell0, ell_max):
        # the criterion-10 set-up at seed 0: a rank setting could only reach NGD-CG
        # through its CG cap, which binds on this run (228 iterations at p = 337)
        default = harness.ExperimentConfig(optimizer="ngd_cg", iterations=30)
        theta, records, _ = harness.train(default)
        assert max(r.pcg_iters for r in records) == optim.CG_MAXIT + 337 // 2
        other_theta, other, _ = harness.train(replace(default, ell0=ell0, ell_max=ell_max))
        np.testing.assert_array_equal(other_theta, theta)
        assert numeric(other) == numeric(records)

    def test_matvec_budget_ends_at_first_record_reaching_it(self, monkeypatch):
        monkeypatch.setattr(optim, "CG_MAXIT", 5)
        prob = toy(seed=11)
        cfg = optim.NystromNgdConfig(iterations=6, ell0=4, ell_max=4, seed=0)
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
            def loss_value(self, theta, quad):
                raise AssertionError("loss evaluated before the guard")

            def residual_jacobian(self, theta, quad, out=None):
                raise AssertionError("gradient evaluated before the guard")

        prob = NoEvaluation(np.eye(8), np.ones(8), np.ones(8))
        monkeypatch.setattr(optim, "BFGS_GUARD", 4)  # read when the run starts
        cfg = optim.NystromNgdConfig(iterations=1)
        with pytest.raises(ValueError, match="^bfgs guard: p=8 exceeds 4$"):
            optim.run_optimizer("bfgs", prob, np.zeros(8), cfg, quad=None)

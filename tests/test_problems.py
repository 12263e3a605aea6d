import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nystromngd import autodiff as ad
from nystromngd import model, optim, problems
from test_autodiff import oracle_jet

# Hand-written oracles: each problem's residual and metric stacks written
# out by hand on the generic per-op jet oracle, so they can be linearized
# by complex step and compared with the stacks the problems derive from
# their residual blocks.


def laplacian(seconds):
    total = seconds[0]
    for h in seconds[1:]:
        total = total + h
    return total


def poisson_residual_stack(prob, theta, quad):
    """Poisson residual by hand: -Laplacian - f on the interior, u - g on the boundary."""
    _, _, sec = oracle_jet(prob.topology, theta, quad.interior_points)
    interior = -laplacian(sec) - prob.source(quad.interior_points)
    ub, _, _ = oracle_jet(prob.topology, theta, quad.boundary_points)
    return np.concatenate([interior, ub - prob.exact_jet(quad.boundary_points)[0]])


def heat_residual_stack(prob, theta, quad):
    """Heat residual by hand: u_t - u_xx - f, then the misfit on the lateral
    sides and the initial slice, whose target is written out as cos(pi x)."""
    _, du, d2u = oracle_jet(prob.topology, theta, quad.interior_points)
    interior = du[0] - d2u[1] - prob.source(quad.interior_points)
    xb = quad.boundary_points
    initial = xb[:, 0] == 0.0  # the rows on the slice t = 0
    assert initial.any()
    target = np.where(initial, np.cos(np.pi * xb[:, 1]), prob.exact_jet(xb)[0])  # u*(0, x)
    ub, _, _ = oracle_jet(prob.topology, theta, xb)
    return np.concatenate([interior, ub - target])


def nlpoisson_residual_stack(prob, theta, quad):
    """Nonlinear Poisson residual by hand: -Laplacian + u^3 - f, then u - g."""
    u, _, sec = oracle_jet(prob.topology, theta, quad.interior_points)
    interior = -laplacian(sec) + u**3 - prob.source(quad.interior_points)
    ub, _, _ = oracle_jet(prob.topology, theta, quad.boundary_points)
    return np.concatenate([interior, ub - prob.exact_jet(quad.boundary_points)[0]])


def residual_weights(quad):
    """Quadrature weights of the residual rows, block by block."""
    return np.concatenate([quad.interior_weights, quad.boundary_weights])


HAND_RESIDUAL_STACKS = {
    "poisson1d": poisson_residual_stack,
    "poisson2d": poisson_residual_stack,
    "heat1p1d": heat_residual_stack,
    "nlpoisson2d": nlpoisson_residual_stack,
}


def poisson_metric_stack(prob, theta, theta_bar, quad):
    """Poisson (1D and 2D) metric as written by hand: -Laplacian rows, then boundary values."""
    _, _, sec = oracle_jet(prob.topology, theta, quad.interior_points)
    ub, _, _ = oracle_jet(prob.topology, theta, quad.boundary_points)
    return np.concatenate([-laplacian(sec), ub])


def heat_metric_stack(prob, theta, theta_bar, quad):
    """Heat metric by hand: u_t - u_xx on the interior, u on the lateral
    sides and the initial slice."""
    _, du, d2u = oracle_jet(prob.topology, theta, quad.interior_points)
    ub, _, _ = oracle_jet(prob.topology, theta, quad.boundary_points)
    return np.concatenate([du[0] - d2u[1], ub])


def nlpoisson_metric_stack(prob, theta, theta_bar, quad):
    """Gauss-Newton metric by hand: -Laplacian + 3 ubar^2 u with ubar frozen at theta_bar."""
    ubar = ad.primal_value(
        oracle_jet(prob.topology, ad.freeze(theta_bar), quad.interior_points)[0]
    )
    u, _, sec = oracle_jet(prob.topology, theta, quad.interior_points)
    ub, _, _ = oracle_jet(prob.topology, theta, quad.boundary_points)
    return np.concatenate([-laplacian(sec) + 3.0 * ubar**2 * u, ub])


def nlpoisson_metric_stack_unfrozen(prob, theta, quad):
    """Negative control: the linearization coefficient is not frozen."""
    u, _, sec = oracle_jet(prob.topology, theta, quad.interior_points)
    ub, _, _ = oracle_jet(prob.topology, theta, quad.boundary_points)
    return np.concatenate([-laplacian(sec) + 3.0 * u * u * u, ub])


HAND_METRIC_STACKS = {
    "poisson1d": poisson_metric_stack,
    "poisson2d": poisson_metric_stack,
    "heat1p1d": heat_metric_stack,
    "nlpoisson2d": nlpoisson_metric_stack,
}


def small_problem(name, seed=0, width=5, depth=2, n_int=30, n_bnd=12):
    prob = problems.make_problem(name, hidden_width=width, hidden_depth=depth)
    quad = prob.sample_quadrature(n_int, n_bnd, seed)
    theta = model.init(prob.topology, seed + 1).values
    return prob, quad, theta


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), np.finfo(float).tiny)


class TestQuadrature:
    def test_unit_square_uniform_weights(self):
        prob = problems.make_problem("poisson2d", hidden_width=4, hidden_depth=1)
        quad = prob.sample_quadrature(4, 8, seed=0)
        np.testing.assert_array_equal(quad.interior_weights, np.full(4, 0.25))

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_seed_determinism(self, name):
        prob = problems.make_problem(name, hidden_width=4, hidden_depth=1)
        a = prob.sample_quadrature(10, 6, seed=5)
        b = prob.sample_quadrature(10, 6, seed=5)
        assert np.array_equal(a.interior_points, b.interior_points)
        assert np.array_equal(a.boundary_points, b.boundary_points)

    def test_sets_compare_and_hash_by_identity(self):
        # ndarray fields: a field-wise == would raise on an ambiguous truth value
        prob = problems.make_problem("poisson2d", hidden_width=4, hidden_depth=1)
        q0, q1 = prob.sample_quadrature(10, 6, seed=0), prob.sample_quadrature(10, 6, seed=1)
        assert q0 != q1 and not q0 == q1
        assert q0 == q0 and q0 != prob.sample_quadrature(10, 6, seed=0)
        assert {q0: "a", q1: "b"}[q1] == "b"

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_interior_weights_integrate_volume(self, name):
        prob = problems.make_problem(name, hidden_width=4, hidden_depth=1)
        quad = prob.sample_quadrature(17, 6, seed=0)
        assert quad.interior_weights.sum() == pytest.approx(1.0, rel=1e-15)

    # two unit endpoints; the unit square's perimeter; heat's lateral sides
    # (measure 2) and its initial slice (measure 1)
    BOUNDARY_MEASURE = dict(poisson1d=2.0, poisson2d=4.0, nlpoisson2d=4.0, heat1p1d=3.0)

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_boundary_weights_integrate_perimeter(self, name):
        prob = problems.make_problem(name, hidden_width=4, hidden_depth=1)
        quad = prob.sample_quadrature(10, 13, seed=0)
        assert quad.boundary_weights.sum() == pytest.approx(
            self.BOUNDARY_MEASURE[name], rel=1e-15
        )

    @staticmethod
    def _parts(**changes):
        parts = dict(
            interior_points=np.zeros((3, 2)),
            interior_weights=np.ones(3),
            boundary_points=np.zeros((2, 2)),
            boundary_weights=np.ones(2),
        )
        return {**parts, **changes}

    def test_valid_parts_build(self):
        problems.QuadratureSet(**self._parts())

    def test_list_built_set_gives_the_array_built_loss_and_h1(self):
        # validation converts the parts; the set must keep what it checked
        prob = problems.make_problem("poisson2d", hidden_width=4, hidden_depth=1)
        theta = model.init(prob.topology, seed=0).values
        parts = [[[0.2, 0.3], [0.5, 0.5]], [0.5, 0.5], [[0.0, 0.1]], [4.0]]
        from_lists = problems.QuadratureSet(*parts)
        from_arrays = problems.QuadratureSet(*map(np.array, parts))
        for evaluate in (prob.loss_value, prob.h1_relative_error):
            assert evaluate(theta, from_lists) == evaluate(theta, from_arrays)

    def test_float64_parts_are_kept_as_given(self):
        parts = self._parts()
        quad = problems.QuadratureSet(**parts)
        assert all(getattr(quad, name) is part for name, part in parts.items())

    # a NaN weight passes a `w <= 0` test and turns the loss into NaN
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_weight_raises(self, bad):
        with pytest.raises(ValueError, match="weights must be positive and finite"):
            problems.QuadratureSet(**self._parts(boundary_weights=np.array([1.0, bad])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_point_raises(self, bad):
        points = np.zeros((3, 2))
        points[1, 0] = bad
        with pytest.raises(ValueError, match="interior points must be finite"):
            problems.QuadratureSet(**self._parts(interior_points=points))

    def test_points_must_be_2d(self):
        with pytest.raises(ValueError, match="interior points must have shape"):
            problems.QuadratureSet(**self._parts(interior_points=np.zeros(3)))

    def test_weights_must_be_1d(self):
        with pytest.raises(ValueError, match="boundary weights must have shape"):
            problems.QuadratureSet(**self._parts(boundary_weights=np.ones((2, 1))))

    def test_one_weight_per_point(self):
        with pytest.raises(ValueError, match="interior weights must have shape"):
            problems.QuadratureSet(**self._parts(interior_weights=np.ones(4)))


class TestSamplerReplay:
    """``sample_quadrature`` against the same draws made by hand from
    ``np.random.default_rng(seed)``: the interior, then each problem's
    boundary in its own order."""

    @staticmethod
    def perimeter(s):
        """Points at arc lengths s in [0, 4) on the unit square's perimeter,
        walked counter-clockwise from the origin."""
        pts = []
        for arc in s:
            side = min(int(arc), 3)
            t = arc - side
            pts.append([(t, 0.0), (1.0, t), (1.0 - t, 1.0), (0.0, 1.0 - t)][side])
        return np.array(pts, dtype=float).reshape(len(s), 2)

    def replay(self, name, n_int, n_bnd, seed):
        rng = np.random.default_rng(seed)
        d = 1 if name == "poisson1d" else 2
        parts = dict(
            interior_points=rng.random((n_int, d)), interior_weights=np.full(n_int, 1.0 / n_int)
        )
        if name == "poisson1d":
            parts.update(boundary_points=np.array([[0.0], [1.0]]), boundary_weights=np.ones(2))
        elif name == "heat1p1d":
            # the lateral sides, then the initial slice t = 0
            t, side = rng.random(n_bnd), rng.integers(0, 2, n_bnd)
            n_init = max(n_bnd // 2, 1)
            x0 = rng.random(n_init)
            lateral = np.column_stack([t, side.astype(float)])
            initial = np.column_stack([np.zeros(n_init), x0])
            parts.update(
                boundary_points=np.concatenate([lateral, initial]),
                boundary_weights=np.concatenate(
                    [np.full(n_bnd, 2.0 / n_bnd), np.full(n_init, 1.0 / n_init)]
                ),
            )
        else:
            parts.update(
                boundary_points=self.perimeter(4.0 * rng.random(n_bnd)),
                boundary_weights=np.full(n_bnd, 4.0 / n_bnd),
            )
        return parts

    @pytest.mark.parametrize("seed", [3, [3, 1]])
    @pytest.mark.parametrize("n_bnd", [1, 160])
    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_draws_replay_bitwise(self, name, n_bnd, seed):
        quad = problems.make_problem(name).sample_quadrature(7, n_bnd, seed)
        expected = self.replay(name, 7, n_bnd, seed)
        for field, ref in expected.items():
            got = getattr(quad, field)
            assert got.dtype == ref.dtype and got.shape == ref.shape, field
            assert got.tobytes() == ref.tobytes(), field


class TestResidualStack:
    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_zero_net_zero_data_zero_stack(self, name):
        # with theta = 0 the net is identically zero, so L[u] - f and u - u*
        # leave -sqrt(w) f on the interior rows and -sqrt(w) u* on the boundary's
        prob, quad, _ = small_problem(name)
        theta = np.zeros(prob.topology.param_count)
        s = prob.residual_stack(theta, quad)
        data = np.concatenate(
            [prob.source(quad.interior_points), prob.exact_jet(quad.boundary_points)[0]]
        )
        np.testing.assert_allclose(s, -np.sqrt(residual_weights(quad)) * data, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_exact_solution_annihilates_residual(self, name):
        prob, quad, _ = small_problem(name)
        r = prob.residual_of_exact(quad)
        assert np.abs(r).max() <= 1e-12

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_exact_jet_channels_match_finite_differences(self, name):
        # each derivative channel against a central difference of the channel
        # below it: the H1 error reads du*/dx_i, residual_of_exact d^2u*/dx_i^2
        prob, quad, _ = small_problem(name)
        x, h, d = quad.interior_points, 1e-6, prob.input_dim
        jet = prob.exact_jet(x)
        assert jet.shape == (1 + 2 * d, len(x))
        for i, e in enumerate(np.eye(d)):
            fd = (prob.exact_jet(x + h * e) - prob.exact_jet(x - h * e)) / (2 * h)
            np.testing.assert_allclose(jet[1 + i], fd[0], rtol=0, atol=1e-7)
            np.testing.assert_allclose(jet[1 + d + i], fd[1 + i], rtol=0, atol=1e-7)

    def test_loss_equals_direct_quadrature(self):
        prob, quad, theta = small_problem("poisson2d")
        r = ad.primal_value(HAND_RESIDUAL_STACKS["poisson2d"](prob, theta, quad))
        w = residual_weights(quad)
        direct = 0.5 * float(np.sum(w * r * r))
        assert prob.loss_value(theta, quad) == pytest.approx(direct, rel=1e-14)


class TestMetricStack:
    def test_linear_problem_metric_is_offsetfree_residual(self):
        prob, quad, theta = small_problem("poisson1d")
        root = np.sqrt(residual_weights(quad))
        s = prob.residual_stack(theta, quad)
        m = prob.metric_stack(theta, theta, quad)
        data = np.concatenate(
            [prob.source(quad.interior_points), prob.exact_jet(quad.boundary_points)[0]]
        )
        np.testing.assert_allclose(s + root * data, root * m, rtol=1e-13, atol=1e-13)

    def test_nonlinear_metric_at_zero_net_is_laplacian(self):
        prob, quad, _ = small_problem("nlpoisson2d")
        theta = np.zeros(prob.topology.param_count)
        lin = problems.Poisson2D(prob.topology)
        m_nl = prob.metric_stack(theta, theta, quad)
        m_lin = lin.metric_stack(theta, theta, quad)
        np.testing.assert_allclose(m_nl, m_lin, atol=1e-15)

    def test_frozen_coefficient_changes_the_jacobian(self):
        # negative control: differentiating through the coefficient 3 u^2 of
        # the interior rows adds 6 u^2 J_u v to their JVP and nothing to the
        # boundary rows', so the stop-gradient is load-bearing; A v is the
        # frozen JVP, scaled by sqrt(w)
        prob, quad, theta = small_problem("nlpoisson2d", width=4, depth=1)
        v = np.random.default_rng(0).standard_normal(theta.size)
        frozen = ad.linearize(lambda th: nlpoisson_metric_stack(prob, th, theta, quad), theta)
        unfrozen = ad.linearize(lambda th: nlpoisson_metric_stack_unfrozen(prob, th, quad), theta)
        u = ad.linearize(lambda th: oracle_jet(prob.topology, th, quad.interior_points)[0], theta)
        moved = np.concatenate([6.0 * u.value**2 * u.jvp(v), np.zeros(len(quad.boundary_points))])
        assert np.linalg.norm(moved) >= 1e-2 * np.linalg.norm(frozen.jvp(v))
        assert rel_err(unfrozen.jvp(v) - frozen.jvp(v), moved) <= 1e-12
        a_v = prob.residual_jacobian(theta, quad)[1] @ v
        assert rel_err(a_v, np.sqrt(residual_weights(quad)) * frozen.jvp(v)) <= 1e-12

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_block_metric_matches_hand_written_stack(self, name):
        # the metric derived from the residual blocks against the stack written
        # out by hand, at theta and (for the frozen coefficient) at a different
        # theta_bar; its Jacobian at theta_bar = theta, scaled by sqrt(w), is
        # the weighted residual Jacobian A
        prob, quad, theta = small_problem(name)
        theta_bar = model.init(prob.topology, 17).values
        hand = HAND_METRIC_STACKS[name]
        for th, th_bar in ((theta, theta), (theta, theta_bar)):
            got = prob.metric_stack(th, th_bar, quad)
            ref = ad.primal_value(hand(prob, th, th_bar, quad))
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
        v = np.random.default_rng(3).standard_normal(theta.size)
        got = prob.residual_jacobian(theta, quad)[1] @ v
        ref = ad.linearize(lambda t: hand(prob, t, theta, quad), theta).jvp(v)
        ref *= np.sqrt(residual_weights(quad))
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        np.testing.assert_array_equal(prob.metric_weights(quad), residual_weights(quad))


class TestResidualJacobian:
    @given(
        name=st.sampled_from(problems.PROBLEM_NAMES),
        depth=st.integers(1, 3),
        width=st.integers(1, 8),
        q=st.integers(1, 20),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_complex_step_oracle(self, name, depth, width, q, seed):
        # weighted residual s = W^{1/2} r, A @ v = W^{1/2} J v and the loss
        # gradient J^T W r against the complex-step linearization of the
        # hand-written residual stack
        prob = problems.make_problem(name, hidden_width=width, hidden_depth=depth)
        quad = prob.sample_quadrature(q, 1 + seed % 7, seed)
        theta = model.init(prob.topology, seed).values
        lin = ad.linearize(lambda th: HAND_RESIDUAL_STACKS[name](prob, th, quad), theta)
        s, a = prob.residual_jacobian(theta, quad)
        root = np.sqrt(residual_weights(quad))
        v = np.random.default_rng(seed).standard_normal(theta.size)
        assert rel_err(s, root * lin.value) <= 1e-12
        assert rel_err(prob.residual_stack(theta, quad), root * lin.value) <= 1e-12
        assert rel_err(a @ v, root * lin.jvp(v)) <= 1e-12
        grad = lin.vjp(residual_weights(quad) * lin.value)
        assert rel_err(prob.loss_grad(theta, quad), grad) <= 1e-12


    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_out_buffer_is_filled_bitwise_and_returned(self, name):
        prob, quad, theta = small_problem(name)
        r, jac = prob.residual_jacobian(theta, quad)
        buf = np.full(jac.shape, np.nan)
        r_buf, jac_buf = prob.residual_jacobian(theta, quad, out=buf)
        assert jac_buf is buf
        np.testing.assert_array_equal(jac_buf, jac)
        np.testing.assert_array_equal(r_buf, r)

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_loss_grad_assembles_into_out_bitwise(self, name):
        # the optimizers take the gradient this way and reuse A from ``out``
        prob, quad, theta = small_problem(name)
        _, jac = prob.residual_jacobian(theta, quad)
        buf = np.full(jac.shape, np.nan)
        g = prob.loss_grad(theta, quad, out=buf)
        assert g.tobytes() == prob.loss_grad(theta, quad).tobytes()
        assert buf.tobytes() == jac.tobytes()

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_loss_and_gradient_are_read_off_s_and_a(self, name):
        # the weights enter s and A once: the loss is 0.5 s^T s, its gradient A^T s
        prob, quad, theta = small_problem(name)
        s, a = prob.residual_jacobian(theta, quad)
        assert 0.5 * float(s @ s) == pytest.approx(prob.loss_value(theta, quad), rel=1e-14)
        np.testing.assert_array_equal(prob.loss_grad(theta, quad), a.T @ s)

    @pytest.mark.parametrize("shape", [(1, 0), (0, -1), (1, -1)])
    def test_wrongly_shaped_out_raises(self, shape):
        prob, quad, theta = small_problem("heat1p1d")
        rows, p = prob.metric_weights(quad).shape[0], theta.size
        with pytest.raises(ValueError, match="out must be"):
            prob.residual_jacobian(theta, quad, out=np.empty((rows + shape[0], p + shape[1])))

    def test_out_of_another_dtype_raises(self):
        prob, quad, theta = small_problem("poisson2d")
        out = np.empty((prob.metric_weights(quad).shape[0], theta.size), dtype=np.float32)
        with pytest.raises(ValueError, match="out must be"):
            prob.residual_jacobian(theta, quad, out=out)


class TestThetaLength:
    @pytest.mark.parametrize("extra", [-1, 5])
    def test_theta_of_the_wrong_length_raises(self, extra):
        # a long theta used to be cut to its first p entries, a short one
        # died inside a reshape
        prob, quad, theta = small_problem("poisson2d", width=4, depth=2)
        p = prob.topology.param_count
        bad = np.resize(theta, p + extra)
        for method in (prob.loss_value, prob.loss_grad, prob.h1_relative_error):
            with pytest.raises(ValueError, match=rf"\({p + extra},\), expected \({p},\)"):
                method(bad, quad)


class TestPerQuadratureCaches:
    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_switching_quadrature_sets_matches_fresh_instances(self, name):
        # every evaluation on training quad A, held-out quad B, then A again,
        # and then the H1 error on one set between losses on the other: the
        # identity-keyed slot must not serve one set's parts for the other
        prob, quad_a, theta = small_problem(name)
        quad_b = prob.sample_quadrature(41, 9, seed=7)

        def gradient_with_jacobian(p, quad):
            a = np.empty((quad.interior_weights.size + quad.boundary_weights.size, theta.size))
            g = p.loss_grad(theta, quad, out=a)
            return np.concatenate([g, a.ravel(), p.residual_stack(theta, quad)])

        def loss(p, quad):
            return p.loss_value(theta, quad)

        def h1(p, quad):
            return p.h1_relative_error(theta, quad)

        evaluations = (loss, gradient_with_jacobian, lambda p, quad: p.metric_weights(quad), h1)
        steps = [(f, quad) for quad in (quad_a, quad_b, quad_a) for f in evaluations]
        steps += [(h1, quad_b), (loss, quad_a), (h1, quad_a), (loss, quad_b)]
        for f, quad in steps:
            np.testing.assert_array_equal(f(prob, quad), f(type(prob)(prob.topology), quad))

    def test_writing_into_metric_weights_leaves_the_problem_unchanged(self):
        # metric_weights hands out a fresh array: a write into it reaches
        # neither a later metric_weights nor the loss
        prob, quad, theta = small_problem("heat1p1d")
        prob.loss_value(theta, quad)
        prob.metric_weights(quad)[:] = 1.0
        fresh = type(prob)(prob.topology)
        np.testing.assert_array_equal(prob.metric_weights(quad), fresh.metric_weights(quad))
        assert prob.loss_value(theta, quad) == fresh.loss_value(theta, quad)

    def test_h1_error_on_a_new_set_builds_only_its_reference(self):
        # the H1 error reads u* on the interior once, and builds no residual
        # block: no source, no boundary u*
        prob = CountingPoisson2D(model.MlpTopology((2, 5, 5, 1)))
        quad, heldout = prob.sample_quadrature(30, 12, 0), prob.sample_quadrature(50, 20, 1)
        theta = model.init(prob.topology, 1).values
        prob.loss_value(theta, quad)
        prob.calls.clear()
        prob.h1_relative_error(theta, heldout)
        prob.h1_relative_error(theta, heldout)
        assert prob.calls == [("exact_jet", 50)]

    def test_a_run_without_quad_eval_builds_no_h1_reference(self):
        # the residual blocks are built once, from f on the interior and u*
        # on the boundary; nothing reads u* on the interior points
        prob = CountingPoisson2D(model.MlpTopology((2, 5, 5, 1)))
        quad = prob.sample_quadrature(30, 12, seed=0)
        theta0 = model.init(prob.topology, 1).values
        optim.run_optimizer("ngd_cg", prob, theta0, optim.NystromNgdConfig(iterations=3), quad)
        assert sorted(prob.calls) == [("exact_jet", 12), ("source", 30)]


class CountingPoisson2D(problems.Poisson2D):
    """Poisson2D that logs each exact_jet and source call with its number of
    points; its source does not call exact_jet."""

    def __init__(self, topology):
        super().__init__(topology)
        self.calls = []

    def exact_jet(self, x):
        self.calls.append(("exact_jet", len(x)))
        return super().exact_jet(x)

    def source(self, x):
        self.calls.append(("source", len(x)))
        return 2.0 * np.pi**2 * np.prod(np.sin(np.pi * x), axis=1)


class TestH1Error:
    def _exact_feed_problem(self, scale=1.0):
        """A Poisson2D whose 'network' is scale * u*, fed directly."""
        prob, quad, _ = small_problem("poisson2d", n_int=4000)
        x = quad.interior_points
        w = quad.interior_weights
        exact = prob.exact_jet(x)
        ue, ge = exact[0], exact[1:3].T
        u = scale * ue
        gu = scale * ge
        num = np.sum(w * (u - ue) ** 2) + np.sum(w * np.sum((gu - ge) ** 2, axis=1))
        den = np.sum(w * ue**2) + np.sum(w * np.sum(ge**2, axis=1))
        return float(np.sqrt(num / den))

    def test_exact_feed_gives_zero(self):
        assert self._exact_feed_problem(scale=1.0) == 0.0

    def test_double_amplitude_gives_one(self):
        # |2u* - u*| / |u*| = 1 in any norm
        assert self._exact_feed_problem(scale=2.0) == pytest.approx(1.0, rel=1e-12)

    def test_zero_net_gives_one(self):
        prob, quad, _ = small_problem("poisson2d")
        theta = np.zeros(prob.topology.param_count)
        assert prob.h1_relative_error(theta, quad) == pytest.approx(1.0, rel=1e-12)

    @given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.01, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_first_order_jet_matches_second_order_reference_bitwise(self, seed, scale):
        # the order-1 jet reads the same value and gradient channels as the
        # order-2 jet, bit for bit
        for name in problems.PROBLEM_NAMES:
            prob, quad, _ = small_problem(name)
            theta = scale * np.random.default_rng(seed).standard_normal(
                prob.topology.param_count
            )
            x, w, d = quad.interior_points, quad.interior_weights, prob.input_dim
            z = model.propagate(prob.topology, theta, model.input_jet(prob.topology, x))
            u, gu = z[0, :, 0], z[1 : 1 + d, :, 0].T
            exact = prob.exact_jet(x)
            ue, ge = exact[0], exact[1 : 1 + d].T
            num = np.sum(w * (u - ue) ** 2) + np.sum(w * np.sum((gu - ge) ** 2, axis=1))
            den = np.sum(w * ue**2) + np.sum(w * np.sum(ge**2, axis=1))
            assert prob.h1_relative_error(theta, quad) == float(np.sqrt(num / den))

    def test_zero_exact_solution_has_a_loss_but_no_h1_error(self):
        # the zero H1 norm is an error of the H1 error alone: the loss of the
        # problem u* = 0, f = 0 is still defined
        class Zero(problems.Poisson2D):
            def exact_jet(self, x):
                return np.zeros((5, len(x)))

            def source(self, x):
                return np.zeros(len(x))

        prob = Zero(model.MlpTopology((2, 5, 1)))
        quad = prob.sample_quadrature(30, 12, seed=0)
        theta = model.init(prob.topology, 1).values
        assert np.isfinite(prob.loss_value(theta, quad))
        with pytest.raises(ZeroDivisionError, match="zero H1 norm"):
            prob.h1_relative_error(theta, quad)

    def test_heat_error_uses_space_time_gradient(self):
        prob, quad, theta = small_problem("heat1p1d")
        err = prob.h1_relative_error(theta, quad)
        assert np.isfinite(err) and err > 0


class TestRegistry:
    def test_unknown_problem_raises(self):
        message = f"unknown problem 'stokes3d'; available: {problems.PROBLEM_NAMES}"
        with pytest.raises(ValueError, match=re.escape(message)):
            problems.make_problem("stokes3d")

    def test_default_topology(self):
        prob = problems.make_problem("poisson2d")
        assert prob.topology.widths == (2, 16, 16, 1)

import numpy as np
import pytest

from nystromngd import autodiff as ad
from nystromngd import model, problems


def poisson_metric_stack(prob, theta, theta_bar, quad):
    """Poisson (1D and 2D) metric as written by hand: Laplacian rows, then boundary values."""
    _, _, lap = model.input_derivatives(prob.topology, theta, quad.interior_points)
    ub = model.forward(prob.topology, theta, quad.boundary_points)
    return ad.concat([lap, ub])


def heat_metric_stack(prob, theta, theta_bar, quad):
    """Heat metric by hand: u_t - u_xx and u on the interior, u on the initial slice."""
    u, du, d2u = model.derivatives(prob.topology, theta, quad.interior_points)
    ui = model.forward(prob.topology, theta, quad.initial_points)
    return ad.concat([du[0] - d2u[1], u, ui])


def nlpoisson_metric_stack(prob, theta, theta_bar, quad):
    """Gauss-Newton metric by hand: Laplacian - 3 ubar^2 u with ubar frozen at theta_bar."""
    ubar = ad.primal_value(
        model.forward(prob.topology, ad.freeze(theta_bar), quad.interior_points)
    )
    u, _, lap = model.input_derivatives(prob.topology, theta, quad.interior_points)
    ub = model.forward(prob.topology, theta, quad.boundary_points)
    return ad.concat([lap - 3.0 * ubar**2 * u, ub])


def nlpoisson_metric_stack_unfrozen(prob, theta, quad):
    """Negative control: the linearization coefficient is not frozen."""
    u, _, lap = model.input_derivatives(prob.topology, theta, quad.interior_points)
    ub = model.forward(prob.topology, theta, quad.boundary_points)
    return ad.concat([lap - 3.0 * u * u * u, ub])


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

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_interior_weights_integrate_volume(self, name):
        prob = problems.make_problem(name, hidden_width=4, hidden_depth=1)
        quad = prob.sample_quadrature(17, 6, seed=0)
        assert quad.interior_weights.sum() == pytest.approx(1.0, rel=1e-15)

    def test_boundary_weights_integrate_perimeter(self):
        prob = problems.make_problem("poisson2d", hidden_width=4, hidden_depth=1)
        quad = prob.sample_quadrature(10, 13, seed=0)
        assert quad.boundary_weights.sum() == pytest.approx(4.0, rel=1e-15)


class TestResidualStack:
    def test_zero_net_zero_data_zero_stack(self):
        # with theta = 0 the net is identically zero; strip sources by hand
        prob, quad, _ = small_problem("poisson1d")
        theta = np.zeros(prob.topology.param_count)
        r = ad.primal_value(prob.residual_stack(theta, quad))
        offsets = np.concatenate(
            [prob.source(quad.interior_points), -prob.dirichlet(quad.boundary_points)]
        )
        np.testing.assert_allclose(r, offsets, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_exact_solution_annihilates_residual(self, name):
        prob, quad, _ = small_problem(name)
        r = prob.residual_of_exact(quad)
        assert np.abs(r).max() <= 1e-12

    def test_loss_equals_direct_quadrature(self):
        prob, quad, theta = small_problem("poisson2d")
        r = ad.primal_value(prob.residual_stack(theta, quad))
        w = prob.residual_weights(quad)
        direct = 0.5 * float(np.sum(w * r * r))
        assert prob.loss_value(theta, quad) == pytest.approx(direct, rel=1e-14)


class TestMetricStack:
    def test_linear_problem_metric_is_offsetfree_residual(self):
        prob, quad, theta = small_problem("poisson1d")
        r = ad.primal_value(prob.residual_stack(theta, quad))
        m = ad.primal_value(prob.metric_stack(theta, theta, quad))
        offsets = np.concatenate(
            [prob.source(quad.interior_points), -prob.dirichlet(quad.boundary_points)]
        )
        np.testing.assert_allclose(r - offsets, m, rtol=1e-13, atol=1e-13)

    def test_nonlinear_metric_at_zero_net_is_laplacian(self):
        prob, quad, _ = small_problem("nlpoisson2d")
        theta = np.zeros(prob.topology.param_count)
        lin = problems.make_problem("poisson2d", topology=prob.topology)
        m_nl = ad.primal_value(prob.metric_stack(theta, theta, quad))
        m_lin = ad.primal_value(lin.metric_stack(theta, theta, quad))
        np.testing.assert_allclose(m_nl, m_lin, atol=1e-15)

    def test_frozen_coefficient_changes_the_jacobian(self):
        # negative control: differentiating through the coefficient moves
        # the Jacobian, so the stop-gradient is load-bearing
        prob, quad, theta = small_problem("nlpoisson2d", width=4, depth=1)
        v = np.random.default_rng(0).standard_normal(theta.size)
        frozen = ad.linearize(lambda th: prob.metric_stack(th, theta, quad), theta).jvp(v)
        unfrozen = ad.linearize(
            lambda th: nlpoisson_metric_stack_unfrozen(prob, th, quad), theta
        ).jvp(v)
        assert not np.allclose(frozen, unfrozen, rtol=1e-6)

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_block_metric_matches_hand_written_stack(self, name):
        # the metric declared as blocks against the stack written out by hand,
        # at theta and (for the frozen coefficient) at a different theta_bar
        prob, quad, theta = small_problem(name)
        theta_bar = model.init(prob.topology, 17).values
        hand = HAND_METRIC_STACKS[name]
        for th, th_bar in ((theta, theta), (theta, theta_bar)):
            got = ad.primal_value(prob.metric_stack(th, th_bar, quad))
            ref = ad.primal_value(hand(prob, th, th_bar, quad))
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
        v = np.random.default_rng(3).standard_normal(theta.size)
        got = ad.linearize(lambda t: prob.metric_stack(t, theta_bar, quad), theta).jvp(v)
        ref = ad.linearize(lambda t: hand(prob, t, theta_bar, quad), theta).jvp(v)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        blocks = [quad.interior_weights, quad.boundary_weights]
        if name == "heat1p1d":
            blocks = [quad.interior_weights, quad.interior_weights, quad.initial_weights]
        np.testing.assert_array_equal(prob.metric_weights(quad), np.concatenate(blocks))


class TestH1Error:
    def _exact_feed_problem(self, scale=1.0):
        """A Poisson2D whose 'network' is scale * u*, fed directly."""
        prob, quad, _ = small_problem("poisson2d", n_int=4000)
        x = quad.interior_points
        w = quad.interior_weights
        ue = prob.exact(x)
        ge = prob.exact_grad(x)
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

    def test_heat_error_uses_space_time_gradient(self):
        prob, quad, theta = small_problem("heat1p1d")
        err = prob.h1_relative_error(theta, quad)
        assert np.isfinite(err) and err > 0


class TestRegistry:
    def test_unknown_problem_raises(self):
        with pytest.raises(KeyError):
            problems.make_problem("stokes3d")

    def test_default_topology(self):
        prob = problems.make_problem("poisson2d")
        assert prob.topology.widths == (2, 32, 32, 1)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nystromngd import autodiff as ad
from nystromngd import model, problems


def jvp(f, theta, v):
    return ad.linearize(f, theta).jvp(v)


def vjp(f, theta, w):
    return ad.linearize(f, theta).vjp(w)


def grad(f, theta):
    """Gradient of a scalar map: its vector-Jacobian product with cotangent 1."""
    return vjp(f, theta, 1.0)


def quad_map(theta):
    # f(theta) = (theta_1^2, theta_1 * theta_2)
    return np.concatenate([(theta[0] ** 2).reshape(1), (theta[0] * theta[1]).reshape(1)])


def two_layer_net(theta, x):
    w1 = theta[:6].reshape(3, 2)
    b1 = theta[6:9]
    w2 = theta[9:12].reshape(1, 3)
    b2 = theta[12:13]
    h = np.tanh(w1 @ x + b1)
    return w2 @ h + b2


class TestJvp:
    def test_identity_map(self):
        e1 = np.array([1.0, 0.0, 0.0])
        out = jvp(lambda th: th, np.array([0.3, -1.2, 2.0]), e1)
        np.testing.assert_array_equal(out, e1)

    def test_hand_quadratic(self):
        out = jvp(quad_map, np.array([1.0, 2.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [2.0, 2.0], rtol=1e-14)

    def test_matches_central_difference_on_tanh_net(self):
        rng = np.random.default_rng(7)
        theta = rng.standard_normal(13)
        v = rng.standard_normal(13)
        x = rng.standard_normal(2)
        f = lambda th: two_layer_net(th, x)
        got = jvp(f, theta, v)
        h = 1e-5
        fd = (f(theta + h * v) - f(theta - h * v)) / (2 * h)
        np.testing.assert_allclose(got, fd, rtol=1e-6)


class TestVjp:
    def test_identity_map(self):
        e2 = np.array([0.0, 1.0, 0.0])
        out = vjp(lambda th: th, np.array([5.0, 6.0, 7.0]), e2)
        np.testing.assert_array_equal(out, e2)

    def test_hand_jacobian_transpose(self):
        out = vjp(quad_map, np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [4.0, 1.0], rtol=1e-14)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_adjoint_identity(self, seed):
        # <w, J v> == <J^T w, v> for the tanh net above
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal(13)
        v = rng.standard_normal(13)
        w = rng.standard_normal(1)
        x = rng.standard_normal(2)
        f = lambda th: two_layer_net(th, x)
        lhs = float(w @ jvp(f, theta, v))
        rhs = float(vjp(f, theta, w) @ v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestGrad:
    def test_quadratic(self):
        theta = np.array([1.0, -2.0, 0.5])
        out = grad(lambda th: 0.5 * (th * th).sum(), theta)
        np.testing.assert_allclose(out, theta, rtol=1e-14)

    def test_hand_product(self):
        out = grad(lambda th: np.tanh(th[0]) * th[1], np.array([0.0, 3.0]))
        np.testing.assert_allclose(out, [3.0, 0.0], atol=1e-15)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(13)
        xs = rng.standard_normal((5, 2))

        def loss(th):
            total = 0.0
            for x in xs:
                total = total + (two_layer_net(th, x) ** 2).sum()
            return 0.5 * total

        g = grad(loss, theta)
        h = 1e-6
        fd = np.empty_like(theta)
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[i] = 1.0
            fd[i] = (
                ad.primal_value(loss(theta + h * e)) - ad.primal_value(loss(theta - h * e))
            ) / (2 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


class TestFreeze:
    def test_grad_through_freeze(self):
        # d/dtheta [ sg(theta) * theta ] = sg(theta) = theta, not 2 theta
        out = grad(lambda th: (ad.freeze(th) * th).sum(), np.array([2.0]))
        np.testing.assert_allclose(out, [2.0], rtol=1e-15)
        unfrozen = grad(lambda th: (th * th).sum(), np.array([2.0]))
        np.testing.assert_allclose(unfrozen, [4.0], rtol=1e-15)

    def test_jvp_through_freeze_is_zero(self):
        theta, v = np.array([0.4, 0.5]), np.array([1.0, -1.0])
        out = jvp(lambda th: ad.freeze(np.tanh(th)), theta, v)
        np.testing.assert_array_equal(out, np.zeros(2))
        unfrozen = jvp(np.tanh, theta, v)
        np.testing.assert_allclose(unfrozen, (1.0 - np.tanh(theta) ** 2) * v, rtol=1e-15)

    def test_value_is_bitwise_f_of_real_theta(self):
        # the real part of complex tanh is not bit for bit real tanh, so the
        # map's value must come from f on the real theta
        theta = np.array([0.123456789, -2.5])
        f = lambda th: np.tanh(th) * th
        assert ad.linearize(f, theta).value.tobytes() == f(theta).tobytes()
        assert ad.freeze(theta) is theta


MIX = np.array([[1.0, -2.0, 0.5, 3.0], [0.0, 4.0, -1.0, 2.0], [-3.0, 1.0, 2.0, 0.25]])


def closed_form_map(theta):
    # tanh, a product, a power, @, indexing, reshape and concatenate
    return np.concatenate(
        [np.tanh(theta[:2]) * theta[2:], theta[3:] ** 3, MIX @ theta, theta.reshape(2, 2)[1]]
    )


def closed_form_jacobian(theta):
    t = np.tanh(theta[:2])
    jac = np.zeros((8, 4))
    jac[[0, 1], [0, 1]] = (1.0 - t * t) * theta[2:]
    jac[[0, 1], [2, 3]] = t
    jac[2, 3] = 3.0 * theta[3] ** 2
    jac[3:6] = MIX
    jac[[6, 7], [2, 3]] = 1.0
    return jac


class TestClosedForm:
    # positive control: a reference that lost the imaginary part would give
    # zero derivatives, and every oracle comparison against it could pass
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_jvp_and_vjp_match_the_closed_form_jacobian(self, seed):
        rng = np.random.default_rng(seed)
        theta, v = rng.standard_normal((2, 4))
        w = rng.standard_normal(8)
        jac = closed_form_jacobian(theta)
        lin = ad.linearize(closed_form_map, theta)
        assert rel_err(lin.jvp(v), jac @ v) <= 1e-14
        assert rel_err(lin.vjp(w), jac.T @ w) <= 1e-14


def oracle_jet(topology, theta, x):
    """Reference jet written with plain numpy ops, one input coordinate at
    a time: (value, [du/dx_i], [d^2u/dx_i^2]) as (q,) columns.

    ``theta`` is real, or complex for a complex-step linearization; tanh on
    hidden layers.
    """
    q, d = x.shape
    value = x
    grads = [np.broadcast_to(np.eye(d)[i], (q, d)).copy() for i in range(d)]
    seconds = [np.zeros((q, d)) for _ in range(d)]
    layers = topology.layer_slices()
    for k, (ws, bs, n_out, n_in) in enumerate(layers):
        w, b = theta[ws].reshape((n_out, n_in)), theta[bs]
        value = value @ w.T + b
        grads = [g @ w.T for g in grads]
        seconds = [h @ w.T for h in seconds]
        if k < len(layers) - 1:
            t = np.tanh(value)
            d1 = 1.0 - t * t
            d2 = -2.0 * t * d1
            seconds = [d2 * g * g + d1 * h for g, h in zip(grads, seconds)]
            grads = [d1 * g for g in grads]
            value = t
    return (
        value.reshape((q,)),
        [g.reshape((q,)) for g in grads],
        [h.reshape((q,)) for h in seconds],
    )


def jet_channels(topology, theta, x):
    """(value, gradient, second) of the network's order-2 jet, shapes (q,), (q, d), (q, d)."""
    z = model.propagate(topology, theta, model.input_jet(topology, x))[:, :, 0]
    d = x.shape[1]
    return z[0], z[1 : 1 + d].T, z[1 + d :].T


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), np.finfo(float).tiny)


class TestLaplacianJets:
    def test_affine_net_zero_laplacian(self):
        w = np.array([[1.5, -2.0]])
        b = np.array([0.25])
        x = np.array([[0.3, 0.7]])
        top = model.MlpTopology((2, 1))
        v, g, h = jet_channels(top, np.concatenate([w.ravel(), b]), x)
        np.testing.assert_allclose(v, w @ x[0] + b, rtol=1e-15)
        np.testing.assert_allclose(g[0], w[0], rtol=1e-15)
        np.testing.assert_allclose(h, np.zeros((1, 2)), atol=0.0)

    def test_tanh_at_zero(self):
        # u(x) = tanh(x): u(0)=0, u'(0)=1, u''(0)=0
        top = model.MlpTopology((1, 1, 1))
        v, g, h = jet_channels(top, np.array([1.0, 0.0, 1.0, 0.0]), np.array([[0.0]]))
        assert v[0] == pytest.approx(0.0, abs=1e-15)
        assert g[0, 0] == pytest.approx(1.0, rel=1e-15)
        assert h[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_laplacian_matches_stencil_2d(self):
        top = model.MlpTopology((2, 6, 6, 1))
        theta = np.random.default_rng(11).standard_normal(top.param_count)
        x0 = np.array([0.3, -0.2])

        def u(x):
            v, _, _ = jet_channels(top, theta, x.reshape(1, 2))
            return v[0]

        _, _, h = jet_channels(top, theta, x0.reshape(1, 2))
        lap = h[0].sum()
        step = 1e-4
        stencil = 0.0
        for d in range(2):
            e = np.zeros(2)
            e[d] = step
            stencil += (u(x0 + e) - 2 * u(x0) + u(x0 - e)) / step**2
        assert lap == pytest.approx(stencil, rel=1e-5)

    @given(
        st.integers(1, 3),
        st.integers(1, 8),
        st.integers(1, 2),
        st.integers(1, 20),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_jet_matches_per_op_oracle(self, depth, width, d, q, seed):
        rng = np.random.default_rng(seed)
        prob = problems.make_problem(
            "poisson2d" if d == 2 else "poisson1d", hidden_width=width, hidden_depth=depth
        )
        top = prob.topology
        theta = 0.8 * rng.standard_normal(top.param_count)
        quad = problems.QuadratureSet(
            interior_points=rng.uniform(-1.0, 1.0, (q, d)),
            interior_weights=rng.uniform(0.5, 2.0, q),
            boundary_points=rng.uniform(-1.0, 1.0, (3, d)),
            boundary_weights=rng.uniform(0.5, 2.0, 3),
        )
        root = np.sqrt(np.concatenate([quad.interior_weights, quad.boundary_weights]))
        x = quad.interior_points

        value, grads, seconds = oracle_jet(top, theta, x)
        u, gu, second = jet_channels(top, theta, x)
        assert rel_err(u, value) <= 1e-12
        assert rel_err(gu, np.stack(grads, axis=1)) <= 1e-12
        assert rel_err(second, np.stack(seconds, axis=1)) <= 1e-12

        def oracle_stack(th):
            _, _, sec = oracle_jet(top, th, x)
            total = sec[0]
            for h in sec[1:]:
                total = total + h
            ub, _, _ = oracle_jet(top, th, quad.boundary_points)
            return np.concatenate([-total, ub])

        # the problem's Jacobian is A = W^{1/2} J of the oracle's stack
        ref = ad.linearize(oracle_stack, theta)
        a = prob.residual_jacobian(theta, quad)[1]
        assert rel_err(prob.metric_stack(theta, theta, quad), ref.value) <= 1e-12
        v = rng.standard_normal(top.param_count)
        w = rng.standard_normal(q + 3)
        assert rel_err(a @ v, root * ref.jvp(v)) <= 1e-12
        assert rel_err(a.T @ w, ref.vjp(root * w)) <= 1e-12


    @given(seed=st.integers(0, 2**31 - 1), d=st.integers(1, 3), order=st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_tanh_rule_written_over_its_input_is_bitwise_unchanged(self, seed, d, order):
        # the rule overwrites its input jet; the linearized pass must write
        # bit for bit the jet the plain pass writes, each on its own copy
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((1 + order * d, 6, 4))
        plain, linearized = z.copy(), z.copy()
        assert model.tanh_jet_rule(plain, d) is None
        assert callable(model.tanh_jet_rule(linearized, d, linearize=True))
        np.testing.assert_array_equal(linearized, plain)
        np.testing.assert_array_equal(plain[0], np.tanh(z[0]))

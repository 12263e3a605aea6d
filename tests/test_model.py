import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nystromngd import autodiff as ad
from nystromngd import model
from test_autodiff import oracle_jet, rel_err


def forward(top, theta, x):
    """Network values (q,) at the points x: the value channel of an order-0 jet."""
    return model.propagate(top, theta, model.input_jet(top, x, 0))[0, :, 0]


class TestTopology:
    def test_param_count_hand(self):
        top = model.MlpTopology((3, 32, 32, 1))
        assert top.param_count == 3 * 32 + 32 + 32 * 32 + 32 + 32 * 1 + 1 == 1217

    @given(st.lists(st.integers(1, 8), min_size=2, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_param_count_matches_layer_shapes(self, widths):
        top = model.MlpTopology(tuple(widths))
        offset = 0
        for ws, bs, n_out, n_in in top.layer_slices():
            assert (ws.start, ws.stop) == (offset, offset + n_out * n_in)
            assert (bs.start, bs.stop) == (ws.stop, ws.stop + n_out)
            offset = bs.stop
        assert offset == top.param_count


class TestInit:
    def test_deterministic(self):
        top = model.MlpTopology((2, 4, 1))
        a = model.init(top, seed=42).values
        b = model.init(top, seed=42).values
        assert np.array_equal(a, b)

    def test_biases_zero(self):
        top = model.MlpTopology((1, 1, 1))
        theta = model.init(top, seed=0).values
        for ws, bs, n_out, n_in in top.layer_slices():
            np.testing.assert_array_equal(theta[bs], np.zeros(n_out))

    def test_weight_scale(self):
        top = model.MlpTopology((100, 200, 1))
        theta = model.init(top, seed=1).values
        (w1s, _, _, _), _ = top.layer_slices()[0], None
        w1 = theta[w1s]
        # N(0, 1/fan_in) with fan_in=100 -> sample std near 0.1
        assert abs(w1.std() - 0.1) < 0.01


class TestForward:
    def test_zero_params_zero_output(self):
        top = model.MlpTopology((2, 4, 4, 1))
        x = np.random.default_rng(0).standard_normal((7, 2))
        out = forward(top, np.zeros(top.param_count), x)
        np.testing.assert_array_equal(out, np.zeros(7))

    def test_hand_evaluated_tanh_composition(self):
        top = model.MlpTopology((1, 2, 1))
        w1 = np.array([[2.0], [-1.0]])
        b1 = np.array([0.5, 0.25])
        w2 = np.array([[1.5, -0.5]])
        b2 = np.array([0.125])
        theta = np.concatenate([w1.ravel(), b1, w2.ravel(), b2])
        x = np.array([[0.3]])
        expected = w2 @ np.tanh(w1 @ x[0] + b1) + b2
        out = forward(top, theta, x)
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_batch_shape(self):
        top = model.MlpTopology((3, 5, 1))
        theta = model.init(top, 0).values
        out = forward(top, theta, np.zeros((11, 3)))
        assert out.shape == (11,)


class TestInputDerivatives:
    def test_matches_finite_differences(self):
        top = model.MlpTopology((2, 6, 6, 1))
        theta = model.init(top, 3).values
        x = np.array([[0.4, -0.1]])
        z = model.propagate(top, theta, model.input_jet(top, x))[:, 0, 0]
        gu, lap = z[1:3], z[3:].sum()
        h = 1e-5
        for d in range(2):
            e = np.zeros((1, 2))
            e[0, d] = h
            fd = (forward(top, theta, x + e) - forward(top, theta, x - e)) / (2 * h)
            assert gu[d] == pytest.approx(fd[0], rel=1e-6)
        h = 1e-4
        stencil = 0.0
        for d in range(2):
            e = np.zeros((1, 2))
            e[0, d] = h
            stencil += (
                forward(top, theta, x + e) - 2 * forward(top, theta, x) + forward(top, theta, x - e)
            )[0] / h**2
        assert lap == pytest.approx(stencil, rel=1e-5)


class TestJetOrders:
    def test_input_jet_channels(self):
        top = model.MlpTopology((2, 3, 1))
        x = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        for order, channels in ((0, 1), (1, 3), (2, 5)):
            z = model.input_jet(top, x, order)
            assert z.shape == (channels, 3, 2)
            np.testing.assert_array_equal(z[0], x)
            if order:
                unit = np.broadcast_to(np.eye(2)[:, None], (2, 3, 2))
                np.testing.assert_array_equal(z[1:3], unit)
        with pytest.raises(ValueError, match="order"):
            model.input_jet(top, x, 3)
        with pytest.raises(ValueError, match="input dim"):
            model.input_jet(top, x[:, :1])

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_propagate_leaves_its_inputs_unchanged(self, order):
        # the tanh rule overwrites each layer's own new array, never the
        # caller's input jet, which is built once and reused; the pullback
        # can be called again with the same cotangent
        top = model.MlpTopology((2, 5, 5, 1))
        rng = np.random.default_rng(order)
        theta = rng.standard_normal(top.param_count)
        z = model.input_jet(top, rng.random((4, 2)), order)
        theta0, z0 = theta.copy(), z.copy()
        jet, pullback = model.propagate(top, theta, z, pullback=True)
        np.testing.assert_array_equal(model.propagate(top, theta, z), jet)
        g = rng.standard_normal(jet.shape)
        g0 = g.copy()
        rows = pullback(g, np.empty((4, top.param_count)))
        np.testing.assert_array_equal(pullback(g, np.empty((4, top.param_count))), rows)
        np.testing.assert_array_equal(z, z0)
        np.testing.assert_array_equal(theta, theta0)
        np.testing.assert_array_equal(g, g0)

    @given(seed=st.integers(0, 2**31 - 1), depth=st.integers(1, 3), d=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_first_order_channels_equal_second_order_ones_bitwise(self, seed, depth, d):
        top = model.MlpTopology((d,) + (5,) * depth + (1,))
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal(top.param_count)
        x = rng.random((7, d))
        second = model.propagate(top, theta, model.input_jet(top, x, 2))
        first = model.propagate(top, theta, model.input_jet(top, x, 1))
        np.testing.assert_array_equal(first, second[: 1 + d])

    @given(
        seed=st.integers(0, 2**31 - 1),
        depth=st.integers(1, 3),
        width=st.integers(1, 8),
        d=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_order_matches_the_per_op_oracle(self, seed, depth, width, d):
        # one tanh rule serves orders 0, 1 and 2: each order's channels, and
        # their per-point pullback, against the generic per-op oracle
        top = model.MlpTopology((d,) + (width,) * depth + (1,))
        rng = np.random.default_rng(seed)
        theta = 0.8 * rng.standard_normal(top.param_count)
        x = rng.uniform(-1.0, 1.0, (7, d))
        v = rng.standard_normal(top.param_count)
        value, grads, seconds = oracle_jet(top, theta, x)
        ref = np.stack([value] + grads + seconds)
        for order in (0, 1, 2):
            c = 1 + order * d
            z, pullback = model.propagate(
                top, theta, model.input_jet(top, x, order), pullback=True
            )
            assert z.shape == (c, 7, 1)
            assert rel_err(z[:, :, 0], ref[:c]) <= 1e-12
            g = rng.standard_normal((c, 7, 1))

            def weighted(th):
                value, grads, seconds = oracle_jet(top, th, x)
                return sum(gc * ch for gc, ch in zip(g[:, :, 0], [value] + grads + seconds))

            rows = pullback(g, np.empty((7, top.param_count)))
            assert rel_err(rows @ v, ad.linearize(weighted, theta).jvp(v)) <= 1e-12

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nystromngd import autodiff as ad
from nystromngd import model


class TestTopology:
    def test_param_count_hand(self):
        top = model.MlpTopology((3, 32, 32, 1))
        assert top.param_count == 3 * 32 + 32 + 32 * 32 + 32 + 32 * 1 + 1 == 1217

    def test_flatten_unflatten_roundtrip(self):
        top = model.MlpTopology((2, 5, 3, 1))
        theta = np.random.default_rng(0).standard_normal(top.param_count)
        np.testing.assert_array_equal(top.flatten(top.unflatten(theta)), theta)

    @given(st.lists(st.integers(1, 8), min_size=2, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_param_count_matches_layer_shapes(self, widths):
        top = model.MlpTopology(tuple(widths))
        total = sum(w.size + b.size for w, b in top.unflatten(np.zeros(top.param_count)))
        assert total == top.param_count


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
        out = model.forward(top, np.zeros(top.param_count), x)
        np.testing.assert_array_equal(out, np.zeros(7))

    def test_hand_evaluated_tanh_composition(self):
        top = model.MlpTopology((1, 2, 1))
        w1 = np.array([[2.0], [-1.0]])
        b1 = np.array([0.5, 0.25])
        w2 = np.array([[1.5, -0.5]])
        b2 = np.array([0.125])
        theta = top.flatten([(w1, b1), (w2, b2)])
        x = np.array([[0.3]])
        expected = w2 @ np.tanh(w1 @ x[0] + b1) + b2
        out = model.forward(top, theta, x)
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_batch_shape(self):
        top = model.MlpTopology((3, 5, 1))
        theta = model.init(top, 0).values
        out = model.forward(top, theta, np.zeros((11, 3)))
        assert out.shape == (11,)


class TestInputDerivatives:
    def test_matches_finite_differences(self):
        top = model.MlpTopology((2, 6, 6, 1))
        theta = model.init(top, 3).values
        x = np.array([[0.4, -0.1]])
        u, gu, lap = model.input_derivatives(top, theta, x)
        h = 1e-5
        for d in range(2):
            e = np.zeros((1, 2))
            e[0, d] = h
            fd = (model.forward(top, theta, x + e) - model.forward(top, theta, x - e)) / (2 * h)
            assert gu[0, d] == pytest.approx(fd[0], rel=1e-6)
        h = 1e-4
        stencil = 0.0
        for d in range(2):
            e = np.zeros((1, 2))
            e[0, d] = h
            stencil += (
                model.forward(top, theta, x + e)
                - 2 * model.forward(top, theta, x)
                + model.forward(top, theta, x - e)
            )[0] / h**2
        assert lap[0] == pytest.approx(stencil, rel=1e-5)


class TestJetOrders:
    def test_input_jet_channels(self):
        top = model.MlpTopology((2, 3, 1))
        x = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        for order, channels in ((0, 1), (1, 3), (2, 5)):
            z = model.input_jet(top, x, order)
            assert z.shape == (channels, 3, 2)
            np.testing.assert_array_equal(z[0], x)
            if order:
                np.testing.assert_array_equal(z[1:3], np.broadcast_to(np.eye(2)[:, None], (2, 3, 2)))
        with pytest.raises(ValueError, match="order"):
            model.input_jet(top, x, 3)

    @given(seed=st.integers(0, 2**31 - 1), depth=st.integers(1, 3), d=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_first_order_channels_equal_second_order_ones_bitwise(self, seed, depth, d):
        top = model.MlpTopology((d,) + (5,) * depth + (1,))
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal(top.param_count)
        x = rng.random((7, d))
        second = model.jet(top, theta, x, order=2)
        np.testing.assert_array_equal(model.jet(top, theta, x, order=1), second[: 1 + d])
        u, gu = model.value_and_gradient(top, theta, model.input_jet(top, x, 1))
        u2, gu2, _ = model.input_derivatives(top, theta, x)
        np.testing.assert_array_equal(u, u2)
        np.testing.assert_array_equal(gu, gu2)

    def test_first_order_jet_is_not_taped(self):
        top = model.MlpTopology((2, 3, 1))
        theta = model.init(top, 0).values
        with pytest.raises(ValueError, match="order-1"):
            ad.linearize(lambda th: model.jet(top, th, np.zeros((1, 2)), order=1), theta)

import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nystromngd import autodiff as ad
from nystromngd import gramian, harness, model, problems
from test_problems import HAND_METRIC_STACKS


def gramian_from_stack(stack_fn, theta, weights):
    """Gramian A^T A of an arbitrary stack function under row weights w,
    A = W^{1/2} J with J taken column by column from complex-step JVPs on
    the unit vectors (the generic slow path)."""
    lin = ad.linearize(stack_fn, np.asarray(theta, dtype=float))
    jac = np.column_stack([lin.jvp(e) for e in np.eye(np.size(theta))])
    return gramian.GramianOperator(np.sqrt(weights)[:, None] * jac)


def fd_jacobian(stack_fn, theta, h=1e-6):
    """Central finite-difference Jacobian of a stack function."""
    out0 = ad.primal_value(stack_fn(theta))
    jac = np.empty((out0.shape[0], theta.shape[0]))
    for i in range(theta.shape[0]):
        e = np.zeros_like(theta)
        e[i] = h
        plus = ad.primal_value(stack_fn(theta + e))
        minus = ad.primal_value(stack_fn(theta - e))
        jac[:, i] = (plus - minus) / (2 * h)
    return jac


def small_instance(name="poisson1d", width=4, depth=1, seed=0):
    prob = problems.make_problem(name, hidden_width=width, hidden_depth=depth)
    quad = prob.sample_quadrature(20, 8, seed)
    theta = model.init(prob.topology, seed + 1).values
    return prob, quad, theta


class TestGramianOperator:
    def test_zero_vector(self):
        prob, quad, theta = small_instance()
        gop = gramian.GramianOperator.from_problem(prob, theta, quad)
        np.testing.assert_array_equal(gop.matvec(np.zeros(gop.dim)), np.zeros(gop.dim))

    def test_linear_model_outer_product_gram(self):
        # u_theta(x) = theta_1 phi_1(x) + theta_2 phi_2(x) on 3 points:
        # G = sum_r w_r phi(x_r) phi(x_r)^T
        xs = np.array([0.1, 0.5, 0.9])
        w = np.array([0.2, 0.5, 0.3])
        phi = np.stack([np.sin(np.pi * xs), xs * (1 - xs)], axis=1)  # (3, 2)

        def stack(theta):
            return phi @ theta

        theta = np.array([0.7, -1.3])
        gop = gramian_from_stack(stack, theta, w)
        expected = phi.T @ (w[:, None] * phi)
        dense = gramian.assemble_dense(gop)
        np.testing.assert_allclose(dense, expected, rtol=1e-14, atol=1e-14)
        v = np.array([0.3, 2.0])
        np.testing.assert_allclose(gop.matvec(v), expected @ v, rtol=1e-14)

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_matches_finite_difference_gauss_newton(self, name):
        prob, quad, theta = small_instance(name)
        gop = gramian.GramianOperator.from_problem(prob, theta, quad)
        dense = gramian.assemble_dense(gop)
        hand = HAND_METRIC_STACKS[name]
        jac = fd_jacobian(lambda th: hand(prob, th, ad.freeze(theta), quad), theta)
        w = prob.metric_weights(quad)
        expected = jac.T @ (w[:, None] * jac)
        err = np.linalg.norm(dense - expected) / np.linalg.norm(expected)
        assert err <= 1e-8

    def test_matvec_count(self):
        prob, quad, theta = small_instance()
        gop = gramian.GramianOperator.from_problem(prob, theta, quad)
        gop.matvec(np.ones(gop.dim))
        gop.matmat(np.ones((gop.dim, 3)))
        assert gop.matvec_count == 4

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_dropped_operator_frees_its_jacobian_without_gc(self, name):
        # the operator holds only ndarrays and counters, and its Jacobian
        # is freed by refcount once the operator is dropped
        prob, quad, theta = small_instance(name)
        gc.disable()
        try:
            gop = gramian.GramianOperator.from_problem(prob, theta, quad)
            gop.matvec(np.ones(gop.dim))
            for value in vars(gop).values():
                assert type(value) in (np.ndarray, int)
            jacobian = weakref.ref(gop.jacobian)
            del gop
            assert jacobian() is None
        finally:
            gc.enable()

    def test_answers_from_a_alone(self):
        # criterion-10 set-up: every column of the dense assembly is two passes
        # over A, and a matvec does not depend on how many the operator served
        prob, quad, theta = harness.set_up(harness.ExperimentConfig())
        gop = gramian.GramianOperator.from_problem(prob, theta, quad)
        a = gop.jacobian
        two_pass = np.column_stack([a.T @ (a @ e) for e in np.eye(gop.dim)])
        np.testing.assert_array_equal(gramian.assemble_dense(gop), two_pass)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(gop.dim)
        first = gop.matvec(v)
        for _ in range(30):
            gop.matvec(rng.standard_normal(gop.dim))
        np.testing.assert_array_equal(gop.matvec(v), first)

    @given(
        name=st.sampled_from(problems.PROBLEM_NAMES),
        depth=st.integers(1, 3),
        width=st.integers(1, 8),
        q=st.integers(1, 20),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_complex_step_matvec(self, name, depth, width, q, seed):
        # fast path (row Jacobian from the per-point reverse pass) against
        # the slow path (complex-step JVP and VJP through the hand-written metric stack)
        prob = problems.make_problem(name, hidden_width=width, hidden_depth=depth)
        quad = prob.sample_quadrature(q, 1 + seed % 7, seed)
        theta = model.init(prob.topology, seed).values
        gop = gramian.GramianOperator.from_problem(prob, theta, quad)
        hand = HAND_METRIC_STACKS[name]
        lin = ad.linearize(lambda th: hand(prob, th, theta, quad), theta)
        w = prob.metric_weights(quad)
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((theta.size, 3))
        ref = np.column_stack([lin.vjp(w * lin.jvp(v)) for v in block.T])

        def rel(a, b):
            return np.linalg.norm(a - b) / np.linalg.norm(b)

        assert rel(gop.matvec(block[:, 0]), ref[:, 0]) <= 1e-12
        assert rel(gop.matmat(block), ref) <= 1e-12


@pytest.mark.parametrize("kind", [gramian.GramianOperator, gramian.DenseOperator])
@pytest.mark.parametrize(
    "method, shape",
    [("matvec", (4,)), ("matvec", (3, 2)), ("matmat", (4, 2)), ("matmat", (3,))],
    ids=str,
)
def test_both_operators_reject_a_wrong_shape_before_counting(kind, method, shape):
    # p = 3: a matvec takes (3,) and a matmat (3, k); any other shape is named, uncounted
    op = kind(np.ones((5, 3)) if kind is gramian.GramianOperator else np.eye(3))
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        getattr(op, method)(np.ones(shape))
    assert op.matvec_count == 0


class TestDenseAssembly:
    def test_diagonal_metric_on_linear_model(self):
        xs = np.array([0.2, 0.4, 0.8])
        w = np.array([1.0, 2.0, 3.0])
        # orthogonal indicator features: phi_i supported on point i only
        phi = np.eye(3)
        gop = gramian_from_stack(lambda th: phi @ th, np.zeros(3), w)
        np.testing.assert_allclose(gramian.assemble_dense(gop), np.diag(w), atol=1e-15)

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_symmetric_and_psd(self, name):
        prob, quad, theta = small_instance(name)
        dense = gramian.assemble_dense(
            gramian.GramianOperator.from_problem(prob, theta, quad)
        )
        sym = np.linalg.norm(dense - dense.T) / np.linalg.norm(dense)
        assert sym <= 1e-12
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.min() >= -1e-12 * eigs.max()

    def test_guard(self, monkeypatch):
        gop = gramian.DenseOperator(np.eye(10))
        monkeypatch.setattr(gramian, "DENSE_GUARD", 5)
        with pytest.raises(ValueError, match="guard: p=10 exceeds 5"):
            gramian.assemble_dense(gop)

    @pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
    def test_gramian_dense_matches_column_assembly_and_counts_p(self, name):
        # the column assembly costs p matvecs, and dense() charges the same p to the
        # Gramian itself, so no step that forms G edits the tally
        prob, quad, theta = small_instance(name)
        gop = gramian.GramianOperator.from_problem(prob, theta, quad)
        columns = gramian.GramianOperator(gop.jacobian)
        reference = gramian.assemble_dense(columns)
        assert columns.matvec_count == gop.dim
        dense = gop.dense()
        assert np.linalg.norm(dense - reference) <= 1e-14 * np.linalg.norm(reference)
        assert gop.matvec_count == gop.dim

    @pytest.mark.parametrize("rows, p", [(7, 4), (5, 5), (4, 7)], ids=["tall", "square", "wide"])
    def test_dense_is_the_smaller_gram_matrix_and_counts_its_side(self, rows, p):
        # A^T A while p <= rows, else A A^T: min(rows, p)^2 entries, never more than A's
        a = np.random.default_rng(3).standard_normal((rows, p))
        gop = gramian.GramianOperator(a)
        dense = gop.dense()
        side = min(rows, p)
        assert dense.shape == (side, side) and dense.size <= a.size
        np.testing.assert_array_equal(dense, a.T @ a if p <= rows else a @ a.T)
        assert gop.matvec_count == side

    def test_formed_is_the_gramian_itself_when_p_exceeds_rows(self):
        gop = gramian.GramianOperator(np.random.default_rng(0).standard_normal((4, 5)))
        assert gop.formed() is gop
        assert gop.matvec_count == 0

    def test_formed_reads_no_guard(self):
        # p <= rows past assemble_dense's DENSE_GUARD: formed() reads only dense()'s rule
        a = np.random.default_rng(4).standard_normal((2002, 2001))
        gop = gramian.GramianOperator(a)
        formed = gop.formed()
        assert gop.dim > gramian.DENSE_GUARD
        assert type(formed) is gramian.DenseOperator
        np.testing.assert_array_equal(formed.matrix, a.T @ a)
        assert gop.matvec_count == 0

    def test_formed_gramian_is_a_t_a_and_counts_on_the_gramian(self):
        a = np.random.default_rng(1).standard_normal((12, 5))
        gop = gramian.GramianOperator(a)
        formed = gop.formed()
        assert type(formed) is gramian.DenseOperator
        np.testing.assert_array_equal(formed.matrix, a.T @ a)
        assert gop.matvec_count == 0  # forming G is free
        formed.matvec(np.ones(5))
        formed.matmat(np.ones((5, 3)))
        assert gop.matvec_count == 1 + 3 and formed.matvec_count == 0
        with pytest.raises(ValueError, match=re.escape("(4,)")):  # a wrong shape, uncounted
            formed.matvec(np.ones(4))
        assert gop.matvec_count == 4

    def test_shifted_operator(self):
        gop = gramian.DenseOperator(np.diag([1.0, 2.0]))
        shifted = gramian.ShiftedOperator(gop, 0.5)
        np.testing.assert_allclose(shifted.matvec(np.ones(2)), [1.5, 2.5])

"""Matrix-free Gramian operators built from metric stacks.

A Gramian matvec is one Jacobian-vector product through the metric
stack, a diagonal scaling by quadrature weights, and one
vector-Jacobian product back: G v = J^T diag(w) J v.  The stack is
linearized once at the current parameters (with the metric's
linearization point frozen there) and the cached trace serves all
subsequent matvecs.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

DENSE_GUARD = 2000


class GramianOperator:
    """SPSD operator v -> J^T diag(w) J v, accessed only via matvecs."""

    def __init__(self, lin, weights):
        self._lin = lin
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (lin.output_dim,):
            raise ValueError(
                f"weights length {self.weights.shape} != stack length {lin.output_dim}"
            )
        self.dim = lin.input_dim
        self.matvec_count = 0

    @classmethod
    def from_problem(cls, problem, theta, quad):
        """Gramian of a problem at theta, metric frozen at theta."""
        theta = np.asarray(theta, dtype=float)
        frozen = ad.freeze(theta)
        lin = ad.linearize(
            lambda th: problem.metric_stack(th, frozen, quad), theta
        )
        return cls(lin, problem.metric_weights(quad))

    @classmethod
    def from_stack(cls, stack_fn, theta, weights):
        """Gramian of an arbitrary stack function (mainly for tests)."""
        return cls(ad.linearize(stack_fn, np.asarray(theta, dtype=float)), weights)

    def matvec(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got {v.shape}")
        self.matvec_count += 1
        return self._lin.vjp(self.weights * self._lin.jvp(v))

    def matmat(self, vmat):
        """Column-by-column matvecs in fixed order (deterministic reduction)."""
        vmat = np.asarray(vmat, dtype=float)
        out = np.empty_like(vmat)
        for j in range(vmat.shape[1]):
            out[:, j] = self.matvec(vmat[:, j])
        return out

    def __call__(self, v):
        return self.matvec(v)


class DenseOperator:
    """Matvec wrapper around an explicit SPSD matrix (tests, synthetic runs)."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("expected a square matrix")
        self.dim = self.matrix.shape[0]
        self.matvec_count = 0

    def matvec(self, v):
        self.matvec_count += 1
        return self.matrix @ v

    def matmat(self, vmat):
        self.matvec_count += vmat.shape[1]
        return self.matrix @ vmat

    def __call__(self, v):
        return self.matvec(v)


class ShiftedOperator:
    """v -> A v + mu v; matvec counting delegates to the base operator."""

    def __init__(self, base, mu):
        self.base = base
        self.mu = float(mu)
        self.dim = base.dim

    def matvec(self, v):
        return self.base.matvec(v) + self.mu * v

    def __call__(self, v):
        return self.matvec(v)


def assemble_dense(op, guard=DENSE_GUARD):
    """Assemble an operator column by column via matvecs with e_i."""
    p = op.dim
    if p > guard:
        raise ValueError(f"dense assembly guard: p={p} exceeds {guard}")
    basis = np.eye(p)
    cols = [op.matvec(basis[:, i]) for i in range(p)]
    return np.column_stack(cols)

"""Gramian operators G = A^T A, held as the Jacobian A.

A = W^{1/2} J is the Jacobian of a problem's weighted residual
s = W^{1/2} r in the parameters, one row per quadrature point, so
G = J^T W J is the Gauss-Newton metric; ``run_optimizer`` assembles A into
one (rows, p) array per run.  A matvec is two passes over A and a block two
GEMMs, so its answer depends on A and v alone.  Only the Gramian charges its
``matvec_count``, the run's cost unit: ``dense()`` as min(rows, p) matvecs,
and ``formed()``'s G per product, so no step edits it.
"""

from __future__ import annotations

import numpy as np

DENSE_GUARD = 2000


def _counted(op, x, ndim):
    """x as float64, a vector (ndim 1) or (p, k) block (ndim 2), its 1 or k columns
    added to op's matvec tally; any other shape raises ValueError, uncounted."""
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim or x.shape[0] != op.dim:
        expected = f"({op.dim},)" if ndim == 1 else f"({op.dim}, k)"
        raise ValueError(f"expected shape {expected}, got {x.shape}")
    op.matvec_count += 1 if ndim == 1 else x.shape[1]
    return x


class GramianOperator:
    """SPSD operator v -> A^T A v, held as the weighted row Jacobian A."""

    def __init__(self, jacobian):
        self.jacobian = np.asarray(jacobian, dtype=float)
        self.dim = self.jacobian.shape[1]
        self.matvec_count = 0

    @classmethod
    def from_problem(cls, problem, theta, quad):
        """Gauss-Newton Gramian of a problem at theta."""
        return cls(problem.residual_jacobian(theta, quad)[1])

    def matvec(self, v):
        return self.jacobian.T @ (self.jacobian @ _counted(self, v, 1))

    def matmat(self, vmat):
        """G V for a (p, k) block: one GEMM pair, counted as k matvecs."""
        return self.jacobian.T @ (self.jacobian @ _counted(self, vmat, 2))

    def dense(self):
        """The smaller Gram matrix of A, never larger than A: G = A^T A if p <= rows, else
        K = A A^T (one syrk), charged as the min(rows, p) matvecs of its column assembly."""
        a = self.jacobian
        self.matvec_count += min(a.shape)
        return a.T @ a if self.dim <= a.shape[0] else a @ a.T

    def formed(self):
        """What CG iterates with: G formed uncounted, as a DenseOperator whose products this
        Gramian counts, if p <= min(rows, DENSE_GUARD); otherwise this Gramian itself."""
        if self.dim > min(self.jacobian.shape[0], DENSE_GUARD):
            return self
        formed = DenseOperator(self.jacobian.T @ self.jacobian)
        formed._tally = self
        return formed


class DenseOperator:
    """Matvec wrapper around an explicit SPSD matrix (a formed Gramian, tests, synthetic runs)."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("expected a square matrix")
        self.dim = self.matrix.shape[0]
        self.matvec_count = 0
        self._tally = self  # whose matvec_count its products raise: a formed G's is its Gramian

    def matvec(self, v):
        return self.matrix @ _counted(self._tally, v, 1)

    def matmat(self, vmat):
        return self.matrix @ _counted(self._tally, vmat, 2)


class ShiftedOperator:
    """v -> A v + mu v; matvec counting delegates to the base operator."""

    def __init__(self, base, mu):
        self.base = base
        self.mu = float(mu)
        self.dim = base.dim

    def matvec(self, v):
        return self.base.matvec(v) + self.mu * v


def assemble_dense(op):
    """Assemble an operator column by column via matvecs with e_i."""
    if op.dim > DENSE_GUARD:
        raise ValueError(f"dense assembly guard: p={op.dim} exceeds {DENSE_GUARD}")
    return np.column_stack([op.matvec(e) for e in np.eye(op.dim)])

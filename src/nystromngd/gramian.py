"""Gramian operators G = A^T A, held as the Jacobian A.

A = W^{1/2} J is the Jacobian of a problem's weighted residual
s = W^{1/2} r in the parameters, one row per quadrature point, so
G = J^T W J is the Gauss-Newton metric.  It is assembled once per
iteration with the loss gradient A^T s (``PdeProblem.loss_grad``), into an
array that each optimizer run allocates once: rows x p x 8 bytes, for 560
rows 1.5 MB at p = 337 and 5.3 MB at p = 1185.  A block of matvecs is two
GEMMs over A.  A single matvec is two matrix-vector products over A until
the operator has served ``FORM_AFTER`` of them; the next one forms
G = A^T A (one syrk) and every later one is one product with G.  Only a
long unpreconditioned CG solve gets that far, and only when G is no larger
than A (p <= rows) and p <= ``DENSE_GUARD``.  Forming G there is a cost
inside the operator, not an application the algorithm asked for, so it
adds nothing to ``matvec_count``; ``dense()``, whose caller wants G itself,
forms a fresh G and counts p.
"""

from __future__ import annotations

import numpy as np

DENSE_GUARD = 2000
# Single matvecs served by two passes over A before G = A^T A is formed: the
# syrk costs about 23 of them at 560 x 337, and the value must exceed the
# CG_MAXIT + 1 = 21 that a Nystrom-NGD step can make, so that run never forms G.
FORM_AFTER = 24


class GramianOperator:
    """SPSD operator v -> A^T A v, held as the weighted row Jacobian A."""

    def __init__(self, jacobian):
        self.jacobian = np.asarray(jacobian, dtype=float)
        self.dim = self.jacobian.shape[1]
        self.matvec_count = 0
        self._single_matvecs = 0
        self._gram = None  # G = A^T A, once FORM_AFTER single matvecs are served

    @classmethod
    def from_problem(cls, problem, theta, quad):
        """Gauss-Newton Gramian of a problem at theta."""
        return cls(problem.residual_jacobian(theta, quad)[1])

    def matvec(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got {v.shape}")
        self.matvec_count += 1
        self._single_matvecs += 1
        small = self.dim <= min(self.jacobian.shape[0], DENSE_GUARD)
        if self._single_matvecs == FORM_AFTER + 1 and small:
            self._gram = self.jacobian.T @ self.jacobian
        if self._gram is None:
            return self.jacobian.T @ (self.jacobian @ v)
        return self._gram @ v

    def matmat(self, vmat):
        """G V for a (p, k) block: one GEMM pair, counted as k matvecs."""
        vmat = np.asarray(vmat, dtype=float)
        if vmat.ndim != 2 or vmat.shape[0] != self.dim:
            raise ValueError(f"expected a block of shape ({self.dim}, k), got {vmat.shape}")
        self.matvec_count += vmat.shape[1]
        return self.jacobian.T @ (self.jacobian @ vmat)

    def dense(self):
        """G = A^T A itself (one syrk), counted as p matvecs; guarded like assemble_dense."""
        if self.dim > DENSE_GUARD:
            raise ValueError(f"dense assembly guard: p={self.dim} exceeds {DENSE_GUARD}")
        self.matvec_count += self.dim
        return self.jacobian.T @ self.jacobian


class DenseOperator:
    """Matvec wrapper around an explicit SPSD matrix (tests, synthetic runs)."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("expected a square matrix")
        self.dim = self.matrix.shape[0]
        self.matvec_count = 0

    def matvec(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got {v.shape}")
        self.matvec_count += 1
        return self.matrix @ v

    def matmat(self, vmat):
        vmat = np.asarray(vmat, dtype=float)
        if vmat.ndim != 2 or vmat.shape[0] != self.dim:
            raise ValueError(f"expected a block of shape ({self.dim}, k), got {vmat.shape}")
        self.matvec_count += vmat.shape[1]
        return self.matrix @ vmat


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
    p = op.dim
    if p > DENSE_GUARD:
        raise ValueError(f"dense assembly guard: p={p} exceeds {DENSE_GUARD}")
    basis = np.eye(p)
    cols = [op.matvec(basis[:, i]) for i in range(p)]
    return np.column_stack(cols)

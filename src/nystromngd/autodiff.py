"""Derivative reference: a complex-step linearization and a stop-gradient.

The training path needs only Gauss-Newton Jacobian products, which the
network's jets (``model``) compute by hand; the tests check them against
:func:`linearize`.  ``LinearizedMap(f, theta)`` holds f(theta) and gives
Jacobian-vector products by the complex step J v = Im f(theta + i h v) / h
(Squire & Trapp, SIAM Rev. 40:110, 1998; Martins, Sturdza & Alonso, ACM
TOMS 29:245, 2003).  For a real-analytic map written with operations numpy
extends to complex arguments (+, *, **, @, tanh, indexing, reshape,
concatenate) no nearby values are subtracted, so nothing cancels, and the
truncation error is O(h^2) relative: at h = 1e-30 J v is exact to
rounding.  Vector-Jacobian products contract with the Jacobian assembled
once from p such columns.  :func:`freeze` (stop-gradient) takes the real
part, which carries no derivative.  A map differentiated this way must not
take ``abs``, compare or branch on its values, or cast them to float.
"""

import numpy as np

__all__ = ["LinearizedMap", "freeze", "linearize", "primal_value"]

STEP = 1e-30  # the complex step h


def freeze(x):
    """Stop-gradient: same values, all derivative paths cut."""
    return np.real(x)


def primal_value(x):
    """Plain real ndarray value of x."""
    return np.asarray(x).real


class LinearizedMap:
    """A map f of the vector theta at one point: value, jvp and vjp.

    ``value`` is f of the real theta (the real part of complex tanh is not
    bit for bit real tanh).  A map that does not depend on theta has zero
    Jacobian.
    """

    def __init__(self, f, theta):
        self.f = f
        self.theta = np.asarray(theta, dtype=float)
        self.value = np.asarray(f(self.theta), dtype=float)
        self.jacobian = None  # value.shape + (p,), assembled by the first vjp

    def jvp(self, v):
        out = self.f(self.theta + (1j * STEP) * np.asarray(v, dtype=float))
        return np.broadcast_to(np.imag(out), self.value.shape) / STEP

    def vjp(self, w):
        if self.jacobian is None:
            columns = [self.jvp(e) for e in np.eye(self.theta.size)]
            self.jacobian = np.stack(columns, axis=-1)
        w = np.broadcast_to(np.asarray(w, dtype=float), self.value.shape)
        return np.tensordot(w, self.jacobian, axes=w.ndim)


def linearize(f, theta):
    return LinearizedMap(f, theta)

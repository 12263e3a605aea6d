"""PDE problem zoo: quadrature, residual/metric stacks, losses, errors.

Shipped problems (selected by name):

* ``poisson1d``  -- -u'' = f on (0,1), strong form.
* ``poisson2d``  -- -Laplace(u) = f on the unit square, strong form.
* ``heat1p1d``   -- u_t - u_xx = f on (0,1) x (0,1), strong form; its
  boundary is the lateral sides and the initial slice.
* ``nlpoisson2d`` -- -Laplace(u) + u^3 = f on the unit square, with a
  Gauss-Newton metric linearized at a frozen point.

A problem is its PDE L[u] = f with Dirichlet data u = u*: ``operator``,
the coefficients of L on the jet channels, and ``value_term``, an
optional pointwise term of L in u; ``exact_jet``, its manufactured
solution u* with each du*/dx_i and d^2u*/dx_i^2 in the network's jet
layout; ``source``, the right-hand side f; and ``_boundary``, the
boundary points and weights of its quadrature (every domain is (0,1)^d,
so the base class draws the interior).  The base class writes the
residual once, as two blocks of rows: L[u] - f on the interior and
u - u* on the boundary.  From the blocks it derives the weighted
residual s = W^{1/2} r, its Jacobian A = W^{1/2} J
(``residual_jacobian``), the loss 0.5 s^T s, its gradient A^T s and so
the Gauss-Newton metric A^T A, and no caller applies W itself.  What
does not depend on theta is built by its one reader and kept, per
quadrature set, until that reader is next used on another set: the
blocks, each with its input jet and sqrt(w), by the residual
evaluations, and the exact solution on the H1 points by
``h1_relative_error`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import model
from .model import MlpTopology

__all__ = [
    "QuadratureSet",
    "ResidualBlock",
    "PdeProblem",
    "make_problem",
    "PROBLEM_NAMES",
]


@dataclass(frozen=True, eq=False)  # ndarray fields: a set equals only itself
class QuadratureSet:
    """Fixed Monte Carlo quadrature: interior and boundary points and weights, as float64 arrays."""

    interior_points: np.ndarray
    interior_weights: np.ndarray
    boundary_points: np.ndarray
    boundary_weights: np.ndarray

    def __post_init__(self):
        for part in ("interior", "boundary"):
            x, w = getattr(self, f"{part}_points"), getattr(self, f"{part}_weights")
            x, w = np.asarray(x, dtype=float), np.asarray(w, dtype=float)
            if x.ndim != 2:
                raise ValueError(f"{part} points must have shape (q, d), got {x.shape}")
            if w.shape != (x.shape[0],):
                raise ValueError(
                    f"{part} weights must have shape ({x.shape[0]},), one per point, "
                    f"got {w.shape}"
                )
            if not np.all(np.isfinite(x)):
                raise ValueError(f"{part} points must be finite")
            if not np.all((w > 0) & np.isfinite(w)):
                raise ValueError("quadrature weights must be positive and finite")
            object.__setattr__(self, f"{part}_points", x)
            object.__setattr__(self, f"{part}_weights", w)


class ResidualBlock(NamedTuple):
    """One block of residual rows, one row per point.

    Row r is coeffs @ z[:, r] + value_term(z[0, r]) - target[r], z being
    the jet channels (1 + 2d, q) of the network at the points
    (``model.propagate``): the value, each du/dx_i and each d^2u/dx_i^2.
    ``value_term``, if given, is a pointwise function of the value channel
    that returns the term and its derivative.  ``inputs`` is the input jet
    of the points (``model.input_jet``, whose channel 0 holds them) at
    order 0 when only the value channel enters, else 2; ``root`` is each
    point's sqrt(w), the scaling of its row of s and A.
    """

    inputs: np.ndarray
    root: np.ndarray
    coeffs: np.ndarray
    target: np.ndarray
    value_term: Callable | None = None

    def rows(self, z):
        """The residual rows from the block's jet channels z."""
        r = self.coeffs[: len(z)] @ z - self.target
        if self.value_term is not None:
            r += self.value_term(z[0])[0]
        return r

    def slope(self, z):
        """dr/dz, shaped like the jet channels z."""
        dr = np.repeat(self.coeffs[: len(z), None], z.shape[1], axis=1)
        if self.value_term is not None:
            dr[0] += self.value_term(z[0])[1]
        return dr


class PdeProblem:
    """Base class: a least-squares loss 0.5 * sum_r w_r r_r^2 over residual blocks.

    A subclass declares its PDE (``operator`` and ``value_term``) and
    supplies ``exact_jet``, ``source`` and ``_boundary``; the residual
    blocks L[u] - f and u - u*, the loss 0.5 s^T s, its gradient A^T s
    and the Gauss-Newton metric A^T A all follow from these.
    """

    name = "abstract"

    def __init__(self, topology):
        self.topology = topology
        if topology.input_dim != self.input_dim:
            raise ValueError(
                f"{self.name} needs input dim {self.input_dim}, topology has {topology.input_dim}"
            )
        # (quad, what was built for it) of the last set each builder saw
        self._last_blocks = self._last_h1 = (None, None)

    # -- to be provided by subclasses ----------------------------------------

    input_dim = None
    operator = None  # L's coefficients on the jet channels, as _channels keywords
    value_term = None  # L's pointwise term in u: u -> (term, d term / du)

    def exact_jet(self, x):
        """The exact solution's jet channels (1 + 2d, q) at x (q, d), laid
        out as ``model.propagate``'s: u*, each du*/dx_i, each d^2u*/dx_i^2."""
        raise NotImplementedError

    def source(self, x):
        """The PDE's right-hand side f at x (q, d)."""
        raise NotImplementedError

    def _boundary(self, rng, n):
        """The boundary points and weights, a (points, weights) pair, from
        ``n`` points drawn from ``rng`` after the interior ones."""
        raise NotImplementedError

    # -- shared machinery ------------------------------------------------------

    def sample_quadrature(self, n_interior, n_boundary, seed):
        """Monte Carlo quadrature on (0,1)^d: ``n_interior`` uniform points
        with weights 1/n_interior, then the boundary (``_boundary``), all
        from one stream seeded by ``seed``."""
        rng = np.random.default_rng(seed)
        x = rng.random((n_interior, self.input_dim))
        weights = np.full(n_interior, 1.0 / n_interior)
        return QuadratureSet(x, weights, *self._boundary(rng, n_boundary))

    def _blocks(self, quad):
        """The residual blocks on ``quad``, L[u] - f on the interior and
        u - u* on the boundary, built unless ``quad`` was the last set."""
        if self._last_blocks[0] is not quad:
            x, xb, d = quad.interior_points, quad.boundary_points, self.input_dim
            parts = [
                (x, quad.interior_weights, _channels(d, **self.operator), self.source(x)),
                (xb, quad.boundary_weights, _channels(d, value=1.0), self.exact_jet(xb)[0]),
            ]
            blocks = []
            for (x, w, coeffs, target), term in zip(parts, (self.value_term, None)):
                order = 2 if np.any(coeffs[1:]) else 0  # 0 when only the value channel enters
                z0 = model.input_jet(self.topology, x, order)
                blocks.append(ResidualBlock(z0, np.sqrt(w), coeffs, target, term))
            self._last_blocks = (quad, blocks)
        return self._last_blocks[1]

    def _jet(self, theta, inputs):
        """Jet channels (c, q) at theta for an input jet (``model.input_jet``)."""
        return model.propagate(self.topology, theta, inputs)[:, :, 0]

    def residual_stack(self, theta, quad):
        """The weighted residual s = W^{1/2} r at theta."""
        blocks = self._blocks(quad)
        return np.concatenate([b.root * b.rows(self._jet(theta, b.inputs)) for b in blocks])

    def metric_weights(self, quad):
        """The weights w of the stacked rows, interior then boundary."""
        return np.concatenate([quad.interior_weights, quad.boundary_weights])

    def metric_stack(self, theta, theta_bar, quad):
        """Unweighted Gauss-Newton metric rows sum_c dr/dz_c(zbar) z_c: the
        residual linearized at theta_bar (zbar = z(theta_bar)), applied at theta."""
        rows = []
        for b in self._blocks(quad):
            z = self._jet(theta, b.inputs)
            zbar = z if b.value_term is None else self._jet(theta_bar, b.inputs)
            rows.append(np.sum(b.slope(zbar) * z, axis=0))
        return np.concatenate(rows)

    def residual_jacobian(self, theta, quad, out=None):
        """Weighted residual s = W^{1/2} r at theta and its Jacobian
        A = W^{1/2} J (rows, p): one forward jet and one per-point reverse
        pass per block, seeded with sqrt(w) dr/dz, each writing its rows of
        A in place.  A is ``out`` when given, else a new array.
        """
        blocks = self._blocks(quad)
        shape = (sum(len(b.root) for b in blocks), self.topology.param_count)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or out.dtype != np.float64:
            raise ValueError(f"out must be a float64 array of shape {shape}")
        s = np.empty(shape[0])
        rows = slice(0, 0)
        for b in blocks:
            rows = slice(rows.stop, rows.stop + len(b.root))
            z, pullback = model.propagate(self.topology, theta, b.inputs, pullback=True)
            s[rows] = b.root * b.rows(z[:, :, 0])
            pullback((b.root * b.slope(z[:, :, 0]))[:, :, None], out[rows])
        return s, out

    def residual_of_exact(self, quad):
        """Unweighted residual rows on the exact solution (annihilation
        check): the blocks applied to its exact jet channels."""
        blocks = self._blocks(quad)
        return np.concatenate([b.rows(self.exact_jet(b.inputs[0])) for b in blocks])

    def loss_value(self, theta, quad):
        """0.5 * s^T s = 0.5 * sum_r w_r * residual_r^2."""
        s = self.residual_stack(theta, quad)
        return 0.5 * float(s @ s)

    def loss_grad(self, theta, quad, out=None):
        """Loss gradient A^T s; A is assembled into ``out`` when given
        (see :meth:`residual_jacobian`), where it stays for the caller."""
        s, a = self.residual_jacobian(theta, quad, out=out)
        return a.T @ s

    def h1_relative_error(self, theta, quad):
        """Relative H1 error against the exact solution, via quadrature.

        Reads only the value and gradient channels of the network (an
        order-1 jet).  For the space-time heat problem the gradient runs
        over all input coordinates (space-time H1 seminorm).
        """
        if self._last_h1[0] is not quad:  # (order-1 input jet, u* channels, squared H1 norm)
            x, w = quad.interior_points, quad.interior_weights
            exact = self.exact_jet(x)[: 1 + self.input_dim]
            norm = np.sum(w * exact[0] ** 2) + np.sum(w * np.sum(exact[1:] ** 2, axis=0))
            self._last_h1 = (quad, (model.input_jet(self.topology, x, 1), exact, norm))
        inputs, e, norm = self._last_h1[1]
        if norm == 0.0:
            raise ZeroDivisionError("exact solution has zero H1 norm")
        z, w = self._jet(theta, inputs), quad.interior_weights
        num = np.sum(w * (z[0] - e[0]) ** 2) + np.sum(w * np.sum((z[1:] - e[1:]) ** 2, axis=0))
        return float(np.sqrt(num / norm))


def _channels(d, value=0.0, first=0.0, second=0.0):
    """Coefficients (1 + 2d,) of a residual row on the jet channels: the
    value, each du/dx_i and each d^2u/dx_i^2."""
    parts = [[value], np.broadcast_to(first, (d,)), np.broadcast_to(second, (d,))]
    return np.concatenate(parts)


class Poisson1D(PdeProblem):
    """-u'' = f on (0,1), u = 0 at the endpoints; u* = sin(pi x)."""

    name = "poisson1d"
    input_dim = 1
    operator = dict(second=-1.0)  # -Laplace(u)

    def exact_jet(self, x):
        s, c = np.sin(np.pi * x.T), np.cos(np.pi * x.T)
        return np.concatenate([s, np.pi * c, -np.pi**2 * s])

    def source(self, x):
        return np.pi**2 * np.sin(np.pi * x[:, 0])

    def _boundary(self, rng, n):
        # the two endpoints with unit counting weights; nothing is drawn
        return np.array([[0.0], [1.0]]), np.ones(2)


class Poisson2D(Poisson1D):
    """-Laplace(u) = f on (0,1)^2; u* = sin(pi x) sin(pi y)."""

    name = "poisson2d"
    input_dim = 2

    def exact_jet(self, x):
        (sx, sy), (cx, cy) = np.sin(np.pi * x.T), np.cos(np.pi * x.T)
        u = sx * sy
        u_ii = -np.pi**2 * u  # each d^2u*/dx_i^2
        return np.stack([u, np.pi * (cx * sy), np.pi * (sx * cy), u_ii, u_ii])

    def source(self, x):
        return 2.0 * np.pi**2 * self.exact_jet(x)[0]

    def _boundary(self, rng, n):
        # n uniform points on the perimeter, walked counter-clockwise from
        # the origin: side k holds the arc lengths in [k, k + 1)
        s = 4.0 * rng.random(n)
        side = np.minimum(s.astype(int), 3)
        t = s - side
        x = np.choose(side, [t, 1.0, 1.0 - t, 0.0])
        y = np.choose(side, [0.0, t, 1.0, 1.0 - t])
        pts = np.stack([x, y], axis=1)
        return pts, np.full(n, 4.0 / n)


class Heat1p1D(PdeProblem):
    """u_t - u_xx = f on (t,x) in (0,1)^2; u* = cos(pi x) exp(-pi^2 t / 4).

    The boundary holds the lateral sides x in {0, 1} and the initial
    slice t = 0, so its block u - u* carries both the boundary and the
    initial condition, and the metric is the Gauss-Newton metric of the
    two blocks, like every other problem's.
    """

    name = "heat1p1d"
    input_dim = 2  # coordinates (t, x)
    operator = dict(first=(1.0, 0.0), second=(0.0, -1.0))  # u_t - u_xx

    def exact_jet(self, x):
        decay = np.exp(-np.pi**2 * x[:, 0] / 4.0)
        u = np.cos(np.pi * x[:, 1]) * decay
        u_x = -np.pi * np.sin(np.pi * x[:, 1]) * decay
        return np.stack([u, -np.pi**2 / 4.0 * u, u_x, np.pi**4 / 16.0 * u, -np.pi**2 * u])

    def source(self, x):
        # u_t - u_xx = (-pi^2/4 + pi^2) u
        return 0.75 * np.pi**2 * self.exact_jet(x)[0]

    def _boundary(self, rng, n):
        # n lateral points (x in {0,1}, t uniform; measure 2), then
        # max(n // 2, 1) on the initial slice (t = 0, x uniform; measure 1)
        t = rng.random(n)
        side = rng.integers(0, 2, n).astype(float)
        n_init = max(n // 2, 1)
        xi = rng.random(n_init)
        lateral, initial = np.stack([t, side], axis=1), np.stack([np.zeros(n_init), xi], axis=1)
        weights = np.concatenate([np.full(n, 2.0 / n), np.full(n_init, 1.0 / n_init)])
        return np.concatenate([lateral, initial]), weights


class NonlinearPoisson2D(Poisson2D):
    """-Laplace(u) + u^3 = f on (0,1)^2 with a Gauss-Newton metric.

    The interior residual carries the pointwise term u^3, so its metric
    rows are the residual linearization -Delta(v) + 3 ubar^2 v at a frozen
    linearization point ubar: differentiating the coefficient instead
    would change the assembled operator.
    """

    name = "nlpoisson2d"

    @staticmethod
    def value_term(u):
        return u**3, 3.0 * u**2

    def source(self, x):
        u = self.exact_jet(x)[0]
        return 2.0 * np.pi**2 * u + u**3


_PROBLEMS = {
    cls.name: cls for cls in (Poisson1D, Poisson2D, Heat1p1D, NonlinearPoisson2D)
}

PROBLEM_NAMES = tuple(sorted(_PROBLEMS))


def make_problem(name, hidden_width=16, hidden_depth=2):
    """Instantiate a problem by name on a tanh MLP of the given hidden shape."""
    if name not in _PROBLEMS:
        raise ValueError(f"unknown problem {name!r}; available: {PROBLEM_NAMES}")
    cls = _PROBLEMS[name]
    widths = (cls.input_dim,) + (hidden_width,) * hidden_depth + (1,)
    return cls(MlpTopology(widths))

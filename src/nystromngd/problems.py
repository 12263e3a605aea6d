"""PDE problem zoo: quadrature, residual/metric stacks, losses, errors.

Shipped problems (selected by name):

* ``poisson1d``  -- -u'' = f on (0,1), strong form.
* ``poisson2d``  -- -Laplace(u) = f on the unit square, strong form.
* ``heat1p1d``   -- u_t - u_xx = f on (0,1) x (0,1), strong form with
  initial and boundary residuals.
* ``nlpoisson2d`` -- -Laplace(u) + u^3 = f on the unit square, with a
  Gauss-Newton metric linearized at a frozen point.

Each problem declares its residual once, as blocks of rows
(``residual_blocks``): points, weights, coefficients on the jet channels
and target values.  From them the base class derives the weighted
residual s = W^{1/2} r, its Jacobian A = W^{1/2} J (``residual_jacobian``),
the loss 0.5 s^T s, its gradient A^T s and so the Gauss-Newton metric
A^T A, and no caller applies W itself.  What does not depend on theta
(the blocks, their input jets and sqrt(w), and the exact solution on the
H1 points) is built once per quadrature set.
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


@dataclass(frozen=True)
class QuadratureSet:
    """Fixed Monte Carlo quadrature: interior, boundary, optional initial."""

    interior_points: np.ndarray
    interior_weights: np.ndarray
    boundary_points: np.ndarray
    boundary_weights: np.ndarray
    initial_points: np.ndarray | None = None
    initial_weights: np.ndarray | None = None

    def __post_init__(self):
        if (self.initial_points is None) != (self.initial_weights is None):
            raise ValueError("initial points and weights must be given together")
        for part in ("interior", "boundary", "initial"):
            x, w = getattr(self, f"{part}_points"), getattr(self, f"{part}_weights")
            if x is None:
                continue
            x, w = np.asarray(x), np.asarray(w)
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


class ResidualBlock(NamedTuple):
    """One block of residual rows, one row per point.

    Row r is coeffs @ z[:, r] + value_term(z[0, r]) - target[r], z being
    the jet channels (1 + 2d, q) of the network at the points
    (``model.propagate``): the value, each du/dx_i and each d^2u/dx_i^2.
    ``value_term``, if given, is a pointwise function of the value channel
    that returns the term and its derivative.
    """

    points: np.ndarray
    weights: np.ndarray
    coeffs: np.ndarray
    target: np.ndarray
    value_term: Callable | None = None

    @property
    def order(self):
        """Jet order the rows need: 0 when only the value channel enters."""
        return 2 if np.any(self.coeffs[1:]) else 0

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

    A problem declares its residual once (``residual_blocks``); the loss
    0.5 s^T s, its gradient A^T s and the Gauss-Newton metric A^T A all
    come from the weighted residual s = W^{1/2} r and its Jacobian A.
    """

    name = "abstract"

    def __init__(self, topology):
        self.topology = topology
        if topology.input_dim != self.input_dim:
            raise ValueError(
                f"{self.name} needs input dim {self.input_dim}, topology has {topology.input_dim}"
            )
        self._cache = {}  # per quadrature set, see _cached

    # -- to be provided by subclasses ----------------------------------------

    input_dim = None

    def exact(self, x):
        raise NotImplementedError

    def exact_grad(self, x):
        raise NotImplementedError

    def exact_second(self, x):
        """Pure second derivatives d^2u*/dx_i^2 of the exact solution, (q, d)."""
        raise NotImplementedError

    def residual_blocks(self, quad):
        """The residual as a list of :class:`ResidualBlock`."""
        raise NotImplementedError

    def sample_quadrature(self, n_interior, n_boundary, seed):
        raise NotImplementedError

    # -- shared machinery ------------------------------------------------------

    def _cached(self, kind, quad, build):
        """``build(quad)``, rebuilt only when ``quad`` is not the last
        quadrature set seen for this ``kind``; nothing cached depends on
        theta."""
        hit = self._cache.get(kind)
        if hit is None or hit[0] is not quad:
            hit = self._cache[kind] = (quad, build(quad))
        return hit[1]

    def _blocks(self, quad):
        """The blocks of ``residual_blocks(quad)`` with their input jets,
        the stacked metric weights and each block's sqrt(w)."""
        return self._cached("blocks", quad, self._build_blocks)

    def _build_blocks(self, quad):
        blocks = self.residual_blocks(quad)
        weights = np.concatenate([b.weights for b in blocks])
        weights.flags.writeable = False  # metric_weights hands out this array
        return _BlockSet(
            blocks,
            [model.input_jet(self.topology, b.points, b.order) for b in blocks],
            weights,
            [np.sqrt(b.weights) for b in blocks],
        )

    def _jet(self, theta, inputs):
        """Jet channels (c, q) at theta for a block's input jet."""
        return model.propagate(self.topology, theta, inputs)[:, :, 0]

    def residual_stack(self, theta, quad):
        """The weighted residual s = W^{1/2} r at theta."""
        bs = self._blocks(quad)
        parts = zip(bs.blocks, bs.inputs, bs.roots)
        return np.concatenate([root * b.rows(self._jet(theta, z0)) for b, z0, root in parts])

    def metric_weights(self, quad):
        return self._blocks(quad).weights

    def metric_stack(self, theta, theta_bar, quad):
        """Unweighted Gauss-Newton metric rows sum_c dr/dz_c(zbar) z_c: the
        residual linearized at theta_bar (zbar = z(theta_bar)), applied at theta."""
        rows = []
        bs = self._blocks(quad)
        for b, z0 in zip(bs.blocks, bs.inputs):
            z = self._jet(theta, z0)
            zbar = z if b.value_term is None else self._jet(theta_bar, z0)
            rows.append(np.sum(b.slope(zbar) * z, axis=0))
        return np.concatenate(rows)

    def residual_jacobian(self, theta, quad, out=None):
        """Weighted residual s = W^{1/2} r at theta and its Jacobian
        A = W^{1/2} J (rows, p): one forward jet and one per-point reverse
        pass per block, seeded with sqrt(w) dr/dz, each writing its rows of
        A in place.  A is ``out`` when given, else a new array.
        """
        bs = self._blocks(quad)
        shape = (bs.weights.shape[0], self.topology.param_count)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or out.dtype != np.float64:
            raise ValueError(f"out must be a float64 array of shape {shape}")
        s = np.empty(shape[0])
        rows = slice(0, 0)
        for b, z0, root in zip(bs.blocks, bs.inputs, bs.roots):
            rows = slice(rows.stop, rows.stop + len(root))
            z, pullback = model.propagate(self.topology, theta, z0, pullback=True)
            s[rows] = root * b.rows(z[:, :, 0])
            pullback((root * b.slope(z[:, :, 0]))[:, :, None], out[rows])
        return s, out

    def residual_of_exact(self, quad):
        """Unweighted residual rows on the exact solution (annihilation
        check): the blocks applied to its exact jet channels."""
        rows = []
        for b in self._blocks(quad).blocks:
            x = b.points
            z = [self.exact(x)[None], self.exact_grad(x).T, self.exact_second(x).T]
            rows.append(b.rows(np.concatenate(z)))
        return np.concatenate(rows)

    def loss_value(self, theta, quad):
        """0.5 * s^T s = 0.5 * sum_r w_r * residual_r^2."""
        s = self.residual_stack(theta, quad)
        return 0.5 * float(s @ s)

    def loss_grad(self, theta, quad, out=None):
        """Loss gradient A^T s; A is assembled into ``out`` when given
        (see :meth:`residual_jacobian`), where it stays for the caller."""
        s, a = self.residual_jacobian(theta, quad, out=out)
        return a.T @ s

    def _build_h1(self, quad):
        x, w = quad.interior_points, quad.interior_weights
        ue, ge = self.exact(x), self.exact_grad(x)
        norm = np.sum(w * ue**2) + np.sum(w * np.sum(ge**2, axis=1))
        if norm == 0.0:
            raise ZeroDivisionError("exact solution has zero H1 norm")
        return _H1Reference(model.input_jet(self.topology, x, 1), w, ue, ge, norm)

    def h1_relative_error(self, theta, quad):
        """Relative H1 error against the exact solution, via quadrature.

        Reads only the value and gradient channels of the network (an
        order-1 jet).  For the space-time heat problem the gradient runs
        over all input coordinates (space-time H1 seminorm).
        """
        ref = self._cached("h1", quad, self._build_h1)
        u, gu = model.value_and_gradient(self.topology, theta, ref.inputs)
        w = ref.weights
        num = np.sum(w * (u - ref.exact) ** 2) + np.sum(
            w * np.sum((gu - ref.exact_grad) ** 2, axis=1)
        )
        return float(np.sqrt(num / ref.norm))


class _BlockSet(NamedTuple):
    """A quadrature set's residual blocks and what follows from them alone."""

    blocks: list
    inputs: list  # each block's input jet (model.input_jet)
    weights: np.ndarray  # the stacked metric weights w
    roots: list  # each block's sqrt(w), the row scaling of s and A


class _H1Reference(NamedTuple):
    """The exact solution on a quadrature set's interior, for the H1 error."""

    inputs: np.ndarray  # the order-1 input jet of the interior points
    weights: np.ndarray
    exact: np.ndarray
    exact_grad: np.ndarray
    norm: float  # the squared H1 norm of the exact solution


def _channels(d, value=0.0, first=0.0, second=0.0):
    """Coefficients (1 + 2d,) of a residual row on the jet channels: the
    value, each du/dx_i and each d^2u/dx_i^2."""
    parts = [[value], np.broadcast_to(first, (d,)), np.broadcast_to(second, (d,))]
    return np.concatenate(parts)


def _uniform_box(rng, n, lo, hi):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return lo + (hi - lo) * rng.random((n, lo.shape[0]))


class Poisson1D(PdeProblem):
    """-u'' = f on (0,1), u = 0 at the endpoints; u* = sin(pi x)."""

    name = "poisson1d"
    input_dim = 1

    def exact(self, x):
        return np.sin(np.pi * x[:, 0])

    def exact_grad(self, x):
        return np.pi * np.cos(np.pi * x[:, 0])[:, None]

    def exact_second(self, x):
        return -np.pi**2 * np.sin(np.pi * x)

    def source(self, x):
        return np.pi**2 * np.sin(np.pi * x[:, 0])

    def dirichlet(self, x):
        return self.exact(x)

    def sample_quadrature(self, n_interior, n_boundary, seed):
        rng = np.random.default_rng(seed)
        pts = _uniform_box(rng, n_interior, [0.0], [1.0])
        # 1D boundary is the two endpoints with unit counting weights
        bnd = np.array([[0.0], [1.0]])
        return QuadratureSet(
            interior_points=pts,
            interior_weights=np.full(n_interior, 1.0 / n_interior),
            boundary_points=bnd,
            boundary_weights=np.ones(2),
        )

    def residual_blocks(self, quad):
        # Laplace(u) + f on the interior, u - g on the boundary
        x, xb, d = quad.interior_points, quad.boundary_points, self.input_dim
        return [
            ResidualBlock(
                x, quad.interior_weights, _channels(d, second=1.0), -self.source(x)
            ),
            ResidualBlock(
                xb, quad.boundary_weights, _channels(d, value=1.0), self.dirichlet(xb)
            ),
        ]


class Poisson2D(Poisson1D):
    """-Laplace(u) = f on (0,1)^2; u* = sin(pi x) sin(pi y)."""

    name = "poisson2d"
    input_dim = 2

    def exact(self, x):
        return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

    def exact_grad(self, x):
        sx, cx = np.sin(np.pi * x[:, 0]), np.cos(np.pi * x[:, 0])
        sy, cy = np.sin(np.pi * x[:, 1]), np.cos(np.pi * x[:, 1])
        return np.pi * np.stack([cx * sy, sx * cy], axis=1)

    def exact_second(self, x):
        return -np.pi**2 * np.repeat(self.exact(x)[:, None], 2, axis=1)

    def source(self, x):
        return 2.0 * np.pi**2 * self.exact(x)

    def sample_quadrature(self, n_interior, n_boundary, seed):
        rng = np.random.default_rng(seed)
        pts = _uniform_box(rng, n_interior, [0.0, 0.0], [1.0, 1.0])
        bnd = _unit_square_boundary(rng, n_boundary)
        return QuadratureSet(
            interior_points=pts,
            interior_weights=np.full(n_interior, 1.0 / n_interior),
            boundary_points=bnd,
            boundary_weights=np.full(n_boundary, 4.0 / n_boundary),
        )


def _unit_square_boundary(rng, n):
    """Uniform points on the perimeter of (0,1)^2."""
    s = 4.0 * rng.random(n)
    pts = np.empty((n, 2))
    side = np.minimum(s.astype(int), 3)
    t = s - side
    pts[side == 0] = np.stack([t[side == 0], np.zeros(np.sum(side == 0))], axis=1)
    pts[side == 1] = np.stack([np.ones(np.sum(side == 1)), t[side == 1]], axis=1)
    pts[side == 2] = np.stack([1.0 - t[side == 2], np.ones(np.sum(side == 2))], axis=1)
    pts[side == 3] = np.stack([np.zeros(np.sum(side == 3)), 1.0 - t[side == 3]], axis=1)
    return pts


class Heat1p1D(PdeProblem):
    """u_t - u_xx = f on (t,x) in (0,1)^2; u* = cos(pi x) exp(-pi^2 t / 4).

    Residual blocks: interior PDE residual, lateral-boundary misfit,
    initial-time misfit.  The metric is the Gauss-Newton metric of these
    three blocks, like every other problem's.
    """

    name = "heat1p1d"
    input_dim = 2  # coordinates (t, x)

    def exact(self, x):
        return np.cos(np.pi * x[:, 1]) * np.exp(-np.pi**2 * x[:, 0] / 4.0)

    def exact_grad(self, x):
        u = self.exact(x)
        dt = -np.pi**2 / 4.0 * u
        dx = -np.pi * np.sin(np.pi * x[:, 1]) * np.exp(-np.pi**2 * x[:, 0] / 4.0)
        return np.stack([dt, dx], axis=1)

    def exact_second(self, x):
        u = self.exact(x)
        return np.stack([np.pi**4 / 16.0 * u, -np.pi**2 * u], axis=1)

    def source(self, x):
        # u_t - u_xx = (-pi^2/4 + pi^2) u
        return 0.75 * np.pi**2 * self.exact(x)

    def dirichlet(self, x):
        return self.exact(x)

    def initial_value(self, x):
        return np.cos(np.pi * x[:, 1])

    def sample_quadrature(self, n_interior, n_boundary, seed):
        rng = np.random.default_rng(seed)
        pts = _uniform_box(rng, n_interior, [0.0, 0.0], [1.0, 1.0])
        # lateral boundary: x in {0,1}, t uniform; measure 2
        n_lat = n_boundary
        t = rng.random(n_lat)
        side = rng.integers(0, 2, n_lat).astype(float)
        bnd = np.stack([t, side], axis=1)
        # initial slice: t = 0, x uniform; measure 1
        n_init = max(n_boundary // 2, 1)
        xi = rng.random(n_init)
        init = np.stack([np.zeros(n_init), xi], axis=1)
        return QuadratureSet(
            interior_points=pts,
            interior_weights=np.full(n_interior, 1.0 / n_interior),
            boundary_points=bnd,
            boundary_weights=np.full(n_lat, 2.0 / n_lat),
            initial_points=init,
            initial_weights=np.full(n_init, 1.0 / n_init),
        )

    def residual_blocks(self, quad):
        x, xb, xi = quad.interior_points, quad.boundary_points, quad.initial_points
        value = _channels(2, value=1.0)
        heat = _channels(2, first=(1.0, 0.0), second=(0.0, -1.0))  # u_t - u_xx
        return [
            ResidualBlock(x, quad.interior_weights, heat, self.source(x)),
            ResidualBlock(xb, quad.boundary_weights, value, self.dirichlet(xb)),
            ResidualBlock(xi, quad.initial_weights, value, self.initial_value(xi)),
        ]


class NonlinearPoisson2D(Poisson2D):
    """-Laplace(u) + u^3 = f on (0,1)^2 with a Gauss-Newton metric.

    The interior residual carries the pointwise term -u^3, so its metric
    rows are the residual linearization Delta(v) - 3 ubar^2 v at a frozen
    linearization point ubar: differentiating the coefficient instead
    would change the assembled operator.
    """

    name = "nlpoisson2d"

    def source(self, x):
        u = self.exact(x)
        return 2.0 * np.pi**2 * u + u**3

    def residual_blocks(self, quad):
        interior, boundary = super().residual_blocks(quad)
        return [interior._replace(value_term=lambda u: (-(u**3), -3.0 * u**2)), boundary]


_PROBLEMS = {
    cls.name: cls for cls in (Poisson1D, Poisson2D, Heat1p1D, NonlinearPoisson2D)
}

PROBLEM_NAMES = tuple(sorted(_PROBLEMS))


def make_problem(name, hidden_width=16, hidden_depth=2):
    """Instantiate a problem by name on a tanh MLP of the given hidden shape."""
    if name not in _PROBLEMS:
        raise KeyError(f"unknown problem {name!r}; available: {PROBLEM_NAMES}")
    cls = _PROBLEMS[name]
    widths = (cls.input_dim,) + (hidden_width,) * hidden_depth + (1,)
    return cls(MlpTopology(widths))

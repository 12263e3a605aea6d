"""PDE problem zoo: quadrature, residual/metric stacks, losses, errors.

Shipped problems (selected by name):

* ``poisson1d``  -- -u'' = f on (0,1), strong form.
* ``poisson2d``  -- -Laplace(u) = f on the unit square, strong form.
* ``heat1p1d``   -- u_t - u_xx = f on (0,1) x (0,1), strong form with
  initial and boundary residuals.
* ``nlpoisson2d`` -- -Laplace(u) + u^3 = f on the unit square, with a
  Gauss-Newton metric linearized at a frozen point.

Every stack builder accepts theta as ndarray or Var, so the same code
path serves plain evaluation and the tape behind VJPs.  Each problem
declares its metric once, as blocks of rows (``metric_blocks``); the
metric stack, its weights and its Jacobian are derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model
from .model import MlpTopology

__all__ = [
    "QuadratureSet",
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
        for w in (self.interior_weights, self.boundary_weights, self.initial_weights):
            if w is not None and np.any(np.asarray(w) <= 0):
                raise ValueError("quadrature weights must be positive")


class PdeProblem:
    """Base class: least-squares loss assembled from the residual stack."""

    name = "abstract"

    def __init__(self, topology):
        self.topology = topology
        if topology.input_dim != self.input_dim:
            raise ValueError(
                f"{self.name} needs input dim {self.input_dim}, topology has {topology.input_dim}"
            )

    # -- to be provided by subclasses ----------------------------------------

    input_dim = None

    def exact(self, x):
        raise NotImplementedError

    def exact_grad(self, x):
        raise NotImplementedError

    def residual_stack(self, theta, quad):
        raise NotImplementedError

    def metric_blocks(self, quad):
        """The metric as a list of blocks (points, weights, coeffs).

        Row r of a block is sum_c coeffs[c, r] * z[c, r], z being the jet
        channels (1 + 2d, q) of the network at the points (``model.jet``).
        coeffs is an array broadcastable to z, or a function of the jet
        channels at the frozen linearization point that returns one.
        """
        raise NotImplementedError

    def residual_weights(self, quad):
        raise NotImplementedError

    def sample_quadrature(self, n_interior, n_boundary, seed):
        raise NotImplementedError

    # -- shared machinery ------------------------------------------------------

    def metric_weights(self, quad):
        return np.concatenate([w for _, w, _ in self.metric_blocks(quad)])

    def metric_stack(self, theta, theta_bar, quad):
        """Metric rows at theta, with their coefficients frozen at theta_bar."""
        rows = []
        for x, _, coeffs in self.metric_blocks(quad):
            if callable(coeffs):
                coeffs = coeffs(model.jet(self.topology, ad.freeze(theta_bar), x)[:, :, 0])
            z = model.jet(self.topology, theta, x)[:, :, 0]
            rows.append(ad.asum(coeffs * z, axis=0))
        return ad.concat(rows)

    def metric_jacobian(self, theta, quad):
        """Jacobian (rows, p) of the metric stack at theta, frozen at theta:
        one forward jet and one per-point reverse pass per block."""
        rows = []
        for x, _, coeffs in self.metric_blocks(quad):
            z, pullback = model.jet_pullback(self.topology, theta, x)
            if callable(coeffs):
                coeffs = coeffs(z[:, :, 0])
            rows.append(pullback(np.broadcast_to(coeffs[:, :, None], z.shape)))
        return np.concatenate(rows)

    def loss(self, theta, quad):
        """0.5 * sum_r w_r * residual_r^2."""
        r = self.residual_stack(theta, quad)
        w = self.residual_weights(quad)
        return 0.5 * ad.asum(w * r * r)

    def loss_value(self, theta, quad):
        return float(ad.primal_value(self.loss(theta, quad)))

    def loss_grad(self, theta, quad):
        return ad.grad(lambda th: self.loss(th, quad), theta)

    def h1_relative_error(self, theta, quad):
        """Relative H1 error against the exact solution, via quadrature.

        For the space-time heat problem the gradient runs over all input
        coordinates (space-time H1 seminorm).
        """
        x = quad.interior_points
        w = quad.interior_weights
        u, gu, _ = model.input_derivatives(self.topology, theta, x)
        ue = self.exact(x)
        ge = self.exact_grad(x)
        num = np.sum(w * (u - ue) ** 2) + np.sum(w * np.sum((gu - ge) ** 2, axis=1))
        den = np.sum(w * ue**2) + np.sum(w * np.sum(ge**2, axis=1))
        if den == 0.0:
            raise ZeroDivisionError("exact solution has zero H1 norm")
        return float(np.sqrt(num / den))


def _channels(d, value=0.0, first=0.0, second=0.0):
    """Coefficients (1 + 2d, 1) of a metric row on the jet channels: the
    value, each du/dx_i and each d^2u/dx_i^2."""
    parts = [[value], np.broadcast_to(first, (d,)), np.broadcast_to(second, (d,))]
    return np.concatenate(parts)[:, None]


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

    def exact_laplacian(self, x):
        return -np.pi**2 * np.sin(np.pi * x[:, 0])

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

    def residual_stack(self, theta, quad):
        _, _, lap = model.input_derivatives(self.topology, theta, quad.interior_points)
        interior = lap + self.source(quad.interior_points)
        ub = model.forward(self.topology, theta, quad.boundary_points)
        boundary = ub - self.dirichlet(quad.boundary_points)
        return ad.concat([interior, boundary])

    def metric_blocks(self, quad):
        # linear operator: the frozen linearization point plays no role
        d = self.input_dim
        return [
            (quad.interior_points, quad.interior_weights, _channels(d, second=1.0)),
            (quad.boundary_points, quad.boundary_weights, _channels(d, value=1.0)),
        ]

    def residual_weights(self, quad):
        return np.concatenate([quad.interior_weights, quad.boundary_weights])

    def residual_of_exact(self, quad):
        """Residual stack evaluated on the analytic solution (annihilation check)."""
        interior = self.exact_laplacian(quad.interior_points) + self.source(
            quad.interior_points
        )
        boundary = self.exact(quad.boundary_points) - self.dirichlet(
            quad.boundary_points
        )
        return np.concatenate([interior, boundary])


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

    def exact_laplacian(self, x):
        return -2.0 * np.pi**2 * self.exact(x)

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
    initial-time misfit.  The metric adds an interior L2 bulk block and
    drops the lateral-boundary one, mirroring the heat-equation metric
    with operator, bulk and initial terms.
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

    def residual_stack(self, theta, quad):
        _, du, d2u = model.derivatives(self.topology, theta, quad.interior_points)
        interior = du[0] - d2u[1] - self.source(quad.interior_points)
        ub = model.forward(self.topology, theta, quad.boundary_points)
        boundary = ub - self.dirichlet(quad.boundary_points)
        ui = model.forward(self.topology, theta, quad.initial_points)
        initial = ui - self.initial_value(quad.initial_points)
        return ad.concat([interior, boundary, initial])

    def residual_weights(self, quad):
        return np.concatenate(
            [quad.interior_weights, quad.boundary_weights, quad.initial_weights]
        )

    def metric_blocks(self, quad):
        x, w = quad.interior_points, quad.interior_weights
        value = _channels(2, value=1.0)
        return [
            (x, w, _channels(2, first=(1.0, 0.0), second=(0.0, -1.0))),  # u_t - u_xx
            (x, w, value),
            (quad.initial_points, quad.initial_weights, value),
        ]

    def residual_of_exact(self, quad):
        x = quad.interior_points
        u = self.exact(x)
        u_t = -np.pi**2 / 4.0 * u
        u_xx = -np.pi**2 * u
        interior = (u_t - u_xx) - self.source(x)
        boundary = self.exact(quad.boundary_points) - self.dirichlet(
            quad.boundary_points
        )
        initial = self.exact(quad.initial_points) - self.initial_value(
            quad.initial_points
        )
        return np.concatenate([interior, boundary, initial])


class NonlinearPoisson2D(Poisson2D):
    """-Laplace(u) + u^3 = f on (0,1)^2 with a Gauss-Newton metric.

    The metric stack is the residual linearization Delta(v) - 3 ubar^2 v
    at a frozen linearization point ubar, which makes the stop-gradient
    load-bearing: without freezing, differentiating the coefficient
    changes the assembled operator.
    """

    name = "nlpoisson2d"

    def source(self, x):
        u = self.exact(x)
        return 2.0 * np.pi**2 * u + u**3

    def residual_stack(self, theta, quad):
        u, _, lap = model.input_derivatives(
            self.topology, theta, quad.interior_points
        )
        interior = lap - u**3 + self.source(quad.interior_points)
        ub = model.forward(self.topology, theta, quad.boundary_points)
        boundary = ub - self.dirichlet(quad.boundary_points)
        return ad.concat([interior, boundary])

    def metric_blocks(self, quad):
        (x, w, lap), boundary = super().metric_blocks(quad)
        value = _channels(2, value=1.0)
        return [(x, w, lambda zbar: lap - 3.0 * zbar[0] ** 2 * value), boundary]

    def residual_of_exact(self, quad):
        x = quad.interior_points
        interior = self.exact_laplacian(x) - self.exact(x) ** 3 + self.source(x)
        boundary = self.exact(quad.boundary_points) - self.dirichlet(
            quad.boundary_points
        )
        return np.concatenate([interior, boundary])


_PROBLEMS = {
    cls.name: cls for cls in (Poisson1D, Poisson2D, Heat1p1D, NonlinearPoisson2D)
}

PROBLEM_NAMES = tuple(sorted(_PROBLEMS))


def make_problem(name, topology=None, hidden_width=32, hidden_depth=2):
    """Instantiate a problem by name, with a default tanh MLP topology."""
    if name not in _PROBLEMS:
        raise KeyError(f"unknown problem {name!r}; available: {PROBLEM_NAMES}")
    cls = _PROBLEMS[name]
    if topology is None:
        widths = (cls.input_dim,) + (hidden_width,) * hidden_depth + (1,)
        topology = MlpTopology(widths)
    return cls(topology)

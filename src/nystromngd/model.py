"""Feedforward tanh networks with a flat parameter vector."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad


@dataclass(frozen=True)
class MlpTopology:
    """Layer widths (n0, n1, ..., n_{L+1}); hidden layers are tanh, the
    output layer is affine."""

    widths: tuple

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("topology needs at least input and output widths")
        if any(w < 1 for w in self.widths):
            raise ValueError("layer widths must be >= 1")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

    @property
    def input_dim(self):
        return self.widths[0]

    @property
    def output_dim(self):
        return self.widths[-1]

    @property
    def param_count(self):
        return sum(
            n_out * n_in + n_out
            for n_in, n_out in zip(self.widths[:-1], self.widths[1:])
        )

    def layer_slices(self):
        """Contiguous (weight_slice, bias_slice, n_out, n_in) per layer."""
        out = []
        offset = 0
        for n_in, n_out in zip(self.widths[:-1], self.widths[1:]):
            ws = slice(offset, offset + n_out * n_in)
            offset += n_out * n_in
            bs = slice(offset, offset + n_out)
            offset += n_out
            out.append((ws, bs, n_out, n_in))
        return out

    def unflatten(self, theta):
        """Split a flat vector into [(W, b), ...]; works on ndarray or Var."""
        layers = []
        for ws, bs, n_out, n_in in self.layer_slices():
            w = theta[ws].reshape((n_out, n_in))
            b = theta[bs]
            layers.append((w, b))
        return layers

    def flatten(self, layers):
        parts = []
        for w, b in layers:
            parts.append(np.asarray(w).reshape(-1))
            parts.append(np.asarray(b).reshape(-1))
        return np.concatenate(parts)


@dataclass(frozen=True)
class ParamVector:
    """Flat parameter vector tied to its network topology."""

    values: np.ndarray
    topology: MlpTopology

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.topology.param_count,):
            raise ValueError(
                f"expected {self.topology.param_count} parameters, got {values.shape}"
            )
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.values.shape[0]


def init(topology, seed):
    """Deterministic init: weights ~ N(0, 1/fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    theta = np.zeros(topology.param_count)
    for ws, bs, n_out, n_in in topology.layer_slices():
        theta[ws] = rng.standard_normal(n_out * n_in) / np.sqrt(n_in)
    return ParamVector(theta, topology)


def input_jet(topology, x, order=2):
    """The jet of the inputs x (q, d) themselves at ``order`` 0, 1 or 2.

    Channel 0 holds x; order 1 adds d unit first-derivative channels and
    order 2 also d zero second-derivative channels, shape (1 + order * d,
    q, d).  It does not depend on theta, so a caller that evaluates the
    network at the same points many times builds it once.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    q, d = x.shape
    if d != topology.input_dim:
        raise ValueError(f"input dim {d} does not match topology ({topology.input_dim})")
    if order not in (0, 1, 2):
        raise ValueError(f"jet order must be 0, 1 or 2, got {order}")
    z = x[None]
    if order:
        unit = np.broadcast_to(np.eye(d)[:, None, :], (d, q, d))
        z = np.concatenate([z, unit] + ([np.zeros((d, q, d))] if order == 2 else []))
    return z


def _tanh_first_order(z):
    """tanh of an order-1 ndarray jet (value and first derivatives), in
    place.  :func:`autodiff.tanh_jet_rule` reads d off an order-2 jet's
    1 + 2d channels, so order 1 has this rule; its channels t and d1 g are
    computed as there."""
    t = np.tanh(z[0])
    z[1:] *= 1.0 - t * t
    z[0] = t
    return z


def propagate(topology, theta, z):
    """Push an input jet z (:func:`input_jet`) through the network.

    Returns the output jet, shape (c, q, n_out) for the c channels of z.
    theta may be an ndarray or a Var at orders 0 and 2, where each layer
    is one affine and one tanh node on the tape; order 1 needs an ndarray.
    """
    if isinstance(theta, ParamVector):
        theta = theta.values
    first_order = z.shape[0] == 1 + topology.input_dim
    if first_order and isinstance(theta, ad.Var):
        raise ValueError("order-1 jets are not taped; use order 2")
    layers = topology.layer_slices()
    for k, (ws, bs, n_out, n_in) in enumerate(layers):
        z = ad.affine(z, theta, ws, bs, (n_out, n_in))
        if k < len(layers) - 1:
            if first_order:
                z = _tanh_first_order(z)
            elif isinstance(z, ad.Var):
                z = ad.tanh_jet(z)
            else:  # z is the affine layer's new array: overwrite it
                ad.tanh_jet_rule(z, linearize=False, out=z)
    return z


def jet(topology, theta, x, order=2):
    """Evaluate the tanh network as a stacked Taylor jet on a batch x of shape (q, d).

    Returns shape (1 + 2d, q, n_out) at order 2: channel 0 is the value,
    channels 1..d the first derivatives du/dx_i and channels d+1..2d the
    pure second derivatives d^2u/dx_i^2 (cross derivatives are not
    tracked; Laplacians do not need them).  Order 1 returns the value and
    first-derivative channels, shape (1 + d, q, n_out), and order 0 the
    value channel alone, shape (1, q, n_out).  See :func:`propagate` for
    theta.
    """
    return propagate(topology, theta, input_jet(topology, x, order))


def jet_pullback(topology, theta, z):
    """The network's output jet for the input jet z (see :func:`input_jet`,
    orders 0 and 2) and its per-point pullback to the parameters.

    For a cotangent g shaped like the output jet, pullback(g, out) writes
    into ``out`` the (q, p) matrix whose row r is the gradient in theta of
    sum(g[:, r] * jet[:, r]) and returns it: one reverse pass in which
    each affine layer writes its parameter cotangents per point (a batched
    outer product) straight into the columns of ``out`` that hold that
    layer's parameters, instead of summing them over points.
    """
    theta = np.asarray(theta, dtype=float)
    inputs, pulls = [], []
    layers = topology.layer_slices()
    for k, (ws, bs, n_out, n_in) in enumerate(layers):
        inputs.append(z)
        z = ad.affine(z, theta, ws, bs, (n_out, n_in))
        if k < len(layers) - 1:
            z, (_, pull) = ad.tanh_jet_rule(z, out=z)
            pulls.append(pull)

    def pullback(g, out):
        q = g.shape[1]
        for k in reversed(range(len(layers))):
            ws, bs, n_out, n_in = layers[k]
            if k < len(pulls):
                g = pulls[k](g)
            # copy=False: a view of out's columns, or an error, never a copy
            outer = np.reshape(out[:, ws], (q, n_out, n_in), copy=False)
            np.matmul(g.transpose(1, 2, 0), inputs[k].transpose(1, 0, 2), out=outer)
            out[:, bs] = g[0]
            if k:
                g = g @ theta[ws].reshape(n_out, n_in)
        return out

    return z, pullback


def forward(topology, theta, x):
    """Evaluate the network on a batch x of shape (q, d).

    theta may be an ndarray or Var; the result has shape (q,) for scalar
    output, (q, d') otherwise.
    """
    z = jet(topology, theta, x, order=0)
    q = z.shape[1]
    return z.reshape((q,) if topology.output_dim == 1 else (q, topology.output_dim))


def derivatives(topology, theta, x):
    """Value and per-coordinate input derivatives of a scalar network.

    Returns (u, du, d2u) with shapes (q,), (d, q), (d, q): du[i] is du/dx_i
    and d2u[i] is d^2u/dx_i^2.  Remains differentiable with respect to
    theta (Var passes through).
    """
    z = jet(topology, theta, x)
    d = topology.input_dim
    return z[0, :, 0], z[1 : 1 + d, :, 0], z[1 + d :, :, 0]


def input_derivatives(topology, theta, x):
    """Network value, input gradient and Laplacian on a batch of points.

    Returns (u, grad_u, lap_u) with shapes (q,), (q, d), (q,) for a scalar
    network.
    """
    u, du, d2u = derivatives(topology, theta, x)
    return u, du.T, d2u.sum(axis=0)


def value_and_gradient(topology, theta, z):
    """Value (q,) and input gradient (q, d) of a scalar network from the
    order-1 input jet z of the points (:func:`input_jet`); the same numbers
    as the first two outputs of :func:`input_derivatives`."""
    z = propagate(topology, theta, z)
    return z[0, :, 0], z[1:, :, 0].T

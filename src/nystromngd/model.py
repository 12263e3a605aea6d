"""The network layer: feedforward tanh networks with a flat parameter vector.

The network is evaluated on a batch of q points as a stacked Taylor jet,
one ndarray of shape (c, q, n) per layer: channel 0 holds the layer's
values, channels 1..d the first derivatives along the d input
coordinates and, at order 2, channels d+1..2d the pure second
derivatives (cross derivatives are not tracked; Laplacians do not need
them).  Order 0 is a plain forward pass.  One forward loop
(:func:`propagate`) serves the plain pass and the pass that also returns
the per-point pullback to the parameters, from which the residual
Jacobian is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def _channel_matmul(z, m):
    """``z @ m`` for a stacked (c, q, n) array as one 2D product."""
    out = np.reshape(z, (-1, z.shape[-1])) @ m
    return out.reshape(z.shape[:-1] + (m.shape[1],))


def tanh_jet_rule(z, d, linearize=False, out=None):
    """Elementwise tanh of a jet z over d input coordinates, at any order.

    With t = tanh(z), d1 = 1 - t^2 and d2 = -2 t d1, the output channels
    are t, d1 g and d2 g^2 + d1 h for input channels z, g (first
    derivatives, from order 1) and h (second derivatives, at order 2).
    Returns (out, pull), pull being the pullback of the rule at ``z``, or
    None unless ``linearize``: for output cotangents (dt, dg, dh) it gives
    d1 dt + sum(C dg + A dh), d1 dg + B dh and d1 dh, with C = d2 g,
    A = d3 g^2 + d2 h and B = 2 d2 g, point by point on any stack of
    cotangents shaped like ``z``.  The output is written into ``out`` when
    given, which may be ``z`` itself if the caller owns it.
    """
    order = (z.shape[0] - 1) // d
    t = np.tanh(z[0])
    d1 = 1.0 - t * t
    g, h = z[1 : 1 + d], z[1 + d :]
    if order:
        d2 = -2.0 * t * d1
        if linearize:  # before out, which may be z, overwrites g and h
            ca = np.empty_like(z[1:])  # C, then A at order 2
            c = np.multiply(d2, g, out=ca[:d])
            if order == 2:
                a = np.multiply(d1 * (4.0 * t * t - 2.0 * d1), g, out=ca[d:])  # d3 g
                a *= g
                a += d2 * h
                b = 2.0 * c
    if out is None:
        out = np.empty_like(z)
    out[0] = t
    if order == 2:
        second = c * g if linearize else d2 * g * g
        np.multiply(d1, h, out=out[1 + d :])
        out[1 + d :] += second
    np.multiply(d1, g, out=out[1 : 1 + d])
    if not linearize:
        return out, None

    def pull(gz):
        dz = d1 * gz
        if order:
            dz[0] += (ca * gz[1:]).sum(axis=0)
        if order == 2:
            dz[1 : 1 + d] += b * gz[1 + d :]
        return dz

    return out, pull


def propagate(topology, theta, z, pullback=False):
    """Push an input jet z (:func:`input_jet`) through the network.

    Returns the output jet, shape (c, q, n_out) for the c channels of z.
    With ``pullback`` it returns (jet, pullback) instead.  For a cotangent
    g shaped like the output jet, pullback(g, out) writes into ``out`` the
    (q, p) matrix whose row r is the gradient in theta of
    sum(g[:, r] * jet[:, r]) and returns it: one reverse pass in which
    each affine layer writes its parameter cotangents per point (a batched
    outer product) straight into the columns of ``out`` that hold that
    layer's parameters, instead of summing them over points.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (topology.param_count,):
        raise ValueError(f"theta of shape {theta.shape}, expected ({topology.param_count},)")
    d = topology.input_dim
    layers = topology.layer_slices()
    inputs, pulls = [], []
    for k, (ws, bs, n_out, n_in) in enumerate(layers):
        if pullback:
            inputs.append(z)
        z = _channel_matmul(z, theta[ws].reshape(n_out, n_in).T)
        z[0] += theta[bs]  # the derivative channels get no bias
        if k < len(layers) - 1:  # z is this layer's new array: overwrite it
            z, pull = tanh_jet_rule(z, d, pullback, out=z)
            pulls.append(pull)
    if not pullback:
        return z

    def back(g, out):
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
                g = _channel_matmul(g, theta[ws].reshape(n_out, n_in))
        return out

    return z, back


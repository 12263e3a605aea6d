"""Minimal array-valued automatic differentiation: a tape and a stop-gradient.

* ``Tape``/``Var`` -- a tape that records a map of theta, built from
  generic per-op nodes on numpy arrays, and sweeps it forward and
  backward, so one linearization serves both Jacobian-vector and
  vector-Jacobian products (see :func:`linearize`).  The library itself
  records no tape: the network layer (``model``) is ndarray-only, and the
  tests use the tape as the reference for its hand-written jet pullback.
* :func:`freeze` -- stop-gradient: identity on values, zero derivative.

Plain ``numpy`` arrays act as constants everywhere, so functions written
with the generic helpers (:func:`tanh`, :func:`matmul`, ...) can be
evaluated with ndarray or ``Var`` inputs interchangeably.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = [
    "NonFiniteError",
    "Tape",
    "Var",
    "LinearizedMap",
    "freeze",
    "linearize",
    "tanh",
    "matmul",
    "concat",
]


class NonFiniteError(ArithmeticError):
    """A primitive produced a NaN or Inf value."""


def _check_finite(value, where):
    arr = np.asarray(value)
    if arr.dtype.kind not in "fc":
        return
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(np.atleast_1d(arr)))
        raise NonFiniteError(f"non-finite value in '{where}' at index {tuple(bad[0])}")


def _unbroadcast(g, shape):
    """Reduce a gradient ``g`` to ``shape``, undoing numpy broadcasting."""
    g = np.asarray(g)
    if g.shape == tuple(shape):
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Reverse-mode tape
# ---------------------------------------------------------------------------


class Tape:
    """Ordered record of primitive operations for one trace.

    The tape owns its nodes; nodes refer back to it only weakly, so a tape
    that nothing else references is freed, nodes and all, by refcount.
    """

    def __init__(self):
        self.nodes = []

    def leaf(self, value):
        return Var(np.asarray(value, dtype=float), self, (), ())

    def forward_sweep(self, leaf, out, tangent):
        """Propagate a tangent from ``leaf`` to ``out`` (tape-based JVP)."""
        if not isinstance(out, Var):
            return np.zeros(np.shape(out))
        tangents = [None] * len(self.nodes)
        tangents[leaf.index] = np.asarray(tangent, dtype=float)
        for node in self.nodes[leaf.index + 1 :]:
            acc = None
            for parent, (push, _) in zip(node.parents, node.edges):
                t = tangents[parent.index]
                if t is None:
                    continue
                c = push(t)
                acc = c if acc is None else acc + c
            tangents[node.index] = acc
        t = tangents[out.index]
        if t is None:
            return np.zeros(np.shape(out.value))
        return np.broadcast_to(t, np.shape(out.value)).copy()

    def reverse_sweep(self, out, leaf, cotangent):
        """Pull a cotangent back from ``out`` to ``leaf`` (tape-based VJP)."""
        if not isinstance(out, Var):
            return np.zeros(np.shape(leaf.value))
        cots = [None] * len(self.nodes)
        cots[out.index] = np.broadcast_to(
            np.asarray(cotangent, dtype=float), np.shape(out.value)
        )
        for node in reversed(self.nodes[leaf.index : out.index + 1]):
            g = cots[node.index]
            if g is None:
                continue
            for parent, (_, pull) in zip(node.parents, node.edges):
                c = pull(g)
                prev = cots[parent.index]
                cots[parent.index] = c if prev is None else prev + c
        g = cots[leaf.index]
        if g is None:
            return np.zeros(np.shape(leaf.value))
        return np.asarray(g, dtype=float)


class Var:
    """A tape node wrapping an ndarray value.

    ``parents`` and ``edges`` encode, for each parent, the local
    pushforward (tangent -> output tangent contribution) and pullback
    (output cotangent -> parent cotangent contribution).
    """

    __slots__ = ("value", "_tape", "parents", "edges", "index")

    # defer to the reflected operators instead of elementwise object math
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, value, tape, parents, edges):
        _check_finite(value, type(self).__name__)
        self.value = value
        self._tape = weakref.ref(tape)
        self.parents = parents
        self.edges = edges
        self.index = len(tape.nodes)
        tape.nodes.append(self)

    @property
    def tape(self):
        tape = self._tape()
        if tape is None:
            raise ReferenceError("the tape recording this node was released")
        return tape

    @property
    def shape(self):
        return np.shape(self.value)

    def _node(self, value, parents, edges):
        return Var(value, self.tape, parents, edges)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Var):
            val = self.value + other.value
            return self._node(
                val,
                (self, other),
                (
                    (lambda t: t, lambda g: _unbroadcast(g, self.shape)),
                    (lambda t: t, lambda g: _unbroadcast(g, other.shape)),
                ),
            )
        c = np.asarray(other)
        return self._node(
            self.value + c,
            (self,),
            ((lambda t: t, lambda g: _unbroadcast(g, self.shape)),),
        )

    __radd__ = __add__

    def __neg__(self):
        return self._node(-self.value, (self,), ((lambda t: -t, lambda g: -g),))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Var):
            a, b = self.value, other.value
            return self._node(
                a * b,
                (self, other),
                (
                    (lambda t: t * b, lambda g: _unbroadcast(g * b, self.shape)),
                    (lambda t: a * t, lambda g: _unbroadcast(g * a, other.shape)),
                ),
            )
        c = np.asarray(other)
        return self._node(
            self.value * c,
            (self,),
            ((lambda t: t * c, lambda g: _unbroadcast(g * c, self.shape)),),
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if isinstance(n, Var):
            raise TypeError("only constant exponents are supported")
        val = self.value**n
        d = n * self.value ** (n - 1)
        return self._node(
            val, (self,), ((lambda t: d * t, lambda g: d * g),)
        )

    def __matmul__(self, other):
        return matmul(self, other)

    # -- structural ops -----------------------------------------------------

    def __getitem__(self, idx):
        shape = self.shape

        def pull(g):
            z = np.zeros(shape)
            np.add.at(z, idx, g)
            return z

        return self._node(self.value[idx], (self,), ((lambda t: t[idx], pull),))

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return self._node(
            self.value.reshape(shape),
            (self,),
            ((lambda t: t.reshape(shape), lambda g: g.reshape(old)),),
        )

    @property
    def T(self):
        return self._node(
            self.value.T, (self,), ((lambda t: t.T, lambda g: g.T),)
        )

    def sum(self, axis=None):
        shape = self.shape

        def pull(g):
            if axis is None:
                return np.broadcast_to(g, shape)
            ge = np.expand_dims(g, axis)
            return np.broadcast_to(ge, shape)

        return self._node(
            self.value.sum(axis=axis),
            (self,),
            ((lambda t: t.sum(axis=axis), pull),),
        )

    # -- elementwise nonlinearities ------------------------------------------

    def _unary(self, val, deriv):
        return self._node(val, (self,), ((lambda t: deriv * t, lambda g: deriv * g),))

    def tanh(self):
        v = np.tanh(self.value)
        return self._unary(v, 1.0 - v * v)


def _matmul_var(a, b):
    """Matmul with at least one Var operand (1D/2D combinations)."""
    aval = a.value if isinstance(a, Var) else np.asarray(a)
    bval = b.value if isinstance(b, Var) else np.asarray(b)
    val = aval @ bval
    parents, edges = [], []
    if isinstance(a, Var):
        if aval.ndim == 1 and bval.ndim == 2:
            pull_a = lambda g: bval @ g
        elif aval.ndim == 2 and bval.ndim == 1:
            pull_a = lambda g: np.outer(g, bval)
        elif aval.ndim == 2 and bval.ndim == 2:
            pull_a = lambda g: g @ bval.T
        else:  # 1D @ 1D inner product
            pull_a = lambda g: g * bval
        parents.append(a)
        edges.append((lambda t: t @ bval, pull_a))
    if isinstance(b, Var):
        if bval.ndim == 1 and aval.ndim == 2:
            pull_b = lambda g: aval.T @ g
        elif bval.ndim == 2 and aval.ndim == 1:
            pull_b = lambda g: np.outer(aval, g)
        elif bval.ndim == 2 and aval.ndim == 2:
            pull_b = lambda g: aval.T @ g
        else:
            pull_b = lambda g: g * aval
        parents.append(b)
        edges.append((lambda t: aval @ t, pull_b))
    tape = a.tape if isinstance(a, Var) else b.tape
    return Var(val, tape, tuple(parents), tuple(edges))


def _concat_var(parts, tape):
    vals = [p.value if isinstance(p, Var) else np.asarray(p, float) for p in parts]
    val = np.concatenate(vals)
    offsets = np.cumsum([0] + [v.shape[0] for v in vals])
    parents, edges = [], []
    for i, p in enumerate(parts):
        if not isinstance(p, Var):
            continue
        lo, hi = offsets[i], offsets[i + 1]
        size = val.shape[0]

        def push(t, lo=lo, hi=hi, size=size, tail=val.shape[1:]):
            z = np.zeros((size,) + tail)
            z[lo:hi] = t
            return z

        parents.append(p)
        edges.append((push, lambda g, lo=lo, hi=hi: g[lo:hi]))
    return Var(val, tape, tuple(parents), tuple(edges))


# ---------------------------------------------------------------------------
# Generic helpers (dispatch on ndarray / Var)
# ---------------------------------------------------------------------------


def tanh(x):
    if isinstance(x, Var):
        return x.tanh()
    return np.tanh(x)


def matmul(a, b):
    if isinstance(a, Var) or isinstance(b, Var):
        return _matmul_var(a, b)
    return np.asarray(a) @ np.asarray(b)


def concat(parts):
    """Concatenate along the leading axis, mixing Vars with constants."""
    var = next((p for p in parts if isinstance(p, Var)), None)
    if var is not None:
        return _concat_var(parts, var.tape)
    return np.concatenate([np.asarray(p) for p in parts])


def freeze(x):
    """Stop-gradient: same values, all derivative paths cut."""
    if isinstance(x, Var):
        return x.value
    return x


def primal_value(x):
    """Plain ndarray value of an ndarray or Var."""
    if isinstance(x, Var):
        return x.value
    return np.asarray(x)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


class LinearizedMap:
    """A map f traced at a point, exposing value, jvp and vjp.

    The trace stores the local partials of every primitive at ``theta``,
    so both sweeps evaluate the exact Jacobian of f at that point.  A map
    whose output does not depend on theta has zero Jacobian.
    """

    def __init__(self, f, theta):
        theta = np.asarray(theta, dtype=float)
        self.tape = Tape()
        self.leaf = self.tape.leaf(theta)
        self.out = f(self.leaf)
        self.value = np.asarray(primal_value(self.out), dtype=float)

    def jvp(self, v):
        return self.tape.forward_sweep(self.leaf, self.out, v)

    def vjp(self, w):
        return self.tape.reverse_sweep(self.out, self.leaf, w)


def linearize(f, theta):
    return LinearizedMap(f, theta)

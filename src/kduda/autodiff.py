"""Reverse-mode automatic differentiation over dense float64 arrays.

A Graph is an append-only tape. Every Tensor created through an op gets the
next node id of its graph at construction, so id order is already a
topological order of the computation. backward() visits the loss and its
ancestors in exact reverse construction order, accumulating vector-Jacobian
products into a per-call adjoint table, then adds the results onto each
tensor's .grad. Repeated backward() calls therefore accumulate gradients
until the caller discards the graph.

Tensors point at their graph and at their inputs; the graph holds only weak
references to its tensors. Without a cycle between the two, reference
counting frees a spent graph as soon as its last tensor is dropped.

All values are float64. An op writes only into arrays it allocated in the
same call: never into an input's values, which belong to other nodes, nor
into an incoming adjoint, which add's vjp hands to both of its inputs.
Optimizers update parameter arrays between graphs, never inside one.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import ParameterError, ShapeError

Array = np.ndarray


def _as_f64(values) -> Array:
    return np.asarray(values, dtype=np.float64)


class Graph:
    """Append-only record of tensors in construction order.

    `nodes[i]` is a weak reference to the tensor with node id i: call it to
    get the tensor, or None once nothing else holds that tensor.
    """

    def __init__(self):
        self.nodes: list[weakref.ref[Tensor]] = []

    def tensor(self, values) -> "Tensor":
        """Create a leaf tensor (parameter or constant) on this graph."""
        return Tensor(self, _as_f64(values))

    def __len__(self):
        return len(self.nodes)


class Tensor:
    """One node of the tape: values, optional grad, and its adjoint rule."""

    __slots__ = ("graph", "values", "grad", "node_id", "_inputs", "_vjp",
                 "__weakref__")

    def __init__(self, graph: Graph, values: Array, inputs=(), vjp=None):
        self.graph = graph
        self.values = values
        self.grad = None
        self.node_id = len(graph.nodes)
        self._inputs = tuple(inputs)
        self._vjp = vjp
        graph.nodes.append(weakref.ref(self))

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.values.shape}")
        return float(self.values)

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, node_id={self.node_id})"


def _same_graph(a: Tensor, b: Tensor):
    if a.graph is not b.graph:
        raise ParameterError("operands belong to different graphs")


def _same_shape(a: Tensor, b: Tensor, op: str):
    if a.values.shape != b.values.shape:
        raise ShapeError(f"{op}: shapes {a.values.shape} and {b.values.shape} differ")


# -- binary elementwise ------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_graph(a, b)
    _same_shape(a, b, "add")
    def vjp(g):
        return (g, g)
    return Tensor(a.graph, a.values + b.values, (a, b), vjp)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    _same_graph(a, b)
    _same_shape(a, b, "subtract")
    def vjp(g):
        return (g, -g)
    return Tensor(a.graph, a.values - b.values, (a, b), vjp)


def scalar_multiply(a: Tensor, c: float) -> Tensor:
    c = float(c)
    def vjp(g):
        return (g * c,)
    return Tensor(a.graph, a.values * c, (a,), vjp)


# -- dense layers -------------------------------------------------------------

def _relu_in_place(z: Array):
    """Overwrite z with np.where(z > 0, z, 0.0), bit for bit. fmax maps nan
    to 0 but may keep a -0.0, which adding +0.0 turns into +0.0."""
    np.fmax(z, 0.0, out=z)
    z += 0.0


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """One node for x @ w + b, optionally followed by ReLU.

    The adjoint masks the incoming gradient where the ReLU is inactive
    (gm = g * mask) and returns gm @ w.T, x.T @ gm and gm.sum(axis=0).
    """
    _same_graph(x, w)
    _same_graph(x, b)
    xv, wv, bv = x.values, w.values, b.values
    if xv.ndim != 2 or wv.ndim != 2 or bv.ndim != 1:
        raise ShapeError(
            f"linear needs a matrix, a matrix and a vector, got {xv.shape}, "
            f"{wv.shape} and {bv.shape}")
    if xv.shape[1] != wv.shape[0]:
        raise ShapeError(f"linear: inner dims of {xv.shape} and {wv.shape} differ")
    if wv.shape[1] != bv.shape[0]:
        raise ShapeError(
            f"linear: width of {wv.shape} does not match bias {bv.shape}")
    z = xv @ wv
    z += bv
    mask = None
    if relu:
        mask = z > 0
        _relu_in_place(z)
    def vjp(g):
        gm = g if mask is None else g * mask
        return (gm @ wv.T, xv.T @ gm, gm.sum(axis=0))
    return Tensor(x.graph, z, (x, w, b), vjp)


# -- nonlinearities ----------------------------------------------------------

def softmax_temperature(logits: Tensor, tau: float) -> Tensor:
    """Row-wise softmax of logits / tau, computed in the shifted stable form."""
    if logits.values.ndim != 2:
        raise ShapeError(f"softmax needs a 2-d tensor, got {logits.values.shape}")
    tau = float(tau)
    if tau <= 0.0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    p = logits.values / tau
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    def vjp(g):
        inner = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - inner) / tau,)
    return Tensor(logits.graph, p, (logits,), vjp)


def pairwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """All squared Euclidean distances between rows of a and rows of b.

    Computed by the expansion |x|^2 + |y|^2 - 2 x.y, clipped at zero to
    absorb cancellation; the adjoint uses the exact difference form, which
    agrees with the clip because the gradient vanishes where distances do.
    """
    _same_graph(a, b)
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError(
            f"pairwise_sqdist needs 2-d operands, got {a.values.shape} "
            f"and {b.values.shape}")
    if a.values.shape[1] != b.values.shape[1]:
        raise ShapeError(
            f"pairwise_sqdist: widths of {a.values.shape} and "
            f"{b.values.shape} differ")
    av, bv = a.values, b.values
    aa = (av * av).sum(axis=1)[:, None]
    bb = (bv * bv).sum(axis=1)[None, :]
    d = av @ bv.T
    d *= 2.0
    np.subtract(aa + bb, d, out=d)
    np.maximum(d, 0.0, out=d)
    def vjp(g):
        ga = av * g.sum(axis=1)[:, None]
        ga -= g @ bv
        ga *= 2.0
        gb = bv * g.sum(axis=0)[:, None]
        gb -= g.T @ av
        gb *= 2.0
        return (ga, gb)
    return Tensor(a.graph, d, (a, b), vjp)


def kernel_bank_mean(d: Tensor, sigmas) -> Tensor:
    """Mean over all entries of (1/S) * sum_s exp(-d / (2 s^2)).

    One node for a whole Gaussian kernel bank over a block of squared
    distances d. The adjoint is g / (N S) * sum_s (-1/(2 s^2)) exp(-d/(2 s^2)),
    with N = d.size; its weighted kernel sum is formed in the forward pass,
    so the S kernel blocks are not kept.
    """
    sig = _as_f64(sigmas).ravel()
    # nan passes, so a diverged batch reaches the caller's finiteness check
    if sig.size == 0 or np.any(sig <= 0):
        raise ParameterError(f"kernel_bank_mean needs positive bandwidths, got {sigmas}")
    if d.values.size == 0:
        raise ShapeError(f"kernel_bank_mean needs a non-empty block, got {d.values.shape}")
    coef = -0.5 / (sig * sig)
    k = np.exp(coef.reshape((-1,) + (1,) * d.values.ndim) * d.values)
    n = d.values.size * coef.size
    slope = np.dot(coef, k.reshape(coef.size, -1)).reshape(d.values.shape)
    def vjp(g):
        return (slope * (float(g) / n),)
    return Tensor(d.graph, _as_f64(k.sum() / n), (d,), vjp)


# -- reverse pass -------------------------------------------------------------

def backward(loss: Tensor):
    """Populate .grad for every tensor the loss depends on.

    The scalar loss is seeded with 1. Node ids are visited from the loss
    down to 0; only tensors reached through inputs carry an adjoint, so the
    graph's tape itself is never read. Adjoints live in a per-call table so
    that calling backward twice adds a second full gradient onto .grad.
    """
    if loss.values.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    adjoint: dict[int, Array] = {loss.node_id: np.ones_like(loss.values)}
    reached: dict[int, Tensor] = {loss.node_id: loss}
    for pos in range(loss.node_id, -1, -1):
        g = adjoint.get(pos)
        if g is None:
            continue
        t = reached[pos]
        if t._vjp is None:
            continue
        for inp, contrib in zip(t._inputs, t._vjp(g)):
            if contrib is None:
                continue
            prev = adjoint.get(inp.node_id)
            if prev is None:
                adjoint[inp.node_id] = contrib
                reached[inp.node_id] = inp
            else:
                adjoint[inp.node_id] = prev + contrib
    for node_id, g in adjoint.items():
        t = reached[node_id]
        t.grad = g if t.grad is None else t.grad + g

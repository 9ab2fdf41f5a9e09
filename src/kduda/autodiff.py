"""Reverse-mode automatic differentiation over dense float64 arrays.

A Graph is an append-only tape. Every Tensor created through an op gets the
next node id of its graph at construction, so id order is already a
topological order of the computation. backward() visits the loss and its
ancestors in exact reverse construction order, accumulating vector-Jacobian
products into a per-call adjoint table and popping each at its node's turn:
a leaf (a parameter or input) adds it onto its .grad, any other node hands
it to its vjp. Repeated backward() calls therefore accumulate leaf gradients
until the caller discards the graph.

Tensors point at their graph and at their inputs; the graph holds only weak
references to its tensors. Without a cycle between the two, reference
counting frees a spent graph as soon as its last tensor is dropped.

All values are float64. An op writes only into arrays it allocated in the
same call: never into an input's values, which belong to other nodes, nor
into an incoming adjoint, which add's vjp hands to both of its inputs.
Optimizers update parameter arrays between graphs, never inside one.

Every op works over its operands' trailing axes, so operands may carry
leading axes: a stack of S independent cells is one graph whose tensors
have a leading axis of length S, and cell s of every result is what the
op gives on cell s alone, bit for bit. A 2-d operand is the unstacked case
of the same code. Such a graph's `stack` shape is (S,), and a loss on it
holds one value per cell.
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
    get the tensor, or None once nothing else holds that tensor. `stack` is
    the shape of a loss on this graph: () for one cell, (S,) for S stacked
    cells.
    """

    def __init__(self, stack: tuple[int, ...] = ()):
        self.nodes: list[weakref.ref[Tensor]] = []
        self.stack = tuple(stack)

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

    def backward(self, weight: float = 1.0):
        backward(self, weight)

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


# -- dense layers -------------------------------------------------------------

def _t(a: Array) -> Array:
    """The transpose of every matrix in a stack of them."""
    return a.swapaxes(-1, -2)


def _relu_in_place(z: Array):
    """Overwrite z with np.where(z > 0, z, 0.0), bit for bit. fmax maps nan
    to 0 but may keep a -0.0, which adding +0.0 turns into +0.0."""
    np.fmax(z, 0.0, out=z)
    z += 0.0


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """One node for x @ w + b, optionally followed by ReLU, over the last
    two axes of x and w and the last axis of b.

    The adjoint masks the incoming gradient where the ReLU is inactive
    (gm = g * mask) and returns gm @ w^T, x^T @ gm and gm summed over rows.
    """
    _same_graph(x, w)
    _same_graph(x, b)
    xv, wv, bv = x.values, w.values, b.values
    if xv.ndim < 2 or wv.ndim != xv.ndim or bv.ndim != xv.ndim - 1:
        raise ShapeError(
            f"linear needs matrices x and w and a bias vector, each with the "
            f"same leading axes, got {xv.shape}, {wv.shape} and {bv.shape}")
    if xv.shape[:-2] != wv.shape[:-2] or wv.shape[:-2] != bv.shape[:-1]:
        raise ShapeError(f"linear: leading axes of {xv.shape}, {wv.shape} and "
                         f"{bv.shape} differ")
    if xv.shape[-1] != wv.shape[-2]:
        raise ShapeError(f"linear: inner dims of {xv.shape} and {wv.shape} differ")
    if wv.shape[-1] != bv.shape[-1]:
        raise ShapeError(
            f"linear: width of {wv.shape} does not match bias {bv.shape}")
    z = xv @ wv
    z += bv[..., None, :]
    if relu:
        _relu_in_place(z)
    def vjp(g):
        # z > 0 exactly where the pre-activation was > 0: ReLU maps nan to 0
        gm = g * (z > 0) if relu else g
        return (gm @ _t(wv), _t(xv) @ gm, gm.sum(axis=-2))
    return Tensor(x.graph, z, (x, w, b), vjp)


# -- nonlinearities ----------------------------------------------------------

def softmax_np(logits, tau: float) -> Array:
    """Row-wise softmax of logits / tau in the shifted stable form, off the
    tape: the teacher's constant soft targets."""
    tau = float(tau)
    if tau <= 0.0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    p = _as_f64(logits) / tau
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


# -- reverse pass -------------------------------------------------------------

def backward(loss: Tensor, weight: float = 1.0):
    """Add onto .grad of every leaf weight * loss depends on.

    The loss holds one value per cell of its graph's stack, each seeded with
    weight, so every cell's adjoint is exactly its own, and the same bits
    as backpropagating from 1 a node holding weight * loss. Node ids are
    visited from the loss down to 0; only tensors reached through inputs
    carry an adjoint, so the graph's tape itself is never read. Adjoints
    live in a per-call table, each dropped once its node is visited, so
    calling backward twice adds a second full gradient onto .grad, and
    tensors other than leaves keep none.
    """
    stack = loss.graph.stack
    if not (loss.values.shape == stack if stack else loss.values.size == 1):
        raise ShapeError(f"backward needs a loss of shape {stack} (one value per "
                         f"stacked cell), got shape {loss.values.shape}")
    adjoint: dict[int, tuple[Tensor, Array]] = {
        loss.node_id: (loss, np.full_like(loss.values, weight))}
    for pos in range(loss.node_id, -1, -1):
        if pos not in adjoint:
            continue
        t, g = adjoint.pop(pos)
        if t._vjp is None:
            t.grad = g if t.grad is None else t.grad + g
            continue
        for inp, contrib in zip(t._inputs, t._vjp(g)):
            prev = adjoint.get(inp.node_id)
            adjoint[inp.node_id] = (inp, contrib if prev is None else prev[1] + contrib)

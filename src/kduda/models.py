"""Feedforward classifiers with an explicit feature/head split.

A model is a stack of fully connected layers with ReLU after every hidden
layer. features() returns the activation after the last hidden layer; the
head is the final linear layer alone, so logits(x) is head(features(x)) on
the same graph nodes. The alignment losses operate on features, the
classification losses on logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor
from .errors import ParameterError, ShapeError


@dataclass(frozen=True)
class ModelSpec:
    input_dim: int
    hidden_widths: tuple[int, ...]
    num_classes: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1:
            raise ParameterError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes < 2:
            raise ParameterError(f"num_classes must be >= 2, got {self.num_classes}")
        if len(self.hidden_widths) < 1:
            raise ParameterError("at least one hidden layer is required")
        if any(w < 1 for w in self.hidden_widths):
            raise ParameterError(f"hidden widths must be >= 1, got {self.hidden_widths}")

    def layer_dims(self) -> list[tuple[int, int]]:
        widths = [self.input_dim, *self.hidden_widths, self.num_classes]
        return list(zip(widths[:-1], widths[1:]))


class Model:
    """Weight/bias arrays plus graph-bound forward passes.

    Parameter arrays are owned by the model and updated in place by the
    optimizer. Binding to a graph creates leaf tensors that wrap the live
    arrays, so a model bound to a fresh graph always sees current values.
    """

    def __init__(self, spec: ModelSpec, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.spec = spec
        self.weights = weights
        self.biases = biases
        self._bound_graph: Graph | None = None
        self._bound: list[Tensor] = []
        self._cache: dict[int, Tensor] = {}

    # -- parameter access --------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def copy(self) -> "Model":
        return Model(self.spec,
                     [w.copy() for w in self.weights],
                     [b.copy() for b in self.biases])

    # -- graph binding -----------------------------------------------------

    def bind(self, graph: Graph) -> list[Tensor]:
        """Leaf tensors for every parameter, in parameters() order."""
        if self._bound_graph is not graph:
            self._bound_graph = graph
            self._bound = [graph.tensor(p) for p in self.parameters()]
            self._cache = {}
        return self._bound

    def bound_gradients(self) -> list[np.ndarray]:
        """Per-parameter gradients from the current binding; zeros where unused.

        Reading them ends the binding, so the model stops holding the spent
        graph; the next forward pass binds afresh.
        """
        if self._bound_graph is None:
            raise ParameterError("model is not bound to a graph")
        grads = [t.grad if t.grad is not None else np.zeros_like(t.values)
                 for t in self._bound]
        self._bound_graph = None
        self._bound = []
        self._cache = {}
        return grads

    def features(self, x: Tensor) -> Tensor:
        """Activation after the last hidden layer (post-ReLU)."""
        leaves = self.bind(x.graph)
        # the cached node reaches x through its inputs, so x stays alive and
        # id(x) cannot be reused while the entry lives
        key = id(x)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if x.values.ndim != 2 or x.values.shape[1] != self.spec.input_dim:
            raise ShapeError(
                f"expected input of shape (n, {self.spec.input_dim}), "
                f"got {x.values.shape}")
        h = x
        for i in range(len(self.weights) - 1):
            h = ad.linear(h, leaves[2 * i], leaves[2 * i + 1], relu=True)
        self._cache[key] = h
        return h

    def logits(self, x: Tensor) -> Tensor:
        """head(features(x)); shares the feature nodes for the same input."""
        h = self.features(x)
        leaves = self._bound
        key = ("logits", id(x))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        out = ad.linear(h, leaves[-2], leaves[-1])
        self._cache[key] = out
        return out

    # -- graph-free inference ----------------------------------------------

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise ShapeError(
                f"expected input of shape (n, {self.spec.input_dim}), got {x.shape}")
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
        out = h @ self.weights[-1]
        out += self.biases[-1]
        return out


def build(spec: ModelSpec) -> Model:
    """Initialize weights Glorot-uniform and biases to zero, from spec.seed."""
    rng = np.random.default_rng(spec.seed)
    weights, biases = [], []
    for fan_in, fan_out in spec.layer_dims():
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Model(spec, weights, biases)


def count_complexity(spec: ModelSpec) -> tuple[int, int]:
    """(parameter count, multiply-accumulate count) for one forward pass.

    params = sum over layers of fan_in*fan_out + fan_out
    MACs   = sum over layers of fan_in*fan_out
    """
    params = 0
    macs = 0
    for fan_in, fan_out in spec.layer_dims():
        params += fan_in * fan_out + fan_out
        macs += fan_in * fan_out
    return params, macs


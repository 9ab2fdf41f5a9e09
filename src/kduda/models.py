"""Feedforward classifiers with an explicit feature/head split.

A model is a stack of fully connected layers with ReLU after every hidden
layer. features() returns the activation after the last hidden layer and
head() applies the final linear layer alone, so logits(x) is
head(features(x)); a loss that needs both applies head() to the features it
has. The alignment losses operate on features, the classification losses on
logits.

stack() joins S models of one shape into a model whose parameters carry a
leading axis of length S; it takes inputs with the same leading axis, and
cell s of each output is what model s gives on its own inputs.
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
    A stacked model's weights are (S, fan_in, fan_out) and its biases
    (S, fan_out); its spec is that of its first member.
    """

    def __init__(self, spec: ModelSpec, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.spec = spec
        self.weights = weights
        self.biases = biases
        self._bound_graph: Graph | None = None
        self._bound: list[Tensor] = []

    # -- parameter access --------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """() for one model, (S,) for a stack of S."""
        return self.biases[0].shape[:-1]

    def _check_input(self, shape: tuple[int, ...]):
        if (len(shape) < 2 or shape[:-2] != self.stack_shape
                or shape[-1] != self.spec.input_dim):
            expected = ", ".join([*map(str, self.stack_shape), "n",
                                  str(self.spec.input_dim)])
            raise ShapeError(f"expected input of shape ({expected}), got {shape}")

    # -- graph binding -----------------------------------------------------

    def bind(self, graph: Graph) -> list[Tensor]:
        """Leaf tensors for every parameter, in parameters() order."""
        if self._bound_graph is not graph:
            self._bound_graph = graph
            self._bound = [graph.tensor(p) for p in self.parameters()]
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
        return grads

    def features(self, x: Tensor) -> Tensor:
        """Activation after the last hidden layer (post-ReLU)."""
        leaves = self.bind(x.graph)
        self._check_input(x.values.shape)
        h = x
        for i in range(len(self.weights) - 1):
            h = ad.linear(h, leaves[2 * i], leaves[2 * i + 1], relu=True)
        return h

    def head(self, h: Tensor) -> Tensor:
        """The final linear layer on features h, as one graph node."""
        leaves = self.bind(h.graph)
        return ad.linear(h, leaves[-2], leaves[-1])

    def logits(self, x: Tensor) -> Tensor:
        return self.head(self.features(x))

    # -- graph-free inference ----------------------------------------------

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        """Logits of x's rows off the tape, computed in the weights' dtype."""
        x = np.asarray(x, dtype=self.weights[0].dtype)
        self._check_input(x.shape)
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ w
            h += b[..., None, :]
            np.maximum(h, 0.0, out=h)
        out = h @ self.weights[-1]
        out += self.biases[-1][..., None, :]
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


def stack(models: list[Model]) -> Model:
    """One model training S models of one shape together: every parameter
    is the members' parameters stacked along a new leading axis."""
    first = models[0].spec
    if any(m.spec.layer_dims() != first.layer_dims() or m.stack_shape
           for m in models):
        raise ShapeError("stack needs unstacked models of one shape")
    return Model(first, [np.stack(ws) for ws in zip(*(m.weights for m in models))],
                 [np.stack(bs) for bs in zip(*(m.biases for m in models))])


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


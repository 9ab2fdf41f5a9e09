import gc
import weakref
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kduda.autodiff as ad
import kduda.trainer
from kduda.autodiff import Graph, softmax_np
from kduda.errors import ParameterError, ShapeError
from kduda.losses import (KernelConfig, _pair_sqdist, cross_entropy, distill_kl,
                          mmd_squared)
from kduda.models import ModelSpec, build, stack as stack_models
from kduda.trainer import TrainConfig
from fdcheck import (exp, finite_diff_grad, log, log_softmax, mean,
                     old_backward, old_kernel_bank_mean, old_linear,
                     old_pair_index, old_pairwise_sqdist, old_pooled_mmd_squared,
                     old_softmax_np, relative_error, scalar_multiply,
                     traced_peak, weighted_sum)

FIXED = KernelConfig(bandwidths=(0.5, 2.0))


def dense(g, x, w, b=None, relu=False):
    """ad.linear on fresh leaves of g; the bias defaults to zeros."""
    w = np.asarray(w, dtype=np.float64)
    b = np.zeros(w.shape[1]) if b is None else b
    return ad.linear(g.tensor(x), g.tensor(w), g.tensor(b), relu=relu)


class TestMatmul:
    """The matrix product inside ad.linear, with a zero bias and no ReLU."""

    def test_identity(self):
        g = Graph()
        out = dense(g, np.eye(2), [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(out.values, [[1, 2], [3, 4]])

    def test_hand_case(self):
        g = Graph()
        out = dense(g, [[1.0, 2.0]], [[3.0], [4.0]])
        np.testing.assert_allclose(out.values, [[11.0]])

    def test_grad_of_sum_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a0 = rng.normal(size=(3, 3))
        b0 = rng.normal(size=(3, 3))

        def loss_at(a):
            return weighted_sum(dense(Graph(), a, b0), np.ones((3, 3))).item()

        g = Graph()
        a = g.tensor(a0)
        weighted_sum(ad.linear(a, g.tensor(b0), g.tensor(np.zeros(3))),
                     np.ones((3, 3))).backward()
        numeric = finite_diff_grad(loss_at, a0.copy())
        assert relative_error(numeric, a.grad) < 1e-6

    def test_shape_mismatch_names_both_shapes(self):
        g = Graph()
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            dense(g, np.ones((2, 3)), np.ones((2, 3)))


class TestRelu:
    """The ReLU of ad.linear(..., relu=True), on an identity layer."""

    def test_values(self):
        g = Graph()
        out = dense(g, [[-1.0, 0.0, 2.0]], np.eye(3), relu=True)
        np.testing.assert_allclose(out.values, [[0.0, 0.0, 2.0]])

    def test_all_negative(self):
        g = Graph()
        out = dense(g, [[-3.0, -0.5, -1e-9]], np.eye(3), relu=True)
        np.testing.assert_allclose(out.values, 0.0)

    def test_gradient_away_from_kink(self):
        rng = np.random.default_rng(1)
        x0 = rng.normal(size=(4, 4))
        x0 = np.where(np.abs(x0) < 1e-3, 0.5, x0)
        w = rng.normal(size=(4, 4))

        def loss_at(x):
            return weighted_sum(dense(Graph(), x, np.eye(4), relu=True), w).item()

        g = Graph()
        x = g.tensor(x0)
        weighted_sum(ad.linear(x, g.tensor(np.eye(4)), g.tensor(np.zeros(4)),
                               relu=True), w).backward()
        assert relative_error(finite_diff_grad(loss_at, x0.copy()), x.grad) < 1e-5


def _unfused_layer(x, w, b, relu):
    """x @ w, then + b, then ReLU as three tape nodes: the matmul,
    broadcast_add_bias and relu ops that ad.linear replaces, kept here as
    the reference."""
    xv, wv = x.values, w.values
    h = ad.Tensor(x.graph, xv @ wv, (x, w), lambda g: (g @ wv.T, xv.T @ g))
    h = ad.Tensor(x.graph, h.values + b.values, (h, b),
                  lambda g: (g, g.sum(axis=0)))
    if relu:
        mask = h.values > 0
        h = ad.Tensor(x.graph, np.where(mask, h.values, 0.0), (h,),
                      lambda g: (g * mask,))
    return h


class TestLinear:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 5), fan_in=st.integers(1, 4),
           fan_out=st.integers(1, 4), relu=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_finite_differences(self, rows, fan_in, fan_out, relu, seed):
        rng = np.random.default_rng(seed)
        inputs = [rng.normal(size=(rows, fan_in)), rng.normal(size=(fan_in, fan_out)),
                  rng.normal(size=fan_out)]
        z = inputs[0] @ inputs[1] + inputs[2]
        # central differences must not straddle the ReLU kink
        assume(not relu or np.abs(z).min() > 1e-3)
        weight = rng.normal(size=(rows, fan_out))
        g = Graph()
        leaves = [g.tensor(a) for a in inputs]
        out = ad.linear(*leaves, relu=relu)
        np.testing.assert_allclose(out.values, np.maximum(z, 0.0) if relu else z,
                                   rtol=1e-12, atol=1e-12)
        weighted_sum(out, weight).backward()
        for i, leaf in enumerate(leaves):
            def loss_at(v, i=i):
                gg = Graph()
                args = [gg.tensor(v if j == i else a) for j, a in enumerate(inputs)]
                return weighted_sum(ad.linear(*args, relu=relu), weight).item()

            err = relative_error(finite_diff_grad(loss_at, inputs[i].copy()), leaf.grad)
            assert err < 1e-5, f"input {i}: relative error {err:.2e}"

    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_equal_to_the_unfused_layers(self, seed):
        rng = np.random.default_rng(seed)
        widths = [3, 16, 8, 4]
        x0 = rng.normal(size=(7, widths[0]))
        params = [(rng.normal(size=(a, b)), rng.normal(size=b) * 0.1)
                  for a, b in zip(widths[:-1], widths[1:])]
        weight = rng.normal(size=(7, widths[-1]))

        def run(layer):
            g = Graph()
            x = g.tensor(x0)
            leaves = [(g.tensor(w), g.tensor(b)) for w, b in params]
            h = x
            for k, (w, b) in enumerate(leaves):
                h = layer(h, w, b, k < len(leaves) - 1)
            loss = weighted_sum(h, weight)
            loss.backward()
            return [h.values, x.grad] + [t.grad for pair in leaves for t in pair]

        fused = run(lambda h, w, b, relu: ad.linear(h, w, b, relu=relu))
        for new, old in zip(fused, run(_unfused_layer)):
            assert np.array_equal(new, old)

    def test_rejects_bad_shapes(self):
        g = Graph()
        x, w = g.tensor(np.ones((2, 3))), g.tensor(np.ones((3, 4)))
        with pytest.raises(ShapeError, match="bias"):
            ad.linear(x, w, g.tensor(np.ones(3)))
        with pytest.raises(ShapeError):
            ad.linear(x, w, g.tensor(np.ones((1, 4))))
        with pytest.raises(ShapeError):
            ad.linear(g.tensor(np.ones(3)), w, g.tensor(np.ones(4)))

    def test_rejects_operands_from_another_graph(self):
        g, other = Graph(), Graph()
        with pytest.raises(ParameterError):
            ad.linear(g.tensor(np.ones((2, 3))), g.tensor(np.ones((3, 4))),
                      other.tensor(np.ones(4)))


class TestSoftmaxTemperature:
    """softmax_np, the temperature softmax of the teacher's soft targets."""

    def test_symmetric_logits(self):
        for tau in (0.5, 1.0, 20.0):
            np.testing.assert_allclose(softmax_np([[0.0, 0.0]], tau), [[0.5, 0.5]])

    def test_hand_case(self):
        # logits [2, 0] at tau=2 soften to softmax([1, 0])
        e = np.e
        np.testing.assert_allclose(softmax_np([[2.0, 0.0]], 2.0),
                                   [[e / (e + 1), 1 / (e + 1)]], atol=1e-12)

    def test_huge_temperature_is_uniform(self):
        np.testing.assert_allclose(softmax_np([[3.0, -1.0, 0.5]], 1e6), 1.0 / 3.0,
                                   atol=1e-5)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            logits = rng.normal(scale=rng.uniform(0.1, 50.0), size=(5, 7))
            p = softmax_np(logits, rng.uniform(0.5, 30.0))
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert (p > 0).all()

    def test_invalid_temperature(self):
        with pytest.raises(ParameterError):
            softmax_np([[1.0, 2.0]], 0.0)


def squared_norm(x):
    """|x|^2 of a one-row tensor, as its pairwise distance to the origin."""
    return old_pairwise_sqdist(x, x.graph.tensor(np.zeros_like(x.values)))


def headline_objective(move, stack):
    """A training move's objective on the headline models (teacher
    2-128-128-64-3, student 2-32-16-3) and one 32-row batch, one cell per
    entry of stack, with the graph's leaf tensors in node order."""
    def models(hidden, seed):
        cells = [build(ModelSpec(2, hidden, 3, seed=seed + s))
                 for s in range(stack[0] if stack else 1)]
        return stack_models(cells) if stack else cells[0]
    teacher = models((128, 128, 64), 1)
    student = models((32, 16), 2)
    rng = np.random.default_rng(0)
    batch = (rng.normal(size=stack + (32, 2)), rng.integers(0, 3, stack + (32,)),
             rng.normal(size=stack + (32, 2)) + 1.0)
    cfg = TrainConfig()
    model = teacher if move == "_adapt" else student
    objective, _ = getattr(kduda.trainer, move)(model, teacher, batch, cfg)
    tensors = [node() for node in objective.graph.nodes]
    return objective, [t for t in tensors if t is not None and t._vjp is None]


class TestBackward:
    def test_square_at_three(self):
        g = Graph()
        x = g.tensor([[3.0]])
        squared_norm(x).backward()
        np.testing.assert_allclose(x.grad, [[6.0]])

    def test_sum_of_relu(self):
        g = Graph()
        x = g.tensor([[-1.0, 2.0]])
        weighted_sum(ad.linear(x, g.tensor(np.eye(2)), g.tensor(np.zeros(2)),
                               relu=True), np.ones((1, 2))).backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0]])

    def test_repeated_calls_accumulate(self):
        g = Graph()
        x = g.tensor([[1.0, 2.0]])
        loss = squared_norm(x)
        loss.backward()
        loss.backward()
        np.testing.assert_allclose(x.grad, [[4.0, 8.0]])

    def test_non_scalar_loss_rejected(self):
        g = Graph()
        with pytest.raises(ShapeError):
            ad.backward(g.tensor([1.0, 2.0]))

    def test_fan_out_accumulates(self):
        # y = x*x + x uses x twice; dy/dx = 2x + 1
        g = Graph()
        x = g.tensor([[2.0]])
        ad.add(squared_norm(x), x).backward()
        np.testing.assert_allclose(x.grad, [[5.0]])

    @pytest.mark.parametrize("stack", [(), (3,)])
    @pytest.mark.parametrize("weight", [0.37, -2.5, 0.0, 1e-300])
    def test_a_weighted_backward_gives_the_bits_of_a_scaled_loss(self, stack,
                                                                 weight):
        def leaves_and_loss():
            g = Graph(stack)
            rng = np.random.default_rng(5)
            x, w, b, y = (g.tensor(rng.normal(size=stack + shape))
                          for shape in ((11, 4), (4, 3), (3,), (11, 3)))
            h = log_softmax(ad.linear(x, w, b, relu=True), 2.0)
            return (x, w, b, y), mmd_squared(
                ad.add(h, scalar_multiply(ad.add(y, y), -1.0)), 6, FIXED)
        weighted, loss = leaves_and_loss()
        loss.backward(weight)
        scaled, loss = leaves_and_loss()
        scalar_multiply(loss, weight).backward()
        for a, b in zip(weighted, scaled):
            assert same_bits(a.grad, b.grad)

    @pytest.mark.parametrize("stack,values", [((), 3.0), ((3,), [1.0, -2.0, 5.0])])
    def test_the_adjoint_starts_at_the_weight(self, stack, values):
        g = Graph(stack)
        x, y = g.tensor(values), g.tensor(values)
        x.backward()
        y.backward(0.25)
        assert same_bits(x.grad, np.ones_like(x.values))
        assert same_bits(y.grad, np.full_like(y.values, 0.25))

    @pytest.mark.parametrize("move", ["_adapt", "_distill_both"])
    @pytest.mark.parametrize("stack", [(), (2,)])
    def test_leaves_get_the_gradients_every_tensor_got_before(self, move, stack):
        # against the graph as linear and the MMD node read when backward
        # gave every tensor an adjoint: the ReLU mask stored with its node,
        # a flat pair index, a dense m + m^T
        with mock.patch("kduda.autodiff.linear", old_linear), \
                mock.patch("kduda.losses.mmd_squared", old_pooled_mmd_squared):
            objective, old = headline_objective(move, stack)
        old_backward(objective, 0.7)
        objective, new = headline_objective(move, stack)
        objective.backward(0.7)
        assert len(new) == len(old) > 0
        for a, b in zip(new, old):
            assert same_bits(a.grad, b.grad)

    @pytest.mark.parametrize("move", ["_adapt", "_distill_both"])
    def test_only_leaves_keep_a_gradient(self, move):
        objective, leaves = headline_objective(move, (2,))
        objective.backward()
        assert all(t.grad is not None for t in leaves)
        inner = [node() for node in objective.graph.nodes]
        assert all(t.grad is None for t in inner if t is not None and t._vjp)

    @pytest.mark.parametrize("move", ["_adapt", "_distill_both"])
    def test_a_second_backward_adds_a_second_full_gradient(self, move):
        objective, leaves = headline_objective(move, ())
        objective.backward()
        first = [t.grad.copy() for t in leaves]
        objective.backward()
        for t, g in zip(leaves, first):
            assert same_bits(t.grad, g + g)

    def test_a_spent_adjoint_is_freed(self):
        # six 512 x 256 layers: beside the leaves' gradients, backward holds
        # the adjoint in hand, its masked copy and the one handed down; the
        # form that kept every adjoint until it returned held all six
        rng = np.random.default_rng(0)
        g = Graph()
        h = g.tensor(rng.normal(size=(512, 256)))
        leaves = [h]
        for _ in range(6):
            leaves += [g.tensor(rng.normal(size=(256, 256)) / 16),
                       g.tensor(rng.normal(size=256))]
            h = ad.linear(h, leaves[-2], leaves[-1], relu=True)
        loss = weighted_sum(h, rng.normal(size=(512, 256)))
        peak, kept = traced_peak(loss.backward)
        grads = sum(t.grad.nbytes for t in leaves)
        layer = 512 * 256 * 8
        assert peak - grads <= 3 * layer, (peak - grads) / layer
        assert kept - grads < layer // 8, (kept - grads) / layer

    def test_tape_counts_nodes_and_frees_without_the_cyclic_gc(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            g = Graph()
            x = g.tensor([1.0, 2.0])
            loss = mean(exp(x))
            assert len(g.nodes) == 3
            assert g.nodes[0]() is x
            tape = weakref.ref(g)
            del g, x, loss
            assert tape() is None
        finally:
            if was_enabled:
                gc.enable()


class TestKernelBankMean:
    """The kernel-bank reference node of tests/fdcheck.py, which the MMD
    node is checked against."""

    @settings(max_examples=60, deadline=None)
    @given(rows_a=st.integers(1, 6), rows_b=st.integers(1, 6),
           width=st.integers(1, 4),
           sigmas=st.lists(st.floats(0.5, 5.0), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_finite_differences(self, rows_a, rows_b, width, sigmas, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rows_a, width))
        b = rng.normal(size=(rows_b, width))
        d0 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)

        def loss_at(d):
            return old_kernel_bank_mean(Graph().tensor(d), sigmas).item()

        g = Graph()
        d = g.tensor(d0)
        out = old_kernel_bank_mean(d, sigmas)
        expected = np.mean([np.exp(-d0 / (2.0 * s * s)) for s in sigmas])
        np.testing.assert_allclose(out.item(), expected, rtol=1e-12)
        out.backward()
        assert relative_error(finite_diff_grad(loss_at, d0.copy()), d.grad) < 1e-5

    @pytest.mark.parametrize("sigmas", [(), (1.0, 0.0), (-1.0,)])
    def test_rejects_bad_bandwidths(self, sigmas):
        g = Graph()
        with pytest.raises(ParameterError):
            old_kernel_bank_mean(g.tensor(np.ones((2, 2))), sigmas)

    def test_rejects_an_empty_block(self):
        g = Graph()
        with pytest.raises(ShapeError):
            old_kernel_bank_mean(g.tensor(np.ones((0, 3))), (1.0,))


def _add_bias(g, a, b):
    """ad.linear through an identity weight; the leaves of a and b come first,
    in input order, and the weight is created after them."""
    x, bias = g.tensor(a), g.tensor(b)
    return ad.linear(x, g.tensor(np.eye(a.shape[1])), bias)


# Each case: name, builder(graph, c, *inputs) with a drawn constant c in
# [0.5, 5], and the input shapes for drawn sizes (m, n, k). A builder creates
# its input leaves first, in input order. The last six cases are the
# reference nodes of tests/fdcheck.py.
PRIMITIVE_CASES = [
    ("add", lambda g, c, a, b: ad.add(g.tensor(a), g.tensor(b)),
     lambda m, n, k: [(m, n), (m, n)]),
    ("linear",
     lambda g, c, a, b, d: ad.linear(g.tensor(a), g.tensor(b), g.tensor(d)),
     lambda m, n, k: [(m, n), (n, k), (k,)]),
    # the matrix product and the bias broadcast inside ad.linear, each on its own
    ("matmul", lambda g, c, a, b: dense(g, a, b), lambda m, n, k: [(m, n), (n, k)]),
    ("broadcast_add_bias", lambda g, c, a, b: _add_bias(g, a, b),
     lambda m, n, k: [(m, n), (n,)]),
    ("pairwise_sqdist",
     lambda g, c, a, b: old_pairwise_sqdist(g.tensor(a), g.tensor(b)),
     lambda m, n, k: [(m, n), (k, n)]),
    ("scalar_multiply", lambda g, c, a: scalar_multiply(g.tensor(a), -c),
     lambda m, n, k: [(m, n)]),
    ("exp", lambda g, c, a: exp(g.tensor(a)), lambda m, n, k: [(m, n)]),
    # negative entries sit on the flat side of the floor
    ("log", lambda g, c, a: log(g.tensor(a), 1e-12), lambda m, n, k: [(m, n)]),
    ("log_softmax", lambda g, c, a: log_softmax(g.tensor(a), c),
     lambda m, n, k: [(m, n)]),
    ("mean", lambda g, c, a: mean(g.tensor(a)), lambda m, n, k: [(m, n)]),
    ("weighted_sum",
     lambda g, c, a: weighted_sum(g.tensor(a),
                                  np.linspace(-c, c, a.size).reshape(a.shape)),
     lambda m, n, k: [(m, n)]),
]


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name,builder,shapes",
                             PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
    # derandomized, and the inputs are a stable function of the case and its
    # drawn sizes, so every run checks the same examples
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(m=st.integers(1, 5), n=st.integers(1, 4), k=st.integers(1, 4),
           c=st.floats(0.5, 5.0))
    def test_matches_finite_differences(self, name, builder, shapes, m, n, k, c):
        rng = np.random.default_rng([zlib.crc32(name.encode()), m, n, k])
        # magnitudes in [0.5, 2] keep central differences off the log floor
        inputs = [rng.uniform(0.5, 2.0, size=s) * rng.choice([-1.0, 1.0], size=s)
                  for s in shapes(m, n, k)]
        weight = rng.normal(size=builder(Graph(), c, *inputs).values.shape)

        for i in range(len(inputs)):
            def loss_at(xi, i=i):
                args = [x if j != i else xi for j, x in enumerate(inputs)]
                return weighted_sum(builder(Graph(), c, *args), weight).item()

            gg = Graph()
            out_t = builder(gg, c, *inputs)
            weighted_sum(out_t, weight).backward()
            # the i-th created leaf on this graph is the i-th input; the
            # tape holds weak references, and out_t keeps the leaves alive
            leaf = gg.nodes[i]()
            np.testing.assert_allclose(leaf.values, inputs[i])
            assert leaf.grad is not None, f"{name}: input {i} got no gradient"
            numeric = finite_diff_grad(loss_at, inputs[i].copy())
            err = relative_error(numeric, leaf.grad)
            assert err < 1e-5, f"{name} input {i}: relative error {err:.2e}"


class TestLog:
    """The floored log reference node of tests/fdcheck.py."""

    def test_plain_log_gradient(self):
        rng = np.random.default_rng(11)
        x0 = np.abs(rng.normal(size=(3, 3))) + 0.5
        w = rng.normal(size=(3, 3))

        def loss_at(x):
            g = Graph()
            return weighted_sum(log(g.tensor(x), 1e-12), w).item()

        g = Graph()
        x = g.tensor(x0)
        weighted_sum(log(x, 1e-12), w).backward()
        assert relative_error(finite_diff_grad(loss_at, x0.copy()), x.grad) < 1e-5

    def test_floored_log_clamps_value_and_gradient(self):
        g = Graph()
        x = g.tensor([1e-20, 1.0])
        out = log(x, 1e-12)
        np.testing.assert_allclose(out.values, [np.log(1e-12), 0.0])
        weighted_sum(out, np.ones(2)).backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])


class TestPairwiseSqdist:
    """The distance reference node of tests/fdcheck.py."""

    def test_hand_values(self):
        g = Graph()
        out = old_pairwise_sqdist(g.tensor([[0.0, 0.0], [1.0, 1.0]]),
                                  g.tensor([[1.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[1.0], [1.0]])

    def test_self_distances_zero_diagonal(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        g = Graph()
        d = old_pairwise_sqdist(g.tensor(x), g.tensor(x)).values
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-12)
        assert (d >= 0).all()


class TestGraphDeterminism:
    def _run(self):
        rng = np.random.default_rng(42)
        x0 = rng.normal(size=(8, 3))
        w0 = rng.normal(size=(3, 2))
        g = Graph()
        x, w = g.tensor(x0), g.tensor(w0)
        h = ad.linear(x, w, g.tensor(np.zeros(2)), relu=True)
        loss = mmd_squared(h, 4, KernelConfig())
        loss.backward()
        return loss.values.copy(), w.grad.copy()

    def test_bitwise_identical_across_runs(self):
        v1, g1 = self._run()
        v2, g2 = self._run()
        assert v1.tobytes() == v2.tobytes()
        assert g1.tobytes() == g2.tobytes()


class TestElementwiseShapeChecks:
    @pytest.mark.parametrize("op", [ad.add])
    def test_mismatch_raises(self, op):
        g = Graph()
        with pytest.raises(ShapeError):
            op(g.tensor(np.ones((2, 2))), g.tensor(np.ones((2, 3))))


SPECIALS = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -1.5,
                     5e-324, -5e-324])


def specials(rng, shape):
    """Random draws from SPECIALS, so signed zeros, nans and infinities land
    in both the vector body and the scalar tail of numpy's loops."""
    return SPECIALS[rng.integers(0, SPECIALS.size, size=shape)]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestInPlaceOps:
    """The ops that compute into their own buffers equal the allocating
    references in tests/fdcheck.py bit for bit: values and adjoints, and the
    MMD node's pair distances."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 31, 64, 67, 131])
    def test_relu_is_np_where_on_special_values(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            z = specials(rng, n)
            expected = np.where(z > 0, z, 0.0)
            ad._relu_in_place(z)
            assert same_bits(z, expected)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("rows,width", [(1, 1), (5, 7), (32, 17), (9, 64)])
    def test_linear_matches_the_reference_on_special_inputs(self, rows, width,
                                                            relu):
        rng = np.random.default_rng(rows * 100 + width)
        xv = rng.normal(size=(rows, 3))
        wv = rng.normal(size=(3, width))
        bv = specials(rng, width)
        xv[0] = specials(rng, 3)
        wv[:, -1] = specials(rng, 3)
        gv = specials(rng, (rows, width))
        outs = []
        with np.errstate(invalid="ignore", over="ignore"):
            for op in (ad.linear, old_linear):
                g = Graph()
                out = op(g.tensor(xv), g.tensor(wv), g.tensor(bv), relu=relu)
                outs.append((out.values, *out._vjp(gv)))
        for new, old in zip(*outs):
            assert same_bits(new, old)

    @pytest.mark.parametrize("stack", [(), (3,)])
    def test_relu_adjoint_reads_its_mask_from_the_output(self, stack):
        # pre-activations exactly 0, -0.0, negative, nan, +inf and positive:
        # a zero row, a row whose products underflow to -0.0 and a normal
        # row, plus a bias of 0, -0.0, -1, nan, inf, 0.5 and 2
        rng = np.random.default_rng(len(stack))
        xv = np.zeros(stack + (3, 3))
        xv[..., 1, :] = -1e-200
        xv[..., 2, :] = rng.normal(size=stack + (3,))
        wv = np.full(stack + (3, 7), 1e-200)
        bv = np.broadcast_to([0.0, -0.0, -1.0, np.nan, np.inf, 0.5, 2.0],
                             stack + (7,)).copy()
        pre = xv @ wv
        pre += bv[..., None, :]
        assert ((pre == 0) & np.signbit(pre)).any()
        assert ((pre == 0) & ~np.signbit(pre)).any()
        gv = rng.normal(size=stack + (3, 7))
        outs = []
        for op in (ad.linear, old_linear):
            g = Graph(stack)
            out = op(g.tensor(xv), g.tensor(wv), g.tensor(bv), relu=True)
            outs.append((out.values, *out._vjp(gv)))
        for new, old in zip(*outs):
            assert same_bits(new, old)

    @pytest.mark.parametrize("tau", [0.05, 1.0, 20.0])
    def test_softmax_matches_the_reference_on_extreme_logits(self, tau):
        # softmax_np computes the teacher's soft targets in its own buffer
        rng = np.random.default_rng(int(tau * 100))
        logits = np.array([[1e4, -1e4, 0.0, 3.0],
                           [-745.0, -746.0, -1e300, -700.0],
                           [1e300, 1e300, -1e300, 0.0],
                           [5.0, 5.0, 5.0, 5.0],
                           [0.0, -0.0, 1e-320, -1e-320],
                           [np.inf, 1.0, 2.0, 3.0],
                           [np.nan, 1.0, 2.0, 3.0]])
        logits = np.vstack([logits, rng.normal(scale=50.0, size=(9, 4))])
        with np.errstate(invalid="ignore", over="ignore"):
            assert same_bits(softmax_np(logits, tau), old_softmax_np(logits, tau))

    @pytest.mark.parametrize("rows_a,rows_b,width", [(1, 1, 1), (7, 5, 3),
                                                     (32, 32, 16), (17, 9, 2)])
    @pytest.mark.parametrize("shared", [False, True])
    def test_pairwise_sqdist_matches_the_reference(self, rows_a, rows_b, width,
                                                   shared):
        # the MMD node forms its pooled sample's pair distances inside its
        # Gram block; shared pools a sample with a copy of itself
        rng = np.random.default_rng(rows_a * rows_b + width)
        av = rng.normal(size=(rows_a, width))
        bv = av.copy() if shared else rng.normal(size=(rows_b, width)) + 0.3
        av[0] = np.round(av[0])  # exact zeros among the distances
        z = np.concatenate([av, bv])
        index = old_pair_index(av.shape[0], bv.shape[0])
        g = Graph()
        reference = old_pairwise_sqdist(g.tensor(z), g.tensor(z)).values
        assert same_bits(_pair_sqdist(z, av.shape[0]), reference.ravel()[index])


def _every_op(g, rng):
    """One node of each op with its inputs, on fresh leaves of g."""
    x = g.tensor(rng.normal(size=(6, 4)))
    y = g.tensor(rng.normal(size=(6, 4)))
    w = g.tensor(rng.normal(size=(4, 3)))
    b = g.tensor(rng.normal(size=3))
    teacher = softmax_np(rng.normal(size=(6, 4)), 0.5)
    return [ad.add(x, y), ad.add(x, x),
            scalar_multiply(x, 3.0), ad.linear(x, w, b),
            ad.linear(x, w, b, relu=True),
            cross_entropy(x, rng.integers(0, 4, size=6)),
            cross_entropy(x, rng.integers(0, 4, size=3), slice(1, 4), -1.5),
            distill_kl(x, teacher, 0.5),
            mmd_squared(x, 2, FIXED), mmd_squared(y, 3, KernelConfig())]


class TestAliasing:
    def test_ops_never_write_into_their_inputs_or_adjoint(self):
        rng = np.random.default_rng(3)
        g = Graph()
        for out in _every_op(g, rng):
            before = [inp.values.copy() for inp in out._inputs]
            gv = rng.normal(size=out.values.shape)
            kept = gv.copy()
            contribs = out._vjp(gv)
            assert same_bits(gv, kept)
            for inp, old, contrib in zip(out._inputs, before, contribs):
                assert same_bits(inp.values, old)
                assert not np.shares_memory(out.values, inp.values)
                assert not np.shares_memory(contrib, inp.values)

    @pytest.mark.parametrize("pair", ["kl+ce", "mmd+mmd", "ce[:2]+ce[1:]"])
    def test_a_shared_adjoint_reaches_both_inputs_unchanged(self, pair):
        # add hands one adjoint array to both of its inputs, so each input's
        # vjp must leave it as it was for the other: the sum's gradient is
        # the sum of the two gradients taken apart
        rng = np.random.default_rng(4)
        xv, yv = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        labels, weights = rng.integers(0, 4, size=5), rng.normal(size=())

        def branches(x):
            if pair == "kl+ce":
                # source_kd_loss's two heads on one logits tensor
                return (distill_kl(x, softmax_np(yv, 2.0), 2.0),
                        cross_entropy(x, labels))
            if pair == "mmd+mmd":
                return mmd_squared(x, 2, FIXED), mmd_squared(x, 3, FIXED)
            # overlapping row ranges of one logits tensor
            return (cross_entropy(x, labels[:2], slice(2)),
                    cross_entropy(x, labels[1:], slice(1, None)))

        g = Graph()
        x = g.tensor(xv)
        weighted_sum(ad.add(*branches(x)), weights).backward()
        apart = []
        for k in range(2):
            xk = Graph().tensor(xv)
            weighted_sum(branches(xk)[k], weights).backward()
            apart.append(xk.grad)
        assert same_bits(x.grad, apart[1] + apart[0])

import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kduda.autodiff as ad
from kduda.autodiff import Graph
from kduda.errors import ParameterError, ShapeError
from fdcheck import finite_diff_grad, relative_error


def scalarize(out, weight):
    """Fixed linear functional of a tensor output, so gradient checks see a
    generic downstream gradient instead of all-ones."""
    if out.values.shape == ():
        return ad.scalar_multiply(out, float(weight))
    return ad.multiply(out, out.graph.tensor(weight)).sum()


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
            return dense(Graph(), a, b0).sum().item()

        g = Graph()
        a = g.tensor(a0)
        ad.linear(a, g.tensor(b0), g.tensor(np.zeros(3))).sum().backward()
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
            return scalarize(dense(Graph(), x, np.eye(4), relu=True), w).item()

        g = Graph()
        x = g.tensor(x0)
        scalarize(ad.linear(x, g.tensor(np.eye(4)), g.tensor(np.zeros(4)),
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
        scalarize(out, weight).backward()
        for i, leaf in enumerate(leaves):
            def loss_at(v, i=i):
                gg = Graph()
                args = [gg.tensor(v if j == i else a) for j, a in enumerate(inputs)]
                return scalarize(ad.linear(*args, relu=relu), weight).item()

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
            loss = scalarize(h, weight)
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
    def test_symmetric_logits(self):
        g = Graph()
        for tau in (0.5, 1.0, 20.0):
            out = ad.softmax_temperature(g.tensor([[0.0, 0.0]]), tau)
            np.testing.assert_allclose(out.values, [[0.5, 0.5]])

    def test_hand_case(self):
        # logits [2, 0] at tau=2 soften to softmax([1, 0])
        g = Graph()
        out = ad.softmax_temperature(g.tensor([[2.0, 0.0]]), 2.0)
        e = np.e
        np.testing.assert_allclose(out.values, [[e / (e + 1), 1 / (e + 1)]],
                                   atol=1e-12)

    def test_huge_temperature_is_uniform(self):
        g = Graph()
        out = ad.softmax_temperature(g.tensor([[3.0, -1.0, 0.5]]), 1e6)
        np.testing.assert_allclose(out.values, 1.0 / 3.0, atol=1e-5)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            logits = rng.normal(scale=rng.uniform(0.1, 50.0), size=(5, 7))
            tau = rng.uniform(0.5, 30.0)
            g = Graph()
            p = ad.softmax_temperature(g.tensor(logits), tau).values
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert (p > 0).all()

    def test_invalid_temperature(self):
        g = Graph()
        with pytest.raises(ParameterError):
            ad.softmax_temperature(g.tensor([[1.0, 2.0]]), 0.0)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))

        def loss_at(x):
            g = Graph()
            return scalarize(ad.softmax_temperature(g.tensor(x), 3.0), w).item()

        g = Graph()
        x = g.tensor(x0)
        scalarize(ad.softmax_temperature(x, 3.0), w).backward()
        assert relative_error(finite_diff_grad(loss_at, x0.copy()), x.grad) < 1e-5


class TestBackward:
    def test_square_at_three(self):
        g = Graph()
        x = g.tensor(3.0)
        x.square().backward()
        np.testing.assert_allclose(x.grad, 6.0)

    def test_sum_of_relu(self):
        g = Graph()
        x = g.tensor([[-1.0, 2.0]])
        ad.linear(x, g.tensor(np.eye(2)), g.tensor(np.zeros(2)),
                  relu=True).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0]])

    def test_repeated_calls_accumulate(self):
        g = Graph()
        x = g.tensor([1.0, 2.0])
        loss = x.square().sum()
        loss.backward()
        loss.backward()
        np.testing.assert_allclose(x.grad, [4.0, 8.0])

    def test_non_scalar_loss_rejected(self):
        g = Graph()
        with pytest.raises(ShapeError):
            ad.backward(g.tensor([1.0, 2.0]))

    def test_fan_out_accumulates(self):
        # y = x*x + x used twice; dy/dx = 2x + 1
        g = Graph()
        x = g.tensor([2.0])
        ad.add(ad.multiply(x, x), x).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])


    def test_tape_counts_nodes_and_frees_without_the_cyclic_gc(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            g = Graph()
            x = g.tensor([1.0, 2.0])
            loss = x.square().sum()
            assert len(g.nodes) == 3
            assert g.nodes[0]() is x
            tape = weakref.ref(g)
            del g, x, loss
            assert tape() is None
        finally:
            if was_enabled:
                gc.enable()


class TestKernelBankMean:
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
            return ad.kernel_bank_mean(Graph().tensor(d), sigmas).item()

        g = Graph()
        d = g.tensor(d0)
        out = ad.kernel_bank_mean(d, sigmas)
        expected = np.mean([np.exp(-d0 / (2.0 * s * s)) for s in sigmas])
        np.testing.assert_allclose(out.item(), expected, rtol=1e-12)
        out.backward()
        assert relative_error(finite_diff_grad(loss_at, d0.copy()), d.grad) < 1e-5

    @pytest.mark.parametrize("sigmas", [(), (1.0, 0.0), (-1.0,)])
    def test_rejects_bad_bandwidths(self, sigmas):
        g = Graph()
        with pytest.raises(ParameterError):
            ad.kernel_bank_mean(g.tensor(np.ones((2, 2))), sigmas)

    def test_rejects_an_empty_block(self):
        g = Graph()
        with pytest.raises(ShapeError):
            ad.kernel_bank_mean(g.tensor(np.ones((0, 3))), (1.0,))


def _add_bias(g, a, b):
    """ad.linear through an identity weight; the leaves of a and b come first,
    in input order, and the weight is created after them."""
    x, bias = g.tensor(a), g.tensor(b)
    return ad.linear(x, g.tensor(np.eye(a.shape[1])), bias)


PRIMITIVE_CASES = [
    ("add", lambda g, a, b: ad.add(g.tensor(a), g.tensor(b)), [(3, 4), (3, 4)]),
    ("subtract", lambda g, a, b: ad.subtract(g.tensor(a), g.tensor(b)), [(3, 4), (3, 4)]),
    ("multiply", lambda g, a, b: ad.multiply(g.tensor(a), g.tensor(b)), [(3, 4), (3, 4)]),
    ("scalar_multiply", lambda g, a: ad.scalar_multiply(g.tensor(a), -1.7), [(3, 4)]),
    ("sum", lambda g, a: g.tensor(a).sum(), [(4, 5)]),
    ("mean", lambda g, a: g.tensor(a).mean(), [(4, 5)]),
    ("exp", lambda g, a: g.tensor(a).exp(), [(3, 3)]),
    ("square", lambda g, a: g.tensor(a).square(), [(3, 3)]),
    ("linear", lambda g, a, b, c: ad.linear(g.tensor(a), g.tensor(b), g.tensor(c)),
     [(3, 4), (4, 2), (2,)]),
    # the matrix product and the bias broadcast inside ad.linear, each on its own
    ("matmul", lambda g, a, b: dense(g, a, b), [(3, 4), (4, 2)]),
    ("broadcast_add_bias", lambda g, a, b: _add_bias(g, a, b), [(4, 3), (3,)]),
    ("gather_rows",
     lambda g, a: ad.gather_rows(g.tensor(a), [0, 2, 2, 1]), [(4, 3)]),
    ("concatenate_rows",
     lambda g, a, b: ad.concatenate_rows(g.tensor(a), g.tensor(b)), [(3, 2), (2, 2)]),
    ("pairwise_sqdist",
     lambda g, a, b: ad.pairwise_sqdist(g.tensor(a), g.tensor(b)), [(4, 3), (3, 3)]),
]


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name,builder,shapes",
                             PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
    def test_matches_finite_differences(self, name, builder, shapes):
        rng = np.random.default_rng(hash(name) % 2**32)
        inputs = [rng.normal(size=s) for s in shapes]
        g = Graph()
        out = builder(g, *inputs)
        weight = rng.normal(size=out.values.shape) if out.values.shape else rng.normal()

        for i in range(len(inputs)):
            def loss_at(xi, i=i):
                args = [x if j != i else xi for j, x in enumerate(inputs)]
                gg = Graph()
                return scalarize(builder(gg, *args), weight).item()

            gg = Graph()
            args = list(inputs)
            out_t = builder(gg, *args)
            loss = scalarize(out_t, weight)
            loss.backward()
            # the i-th created leaf on this graph is the i-th input; the
            # tape holds weak references, and out_t keeps the leaves alive
            leaf = gg.nodes[i]()
            np.testing.assert_allclose(leaf.values, inputs[i])
            assert leaf.grad is not None, f"{name}: input {i} got no gradient"
            numeric = finite_diff_grad(loss_at, inputs[i].copy())
            err = relative_error(numeric, leaf.grad)
            assert err < 1e-5, f"{name} input {i}: relative error {err:.2e}"


class TestLog:
    def test_plain_log_gradient(self):
        rng = np.random.default_rng(11)
        x0 = np.abs(rng.normal(size=(3, 3))) + 0.5
        w = rng.normal(size=(3, 3))

        def loss_at(x):
            g = Graph()
            return scalarize(g.tensor(x).log(), w).item()

        g = Graph()
        x = g.tensor(x0)
        scalarize(x.log(), w).backward()
        assert relative_error(finite_diff_grad(loss_at, x0.copy()), x.grad) < 1e-5

    def test_floored_log_clamps_value_and_gradient(self):
        g = Graph()
        x = g.tensor([1e-20, 1.0])
        out = x.log(floor=1e-12)
        np.testing.assert_allclose(out.values, [np.log(1e-12), 0.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])


class TestGatherConcat:
    def test_gather_values_and_scatter_add(self):
        g = Graph()
        x = g.tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = ad.gather_rows(x, [2, 0, 2])
        np.testing.assert_allclose(out.values, [[5, 6], [1, 2], [5, 6]])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[1, 1], [0, 0], [2, 2]])

    def test_gather_index_out_of_range(self):
        g = Graph()
        with pytest.raises(ParameterError):
            ad.gather_rows(g.tensor(np.ones((2, 2))), [0, 5])

    def test_concatenate_values(self):
        g = Graph()
        out = ad.concatenate_rows(g.tensor([[1.0, 2.0]]), g.tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.values, [[1, 2], [3, 4]])

    def test_concatenate_width_mismatch(self):
        g = Graph()
        with pytest.raises(ShapeError):
            ad.concatenate_rows(g.tensor(np.ones((1, 2))), g.tensor(np.ones((1, 3))))


class TestPairwiseSqdist:
    def test_hand_values(self):
        g = Graph()
        out = ad.pairwise_sqdist(g.tensor([[0.0, 0.0], [1.0, 1.0]]),
                                 g.tensor([[1.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[1.0], [1.0]])

    def test_self_distances_zero_diagonal(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        g = Graph()
        d = ad.pairwise_sqdist(g.tensor(x), g.tensor(x)).values
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-12)
        assert (d >= 0).all()


class TestGraphDeterminism:
    def _run(self):
        rng = np.random.default_rng(42)
        x0 = rng.normal(size=(4, 3))
        w0 = rng.normal(size=(3, 2))
        g = Graph()
        x, w = g.tensor(x0), g.tensor(w0)
        loss = ad.linear(x, w, g.tensor(np.zeros(2)), relu=True).square().mean()
        loss.backward()
        return loss.values.copy(), w.grad.copy()

    def test_bitwise_identical_across_runs(self):
        v1, g1 = self._run()
        v2, g2 = self._run()
        assert v1.tobytes() == v2.tobytes()
        assert g1.tobytes() == g2.tobytes()


class TestElementwiseShapeChecks:
    @pytest.mark.parametrize("op", [ad.add, ad.subtract, ad.multiply])
    def test_mismatch_raises(self, op):
        g = Graph()
        with pytest.raises(ShapeError):
            op(g.tensor(np.ones((2, 2))), g.tensor(np.ones((2, 3))))

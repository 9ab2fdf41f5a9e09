import weakref

import numpy as np
import pytest

import kduda.autodiff as ad
from kduda.autodiff import Graph
from kduda.errors import ParameterError, ShapeError
from kduda.losses import KernelConfig, mmd_squared
from kduda.models import Model, ModelSpec, build, count_complexity
from fdcheck import (finite_diff_grad, old_predict_logits, relative_error,
                     weighted_sum)


class TestBuild:
    def test_weight_shapes(self):
        model = build(ModelSpec(2, (4,), 3))
        assert [w.shape for w in model.weights] == [(2, 4), (4, 3)]
        assert [b.shape for b in model.biases] == [(4,), (3,)]

    def test_biases_zero_weights_within_glorot_bounds(self):
        model = build(ModelSpec(5, (7, 3), 4, seed=9))
        for b in model.biases:
            np.testing.assert_allclose(b, 0.0)
        for w in model.weights:
            limit = np.sqrt(6.0 / sum(w.shape))
            assert np.abs(w).max() <= limit

    def test_same_seed_bitwise_identical(self):
        a = build(ModelSpec(3, (8, 4), 2, seed=5))
        b = build(ModelSpec(3, (8, 4), 2, seed=5))
        for wa, wb in zip(a.parameters(), b.parameters()):
            assert wa.tobytes() == wb.tobytes()

    def test_different_seeds_differ(self):
        a = build(ModelSpec(3, (8, 4), 2, seed=5))
        b = build(ModelSpec(3, (8, 4), 2, seed=6))
        assert any(not np.array_equal(wa, wb)
                   for wa, wb in zip(a.parameters(), b.parameters()))

    def test_invalid_specs(self):
        with pytest.raises(ParameterError):
            ModelSpec(0, (4,), 2)
        with pytest.raises(ParameterError):
            ModelSpec(2, (), 2)
        with pytest.raises(ParameterError):
            ModelSpec(2, (4,), 1)


class TestPredictLogits:
    @pytest.mark.parametrize("hidden", [(1,), (5,), (16, 7), (9, 33, 4)])
    def test_matches_the_allocating_reference(self, hidden):
        model = build(ModelSpec(3, hidden, 4, seed=len(hidden)))
        rng = np.random.default_rng(sum(hidden))
        model.biases[0][:] = rng.normal(size=hidden[0])
        x = rng.normal(size=(37, 3))
        x[0] = (np.nan, 1.0, 0.0)
        x[1] = (np.inf, -np.inf, 1.0)
        x[2] = (-0.0, 0.0, -0.0)
        x[3] = (1e300, -1e300, 1e300)
        with np.errstate(invalid="ignore", over="ignore"):
            new, old = model.predict_logits(x), old_predict_logits(model, x)
        assert new.tobytes() == old.tobytes()

    def test_leaves_its_input_and_parameters_alone(self):
        model = build(ModelSpec(3, (5, 4), 2))
        x = np.random.default_rng(1).normal(size=(6, 3))
        before = [p.copy() for p in [x, *model.parameters()]]
        model.predict_logits(x)
        for p, kept in zip([x, *model.parameters()], before):
            assert np.array_equal(p, kept)


class TestForward:
    def test_zero_weights_zero_features(self):
        model = build(ModelSpec(3, (5,), 2))
        for w in model.weights:
            w[...] = 0.0
        g = Graph()
        feats = model.features(g.tensor(np.ones((4, 3))))
        np.testing.assert_allclose(feats.values, 0.0)

    def test_zero_weights_uniform_softmax(self):
        model = build(ModelSpec(3, (5,), 4))
        for w in model.weights:
            w[...] = 0.0
        g = Graph()
        logits = model.logits(g.tensor(np.ones((2, 3))))
        np.testing.assert_allclose(logits.values, 0.0)
        probs = ad.softmax_temperature(logits, 1.0)
        np.testing.assert_allclose(probs.values, 0.25)

    def test_hand_one_hidden_unit(self):
        # x=[1], W1=[2], b1=[0], W2=[[1],[-1]], b2=[0,0] -> logits [2, -2]
        model = Model(ModelSpec(1, (1,), 2),
                      weights=[np.array([[2.0]]), np.array([[1.0, -1.0]])],
                      biases=[np.zeros(1), np.zeros(2)])
        g = Graph()
        out = model.logits(g.tensor([[1.0]]))
        np.testing.assert_allclose(out.values, [[2.0, -2.0]])

    def test_batch_row_independence(self):
        model = build(ModelSpec(4, (6, 3), 2, seed=1))
        x = np.random.default_rng(2).normal(size=(5, 4))
        full = model.predict_logits(x)
        for i in range(5):
            row = model.predict_logits(x[i:i + 1])
            np.testing.assert_allclose(row, full[i:i + 1], atol=1e-12)

    def test_logits_share_feature_nodes(self):
        model = build(ModelSpec(2, (3,), 2, seed=0))
        g = Graph()
        x = g.tensor(np.ones((2, 2)))
        feats = model.features(x)
        n_before = len(g)
        logits = model.logits(x)
        # the head adds exactly one node (ad.linear); features were reused
        assert len(g) == n_before + 1
        assert model.features(x) is feats
        assert model.logits(x) is logits

    def test_each_layer_is_one_node(self):
        model = build(ModelSpec(2, (5, 4, 3), 2, seed=0))
        g = Graph()
        model.logits(g.tensor(np.ones((3, 2))))
        # input leaf, 8 parameter leaves, one node per layer
        assert len(g) == 1 + 8 + 4

    def test_reading_gradients_releases_the_graph(self):
        model = build(ModelSpec(2, (3,), 2, seed=0))
        g = Graph()
        weighted_sum(model.logits(g.tensor(np.ones((2, 2)))), np.ones((2, 2))).backward()
        tape = weakref.ref(g)
        grads = model.bound_gradients()
        assert [gr.shape for gr in grads] == [p.shape for p in model.parameters()]
        del g
        assert tape() is None
        with pytest.raises(ParameterError, match="not bound"):
            model.bound_gradients()

    def test_graph_forward_matches_numpy_forward(self):
        model = build(ModelSpec(3, (8, 5), 4, seed=3))
        x = np.random.default_rng(4).normal(size=(6, 3))
        g = Graph()
        np.testing.assert_allclose(model.logits(g.tensor(x)).values,
                                   model.predict_logits(x), atol=1e-12)

    def test_input_dim_mismatch(self):
        model = build(ModelSpec(3, (4,), 2))
        g = Graph()
        with pytest.raises(ShapeError):
            model.features(g.tensor(np.ones((2, 5))))

    def test_mmd_of_features_gradient_wrt_first_layer(self):
        model = build(ModelSpec(2, (4,), 2, seed=7))
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(5, 2))
        xt = rng.normal(size=(6, 2)) + 1.0
        kernel = KernelConfig(mode="fixed", bandwidths=(1.0, 2.0))

        def loss_at(w1):
            model.weights[0][...] = w1
            g = Graph()
            return mmd_squared(model.features(g.tensor(xs)),
                               model.features(g.tensor(xt)), kernel).item()

        w0 = model.weights[0].copy()
        g = Graph()
        loss = mmd_squared(model.features(g.tensor(xs)),
                           model.features(g.tensor(xt)), kernel)
        loss.backward()
        analytic = model.bound_gradients()[0]
        numeric = finite_diff_grad(loss_at, w0.copy())
        model.weights[0][...] = w0
        assert relative_error(numeric, analytic) < 1e-5


class TestComplexity:
    def test_hand_count_two_hidden(self):
        # (2*32+32) + (32*16+16) + (16*3+3) = 96 + 528 + 51
        assert count_complexity(ModelSpec(2, (32, 16), 3)) == (675, 624)

    def test_default_teacher_hand_count(self):
        # (2*128+128) + (128*128+128) + (128*64+64) + (64*2+2)
        #   = 384 + 16512 + 8256 + 130 = 25282
        # MACs: 256 + 16384 + 8192 + 128 = 24960
        assert count_complexity(ModelSpec(2, (128, 128, 64), 2)) == (25282, 24960)

    def test_single_hidden_base_case(self):
        d, h, c = 3, 4, 2
        params, macs = count_complexity(ModelSpec(d, (h,), c))
        assert params == (d * h + h) + (h * c + c)
        assert macs == d * h + h * c

    def test_teacher_wider_means_more_params(self):
        t = count_complexity(ModelSpec(2, (128, 128, 64), 3))
        s = count_complexity(ModelSpec(2, (32, 16), 3))
        assert t[0] > s[0] and t[1] > s[1]

    def test_invariant_under_parameter_values(self):
        model = build(ModelSpec(2, (4,), 3, seed=0))
        model.weights[0][...] = 1e9
        params, macs = count_complexity(model.spec)
        assert params == sum(p.size for p in model.parameters())
        assert macs == sum(w.size for w in model.weights)

    def test_default_student_macs_below_half_teacher(self):
        t = count_complexity(ModelSpec(2, (128, 128, 64), 3))
        for hidden in ((64, 32), (32, 16)):
            s = count_complexity(ModelSpec(2, hidden, 3))
            assert s[1] < 0.5 * t[1]


import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kduda.autodiff as ad
from kduda.errors import ParameterError, ShapeError
from kduda.losses import (
    PROB_FLOOR,
    KernelConfig,
    cross_entropy,
    distill_kl,
    mmd_squared,
    softmax_np,
    soft_targets,
    source_kd_loss,
    target_kd_loss,
    teacher_da_loss,
)
from kduda.losses import _median_of_roots, _pair_index, _pair_sqdist
from kduda.models import ModelSpec, build
from kduda.trainer import TrainConfig

from fdcheck import (exp, finite_diff_grad, log, mean, median_of_roots,
                     old_cross_entropy, old_distill_kl, old_mmd_squared,
                     old_pairwise_sqdist, old_resolve, old_softmax_np,
                     relative_error, weighted_sum)


def mmd_value(fs, ft, kernel):
    g = ad.Graph()
    return mmd_squared(g.tensor(fs), g.tensor(ft), kernel).item()


def brute_force_mmd(fs, ft, sigmas):
    """All-pairs estimator written as plain double loops."""

    def k(x, y):
        d2 = float(((x - y) ** 2).sum())
        return sum(math.exp(-d2 / (2.0 * s * s)) for s in sigmas) / len(sigmas)

    def block(a, b):
        return sum(k(x, y) for x in a for y in b) / (len(a) * len(b))

    return block(fs, fs) + block(ft, ft) - 2.0 * block(fs, ft)


def pooled_median_bandwidths(fs, ft, multipliers=(0.25, 0.5, 1.0, 2.0, 4.0)):
    """Median-heuristic bandwidths from one pooled distance matrix, the way
    KernelConfig.resolve formed them before it took the three blocks."""
    pooled = np.concatenate([fs, ft], axis=0)
    sq = (pooled * pooled).sum(axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (pooled @ pooled.T), 0.0)
    med = float(np.median(np.sqrt(d2[np.triu_indices(pooled.shape[0], k=1)])))
    return tuple(med * m for m in multipliers)


def unfused_mmd(fs, ft, sigmas):
    """The estimator as a 5 x (scale, exp, add) + scale + mean composition
    per block."""

    def kernel_mean(a, b):
        d = old_pairwise_sqdist(a, b)
        acc = None
        for s in sigmas:
            k = exp(ad.scalar_multiply(d, -1.0 / (2.0 * s * s)))
            acc = k if acc is None else ad.add(acc, k)
        return mean(ad.scalar_multiply(acc, 1.0 / len(sigmas)))

    within = ad.add(kernel_mean(fs, fs), kernel_mean(ft, ft))
    return ad.add(within, ad.scalar_multiply(kernel_mean(fs, ft), -2.0))


def pooled_pairs(fs, ft):
    """The squared distances of the pooled sample [fs; ft]'s distinct pairs,
    by differences, in the order mmd_squared takes them."""
    z = np.concatenate([fs, ft], axis=-2)
    d = ((z[..., :, None, :] - z[..., None, :, :]) ** 2).sum(axis=-1)
    return d.reshape(d.shape[:-2] + (-1,))[..., _pair_index(fs.shape[-2],
                                                            ft.shape[-2])]


def node_pairs(fs, ft):
    """mmd_squared's own pair distances of [fs; ft], and the blocks of the
    reference's pooled distance matrix, which holds the same bits."""
    z = np.concatenate([fs, ft], axis=-2)
    g = ad.Graph()
    d = old_pairwise_sqdist(g.tensor(z), g.tensor(z)).values
    ns = fs.shape[-2]
    return (_pair_sqdist(z, _pair_index(ns, ft.shape[-2])),
            (d[..., :ns, :ns], d[..., ns:, ns:], d[..., :ns, ns:]))


def soft(teacher, x, tau):
    """The teacher's soft targets on x alone."""
    return soft_targets(teacher, tau, x)[0]


def unfused_cross_entropy(probs, labels):
    """Cross-entropy as floored log, one-hot weighted sum and scale nodes:
    the composition the one-node cross_entropy replaces."""
    n, c = probs.values.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    picked = weighted_sum(log(probs, PROB_FLOOR), onehot)
    return ad.scalar_multiply(picked, -1.0 / n)


def unfused_distill_kl(student_soft, t, tau, scale_by_tau_sq=True):
    """Distillation KL as floored log, weighted sum, scale, add and tau^2
    nodes: the composition the one-node distill_kl replaces."""
    inv_n = 1.0 / t.shape[0]
    graph = student_soft.graph
    cross = ad.scalar_multiply(
        weighted_sum(log(student_soft, PROB_FLOOR), t), -inv_n)
    entropy = float((t * np.log(np.maximum(t, PROB_FLOOR))).sum() * inv_n)
    kl = ad.add(cross, graph.tensor(entropy))
    if scale_by_tau_sq:
        kl = ad.scalar_multiply(kl, tau * tau)
    return kl


def _probs_with_clamped_entries(rng, rows, classes, clamp):
    """Row inputs for the floored log. With clamp, some entries sit far
    below PROB_FLOOR, so central differences stay on the flat side of the
    clamp; otherwise every entry is well above it."""
    p = rng.uniform(0.05, 1.0, size=(rows, classes))
    if clamp:
        low = rng.random((rows, classes)) < 0.4
        low.flat[rng.integers(low.size)] = True
        p[low] = -rng.uniform(0.1, 1.0, size=int(low.sum()))
    return p


def _flat_params(model):
    return np.concatenate([p.ravel() for p in model.parameters()])


def _set_params(model, flat):
    pos = 0
    for p in model.parameters():
        n = p.size
        p[...] = np.asarray(flat[pos:pos + n]).reshape(p.shape)
        pos += n


class TestKernelConfig:
    def test_median_resolution_two_points(self):
        # pooled distances reduce to the single value |(3,4)| = 5
        kc = KernelConfig()
        fs = np.array([[0.0, 0.0]])
        ft = np.array([[3.0, 4.0]])
        assert tuple(kc.resolve(pooled_pairs(fs, ft))) == (1.25, 2.5, 5.0, 10.0, 20.0)

    def test_fixed_mode_passthrough(self):
        kc = KernelConfig(mode="fixed", bandwidths=(0.5, 2.0))
        pairs = pooled_pairs(np.zeros((2, 3)), np.ones((2, 3)))
        assert tuple(kc.resolve(pairs)) == (0.5, 2.0)

    def test_degenerate_batch_falls_back_to_unit_bandwidth(self):
        kc = KernelConfig()
        fs = np.zeros((2, 2))
        ft = np.zeros((3, 2))
        assert tuple(kc.resolve(pooled_pairs(fs, ft))) == (0.25, 0.5, 1.0, 2.0, 4.0)

    @pytest.mark.parametrize("rows_s,rows_t,width,seed",
                             [(1, 1, 1, 0), (4, 7, 3, 1), (32, 32, 16, 2),
                              (9, 2, 5, 3), (32, 16, 16, 4), (2, 2, 3, 5)])
    def test_blocks_give_the_pooled_median(self, rows_s, rows_t, width, seed):
        # mmd_squared's pairs give what the three blocks of the same pooled
        # matrix gave
        rng = np.random.default_rng(seed)
        fs = rng.normal(size=(rows_s, width))
        ft = rng.normal(size=(rows_t, width)) + 0.7
        pairs, blocks = node_pairs(fs, ft)
        np.testing.assert_allclose(KernelConfig().resolve(pairs),
                                   pooled_median_bandwidths(fs, ft), rtol=1e-12)
        assert tuple(KernelConfig().resolve(pairs)) == tuple(
            old_resolve(KernelConfig(), *blocks))

    @settings(max_examples=150, deadline=None)
    @given(rows_s=st.integers(1, 9), rows_t=st.integers(1, 9),
           width=st.integers(1, 3), data=st.sampled_from(["normal", "ties", "identical"]),
           seed=st.integers(0, 2**32 - 1))
    def test_partition_median_is_bitwise_np_median(self, rows_s, rows_t,
                                                    width, data, seed):
        # pair counts s(s-1)/2 + t(t-1)/2 + s*t cover odd and even sizes;
        # rounded coordinates give tied distances
        rng = np.random.default_rng(seed)
        fs = rng.normal(size=(rows_s, width))
        ft = rng.normal(size=(rows_t, width)) + 0.5
        if data == "ties":
            fs, ft = np.round(fs), np.round(ft)
        elif data == "identical":
            fs, ft = np.ones_like(fs), np.ones_like(ft)
        pairs, blocks = node_pairs(fs, ft)
        kc = KernelConfig()
        expected = tuple(old_resolve(kc, *blocks))
        # resolve must not reorder the pairs it reads
        before = pairs.copy()
        assert tuple(kc.resolve(pairs)) == expected
        assert np.array_equal(pairs, before)

    def test_a_nan_distance_gives_nan_bandwidths_like_np_median(self):
        pairs = pooled_pairs(np.zeros((3, 2)), np.ones((3, 2)))
        pairs[7] = np.nan
        assert all(math.isnan(b) for b in KernelConfig().resolve(pairs))

    def test_validation(self):
        with pytest.raises(ParameterError):
            KernelConfig(mode="gaussian")
        with pytest.raises(ParameterError):
            KernelConfig(mode="fixed")
        with pytest.raises(ParameterError):
            KernelConfig(mode="fixed", bandwidths=(1.0, -2.0))
        with pytest.raises(ParameterError):
            KernelConfig(median_multipliers=())


def _same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or (
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


class TestMedianOfRoots:
    """The one-rank partition median equals np.median(np.sqrt(x)) bit for
    bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 11, 64, 129, 1000, 1001])
    @pytest.mark.parametrize("data", ["normal", "ties", "zeros", "nan",
                                      "many_nan", "all_nan", "inf"])
    def test_equals_np_median_of_roots(self, n, data):
        rng = np.random.default_rng(n)
        x = rng.random(n) * 10.0
        if data == "ties":
            x = np.round(x / 3.0)
        elif data == "zeros":
            x[: n // 2 + 1] = 0.0
        elif data == "nan":
            x[rng.integers(n)] = np.nan
        elif data == "many_nan":
            x[rng.random(n) < 0.6] = np.nan
        elif data == "all_nan":
            x[:] = np.nan
        elif data == "inf":
            x[rng.integers(n)] = np.inf
        expected = median_of_roots(x)
        assert _same_float(_median_of_roots(x.copy()), expected)

    def test_upper_middle_nan_with_finite_lower_middle(self):
        # nans fill the upper half, so the upper middle rank is a nan while
        # the lower middle is finite
        x = np.array([4.0, np.nan, 1.0, np.nan, 9.0, np.nan, np.nan, 16.0])
        assert math.isnan(median_of_roots(x))
        assert math.isnan(_median_of_roots(x.copy()))


class TestSoftmaxNp:
    @pytest.mark.parametrize("tau", [0.05, 1.0, 20.0])
    def test_matches_the_allocating_reference(self, tau):
        rng = np.random.default_rng(7)
        logits = np.array([[1e4, -1e4, 0.0], [-745.0, -1e300, -700.0],
                           [1e300, 1e300, -1e300], [5.0, 5.0, 5.0],
                           [0.0, -0.0, 1e-320], [np.inf, 1.0, 2.0],
                           [-np.inf, 1.0, np.nan]])
        logits = np.vstack([logits, rng.normal(scale=50.0, size=(9, 3))])
        with np.errstate(invalid="ignore", over="ignore"):
            new, old = softmax_np(logits, tau), old_softmax_np(logits, tau)
        assert new.tobytes() == old.tobytes()

    def test_leaves_its_input_alone(self):
        logits = np.arange(6.0).reshape(2, 3)
        softmax_np(logits, 1.0)
        assert np.array_equal(logits, np.arange(6.0).reshape(2, 3))


class TestMmd:
    def test_identical_sets_give_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 4))
        assert abs(mmd_value(x, x.copy(), KernelConfig())) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        fs = rng.normal(size=(6, 3))
        ft = rng.normal(size=(9, 3)) + 0.5
        kc = KernelConfig()
        assert abs(mmd_value(fs, ft, kc) - mmd_value(ft, fs, kc)) <= 1e-12

    def test_two_singletons_closed_form(self):
        # one bandwidth sigma = 1 and |a - b|^2 = 2 sigma^2 gives 2 - 2/e
        kc = KernelConfig(mode="fixed", bandwidths=(1.0,))
        fs = np.array([[0.0, 0.0]])
        ft = np.array([[math.sqrt(2.0), 0.0]])
        expected = 2.0 - 2.0 * math.exp(-1.0)
        np.testing.assert_allclose(mmd_value(fs, ft, kc), expected, rtol=0, atol=1e-9)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        fs = rng.normal(size=(5, 3))
        ft = rng.normal(size=(4, 3)) + 0.3
        kc = KernelConfig()
        # replicate the median heuristic independently, then brute-force sums
        pooled = np.vstack([fs, ft])
        dists = [float(np.linalg.norm(pooled[i] - pooled[j]))
                 for i in range(len(pooled)) for j in range(i + 1, len(pooled))]
        med = float(np.median(dists))
        sigmas = [med * m for m in (0.25, 0.5, 1.0, 2.0, 4.0)]
        expected = brute_force_mmd(fs, ft, sigmas)
        np.testing.assert_allclose(mmd_value(fs, ft, kc), expected, rtol=0, atol=1e-10)

    def test_fixed_kernel_matches_double_loop_oracle(self):
        rng = np.random.default_rng(12)
        fs = rng.normal(size=(5, 2))
        ft = rng.normal(size=(6, 2)) - 0.4
        sigmas = (0.7, 1.9)
        kc = KernelConfig(mode="fixed", bandwidths=sigmas)
        expected = brute_force_mmd(fs, ft, sigmas)
        np.testing.assert_allclose(mmd_value(fs, ft, kc), expected, rtol=0, atol=1e-10)

    def test_mean_shift_increases_discrepancy(self):
        kc = KernelConfig()
        means = []
        for mu in (0.0, 0.5, 1.0, 2.0):
            vals = []
            for k in range(10):
                rng = np.random.default_rng(100 + k)
                fs = rng.normal(size=(200, 2))
                ft = rng.normal(size=(200, 2)) + np.array([mu, 0.0])
                vals.append(mmd_value(fs, ft, kc))
            means.append(float(np.mean(vals)))
        assert means[0] < means[1] < means[2] < means[3]
        assert means[0] < 0.01

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        fs0 = rng.normal(size=(4, 3))
        ft0 = rng.normal(size=(5, 3))
        kc = KernelConfig(mode="fixed", bandwidths=(0.8, 1.6))

        g = ad.Graph()
        fs = g.tensor(fs0)
        ft = g.tensor(ft0)
        mmd_squared(fs, ft, kc).backward()

        def f(flat):
            gg = ad.Graph()
            a = gg.tensor(flat[:fs0.size].reshape(fs0.shape))
            b = gg.tensor(flat[fs0.size:].reshape(ft0.shape))
            return mmd_squared(a, b, kc).item()

        flat0 = np.concatenate([fs0.ravel(), ft0.ravel()])
        numeric = finite_diff_grad(f, flat0)
        analytic = np.concatenate([fs.grad.ravel(), ft.grad.ravel()])
        assert relative_error(numeric, analytic) < 1e-6

    @pytest.mark.parametrize("rows_s,rows_t,width,seed",
                             [(1, 1, 1, 0), (5, 3, 2, 1), (32, 32, 64, 2),
                              (7, 12, 4, 3)])
    def test_fused_bank_matches_the_unfused_composition(self, rows_s, rows_t,
                                                        width, seed):
        rng = np.random.default_rng(seed)
        fs0 = rng.normal(size=(rows_s, width))
        ft0 = rng.normal(size=(rows_t, width)) + 0.5
        sigmas = pooled_median_bandwidths(fs0, ft0)
        kernel = KernelConfig(mode="fixed", bandwidths=sigmas)
        runs = []
        for build_mmd in (lambda a, b: mmd_squared(a, b, kernel),
                          lambda a, b: unfused_mmd(a, b, sigmas)):
            g = ad.Graph()
            fs, ft = g.tensor(fs0), g.tensor(ft0)
            value = build_mmd(fs, ft)
            value.backward()
            runs.append((value.item(), fs.grad, ft.grad))
        (new, new_gs, new_gt), (old, old_gs, old_gt) = runs
        assert abs(new - old) <= 1e-12
        np.testing.assert_allclose(new_gs, old_gs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(new_gt, old_gt, rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ns=st.integers(1, 39), nt=st.integers(1, 39), width=st.integers(1, 8),
           stack=st.sampled_from([(), (3,)]), median=st.booleans(),
           weight=st.sampled_from([1.0, 0.3, -2.5]), ties=st.booleans(),
           chunk=st.sampled_from([7, 8192]), seed=st.integers(0, 2**32 - 1))
    def test_one_node_matches_the_nine_node_composition(self, ns, nt, width,
                                                         stack, median, weight,
                                                         ties, chunk, seed):
        rng = np.random.default_rng(seed)
        fs0 = rng.normal(size=stack + (ns, width))
        ft0 = rng.normal(size=stack + (nt, width)) + 0.5
        if ties:  # repeated points and tied distances
            fs0, ft0 = np.round(fs0), np.round(ft0)
        # where over half the pairs repeat one nonzero point, the median is
        # the root of rounding noise, old and new alike, and they differ
        z = np.concatenate([fs0, ft0], axis=-2)
        repeat = ((z[..., :, None, :] == z[..., None, :, :]).all(axis=-1)
                  & (z != 0).any(axis=-1)[..., :, None])
        index = _pair_index(ns, nt)
        noisy = repeat.reshape(stack + (-1,))[..., index].sum(axis=-1)
        assume(median is False or np.all(2 * noisy < index.size))
        kernel = KernelConfig() if median else KernelConfig(
            mode="fixed", bandwidths=(0.6, 1.7, 4.0))
        runs = []
        for build_mmd in (mmd_squared, old_mmd_squared):
            g = ad.Graph(stack)
            fs, ft = g.tensor(fs0), g.tensor(ft0)
            # the kernel bank in passes of 7 pairs, or in one pass
            with mock.patch("kduda.losses._PAIR_CHUNK", chunk):
                value = build_mmd(fs, ft, kernel)
            value.backward(weight)
            runs.append((value.values, fs.grad, ft.grad))
        (new, new_gs, new_gt), (old, old_gs, old_gt) = runs
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-13)
        scale = max(np.abs(old_gs).max(), np.abs(old_gt).max())
        np.testing.assert_allclose(new_gs, old_gs, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(new_gt, old_gt, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("rows_s,rows_t", [(1, 1), (1, 4), (5, 1), (6, 6)])
    @pytest.mark.parametrize("weight", [1.0, -2.5])
    def test_every_block_shape_matches_finite_differences(self, rows_s, rows_t,
                                                          weight):
        rng = np.random.default_rng(rows_s * 10 + rows_t)
        fs0 = rng.normal(size=(rows_s, 3))
        ft0 = rng.normal(size=(rows_t, 3)) + 0.4
        kc = KernelConfig(mode="fixed", bandwidths=(0.5, 1.1, 2.3))
        g = ad.Graph()
        fs, ft = g.tensor(fs0), g.tensor(ft0)
        mmd_squared(fs, ft, kc).backward(weight)

        def f(flat):
            a = flat[:fs0.size].reshape(fs0.shape)
            b = flat[fs0.size:].reshape(ft0.shape)
            return weight * mmd_value(a, b, kc)

        numeric = finite_diff_grad(f, np.concatenate([fs0.ravel(), ft0.ravel()]))
        analytic = np.concatenate([fs.grad.ravel(), ft.grad.ravel()])
        assert relative_error(numeric, analytic) < 1e-6

    @pytest.mark.parametrize("median", [True, False, "vanishing"])
    def test_a_nan_feature_gives_a_nan_value(self, median):
        # no exception: the trainer's finiteness check turns it into an
        # abort. A vanishing bandwidth's square underflows, so its kernel
        # slopes are nan on finite features, and the value must be nan too
        fs = np.ones((4, 3))
        if median == "vanishing":
            kc = KernelConfig(mode="fixed", bandwidths=(1.0, 1e-300))
        else:
            fs[2, 1] = np.nan
            kc = KernelConfig() if median else KernelConfig(mode="fixed",
                                                            bandwidths=(1.0,))
        with np.errstate(divide="ignore", invalid="ignore"):
            assert math.isnan(mmd_value(fs, np.zeros((5, 3)), kc))

    def test_shape_and_emptiness_errors(self):
        g = ad.Graph()
        kc = KernelConfig()
        with pytest.raises(ShapeError):
            mmd_squared(g.tensor(np.zeros((4, 3))), g.tensor(np.zeros((4, 2))), kc)
        with pytest.raises(ShapeError):
            mmd_squared(g.tensor(np.zeros(4)), g.tensor(np.zeros(4)), kc)
        with pytest.raises(ParameterError):
            mmd_squared(g.tensor(np.zeros((0, 3))), g.tensor(np.zeros((4, 3))), kc)


class TestCrossEntropy:
    def test_certain_correct_prediction_costs_nothing(self):
        g = ad.Graph()
        probs = g.tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert cross_entropy(probs, np.array([0, 1])).item() == 0.0

    def test_uniform_prediction_costs_log_classes(self):
        g = ad.Graph()
        probs = g.tensor(np.full((3, 4), 0.25))
        val = cross_entropy(probs, np.array([0, 2, 3])).item()
        np.testing.assert_allclose(val, math.log(4.0), rtol=0, atol=1e-12)

    def test_hand_value(self):
        g = ad.Graph()
        probs = g.tensor(np.array([[0.25, 0.75]]))
        val = cross_entropy(probs, np.array([0])).item()
        np.testing.assert_allclose(val, -math.log(0.25), rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 3))
        p0 = softmax_np(logits, 1.0)
        labels = np.array([0, 1, 2, 0, 1, 2])

        g = ad.Graph()
        probs = g.tensor(p0)
        cross_entropy(probs, labels).backward()

        def f(flat):
            gg = ad.Graph()
            return cross_entropy(gg.tensor(flat.reshape(p0.shape)), labels).item()

        numeric = finite_diff_grad(f, p0.ravel())
        assert relative_error(numeric, probs.grad.ravel()) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 5), classes=st.integers(2, 4), clamp=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_one_node_matches_finite_differences(self, rows, classes, clamp, seed):
        rng = np.random.default_rng(seed)
        p0 = _probs_with_clamped_entries(rng, rows, classes, clamp)
        labels = rng.integers(classes, size=rows)
        if clamp:
            # at least one true-class entry is clamped, so its zero
            # gradient is checked too
            p0[0, labels[0]] = -0.5

        g = ad.Graph()
        probs = g.tensor(p0)
        loss = cross_entropy(probs, labels)
        assert len(g) == 2
        loss.backward()

        def f(flat):
            return cross_entropy(ad.Graph().tensor(flat.reshape(p0.shape)), labels).item()

        assert relative_error(finite_diff_grad(f, p0.ravel()), probs.grad.ravel()) < 1e-6
        if clamp:
            assert probs.grad[0, labels[0]] == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_equal_to_the_unfused_composition(self, seed):
        # logits spread wide enough that some softmax entries fall under
        # PROB_FLOOR, so the clamp is active on some rows
        rng = np.random.default_rng(seed)
        logits0 = rng.normal(scale=[1.0, 10.0, 40.0][seed % 3], size=(9, 4))
        labels = rng.integers(4, size=9)

        def run(ce):
            g = ad.Graph()
            logits = g.tensor(logits0)
            probs = ad.softmax_temperature(logits, 1.0)
            loss = ce(probs, labels)
            ad.scalar_multiply(loss, 0.37).backward()
            return loss.values, probs.grad, logits.grad

        for new, old in zip(run(cross_entropy), run(unfused_cross_entropy)):
            assert np.array_equal(new, old)

    def test_label_validation(self):
        g = ad.Graph()
        probs = g.tensor(np.full((2, 2), 0.5))
        with pytest.raises(ParameterError):
            cross_entropy(probs, np.array([0, 2]))
        with pytest.raises(ParameterError):
            cross_entropy(probs, np.array([-1, 0]))
        with pytest.raises(ShapeError):
            cross_entropy(probs, np.array([0, 1, 0]))


class TestDistillKl:
    def test_equal_distributions_give_zero(self):
        rng = np.random.default_rng(6)
        soft = softmax_np(rng.normal(size=(5, 4)), 2.0)
        g = ad.Graph()
        val = distill_kl(g.tensor(soft), soft.copy(), tau=2.0).item()
        assert abs(val) <= 1e-12

    def test_hand_value_log_two(self):
        g = ad.Graph()
        student = g.tensor(np.array([[0.5, 0.5]]))
        teacher = np.array([[1.0, 0.0]])
        val = distill_kl(student, teacher, tau=1.0).item()
        np.testing.assert_allclose(val, math.log(2.0), rtol=0, atol=1e-12)

    def test_temperature_squared_rescaling(self):
        g = ad.Graph()
        student = g.tensor(np.array([[0.3, 0.7], [0.6, 0.4]]))
        teacher = np.array([[0.5, 0.5], [0.2, 0.8]])
        plain = distill_kl(student, teacher, tau=5.0, scale_by_tau_sq=False).item()
        scaled = distill_kl(student, teacher, tau=5.0, scale_by_tau_sq=True).item()
        np.testing.assert_allclose(scaled, 25.0 * plain, rtol=1e-15, atol=0)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            t = softmax_np(rng.uniform(-5.0, 5.0, size=(3, 4)), 1.0)
            s = softmax_np(rng.uniform(-5.0, 5.0, size=(3, 4)), 1.0)
            g = ad.Graph()
            assert distill_kl(g.tensor(s), t, tau=1.0).item() >= -1e-12

    def test_positive_when_distributions_differ(self):
        g = ad.Graph()
        student = g.tensor(np.array([[0.9, 0.1]]))
        teacher = np.array([[0.1, 0.9]])
        assert distill_kl(student, teacher, tau=1.0).item() > 0.5

    def test_gradient_through_softmax(self):
        rng = np.random.default_rng(8)
        logits0 = rng.normal(size=(4, 3))
        teacher = softmax_np(rng.normal(size=(4, 3)), 4.0)

        g = ad.Graph()
        logits = g.tensor(logits0)
        soft = ad.softmax_temperature(logits, 4.0)
        distill_kl(soft, teacher, tau=4.0).backward()

        def f(flat):
            gg = ad.Graph()
            s = ad.softmax_temperature(gg.tensor(flat.reshape(logits0.shape)), 4.0)
            return distill_kl(s, teacher, tau=4.0).item()

        numeric = finite_diff_grad(f, logits0.ravel())
        assert relative_error(numeric, logits.grad.ravel()) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 5), classes=st.integers(2, 4), clamp=st.booleans(),
           tau=st.floats(0.5, 6.0), scaled=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_one_node_matches_finite_differences(self, rows, classes, clamp, tau,
                                                 scaled, seed):
        rng = np.random.default_rng(seed)
        s0 = _probs_with_clamped_entries(rng, rows, classes, clamp)
        teacher = softmax_np(rng.normal(size=(rows, classes)), tau)

        g = ad.Graph()
        student = g.tensor(s0)
        loss = distill_kl(student, teacher, tau, scaled)
        assert len(g) == 2
        loss.backward()

        def f(flat):
            gg = ad.Graph()
            return distill_kl(gg.tensor(flat.reshape(s0.shape)), teacher, tau,
                              scaled).item()

        assert relative_error(finite_diff_grad(f, s0.ravel()), student.grad.ravel()) < 1e-6
        assert (student.grad[s0 < 0] == 0.0).all()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("scaled", [True, False])
    def test_bitwise_equal_to_the_unfused_composition(self, seed, scaled):
        rng = np.random.default_rng(seed)
        tau = [1.0, 4.0, 20.0][seed % 3]
        logits0 = rng.normal(scale=[40.0, 5.0, 2.0][seed % 3], size=(9, 4))
        teacher = softmax_np(rng.normal(scale=30.0, size=(9, 4)), tau)

        def run(kl):
            g = ad.Graph()
            logits = g.tensor(logits0)
            soft = ad.softmax_temperature(logits, tau)
            loss = kl(soft, teacher, tau, scaled)
            ad.scalar_multiply(loss, 0.61).backward()
            return loss.values, soft.grad, logits.grad

        new_run, old_run = run(distill_kl), run(unfused_distill_kl)
        for new, old in zip(new_run, old_run):
            assert np.array_equal(new, old)

    def test_validation(self):
        g = ad.Graph()
        student = g.tensor(np.full((2, 2), 0.5))
        with pytest.raises(ShapeError):
            distill_kl(student, np.full((3, 2), 0.5), tau=1.0)
        with pytest.raises(ParameterError):
            distill_kl(student, np.full((2, 2), 0.5), tau=0.0)


class TestSharedLogLossNode:
    """cross_entropy and distill_kl share one node, and each gives the bits
    of its own node as it read before: values and gradients, on one cell
    and on a stack, through log inputs below PROB_FLOOR."""

    @staticmethod
    def _run(loss_fn, probs0, *args, weight):
        g = ad.Graph(probs0.shape[:-2])
        probs = g.tensor(probs0)
        loss = loss_fn(probs, *args)
        assert len(g) == 2
        loss.backward(weight)
        return loss.values.tobytes(), probs.grad.tobytes()

    @pytest.mark.parametrize("stack", [(), (3,)])
    @pytest.mark.parametrize("weight", [1.0, 0.3, -2.5])
    def test_cross_entropy(self, stack, weight):
        rng = np.random.default_rng(len(stack))
        for _ in range(10):
            probs0 = softmax_np(rng.normal(scale=20.0, size=stack + (7, 4)), 1.0)
            labels = rng.integers(0, 4, size=stack + (7,))
            assert (probs0 < PROB_FLOOR).any()
            assert (self._run(cross_entropy, probs0, labels, weight=weight)
                    == self._run(old_cross_entropy, probs0, labels, weight=weight))

    def test_a_zero_cross_entropy_keeps_its_sign(self):
        new = self._run(cross_entropy, np.eye(3), np.arange(3), weight=0.3)
        assert new == self._run(old_cross_entropy, np.eye(3), np.arange(3),
                                weight=0.3)
        assert new[0] == np.array(-0.0).tobytes()

    @pytest.mark.parametrize("stack", [(), (3,)])
    @pytest.mark.parametrize("scaled", [True, False])
    @pytest.mark.parametrize("weight", [1.0, 0.3, -2.5])
    def test_distill_kl(self, stack, scaled, weight):
        rng = np.random.default_rng(len(stack))
        for tau in (1.0, 4.0, 20.0):
            s0, t = (softmax_np(rng.normal(scale=30.0, size=stack + (6, 4)), temp)
                     for temp in (1.0, tau))
            assert (s0 < PROB_FLOOR).any()
            assert (self._run(distill_kl, s0, t, tau, scaled, weight=weight)
                    == self._run(old_distill_kl, s0, t, tau, scaled, weight=weight))


def _small_pair():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(5, 3))
    xt = rng.normal(size=(6, 3)) + 0.4
    ys = np.array([0, 1, 2, 0, 1])
    return xs, ys, xt


KERNEL = KernelConfig(mode="fixed", bandwidths=(0.7, 1.3))


class TestTeacherDaLoss:
    def test_zero_gamma_leaves_discrepancy_alone(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        xs, ys, xt = _small_pair()
        g = ad.Graph()
        loss, parts = teacher_da_loss(teacher, g.tensor(xs), ys, g.tensor(xt),
                                      KERNEL, 0.0)
        np.testing.assert_allclose(loss.item(), parts["mmd"], rtol=0, atol=1e-15)

    def test_identical_domains_reduce_to_supervised_term(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        xs, ys, _ = _small_pair()
        g = ad.Graph()
        loss, parts = teacher_da_loss(teacher, g.tensor(xs), ys, g.tensor(xs.copy()),
                                      KERNEL, 0.7)
        assert parts["mmd"] == 0.0
        np.testing.assert_allclose(loss.item(), 0.7 * parts["ce"], rtol=0, atol=1e-12)

    def test_recomposition(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        xs, ys, xt = _small_pair()
        g = ad.Graph()
        loss, parts = teacher_da_loss(teacher, g.tensor(xs), ys, g.tensor(xt),
                                      KERNEL, 1.3)
        np.testing.assert_allclose(loss.item(), parts["mmd"] + 1.3 * parts["ce"],
                                   rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        xs, ys, xt = _small_pair()
        gamma = 0.7

        g = ad.Graph()
        loss, _ = teacher_da_loss(teacher, g.tensor(xs), ys, g.tensor(xt), KERNEL,
                                  gamma)
        loss.backward()
        analytic = np.concatenate([a.ravel() for a in teacher.bound_gradients()])
        base = _flat_params(teacher)

        def f(flat):
            _set_params(teacher, flat)
            gg = ad.Graph()
            val, _ = teacher_da_loss(teacher, gg.tensor(xs), ys, gg.tensor(xt),
                                     KERNEL, gamma)
            return val.item()

        numeric = finite_diff_grad(f, base)
        _set_params(teacher, base)
        assert relative_error(numeric, analytic) < 1e-5


class TestTargetKdLoss:
    def test_matching_parameters_give_zero(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        student = build(teacher.spec)
        _, _, xt = _small_pair()
        g = ad.Graph()
        val = target_kd_loss(student, soft(teacher, xt, 20.0), g.tensor(xt), 20.0)
        assert abs(val.item()) <= 1e-12

    def test_single_step_reduces_loss(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        student = build(ModelSpec(3, (4,), 3, seed=12))
        _, _, xt = _small_pair()
        tau = 4.0

        g = ad.Graph()
        loss = target_kd_loss(student, soft(teacher, xt, tau), g.tensor(xt), tau)
        before = loss.item()
        loss.backward()
        for p, gr in zip(student.parameters(), student.bound_gradients()):
            p -= 1e-3 * gr

        g2 = ad.Graph()
        after = target_kd_loss(student, soft(teacher, xt, tau), g2.tensor(xt), tau).item()
        assert 0.0 < after < before

    def test_no_gradient_reaches_the_teacher(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        student = build(ModelSpec(3, (2,), 3, seed=12))
        _, _, xt = _small_pair()

        g = ad.Graph()
        teacher.bind(g)
        loss = target_kd_loss(student, soft(teacher, xt, 4.0), g.tensor(xt), 4.0)
        loss.backward()
        for gr in teacher.bound_gradients():
            np.testing.assert_array_equal(gr, np.zeros_like(gr))
        assert any(np.abs(gr).max() > 0 for gr in student.bound_gradients())

    def test_gradient_matches_finite_differences(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        student = build(ModelSpec(3, (3,), 3, seed=12))
        _, _, xt = _small_pair()
        tau = 4.0

        g = ad.Graph()
        target_kd_loss(student, soft(teacher, xt, tau), g.tensor(xt), tau).backward()
        analytic = np.concatenate([a.ravel() for a in student.bound_gradients()])
        base = _flat_params(student)

        def f(flat):
            _set_params(student, flat)
            gg = ad.Graph()
            return target_kd_loss(student, soft(teacher, xt, tau), gg.tensor(xt), tau).item()

        numeric = finite_diff_grad(f, base)
        _set_params(student, base)
        assert relative_error(numeric, analytic) < 1e-5


class TestSourceKdLoss:
    def test_matching_parameters_leave_supervised_anchor(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        student = build(teacher.spec)
        xs, ys, _ = _small_pair()

        g = ad.Graph()
        val, parts = source_kd_loss(student, soft(teacher, xs, 20.0), g.tensor(xs), ys,
                                    20.0, 0.0)
        assert abs(val.item()) <= 1e-12

        g2 = ad.Graph()
        xs_t = g2.tensor(xs)
        val, parts = source_kd_loss(student, soft(teacher, xs, 20.0), xs_t, ys, 20.0, 1.0)
        ce = cross_entropy(ad.softmax_temperature(student.logits(xs_t), 1.0), ys)
        np.testing.assert_allclose(val.item(), ce.item(), rtol=0, atol=1e-12)

    def test_recomposition(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        student = build(ModelSpec(3, (3,), 3, seed=12))
        xs, ys, _ = _small_pair()
        g = ad.Graph()
        val, parts = source_kd_loss(student, soft(teacher, xs, 4.0), g.tensor(xs), ys,
                                    4.0, 0.8)
        np.testing.assert_allclose(val.item(), parts["kl"] + 0.8 * parts["ce"],
                                   rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        student = build(ModelSpec(3, (3,), 3, seed=12))
        xs, ys, _ = _small_pair()
        tau, alpha = 4.0, 0.8

        g = ad.Graph()
        loss, _ = source_kd_loss(student, soft(teacher, xs, tau), g.tensor(xs), ys,
                                 tau, alpha)
        loss.backward()
        analytic = np.concatenate([a.ravel() for a in student.bound_gradients()])
        base = _flat_params(student)

        def f(flat):
            _set_params(student, flat)
            gg = ad.Graph()
            val, _ = source_kd_loss(student, soft(teacher, xs, tau), gg.tensor(xs), ys,
                                    tau, alpha)
            return val.item()

        numeric = finite_diff_grad(f, base)
        _set_params(student, base)
        assert relative_error(numeric, analytic) < 1e-5


# the blend and loss weights these losses take come from TrainConfig, which
# checks them and computes them per epoch


class TestBetaSchedule:
    def test_endpoints_and_midpoint(self):
        cfg = TrainConfig(beta_start=0.1, beta_end=0.9, epochs=400)
        assert cfg.beta_at(0) == 0.1
        np.testing.assert_allclose(cfg.beta_at(400), 0.9, rtol=0, atol=1e-12)
        # geometric midpoint: sqrt(0.1 * 0.9) = 0.3
        np.testing.assert_allclose(cfg.beta_at(200), 0.3, rtol=0, atol=1e-12)

    def test_endpoint_identity_over_random_schedules(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            start = float(rng.uniform(0.01, 1.0))
            end = float(rng.uniform(0.01, 1.0))
            epochs = int(rng.integers(1, 500))
            cfg = TrainConfig(beta_start=start, beta_end=end, epochs=epochs)
            np.testing.assert_allclose(cfg.beta_at(epochs), end, rtol=1e-12)

    def test_monotone_growth(self):
        cfg = TrainConfig(beta_start=0.05, beta_end=0.95, epochs=50)
        vals = [cfg.beta_at(t) for t in range(51)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_clamped_beyond_the_horizon(self):
        cfg = TrainConfig(beta_start=0.5, beta_end=1.0, epochs=10)
        assert cfg.beta_at(40) == 1.0

    def test_fractional_epochs_interpolate(self):
        cfg = TrainConfig(beta_start=0.1, beta_end=0.9, epochs=400)
        lo, mid, hi = cfg.beta_at(10), cfg.beta_at(10.5), cfg.beta_at(11)
        assert lo < mid < hi

    def test_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(beta_start=0.0)
        with pytest.raises(ParameterError):
            TrainConfig(beta_end=1.2)
        with pytest.raises(ParameterError):
            TrainConfig(epochs=0)
        with pytest.raises(ParameterError):
            TrainConfig().beta_at(-1)


class TestGammaSchedule:
    def test_constant_mode(self):
        for t in (0, 37, 400):
            assert TrainConfig(epochs=400, gamma=1.5).gamma_at(t) == 1.5

    def test_ramp_starts_at_zero(self):
        assert TrainConfig(epochs=400, gamma=1.0, gamma_mode="ramp").gamma_at(0) == 0.0

    def test_ramp_hand_values(self):
        # 2g / (1 + exp(-10 t / E)) - g equals g * tanh(5 t / E)
        np.testing.assert_allclose(
            TrainConfig(epochs=400, gamma=1.0, gamma_mode="ramp").gamma_at(400),
            math.tanh(5.0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            TrainConfig(epochs=400, gamma=2.0, gamma_mode="ramp").gamma_at(200),
            2.0 * math.tanh(2.5), rtol=0, atol=1e-12)

    def test_ramp_monotone(self):
        cfg = TrainConfig(epochs=100, gamma=1.0, gamma_mode="ramp")
        vals = [cfg.gamma_at(t) for t in range(101)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(epochs=100, gamma=1.0).gamma_at(-1)
        with pytest.raises(ParameterError):
            TrainConfig(epochs=0, gamma=1.0)
        with pytest.raises(ParameterError):
            TrainConfig(epochs=100, gamma=-1.0)
        with pytest.raises(ParameterError):
            TrainConfig(epochs=100, gamma=1.0, gamma_mode="linear")


class TestLossWeights:
    def test_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(gamma=-0.1)
        with pytest.raises(ParameterError):
            TrainConfig(alpha=-0.1)
        with pytest.raises(ParameterError):
            TrainConfig(tau=0.0)

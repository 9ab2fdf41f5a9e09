import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kduda.autodiff as ad
import kduda.trainer
from kduda.data import gen_blob_shift
from kduda.errors import ParameterError, ShapeError
from kduda.losses import (
    MEDIAN_MULTIPLIERS,
    KernelConfig,
    cross_entropy,
    distill_kl,
    mmd_squared,
    softmax_np,
    source_kd_loss,
    target_kd_loss,
    teacher_da_loss,
)
from kduda.losses import _median_of_roots, _pair_blocks, _pair_sqdist
from kduda.models import ModelSpec, build
from kduda.models import stack as stack_models
from kduda.trainer import TrainConfig

from fdcheck import (PROB_FLOOR, OldFixedKernel, assert_grad_matches, exp,
                     finite_diff_grad, log_softmax, mean, median_of_roots,
                     old_cross_entropy, old_distill_kl, old_mmd_squared,
                     old_pair_index, old_pair_sqdist, old_pairwise_sqdist,
                     old_pooled_mmd_squared, old_resolve, old_softmax_np,
                     old_softmax_temperature, old_teacher_da_loss,
                     relative_error, scalar_multiply, traced_peak,
                     weighted_sum)


def mmd_value(fs, ft, kernel):
    g = ad.Graph()
    return mmd_squared(g.tensor(np.concatenate((fs, ft), -2)), len(fs),
                       kernel).item()


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
            k = exp(scalar_multiply(d, -1.0 / (2.0 * s * s)))
            acc = k if acc is None else ad.add(acc, k)
        return mean(scalar_multiply(acc, 1.0 / len(sigmas)))

    within = ad.add(kernel_mean(fs, fs), kernel_mean(ft, ft))
    return ad.add(within, scalar_multiply(kernel_mean(fs, ft), -2.0))


def pooled_pairs(fs, ft):
    """The squared distances of the pooled sample [fs; ft]'s distinct pairs,
    by differences, in the order mmd_squared takes them."""
    z = np.concatenate([fs, ft], axis=-2)
    d = ((z[..., :, None, :] - z[..., None, :, :]) ** 2).sum(axis=-1)
    return d.reshape(d.shape[:-2] + (-1,))[..., old_pair_index(fs.shape[-2],
                                                               ft.shape[-2])]


def node_pairs(fs, ft):
    """mmd_squared's own pair distances of [fs; ft], and the blocks of the
    reference's pooled distance matrix, which holds the same bits."""
    z = np.concatenate([fs, ft], axis=-2)
    g = ad.Graph()
    d = old_pairwise_sqdist(g.tensor(z), g.tensor(z)).values
    ns = fs.shape[-2]
    return (_pair_sqdist(z, ns),
            (d[..., :ns, :ns], d[..., ns:, ns:], d[..., :ns, ns:]))


def soft(teacher, x, tau):
    """The teacher's soft targets on x alone."""
    return softmax_np(teacher.predict_logits(x), tau)


def unfused_cross_entropy(logits, labels):
    """Cross-entropy as log-softmax, one-hot weighted sum and scale nodes:
    the composition the one-node cross_entropy fuses."""
    n, c = logits.values.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    picked = weighted_sum(log_softmax(logits, 1.0), onehot)
    return scalar_multiply(picked, -1.0 / n)


def unfused_distill_kl(student_logits, t, tau):
    """Distillation KL as log-softmax, weighted sum, scale, add and tau^2
    nodes: the composition the one-node distill_kl fuses."""
    inv_n = 1.0 / t.shape[0]
    graph = student_logits.graph
    cross = scalar_multiply(
        weighted_sum(log_softmax(student_logits, tau), t), -inv_n)
    log_t = np.log(t, out=np.zeros_like(t), where=t > 0)
    entropy = float((t * log_t).sum() * inv_n)
    kl = ad.add(cross, graph.tensor(entropy))
    return scalar_multiply(kl, tau * tau)


def two_node_cross_entropy(logits, labels):
    """cross_entropy as it read before it took logits: the softmax node,
    then the log-loss node clamped at PROB_FLOOR."""
    return old_cross_entropy(old_softmax_temperature(logits, 1.0), labels)


def two_node_distill_kl(student_logits, t, tau):
    """distill_kl as it read before it took logits (see
    two_node_cross_entropy)."""
    return old_distill_kl(old_softmax_temperature(student_logits, tau), t, tau)


def run_head(loss_fn, logits0, *args, weight):
    """A loss head's values and logit gradient under backward(weight)."""
    g = ad.Graph(logits0.shape[:-2])
    logits = g.tensor(logits0)
    loss = loss_fn(logits, *args)
    loss.backward(weight)
    return loss.values, logits.grad


def assert_close_heads(new, old):
    """run_head results within 1e-12 relative: values entry by entry, each
    cell's gradient as a vector."""
    np.testing.assert_allclose(new[0], old[0], rtol=1e-12, atol=0)
    for cell in np.ndindex(new[1].shape[:-2]):
        assert relative_error(old[1][cell], new[1][cell]) < 1e-12


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
        kc = KernelConfig(bandwidths=(0.5, 2.0))
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

    @pytest.mark.parametrize("stack", [(), (3,)])
    @pytest.mark.parametrize("data", ["normal", "duplicates", "far", "nan"])
    def test_given_bandwidths_are_the_former_fixed_mode(self, stack, data):
        # the MMD value and adjoint bits, on a pooled sample of 33 + 31 rows
        z, _ = pooled_sample(33, 31, stack, data)
        if data == "normal":
            z = np.random.default_rng(5).normal(size=z.shape)
        outs = []
        with np.errstate(invalid="ignore"):
            for kernel in (KernelConfig(bandwidths=(0.5, 1.1, 2.3)),
                           OldFixedKernel((0.5, 1.1, 2.3))):
                out = mmd_squared(ad.Graph(stack).tensor(z), 33, kernel)
                outs.append([out.values] + [out._vjp(np.full(stack, w))[0]
                                            for w in (1.0, -0.7)])
        for new, old in zip(*outs):
            assert new.shape == old.shape and new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("stack", [(), (3,)])
    def test_the_median_bank_is_each_cells_median_times_the_fixed_multipliers(
            self, stack):
        rng = np.random.default_rng(4)
        fs = rng.normal(size=stack + (6, 2))
        ft = rng.normal(size=stack + (5, 2)) + 0.8
        pairs = pooled_pairs(fs, ft)
        med = np.median(np.sqrt(pairs), axis=-1)
        bank = KernelConfig().resolve(pairs)
        assert bank.shape == stack + (len(MEDIAN_MULTIPLIERS),)
        np.testing.assert_allclose(bank, med[..., None] * np.array(MEDIAN_MULTIPLIERS),
                                   rtol=1e-12, atol=0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            KernelConfig(bandwidths=(1.0, -2.0))
        with pytest.raises(ParameterError):
            KernelConfig(bandwidths=(0.0,))


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
        kc = KernelConfig(bandwidths=(1.0,))
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
        kc = KernelConfig(bandwidths=sigmas)
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
        kc = KernelConfig(bandwidths=(0.8, 1.6))

        g = ad.Graph()
        z = g.tensor(np.concatenate((fs0, ft0), -2))
        mmd_squared(z, len(fs0), kc).backward()

        def f(flat):
            gg = ad.Graph()
            return mmd_squared(gg.tensor(flat.reshape(z.values.shape)), len(fs0),
                               kc).item()

        flat0 = np.concatenate([fs0.ravel(), ft0.ravel()])
        numeric = finite_diff_grad(f, flat0)
        assert relative_error(numeric, z.grad.ravel()) < 1e-6

    @pytest.mark.parametrize("rows_s,rows_t,width,seed",
                             [(1, 1, 1, 0), (5, 3, 2, 1), (32, 32, 64, 2),
                              (7, 12, 4, 3)])
    def test_fused_bank_matches_the_unfused_composition(self, rows_s, rows_t,
                                                        width, seed):
        rng = np.random.default_rng(seed)
        fs0 = rng.normal(size=(rows_s, width))
        ft0 = rng.normal(size=(rows_t, width)) + 0.5
        sigmas = pooled_median_bandwidths(fs0, ft0)
        kernel = KernelConfig(bandwidths=sigmas)
        g = ad.Graph()
        z = g.tensor(np.concatenate((fs0, ft0), -2))
        value = mmd_squared(z, rows_s, kernel)
        value.backward()
        new, new_gs, new_gt = value.item(), z.grad[:rows_s], z.grad[rows_s:]
        g = ad.Graph()
        fs, ft = g.tensor(fs0), g.tensor(ft0)
        value = unfused_mmd(fs, ft, sigmas)
        value.backward()
        old, old_gs, old_gt = value.item(), fs.grad, ft.grad
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
        index = old_pair_index(ns, nt)
        noisy = repeat.reshape(stack + (-1,))[..., index].sum(axis=-1)
        assume(median is False or np.all(2 * noisy < index.size))
        kernel = KernelConfig() if median else KernelConfig(
            bandwidths=(0.6, 1.7, 4.0))
        g = ad.Graph(stack)
        leaf = g.tensor(z)
        # the kernel bank in passes of 7 pairs, or in one pass
        with mock.patch("kduda.losses._PAIR_CHUNK", chunk):
            value = mmd_squared(leaf, ns, kernel)
        value.backward(weight)
        new, new_gs, new_gt = (value.values, leaf.grad[..., :ns, :],
                               leaf.grad[..., ns:, :])
        g = ad.Graph(stack)
        fs, ft = g.tensor(fs0), g.tensor(ft0)
        value = old_mmd_squared(fs, ft, kernel)
        value.backward(weight)
        old, old_gs, old_gt = value.values, fs.grad, ft.grad
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
        kc = KernelConfig(bandwidths=(0.5, 1.1, 2.3))
        g = ad.Graph()
        z = g.tensor(np.concatenate((fs0, ft0), -2))
        mmd_squared(z, rows_s, kc).backward(weight)

        def f(flat):
            a = flat[:fs0.size].reshape(fs0.shape)
            b = flat[fs0.size:].reshape(ft0.shape)
            return weight * mmd_value(a, b, kc)

        numeric = finite_diff_grad(f, np.concatenate([fs0.ravel(), ft0.ravel()]))
        assert relative_error(numeric, z.grad.ravel()) < 1e-6

    @pytest.mark.parametrize("median", [True, False, "vanishing"])
    def test_a_nan_feature_gives_a_nan_value(self, median):
        # no exception: the trainer's finiteness check turns it into an
        # abort. A vanishing bandwidth's square underflows, so its kernel
        # slopes are nan on finite features, and the value must be nan too
        fs = np.ones((4, 3))
        if median == "vanishing":
            kc = KernelConfig(bandwidths=(1.0, 1e-300))
        else:
            fs[2, 1] = np.nan
            kc = KernelConfig() if median else KernelConfig(bandwidths=(1.0,))
        with np.errstate(divide="ignore", invalid="ignore"):
            assert math.isnan(mmd_value(fs, np.zeros((5, 3)), kc))

    def test_shape_and_emptiness_errors(self):
        g = ad.Graph()
        kc = KernelConfig()
        with pytest.raises(ShapeError):
            mmd_squared(g.tensor(np.zeros(8)), 4, kc)
        for ns in (0, 4, -1):
            with pytest.raises(ParameterError):
                mmd_squared(g.tensor(np.zeros((4, 3))), ns, kc)


def pooled_sample(ns, nt, stack, data):
    """ns source and nt target rows per cell, and a kernel for them.
    "duplicates" repeats rows (zero distances); "far" sets rows so far apart
    that every kernel underflows to 0, so the weighted slopes are zeros of
    both signs (-0.0 across the domains); "nan" puts a nan in the last
    row."""
    rng = np.random.default_rng(ns * 1000 + nt)
    z = rng.normal(size=stack + (ns + nt, 4))
    if data == "duplicates":
        z[..., 1::3, :] = z[..., :1, :]
        return np.round(z), KernelConfig()
    if data == "far":
        z[..., 0] = 100.0 * np.arange(ns + nt)
        return z, KernelConfig(bandwidths=(0.5, 2.0))
    z[..., -1, 1] = np.nan
    return z, KernelConfig()


class TestPairBlocks:
    """The MMD node against its form with a flat pair index, 8 bytes a pair,
    and an adjoint that built m + m^T from a second n x n array."""

    @pytest.mark.parametrize("ns,nt", [(1, 1), (1, 2), (32, 32), (33, 31),
                                       (65, 65), (256, 256)])
    @pytest.mark.parametrize("stack", [(), (3,)])
    @pytest.mark.parametrize("data", ["duplicates", "far", "nan"])
    def test_bit_for_bit_the_flat_index_node(self, ns, nt, stack, data):
        # 65 + 65 and 256 + 256 rows take several chunks of rows per block
        z, kernel = pooled_sample(ns, nt, stack, data)
        d = _pair_sqdist(z, ns)
        assert d.tobytes() == old_pair_sqdist(z, old_pair_index(ns, nt)).tobytes()
        if data == "far":
            assert d.min() / (2 * 2.0 ** 2) > 746  # exp of below -745 is 0
        outs = []
        with np.errstate(invalid="ignore"):
            for node in (mmd_squared, old_pooled_mmd_squared):
                out = node(ad.Graph(stack).tensor(z), ns, kernel)
                # either sign of adjoint makes -0.0 products of zero slopes
                outs.append([out.values] + [out._vjp(np.full(stack, w))[0]
                                            for w in (1.0, -0.7)])
        for new, old in zip(*outs):
            assert new.shape == old.shape and new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("chunk", [7, 8192])
    @pytest.mark.parametrize("stack", [(), (2,)])
    def test_matches_finite_differences_in_any_chunking(self, chunk, stack):
        # 7 entries a chunk: each chunk is one row of a block
        rng = np.random.default_rng(chunk + len(stack))
        z0 = rng.normal(size=stack + (9, 3))
        z0[..., 4:, :] += 0.5
        kernel = KernelConfig(bandwidths=(0.5, 1.1, 2.3))
        weights = rng.normal(size=stack)
        _pair_blocks.cache_clear()
        try:
            with mock.patch("kduda.losses._PAIR_CHUNK", chunk):
                def f(v):
                    return mmd_squared(ad.Graph(stack).tensor(v), 4, kernel)
                assert_grad_matches(lambda v: (weights * f(v).values).sum(), z0,
                                    f(z0)._vjp(weights)[0], tol=1e-6)
        finally:
            _pair_blocks.cache_clear()

    def test_forward_and_adjoint_hold_one_square_and_a_half(self):
        # the block, then the pairs' distances and the kernel bank, then the
        # adjoint's n x n array beside the slopes; the flat-index node held
        # 2.5 n^2 floats at once
        n = 1024
        z = np.random.default_rng(0).normal(size=(n, 8))

        def step():
            node = mmd_squared(ad.Graph().tensor(z), n // 2, KernelConfig())
            node._vjp(np.asarray(1.0))
        step()  # the pair positions are cached
        peak, _ = traced_peak(step)
        assert peak < 1.6 * n * n * 8, peak / (n * n * 8)

    def test_pair_positions_take_a_byte_per_within_domain_entry(self):
        # 2 MiB of triangle masks at 1024 + 1024 rows; the flat index took
        # 16 MiB
        z = np.random.default_rng(0).normal(size=(2048, 2))
        kernel = KernelConfig(bandwidths=(1.0,))
        _pair_blocks.cache_clear()
        _, kept = traced_peak(lambda: mmd_squared(ad.Graph().tensor(z), 1024, kernel))
        assert kept < 2.5 * 2 ** 20, kept / 2 ** 20


class TestCrossEntropy:
    def test_certain_correct_prediction_costs_nothing(self):
        # log-probabilities whose exp underflows to the one-hot rows
        g = ad.Graph()
        logits = g.tensor(np.array([[0.0, -800.0], [-800.0, 0.0]]))
        assert cross_entropy(logits, np.array([0, 1])).item() == 0.0

    def test_uniform_prediction_costs_log_classes(self):
        g = ad.Graph()
        logits = g.tensor(np.log(np.full((3, 4), 0.25)))
        val = cross_entropy(logits, np.array([0, 2, 3])).item()
        np.testing.assert_allclose(val, math.log(4.0), rtol=0, atol=1e-12)

    def test_hand_value(self):
        g = ad.Graph()
        logits = g.tensor(np.log(np.array([[0.25, 0.75]])))
        val = cross_entropy(logits, np.array([0])).item()
        np.testing.assert_allclose(val, -math.log(0.25), rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits0 = rng.normal(size=(6, 3))
        labels = np.array([0, 1, 2, 0, 1, 2])

        g = ad.Graph()
        logits = g.tensor(logits0)
        cross_entropy(logits, labels).backward()

        def f(flat):
            gg = ad.Graph()
            return cross_entropy(gg.tensor(flat.reshape(logits0.shape)),
                                 labels).item()

        numeric = finite_diff_grad(f, logits0.ravel())
        assert relative_error(numeric, logits.grad.ravel()) < 1e-6

    # a wider spread makes rows so certain that their gradient falls to the
    # size of the central differences' rounding error
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 5), classes=st.integers(2, 4),
           spread=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_one_node_matches_finite_differences(self, rows, classes, spread,
                                                 seed):
        rng = np.random.default_rng(seed)
        z0 = rng.normal(scale=spread, size=(rows, classes))
        labels = rng.integers(classes, size=rows)

        g = ad.Graph()
        logits = g.tensor(z0)
        loss = cross_entropy(logits, labels)
        assert len(g) == 2
        loss.backward()

        def f(flat):
            return cross_entropy(ad.Graph().tensor(flat.reshape(z0.shape)),
                                 labels).item()

        assert relative_error(finite_diff_grad(f, z0.ravel()),
                              logits.grad.ravel()) < 1e-6

    def test_a_certain_but_wrong_row_gets_softmax_minus_onehot(self):
        # the two-node form clamped this row's true-class probability at
        # PROB_FLOOR: a loss of -ln(1e-12) and a zero logit gradient
        g = ad.Graph()
        logits = g.tensor(np.array([[60.0, 0.0, 0.0]]))
        loss = cross_entropy(logits, np.array([2]))
        loss.backward()
        assert loss.item() == 60.0
        expected = softmax_np(logits.values, 1.0) - np.array([[0.0, 0.0, 1.0]])
        np.testing.assert_allclose(logits.grad, expected, rtol=1e-15, atol=0)
        assert logits.grad[0, 0] == 1.0 and logits.grad[0, 2] == -1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_equal_to_the_unfused_composition(self, seed):
        # logits spread wide enough that some softmax entries underflow
        rng = np.random.default_rng(seed)
        logits0 = rng.normal(scale=[1.0, 10.0, 40.0][seed % 3], size=(9, 4))
        labels = rng.integers(4, size=9)

        def run(ce):
            g = ad.Graph()
            logits = g.tensor(logits0)
            loss = ce(logits, labels)
            scalar_multiply(loss, 0.37).backward()
            return loss.values, logits.grad

        for new, old in zip(run(cross_entropy), run(unfused_cross_entropy)):
            assert np.array_equal(new, old)

    def test_label_validation(self):
        g = ad.Graph()
        logits = g.tensor(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            cross_entropy(logits, np.array([0, 2]))
        with pytest.raises(ParameterError):
            cross_entropy(logits, np.array([-1, 0]))
        with pytest.raises(ShapeError):
            cross_entropy(logits, np.array([0, 1, 0]))
        # labels cover the rows in range, no more and no fewer
        with pytest.raises(ShapeError):
            cross_entropy(logits, np.array([0, 1]), slice(1))
        with pytest.raises(ParameterError):
            cross_entropy(logits, np.array([2]), slice(1, 2))
        assert cross_entropy(logits, np.array([1]), slice(1, 2)).item() == math.log(2)

    @pytest.mark.parametrize("stack", [(), (3,)])
    def test_zero_rows_are_a_shape_error(self, stack):
        # the mean over no rows used to divide by zero
        logits = ad.Graph(stack).tensor(np.zeros(stack + (2, 3)))
        with pytest.raises(ShapeError, match=r"0, 3\)"):
            cross_entropy(logits, np.zeros(stack + (0,), dtype=int), slice(0))
        with pytest.raises(ShapeError, match=r"0, 3\)"):
            cross_entropy(ad.Graph(stack).tensor(np.zeros(stack + (0, 3))),
                          np.zeros(stack + (0,), dtype=int))

    @pytest.mark.parametrize("margin", [20.0, 30.0, 35.0])
    @pytest.mark.parametrize("tied", [False, True])
    def test_a_near_certain_row_keeps_its_tiny_loss_exact(self, margin, tied):
        # the log of the row's exponentials summed with the maximal 1 lost
        # the tiny rest: 1.0e-3 relative at margin 30, 5.6% at 35
        g = ad.Graph()
        top = margin if tied else 0.0
        loss = cross_entropy(g.tensor([[margin, top, 0.0]]), np.array([0]))
        rest = (1.0 if tied else math.exp(-margin)) + math.exp(-margin)
        expected = math.log1p(rest)
        assert abs(loss.item() - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("stack", [(), (3,)])
    @pytest.mark.parametrize("rows", [slice(4), slice(2, 7), slice(9)],
                             ids=["head", "middle", "all"])
    def test_a_row_range_is_the_loss_of_a_leaf_holding_those_rows(self, stack,
                                                                  rows):
        # the adjoint is exactly 0 outside the range; inside it, value and
        # gradient are the bits of the rows taken on their own
        rng = np.random.default_rng(len(stack))
        logits0 = rng.normal(scale=3.0, size=stack + (9, 4))
        labels = rng.integers(0, 4, size=stack + (9,))[..., rows]
        value, grad = run_head(cross_entropy, logits0, labels, rows, weight=-0.3)
        alone = run_head(cross_entropy, logits0[..., rows, :].copy(), labels,
                         weight=-0.3)
        outside = np.ones(9, dtype=bool)
        outside[rows] = False
        assert np.array_equal(grad[..., outside, :],
                              np.zeros(stack + (outside.sum(), 4)))
        assert not np.signbit(grad[..., outside, :]).any()
        assert value.tobytes() == alone[0].tobytes()
        assert grad[..., rows, :].tobytes() == alone[1].tobytes()


class TestDistillKl:
    def test_equal_distributions_give_zero(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(5, 4))
        g = ad.Graph()
        val = distill_kl(g.tensor(logits), softmax_np(logits, 2.0), tau=2.0).item()
        assert abs(val) <= 1e-12

    def test_hand_value_log_two(self):
        g = ad.Graph()
        student = g.tensor(np.log(np.array([[0.5, 0.5]])))
        teacher = np.array([[1.0, 0.0]])
        val = distill_kl(student, teacher, tau=1.0).item()
        np.testing.assert_allclose(val, math.log(2.0), rtol=0, atol=1e-12)

    def test_temperature_squared_rescaling(self):
        g = ad.Graph()
        student = g.tensor(5.0 * np.log(np.array([[0.3, 0.7], [0.6, 0.4]])))
        teacher = np.array([[0.5, 0.5], [0.2, 0.8]])
        # the unscaled KL at tau 5, by hand: the student's rows soften to
        # [0.3, 0.7] and [0.6, 0.4]
        soft = np.array([[0.3, 0.7], [0.6, 0.4]])
        plain = np.mean(np.sum(teacher * np.log(teacher / soft), axis=1))
        scaled = distill_kl(student, teacher, tau=5.0).item()
        np.testing.assert_allclose(scaled, 25.0 * plain, rtol=1e-12, atol=0)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            t = softmax_np(rng.uniform(-5.0, 5.0, size=(3, 4)), 1.0)
            s = rng.uniform(-5.0, 5.0, size=(3, 4))
            g = ad.Graph()
            assert distill_kl(g.tensor(s), t, tau=1.0).item() >= -1e-12

    def test_positive_when_distributions_differ(self):
        g = ad.Graph()
        student = g.tensor(np.log(np.array([[0.9, 0.1]])))
        teacher = np.array([[0.1, 0.9]])
        assert distill_kl(student, teacher, tau=1.0).item() > 0.5

    def test_gradient_through_softmax(self):
        rng = np.random.default_rng(8)
        logits0 = rng.normal(size=(4, 3))
        teacher = softmax_np(rng.normal(size=(4, 3)), 4.0)

        g = ad.Graph()
        logits = g.tensor(logits0)
        distill_kl(logits, teacher, tau=4.0).backward()

        def f(flat):
            gg = ad.Graph()
            return distill_kl(gg.tensor(flat.reshape(logits0.shape)), teacher,
                              tau=4.0).item()

        numeric = finite_diff_grad(f, logits0.ravel())
        assert relative_error(numeric, logits.grad.ravel()) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 5), classes=st.integers(2, 4),
           spread=st.floats(0.1, 10.0), tau=st.floats(0.5, 6.0),
           seed=st.integers(0, 2**32 - 1))
    def test_one_node_matches_finite_differences(self, rows, classes, spread, tau,
                                                 seed):
        rng = np.random.default_rng(seed)
        z0 = rng.normal(scale=spread, size=(rows, classes))
        teacher = softmax_np(rng.normal(size=(rows, classes)), tau)

        g = ad.Graph()
        student = g.tensor(z0)
        loss = distill_kl(student, teacher, tau)
        assert len(g) == 2
        loss.backward()

        def f(flat):
            gg = ad.Graph()
            return distill_kl(gg.tensor(flat.reshape(z0.shape)), teacher,
                              tau).item()

        assert relative_error(finite_diff_grad(f, z0.ravel()),
                              student.grad.ravel()) < 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_equal_to_the_unfused_composition(self, seed):
        rng = np.random.default_rng(seed)
        tau = [1.0, 4.0, 20.0][seed % 3]
        logits0 = rng.normal(scale=[40.0, 5.0, 2.0][seed % 3], size=(9, 4))
        teacher = softmax_np(rng.normal(scale=30.0, size=(9, 4)), tau)

        def run(kl):
            g = ad.Graph()
            logits = g.tensor(logits0)
            loss = kl(logits, teacher, tau)
            scalar_multiply(loss, 0.61).backward()
            return loss.values, logits.grad

        new_run, old_run = run(distill_kl), run(unfused_distill_kl)
        for new, old in zip(new_run, old_run):
            assert np.array_equal(new, old)

    def test_teacher_rows_with_exact_zeros(self):
        # at tau 1, logits of +-800 give soft targets of exactly 0.0 and 1.0,
        # whose entropy term takes 0 log 0 = 0
        rng = np.random.default_rng(9)
        teacher = softmax_np(rng.choice([-800.0, 800.0], size=(6, 4)), 1.0)
        assert (teacher == 0.0).any()
        logits0 = rng.normal(size=(6, 4))
        new, old = (run_head(kl, logits0, teacher, 1.0, weight=0.7)
                    for kl in (distill_kl, two_node_distill_kl))
        assert np.isfinite(new[0]) and np.isfinite(new[1]).all()
        assert_close_heads(new, old)

    def test_validation(self):
        g = ad.Graph()
        student = g.tensor(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            distill_kl(student, np.full((3, 2), 0.5), tau=1.0)
        with pytest.raises(ParameterError):
            distill_kl(student, np.full((2, 2), 0.5), tau=0.0)

    @pytest.mark.parametrize("stack", [(), (3,)])
    def test_zero_rows_are_a_shape_error(self, stack):
        # the teacher's entropy mean over no rows used to divide by zero
        student = ad.Graph(stack).tensor(np.zeros(stack + (0, 3)))
        with pytest.raises(ShapeError, match=r"0, 3\)"):
            distill_kl(student, np.zeros(stack + (0, 3)), tau=2.0)


class TestSharedLogLossNode:
    """cross_entropy and distill_kl share one log-softmax node over logits,
    and each matches its two-node form as it read before (a softmax, then a
    clamped log-loss) within 1e-12 relative: values and gradients, on one
    cell and on a stack, on rows where the old clamp is inactive."""

    @pytest.mark.parametrize("stack", [(), (3,)])
    @pytest.mark.parametrize("weight", [1.0, 0.3, -2.5])
    def test_cross_entropy(self, stack, weight):
        rng = np.random.default_rng(len(stack))
        for _ in range(10):
            logits0 = rng.normal(scale=3.0, size=stack + (7, 4))
            labels = rng.integers(0, 4, size=stack + (7,))
            assert (softmax_np(logits0, 1.0) > PROB_FLOOR).all()
            assert_close_heads(
                run_head(cross_entropy, logits0, labels, weight=weight),
                run_head(two_node_cross_entropy, logits0, labels, weight=weight))

    def test_a_zero_cross_entropy_keeps_its_sign(self):
        logits0 = 800.0 * (np.eye(3) - 1.0)
        new = run_head(cross_entropy, logits0, np.arange(3), weight=0.3)
        old = run_head(two_node_cross_entropy, logits0, np.arange(3), weight=0.3)
        assert new[0].tobytes() == old[0].tobytes() == np.array(-0.0).tobytes()

    @pytest.mark.parametrize("stack", [(), (3,)])
    @pytest.mark.parametrize("weight", [1.0, 0.3, -2.5])
    def test_distill_kl(self, stack, weight):
        rng = np.random.default_rng(len(stack))
        for tau in (1.0, 4.0, 20.0):
            s0 = rng.normal(scale=3.0 * tau, size=stack + (6, 4))
            t = softmax_np(rng.normal(scale=30.0, size=stack + (6, 4)), tau)
            assert (softmax_np(s0, tau) > PROB_FLOOR).all()
            assert_close_heads(
                run_head(distill_kl, s0, t, tau, weight=weight),
                run_head(two_node_distill_kl, s0, t, tau, weight=weight))


def _small_pair():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(5, 3))
    xt = rng.normal(size=(6, 3)) + 0.4
    ys = np.array([0, 1, 2, 0, 1])
    return xs, ys, xt


KERNEL = KernelConfig(bandwidths=(0.7, 1.3))


def pooled(g, xs, xt):
    """One tensor of the source rows, then the target rows."""
    return g.tensor(np.concatenate((xs, xt), -2))


class TestTeacherDaLoss:
    def test_zero_gamma_leaves_discrepancy_alone(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        xs, ys, xt = _small_pair()
        g = ad.Graph()
        loss, mmd = teacher_da_loss(teacher, pooled(g, xs, xt), ys, KERNEL, 0.0)
        np.testing.assert_allclose(loss.item(), mmd, rtol=0, atol=1e-15)

    def test_identical_domains_reduce_to_supervised_term(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        xs, ys, _ = _small_pair()
        g = ad.Graph()
        loss, mmd = teacher_da_loss(teacher, pooled(g, xs, xs.copy()), ys,
                                    KERNEL, 0.7)
        assert mmd == 0.0
        ce = cross_entropy(teacher.logits(g.tensor(xs)), ys)
        np.testing.assert_allclose(loss.item(), 0.7 * ce.item(), rtol=0, atol=1e-12)

    def test_recomposition(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        xs, ys, xt = _small_pair()
        g = ad.Graph()
        loss, mmd = teacher_da_loss(teacher, pooled(g, xs, xt), ys, KERNEL, 1.3)
        ce = cross_entropy(teacher.logits(g.tensor(xs)), ys)
        np.testing.assert_allclose(loss.item(), mmd + 1.3 * ce.item(),
                                   rtol=0, atol=1e-12)

    def test_one_features_call_over_both_domains(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        xs, ys, xt = _small_pair()
        g = ad.Graph()
        with mock.patch.object(teacher, "features", wraps=teacher.features) as spy:
            teacher_da_loss(teacher, pooled(g, xs, xt), ys, KERNEL, 1.0)
        assert spy.call_count == 1

    def test_gradient_matches_finite_differences(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        xs, ys, xt = _small_pair()
        gamma = 0.7

        g = ad.Graph()
        loss, _ = teacher_da_loss(teacher, pooled(g, xs, xt), ys, KERNEL, gamma)
        loss.backward()
        analytic = np.concatenate([a.ravel() for a in teacher.bound_gradients()])
        base = _flat_params(teacher)

        def f(flat):
            _set_params(teacher, flat)
            val, _ = teacher_da_loss(teacher, pooled(ad.Graph(), xs, xt), ys,
                                     KERNEL, gamma)
            return val.item()

        numeric = finite_diff_grad(f, base)
        _set_params(teacher, base)
        assert relative_error(numeric, analytic) < 1e-5

    @pytest.mark.parametrize("stack", [(), (3,)])
    @pytest.mark.parametrize("kernel", [KERNEL, KernelConfig()],
                             ids=["fixed", "median"])
    @pytest.mark.parametrize("weight", [1.0, -2.5])
    def test_matches_the_two_forward_form(self, stack, kernel, weight):
        # one forward over [xs; xt] against a forward per domain and the
        # nine-node MMD, within 1e-12 relative: each value, and each cell's
        # parameter gradients as one vector
        spec = ModelSpec(4, (16, 8), 3, seed=21)
        teacher = (build(spec) if not stack else
                   stack_models([build(replace(spec, seed=21 + k))
                                 for k in range(stack[0])]))
        rng = np.random.default_rng(len(stack))
        xs = rng.normal(size=stack + (12, 4))
        xt = rng.normal(size=stack + (12, 4)) + 0.5
        ys = rng.integers(0, 3, size=stack + (12,))

        def run(da_loss, inputs):
            g = ad.Graph(stack)
            loss, mmd = da_loss(teacher, *inputs(g), kernel, 0.7)
            loss.backward(weight)
            grads = [gr.reshape(stack + (-1,)) for gr in teacher.bound_gradients()]
            return (loss.values, mmd), np.concatenate(grads, -1)

        new = run(teacher_da_loss, lambda g: (pooled(g, xs, xt), ys))
        old = run(old_teacher_da_loss, lambda g: (g.tensor(xs), ys, g.tensor(xt)))
        for new_value, old_value in zip(new[0], old[0]):
            np.testing.assert_allclose(new_value, old_value, rtol=1e-12, atol=0)
        for cell in np.ndindex(stack):
            assert relative_error(old[1][cell], new[1][cell]) < 1e-12


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
        val = source_kd_loss(student, soft(teacher, xs, 20.0), g.tensor(xs), ys,
                             20.0, 0.0)
        assert abs(val.item()) <= 1e-12

        g2 = ad.Graph()
        xs_t = g2.tensor(xs)
        val = source_kd_loss(student, soft(teacher, xs, 20.0), xs_t, ys, 20.0, 1.0)
        ce = cross_entropy(student.logits(xs_t), ys)
        np.testing.assert_allclose(val.item(), ce.item(), rtol=0, atol=1e-12)

    def test_recomposition(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        student = build(ModelSpec(3, (3,), 3, seed=12))
        xs, ys, _ = _small_pair()
        g = ad.Graph()
        targets, xs_t = soft(teacher, xs, 4.0), g.tensor(xs)
        val = source_kd_loss(student, targets, xs_t, ys, 4.0, 0.8)
        logits = student.logits(xs_t)
        kl = distill_kl(logits, targets, 4.0)
        np.testing.assert_allclose(
            val.item(), kl.item() + 0.8 * cross_entropy(logits, ys).item(),
            rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        teacher = build(ModelSpec(3, (4,), 3, seed=11))
        student = build(ModelSpec(3, (3,), 3, seed=12))
        xs, ys, _ = _small_pair()
        tau, alpha = 4.0, 0.8

        g = ad.Graph()
        loss = source_kd_loss(student, soft(teacher, xs, tau), g.tensor(xs), ys,
                              tau, alpha)
        loss.backward()
        analytic = np.concatenate([a.ravel() for a in student.bound_gradients()])
        base = _flat_params(student)

        def f(flat):
            _set_params(student, flat)
            gg = ad.Graph()
            val = source_kd_loss(student, soft(teacher, xs, tau), gg.tensor(xs), ys,
                                 tau, alpha)
            return val.item()

        numeric = finite_diff_grad(f, base)
        _set_params(student, base)
        assert relative_error(numeric, analytic) < 1e-5


@pytest.mark.parametrize("tau", [1.0, 4.0, 20.0])
@pytest.mark.parametrize("term", ["target_kd_loss", "source_kd_loss"])
def test_distillation_is_scaled_by_tau_squared(term, tau):
    # tau^2 times the mean KL from the teacher's rows to the student's rows
    # softened at tau, by hand; source distillation adds alpha times the
    # student's cross-entropy at temperature 1
    teacher = build(ModelSpec(3, (4,), 3, seed=11))
    student = build(ModelSpec(3, (3,), 3, seed=12))
    xs, ys, xt = _small_pair()
    x = xs if term == "source_kd_loss" else xt
    targets = soft(teacher, x, tau)
    g = ad.Graph()
    if term == "source_kd_loss":
        value = source_kd_loss(student, targets, g.tensor(x), ys, tau, 0.8).item()
    else:
        value = target_kd_loss(student, targets, g.tensor(x), tau).item()
    z = student.predict_logits(x)
    kl = np.mean(np.sum(targets * np.log(targets / softmax_np(z, tau)), axis=1))
    expected = tau * tau * kl
    if term == "source_kd_loss":
        expected += 0.8 * np.mean(-np.log(softmax_np(z, 1.0)[np.arange(len(ys)), ys]))
    np.testing.assert_allclose(value, expected, rtol=1e-10, atol=0)


def weight_node_teacher_da_loss(teacher, x, ys, kernel, gamma):
    """teacher_da_loss as it read with gamma as a node of its own after the
    cross-entropy head, not as the head's scale."""
    ns = np.shape(ys)[-1]
    z = teacher.features(x)
    ce = cross_entropy(teacher.head(z), ys, slice(ns))
    return ad.add(mmd_squared(z, ns, kernel), scalar_multiply(ce, gamma))


def weight_node_source_kd_loss(student, targets, xs, ys, tau, alpha):
    """source_kd_loss as it read with alpha as a node of its own (see
    weight_node_teacher_da_loss)."""
    logits = student.logits(xs)
    return ad.add(distill_kl(logits, targets, tau),
                  scalar_multiply(cross_entropy(logits, ys), alpha))


@pytest.mark.parametrize("stack", [(), (3,)])
@pytest.mark.parametrize("weight", [0.0, 0.7, 1.0, -2.5])
@pytest.mark.parametrize("term", ["teacher_da_loss", "source_kd_loss"])
def test_a_head_scaled_by_its_weight_gives_the_bits_of_a_weight_node(term, weight,
                                                                     stack):
    spec = ModelSpec(4, (16, 8), 3, seed=21)
    model = (build(spec) if not stack else
             stack_models([build(replace(spec, seed=21 + k)) for k in range(stack[0])]))
    rng = np.random.default_rng(len(stack))
    xs = rng.normal(size=stack + (12, 4))
    xt = rng.normal(size=stack + (12, 4)) + 0.5
    ys = rng.integers(0, 3, size=stack + (12,))
    targets = softmax_np(rng.normal(size=stack + (12, 3)), 4.0)
    builds = {
        "teacher_da_loss": (
            lambda g: teacher_da_loss(model, pooled(g, xs, xt), ys, KernelConfig(),
                                      weight)[0],
            lambda g: weight_node_teacher_da_loss(model, pooled(g, xs, xt), ys,
                                                  KernelConfig(), weight)),
        "source_kd_loss": (
            lambda g: source_kd_loss(model, targets, g.tensor(xs), ys, 4.0, weight),
            lambda g: weight_node_source_kd_loss(model, targets, g.tensor(xs), ys,
                                                 4.0, weight))}

    def run(loss_of):
        g = ad.Graph(stack)
        loss = loss_of(g)
        loss.backward(0.3)
        return [loss.values] + model.bound_gradients()

    new, old = map(run, builds[term])
    assert [a.tobytes() for a in new] == [b.tobytes() for b in old]


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


class TestGamma:
    def test_every_adaptation_step_takes_gamma(self, monkeypatch):
        # gamma is constant: each step of each epoch weighs CE by cfg.gamma
        real = kduda.trainer.teacher_da_loss
        seen = []

        def recording(teacher, x, ys, kernel, gamma):
            seen.append(gamma)
            return real(teacher, x, ys, kernel, gamma)

        monkeypatch.setattr(kduda.trainer, "teacher_da_loss", recording)
        cfg = TrainConfig(epochs=5, batch_size=20, gamma=1.5)
        kduda.trainer.train_uda_only(build(ModelSpec(2, (4,), 3, seed=1)),
                                     gen_blob_shift(40, 3, 2, 1.5, 1.0, 0), cfg)
        assert seen == [1.5] * 10

    def test_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(epochs=0, gamma=1.0)
        with pytest.raises(ParameterError):
            TrainConfig(epochs=100, gamma=-1.0)


class TestLossWeights:
    def test_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(gamma=-0.1)
        with pytest.raises(ParameterError):
            TrainConfig(alpha=-0.1)
        with pytest.raises(ParameterError):
            TrainConfig(tau=0.0)

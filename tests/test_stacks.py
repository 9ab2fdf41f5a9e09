"""Stacks of cells: every op, loss, model and data path over a leading axis
of S cells gives each cell exactly what it gives on its own, and so do the
reference nodes of tests/fdcheck.py that the MMD node is checked against.

Three kinds of check: finite differences through every op at S = 1 and
S = 3; stacked results, values and adjoints, equal to the per-cell results
bit for bit; and the training pieces around them (batches, bandwidths,
soft targets, evaluation, logs) stacked against sliced.
"""

from dataclasses import replace

import numpy as np
import pytest

import kduda.autodiff as ad
import kduda.losses
from kduda import trainer
from kduda.autodiff import Graph, softmax_np
from kduda.data import batches, gen_blob_shift, stack_pairs
from kduda.errors import ParameterError, ShapeError
from kduda.losses import (KernelConfig, _pair_sqdist, cross_entropy,
                          distill_kl, mmd_squared, source_kd_loss,
                          target_kd_loss, teacher_da_loss)
from kduda.models import ModelSpec, build, stack
from fdcheck import (finite_diff_grad, old_kernel_bank_mean, old_pairwise_sqdist,
                     relative_error, scalar_multiply, weighted_sum)

FIXED = KernelConfig(bandwidths=(0.7, 1.3))


def _positive(rng, shape):
    return rng.uniform(0.5, 2.0, size=shape)


def _signed(rng, shape):
    return _positive(rng, shape) * rng.choice([-1.0, 1.0], size=shape)


def _probs(rng, shape):
    return softmax_np(rng.normal(size=shape), 1.0)


def _cases(S, rng):
    """name -> (op on the stack, cell(s) -> the op on cell s alone, inputs).
    Ops take graph tensors; every input carries the leading axis of S."""
    labels = rng.integers(0, 3, size=(S, 4))
    sig = rng.uniform(0.5, 2.0, size=(S, 3))
    teacher = _probs(rng, (S, 4, 3))

    def same(op):
        return op, lambda s: op

    return {
        "add": (*same(ad.add), [_signed(rng, (S, 4, 3)), _signed(rng, (S, 4, 3))]),
        "scalar_multiply": (*same(lambda a: scalar_multiply(a, -1.7)),
                            [_signed(rng, (S, 4, 3))]),
        "linear": (*same(ad.linear), [_signed(rng, (S, 5, 3)),
                                      _signed(rng, (S, 3, 4)), _signed(rng, (S, 4))]),
        "pairwise_sqdist": (*same(old_pairwise_sqdist),
                            [_signed(rng, (S, 4, 3)), _signed(rng, (S, 5, 3))]),
        "kernel_bank_mean": (lambda d: old_kernel_bank_mean(d, sig),
                             lambda s: lambda d: old_kernel_bank_mean(d, sig[s]),
                             [_positive(rng, (S, 4, 5))]),
        "cross_entropy": (lambda z: cross_entropy(z, labels),
                          lambda s: lambda z: cross_entropy(z, labels[s]),
                          [_signed(rng, (S, 4, 3))]),
        "distill_kl": (lambda z: distill_kl(z, teacher, 3.0),
                       lambda s: lambda z: distill_kl(z, teacher[s], 3.0),
                       [_signed(rng, (S, 4, 3))]),
        "mmd_squared": (*same(lambda z: mmd_squared(z, 4, FIXED)),
                        [_signed(rng, (S, 9, 3))]),
        "cross_entropy_rows": (
            lambda z: cross_entropy(z, labels[:, :3], slice(1, 4), 0.7),
            lambda s: lambda z: cross_entropy(z, labels[s, :3], slice(1, 4), 0.7),
            [_signed(rng, (S, 5, 3))]),
    }


CASE_NAMES = list(_cases(1, np.random.default_rng(0)))


def _case(name, S, seed=0):
    return _cases(S, np.random.default_rng([seed, S, CASE_NAMES.index(name)]))[name]


class TestFiniteDifferences:
    @pytest.mark.parametrize("S", [1, 3])
    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_every_op_over_a_stack(self, name, S):
        op, _, inputs = _case(name, S)
        g = Graph()
        leaves = [g.tensor(a) for a in inputs]
        out = op(*leaves)
        weight = np.random.default_rng(7).normal(size=out.values.shape)
        weighted_sum(out, weight).backward()
        for i, leaf in enumerate(leaves):
            def loss_at(v, i=i):
                gg = Graph()
                args = [gg.tensor(v if j == i else a) for j, a in enumerate(inputs)]
                return weighted_sum(op(*args), weight).item()

            err = relative_error(finite_diff_grad(loss_at, inputs[i].copy()),
                                 leaf.grad)
            assert err < 1e-5, f"{name} input {i}: relative error {err:.2e}"

    def test_linear_with_relu_away_from_the_kink(self):
        rng = np.random.default_rng(3)
        x, w, b = rng.normal(size=(3, 5, 3)), rng.normal(size=(3, 3, 4)), \
            rng.normal(size=(3, 4))
        assert np.abs(x @ w + b[:, None, :]).min() > 1e-3
        weight = rng.normal(size=(3, 5, 4))
        g = Graph()
        leaves = [g.tensor(a) for a in (x, w, b)]
        weighted_sum(ad.linear(*leaves, relu=True), weight).backward()
        for i, leaf in enumerate(leaves):
            def loss_at(v, i=i):
                gg = Graph()
                args = [gg.tensor(v if j == i else a)
                        for j, a in enumerate((x, w, b))]
                return weighted_sum(ad.linear(*args, relu=True), weight).item()

            err = relative_error(finite_diff_grad(loss_at, leaf.values.copy()),
                                 leaf.grad)
            assert err < 1e-5


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedEqualsSliced:
    """Cell s of a stacked op, value and adjoints, is the op on cell s."""

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_values_and_adjoints(self, name):
        S = 3
        op, cell_op, inputs = _case(name, S, seed=1)
        g = Graph()
        out = op(*[g.tensor(a) for a in inputs])
        upstream = np.random.default_rng(2).normal(size=out.values.shape)
        adjoints = out._vjp(upstream)
        for s in range(S):
            gs = Graph()
            cell = cell_op(s)(*[gs.tensor(a[s]) for a in inputs])
            assert _same_bits(out.values[s], cell.values)
            for new, old in zip(adjoints, cell._vjp(upstream[s])):
                assert _same_bits(new[s], old)

    def test_linear_with_relu(self):
        rng = np.random.default_rng(6)
        x, w, b = rng.normal(size=(3, 7, 5)), rng.normal(size=(3, 5, 4)), \
            rng.normal(size=(3, 4))
        upstream = rng.normal(size=(3, 7, 4))
        g = Graph()
        out = ad.linear(g.tensor(x), g.tensor(w), g.tensor(b), relu=True)
        adjoints = out._vjp(upstream)
        for s in range(3):
            gs = Graph()
            cell = ad.linear(gs.tensor(x[s]), gs.tensor(w[s]), gs.tensor(b[s]),
                             relu=True)
            assert _same_bits(out.values[s], cell.values)
            for new, old in zip(adjoints, cell._vjp(upstream[s])):
                assert _same_bits(new[s], old)

    def test_mmd_gradients(self):
        rng = np.random.default_rng(4)
        fs, ft = rng.normal(size=(3, 6, 4)), rng.normal(size=(3, 5, 4)) + 0.3
        z = np.concatenate((fs, ft), -2)
        for kernel in (FIXED, KernelConfig()):
            g = Graph((3,))
            a = g.tensor(z)
            loss = mmd_squared(a, 6, kernel)
            loss.backward()
            for s in range(3):
                a_s = Graph().tensor(z[s])
                cell = mmd_squared(a_s, 6, kernel)
                cell.backward()
                assert _same_bits(loss.values[s], cell.values)
                assert _same_bits(a.grad[s], a_s.grad)

    @pytest.mark.parametrize("chunk", [5, 64])
    def test_mmd_over_several_passes_of_its_kernel_bank(self, monkeypatch, chunk):
        # 12 pooled rows give 66 pairs: 14 passes of 5 with a short last one,
        # or 2 passes of 64
        monkeypatch.setattr(kduda.losses, "_PAIR_CHUNK", chunk)
        rng = np.random.default_rng(8)
        fs, ft = rng.normal(size=(3, 7, 4)), rng.normal(size=(3, 5, 4)) + 0.3
        z = np.concatenate((fs, ft), -2)
        g = Graph((3,))
        a = g.tensor(z)
        loss = mmd_squared(a, 7, KernelConfig())
        loss.backward()
        for s in range(3):
            a_s = Graph().tensor(z[s])
            cell = mmd_squared(a_s, 7, KernelConfig())
            cell.backward()
            assert _same_bits(loss.values[s], cell.values)
            assert _same_bits(a.grad[s], a_s.grad)

    def test_backward_seeds_each_cell_of_a_stacked_loss_with_one(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 8, 2))
        g = Graph((3,))
        leaf = g.tensor(x)
        loss = mmd_squared(ad.add(leaf, scalar_multiply(leaf, -3.0)), 4, FIXED)
        assert loss.values.shape == (3,)
        loss.backward()
        for s in range(3):
            cell_leaf = Graph().tensor(x[s])
            mmd_squared(ad.add(cell_leaf, scalar_multiply(cell_leaf, -3.0)), 4,
                        FIXED).backward()
            assert _same_bits(leaf.grad[s], cell_leaf.grad)

    def test_backward_wants_one_value_per_cell(self):
        g = Graph((3,))
        with pytest.raises(ShapeError):
            ad.backward(g.tensor(np.ones(2)))
        with pytest.raises(ShapeError):
            ad.backward(g.tensor(1.0))
        with pytest.raises(ShapeError):
            ad.backward(Graph().tensor(np.ones(3)))

    def test_ops_reject_mismatched_stacks(self):
        g = Graph()
        with pytest.raises(ShapeError):
            ad.linear(g.tensor(np.ones((2, 4, 3))), g.tensor(np.ones((3, 3, 5))),
                      g.tensor(np.ones((2, 5))))
        with pytest.raises(ShapeError):
            cross_entropy(g.tensor(_probs(np.random.default_rng(0), (2, 4, 3))),
                          np.zeros((3, 4), dtype=int))


# -- the training pieces around the ops -------------------------------------------


def _pairs(seeds, n=60):
    return [gen_blob_shift(n, 3, 2, 1.5, 1.0, seed) for seed in seeds]


class TestDataStacks:
    def test_each_cell_keeps_its_own_batch_order(self):
        pairs = _pairs((0, 1, 2))
        stacked = batches(stack_pairs(pairs), 25, epoch=3, seed=(7, 8, 9))
        for s, (pair, seed) in enumerate(zip(pairs, (7, 8, 9))):
            alone = batches(pair, 25, epoch=3, seed=seed)
            assert len(alone) == len(stacked) == 3  # last batch is short
            for (x, ys), (x1, ys1) in zip(stacked, alone):
                assert _same_bits(x[s], x1) and _same_bits(ys[s], ys1)

    def test_a_stack_takes_one_seed_per_cell(self):
        pair = stack_pairs(_pairs((0, 1)))
        with pytest.raises(ParameterError):
            batches(pair, 10, epoch=0, seed=3)
        with pytest.raises(ParameterError):
            batches(pair, 10, epoch=0, seed=(3, 4, 5))

    def test_pairs_of_different_shapes_do_not_stack(self):
        with pytest.raises(ShapeError):
            stack_pairs([gen_blob_shift(60, 3, 2, 1.5, 1.0, 0),
                         gen_blob_shift(30, 3, 2, 1.5, 1.0, 1)])


class TestResolveStacks:
    def _pairs(self, fs, ft):
        """mmd_squared's pair distances of each cell's pooled sample."""
        return _pair_sqdist(np.concatenate([fs, ft], axis=-2), fs.shape[-2])

    @pytest.mark.parametrize("rows_s,rows_t", [(1, 1), (4, 7), (32, 32), (32, 16)])
    def test_each_cell_gets_its_own_median(self, rows_s, rows_t):
        rng = np.random.default_rng(rows_s * 100 + rows_t)
        fs = rng.normal(size=(3, rows_s, 3))
        ft = rng.normal(size=(3, rows_t, 3)) + 0.5
        fs[1] = 0.0  # a degenerate cell beside two ordinary ones
        ft[1] = 0.0
        stacked = KernelConfig().resolve(self._pairs(fs, ft))
        assert stacked.shape == (3, 5)
        for s in range(3):
            assert _same_bits(stacked[s], KernelConfig().resolve(
                self._pairs(fs[s], ft[s])))
        assert tuple(stacked[1]) == kduda.losses.MEDIAN_MULTIPLIERS

    def test_a_nan_stays_in_its_cell(self):
        rng = np.random.default_rng(0)
        pairs = self._pairs(rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 3, 2)))
        pairs[1, 8] = np.nan
        sig = KernelConfig().resolve(pairs)
        assert np.isfinite(sig[0]).all() and np.isnan(sig[1]).all()

    def test_fixed_bandwidths_cover_every_cell(self):
        pairs = self._pairs(np.zeros((2, 3, 2)), np.ones((2, 3, 2)))
        assert FIXED.resolve(pairs).tolist() == [[0.7, 1.3]] * 2


# the teacher and its batch rows at each workload shape: joint_headline and
# scenario_grid (full and short last batch), wide_batch, criterion 9's
# config, and sweep teachers of width 32 and 128
TEACHER_SHAPES = [
    (2, (128, 128, 64), 3, 32), (2, (128, 128, 64), 3, 16),
    (8, (256, 256, 128), 4, 256), (2, (8,), 3, 30),
    (2, (32, 32, 16), 3, 32), (2, (32, 32, 16), 3, 16),
]


class TestSharedTeacherForward:
    @pytest.mark.parametrize("dim,hidden,classes,rows", TEACHER_SHAPES)
    def test_one_forward_on_both_domains_equals_two(self, dim, hidden, classes,
                                                    rows):
        rng = np.random.default_rng(rows)
        teacher = build(ModelSpec(dim, hidden, classes, seed=rows))
        for p in teacher.parameters():  # biases off zero, as after training
            p += rng.normal(scale=0.05, size=p.shape)
        for _ in range(5):
            xs, xt = rng.normal(size=(rows, dim)), rng.normal(size=(rows, dim)) + 1.0
            soft = softmax_np(teacher.predict_logits(np.concatenate((xs, xt))), 20.0)
            # the parent form: a forward and a softmax per domain
            assert _same_bits(soft[:rows], softmax_np(teacher.predict_logits(xs), 20.0))
            assert _same_bits(soft[rows:], softmax_np(teacher.predict_logits(xt), 20.0))

    def test_a_stacked_teacher_gives_each_cell_its_own_targets(self):
        rng = np.random.default_rng(1)
        members = [build(ModelSpec(2, (128, 128, 64), 3, seed=k)) for k in range(2)]
        x = rng.normal(size=(2, 64, 2))
        soft = softmax_np(stack(members).predict_logits(x), 4.0)
        for s, member in enumerate(members):
            assert _same_bits(soft[s], softmax_np(member.predict_logits(x[s]), 4.0))


class TestModelStacks:
    def _members(self):
        return [build(ModelSpec(2, (8, 4), 3, seed=k)) for k in range(3)]

    def test_stack_shapes(self):
        model = stack(self._members())
        assert model.stack_shape == (3,)
        assert [w.shape for w in model.weights] == [(3, 2, 8), (3, 8, 4), (3, 4, 3)]
        assert build(ModelSpec(2, (8,), 3)).stack_shape == ()
        with pytest.raises(ShapeError):
            stack([build(ModelSpec(2, (8,), 3)), build(ModelSpec(2, (4,), 3))])
        with pytest.raises(ShapeError):
            stack([model])

    def test_forwards_and_evaluation_per_cell(self):
        members = self._members()
        model = stack(members)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 10, 2))
        y = rng.integers(0, 3, size=(3, 10))
        g = Graph()
        logits = model.logits(g.tensor(x)).values
        accs = trainer.evaluate(model, x, y)
        for s, member in enumerate(members):
            assert _same_bits(model.predict_logits(x)[s], member.predict_logits(x[s]))
            assert _same_bits(logits[s], member.logits(Graph().tensor(x[s])).values)
            assert accs[s] == trainer.evaluate(member, x[s], y[s])
        with pytest.raises(ShapeError, match=r"\(3, n, 2\)"):
            model.predict_logits(x[0])

    def test_loss_gradients_per_cell(self):
        rng = np.random.default_rng(2)
        teachers = self._members()
        students = [build(ModelSpec(2, (4,), 3, seed=10 + k)) for k in range(3)]
        xs, xt = rng.normal(size=(3, 6, 2)), rng.normal(size=(3, 6, 2)) + 0.5
        ys = rng.integers(0, 3, size=(3, 6))
        gamma, tau, alpha = 1.0, 4.0, 0.8

        def step(teacher, student, xs, ys, xt, stack_shape):
            g = Graph(stack_shape)
            da, _ = teacher_da_loss(teacher, g.tensor(np.concatenate((xs, xt), -2)),
                                    ys, KernelConfig(), gamma)
            da.backward()
            g = Graph(stack_shape)
            soft_s, soft_t = np.split(softmax_np(teacher.predict_logits(
                np.concatenate((xs, xt), -2)), tau), [xs.shape[-2]], axis=-2)
            kd = ad.add(target_kd_loss(student, soft_t, g.tensor(xt), tau),
                        source_kd_loss(student, soft_s, g.tensor(xs), ys, tau,
                                       alpha))
            kd.backward()
            return teacher.bound_gradients() + student.bound_gradients()

        stacked = step(stack(teachers), stack(students), xs, ys, xt, (3,))
        for s in range(3):
            alone = step(teachers[s], students[s], xs[s], ys[s], xt[s], ())
            for new, old in zip(stacked, alone):
                assert _same_bits(new[s], old)


SCENARIO_ARGS = {"uda_only": lambda t, s, p, c: (s, p, c)}


class TestTrainingStacks:
    @pytest.mark.parametrize("scenario", list(trainer.SCENARIOS))
    def test_each_cell_logs_what_it_logs_alone(self, scenario):
        seeds = (0, 1, 2)
        cfg = trainer.TrainConfig(epochs=4, batch_size=25, tau=4.0, lr_da=0.05,
                                  lr_kd=0.05)
        train = getattr(trainer, f"train_{scenario}")
        args = SCENARIO_ARGS.get(scenario, lambda t, s, p, c: (t, s, p, c))

        def models(seed):
            return (build(ModelSpec(2, (8,), 3, seed=100 + seed)),
                    build(ModelSpec(2, (4,), 3, seed=200 + seed)))

        members = [models(seed) for seed in seeds]
        pairs = _pairs(seeds)
        log = train(*args(stack([m[0] for m in members]),
                          stack([m[1] for m in members]), stack_pairs(pairs),
                          replace(cfg, seed=seeds)))
        cells = log.cells()
        assert len(cells) == 3
        for seed, cell, (teacher, student), pair in zip(seeds, cells, members, pairs):
            alone = train(*args(teacher, student, pair, replace(cfg, seed=seed)))
            assert [rec.row()[:-1] for rec in cell.records] == \
                [rec.row()[:-1] for rec in alone.records]

    def test_cells_share_each_epoch_seconds_equally(self):
        log = trainer.TrainLog(records=[trainer.EpochRecord(
            0, 0.5, 1.0, *(np.arange(2.0),) * 5, *(np.full(2, 0.5),) * 4, 3.0)])
        cells = log.cells()
        assert [c.records[0].seconds for c in cells] == [1.5, 1.5]
        assert [c.records[0].l_mmd for c in cells] == [0.0, 1.0]
        one = trainer.TrainLog(records=[trainer.EpochRecord(0, *[0.5] * 12)])
        assert one.cells()[0].records[0].row() == one.records[0].row()

    def test_models_and_pair_must_share_the_stack(self):
        pair = stack_pairs(_pairs((0, 1)))
        student = build(ModelSpec(2, (4,), 3))
        with pytest.raises(ShapeError, match="student stack"):
            trainer.train_uda_only(student, pair,
                                   trainer.TrainConfig(epochs=1, seed=(0, 1)))

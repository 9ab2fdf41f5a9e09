import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

import fdcheck
import kduda.autodiff as ad
import kduda.losses
import kduda.trainer
from kduda.data import batches, gen_blob_shift
from kduda.errors import NumericalAbort, ParameterError, ShapeError
from kduda.models import Model, ModelSpec, build, stack
from kduda.trainer import (
    CSV_COLUMNS,
    OptimizerState,
    TrainConfig,
    TrainLog,
    evaluate,
    sgd_step,
    train_joint,
    train_kd_then_uda,
    train_source_only,
    train_uda_only,
    train_uda_then_kd,
)


def small_pair(seed=0, shift=1.5, n=120):
    return gen_blob_shift(n, 3, 2, shift, 1.0, seed)


def small_models(seed=0):
    teacher = build(ModelSpec(2, (8,), 3, seed=seed + 100))
    student = build(ModelSpec(2, (4,), 3, seed=seed + 200))
    return teacher, student


def phase_starts(scenario, epochs):
    """(name, first epoch) of each phase a run of scenario steps through."""
    return [(p.name, start)
            for p, start, _ in kduda.trainer.phase_epochs(scenario, epochs)]


def quick_cfg(**overrides):
    # rates are hot for desk-scale runs: only a handful of steps per epoch
    base = dict(epochs=4, batch_size=30, tau=4.0, seed=0,
                lr_da=0.05, lr_kd=0.05)
    base.update(overrides)
    return TrainConfig(**base)


def most_live_graphs(monkeypatch, train):
    """Largest number of Graph objects alive at once during a short run of
    train(teacher, student, pair, cfg), with the cyclic GC switched off."""
    live = weakref.WeakSet()
    most = [0]
    original_init = ad.Graph.__init__

    def counting_init(graph, *args, **kwargs):
        original_init(graph, *args, **kwargs)
        live.add(graph)
        most[0] = max(most[0], len(live))

    monkeypatch.setattr(ad.Graph, "__init__", counting_init)
    teacher, student = small_models()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        train(teacher, student, small_pair(), quick_cfg(epochs=4))
    finally:
        if was_enabled:
            gc.enable()
    return most[0]


def params_bytes(model):
    return b"".join(p.tobytes() for p in model.parameters())


class TestSgdStep:
    def test_single_step(self):
        p = [np.array([0.0])]
        g = [np.array([1.0])]
        st = OptimizerState.for_params(p, lr=0.1, momentum=0.9)
        sgd_step(p, g, st)
        np.testing.assert_allclose(p[0], [-0.1], rtol=0, atol=1e-15)

    def test_two_unit_gradient_steps(self):
        # v1 = 1, v2 = 0.9 + 1 = 1.9, so p = -(0.1 + 0.19) = -0.29
        p = [np.array([0.0])]
        st = OptimizerState.for_params(p, lr=0.1, momentum=0.9)
        sgd_step(p, [np.array([1.0])], st)
        sgd_step(p, [np.array([1.0])], st)
        np.testing.assert_allclose(p[0], [-0.29], rtol=0, atol=1e-12)

    def test_momentum_coasts_through_a_zero_gradient(self):
        p = [np.array([0.0])]
        st = OptimizerState.for_params(p, lr=0.1, momentum=0.9)
        sgd_step(p, [np.array([1.0])], st)
        sgd_step(p, [np.array([0.0])], st)
        np.testing.assert_allclose(p[0], [-0.19], rtol=0, atol=1e-12)

    def test_zero_gradient_from_rest_leaves_params_alone(self):
        p = [np.array([1.25, -2.5])]
        before = p[0].copy()
        st = OptimizerState.for_params(p, lr=0.5, momentum=0.9)
        sgd_step(p, [np.zeros(2)], st)
        np.testing.assert_array_equal(p[0], before)

    def test_gradients_are_left_unchanged(self):
        p = [np.array([0.0, 0.0]), np.zeros((2, 3))]
        g = [np.array([1.0, -2.0]), np.arange(6.0).reshape(2, 3) - 2.5]
        kept = [a.copy() for a in g]
        st = OptimizerState.for_params(p, lr=0.1, momentum=0.9)
        sgd_step(p, g, st)
        sgd_step(p, g, st)
        for now, before in zip(g, kept):
            assert now.tobytes() == before.tobytes()

    def test_a_stack_steps_each_cell_as_alone(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(3, 4, 2))
        grads = [rng.normal(size=p.shape) for _ in range(3)]
        st = OptimizerState.for_params([p], lr=0.05, momentum=0.9)
        cells = [p[s].copy() for s in range(3)]
        cell_states = [OptimizerState.for_params([c], lr=0.05, momentum=0.9)
                       for c in cells]
        for g in grads:
            sgd_step([p], [g], st)
            for s, (c, cs) in enumerate(zip(cells, cell_states)):
                sgd_step([c], [g[s].copy()], cs)
        for s, c in enumerate(cells):
            assert p[s].tobytes() == c.tobytes()

    def test_shape_validation(self):
        p = [np.zeros(2)]
        st = OptimizerState.for_params(p, lr=0.1, momentum=0.9)
        with pytest.raises(ShapeError):
            sgd_step(p, [np.zeros(3)], st)
        with pytest.raises(ShapeError):
            sgd_step(p, [np.zeros(2), np.zeros(2)], st)
        with pytest.raises(ParameterError):
            OptimizerState.for_params(p, lr=0.0, momentum=0.9)


class TestLrSchedule:
    def test_exponential_endpoints(self):
        cfg = TrainConfig(lr_da=0.001, lr_da_final_fraction=0.01)
        assert cfg.lr_da_at(0, 100) == 0.001
        np.testing.assert_allclose(cfg.lr_da_at(100, 100), 1e-5, rtol=1e-12)
        np.testing.assert_allclose(cfg.lr_da_at(50, 100), 1e-4, rtol=1e-12)

    @pytest.mark.parametrize("lr_da", [0.003, 0.001, 0.1, 1e-7, 0.7])
    def test_fraction_one_keeps_lr_da_bit_for_bit(self, lr_da):
        # 1.0 ** x is exactly 1.0, so a constant rate needs no mode of its own
        cfg = TrainConfig(lr_da=lr_da, lr_da_final_fraction=1.0)
        for count in range(201):
            for k in range(count + 1):
                assert cfg.lr_da_at(k, count) == lr_da


def hand_model():
    """Forward pass is the identity on well-separated 2-d inputs."""
    spec = ModelSpec(2, (2,), 2, seed=0)
    weights = [np.eye(2), np.eye(2)]
    biases = [np.array([10.0, 10.0]), np.array([-10.0, -10.0])]
    return Model(spec, weights, biases)


class TestEvaluate:
    def test_perfect_predictions(self):
        m = hand_model()
        x = np.array([[2.0, 0.0], [0.0, 2.0], [5.0, 1.0]])
        assert evaluate(m, x, np.array([0, 1, 0])) == 1.0

    def test_two_of_three(self):
        m = hand_model()
        x = np.array([[2.0, 0.0], [0.0, 2.0], [5.0, 1.0]])
        assert evaluate(m, x, np.array([0, 1, 1])) == pytest.approx(2.0 / 3.0)

    def test_constant_logits_on_balanced_labels(self):
        spec = ModelSpec(2, (2,), 2, seed=0)
        m = Model(spec, [np.eye(2), np.zeros((2, 2))],
                  [np.zeros(2), np.zeros(2)])
        x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
        assert evaluate(m, x, np.array([0, 1, 0, 1])) == 0.5

    def test_tie_breaks_toward_the_lowest_index(self):
        m = hand_model()
        assert evaluate(m, np.array([[3.0, 3.0]]), np.array([0])) == 1.0
        assert evaluate(m, np.array([[3.0, 3.0]]), np.array([1])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            evaluate(hand_model(), np.zeros((3, 2)), np.array([0, 1]))

    @pytest.mark.parametrize("stack_shape", [(), (3,)])
    def test_zero_rows_are_a_shape_error(self, stack_shape):
        # the mean over no rows used to be nan, with a RuntimeWarning
        model = hand_model()
        if stack_shape:
            model = stack([hand_model() for _ in range(3)])
        with pytest.raises(ShapeError, match=r"0, 2\)"):
            evaluate(model, np.zeros(stack_shape + (0, 2)),
                     np.zeros(stack_shape + (0,), dtype=int))

    @pytest.mark.parametrize("dims", [(2, (128, 128, 64), 3), (8, (256, 256, 128), 4)],
                             ids=["headline", "wide_batch"])
    @pytest.mark.parametrize("cells", [None, 3], ids=["unstacked", "stack3"])
    def test_row_blocks_match_one_forward(self, dims, cells):
        # the accuracies of the one-call form, bit for bit, on row counts
        # around the block size; labels equal to its predictions make any
        # changed prediction lower the blocked accuracy below 1
        block = kduda.trainer._EVAL_BLOCK
        input_dim, hidden, classes = dims
        if cells is None:
            model, stack_shape = build(ModelSpec(input_dim, hidden, classes, seed=0)), ()
        else:
            model = stack([build(ModelSpec(input_dim, hidden, classes, seed=s))
                           for s in range(cells)])
            stack_shape = (cells,)
        rng = np.random.default_rng(input_dim)
        for rows in (1, block - 1, block, block + 1, 2 * block + 3):
            x = rng.normal(size=stack_shape + (rows, input_dim))
            y = rng.integers(0, classes, size=stack_shape + (rows,))
            own = np.argmax(model.predict_logits(x), axis=-1)
            for labels in (y, own):
                new = np.asarray(evaluate(model, x, labels))
                old = np.asarray(fdcheck.old_evaluate(model, x, labels))
                assert new.tobytes() == old.tobytes(), rows
            assert (np.asarray(evaluate(model, x, own)) == 1.0).all()

    def test_memory_stays_within_a_few_blocks(self):
        # one forward holds a layer's input and output activations, at most
        # two blocks of the widest layer; the whole-domain form held two
        # 4096 x 256 arrays (16 MiB)
        model = build(ModelSpec(8, (256, 256, 128), 4, seed=0))
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4096, 8))
        y = rng.integers(0, 4, size=4096)
        block_bytes = kduda.trainer._EVAL_BLOCK * 256 * 8
        peak, _ = fdcheck.traced_peak(lambda: evaluate(model, x, y))
        assert peak < 3 * block_bytes, peak


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(epochs=0)
        with pytest.raises(ParameterError):
            TrainConfig(batch_size=0)
        with pytest.raises(ParameterError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ParameterError):
            TrainConfig(lr_da=0.0)
        with pytest.raises(ParameterError):
            TrainConfig(lr_da_final_fraction=1.5)
        with pytest.raises(ParameterError):
            TrainConfig(eval_every=0)
        with pytest.raises(ParameterError):
            TrainConfig(lr_da_final_fraction=0.0)

    @pytest.mark.parametrize("value", [0.42, 1.0, 0.1, 1e-300, 5e-324])
    def test_equal_endpoints_pin_beta_bit_for_bit_at_every_epoch(self, value):
        cfg = TrainConfig(beta_start=value, beta_end=value)
        for t in [*range(cfg.epochs + 1), 0.5, 199.25]:
            assert cfg.beta_at(t) == value


class TestJointTraining:
    def test_log_covers_every_epoch(self):
        teacher, student = small_models()
        log = train_joint(teacher, student, small_pair(), quick_cfg())
        assert len(log.records) == 4
        assert [r.epoch for r in log.records] == [0, 1, 2, 3]
        assert phase_starts("joint", 4) == [("joint", 0)]
        assert log.final() is log.records[-1]

    def test_beta_column_follows_the_schedule(self):
        teacher, student = small_models()
        cfg = quick_cfg(epochs=6)
        log = train_joint(teacher, student, small_pair(), cfg)
        for t, rec in enumerate(log.records):
            assert rec.beta == cfg.beta_at(t)

    def test_total_recomposes_from_parts(self):
        teacher, student = small_models()
        log = train_joint(teacher, student, small_pair(), quick_cfg(epochs=3))
        for r in log.records:
            expected = (1.0 - r.beta) * r.l_tda + r.beta * (r.l_tkd + r.l_skd)
            np.testing.assert_allclose(r.l_total, expected, rtol=0, atol=1e-10)

    def test_weight_zero_keeps_the_model_bits(self):
        # a joint epoch's steps with the student at weight 0 and the teacher
        # at 1: beta 0, which the schedule cannot reach
        teacher, student = small_models()
        before = params_bytes(student)
        t_before = params_bytes(teacher)
        cfg = quick_cfg()
        opts = [OptimizerState.for_params(m.parameters(), rate, cfg.momentum)
                for m, rate in ((teacher, cfg.lr_da), (student, cfg.lr_kd))]
        for batch in batches(small_pair(), cfg.batch_size, 0, cfg.seed):
            for model, opt, move, weight in (
                    (teacher, opts[0], kduda.trainer._adapt, 1.0),
                    (student, opts[1], kduda.trainer._distill_both, 0.0)):
                kduda.trainer._descend(model, opt, weight, 0,
                                       *move(model, teacher, batch, cfg))
        assert params_bytes(student) == before
        assert params_bytes(teacher) != t_before

    def test_beta_one_freezes_the_teacher(self):
        teacher, student = small_models()
        before = params_bytes(teacher)
        s_before = params_bytes(student)
        train_joint(teacher, student, small_pair(),
                    quick_cfg(beta_start=1.0, beta_end=1.0))
        assert params_bytes(teacher) == before
        assert params_bytes(student) != s_before

    def test_repeated_runs_are_identical(self):
        logs, finals = [], []
        for _ in range(2):
            teacher, student = small_models()
            log = train_joint(teacher, student, small_pair(), quick_cfg())
            logs.append(log)
            finals.append(params_bytes(teacher) + params_bytes(student))
        assert finals[0] == finals[1]
        for ra, rb in zip(logs[0].records, logs[1].records):
            assert ra.row()[:-1] == rb.row()[:-1]  # all but the seconds column

    def test_eval_labels_never_touch_training(self):
        pair = small_pair(seed=3)
        rng = np.random.default_rng(0)
        scrambled = dataclasses.replace(
            pair, yt_eval=rng.permutation(pair.yt_eval))
        finals, rows = [], []
        for p in (pair, scrambled):
            teacher, student = small_models()
            log = train_joint(teacher, student, p, quick_cfg())
            finals.append(params_bytes(teacher) + params_bytes(student))
            rows.append([(r.l_mmd, r.l_tda, r.l_tkd, r.l_skd, r.l_total, r.beta)
                         for r in log.records])
        assert finals[0] == finals[1]
        assert rows[0] == rows[1]

    def test_class_count_mismatch(self):
        teacher = build(ModelSpec(2, (4,), 3, seed=0))
        student = build(ModelSpec(2, (4,), 2, seed=1))
        with pytest.raises(ShapeError):
            train_joint(teacher, student, small_pair(), quick_cfg())

    def test_exploding_rate_aborts_with_context(self):
        # the step has to overflow float64 outright; merely huge rates land in
        # a finite dead state because relu and the log floor bound every term
        teacher, student = small_models()
        cfg = quick_cfg(epochs=20, lr_da=1e154, lr_kd=1e154)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalAbort, match=r"not finite at epoch \d+"):
                train_joint(teacher, student, small_pair(), cfg)

    def test_spent_tapes_free_without_the_cyclic_gc(self, monkeypatch):
        # each DA and KD step returns floats only and reading the gradients
        # ends the model's binding, so a step's graph is gone when it returns
        assert most_live_graphs(monkeypatch, train_joint) <= 1

    def test_learning_happens_at_all(self):
        teacher, student = small_models()
        cfg = quick_cfg(epochs=20)
        log = train_joint(teacher, student, small_pair(n=200), cfg)
        final = log.final()
        assert final.teacher_src_acc > 0.8
        assert final.student_tgt_acc > 0.45


class TestEvalCadence:
    def test_metrics_refresh_only_on_eval_epochs(self):
        teacher, student = small_models()
        cfg = quick_cfg(epochs=7, eval_every=5)
        log = train_joint(teacher, student, small_pair(), cfg)
        accs = [r.teacher_src_acc for r in log.records]
        assert accs[1] == accs[0] == accs[2] == accs[3] == accs[4]
        assert log.records[5].epoch == 5
        # final epoch is always measured
        assert not math.isnan(log.records[6].student_tgt_acc)

    @pytest.mark.parametrize("eval_every", [1, 3])
    @pytest.mark.parametrize("scenario", list(kduda.trainer.SCENARIOS))
    def test_reused_accuracies_repeat_a_full_evaluation(self, monkeypatch,
                                                        scenario, eval_every):
        # a model not trained since its last evaluation is not evaluated
        # again; every log line, seconds apart, must still be the bytes of
        # a run that evaluates both models on every eval epoch
        teacher, student = small_models()
        if scenario == "uda_only":
            teacher = None
        pair = small_pair()
        cfg = quick_cfg(epochs=7, eval_every=eval_every)
        record = kduda.trainer.EpochRecord
        full = []  # the records of a full evaluation

        def fully_evaluated(epoch, *fields):
            if epoch % eval_every == 0 or epoch == cfg.epochs - 1:
                accs = [math.nan if m is None else evaluate(m, x, y)
                        for m in (teacher, student)
                        for x, y in ((pair.xs, pair.ys), (pair.xt, pair.yt_eval))]
            else:
                accs = full[-1].row()[8:12]
            full.append(record(epoch, *fields[:7], *map(float, accs), fields[11]))
            return record(epoch, *fields)

        monkeypatch.setattr(kduda.trainer, "EpochRecord", fully_evaluated)
        log = kduda.trainer._run_phases(scenario, teacher, student, pair, cfg)
        assert [r.row()[:-1] for r in log.records] == \
            [r.row()[:-1] for r in full]

    @pytest.mark.parametrize("scenario,calls", [
        ("joint", 4 * 7), ("source_only", 4 * 7), ("uda_only", 2 * 7),
        # the model a phase does not train is evaluated once, then reused
        ("uda_then_kd", 2 * 7 + 2), ("kd_then_uda", 2 * 7 + 2),
    ])
    def test_evaluations_per_scenario(self, monkeypatch, scenario, calls):
        counted = []
        real = kduda.trainer.evaluate

        def counting(*args):
            counted.append(1)
            return real(*args)

        monkeypatch.setattr(kduda.trainer, "evaluate", counting)
        teacher, student = small_models()
        kduda.trainer._run_phases(scenario,
                                  None if scenario == "uda_only" else teacher,
                                  student, small_pair(), quick_cfg(epochs=7))
        assert len(counted) == calls


class TestInPlaceOpsInTraining:
    @pytest.mark.parametrize("scenario", ["joint", "kd_then_uda"])
    def test_logs_match_a_run_on_the_allocating_ops(self, monkeypatch,
                                                     scenario):
        # every log line, seconds apart, must be the bytes of a run whose
        # hot ops allocate a fresh array per step (tests/fdcheck.py)
        def run():
            teacher = build(ModelSpec(2, (16, 8), 3, seed=100))
            student = build(ModelSpec(2, (8, 4), 3, seed=200))
            log = kduda.trainer._run_phases(scenario, teacher, student,
                                            small_pair(), quick_cfg(epochs=3))
            return [r.row()[:-1] for r in log.records]

        new = run()
        called = set()

        def counted(fn):
            def wrapper(*args, **kwargs):
                called.add(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for owner, name, old in [
                (ad, "linear", fdcheck.old_linear),
                (kduda.trainer, "softmax_np", fdcheck.old_softmax_np),
                (kduda.losses, "_median_of_roots", fdcheck.median_of_roots),
                (Model, "predict_logits", fdcheck.old_predict_logits)]:
            monkeypatch.setattr(owner, name, counted(old))
        assert run() == new
        assert len(called) == 4


class TestUdaOnly:
    def test_student_fills_the_accuracy_columns(self):
        pair = small_pair()
        m = build(ModelSpec(2, (4,), 3, seed=5))
        final = train_uda_only(m, pair, quick_cfg()).final()
        assert math.isnan(final.teacher_src_acc)
        assert math.isnan(final.teacher_tgt_acc)
        assert final.student_src_acc == evaluate(m, pair.xs, pair.ys)
        assert final.student_tgt_acc == evaluate(m, pair.xt, pair.yt_eval)

    def test_rows_recompose_with_zero_blend(self):
        m = build(ModelSpec(2, (4,), 3, seed=5))
        log = train_uda_only(m, small_pair(), quick_cfg())
        for r in log.records:
            assert r.beta == 0.0
            assert r.l_tkd == 0.0 and r.l_skd == 0.0
            np.testing.assert_allclose(r.l_total, r.l_tda, rtol=0, atol=0)

    def test_no_shift_means_no_transfer_gap(self):
        gaps = []
        for seed in range(5):
            pair = gen_blob_shift(200, 2, 2, 0.0, 1.0, seed=seed)
            m = build(ModelSpec(2, (8,), 2, seed=seed + 50))
            cfg = quick_cfg(epochs=25, batch_size=32, seed=seed)
            log = train_uda_only(m, pair, cfg)
            final = log.final()
            gaps.append(abs(final.student_src_acc - final.student_tgt_acc))
        assert float(np.mean(gaps)) < 0.03


class TestKdThenUda:
    def test_phase_bookkeeping(self):
        teacher, student = small_models()
        cfg = quick_cfg(epochs=10)
        log = train_kd_then_uda(teacher, student, small_pair(), cfg)
        assert len(log.records) == 10
        assert phase_starts("kd_then_uda", 10) == [
            ("teacher_supervised", 0), ("distill_source", 3), ("student_uda", 6)]
        # supervised and adaptation rows carry beta 0, distillation rows beta 1
        betas = [r.beta for r in log.records]
        assert betas == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]

    def test_distillation_tracks_the_teacher_on_source(self):
        gaps = []
        for seed in range(5):
            pair = gen_blob_shift(200, 3, 2, 1.5, 1.0, seed=seed)
            teacher = build(ModelSpec(2, (16,), 3, seed=seed + 10))
            student = build(ModelSpec(2, (8,), 3, seed=seed + 20))
            cfg = quick_cfg(epochs=30, batch_size=32, seed=seed)
            log = train_kd_then_uda(teacher, student, pair, cfg)
            end_of_distill = log.records[19]
            gaps.append(abs(end_of_distill.student_src_acc
                            - end_of_distill.teacher_src_acc))
        assert float(np.mean(gaps)) < 0.05


    def test_spent_tapes_free_without_the_cyclic_gc(self, monkeypatch):
        # every phase's step returns floats only, so no phase's graph
        # outlives its step
        assert most_live_graphs(monkeypatch, train_kd_then_uda) <= 1


class TestUdaThenKd:
    def test_phase_bookkeeping(self):
        teacher, student = small_models()
        cfg = quick_cfg(epochs=7)
        log = train_uda_then_kd(teacher, student, small_pair(), cfg)
        assert len(log.records) == 7
        assert phase_starts("uda_then_kd", 7) == [("teacher_uda", 0),
                                                  ("distill_target", 3)]
        assert [r.beta for r in log.records] == [0.0] * 3 + [1.0] * 4

    def test_identical_student_is_already_distilled(self):
        # an epoch of the distill_target phase's steps alone
        teacher, _ = small_models()
        student, _ = small_models()
        cfg = quick_cfg()
        opt = OptimizerState.for_params(student.parameters(), cfg.lr_kd,
                                        cfg.momentum)
        for batch in batches(small_pair(), cfg.batch_size, 0, cfg.seed):
            terms = kduda.trainer._descend(student, opt, 1.0, 0,
                                           *kduda.trainer._distill_target(
                                               student, teacher, batch, cfg))
            assert abs(terms["L_tkd"]) <= 1e-10
        drift = max(float(np.abs(a - b).max())
                    for a, b in zip(student.parameters(), teacher.parameters()))
        assert drift <= 1e-9

    def test_spent_tapes_free_without_the_cyclic_gc(self, monkeypatch):
        # the distillation step returns floats only, like every other step
        assert most_live_graphs(monkeypatch, train_uda_then_kd) <= 1


class TestSourceOnly:
    def test_supervised_floor_runs_and_logs(self):
        teacher, _ = small_models()
        m = build(ModelSpec(2, (8,), 3, seed=9))
        log = train_source_only(teacher, m, small_pair(), quick_cfg(epochs=15))
        assert len(log.records) == 15
        assert phase_starts("source_only", 15) == [("source_only", 0)]
        final = log.final()
        assert final.student_src_acc > 0.8
        assert final.teacher_src_acc > 0.8
        for r in log.records:
            assert r.l_mmd == 0.0 and r.l_tkd == 0.0 and r.l_skd == 0.0

    def test_loss_decreases_overall(self):
        teacher, _ = small_models()
        m = build(ModelSpec(2, (8,), 3, seed=9))
        log = train_source_only(teacher, m, small_pair(), quick_cfg(epochs=15))
        assert log.records[-1].l_total < log.records[0].l_total

    def test_teacher_columns_from_the_teacher_losses_from_the_student(self):
        pair = small_pair()

        def run(teacher_seed, student_seed):
            teacher = build(ModelSpec(2, (8,), 3, seed=teacher_seed))
            student = build(ModelSpec(2, (4,), 3, seed=student_seed))
            log = train_source_only(teacher, student, pair, quick_cfg())
            return teacher, student, log

        teacher, student, log = run(100, 200)
        final = log.final()
        assert final.teacher_src_acc == evaluate(teacher, pair.xs, pair.ys)
        assert final.teacher_tgt_acc == evaluate(teacher, pair.xt, pair.yt_eval)
        assert final.student_src_acc == evaluate(student, pair.xs, pair.ys)
        assert final.student_tgt_acc == evaluate(student, pair.xt, pair.yt_eval)

        def losses(log):
            return [(r.l_tda, r.l_total) for r in log.records]
        # another teacher leaves the loss columns alone; another student not
        assert losses(run(101, 200)[2]) == losses(log)
        assert losses(run(100, 201)[2]) != losses(log)

    def test_spent_tapes_free_without_the_cyclic_gc(self, monkeypatch):
        assert most_live_graphs(monkeypatch, train_source_only) <= 1


class TestPhaseClocks:
    """beta follows the run's global epoch and gamma stays constant; every
    phase starts fresh optimizers, lr_da decaying over the phase's own epochs and lr_kd
    constant."""

    @pytest.mark.parametrize("train,phases", [
        (train_uda_then_kd, [("lr_da", 3), ("lr_kd", 4)]),
        (train_kd_then_uda, [("lr_da", 2), ("lr_kd", 2), ("lr_da", 4)]),
    ])
    def test_rates_restart_per_phase(self, monkeypatch, train, phases):
        real_sgd = kduda.trainer.sgd_step
        steps = []  # (lr, velocities all zero) per optimizer step

        def recording_sgd(params, grads, opt):
            steps.append((opt.lr, not any(v.any() for v in opt.velocities)))
            real_sgd(params, grads, opt)

        monkeypatch.setattr(kduda.trainer, "sgd_step", recording_sgd)
        cfg = quick_cfg(epochs=sum(n for _, n in phases), gamma=0.7,
                        lr_da=0.04, lr_kd=0.03)
        teacher, student = small_models()
        log = train(teacher, student, small_pair(), cfg)

        per_epoch = 4  # 120 source samples / batches of 30
        assert len(steps) == per_epoch * cfg.epochs
        epoch = 0
        for rate, count in phases:
            assert steps[per_epoch * epoch][0] == getattr(cfg, rate)
            for k in range(count):
                lr = (cfg.lr_kd if rate == "lr_kd" else
                      cfg.lr_da * cfg.lr_da_final_fraction ** (k / count))
                block = steps[per_epoch * epoch:per_epoch * (epoch + 1)]
                assert [s[0] for s in block] == pytest.approx([lr] * per_epoch,
                                                              rel=1e-12)
                # only a phase's first step finds zero velocities
                assert [fresh for _, fresh in block] == \
                    [k == 0] + [False] * (per_epoch - 1)
                rec = log.records[epoch]
                assert rec.beta == (1.0 if rate == "lr_kd" else 0.0)
                assert rec.gamma == cfg.gamma
                epoch += 1

    @pytest.mark.parametrize("train,scenario,epochs,phase", [
        (train_kd_then_uda, "kd_then_uda", 2, "teacher_supervised"),
        (train_uda_then_kd, "uda_then_kd", 1, "teacher_uda")])
    def test_a_phase_without_epochs_raises_before_any_epoch_trains(
            self, monkeypatch, train, scenario, epochs, phase):
        def no_epoch(*args):
            raise AssertionError("an epoch drew its batches")

        monkeypatch.setattr(kduda.trainer, "batches", no_epoch)
        teacher, student = small_models()
        before = params_bytes(teacher) + params_bytes(student)
        message = (f"epochs = {epochs} leaves the {phase} phase of {scenario} "
                   f"without epochs")
        with pytest.raises(ParameterError, match=f"^{message}$") as exc:
            train(teacher, student, small_pair(), quick_cfg(epochs=epochs))
        assert exc.value.field == "epochs"
        assert params_bytes(teacher) + params_bytes(student) == before

    @pytest.mark.parametrize("scenario", list(kduda.trainer.SCENARIOS))
    def test_moves_descend_their_rates_share_of_the_objective(self, monkeypatch,
                                                              scenario):
        # the driver descends an lr_da move's objective 1 - beta times and an
        # lr_kd move's beta times, which is exactly 1 in every fixed-beta phase
        real = kduda.trainer._descend
        seen = []  # (teacher?, weight, epoch) per step

        def recording(model, opt, weight, epoch, objective, terms):
            seen.append((model is teacher, weight, epoch))
            return real(model, opt, weight, epoch, objective, terms)

        monkeypatch.setattr(kduda.trainer, "_descend", recording)
        teacher, student = small_models()
        log = kduda.trainer._run_phases(
            scenario, None if scenario == "uda_only" else teacher, student,
            small_pair(), quick_cfg(epochs=6, beta_start=0.2, beta_end=0.7))
        assert len(seen) == 4 * 6 * (1 + (scenario in ("joint", "source_only")))
        for is_teacher, weight, epoch in seen:
            beta = log.records[epoch].beta
            if scenario == "joint":
                assert 0.0 < beta < 1.0
                assert weight == (1.0 - beta if is_teacher else beta)
            else:
                assert weight == 1.0


MOVE_NODES = [
    ("_adapt", "teacher", 16), ("_adapt", "student", 13),
    ("_supervised", "teacher", 14), ("_supervised", "student", 11),
    ("_distill_both", "student", 19), ("_distill_source", "student", 13),
    ("_distill_target", "student", 11)]


class TestMoveNodeCounts:
    @staticmethod
    def headline_move(move, role):
        """A call of move on the headline models and one 32-row batch."""
        models = {"teacher": build(ModelSpec(2, (128, 128, 64), 3, seed=1)),
                  "student": build(ModelSpec(2, (32, 16), 3, seed=2))}
        rng = np.random.default_rng(0)
        xs, ys = rng.normal(size=(32, 2)), rng.integers(0, 3, 32)
        batch = (np.concatenate((xs, rng.normal(size=(32, 2)))), ys)
        return lambda: getattr(kduda.trainer, move)(
            models[role], models["teacher"], batch, TrainConfig())

    @pytest.mark.parametrize("move,role,nodes", MOVE_NODES)
    def test_each_move_builds_its_known_tape(self, move, role, nodes):
        # _STEP_COST's op weights are fitted costs, not these counts
        objective, _ = self.headline_move(move, role)()
        assert len(objective.graph) == nodes

    @pytest.mark.parametrize("move,role,nodes", MOVE_NODES)
    def test_no_move_concatenates(self, monkeypatch, move, role, nodes):
        # every move reads its rows of the pooled batch by range
        call = self.headline_move(move, role)
        calls = []
        real = np.concatenate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counting)
        objective, _ = call()
        objective.backward()
        assert calls == []


class TestDivergenceGuard:
    """After each epoch every model the phase trained must keep each
    layer's weight norm finite and within 10x of its value before
    training, in every cell."""

    def test_growth_up_to_the_limit_passes_and_past_it_aborts(self):
        _, model = small_models()
        start = [np.sum(w * w) for w in model.weights]
        model.weights[1] *= 9.9
        kduda.trainer._check_weights("student", model, start, 3)
        model.weights[1] *= 10.2 / 9.9
        with pytest.raises(NumericalAbort, match=r"^student layer 1 weight norm "
                                                 r"grew 10\.2x at epoch 3$"):
            kduda.trainer._check_weights("student", model, start, 3)
        model.weights[1][0, 0] = np.nan
        with pytest.raises(NumericalAbort, match=r"^student layer 1 weight norm "
                                                 r"is not finite at epoch 3$"):
            kduda.trainer._check_weights("student", model, start, 3)

    def test_one_cell_of_a_stack_trips_it(self):
        model = stack([small_models(seed)[0] for seed in range(3)])
        start = [np.einsum("sij,sij->s", w, w) for w in model.weights]
        kduda.trainer._check_weights("teacher", model, start, 0)
        model.weights[0][1] *= 11.0
        with pytest.raises(NumericalAbort, match=r"^teacher layer 0 weight norm "
                                                 r"grew 11x at epoch 0$"):
            kduda.trainer._check_weights("teacher", model, start, 0)

    def test_a_layer_that_starts_at_zero_is_checked_for_finiteness_only(self):
        model = stack([small_models(seed)[1] for seed in range(2)])
        model.weights[1][0] = 0.0
        start = [np.einsum("sij,sij->s", w, w) for w in model.weights]
        model.weights[1][0] = 1e100
        kduda.trainer._check_weights("student", model, start, 2)
        model.weights[1][1] *= 11.0
        with pytest.raises(NumericalAbort, match=r"^student layer 1 weight norm "
                                                 r"grew 11x at epoch 2$"):
            kduda.trainer._check_weights("student", model, start, 2)
        model.weights[1][0, 0, 0] = np.inf
        with pytest.raises(NumericalAbort, match=r"^student layer 1 weight norm "
                                                 r"is not finite at epoch 2$"):
            kduda.trainer._check_weights("student", model, start, 2)

    def test_a_zeroed_head_trains(self):
        teacher, student = small_models()
        student.weights[-1][...] = 0.0
        log = train_joint(teacher, student, small_pair(n=200), quick_cfg(epochs=3))
        assert len(log.records) == 3
        assert np.isfinite(student.weights[-1]).all()
        assert np.abs(student.weights[-1]).max() > 0.0

    @pytest.mark.parametrize("train,roles", [
        (train_kd_then_uda, ["teacher", "student", "student"]),
        (train_source_only, ["student", "teacher"] * 3),
    ])
    def test_each_epoch_checks_the_models_its_phase_trained(self, monkeypatch,
                                                            train, roles):
        real = kduda.trainer._check_weights
        checked = []

        def recording(role, *args):
            checked.append(role)
            real(role, *args)

        monkeypatch.setattr(kduda.trainer, "_check_weights", recording)
        teacher, student = small_models()
        train(teacher, student, small_pair(), quick_cfg(epochs=3))
        assert checked == roles


class TestTrainLogCsv:
    def test_header_and_row_shape(self, tmp_path):
        teacher, student = small_models()
        log = train_joint(teacher, student, small_pair(), quick_cfg(epochs=2))
        path = str(tmp_path / "log.csv")
        log.to_csv(path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert len(first) == len(CSV_COLUMNS)
        assert first[0] == "0"
        # float fields round-trip through repr
        assert float(first[4]) == log.records[0].l_tda

    def test_final_of_empty_log(self):
        with pytest.raises(ParameterError):
            TrainLog().final()

"""Training loops: the joint progressive procedure and its three references.

The joint loop alternates two optimizer steps per paired batch. First the
big model takes a domain-adaptation step on (1 - beta) times its alignment
loss; then, with its just-updated parameters, it produces fresh soft targets
and the small model takes a distillation step on beta times the two distill
terms. beta is refreshed once per epoch from the exponential schedule. The
adaptation optimizer's learning rate decays exponentially to one hundredth
of its initial value over the run; the distillation optimizer's rate stays
constant.

Reference procedures: adapt-only on a single model, supervised-then-distill
-then-adapt (three phases), and adapt-the-big-model-then-distill (two
phases, distillation without labels).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Graph
from .data import DomainPair, batches
from .errors import NumericalAbort, ParameterError, ShapeError
from .losses import (BetaSchedule, KernelConfig, LossWeights, beta_at,
                     cross_entropy, gamma_at, source_kd_loss, target_kd_loss,
                     teacher_da_loss, total_loss)
from .models import Model

CSV_COLUMNS = ("epoch", "beta", "gamma", "L_mmd", "L_tda", "L_tkd", "L_skd",
               "L_total", "teacher_src_acc", "teacher_tgt_acc",
               "student_src_acc", "student_tgt_acc", "seconds")


@dataclass
class TrainConfig:
    """Defaults follow the reference setup; harness configs usually override
    epochs down to desk scale."""

    epochs: int = 400
    batch_size: int = 32
    beta_start: float = 0.1
    beta_end: float = 0.9
    tau: float = 20.0
    alpha: float = 0.8
    gamma: float = 1.0
    gamma_mode: str = "constant"
    lr_da: float = 0.001
    lr_kd: float = 0.001
    momentum: float = 0.9
    lr_da_decay: str = "exponential"
    lr_da_final_fraction: float = 0.01
    eval_every: int = 1
    seed: int = 0
    scale_kd_by_tau_sq: bool = True
    single_optimizer: bool = False
    beta_per_batch: bool = False
    beta_override: float | None = None
    kernel: KernelConfig = field(default_factory=KernelConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr_da <= 0 or self.lr_kd <= 0:
            raise ParameterError(
                f"learning rates must be positive, got {self.lr_da} and {self.lr_kd}")
        if not (0.0 <= self.momentum < 1.0):
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.lr_da_decay not in ("exponential", "constant"):
            raise ParameterError(f"unknown lr decay mode {self.lr_da_decay!r}")
        if not (0.0 < self.lr_da_final_fraction <= 1.0):
            raise ParameterError(
                f"lr_da_final_fraction must be in (0, 1], got {self.lr_da_final_fraction}")
        if self.eval_every < 1:
            raise ParameterError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.beta_override is not None and not (0.0 <= self.beta_override <= 1.0):
            raise ParameterError(
                f"beta_override must be in [0, 1], got {self.beta_override}")

    def schedule(self) -> BetaSchedule:
        return BetaSchedule(self.beta_start, self.beta_end, self.epochs)

    def weights_at(self, epoch: int) -> LossWeights:
        return LossWeights(
            gamma=gamma_at(epoch, self.epochs, self.gamma, self.gamma_mode),
            alpha=self.alpha, tau=self.tau,
            scale_kd_by_tau_sq=self.scale_kd_by_tau_sq)

    def beta_at_epoch(self, t) -> float:
        if self.beta_override is not None:
            return self.beta_override
        return beta_at(self.schedule(), t)


@dataclass
class EpochRecord:
    epoch: int
    beta: float
    gamma: float
    l_mmd: float
    l_tda: float
    l_tkd: float
    l_skd: float
    l_total: float
    teacher_src_acc: float
    teacher_tgt_acc: float
    student_src_acc: float
    student_tgt_acc: float
    seconds: float

    def row(self) -> list[str]:
        vals = [self.epoch, self.beta, self.gamma, self.l_mmd, self.l_tda,
                self.l_tkd, self.l_skd, self.l_total, self.teacher_src_acc,
                self.teacher_tgt_acc, self.student_src_acc,
                self.student_tgt_acc, self.seconds]
        return [str(vals[0])] + [repr(float(v)) for v in vals[1:]]


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)
    phase_boundaries: list[tuple[str, int]] = field(default_factory=list)

    def final(self) -> EpochRecord:
        if not self.records:
            raise ParameterError("empty training log")
        return self.records[-1]

    def to_csv(self, path: str):
        with open(path, "w") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for rec in self.records:
                fh.write(",".join(rec.row()) + "\n")


# -- optimizer ------------------------------------------------------------------


@dataclass
class OptimizerState:
    lr: float
    momentum: float
    velocities: list[np.ndarray]

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float, momentum: float):
        if lr <= 0:
            raise ParameterError(f"lr must be positive, got {lr}")
        return cls(lr, momentum, [np.zeros_like(p) for p in params])


def sgd_step(params: list[np.ndarray], grads: list[np.ndarray],
             state: OptimizerState):
    """v <- momentum v + g; p <- p - lr v; grads are zeroed afterwards."""
    if len(params) != len(grads) or len(params) != len(state.velocities):
        raise ShapeError(
            f"sgd_step: {len(params)} params, {len(grads)} grads, "
            f"{len(state.velocities)} velocities")
    for p, g, v in zip(params, grads, state.velocities):
        if p.shape != g.shape or p.shape != v.shape:
            raise ShapeError(
                f"sgd_step: param {p.shape}, grad {g.shape}, velocity {v.shape}")
        v *= state.momentum
        v += g
        p -= state.lr * v
        g[...] = 0.0


def lr_at(initial: float, epoch: int, epochs: int, final_fraction: float,
          mode: str = "exponential") -> float:
    if mode == "constant":
        return initial
    return initial * final_fraction ** (epoch / max(epochs, 1))


# -- evaluation -------------------------------------------------------------------


def evaluate(model: Model, x: np.ndarray, y_true: np.ndarray) -> float:
    """Accuracy of argmax predictions; argmax takes the lowest index on ties."""
    y_true = np.asarray(y_true)
    if x.shape[0] != y_true.shape[0]:
        raise ShapeError(
            f"evaluate: {x.shape[0]} inputs but {y_true.shape[0]} labels")
    preds = np.argmax(model.predict_logits(x), axis=1)
    return float(np.mean(preds == y_true))


def _check_finite(term: str, value: float, epoch: int):
    if not np.isfinite(value):
        raise NumericalAbort(f"{term} is not finite at epoch {epoch}")


class _Metrics:
    """Holds the latest accuracy snapshot; refreshed on eval epochs only."""

    def __init__(self, pair: DomainPair, cfg: TrainConfig,
                 teacher: Model | None, student: Model | None):
        self.pair = pair
        self.cfg = cfg
        self.teacher = teacher
        self.student = student
        self.values = (float("nan"),) * 4

    def at_epoch(self, epoch: int):
        if epoch % self.cfg.eval_every == 0 or epoch == self.cfg.epochs - 1:
            p = self.pair
            def acc(m, x, y):
                return evaluate(m, x, y) if m is not None else float("nan")
            self.values = (acc(self.teacher, p.xs, p.ys),
                           acc(self.teacher, p.xt, p.yt_eval),
                           acc(self.student, p.xs, p.ys),
                           acc(self.student, p.xt, p.yt_eval))
        return self.values


# -- steps -------------------------------------------------------------------------
#
# Each step builds its own graph and returns only floats, so the graph is
# freed when the step returns (bound_gradients ends the model's binding).


def _da_step(model: Model, xs_np: np.ndarray, ys: np.ndarray, xt_np: np.ndarray,
             cfg: TrainConfig, weights: LossWeights, opt: OptimizerState,
             epoch: int, scale: float | None = None) -> tuple[float, float]:
    """One adaptation step: descend MMD + gamma CE, times scale if given.
    Returns (mmd, tda)."""
    graph = Graph()
    xs, xt = graph.tensor(xs_np), graph.tensor(xt_np)
    tda, parts = teacher_da_loss(model, xs, ys, xt, cfg.kernel, weights)
    mmd, tda_val = parts["mmd"], tda.item()
    _check_finite("L_mmd", mmd, epoch)
    _check_finite("L_tda", tda_val, epoch)
    (tda if scale is None else ad.scalar_multiply(tda, scale)).backward()
    sgd_step(model.parameters(), model.bound_gradients(), opt)
    return mmd, tda_val


def _kd_step(student: Model, teacher: Model, xs_np: np.ndarray, ys: np.ndarray,
             xt_np: np.ndarray, weights: LossWeights, beta: float,
             opt: OptimizerState, epoch: int) -> tuple[float, float]:
    """One distillation step: descend beta * (target KD + source KD) from
    the teacher's current soft targets. Returns (tkd, skd)."""
    graph = Graph()
    xs, xt = graph.tensor(xs_np), graph.tensor(xt_np)
    tkd = target_kd_loss(student, teacher, xt, weights)
    skd, _ = source_kd_loss(student, teacher, xs, ys, weights)
    tkd_val, skd_val = tkd.item(), skd.item()
    _check_finite("L_tkd", tkd_val, epoch)
    _check_finite("L_skd", skd_val, epoch)
    ad.scalar_multiply(ad.add(tkd, skd), beta).backward()
    sgd_step(student.parameters(), student.bound_gradients(), opt)
    return tkd_val, skd_val


def _ce_step(model: Model, xs_np: np.ndarray, ys: np.ndarray,
             opt: OptimizerState, epoch: int) -> float:
    """One supervised step: descend source cross-entropy. Returns it."""
    graph = Graph()
    ce = cross_entropy(
        ad.softmax_temperature(model.logits(graph.tensor(xs_np)), 1.0), ys)
    ce_val = ce.item()
    _check_finite("L_tda", ce_val, epoch)
    ce.backward()
    sgd_step(model.parameters(), model.bound_gradients(), opt)
    return ce_val


def _source_kd_step(student: Model, teacher: Model, xs_np: np.ndarray,
                    ys: np.ndarray, weights: LossWeights, opt: OptimizerState,
                    epoch: int) -> float:
    """One labeled-source distillation step, unscaled. Returns skd."""
    graph = Graph()
    skd, _ = source_kd_loss(student, teacher, graph.tensor(xs_np), ys, weights)
    skd_val = skd.item()
    _check_finite("L_skd", skd_val, epoch)
    skd.backward()
    sgd_step(student.parameters(), student.bound_gradients(), opt)
    return skd_val


# -- joint procedure ---------------------------------------------------------------


def train_joint(teacher: Model, student: Model, pair: DomainPair,
                cfg: TrainConfig) -> TrainLog:
    if teacher.spec.num_classes != student.spec.num_classes:
        raise ShapeError(
            f"class counts differ: teacher {teacher.spec.num_classes}, "
            f"student {student.spec.num_classes}")
    log = TrainLog(phase_boundaries=[("joint", 0)])
    metrics = _Metrics(pair, cfg, teacher, student)
    da_opt = OptimizerState.for_params(teacher.parameters(), cfg.lr_da, cfg.momentum)
    kd_opt = OptimizerState.for_params(student.parameters(), cfg.lr_kd, cfg.momentum)
    joint_opt = None
    if cfg.single_optimizer:
        joint_opt = OptimizerState.for_params(
            teacher.parameters() + student.parameters(), cfg.lr_da, cfg.momentum)

    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        beta_epoch = cfg.beta_at_epoch(epoch)
        weights = cfg.weights_at(epoch)
        epoch_lr = lr_at(cfg.lr_da, epoch, cfg.epochs, cfg.lr_da_final_fraction,
                         cfg.lr_da_decay)
        da_opt.lr = epoch_lr
        if joint_opt is not None:
            joint_opt.lr = epoch_lr
        batch_list = batches(pair, cfg.batch_size, epoch, cfg.seed)
        nb = len(batch_list)
        sums = np.zeros(5)  # mmd, tda, tkd, skd, total
        for b_idx, (xs_np, ys, xt_np) in enumerate(batch_list):
            beta = (cfg.beta_at_epoch(epoch + b_idx / nb)
                    if cfg.beta_per_batch else beta_epoch)
            if cfg.single_optimizer:
                graph = Graph()
                xs, xt = graph.tensor(xs_np), graph.tensor(xt_np)
                loss, report = total_loss(teacher, student, xs, ys, xt, beta,
                                          cfg.kernel, weights)
                for term, val in (("L_mmd", report.mmd), ("L_tda", report.tda),
                                  ("L_tkd", report.tkd), ("L_skd", report.skd),
                                  ("L_total", report.total)):
                    _check_finite(term, val, epoch)
                loss.backward()
                grads = teacher.bound_gradients() + student.bound_gradients()
                sgd_step(teacher.parameters() + student.parameters(), grads,
                         joint_opt)
                step_vals = (report.mmd, report.tda, report.tkd, report.skd,
                             report.total)
            else:
                mmd, tda = _da_step(teacher, xs_np, ys, xt_np, cfg, weights,
                                    da_opt, epoch, scale=1.0 - beta)
                # soft targets come from the just-updated teacher
                tkd, skd = _kd_step(student, teacher, xs_np, ys, xt_np,
                                    weights, beta, kd_opt, epoch)
                total = (1.0 - beta) * tda + beta * (tkd + skd)
                _check_finite("L_total", total, epoch)
                step_vals = (mmd, tda, tkd, skd, total)
            sums += np.asarray(step_vals)
        means = sums / nb
        accs = metrics.at_epoch(epoch)
        log.records.append(EpochRecord(
            epoch, beta_epoch, weights.gamma, *means, *accs,
            time.perf_counter() - tic))
    return log


# -- reference procedures ------------------------------------------------------------


def _adapt_epochs(model: Model, pair: DomainPair, cfg: TrainConfig,
                  log: TrainLog, metrics: _Metrics, start: int, count: int):
    """UDA epochs on one model: minimize alignment + gamma CE with the
    decaying-lr optimizer. Logged with beta 0 so each row recomposes."""
    opt = OptimizerState.for_params(model.parameters(), cfg.lr_da, cfg.momentum)
    for k in range(count):
        epoch = start + k
        tic = time.perf_counter()
        weights = cfg.weights_at(epoch)
        opt.lr = lr_at(cfg.lr_da, k, max(count, 1), cfg.lr_da_final_fraction,
                       cfg.lr_da_decay)
        batch_list = batches(pair, cfg.batch_size, epoch, cfg.seed)
        sums = np.zeros(2)  # mmd, tda
        for xs_np, ys, xt_np in batch_list:
            sums += _da_step(model, xs_np, ys, xt_np, cfg, weights, opt, epoch)
        means = sums / len(batch_list)
        accs = metrics.at_epoch(epoch)
        log.records.append(EpochRecord(
            epoch, 0.0, weights.gamma, means[0], means[1], 0.0, 0.0, means[1],
            *accs, time.perf_counter() - tic))


def train_uda_only(model: Model, pair: DomainPair, cfg: TrainConfig,
                   role: str = "student") -> TrainLog:
    """Adaptation alone on one model; role picks the accuracy columns."""
    if role not in ("student", "teacher"):
        raise ParameterError(f"role must be student or teacher, got {role!r}")
    log = TrainLog(phase_boundaries=[("uda_only", 0)])
    metrics = _Metrics(pair, cfg,
                       model if role == "teacher" else None,
                       model if role == "student" else None)
    _adapt_epochs(model, pair, cfg, log, metrics, 0, cfg.epochs)
    return log


def train_kd_then_uda(teacher: Model, student: Model, pair: DomainPair,
                      cfg: TrainConfig) -> TrainLog:
    """Supervised teacher on source, distill on source with labels, then
    adapt the student. Epoch budget is split into thirds (remainder to the
    adaptation phase)."""
    if teacher.spec.num_classes != student.spec.num_classes:
        raise ShapeError(
            f"class counts differ: teacher {teacher.spec.num_classes}, "
            f"student {student.spec.num_classes}")
    n_a = cfg.epochs // 3
    n_b = cfg.epochs // 3
    n_c = cfg.epochs - n_a - n_b
    log = TrainLog(phase_boundaries=[
        ("teacher_supervised", 0), ("distill_source", n_a),
        ("student_uda", n_a + n_b)])
    metrics = _Metrics(pair, cfg, teacher, student)

    # phase 1: plain supervised cross-entropy for the teacher on source
    opt = OptimizerState.for_params(teacher.parameters(), cfg.lr_da, cfg.momentum)
    for epoch in range(n_a):
        tic = time.perf_counter()
        weights = cfg.weights_at(epoch)
        opt.lr = lr_at(cfg.lr_da, epoch, max(n_a, 1), cfg.lr_da_final_fraction,
                       cfg.lr_da_decay)
        batch_list = batches(pair, cfg.batch_size, epoch, cfg.seed)
        total = 0.0
        for xs_np, ys, _ in batch_list:
            total += _ce_step(teacher, xs_np, ys, opt, epoch)
        mean_ce = total / len(batch_list)
        accs = metrics.at_epoch(epoch)
        log.records.append(EpochRecord(
            epoch, 0.0, weights.gamma, 0.0, mean_ce, 0.0, 0.0, mean_ce,
            *accs, time.perf_counter() - tic))

    # phase 2: labeled-source distillation into the student, teacher fixed
    opt = OptimizerState.for_params(student.parameters(), cfg.lr_kd, cfg.momentum)
    for k in range(n_b):
        epoch = n_a + k
        tic = time.perf_counter()
        weights = cfg.weights_at(epoch)
        batch_list = batches(pair, cfg.batch_size, epoch, cfg.seed)
        total = 0.0
        for xs_np, ys, _ in batch_list:
            total += _source_kd_step(student, teacher, xs_np, ys, weights,
                                     opt, epoch)
        mean_skd = total / len(batch_list)
        accs = metrics.at_epoch(epoch)
        log.records.append(EpochRecord(
            epoch, 1.0, weights.gamma, 0.0, 0.0, 0.0, mean_skd, mean_skd,
            *accs, time.perf_counter() - tic))

    # phase 3: adapt the distilled student
    _adapt_epochs(student, pair, cfg, log, metrics, n_a + n_b, n_c)
    return log


def train_uda_then_kd(teacher: Model, student: Model, pair: DomainPair,
                      cfg: TrainConfig) -> TrainLog:
    """Adapt the teacher first, then distill its target-domain behavior into
    the student without any label term. Budget is split in half."""
    if teacher.spec.num_classes != student.spec.num_classes:
        raise ShapeError(
            f"class counts differ: teacher {teacher.spec.num_classes}, "
            f"student {student.spec.num_classes}")
    n_a = cfg.epochs // 2
    n_b = cfg.epochs - n_a
    log = TrainLog(phase_boundaries=[("teacher_uda", 0), ("distill_target", n_a)])
    metrics = _Metrics(pair, cfg, teacher, student)

    _adapt_epochs(teacher, pair, cfg, log, metrics, 0, n_a)

    opt = OptimizerState.for_params(student.parameters(), cfg.lr_kd, cfg.momentum)
    for k in range(n_b):
        epoch = n_a + k
        tic = time.perf_counter()
        weights = cfg.weights_at(epoch)
        batch_list = batches(pair, cfg.batch_size, epoch, cfg.seed)
        total = 0.0
        for _, _, xt_np in batch_list:
            graph = Graph()
            xt = graph.tensor(xt_np)
            tkd = target_kd_loss(student, teacher, xt, weights)
            _check_finite("L_tkd", tkd.item(), epoch)
            tkd.backward()
            sgd_step(student.parameters(), student.bound_gradients(), opt)
            total += tkd.item()
        mean_tkd = total / len(batch_list)
        accs = metrics.at_epoch(epoch)
        log.records.append(EpochRecord(
            epoch, 1.0, weights.gamma, 0.0, 0.0, mean_tkd, 0.0, mean_tkd,
            *accs, time.perf_counter() - tic))
    return log


def train_source_only(model: Model, pair: DomainPair, cfg: TrainConfig,
                      role: str = "student") -> TrainLog:
    """Supervised training on source only; the floor reference for how much
    the shift costs an unadapted model."""
    if role not in ("student", "teacher"):
        raise ParameterError(f"role must be student or teacher, got {role!r}")
    log = TrainLog(phase_boundaries=[("source_only", 0)])
    metrics = _Metrics(pair, cfg,
                       model if role == "teacher" else None,
                       model if role == "student" else None)
    opt = OptimizerState.for_params(model.parameters(), cfg.lr_da, cfg.momentum)
    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        weights = cfg.weights_at(epoch)
        opt.lr = lr_at(cfg.lr_da, epoch, cfg.epochs, cfg.lr_da_final_fraction,
                       cfg.lr_da_decay)
        batch_list = batches(pair, cfg.batch_size, epoch, cfg.seed)
        total = 0.0
        for xs_np, ys, _ in batch_list:
            total += _ce_step(model, xs_np, ys, opt, epoch)
        mean_ce = total / len(batch_list)
        accs = metrics.at_epoch(epoch)
        log.records.append(EpochRecord(
            epoch, 0.0, weights.gamma, 0.0, mean_ce, 0.0, 0.0, mean_ce,
            *accs, time.perf_counter() - tic))
    return log

"""Training procedures: the joint progressive one and its four references,
each a table of phases (`SCENARIOS`) run by one epoch driver.

The joint phase alternates two optimizer steps per paired batch. First the
big model takes a domain-adaptation step on (1 - beta) times its alignment
loss; then, with its just-updated parameters, it produces fresh soft targets
and the small model takes a distillation step on beta times the two distill
terms. References: adapt-only on the small model, supervised-then-distill
-then-adapt (three phases), adapt-the-big-model-then-distill (two phases,
distillation without labels), and supervised source training of both.

Clocks: beta (refreshed once per epoch) and gamma follow the run's global
epoch. Every phase starts with fresh optimizers; an adaptation or supervised
one decays exponentially from lr_da toward lr_da_final_fraction of it over
the phase's own epochs, a distillation one keeps lr_kd.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Graph
from .data import DomainPair, batches
from .errors import NumericalAbort, ParameterError, ShapeError
from .losses import (BetaSchedule, KernelConfig, LossWeights, beta_at,
                     cross_entropy, gamma_at, source_kd_loss, target_kd_loss,
                     teacher_da_loss)
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
    beta_override: float | None = None
    kernel: KernelConfig = field(default_factory=KernelConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}",
                                 "epochs")
        if self.batch_size < 1:
            raise ParameterError(
                f"batch_size must be >= 1, got {self.batch_size}", "batch_size")
        for name in ("lr_da", "lr_kd"):
            if getattr(self, name) <= 0:
                raise ParameterError(
                    f"{name} must be positive, got {getattr(self, name)}", name)
        if not (0.0 <= self.momentum < 1.0):
            raise ParameterError(
                f"momentum must be in [0, 1), got {self.momentum}", "momentum")
        if self.lr_da_decay not in ("exponential", "constant"):
            raise ParameterError(f"unknown lr decay mode {self.lr_da_decay!r}",
                                 "lr_da_decay")
        if not (0.0 < self.lr_da_final_fraction <= 1.0):
            raise ParameterError(
                f"lr_da_final_fraction must be in (0, 1], got "
                f"{self.lr_da_final_fraction}", "lr_da_final_fraction")
        if self.eval_every < 1:
            raise ParameterError(
                f"eval_every must be >= 1, got {self.eval_every}", "eval_every")
        if self.beta_override is not None and not (0.0 <= self.beta_override <= 1.0):
            raise ParameterError(
                f"beta_override must be in [0, 1], got {self.beta_override}",
                "beta_override")

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


# -- steps -------------------------------------------------------------------------
#
# step(trained, teacher, batch, cfg, weights, beta, epoch) trains the
# phase's (model, optimizer) pairs on one batch (xs, ys, xt) and returns its
# (mmd, tda, tkd, skd, total) as floats. Each graph lives in a function that
# returns only floats, so it is freed on return and at most one is alive.


def _descend(model: Model, opt: OptimizerState, objective, epoch: int,
             **terms: float):
    """Abort on a non-finite term, else backpropagate objective and take
    one optimizer step on model."""
    for term, value in terms.items():
        if not np.isfinite(value):
            raise NumericalAbort(f"{term} is not finite at epoch {epoch}")
    objective.backward()
    sgd_step(model.parameters(), model.bound_gradients(), opt)


def _adapt_step(trained, teacher, batch, cfg, weights, beta, epoch,
                scale: float | None = None):
    """Descend MMD + gamma CE on the first trained model, times scale if
    given."""
    model, opt = trained[0]
    xs, ys, xt = batch
    graph = Graph()
    tda, parts = teacher_da_loss(model, graph.tensor(xs), ys, graph.tensor(xt),
                                 cfg.kernel, weights)
    mmd, tda_val = parts["mmd"], tda.item()
    _descend(model, opt, tda if scale is None else ad.scalar_multiply(tda, scale),
             epoch, L_mmd=mmd, L_tda=tda_val)
    return mmd, tda_val, 0.0, 0.0, tda_val


def _joint_step(trained, teacher, batch, cfg, weights, beta, epoch):
    """Adapt the teacher on (1 - beta) of its loss, then distill the student
    on beta times both distillation terms from the just-updated teacher."""
    mmd, tda, _, _, _ = _adapt_step(trained, teacher, batch, cfg, weights,
                                    beta, epoch, scale=1.0 - beta)
    student, opt = trained[1]
    xs_np, ys, xt_np = batch
    graph = Graph()
    xs, xt = graph.tensor(xs_np), graph.tensor(xt_np)
    tkd = target_kd_loss(student, teacher, xt, weights)
    skd, _ = source_kd_loss(student, teacher, xs, ys, weights)
    tkd_val, skd_val = tkd.item(), skd.item()
    total = (1.0 - beta) * tda + beta * (tkd_val + skd_val)
    _descend(student, opt, ad.scalar_multiply(ad.add(tkd, skd), beta), epoch,
             L_tkd=tkd_val, L_skd=skd_val, L_total=total)
    return mmd, tda, tkd_val, skd_val, total


def _source_ce(model: Model, opt: OptimizerState, batch, epoch: int) -> float:
    """One supervised step on model; returns its source cross-entropy."""
    graph = Graph()
    ce = cross_entropy(
        ad.softmax_temperature(model.logits(graph.tensor(batch[0])), 1.0),
        batch[1])
    ce_val = ce.item()
    _descend(model, opt, ce, epoch, L_tda=ce_val)
    return ce_val


def _supervised_step(trained, teacher, batch, cfg, weights, beta, epoch):
    """Descend source cross-entropy on each trained model in turn; the loss
    columns report the first model's."""
    ces = [_source_ce(model, opt, batch, epoch) for model, opt in trained]
    return 0.0, ces[0], 0.0, 0.0, ces[0]


def _source_kd_step(trained, teacher, batch, cfg, weights, beta, epoch):
    """Labeled-source distillation into the student, unscaled."""
    (student, opt), = trained
    graph = Graph()
    skd, _ = source_kd_loss(student, teacher, graph.tensor(batch[0]), batch[1],
                            weights)
    skd_val = skd.item()
    _descend(student, opt, skd, epoch, L_skd=skd_val)
    return 0.0, 0.0, 0.0, skd_val, skd_val


def _target_kd_step(trained, teacher, batch, cfg, weights, beta, epoch):
    """Label-free target distillation into the student, unscaled."""
    (student, opt), = trained
    graph = Graph()
    tkd = target_kd_loss(student, teacher, graph.tensor(batch[2]), weights)
    tkd_val = tkd.item()
    _descend(student, opt, tkd, epoch, L_tkd=tkd_val)
    return 0.0, 0.0, tkd_val, 0.0, tkd_val


# -- scenarios ---------------------------------------------------------------------


@dataclass(frozen=True)
class Phase:
    """One stretch of a scenario: `epochs // share` epochs (the last phase
    takes the rest), logging `beta`, or the schedule's when None. `trains`
    lists (model, rate) pairs, "teacher" or "student" at "lr_da" (decaying
    over the phase) or "lr_kd" (constant), each with a fresh optimizer."""

    name: str
    share: int
    beta: float | None
    trains: tuple[tuple[str, str], ...]
    step: Callable[..., tuple[float, float, float, float, float]]


# the (model, rate) pairs a phase can train
_TEACHER_DA, _STUDENT_DA, _STUDENT_KD = (
    ("teacher", "lr_da"), ("student", "lr_da"), ("student", "lr_kd"))

SCENARIOS: dict[str, tuple[Phase, ...]] = {
    "joint": (Phase("joint", 1, None, (_TEACHER_DA, _STUDENT_KD), _joint_step),),
    "uda_then_kd": (
        Phase("teacher_uda", 2, 0.0, (_TEACHER_DA,), _adapt_step),
        Phase("distill_target", 1, 1.0, (_STUDENT_KD,), _target_kd_step)),
    "kd_then_uda": (
        Phase("teacher_supervised", 3, 0.0, (_TEACHER_DA,), _supervised_step),
        Phase("distill_source", 3, 1.0, (_STUDENT_KD,), _source_kd_step),
        Phase("student_uda", 1, 0.0, (_STUDENT_DA,), _adapt_step)),
    "uda_only": (Phase("uda_only", 1, 0.0, (_STUDENT_DA,), _adapt_step),),
    "source_only": (
        Phase("source_only", 1, 0.0, (_STUDENT_DA, _TEACHER_DA), _supervised_step),),
}


def _run_phases(scenario: str, teacher: Model | None, student: Model,
                pair: DomainPair, cfg: TrainConfig) -> TrainLog:
    """Run a scenario's phases back to back over cfg.epochs epochs."""
    if teacher is not None and teacher.spec.num_classes != student.spec.num_classes:
        raise ShapeError(
            f"class counts differ: teacher {teacher.spec.num_classes}, "
            f"student {student.spec.num_classes}")
    models = {"teacher": teacher, "student": student}
    phases = SCENARIOS[scenario]
    log = TrainLog()
    # (source, target) accuracy of each model, refreshed on eval epochs only
    # and only for a model trained since its last evaluation: another
    # evaluation of unchanged parameters would repeat them bit for bit
    accs = {role: (float("nan"),) * 2 for role in models}
    stale = {role for role, model in models.items() if model is not None}
    start = 0
    for i, phase in enumerate(phases):
        count = (cfg.epochs - start if i == len(phases) - 1
                 else cfg.epochs // phase.share)
        log.phase_boundaries.append((phase.name, start))
        trained = [(models[role], OptimizerState.for_params(
                        models[role].parameters(), getattr(cfg, rate), cfg.momentum))
                   for role, rate in phase.trains]
        decaying = [opt for (_, rate), (_, opt) in zip(phase.trains, trained)
                    if rate == "lr_da"]
        for k in range(count):
            epoch = start + k
            tic = time.perf_counter()
            beta = cfg.beta_at_epoch(epoch) if phase.beta is None else phase.beta
            weights = cfg.weights_at(epoch)
            for opt in decaying:
                opt.lr = lr_at(cfg.lr_da, k, count, cfg.lr_da_final_fraction,
                               cfg.lr_da_decay)
            batch_list = batches(pair, cfg.batch_size, epoch, cfg.seed)
            sums = np.zeros(5)  # mmd, tda, tkd, skd, total
            for batch in batch_list:
                sums += phase.step(trained, teacher, batch, cfg, weights, beta,
                                   epoch)
            stale.update(role for role, _ in phase.trains)
            if epoch % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
                for role in stale:
                    accs[role] = tuple(evaluate(models[role], x, y) for x, y in
                                       ((pair.xs, pair.ys), (pair.xt, pair.yt_eval)))
                stale.clear()
            log.records.append(EpochRecord(
                epoch, beta, weights.gamma, *(sums / len(batch_list)),
                *accs["teacher"], *accs["student"], time.perf_counter() - tic))
        start += count
    return log


# kduda.harness.run_single looks these up by name when it runs, so a
# wrapper installed on one of them applies.


def train_joint(teacher: Model, student: Model, pair: DomainPair,
                cfg: TrainConfig) -> TrainLog:
    """Joint progressive KD + UDA: adaptation and distillation interleave on
    every batch."""
    return _run_phases("joint", teacher, student, pair, cfg)


def train_uda_then_kd(teacher: Model, student: Model, pair: DomainPair,
                      cfg: TrainConfig) -> TrainLog:
    """Adapt the teacher first, then distill its target-domain behavior into
    the student without any label term. Budget is split in half."""
    return _run_phases("uda_then_kd", teacher, student, pair, cfg)


def train_kd_then_uda(teacher: Model, student: Model, pair: DomainPair,
                      cfg: TrainConfig) -> TrainLog:
    """Supervised teacher on source, distill on source with labels, then
    adapt the student. Epoch budget is split into thirds (remainder to the
    adaptation phase)."""
    return _run_phases("kd_then_uda", teacher, student, pair, cfg)


def train_uda_only(student: Model, pair: DomainPair, cfg: TrainConfig) -> TrainLog:
    """Adaptation alone on the student; the teacher columns stay nan."""
    return _run_phases("uda_only", None, student, pair, cfg)


def train_source_only(teacher: Model, student: Model, pair: DomainPair,
                      cfg: TrainConfig) -> TrainLog:
    """Supervised training of both models on source only; the floor
    reference for how much the shift costs an unadapted model. The loss
    columns are the student's."""
    return _run_phases("source_only", teacher, student, pair, cfg)

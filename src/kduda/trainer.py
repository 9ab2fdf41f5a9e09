"""Training procedures: the joint progressive one and its four references,
each a table of phases (`SCENARIOS`) run by one epoch driver.

A phase steps its models in turn on every paired batch, each down the
objective of one of three moves: adaptation (MMD + gamma source CE) or
supervised source CE at lr_da, or distillation from the teacher's fresh soft
targets on the source domain, the target domain or both at lr_kd. A model at
lr_da descends (1 - beta) times its objective, one at lr_kd beta times it.
So the joint phase adapts the big model, then distills both domains into
the small one from the just-updated big model. References: adapt-only on
the small model, supervised-then-distill-then-adapt, adapt-then-distill
(distillation without labels), and supervised source training of both. A
phase lists only its moves; its epochs and beta follow (phase_epochs, Phase).

Clocks: beta (refreshed once per epoch) follows the run's global epoch,
and gamma stays constant. Every phase starts with fresh optimizers; an
adaptation or supervised one decays exponentially from lr_da toward
lr_da_final_fraction of it over the phase's own epochs, a distillation one
keeps lr_kd. Each epoch evaluates the models it trained, epoch 0 all.

Stacks: the cells of one config and scenario that differ only in seed run
the same ops on different numbers, so they train as one stack. Their models
are stacked (models.stack), their pairs too (data.stack_pairs), cfg.seed
holds one batch-order seed per cell, and every step runs one graph whose
loss holds one value per cell. Each cell's numbers equal those of its own
run bit for bit; TrainLog.cells splits the log. Models and a pair without
the leading axis are one cell, trained by the same code.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import partial, reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, softmax_np
from .data import DomainPair, batches
from .errors import NumericalAbort, ParameterError, ShapeError
from .losses import (KernelConfig, cross_entropy, source_kd_loss, target_kd_loss,
                     teacher_da_loss)
from .models import Model, ModelSpec, count_complexity

CSV_COLUMNS = ("epoch", "beta", "gamma", "L_mmd", "L_tda", "L_tkd", "L_skd",
               "L_total", "teacher_src_acc", "teacher_tgt_acc",
               "student_src_acc", "student_tgt_acc", "seconds")
_LOSS_COLUMNS = CSV_COLUMNS[3:8]


@dataclass
class TrainConfig:
    """Every training hyperparameter, checked here once, with the per-epoch
    beta and lr_da; defaults follow the reference setup, and harness configs
    usually override epochs down to desk scale. Equal beta_start and beta_end
    pin beta. gamma weighs the big model's source CE at every epoch, and
    distillation is scaled by tau^2. lr_da decays over each adaptation or
    supervised phase to lr_da_final_fraction of it; at 1 it stays constant."""

    epochs: int = 400
    batch_size: int = 32
    beta_start: float = 0.1
    beta_end: float = 0.9
    tau: float = 20.0
    alpha: float = 0.8
    gamma: float = 1.0
    lr_da: float = 0.001
    lr_kd: float = 0.001
    momentum: float = 0.9
    lr_da_final_fraction: float = 0.01
    seed: int | tuple[int, ...] = 0  # orders the batches; one per stacked cell
    kernel: KernelConfig = field(default_factory=KernelConfig)

    def __post_init__(self):
        # every range training needs, so a bad one fails at construction
        for bad, name, rule in (
                (self.epochs < 1, "epochs", ">= 1"),
                (self.batch_size < 1, "batch_size", ">= 1"),
                (self.lr_da <= 0, "lr_da", "positive"),
                (self.lr_kd <= 0, "lr_kd", "positive"),
                (not 0.0 <= self.momentum < 1.0, "momentum", "in [0, 1)"),
                (not 0.0 < self.lr_da_final_fraction <= 1.0,
                 "lr_da_final_fraction", "in (0, 1]"),
                (not 0.0 < self.beta_start <= 1.0, "beta_start", "in (0, 1]"),
                (not 0.0 < self.beta_end <= 1.0, "beta_end", "in (0, 1]"),
                (self.beta_start > 0
                 and not math.isfinite(self.beta_end / self.beta_start),
                 "beta_start", "large enough that beta_end / beta_start is finite"),
                (self.gamma < 0, "gamma", ">= 0"),
                (self.alpha < 0, "alpha", ">= 0"),
                (self.tau <= 0, "tau", "positive"),
                (not all(isinstance(s, (int, np.integer)) and s >= 0
                         for s in np.ravel(self.seed)),
                 "seed", "a non-negative integer in every cell")):
            if bad:
                raise ParameterError(
                    f"{name} must be {rule}, got {getattr(self, name)!r}", name)

    def beta_at(self, t) -> float:
        """Blend weight at epoch t (fractional t allowed), growing
        exponentially from beta_start at epoch 0 to beta_end at epoch
        `epochs`, sqrt(beta_start * beta_end) halfway. Equal endpoints give
        growth 0.0, so beta is beta_start bit for bit at every epoch."""
        if t < 0:
            raise ParameterError(f"epoch index must be >= 0, got {t}")
        growth = math.log(self.beta_end / self.beta_start) / self.epochs
        beta = self.beta_start * math.exp(growth * float(t))
        return min(max(beta, 0.0), 1.0)

    def lr_da_at(self, k: int, count: int) -> float:
        """lr_da at epoch k of a phase of count epochs, decayed exponentially
        to lr_da_final_fraction of it at epoch count; a fraction of 1 keeps
        lr_da exactly."""
        return self.lr_da * self.lr_da_final_fraction ** (k / max(count, 1))


@dataclass
class EpochRecord:
    """One epoch's log row; in a stacked run's log each loss and accuracy
    holds one value per cell."""

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
        vals = [getattr(self, f.name) for f in fields(self)]
        return [str(vals[0])] + [repr(float(v)) for v in vals[1:]]


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def final(self) -> EpochRecord:
        if not self.records:
            raise ParameterError("empty training log")
        return self.records[-1]

    def cells(self) -> list["TrainLog"]:
        """One log per cell of a stacked run, in stack order, each with an
        equal share of every epoch's seconds; a one-cell log gives itself."""
        stack = np.shape(self.final().l_total)
        if not stack:
            return [self]
        share = int(np.prod(stack))
        names = [f.name for f in fields(EpochRecord)[1:-1]]
        out = []
        for cell in np.ndindex(stack):
            log = TrainLog()
            for rec in self.records:
                log.records.append(EpochRecord(
                    rec.epoch,
                    *(np.broadcast_to(getattr(rec, name), stack)[cell]
                      for name in names),
                    rec.seconds / share))
            out.append(log)
        return out

    def to_csv(self, path: str):
        write_csv(path, CSV_COLUMNS, [rec.row() for rec in self.records])


def write_csv(path: str, header: tuple[str, ...], rows: list[list[str]]):
    """A header line, then one comma-joined line per row."""
    with open(path, "w") as fh:
        fh.writelines(",".join(row) + "\n" for row in [header, *rows])


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
    """v <- momentum v + g; p <- p - lr v, elementwise, so a stack's cells
    step independently. The gradients are only read."""
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


# -- evaluation -------------------------------------------------------------------


# rows per predict_logits call in evaluate: a block's activation on a
# 256-wide layer stays at 1 MiB, so an evaluation holds one block's
# activations however many rows the domain has
_EVAL_BLOCK = 512


def evaluate(model: Model, x: np.ndarray, y_true: np.ndarray):
    """Accuracy of argmax predictions, one per stacked cell; argmax takes
    the lowest index on ties.

    The forward runs over blocks of _EVAL_BLOCK rows and joins their
    predictions, so its memory does not grow with the rows of x. Rows pass
    through the layers independently, so the blocks predict what one
    forward over all rows would, wherever the BLAS gives each row of a
    product the same bits whatever rows sit beside it.
    """
    y_true = np.asarray(y_true)
    if x.shape[:-1] != y_true.shape:
        raise ShapeError(
            f"evaluate: inputs {x.shape} do not match labels {y_true.shape}")
    if x.ndim < 2 or x.shape[-2] == 0:
        raise ShapeError(f"evaluate needs at least one row of inputs, got {x.shape}")
    preds = np.concatenate(
        [np.argmax(model.predict_logits(x[..., lo:lo + _EVAL_BLOCK, :]), axis=-1)
         for lo in range(0, x.shape[-2], _EVAL_BLOCK)], axis=-1)
    return np.mean(preds == y_true, axis=-1)


# -- moves -------------------------------------------------------------------------
#
# move(model, teacher, batch, cfg) builds model's objective on one batch
# (x, ys), whose pooled sample x holds the source rows, one per label in ys,
# then the target rows; each move reads its rows by range. It returns the
# objective with its loss terms by CSV column, each a float or one value per
# stacked cell. The epoch driver passes both straight to _descend, which
# alone applies the blend weight; nothing else keeps the objective, so its
# graph is freed when _descend returns and at most one is alive. A graph's
# stack is the labels' shape without the row axis.


def _check_finite(terms: dict, epoch: int):
    """Abort on a term that is not finite in some cell."""
    for term, value in terms.items():
        if not np.isfinite(value).all():
            raise NumericalAbort(f"{term} is not finite at epoch {epoch}")


def _descend(model: Model, opt: OptimizerState, weight: float, epoch: int,
             objective, terms: dict) -> dict:
    """Check terms, then backpropagate weight times objective and take one
    optimizer step on model; returns terms."""
    _check_finite(terms, epoch)
    objective.backward(weight)
    sgd_step(model.parameters(), model.bound_gradients(), opt)
    return terms


def _adapt(model, teacher, batch, cfg):
    """MMD + gamma source cross-entropy from one forward over all rows."""
    x, ys = batch
    graph = Graph(ys.shape[:-1])
    tda, mmd = teacher_da_loss(model, graph.tensor(x), ys, cfg.kernel, cfg.gamma)
    return tda, {"L_mmd": mmd, "L_tda": tda.values}


def _supervised(model, teacher, batch, cfg):
    """Source cross-entropy, logged as L_tda."""
    x, ys = batch
    graph = Graph(ys.shape[:-1])
    ce = cross_entropy(model.logits(graph.tensor(x[..., :ys.shape[-1], :])), ys)
    return ce, {"L_tda": ce.values}


def _distill(model, teacher, batch, cfg, source, target):
    """Target KD, source KD or their sum, against the teacher's soft targets
    from one graph-free forward over the rows they read: rows pass through
    the layers independently, so wherever the BLAS gives a product's row the
    same bits beside any rows, a forward per domain gives the same."""
    x, ys = batch
    ns = ys.shape[-1]
    lo, hi = (0 if source else ns), (x.shape[-2] if target else ns)
    soft = softmax_np(teacher.predict_logits(x[..., lo:hi, :]), cfg.tau)
    graph = Graph(ys.shape[:-1])
    losses = {}
    if target:
        losses["L_tkd"] = target_kd_loss(model, soft[..., ns - lo:, :],
                                         graph.tensor(x[..., ns:, :]), cfg.tau)
    if source:
        losses["L_skd"] = source_kd_loss(model, soft[..., :ns, :],
                                         graph.tensor(x[..., :ns, :]), ys,
                                         cfg.tau, cfg.alpha)
    return (reduce(ad.add, losses.values()),
            {column: loss.values for column, loss in losses.items()})


# -- scenarios ---------------------------------------------------------------------


_distill_both = partial(_distill, source=True, target=True)
_distill_source = partial(_distill, source=True, target=False)
_distill_target = partial(_distill, source=False, target=True)

# Each move's rate, and the rough cost of one batch of it for ranking stacks
# against each other: (op weight, multiply-accumulates per batch row and
# cell), from the (layers, MACs) of the moved model and of the teacher. Op
# weights are fitted, not tape node counts: the MMD node alone weighs 30. A
# graph step's products cost three forwards: the forward and two adjoints.
# Dealt by MACs alone, the stacks of a 3x3 width sweep finish a quarter later.
_MOVES = {
    _adapt: ("lr_da", lambda m, t: (m[0] + 30, 6 * m[1])),
    _supervised: ("lr_da", lambda m, t: (m[0] + 2, 3 * m[1])),
    _distill_both: ("lr_kd", lambda m, t: (2 * m[0] + 9, 6 * m[1] + 2 * t[1])),
    _distill_source: ("lr_kd", lambda m, t: (m[0] + 6, 3 * m[1] + t[1])),
    _distill_target: ("lr_kd", lambda m, t: (m[0] + 2, 3 * m[1] + t[1])),
}
# seconds per op weight unit and per multiply-accumulate, fitted to 20-epoch
# stacks of every scenario at 2 and 5 seeds on the headline models (2 vCPU,
# one BLAS thread), which it then estimates within about 20%
_OP_S, _MAC_S = 27e-6, 1.2e-10


@dataclass(frozen=True)
class Phase:
    """One stretch of a scenario: `trains` lists (model, move) in step
    order, "teacher" or "student" with a fresh optimizer at its move's rate
    (_MOVES). A phase at one rate logs beta 0 (lr_da) or 1 (lr_kd), so each
    model descends its whole objective; one that mixes rates, the schedule's."""

    name: str
    trains: tuple[tuple[str, Callable[..., tuple]], ...]


SCENARIOS: dict[str, tuple[Phase, ...]] = {
    "joint": (Phase("joint", (("teacher", _adapt), ("student", _distill_both))),),
    "uda_then_kd": (Phase("teacher_uda", (("teacher", _adapt),)),
                    Phase("distill_target", (("student", _distill_target),))),
    "kd_then_uda": (Phase("teacher_supervised", (("teacher", _supervised),)),
                    Phase("distill_source", (("student", _distill_source),)),
                    Phase("student_uda", (("student", _adapt),))),
    "uda_only": (Phase("uda_only", (("student", _adapt),)),),
    "source_only": (Phase("source_only", (("student", _supervised),
                                          ("teacher", _supervised))),),
}

# a layer whose weight norm grows past this many times its value before
# training has diverged: healthy runs stay within 1.3 times it, runs at
# chance accuracy pass 30 times it
_GROWTH_LIMIT = 10.0


def phase_epochs(scenario: str, epochs: int) -> list[tuple[Phase, int, int]]:
    """(phase, first epoch, epoch count) of each phase of a scenario, or a
    ParameterError if one gets none: epochs // len(phases) each, the last
    taking the rest."""
    phases = SCENARIOS[scenario]
    out, start = [], 0
    for i, phase in enumerate(phases):
        count = epochs - start if i == len(phases) - 1 else epochs // len(phases)
        if count < 1:
            raise ParameterError(f"epochs = {epochs} leaves the {phase.name} "
                                 f"phase of {scenario} without epochs", "epochs")
        out.append((phase, start, count))
        start += count
    return out


def estimate_seconds(scenario: str, teacher: ModelSpec, student: ModelSpec,
                     rows: int, cfg: TrainConfig, cells: int) -> float:
    """Rough CPU seconds to train a stack of `cells` cells of scenario with
    `rows` source rows each: per batch a fixed cost per tape op and a cost
    per multiply-accumulate of every cell, and per epoch the trained
    models' evaluations on both domains. Good for ranking stacks only."""
    sizes = {role: (len(spec.hidden_widths) + 1, count_complexity(spec)[1])
             for role, spec in (("teacher", teacher), ("student", student))}
    steps = -(-rows // cfg.batch_size)
    total = 0.0
    for phase, _, count in phase_epochs(scenario, cfg.epochs):
        costs = [_MOVES[move][1](sizes[role], sizes["teacher"])
                 for role, move in phase.trains]
        evals = 2 * rows * sum(sizes[role][1] for role, _ in phase.trains)
        total += count * (steps * _OP_S * sum(ops for ops, _ in costs)
                          + cells * _MAC_S * (rows * sum(m for _, m in costs)
                                              + evals))
    return total


def _check_weights(role: str, model: Model, start: list, epoch: int):
    """Abort when a layer's weight norm is not finite, or has grown past
    _GROWTH_LIMIT times a positive value before training, in some cell;
    start holds those values squared. A cell whose layer starts at zero is
    checked for finiteness only."""
    for layer, (w, start_sq) in enumerate(zip(model.weights, start)):
        sq = np.einsum("...ij,...ij->...", w, w, dtype=np.float64)
        finite = np.isfinite(sq).all()
        growth = np.sqrt(np.max(np.divide(sq, start_sq, out=np.zeros_like(sq),
                                          where=start_sq > 0)))
        if not (finite and growth <= _GROWTH_LIMIT):
            state = f"grew {growth:.3g}x" if finite else "is not finite"
            raise NumericalAbort(
                f"{role} layer {layer} weight norm {state} at epoch {epoch}")


def _run_phases(scenario: str, teacher: Model | None, student: Model,
                pair: DomainPair, cfg: TrainConfig) -> TrainLog:
    """Run a scenario's phases back to back over cfg.epochs epochs, on one
    cell or on a stack of them. Each batch runs the phase's moves in turn;
    a loss column logs the first value a move gives it, as float64 whatever
    the models' dtype, and L_total is recomposed from the others in float64,
    so it equals their blend to float64 rounding."""
    if teacher is not None and teacher.spec.num_classes != student.spec.num_classes:
        raise ShapeError(
            f"class counts differ: teacher {teacher.spec.num_classes}, "
            f"student {student.spec.num_classes}")
    stack = pair.xs.shape[:-2]
    models = {"teacher": teacher, "student": student}
    for role, model in models.items():
        if model is not None and model.stack_shape != stack:
            raise ShapeError(f"{role} stack {model.stack_shape} does not match "
                             f"the pair's {stack}")
    start_sq = {role: [np.einsum("...ij,...ij->...", w, w, dtype=np.float64)
                       for w in model.weights]
                for role, model in models.items() if model is not None}
    log = TrainLog()
    # (source, target) accuracy of each model, refreshed after each epoch
    # only for a model trained since its last evaluation: another evaluation
    # of unchanged parameters would repeat them bit for bit
    accs = {role: (np.full(stack, np.nan),) * 2 for role in models}
    stale = {role for role, model in models.items() if model is not None}
    for phase, start, count in phase_epochs(scenario, cfg.epochs):
        trained = [(role, rate, move, OptimizerState.for_params(
                        models[role].parameters(), getattr(cfg, rate), cfg.momentum))
                   for role, move in phase.trains for rate in [_MOVES[move][0]]]
        rates = {rate for _, rate, _, _ in trained}  # one fixes beta (Phase)
        fixed = None if len(rates) > 1 else float(rates == {"lr_kd"})
        for k in range(count):
            epoch = start + k
            tic = time.perf_counter()
            beta = cfg.beta_at(epoch) if fixed is None else fixed
            for _, rate, _, opt in trained:
                if rate == "lr_da":
                    opt.lr = cfg.lr_da_at(k, count)
            batch_list = batches(pair, cfg.batch_size, epoch, cfg.seed)
            moves = [(models[role], opt, move, 1.0 - beta if rate == "lr_da" else beta)
                     for role, rate, move, opt in trained]
            sums = np.zeros((len(_LOSS_COLUMNS),) + stack)
            for batch in batch_list:
                terms = {}
                for model, opt, move, weight in moves:
                    for column, value in _descend(model, opt, weight, epoch, *move(
                            model, teacher, batch, cfg)).items():
                        terms.setdefault(column, np.asarray(value, dtype=np.float64))
                terms["L_total"] = ((1.0 - beta) * terms.get("L_tda", 0.0) + beta
                                    * (terms.get("L_tkd", 0.0) + terms.get("L_skd", 0.0)))
                _check_finite({"L_total": terms["L_total"]}, epoch)
                for i, column in enumerate(_LOSS_COLUMNS):
                    sums[i] += terms.get(column, 0.0)
            for role, _, _, _ in trained:
                _check_weights(role, models[role], start_sq[role], epoch)
                stale.add(role)
            for role in stale:
                accs[role] = tuple(evaluate(models[role], x, y) for x, y in
                                   ((pair.xs, pair.ys), (pair.xt, pair.yt_eval)))
            stale.clear()
            log.records.append(EpochRecord(
                epoch, beta, cfg.gamma, *(sums / len(batch_list)),
                *accs["teacher"], *accs["student"], time.perf_counter() - tic))
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

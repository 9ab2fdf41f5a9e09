"""Alignment, classification, and distillation losses, plus their blending.

The training objective couples two models. The big model aligns its feature
distributions across domains (kernel two-sample discrepancy) while staying
accurate on labeled source data. The small model is distilled from it with
temperature-softened targets on both domains, anchored by a supervised term
on source labels. A single blend weight, grown exponentially over epochs,
moves the emphasis from alignment to distillation:

    loss = (1 - blend) * adapt_term + blend * (target_distill + source_distill)

Soft teacher targets are always constants here: no gradient flows into the
big model through a distillation term.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ParameterError, ShapeError
from .models import Model

PROB_FLOOR = 1e-12

MEDIAN_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)


# -- configuration types -------------------------------------------------------


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel bank for the discrepancy estimator.

    mode "median": bandwidth = per-batch median of the pairwise distances of
    the pooled sample, scaled by each multiplier. mode "fixed": use
    `bandwidths` as given.
    """

    mode: str = "median"
    bandwidths: tuple[float, ...] = ()
    median_multipliers: tuple[float, ...] = MEDIAN_MULTIPLIERS

    def __post_init__(self):
        if self.mode not in ("median", "fixed"):
            raise ParameterError(f"unknown kernel mode {self.mode!r}", "mode")
        object.__setattr__(self, "bandwidths", tuple(float(b) for b in self.bandwidths))
        object.__setattr__(self, "median_multipliers",
                           tuple(float(m) for m in self.median_multipliers))
        if self.mode == "fixed":
            if not self.bandwidths:
                raise ParameterError("fixed kernel mode needs at least one "
                                     "bandwidth", "bandwidths")
            if any(b <= 0 for b in self.bandwidths):
                raise ParameterError(
                    f"bandwidths must be positive, got {self.bandwidths}",
                    "bandwidths")
        else:
            if not self.median_multipliers:
                raise ParameterError("median kernel mode needs at least one "
                                     "multiplier", "median_multipliers")
            if any(m <= 0 for m in self.median_multipliers):
                raise ParameterError(
                    f"multipliers must be positive, got {self.median_multipliers}",
                    "median_multipliers")

    def resolve(self, d_ss: np.ndarray, d_tt: np.ndarray,
                d_st: np.ndarray) -> tuple[float, ...]:
        """Concrete bandwidths for one batch, from its squared-distance blocks.

        The median runs over the distinct pairs of the pooled sample: the
        strict upper triangles of the within-domain blocks d_ss and d_tt,
        and every entry of the cross-domain block d_st.
        """
        if self.mode == "fixed":
            return self.bandwidths
        pairs = np.concatenate([d_ss[_strict_upper(d_ss.shape[0])],
                                d_tt[_strict_upper(d_tt.shape[0])],
                                d_st.ravel()])
        med = _median_of_roots(pairs) if pairs.size else 0.0
        if med < 1e-12:
            med = 1.0  # degenerate batch (all points identical)
        return tuple(med * m for m in self.median_multipliers)


@functools.lru_cache(maxsize=8)
def _strict_upper(n: int) -> np.ndarray:
    """Read-only boolean mask of the strict upper triangle of an n-by-n
    block; a run meets at most two sizes (full and short last batch)."""
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def _median_of_roots(sq: np.ndarray) -> float:
    """np.median(np.sqrt(sq)) for non-negative sq, bit for bit, with two
    square roots instead of one per entry.

    sqrt is monotone and correctly rounded, so the middle order statistics
    of sqrt(sq) are the roots of those of sq. Partitions sq in place at the
    upper middle rank only: the lower middle is the largest entry left of
    it, and nan sorts last, so the part from it on holds any nan there is
    and a nan makes the result nan as in np.median.
    """
    n = sq.size
    mid = n // 2
    sq.partition(mid)
    if np.isnan(sq[mid:].max()):
        return float("nan")
    lo = sq[:mid].max() if n % 2 == 0 else sq[mid]
    return (math.sqrt(lo) + math.sqrt(sq[mid])) / 2.0


@dataclass(frozen=True)
class LossWeights:
    """Scalar weights of the objective: supervised weight on the big model
    (gamma), supervised anchor on the small model (alpha), distillation
    temperature (tau), and the conventional tau^2 rescaling switch."""

    gamma: float = 1.0
    alpha: float = 0.8
    tau: float = 20.0
    scale_kd_by_tau_sq: bool = True

    def __post_init__(self):
        if self.gamma < 0:
            raise ParameterError(f"gamma must be >= 0, got {self.gamma}", "gamma")
        if self.alpha < 0:
            raise ParameterError(f"alpha must be >= 0, got {self.alpha}", "alpha")
        if self.tau <= 0:
            raise ParameterError(f"tau must be positive, got {self.tau}", "tau")


@dataclass(frozen=True)
class BetaSchedule:
    """Exponential growth of the blend weight from start to end over a run.

    growth = ln(end / start) / epochs, so beta(0) = start and
    beta(epochs) = end; the value at the halfway epoch is sqrt(start * end).
    """

    start: float = 0.1
    end: float = 0.9
    epochs: int = 400

    def __post_init__(self):
        if not (0.0 < self.start <= 1.0):
            raise ParameterError(f"start must be in (0, 1], got {self.start}",
                                 "start")
        if not (0.0 < self.end <= 1.0):
            raise ParameterError(f"end must be in (0, 1], got {self.end}", "end")
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}",
                                 "epochs")

    @property
    def growth(self) -> float:
        return math.log(self.end / self.start) / self.epochs


def beta_at(schedule: BetaSchedule, t) -> float:
    """Blend weight at epoch t (fractional t allowed)."""
    if t < 0:
        raise ParameterError(f"epoch index must be >= 0, got {t}")
    beta = schedule.start * math.exp(schedule.growth * float(t))
    return min(max(beta, 0.0), 1.0)


def gamma_at(t, epochs: int, gamma_max: float, mode: str = "constant") -> float:
    """Supervised weight on the big model at epoch t.

    "constant" keeps gamma_max throughout. "ramp" rises smoothly from 0
    toward gamma_max: 2*gamma_max / (1 + exp(-10 t / epochs)) - gamma_max.
    """
    if t < 0:
        raise ParameterError(f"epoch index must be >= 0, got {t}")
    if epochs < 1:
        raise ParameterError(f"epochs must be >= 1, got {epochs}")
    if gamma_max < 0:
        raise ParameterError(f"gamma_max must be >= 0, got {gamma_max}",
                             "gamma_max")
    if mode == "constant":
        return gamma_max
    if mode == "ramp":
        return 2.0 * gamma_max / (1.0 + math.exp(-10.0 * float(t) / epochs)) - gamma_max
    raise ParameterError(f"unknown gamma mode {mode!r}", "mode")


@dataclass
class LossReport:
    """Scalar values of every term at one step, for logging."""

    mmd: float
    tda: float
    tkd: float
    skd: float
    total: float
    beta: float
    gamma: float


# -- primitive losses ----------------------------------------------------------


def mmd_squared(fs: Tensor, ft: Tensor, kernel: KernelConfig) -> Tensor:
    """Biased squared kernel discrepancy between two feature samples.

    mean_ii' k(fs_i, fs_i') + mean_jj' k(ft_j, ft_j') - 2 mean_ij k(fs_i, ft_j)
    with k(x, y) = average over bandwidths of exp(-|x - y|^2 / (2 sigma^2)).
    Bandwidths are resolved from the current values and treated as constants.
    """
    if fs.values.ndim != 2 or ft.values.ndim != 2:
        raise ShapeError(
            f"mmd_squared needs 2-d samples, got {fs.values.shape} and {ft.values.shape}")
    if fs.values.shape[1] != ft.values.shape[1]:
        raise ShapeError(
            f"mmd_squared: feature widths {fs.values.shape} and {ft.values.shape} differ")
    if fs.values.shape[0] == 0 or ft.values.shape[0] == 0:
        raise ParameterError("mmd_squared: empty sample")
    d_ss = ad.pairwise_sqdist(fs, fs)
    d_tt = ad.pairwise_sqdist(ft, ft)
    d_st = ad.pairwise_sqdist(fs, ft)
    sigmas = kernel.resolve(d_ss.values, d_tt.values, d_st.values)
    within = ad.add(ad.kernel_bank_mean(d_ss, sigmas),
                    ad.kernel_bank_mean(d_tt, sigmas))
    across = ad.scalar_multiply(ad.kernel_bank_mean(d_st, sigmas), 2.0)
    return ad.subtract(within, across)


def cross_entropy(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-probability of the true class, as one tape node.

    probs rows must already be distributions; log inputs are clamped at
    PROB_FLOOR so certain-but-wrong predictions stay finite, and the
    gradient is zero where the clamp is active.
    """
    if probs.values.ndim != 2:
        raise ShapeError(f"cross_entropy needs 2-d probs, got {probs.values.shape}")
    labels = np.asarray(labels)
    n, c = probs.values.shape
    if labels.shape != (n,):
        raise ShapeError(
            f"cross_entropy: labels shape {labels.shape} does not match batch {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ParameterError(
            f"cross_entropy: labels must be in [0, {c}), got range "
            f"[{labels.min()}, {labels.max()}]")
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels.astype(np.intp)] = 1.0
    p = probs.values
    clamped = np.maximum(p, PROB_FLOOR)
    active = p > PROB_FLOOR
    scale = -1.0 / n
    value = (np.log(clamped) * onehot).sum() * scale
    def vjp(g):
        return (np.where(active, np.full_like(p, g * scale) * onehot / clamped, 0.0),)
    return Tensor(probs.graph, np.asarray(value), (probs,), vjp)


def distill_kl(student_soft: Tensor, teacher_soft, tau: float,
               scale_by_tau_sq: bool = True) -> Tensor:
    """Mean KL divergence from softened teacher rows to softened student
    rows, as one tape node.

    The teacher side is a constant: values are read once and no gradient is
    produced for it, even when a graph tensor is passed. Student inputs to
    the log are clamped at PROB_FLOOR, with zero gradient where the clamp is
    active. Scaled by tau^2 by default so gradient magnitudes stay
    comparable across temperatures.
    """
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    t = np.asarray(teacher_soft.values if isinstance(teacher_soft, Tensor)
                   else teacher_soft, dtype=np.float64)
    s = student_soft.values
    if s.shape != t.shape:
        raise ShapeError(
            f"distill_kl: student {s.shape} and teacher {t.shape} shapes differ")
    inv_n = 1.0 / t.shape[0]
    clamped = np.maximum(s, PROB_FLOOR)
    active = s > PROB_FLOOR
    entropy = float((t * np.log(np.maximum(t, PROB_FLOOR))).sum() * inv_n)
    value = (np.log(clamped) * t).sum() * -inv_n + entropy
    tau_sq = float(tau * tau) if scale_by_tau_sq else None
    if tau_sq is not None:
        value = value * tau_sq
    def vjp(g):
        if tau_sq is not None:
            g = g * tau_sq
        return (np.where(active, np.full_like(s, g * -inv_n) * t / clamped, 0.0),)
    return Tensor(student_soft.graph, np.asarray(value), (student_soft,), vjp)


def softmax_np(logits: np.ndarray, tau: float) -> np.ndarray:
    """Graph-free stable softmax of logits / tau, for constant soft targets."""
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    p = np.asarray(logits, dtype=np.float64) / tau
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


# -- model-level terms ---------------------------------------------------------


def teacher_da_loss(teacher: Model, xs: Tensor, ys: np.ndarray, xt: Tensor,
                    kernel: KernelConfig, weights: LossWeights):
    """Adaptation term for the big model: feature discrepancy across domains
    plus gamma times supervised cross-entropy on source. Returns the loss
    tensor and the two subterm values."""
    fs = teacher.features(xs)
    ft = teacher.features(xt)
    mmd = mmd_squared(fs, ft, kernel)
    probs = ad.softmax_temperature(teacher.logits(xs), 1.0)
    ce = cross_entropy(probs, ys)
    total = ad.add(mmd, ad.scalar_multiply(ce, weights.gamma))
    return total, {"mmd": mmd.item(), "ce": ce.item()}


def target_kd_loss(student: Model, teacher: Model, xt: Tensor,
                   weights: LossWeights) -> Tensor:
    """Distillation on unlabeled target data: softened student rows pulled
    toward the current teacher's softened predictions."""
    soft_t = softmax_np(teacher.predict_logits(xt.values), weights.tau)
    soft_s = ad.softmax_temperature(student.logits(xt), weights.tau)
    return distill_kl(soft_s, soft_t, weights.tau, weights.scale_kd_by_tau_sq)


def source_kd_loss(student: Model, teacher: Model, xs: Tensor, ys: np.ndarray,
                   weights: LossWeights):
    """Distillation on labeled source data plus alpha times the student's own
    supervised cross-entropy. Returns the loss tensor and subterm values."""
    soft_t = softmax_np(teacher.predict_logits(xs.values), weights.tau)
    soft_s = ad.softmax_temperature(student.logits(xs), weights.tau)
    kl = distill_kl(soft_s, soft_t, weights.tau, weights.scale_kd_by_tau_sq)
    probs = ad.softmax_temperature(student.logits(xs), 1.0)
    ce = cross_entropy(probs, ys)
    total = ad.add(kl, ad.scalar_multiply(ce, weights.alpha))
    return total, {"kl": kl.item(), "ce": ce.item()}


def total_loss(teacher: Model, student: Model, xs: Tensor, ys: np.ndarray,
               xt: Tensor, beta: float, kernel: KernelConfig,
               weights: LossWeights):
    """Full blended objective on one graph, and its LossReport.

    total = (1 - beta) * adapt + beta * (target_distill + source_distill)
    """
    if not (0.0 <= beta <= 1.0):
        raise ParameterError(f"beta must be in [0, 1], got {beta}")
    tda, da_parts = teacher_da_loss(teacher, xs, ys, xt, kernel, weights)
    tkd = target_kd_loss(student, teacher, xt, weights)
    skd, _ = source_kd_loss(student, teacher, xs, ys, weights)
    combined = ad.add(ad.scalar_multiply(tda, 1.0 - beta),
                      ad.scalar_multiply(ad.add(tkd, skd), beta))
    report = LossReport(
        mmd=da_parts["mmd"], tda=tda.item(), tkd=tkd.item(), skd=skd.item(),
        total=combined.item(), beta=float(beta), gamma=weights.gamma)
    return combined, report

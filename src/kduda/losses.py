"""Alignment, classification and distillation losses.

The training objective couples two models. The big model aligns its feature
distributions across domains (kernel two-sample discrepancy) while staying
accurate on labeled source data. The small model is distilled from it with
temperature-softened targets on both domains, anchored by a supervised term
on source labels. A single blend weight, grown exponentially over epochs,
moves the emphasis from alignment to distillation; the trainer applies it,
each model descending its own share:

    (1 - blend) * adapt_term    and    blend * (target_distill + source_distill)

Weights and temperatures arrive as plain numbers, checked and scheduled by
trainer.TrainConfig. Soft teacher targets are always constants here: no
gradient flows into the big model through a distillation term.

Like the autodiff ops, every loss works over trailing axes: on a stack of S
cells (inputs with a leading axis of length S, a stacked model) it returns
one value per cell, each equal bit for bit to the cell's loss on its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, softmax_np
from .errors import ParameterError, ShapeError
from .models import Model

PROB_FLOOR = 1e-12

MEDIAN_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)

# pairs per pass of mmd_squared's kernel bank: its (K, pairs) block of
# kernels stays within K x 64 KiB, so a 512-row pooled batch (130816 pairs)
# does not hold all of its kernels at once
_PAIR_CHUNK = 8192


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

    def resolve(self, pairs: np.ndarray) -> np.ndarray:
        """Concrete bandwidths for one batch, from the squared distances of
        its pooled sample's distinct pairs: (K,) for one cell's (P,) pairs,
        (S, K) for S stacked cells' (S, P). The pairs keep their order.
        """
        stack = pairs.shape[:-1]
        if self.mode == "fixed":
            return np.broadcast_to(self.bandwidths, stack + (len(self.bandwidths),))
        med = np.asarray(_median_of_roots(pairs.copy()))
        med[med < 1e-12] = 1.0  # degenerate batch (all points identical)
        return med[..., None] * np.array(self.median_multipliers)


@functools.lru_cache(maxsize=8)
def _pair_index(ns: int, nt: int) -> np.ndarray:
    """Read-only flat indices of the distinct pairs of an (ns + nt)-row
    pooled sample in its square block: source-source pairs, then
    target-target, then every source-target pair, each row by row. A run
    meets at most two sizes (full and short last batch)."""
    n = ns + nt
    across = np.zeros((n, n), dtype=bool)
    across[:ns, ns:] = True
    within = np.triu(~across, k=1)
    index = np.concatenate([np.flatnonzero(within), np.flatnonzero(across)])
    index.flags.writeable = False
    return index


def _median_of_roots(sq: np.ndarray) -> np.ndarray:
    """np.median(np.sqrt(sq), axis=-1) for non-negative sq, bit for bit,
    with two square roots per row instead of one per entry.

    sqrt is monotone and correctly rounded, so the middle order statistics
    of sqrt(sq) are the roots of those of sq. Partitions each row of sq in
    place at the upper middle rank only: the lower middle is the largest
    entry left of it, and nan sorts last, so the part from it on holds any
    nan there is and a nan makes the row's result nan as in np.median.
    """
    n = sq.shape[-1]
    mid = n // 2
    sq.partition(mid, axis=-1)
    hi = sq[..., mid]
    lo = sq[..., :mid].max(axis=-1) if n % 2 == 0 else hi
    med = np.asarray((np.sqrt(lo) + np.sqrt(hi)) / 2.0)
    med[np.isnan(sq[..., mid:].max(axis=-1))] = np.nan
    return med


# -- primitive losses ----------------------------------------------------------


def _cell_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last two axes, one value per stacked cell, added in
    the order a.sum() adds one cell's block."""
    return a.reshape(a.shape[:-2] + (-1,)).sum(axis=-1)


def _pair_sqdist(z: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Squared distances |z_i|^2 + |z_j|^2 - 2 z_i.z_j of the row pairs
    that index picks from each cell's square block, clipped at zero to
    absorb cancellation. The block is freed once its pairs are taken."""
    sq = (z * z).sum(axis=-1)
    block = z @ ad._t(z)
    block *= 2.0
    np.subtract(sq[..., :, None] + sq[..., None, :], block, out=block)
    d = block.reshape(block.shape[:-2] + (-1,)).take(index, axis=-1)
    np.maximum(d, 0.0, out=d)
    return d


def mmd_squared(fs: Tensor, ft: Tensor, kernel: KernelConfig) -> Tensor:
    """Biased squared kernel discrepancy between two feature samples.

    mean_ii' k(fs_i, fs_i') + mean_jj' k(ft_j, ft_j') - 2 mean_ij k(fs_i, ft_j)
    with k(x, y) = average over bandwidths of exp(-|x - y|^2 / (2 sigma^2)).
    Bandwidths are resolved from the current values and treated as constants.

    One tape node over the pooled sample z = [fs; ft] of N rows: one Gram
    product gives the squared distances of its N(N-1)/2 distinct pairs, and
    the kernel bank runs over those alone. Each pair is weighted by its
    block, 2/ns^2, 2/nt^2 or -2/(ns nt); the diagonal adds exactly
    1/ns + 1/nt. With M the symmetric matrix of weighted kernel slopes,
    the adjoint is 2 (rowsum(M) z - M z), split back into fs and ft.
    """
    fv, tv = fs.values, ft.values
    if fv.ndim < 2 or tv.ndim != fv.ndim or fv.shape[:-2] != tv.shape[:-2]:
        raise ShapeError(f"mmd_squared needs row samples with the same leading "
                         f"axes, got {fv.shape} and {tv.shape}")
    if fv.shape[-1] != tv.shape[-1]:
        raise ShapeError(
            f"mmd_squared: feature widths {fv.shape} and {tv.shape} differ")
    ns, nt = fv.shape[-2], tv.shape[-2]
    if ns == 0 or nt == 0:
        raise ParameterError("mmd_squared: empty sample")
    ad._same_graph(fs, ft)
    n, stack = ns + nt, fv.shape[:-2]
    z = np.concatenate((fv, tv), axis=-2)
    index = _pair_index(ns, nt)
    d = _pair_sqdist(z, index)
    sig = kernel.resolve(d)
    coef = -0.5 / (sig * sig)
    # per pair: the bank's kernel sum, and its slope in d from a stacked
    # (.., 1, K) @ (.., K, pairs) product, bitwise per cell
    bank, slope = np.empty_like(d), np.empty_like(d)
    for lo in range(0, d.shape[-1], _PAIR_CHUNK):
        part = slice(lo, lo + _PAIR_CHUNK)
        k = np.exp(coef[..., :, None] * d[..., None, part])
        bank[..., part] = k.sum(axis=-2)
        slope[..., part] = (coef[..., None, :] @ k)[..., 0, :]
    c = 2.0 / coef.shape[-1]
    weights = (c / (ns * ns), c / (nt * nt), -c / (ns * nt))
    ss = ns * (ns - 1) // 2
    tt = ss + nt * (nt - 1) // 2
    blocks = (slice(0, ss), slice(ss, tt), slice(tt, None))
    value = 1.0 / ns + 1.0 / nt
    for w, b in zip(weights, blocks):
        value = value + w * bank[..., b].sum(axis=-1)
        slope[..., b] *= w
    # a coefficient that is not finite (a bandwidth whose square underflows)
    # makes nan slopes, so the value is nan too, for the finiteness check
    value = np.where(np.isfinite(coef).all(axis=-1), value, np.nan)
    def vjp(g):
        m = np.zeros(stack + (n * n,))
        m[..., index] = slope * (2.0 * np.asarray(g))[..., None]
        m = m.reshape(stack + (n, n))
        m = m + ad._t(m)
        gz = m.sum(axis=-1)[..., :, None] * z
        gz -= m @ z
        return gz[..., :ns, :], gz[..., ns:, :]
    return Tensor(fs.graph, np.asarray(value), (fs, ft), vjp)


def _log_loss(probs: Tensor, t: np.ndarray, offset, scale: float) -> Tensor:
    """(offset - mean over rows of sum(t * log(probs))) * scale per cell, as
    one tape node with t constant. Log inputs are clamped at PROB_FLOOR, so
    certain-but-wrong predictions stay finite, with zero gradient where the
    clamp is active."""
    p = probs.values
    neg_inv_n = -(1.0 / p.shape[-2])
    clamped = np.maximum(p, PROB_FLOOR)
    active = p > PROB_FLOOR
    value = (_cell_sum(np.log(clamped) * t) * neg_inv_n + offset) * scale
    def vjp(g):
        coef = np.asarray(g * scale * neg_inv_n)[..., None, None]
        return (np.where(active, coef * t / clamped, 0.0),)
    return Tensor(probs.graph, np.asarray(value), (probs,), vjp)


def cross_entropy(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-probability of the true class: the log-loss node on
    one-hot rows of distributions. Its offset -0.0 is the exact identity of
    IEEE addition, so even a zero loss keeps its sign."""
    p = probs.values
    if p.ndim < 2:
        raise ShapeError(f"cross_entropy needs rows of probs, got {p.shape}")
    labels = np.asarray(labels)
    c = p.shape[-1]
    if labels.shape != p.shape[:-1]:
        raise ShapeError(f"cross_entropy: labels shape {labels.shape} does not "
                         f"match batch {p.shape[:-1]}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ParameterError(
            f"cross_entropy: labels must be in [0, {c}), got range "
            f"[{labels.min()}, {labels.max()}]")
    onehot = (labels[..., None] == np.arange(c)).astype(np.float64)
    return _log_loss(probs, onehot, -0.0, 1.0)


def distill_kl(student_soft: Tensor, teacher_soft: np.ndarray, tau: float,
               scale_by_tau_sq: bool = True) -> Tensor:
    """Mean KL divergence from softened teacher rows to softened student
    rows: the log-loss node on the teacher's constant rows, offset by their
    mean entropy. Scaled by tau^2 by default so gradient magnitudes stay
    comparable across temperatures."""
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    t = np.asarray(teacher_soft, dtype=np.float64)
    if student_soft.values.shape != t.shape:
        raise ShapeError(f"distill_kl: student {student_soft.values.shape} and "
                         f"teacher {t.shape} shapes differ")
    entropy = _cell_sum(t * np.log(np.maximum(t, PROB_FLOOR))) * (1.0 / t.shape[-2])
    return _log_loss(student_soft, t, entropy,
                     float(tau * tau) if scale_by_tau_sq else 1.0)


def soft_targets(teacher: Model, tau: float, *blocks: np.ndarray
                 ) -> list[np.ndarray]:
    """The teacher's softened predictions on each row block, from one
    graph-free forward over all the blocks' rows stacked.

    Rows pass through the layers independently, so the split equals a
    forward per block wherever the BLAS gives each row of a product the
    same bits whatever rows sit beside it.
    """
    soft = softmax_np(teacher.predict_logits(np.concatenate(blocks, axis=-2)), tau)
    parts, start = [], 0
    for block in blocks:
        end = start + block.shape[-2]
        parts.append(soft[..., start:end, :])
        start = end
    return parts


# -- model-level terms ---------------------------------------------------------


def teacher_da_loss(teacher: Model, xs: Tensor, ys: np.ndarray, xt: Tensor,
                    kernel: KernelConfig, gamma: float):
    """Adaptation term for the big model: feature discrepancy across domains
    plus gamma times supervised cross-entropy on source. Returns the loss
    tensor and the two subterms' values."""
    fs = teacher.features(xs)
    ft = teacher.features(xt)
    mmd = mmd_squared(fs, ft, kernel)
    probs = ad.softmax_temperature(teacher.head(fs), 1.0)
    ce = cross_entropy(probs, ys)
    total = ad.add(mmd, ad.scalar_multiply(ce, gamma))
    return total, {"mmd": mmd.values, "ce": ce.values}


def target_kd_loss(student: Model, targets: np.ndarray, xt: Tensor, tau: float,
                   scale_by_tau_sq: bool = True) -> Tensor:
    """Distillation on unlabeled target data: softened student rows pulled
    toward the teacher's soft targets on xt (see soft_targets)."""
    soft_s = ad.softmax_temperature(student.logits(xt), tau)
    return distill_kl(soft_s, targets, tau, scale_by_tau_sq)


def source_kd_loss(student: Model, targets: np.ndarray, xs: Tensor,
                   ys: np.ndarray, tau: float, alpha: float,
                   scale_by_tau_sq: bool = True):
    """Distillation on labeled source data toward the teacher's soft targets
    on xs, plus alpha times the student's own supervised cross-entropy.
    Returns the loss tensor and the subterms' values."""
    logits = student.logits(xs)
    soft_s = ad.softmax_temperature(logits, tau)
    kl = distill_kl(soft_s, targets, tau, scale_by_tau_sq)
    probs = ad.softmax_temperature(logits, 1.0)
    ce = cross_entropy(probs, ys)
    total = ad.add(kl, ad.scalar_multiply(ce, alpha))
    return total, {"kl": kl.values, "ce": ce.values}


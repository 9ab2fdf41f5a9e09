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

MEDIAN_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)

# pairs per pass of mmd_squared's kernel bank: its (K, pairs) block of
# kernels stays within K x 64 KiB, so a 512-row pooled batch (130816 pairs)
# does not hold all of its kernels at once
_PAIR_CHUNK = 8192


# -- configuration types -------------------------------------------------------


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel bank for the discrepancy estimator.

    Given `bandwidths` are the bank as they stand. Without any, the bank is
    the per-batch median of the pairwise distances of the pooled sample,
    scaled by each of MEDIAN_MULTIPLIERS.
    """

    bandwidths: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "bandwidths", tuple(float(b) for b in self.bandwidths))
        if any(b <= 0 for b in self.bandwidths):
            raise ParameterError(
                f"bandwidths must be positive, got {self.bandwidths}",
                "bandwidths")

    def resolve(self, pairs: np.ndarray) -> np.ndarray:
        """Concrete bandwidths for one batch, from the squared distances of
        its pooled sample's distinct pairs: (K,) for one cell's (P,) pairs,
        (S, K) for S stacked cells' (S, P). The pairs keep their order.
        """
        stack = pairs.shape[:-1]
        if self.bandwidths:
            return np.broadcast_to(self.bandwidths, stack + (len(self.bandwidths),))
        med = np.asarray(_median_of_roots(pairs.copy()))
        med[med < 1e-12] = 1.0  # degenerate batch (all points identical)
        return med[..., None] * np.array(MEDIAN_MULTIPLIERS)


@functools.lru_cache(maxsize=8)
def _pair_blocks(ns: int, nt: int, stack: tuple) -> tuple[int, tuple]:
    """Rows per chunk of _PAIR_CHUNK entries of an (ns + nt)-row pooled
    sample's square block, and where its within-domain pairs sit: (rows,
    columns, mask, pairs) per chunk of the source-source block, then of the
    target-target block, mask picking the chunk's part of the block's strict
    upper triangle in every cell of the stack, pairs their slice of the pair
    axis. A run meets at most two sizes (full and short last batch)."""
    n, step, parts, end = ns + nt, max(1, _PAIR_CHUNK // (ns + nt)), [], 0
    for block in (range(ns), range(ns, n)):
        for lo in range(0, len(block), step):
            rows = block[lo:lo + step]
            mask = np.less.outer(rows, block)
            start, end = end, end + np.count_nonzero(mask)
            parts.append((slice(rows.start, rows.stop), slice(block.start, block.stop),
                          np.broadcast_to(mask, stack + mask.shape), slice(start, end)))
    return step, tuple(parts)


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


def _pair_sqdist(z: np.ndarray, ns: int) -> np.ndarray:
    """Squared distances |z_i|^2 + |z_j|^2 - 2 z_i.z_j of the distinct row
    pairs of each cell's pooled sample z, clipped at zero against rounding:
    the within-domain pairs as _pair_blocks places them, then the ns source
    rows' pairs with the rest, row by row. Made from the Gram block in place."""
    sq = (z * z).sum(axis=-1)
    block = z @ ad._t(z)
    block *= 2.0
    n, stack = z.shape[-2], z.shape[:-2]
    step, parts = _pair_blocks(ns, n - ns, stack)
    for lo in range(0, n, step):
        part = block[..., lo:lo + step, :]
        np.subtract(sq[..., lo:lo + step, None] + sq[..., None, :], part, out=part)
    within = parts[-1][3].stop
    d = np.empty(stack + (within + ns * (n - ns),))
    for rows, cols, mask, pairs in parts:
        d[..., pairs] = block[..., rows, cols][mask].reshape(stack + (-1,))
    # the source-target pairs, through a view: d's last axis is contiguous
    d[..., within:].reshape(stack + (ns, n - ns))[...] = block[..., :ns, ns:]
    np.maximum(d, 0.0, out=d)
    return d


def mmd_squared(z: Tensor, ns: int, kernel: KernelConfig) -> Tensor:
    """Biased squared kernel discrepancy between the first ns rows of the
    pooled feature sample z (source) and the rest (target).

    mean_ii' k(fs_i, fs_i') + mean_jj' k(ft_j, ft_j') - 2 mean_ij k(fs_i, ft_j)
    with k(x, y) = average over bandwidths of exp(-|x - y|^2 / (2 sigma^2)).
    Bandwidths are resolved from the current values and treated as constants.

    One tape node over the N pooled rows: one Gram product gives the squared
    distances of their N(N-1)/2 distinct pairs, and the kernel bank runs
    over those alone. Each pair is weighted by its block, 2/ns^2, 2/nt^2 or
    -2/(ns nt); the diagonal adds exactly 1/ns + 1/nt. With M the symmetric
    matrix of weighted kernel slopes, the adjoint is 2 (rowsum(M) z - M z).
    Beside the pairs and chunks of rows, the node holds one N x N array at a
    time: the Gram block, then M, whose upper triangle it mirrors in place.
    """
    zv = z.values
    if zv.ndim < 2:
        raise ShapeError(f"mmd_squared needs rows of features, got {zv.shape}")
    n, stack = zv.shape[-2], zv.shape[:-2]
    if not 0 < ns < n:
        raise ParameterError(f"mmd_squared: {ns} of {n} rows leaves an empty sample")
    nt = n - ns
    d = _pair_sqdist(zv, ns)
    sig = kernel.resolve(d)
    coef = -0.5 / (sig * sig)
    # per pair: the bank's kernel sum, and its slope in d from a stacked
    # (.., 1, K) @ (.., K, pairs) product, bitwise per cell
    bank, slope = np.empty_like(d), np.empty_like(d)
    for lo in range(0, d.shape[-1], _PAIR_CHUNK):
        part = slice(lo, lo + _PAIR_CHUNK)
        k = coef[..., :, None] * d[..., None, part]
        np.exp(k, out=k)
        k.sum(axis=-2, out=bank[..., part])
        np.matmul(coef[..., None, :], k, out=slope[..., None, part])
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
        g2 = (2.0 * np.asarray(g))[..., None]
        m = np.zeros(stack + (n, n))
        step, parts = _pair_blocks(ns, nt, stack)
        for rows, cols, mask, pairs in parts:
            m[..., rows, cols][mask] = (slope[..., pairs] * g2).ravel()
        np.multiply(slope[..., tt:].reshape(stack + (ns, nt)), g2[..., None],
                    out=m[..., :ns, ns:])
        # m + m^T in place by chunks of rows, each adding a copy of its own
        # columns: below the diagonal m is 0 until its row's turn
        for lo in range(0, n, step):
            m[..., lo:lo + step, :] += ad._t(m[..., :, lo:lo + step]).copy()
        gz = m.sum(axis=-1)[..., :, None] * zv
        gz -= m @ zv
        return (gz,)
    return Tensor(z.graph, np.asarray(value), (z,), vjp)


def _log_loss(logits: Tensor, t: np.ndarray, tau: float, offset,
              scale: float, rows: slice = slice(None)) -> Tensor:
    """(offset - mean over rows of sum(t * log softmax(logits / tau))) * scale
    per cell, as one tape node over the logits' rows in `rows`, t constant
    with one row per such row. The shifted log-sum-exp is finite for any
    finite logits, so no row in range loses its gradient, scale / (n tau) *
    (softmax * sum(t) - t) per unit adjoint; outside the range it is 0."""
    z = logits.values[..., rows, :] / tau
    z -= z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    # the first maximal entry's exponential is exactly 1: log1p of the
    # others' sum keeps a near-certain row's tiny loss exact
    first = z.argmax(axis=-1)[..., None] == np.arange(z.shape[-1])
    rest = (p - first).sum(axis=-1, keepdims=True)
    z -= np.log1p(rest)
    p /= 1.0 + rest
    neg_inv_n = -(1.0 / z.shape[-2])
    value = (_cell_sum(z * t) * neg_inv_n + offset) * scale
    def vjp(g):
        out = np.zeros(logits.values.shape)
        gz = out[..., rows, :]
        np.multiply(np.asarray(g * scale * neg_inv_n)[..., None, None], t, out=gz)
        gz -= p * gz.sum(axis=-1, keepdims=True)
        gz /= tau
        return (out,)
    return Tensor(logits.graph, np.asarray(value), (logits,), vjp)


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  rows: slice = slice(None), scale: float = 1.0) -> Tensor:
    """Mean negative log-softmax of the true class over the logits' rows in
    `rows`, one label each, times scale: the log-loss node on one-hot rows
    at tau 1. Its offset -0.0, the identity of IEEE addition, keeps a zero
    loss's sign."""
    z = logits.values
    if z.ndim < 2:
        raise ShapeError(f"cross_entropy needs rows of logits, got {z.shape}")
    z = z[..., rows, :]
    if z.shape[-2] == 0:
        raise ShapeError(f"cross_entropy needs at least one row of logits, got "
                         f"{z.shape}")
    labels = np.asarray(labels)
    c = z.shape[-1]
    if labels.shape != z.shape[:-1]:
        raise ShapeError(f"cross_entropy: labels shape {labels.shape} does not "
                         f"match batch {z.shape[:-1]}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ParameterError(
            f"cross_entropy: labels must be in [0, {c}), got range "
            f"[{labels.min()}, {labels.max()}]")
    onehot = (labels[..., None] == np.arange(c)).astype(np.float64)
    return _log_loss(logits, onehot, 1.0, -0.0, float(scale), rows)


def distill_kl(student_logits: Tensor, teacher_soft: np.ndarray, tau: float) -> Tensor:
    """Mean KL divergence from softened teacher rows to the student's logits
    softened at tau: the log-loss node on the teacher's constant rows, offset
    by the mean of their sum(t log t), with 0 log 0 = 0. Scaled by tau^2 so
    gradients stay comparable across temperatures."""
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    t = np.asarray(teacher_soft, dtype=np.float64)
    if student_logits.values.shape != t.shape:
        raise ShapeError(f"distill_kl: student {student_logits.values.shape} and "
                         f"teacher {t.shape} shapes differ")
    if t.ndim < 2 or t.shape[-2] == 0:
        raise ShapeError(f"distill_kl needs at least one row, got {t.shape}")
    log_t = np.log(t, out=np.zeros_like(t), where=t > 0)
    entropy = _cell_sum(t * log_t) * (1.0 / t.shape[-2])
    return _log_loss(student_logits, t, tau, entropy, float(tau * tau))


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


def teacher_da_loss(teacher: Model, x: Tensor, ys: np.ndarray,
                    kernel: KernelConfig, gamma: float):
    """The big model's adaptation term from one forward over x, the source
    rows (one per label in ys) then the target rows: the features' MMD plus
    gamma times source cross-entropy. Returns it and the MMD's values."""
    ns = np.shape(ys)[-1]
    z = teacher.features(x)
    mmd = mmd_squared(z, ns, kernel)
    ce = cross_entropy(teacher.head(z), ys, slice(ns), gamma)
    return ad.add(mmd, ce), mmd.values


def target_kd_loss(student: Model, targets: np.ndarray, xt: Tensor,
                   tau: float) -> Tensor:
    """Distillation on unlabeled target data: softened student rows pulled
    toward the teacher's soft targets on xt (see soft_targets)."""
    return distill_kl(student.logits(xt), targets, tau)


def source_kd_loss(student: Model, targets: np.ndarray, xs: Tensor,
                   ys: np.ndarray, tau: float, alpha: float) -> Tensor:
    """Distillation on labeled source data toward the teacher's soft targets
    on xs, plus alpha times the student's own supervised cross-entropy."""
    logits = student.logits(xs)
    return ad.add(distill_kl(logits, targets, tau),
                  cross_entropy(logits, ys, scale=alpha))


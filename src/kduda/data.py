"""Synthetic two-domain datasets with a controllable shift.

The generator returns a DomainPair: labeled source data plus target inputs
whose labels are kept in a separate eval-only field. Training code consumes
xs, ys, xt; only evaluation reads yt_eval. stack_pairs joins the pairs of S
cells into one whose arrays carry a leading axis of length S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, ShapeError

# circumradius of the class-mean arrangement in gen_blob_shift; classes sit
# three unit standard deviations from the centroid so the source task is
# cleanly separable before any shift is applied
CLASS_SEPARATION = 3.0


@dataclass
class DomainPair:
    xs: np.ndarray
    ys: np.ndarray
    xt: np.ndarray
    yt_eval: np.ndarray

    def __post_init__(self):
        if (self.xs.ndim < 2 or self.xt.ndim != self.xs.ndim
                or self.xs.shape[:-2] != self.xt.shape[:-2]):
            raise ShapeError(f"domain inputs must be rows with the same leading "
                             f"axes, got {self.xs.shape} and {self.xt.shape}")
        if self.xs.shape[-1] != self.xt.shape[-1]:
            raise ShapeError(
                f"source dim {self.xs.shape} does not match target {self.xt.shape}")
        if self.ys.shape != self.xs.shape[:-1]:
            raise ShapeError(
                f"source labels {self.ys.shape} do not match inputs {self.xs.shape}")
        if self.yt_eval.shape != self.xt.shape[:-1]:
            raise ShapeError(f"target eval labels {self.yt_eval.shape} do not "
                             f"match inputs {self.xt.shape}")


def _split_counts(n: int, parts: int) -> list[int]:
    base, rem = divmod(n, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def simplex_vertices(num_classes: int, dim: int) -> np.ndarray:
    """Vertices of a regular simplex with unit circumradius, centered at the
    origin, embedded in the first num_classes - 1 coordinates of dim."""
    if num_classes - 1 > dim:
        raise ParameterError(
            f"cannot place {num_classes} simplex vertices in {dim} dimensions")
    centered = np.eye(num_classes) - 1.0 / num_classes
    u, s, _ = np.linalg.svd(centered)
    coords = u[:, : num_classes - 1] * s[: num_classes - 1]
    coords = coords / np.linalg.norm(coords[0])
    out = np.zeros((num_classes, dim))
    out[:, : num_classes - 1] = coords
    return out


def gen_blob_shift(n_per_domain: int, num_classes: int, dim: int,
                   mean_shift: float, scale: float, seed: int) -> DomainPair:
    """Unit-variance Gaussian classes at simplex vertices. Target classes use
    the same means translated by mean_shift along one random direction, with
    covariance scaled by scale^2."""
    if n_per_domain < num_classes:
        raise ParameterError(
            f"n_per_domain must be >= num_classes, got {n_per_domain} < {num_classes}")
    if num_classes < 2:
        raise ParameterError(f"num_classes must be >= 2, got {num_classes}")
    if dim < 2:
        raise ParameterError(f"dim must be >= 2, got {dim}")
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale}")
    rng = np.random.default_rng(seed)
    means = simplex_vertices(num_classes, dim) * CLASS_SEPARATION
    direction = rng.normal(size=dim)
    direction = direction / np.linalg.norm(direction)
    offset = mean_shift * direction

    def sample(class_means, spread):
        counts = _split_counts(n_per_domain, num_classes)
        xs, ys = [], []
        for c, n_c in enumerate(counts):
            xs.append(class_means[c] + spread * rng.normal(size=(n_c, dim)))
            ys.append(np.full(n_c, c, dtype=np.intp))
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        perm = rng.permutation(n_per_domain)
        return x[perm], y[perm]

    xs, ys = sample(means, 1.0)
    xt, yt = sample(means + offset, scale)
    return DomainPair(xs, ys, xt, yt)


def standardize(pair: DomainPair) -> DomainPair:
    """Zero-mean, unit-variance transform fit on source only, applied to both
    domains of each cell. Constant source coordinates keep their scale."""
    mu = pair.xs.mean(axis=-2, keepdims=True)
    sd = pair.xs.std(axis=-2, keepdims=True)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return replace(pair, xs=(pair.xs - mu) / sd, xt=(pair.xt - mu) / sd)


def stack_pairs(pairs: list[DomainPair]) -> DomainPair:
    """The pairs of S cells as one pair whose arrays carry a leading axis of
    length S."""
    if len({(p.xs.shape, p.xt.shape, p.yt_eval.shape) for p in pairs}) != 1:
        raise ShapeError("stacked domain pairs need one shape")
    return DomainPair(*(np.stack([getattr(p, name) for p in pairs])
                        for name in ("xs", "ys", "xt", "yt_eval")))


def batches(pair: DomainPair, batch_size: int, epoch: int, seed):
    """Paired minibatches for one epoch.

    Every source sample is visited exactly once (last batch may be short).
    Target indices come from their own per-epoch shuffle and wrap cyclically
    when the target side runs out. Shuffles are derived from (seed, epoch),
    so an epoch's order is reproducible in isolation. A stacked pair takes
    one seed per cell, and each cell's batches follow that cell's own order.
    """
    stack = pair.xs.shape[:-2]
    ns, nt = pair.xs.shape[-2], pair.xt.shape[-2]
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size > ns:
        raise ParameterError(
            f"batch_size {batch_size} exceeds source size {ns}")
    if epoch < 0:
        raise ParameterError(f"epoch must be >= 0, got {epoch}")
    seeds = np.ravel(seed)
    if seeds.size != math.prod(stack):
        raise ParameterError(f"{seeds.size} seeds for a stack of shape {stack}")
    orders = []
    for cell_seed in seeds:
        rng = np.random.default_rng([int(cell_seed), epoch])
        orders.append((rng.permutation(ns), rng.permutation(nt)))
    src_order = np.stack([o[0] for o in orders]).reshape(stack + (ns,))
    tgt_order = np.stack([o[1] for o in orders]).reshape(stack + (nt,))
    # each cell's rows are gathered from that cell's arrays
    cells = (np.arange(stack[0])[:, None],) if stack else ()
    out = []
    for start in range(0, ns, batch_size):
        src_idx = cells + (src_order[..., start:start + batch_size],)
        take = src_idx[-1].shape[-1]
        tgt_idx = cells + (tgt_order[..., (start + np.arange(take)) % nt],)
        out.append((pair.xs[src_idx], pair.ys[src_idx], pair.xt[tgt_idx]))
    return out

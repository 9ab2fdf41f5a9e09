"""Synthetic two-domain datasets with a controllable shift.

Both generators return a DomainPair: labeled source data plus target inputs
whose labels are kept in a separate eval-only field. Training code consumes
xs, ys, xt; only evaluation reads yt_eval.
"""

from __future__ import annotations

import csv
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
    shift_descriptor: str
    seed: int

    def __post_init__(self):
        if self.xs.ndim != 2 or self.xt.ndim != 2:
            raise ShapeError(
                f"domain inputs must be 2-d, got {self.xs.shape} and {self.xt.shape}")
        if self.xs.shape[1] != self.xt.shape[1]:
            raise ShapeError(
                f"source dim {self.xs.shape} does not match target {self.xt.shape}")
        if self.ys.shape != (self.xs.shape[0],):
            raise ShapeError(
                f"source labels {self.ys.shape} do not match inputs {self.xs.shape}")

    @property
    def dim(self) -> int:
        return self.xs.shape[1]


def _split_counts(n: int, parts: int) -> list[int]:
    base, rem = divmod(n, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def _moons(n: int, noise_std: float, rng: np.random.Generator):
    n_outer, n_inner = _split_counts(n, 2)
    t_outer = np.linspace(0.0, np.pi, n_outer)
    t_inner = np.linspace(0.0, np.pi, n_inner)
    x = np.concatenate([
        np.stack([np.cos(t_outer), np.sin(t_outer)], axis=1),
        np.stack([1.0 - np.cos(t_inner), 0.5 - np.sin(t_inner)], axis=1),
    ])
    y = np.concatenate([np.zeros(n_outer, dtype=np.intp),
                        np.ones(n_inner, dtype=np.intp)])
    x = x + rng.normal(0.0, noise_std, size=x.shape)
    perm = rng.permutation(n)
    return x[perm], y[perm]


def gen_two_moons_shift(n_per_domain: int, rotation_deg: float,
                        noise_std: float, seed: int) -> DomainPair:
    """Interleaved half-circles; the target domain is an independent draw
    rotated about the origin by rotation_deg."""
    if n_per_domain < 4:
        raise ParameterError(f"n_per_domain must be >= 4, got {n_per_domain}")
    if noise_std < 0:
        raise ParameterError(f"noise_std must be >= 0, got {noise_std}")
    rng = np.random.default_rng(seed)
    xs, ys = _moons(n_per_domain, noise_std, rng)
    xt_raw, yt = _moons(n_per_domain, noise_std, rng)
    theta = np.deg2rad(rotation_deg)
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    xt = xt_raw @ rot.T
    return DomainPair(xs, ys, xt, yt,
                      shift_descriptor=f"two_moons rotation={rotation_deg}", seed=seed)


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
    return DomainPair(
        xs, ys, xt, yt,
        shift_descriptor=f"blobs shift={mean_shift} scale={scale}", seed=seed)


def standardize(pair: DomainPair) -> DomainPair:
    """Zero-mean, unit-variance transform fit on source only, applied to both
    domains. Constant source coordinates keep their scale."""
    mu = pair.xs.mean(axis=0)
    sd = pair.xs.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return replace(pair,
                   xs=(pair.xs - mu) / sd,
                   xt=(pair.xt - mu) / sd,
                   shift_descriptor=pair.shift_descriptor + " standardized")


def batches(pair: DomainPair, batch_size: int, epoch: int, seed: int):
    """Paired minibatches for one epoch.

    Every source sample is visited exactly once (last batch may be short).
    Target indices come from their own per-epoch shuffle and wrap cyclically
    when the target side runs out. Shuffles are derived from (seed, epoch),
    so an epoch's order is reproducible in isolation.
    """
    ns, nt = pair.xs.shape[0], pair.xt.shape[0]
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size > ns:
        raise ParameterError(
            f"batch_size {batch_size} exceeds source size {ns}")
    if epoch < 0:
        raise ParameterError(f"epoch must be >= 0, got {epoch}")
    rng = np.random.default_rng([seed, epoch])
    src_order = rng.permutation(ns)
    tgt_order = rng.permutation(nt)
    out = []
    for start in range(0, ns, batch_size):
        src_idx = src_order[start:start + batch_size]
        take = src_idx.size
        tgt_idx = tgt_order[(start + np.arange(take)) % nt]
        out.append((pair.xs[src_idx], pair.ys[src_idx], pair.xt[tgt_idx]))
    return out


# -- CSV round-trip ------------------------------------------------------------


def save_pair_csv(pair: DomainPair, path: str, eval_path: str):
    """Rows are domain,x0..x{d-1},label. Target labels go only to eval_path,
    so the main file never carries them."""
    d = pair.dim
    header = ["domain", *[f"x{i}" for i in range(d)], "label"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row, label in zip(pair.xs, pair.ys):
            w.writerow(["source", *[repr(float(v)) for v in row], int(label)])
        for row in pair.xt:
            w.writerow(["target", *[repr(float(v)) for v in row], ""])
    with open(eval_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label"])
        for label in pair.yt_eval:
            w.writerow([int(label)])


def _parse_field(conv, text: str, where: str):
    try:
        return conv(text)
    except ValueError:
        kind = "an integer" if conv is int else "a number"
        raise ParameterError(f"{where}: expected {kind}, got {text!r}") from None


def load_pair_csv(path: str, eval_path: str | None = None,
                  shift_descriptor: str = "csv", seed: int = 0) -> DomainPair:
    """Read a pair written by save_pair_csv. A malformed row raises
    ParameterError naming the file and its 1-based line."""
    xs, ys, xt = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParameterError(f"{path}: empty file, expected a header line")
        d = len(header) - 2
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(header):
                raise ParameterError(
                    f"{where}: expected {len(header)} fields, got {len(row)}")
            coords = [_parse_field(float, v, where) for v in row[1:1 + d]]
            if row[0] == "source":
                xs.append(coords)
                ys.append(_parse_field(int, row[-1], where))
            elif row[0] == "target":
                xt.append(coords)
            else:
                raise ParameterError(f"{where}: unknown domain {row[0]!r}")
    yt = []
    if eval_path is not None:
        with open(eval_path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)
            for row in reader:
                where = f"{eval_path}: line {reader.line_num}"
                if len(row) != 1:
                    raise ParameterError(
                        f"{where}: expected 1 field, got {len(row)}")
                yt.append(_parse_field(int, row[0], where))
        if len(yt) != len(xt):
            raise ShapeError(
                f"eval file has {len(yt)} labels for {len(xt)} target rows")
    return DomainPair(np.array(xs), np.array(ys, dtype=np.intp), np.array(xt),
                      np.array(yt, dtype=np.intp),
                      shift_descriptor=shift_descriptor, seed=seed)

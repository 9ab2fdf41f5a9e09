"""Experiment orchestration: config files, scenario comparisons, complexity
tables, and the teacher/student width sweep.

Config files are flat `key = value` text with dotted keys and # comments.
Output file names are derived from a hash of the fully resolved config
(every field but the output directory) plus scenario and seed, so distinct
runs never collide in one directory.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (DomainPair, gen_blob_shift, gen_two_moons_shift,
                   standardize)
from .errors import ConfigError, KdudaError
from .losses import KernelConfig
from .models import Model, ModelSpec, build, count_complexity
from .trainer import (TrainConfig, TrainLog, train_joint, train_kd_then_uda,
                      train_source_only, train_uda_only, train_uda_then_kd)

VALID_SCENARIOS = ("joint", "uda_then_kd", "kd_then_uda", "uda_only",
                   "source_only")

# offsets separating the rng streams of data, teacher init, and student init
# for one run seed
TEACHER_SEED_OFFSET = 10_000
STUDENT_SEED_OFFSET = 20_000


def _reject_duplicates(key: str, values: tuple):
    repeated = sorted({str(v) for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{key}: duplicate entries {', '.join(repeated)}")


@dataclass(frozen=True)
class DatasetConfig:
    generator: str = "blobs"
    n_per_domain: int = 400
    classes: int = 3
    dim: int = 2
    mean_shift: float = 3.0
    scale: float = 1.0
    rotation_deg: float = 45.0
    noise_std: float = 0.1
    standardize: bool = True

    def __post_init__(self):
        if self.generator not in ("blobs", "two_moons"):
            raise ConfigError(
                f"unknown generator {self.generator!r}; valid: blobs, two_moons")
        if self.generator == "two_moons" and (self.classes != 2 or self.dim != 2):
            raise ConfigError("two_moons generator is fixed at classes=2, dim=2")
        if self.classes < 2:
            raise ConfigError(f"data.classes must be >= 2, got {self.classes}")
        if self.n_per_domain < self.classes:
            raise ConfigError(
                f"data.n_per_domain must be >= data.classes ({self.classes}), "
                f"got {self.n_per_domain}")
        if self.dim < 2:
            raise ConfigError(f"data.dim must be >= 2, got {self.dim}")

    def make_pair(self, seed: int) -> DomainPair:
        if self.generator == "blobs":
            pair = gen_blob_shift(self.n_per_domain, self.classes, self.dim,
                                  self.mean_shift, self.scale, seed)
        else:
            pair = gen_two_moons_shift(self.n_per_domain, self.rotation_deg,
                                       self.noise_std, seed)
        return standardize(pair) if self.standardize else pair


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    teacher_hidden: tuple[int, ...] = (128, 128, 64)
    student_hidden: tuple[tuple[int, ...], ...] = ((32, 16),)
    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=100))
    scenarios: tuple[str, ...] = ("joint", "uda_then_kd", "kd_then_uda",
                                  "uda_only")
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    output_dir: str = "runs"

    def __post_init__(self):
        if not self.scenarios:
            raise ConfigError("at least one scenario is required")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        for s in self.scenarios:
            if s not in VALID_SCENARIOS:
                raise ConfigError(
                    f"unknown scenario {s!r}; valid: {', '.join(VALID_SCENARIOS)}")
        if min(self.seeds) < 0:
            raise ConfigError(f"experiment.seeds must be >= 0, got {min(self.seeds)}")
        _reject_duplicates("experiment.scenarios", self.scenarios)
        _reject_duplicates("experiment.seeds", self.seeds)
        if not self.student_hidden:
            raise ConfigError("at least one student spec is required")

    def config_hash(self) -> str:
        """Digest of every field except output_dir, so moving the output
        directory keeps every artifact's name."""
        return hashlib.sha256(
            repr(replace(self, output_dir="")).encode()).hexdigest()[:10]

    def teacher_spec(self, seed: int) -> ModelSpec:
        return ModelSpec(self.dataset.dim, self.teacher_hidden,
                         self.dataset.classes, seed=seed + TEACHER_SEED_OFFSET)

    def student_spec(self, seed: int) -> ModelSpec:
        return ModelSpec(self.dataset.dim, self.student_hidden[0],
                         self.dataset.classes, seed=seed + STUDENT_SEED_OFFSET)


@dataclass
class ScenarioResult:
    scenario: str
    seed: int
    student_tgt_acc: float
    student_src_acc: float
    teacher_tgt_acc: float
    teacher_src_acc: float
    student_params: int
    student_macs: int
    teacher_params: int
    teacher_macs: int
    seconds: float


# -- config file parsing --------------------------------------------------------


def _parse_kv(text: str) -> dict[str, str]:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


class _KV:
    def __init__(self, raw: dict[str, str]):
        self.raw = raw
        self.used: set[str] = set()

    def _get(self, key, default, conv, what):
        if key not in self.raw:
            return default
        self.used.add(key)
        try:
            return conv(self.raw[key])
        except (ValueError, TypeError):
            raise ConfigError(
                f"{key}: expected {what}, got {self.raw[key]!r}") from None

    def str_(self, key, default):
        return self._get(key, default, str, "a string")

    def int_(self, key, default):
        return self._get(key, default, int, "an integer")

    def float_(self, key, default):
        return self._get(key, default, float, "a number")

    def bool_(self, key, default):
        def conv(v):
            low = v.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(v)
        return self._get(key, default, conv, "true or false")

    def int_list(self, key, default):
        return self._get(key, default,
                         lambda v: tuple(int(tok) for tok in v.split(",") if tok.strip()),
                         "comma-separated integers")

    def float_list(self, key, default):
        return self._get(key, default,
                         lambda v: tuple(float(tok) for tok in v.split(",") if tok.strip()),
                         "comma-separated numbers")

    def str_list(self, key, default):
        return self._get(key, default,
                         lambda v: tuple(tok.strip() for tok in v.split(",") if tok.strip()),
                         "comma-separated names")

    def nested_int_lists(self, key, default):
        def conv(v):
            return tuple(tuple(int(tok) for tok in part.split(",") if tok.strip())
                         for part in v.split(";") if part.strip())
        return self._get(key, default, conv, "semicolon-separated integer lists")

    def reject_unknown(self):
        unknown = set(self.raw) - self.used
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")


def parse_config(text: str) -> ExperimentConfig:
    kv = _KV(_parse_kv(text))
    dataset = DatasetConfig(
        generator=kv.str_("data.generator", "blobs"),
        n_per_domain=kv.int_("data.n_per_domain", 400),
        classes=kv.int_("data.classes", 3 if kv.raw.get("data.generator", "blobs") == "blobs" else 2),
        dim=kv.int_("data.dim", 2),
        mean_shift=kv.float_("data.mean_shift", 3.0),
        scale=kv.float_("data.scale", 1.0),
        rotation_deg=kv.float_("data.rotation_deg", 45.0),
        noise_std=kv.float_("data.noise_std", 0.1),
        standardize=kv.bool_("data.standardize", True),
    )
    kernel_mode = kv.str_("train.kernel_mode", "median")
    kernel = KernelConfig(
        mode=kernel_mode,
        bandwidths=kv.float_list("train.kernel_bandwidths", ()),
        median_multipliers=kv.float_list("train.kernel_multipliers",
                                         KernelConfig().median_multipliers),
    )
    override = kv.float_("train.beta_override", None)
    train = TrainConfig(
        epochs=kv.int_("train.epochs", 100),
        batch_size=kv.int_("train.batch_size", 32),
        beta_start=kv.float_("train.beta_start", 0.1),
        beta_end=kv.float_("train.beta_end", 0.9),
        tau=kv.float_("train.tau", 20.0),
        alpha=kv.float_("train.alpha", 0.8),
        gamma=kv.float_("train.gamma", 1.0),
        gamma_mode=kv.str_("train.gamma_mode", "constant"),
        lr_da=kv.float_("train.lr_da", 0.001),
        lr_kd=kv.float_("train.lr_kd", 0.001),
        momentum=kv.float_("train.momentum", 0.9),
        lr_da_decay=kv.str_("train.lr_da_decay", "exponential"),
        lr_da_final_fraction=kv.float_("train.lr_da_final_fraction", 0.01),
        eval_every=kv.int_("train.eval_every", 1),
        scale_kd_by_tau_sq=kv.bool_("train.scale_kd_by_tau_sq", True),
        single_optimizer=kv.bool_("train.single_optimizer", False),
        beta_per_batch=kv.bool_("train.beta_per_batch", False),
        beta_override=override,
        kernel=kernel,
    )
    cfg = ExperimentConfig(
        dataset=dataset,
        teacher_hidden=kv.int_list("model.teacher_hidden", (128, 128, 64)),
        student_hidden=kv.nested_int_lists("model.student_hidden", ((32, 16),)),
        train=train,
        scenarios=kv.str_list("experiment.scenarios",
                              ("joint", "uda_then_kd", "kd_then_uda", "uda_only")),
        seeds=kv.int_list("experiment.seeds", (0, 1, 2, 3, 4)),
        output_dir=kv.str_("experiment.output_dir", "runs"),
    )
    kv.reject_unknown()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        return parse_config(text)
    except KdudaError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# -- single runs -----------------------------------------------------------------


def _merge_source_only(student_log: TrainLog, teacher_log: TrainLog) -> TrainLog:
    merged = TrainLog(phase_boundaries=[("source_only", 0)])
    for s_rec, t_rec in zip(student_log.records, teacher_log.records):
        rec = replace(s_rec,
                      teacher_src_acc=t_rec.teacher_src_acc,
                      teacher_tgt_acc=t_rec.teacher_tgt_acc,
                      seconds=s_rec.seconds + t_rec.seconds)
        merged.records.append(rec)
    return merged


def run_single(cfg: ExperimentConfig, scenario: str, seed: int
               ) -> tuple[TrainLog, ScenarioResult]:
    """Train one (scenario, seed) cell and package its result."""
    if scenario not in VALID_SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; valid: {', '.join(VALID_SCENARIOS)}")
    if seed < 0:  # numpy generators take only non-negative seeds
        raise ConfigError(f"seed must be >= 0, got {seed}")
    pair = cfg.dataset.make_pair(seed)
    train_cfg = replace(cfg.train, seed=seed)
    teacher_spec = cfg.teacher_spec(seed)
    student_spec = cfg.student_spec(seed)
    started = time.perf_counter()
    if scenario == "joint":
        teacher, student = build(teacher_spec), build(student_spec)
        log = train_joint(teacher, student, pair, train_cfg)
    elif scenario == "uda_then_kd":
        teacher, student = build(teacher_spec), build(student_spec)
        log = train_uda_then_kd(teacher, student, pair, train_cfg)
    elif scenario == "kd_then_uda":
        teacher, student = build(teacher_spec), build(student_spec)
        log = train_kd_then_uda(teacher, student, pair, train_cfg)
    elif scenario == "uda_only":
        student = build(student_spec)
        log = train_uda_only(student, pair, train_cfg, role="student")
    else:  # source_only: one supervised model per spec, merged per epoch
        student = build(student_spec)
        teacher = build(teacher_spec)
        s_log = train_source_only(student, pair, train_cfg, role="student")
        t_log = train_source_only(teacher, pair, train_cfg, role="teacher")
        log = _merge_source_only(s_log, t_log)
    final = log.final()
    s_params, s_macs = count_complexity(student_spec)
    t_params, t_macs = count_complexity(teacher_spec)
    result = ScenarioResult(
        scenario=scenario, seed=seed,
        student_tgt_acc=final.student_tgt_acc,
        student_src_acc=final.student_src_acc,
        teacher_tgt_acc=final.teacher_tgt_acc,
        teacher_src_acc=final.teacher_src_acc,
        student_params=s_params, student_macs=s_macs,
        teacher_params=t_params, teacher_macs=t_macs,
        seconds=time.perf_counter() - started)
    return log, result


# -- experiment orchestration -------------------------------------------------------


SUMMARY_COLUMNS = ("scenario", "n_seeds", "student_tgt_acc_mean",
                   "student_tgt_acc_std", "student_src_acc_mean",
                   "teacher_tgt_acc_mean", "teacher_src_acc_mean",
                   "student_params", "student_macs", "teacher_params",
                   "teacher_macs", "student_teacher_mac_ratio")


def summary_rows(cfg: ExperimentConfig,
                 results: list[ScenarioResult]) -> list[list[str]]:
    rows = []
    for scenario in cfg.scenarios:
        group = [r for r in results if r.scenario == scenario]
        tgt = np.array([r.student_tgt_acc for r in group])
        src = np.array([r.student_src_acc for r in group])
        t_tgt = np.array([r.teacher_tgt_acc for r in group])
        t_src = np.array([r.teacher_src_acc for r in group])
        first = group[0]
        rows.append([
            scenario, str(len(group)),
            repr(float(tgt.mean())), repr(float(tgt.std())),
            repr(float(src.mean())), repr(float(t_tgt.mean())),
            repr(float(t_src.mean())),
            str(first.student_params), str(first.student_macs),
            str(first.teacher_params), str(first.teacher_macs),
            repr(first.student_macs / first.teacher_macs),
        ])
    return rows


def write_summary(cfg: ExperimentConfig, results: list[ScenarioResult],
                  path: str):
    with open(path, "w") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for row in summary_rows(cfg, results):
            fh.write(",".join(row) + "\n")


def run_experiment(cfg: ExperimentConfig) -> list[ScenarioResult]:
    """Train every (scenario, seed) pair; write per-pair logs and a summary."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    tag = cfg.config_hash()
    results = []
    for scenario in cfg.scenarios:
        for seed in cfg.seeds:
            log, result = run_single(cfg, scenario, seed)
            log.to_csv(os.path.join(cfg.output_dir,
                                    f"{tag}_{scenario}_seed{seed}.csv"))
            results.append(result)
    write_summary(cfg, results, os.path.join(cfg.output_dir, f"{tag}_summary.csv"))
    return results


# -- complexity table ------------------------------------------------------------


def report_complexity(cfg: ExperimentConfig) -> list[dict]:
    """Params/MACs for the teacher and every student spec, with MAC ratios."""
    t_params, t_macs = count_complexity(cfg.teacher_spec(0))
    rows = [{"model": "teacher", "hidden": cfg.teacher_hidden,
             "params": t_params, "macs": t_macs, "mac_ratio": 1.0}]
    for i, hidden in enumerate(cfg.student_hidden):
        spec = ModelSpec(cfg.dataset.dim, hidden, cfg.dataset.classes,
                         seed=STUDENT_SEED_OFFSET)
        params, macs = count_complexity(spec)
        rows.append({"model": f"student_{i}", "hidden": hidden,
                     "params": params, "macs": macs,
                     "mac_ratio": macs / t_macs})
    return rows


# -- width sweep -----------------------------------------------------------------


def teacher_hidden_for(width: int) -> tuple[int, int, int]:
    if width < 2:
        raise ConfigError(f"teacher width must be >= 2, got {width}")
    return (width, width, width // 2)


def student_hidden_for(width: int) -> tuple[int, int]:
    if width < 2:
        raise ConfigError(f"student width must be >= 2, got {width}")
    return (width, width // 2)


SWEEP_COLUMNS = ("teacher_width", "student_width", "student_tgt_acc_mean",
                 "student_tgt_acc_std")


def sweep_sizes(cfg: ExperimentConfig, teacher_widths, student_widths
                ) -> list[list[str]]:
    """Joint runs over the width cross product; one row per cell."""
    if not teacher_widths or not student_widths:
        raise ConfigError("sweep needs at least one teacher and one student width")
    os.makedirs(cfg.output_dir, exist_ok=True)
    rows = []
    for tw in teacher_widths:
        for sw in student_widths:
            cell = replace(cfg,
                           teacher_hidden=teacher_hidden_for(tw),
                           student_hidden=(student_hidden_for(sw),),
                           scenarios=("joint",))
            accs = []
            for seed in cfg.seeds:
                _, result = run_single(cell, "joint", seed)
                accs.append(result.student_tgt_acc)
            accs = np.array(accs)
            rows.append([str(tw), str(sw), repr(float(accs.mean())),
                         repr(float(accs.std()))])
    path = os.path.join(cfg.output_dir, f"{cfg.config_hash()}_sweep.csv")
    with open(path, "w") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return rows

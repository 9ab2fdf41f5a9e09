"""Experiment orchestration: config files, scenario comparisons, complexity
tables, and the teacher/student width sweep.

Config files are flat `key = value` text with dotted keys and # comments.
Output file names are derived from a hash of the fully resolved config
(every field but the output directory) plus scenario and seed, so distinct
runs never collide in one directory.

Scenario grids and sweeps run their (scenario, seed) cells in forked worker
processes when the machine has CPUs to spare beyond BLAS's own threads; the
calling process writes every output file, in cell order.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import trainer
from .data import (DomainPair, gen_blob_shift, gen_two_moons_shift,
                   standardize)
from .errors import ConfigError, KdudaError, ParameterError
from .losses import KernelConfig
from .models import ModelSpec, build, count_complexity
from .trainer import SCENARIOS, TrainConfig, TrainLog

VALID_SCENARIOS = tuple(SCENARIOS)

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
            raise ConfigError(f"data.generator: unknown generator "
                              f"{self.generator!r}; valid: blobs, two_moons")
        if self.generator == "two_moons" and (self.classes != 2 or self.dim != 2):
            raise ConfigError("data.generator = two_moons is fixed at "
                              "data.classes = 2 and data.dim = 2")
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
            raise ConfigError("experiment.scenarios: at least one scenario is "
                              "required")
        if not self.seeds:
            raise ConfigError("experiment.seeds: at least one seed is required")
        for s in self.scenarios:
            if s not in VALID_SCENARIOS:
                raise ConfigError(f"experiment.scenarios: unknown scenario {s!r}; "
                                  f"valid: {', '.join(VALID_SCENARIOS)}")
        if min(self.seeds) < 0:
            raise ConfigError(f"experiment.seeds must be >= 0, got {min(self.seeds)}")
        _reject_duplicates("experiment.scenarios", self.scenarios)
        _reject_duplicates("experiment.seeds", self.seeds)
        if not self.student_hidden:
            raise ConfigError("model.student_hidden: at least one student spec "
                              "is required")
        widths = [("model.teacher_hidden", self.teacher_hidden)]
        widths += [("model.student_hidden", s) for s in self.student_hidden]
        for key, hidden in widths:
            try:
                ModelSpec(self.dataset.dim, hidden, self.dataset.classes)
            except ParameterError as exc:
                raise ConfigError(f"{key}: {exc}") from None

    def config_hash(self) -> str:
        """Digest of every field except output_dir, so moving the output
        directory keeps every artifact's name."""
        return hashlib.sha256(
            repr(replace(self, output_dir="")).encode()).hexdigest()[:10]

    def teacher_spec(self, seed: int) -> ModelSpec:
        return ModelSpec(self.dataset.dim, self.teacher_hidden,
                         self.dataset.classes, seed=seed + TEACHER_SEED_OFFSET)

    def require_one_student(self):
        """Training takes one student; only `complexity` reports several."""
        if len(self.student_hidden) != 1:
            raise ConfigError(
                f"model.student_hidden lists {len(self.student_hidden)} "
                f"students; training takes exactly one (only `complexity` "
                f"reports several)")

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
    seconds: float  # wall time of the cell in the process that ran it


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


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):  # nan and inf parse, but no setting takes them
        raise ValueError(text)
    return value


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
        return self._get(key, default, _finite, "a finite number")

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
                         lambda v: tuple(_finite(tok) for tok in v.split(",") if tok.strip()),
                         "comma-separated finite numbers")

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


# the config key of each KernelConfig field; a TrainConfig field's is
# `train.<field>`
_KERNEL_KEYS = {"mode": "train.kernel_mode",
                "bandwidths": "train.kernel_bandwidths",
                "median_multipliers": "train.kernel_multipliers"}


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
    try:
        kernel = KernelConfig(
            mode=kv.str_("train.kernel_mode", "median"),
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
            beta_override=override,
            kernel=kernel,
        )
    except ParameterError as exc:
        key = _KERNEL_KEYS.get(exc.field, f"train.{exc.field}")
        raise ConfigError(f"{key}: {exc}") from None
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


def check_cell(cfg: ExperimentConfig, scenario: str, seed: int):
    """Reject a (scenario, seed) cell of cfg that run_single cannot train."""
    if scenario not in VALID_SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; valid: {', '.join(VALID_SCENARIOS)}")
    if seed < 0:  # numpy generators take only non-negative seeds
        raise ConfigError(f"seed must be >= 0, got {seed}")
    cfg.require_one_student()


def run_single(cfg: ExperimentConfig, scenario: str, seed: int
               ) -> tuple[TrainLog, ScenarioResult]:
    """Train one (scenario, seed) cell and package its result."""
    check_cell(cfg, scenario, seed)
    pair = cfg.dataset.make_pair(seed)
    train_cfg = replace(cfg.train, seed=seed)
    teacher_spec = cfg.teacher_spec(seed)
    student_spec = cfg.student_spec(seed)
    started = time.perf_counter()
    # looked up at call time, so a wrapper installed on the module applies
    train = getattr(trainer, f"train_{scenario}")
    if scenario == "uda_only":  # the only scenario without a teacher
        log = train(build(student_spec), pair, train_cfg)
    else:
        log = train(build(teacher_spec), build(student_spec), pair, train_cfg)
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


# -- cell runner -------------------------------------------------------------------
#
# Cells are fully seeded and independent, so they may run in any process.
# Each process gets a static share, jobs[i::n]; the caller runs share 0
# itself and the others go to n - 1 forked workers. The split depends only
# on the cell count, and the caller trains too, so a profile of the caller
# always covers the same cells.


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas_threads(cpus: int) -> int:
    """Threads OpenBLAS starts per process: its environment variables in
    order of precedence, else one per CPU."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:  # unset, or a value OpenBLAS would ignore too
            continue
        if threads > 0:
            return threads
    return cpus


def _worker_count(cells: int) -> int:
    """Processes for a grid: as many as fit on the usable CPUs next to
    BLAS's threads, so processes never compete with BLAS for cores."""
    cpus = _usable_cpus()
    return max(1, min(cells, cpus // _blas_threads(cpus)))


def _run_share(jobs) -> tuple[list, Exception | None]:
    """Run cells in order until one fails; return the finished cells'
    (log, result) pairs and the failure, if any."""
    done = []
    try:
        for job in jobs:
            done.append(run_single(*job))
    except Exception as exc:  # re-raised by _run_cells at this cell's turn
        return done, exc
    return done, None


def _run_shares(shares: list[list]) -> list[tuple[list, Exception | None]]:
    # fork, not spawn: workers inherit the loaded numpy and kduda instead of
    # importing them again, and as waited-for children their CPU time shows
    # in the caller's RUSAGE_CHILDREN (forkserver workers' would not). The
    # executor forks every worker at the first submit, before it starts
    # threads of its own.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(len(shares) - 1, mp_context=context) as pool:
        futures = [pool.submit(_run_share, share) for share in shares[1:]]
        outcomes = [_run_share(shares[0])]
        for share, future in zip(shares[1:], futures):
            try:
                outcomes.append(future.result())
            except BrokenProcessPool:
                cells = ", ".join(f"{scenario} seed {seed}"
                                  for _, scenario, seed in share)
                outcomes.append(([], KdudaError(
                    f"a worker process died running cells {cells}")))
    return outcomes


def _run_cells(jobs: list[tuple[ExperimentConfig, str, int]]):
    """Yield run_single(cfg, scenario, seed)'s (log, result) for each job,
    in job order. A failing cell raises its error at its turn, so callers
    see the cells before it and then the error a serial loop would give;
    a worker that dies fails at its share's first cell."""
    n = _worker_count(len(jobs))
    if n == 1 or not hasattr(os, "fork"):
        for job in jobs:
            yield run_single(*job)
        return
    outcomes = _run_shares([jobs[i::n] for i in range(n)])
    for i in range(len(jobs)):
        done, error = outcomes[i % n]
        if i // n == len(done):
            raise error
        yield done[i // n]


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
    cfg.require_one_student()
    os.makedirs(cfg.output_dir, exist_ok=True)
    tag = cfg.config_hash()
    jobs = [(cfg, scenario, seed) for scenario in cfg.scenarios
            for seed in cfg.seeds]
    results = []
    for log, result in _run_cells(jobs):
        log.to_csv(os.path.join(
            cfg.output_dir, f"{tag}_{result.scenario}_seed{result.seed}.csv"))
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
    _reject_duplicates("teacher widths", tuple(teacher_widths))
    _reject_duplicates("student widths", tuple(student_widths))
    cfg.require_one_student()
    os.makedirs(cfg.output_dir, exist_ok=True)
    widths = [(tw, sw) for tw in teacher_widths for sw in student_widths]
    jobs = [(replace(cfg, teacher_hidden=teacher_hidden_for(tw),
                     student_hidden=(student_hidden_for(sw),),
                     scenarios=("joint",)), "joint", seed)
            for tw, sw in widths for seed in cfg.seeds]
    accs = np.array([result.student_tgt_acc for _, result in _run_cells(jobs)])
    rows = []
    for (tw, sw), cell_accs in zip(widths, accs.reshape(len(widths), -1)):
        rows.append([str(tw), str(sw), repr(float(cell_accs.mean())),
                     repr(float(cell_accs.std()))])
    path = os.path.join(cfg.output_dir, f"{cfg.config_hash()}_sweep.csv")
    with open(path, "w") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return rows

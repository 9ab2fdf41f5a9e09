"""Experiment orchestration: config files, scenario comparisons, complexity
tables, and the teacher/student width sweep.

Config files are flat `key = value` text with dotted keys and # comments.
Output file names start with a hash of the fully resolved config (every
field but the output directory), so distinct runs never collide in one
directory; output_path names every one.

Scenario grids and sweeps train the seeds of each (config, scenario) as one
stack (see kduda.trainer). With CPUs to spare beyond BLAS's threads, forked
workers run some stacks and pickle their cells back over a pipe; the caller
writes every output file, in cell order, once the grid has run.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import trainer
from .data import DomainPair, gen_blob_shift, stack_pairs, standardize
from .errors import ConfigError, KdudaError, NumericalAbort, ParameterError
from .losses import KernelConfig
from .models import ModelSpec, build, count_complexity, stack
from .trainer import SCENARIOS, TrainConfig, TrainLog, write_csv

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

    def __post_init__(self):
        if self.generator != "blobs":
            raise ConfigError(f"data.generator: unknown generator "
                              f"{self.generator!r}; valid: blobs")
        # every range make_pair needs, so a bad one fails at load, not later
        for bad, name, rule in (
                (self.classes < 2, "classes", ">= 2"),
                (self.n_per_domain < self.classes, "n_per_domain",
                 f">= data.classes ({self.classes})"),
                (self.dim < 2, "dim", ">= 2"),
                (self.classes > self.dim + 1, "classes",
                 f"<= data.dim + 1 ({self.dim + 1})"),
                (self.scale <= 0, "scale", "positive")):
            if bad:
                raise ConfigError(f"data.{name} must be {rule}, "
                                  f"got {getattr(self, name)}")

    def make_pair(self, seed: int) -> DomainPair:
        """The seed's pair, standardized on its source domain."""
        return standardize(gen_blob_shift(self.n_per_domain, self.classes, self.dim,
                                          self.mean_shift, self.scale, seed))


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
        if self.train.batch_size > self.dataset.n_per_domain:
            raise ConfigError(f"train.batch_size {self.train.batch_size} exceeds "
                              f"data.n_per_domain {self.dataset.n_per_domain}")
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


def _items(read, sep: str = ","):
    """A reader of sep-separated items, skipping empty ones."""
    return lambda text: tuple(read(tok) for tok in text.split(sep) if tok.strip())


# each field annotation's reader, and what a value it rejects should have been
_READERS = {
    "int": (int, "an integer"),
    "float": (_finite, "a finite number"),
    "str": (str, "a string"),
    "tuple[int, ...]": (_items(int), "comma-separated integers"),
    "tuple[float, ...]": (_items(_finite), "comma-separated finite numbers"),
    "tuple[str, ...]": (_items(str.strip), "comma-separated names"),
    "tuple[tuple[int, ...], ...]": (_items(_items(int), ";"),
                                    "semicolon-separated integer lists"),
}


def _keyed(cls, keys: dict[str, str]) -> dict[str, tuple]:
    """(key, reader, expected) of each field of cls that keys names; a field
    that is not cls's, or whose annotation has no reader, fails at import."""
    types = {f.name: f.type for f in fields(cls)}
    return {name: (key, *_READERS[types[name]]) for name, key in keys.items()}


# every field a config file may set, by dataclass: its key, reader and the
# expected value; its default is the dataclass's
_FIELDS = {cls: _keyed(cls, keys) for cls, keys in (
    (DatasetConfig, {f.name: f"data.{f.name}" for f in fields(DatasetConfig)}),
    (KernelConfig, {"bandwidths": "train.kernel_bandwidths"}),
    (TrainConfig, {f.name: f"train.{f.name}" for f in fields(TrainConfig)
                   if f.name not in ("seed", "kernel")}),
    (ExperimentConfig, {"teacher_hidden": "model.teacher_hidden",
                        "student_hidden": "model.student_hidden",
                        "scenarios": "experiment.scenarios",
                        "seeds": "experiment.seeds",
                        "output_dir": "experiment.output_dir"}))}


def _section(raw: dict[str, str], default, **given):
    """default with each field raw sets read from its key, and the given
    fields raw leaves unset; a range error names the key of its field."""
    table = _FIELDS[type(default)]
    values = {}
    for name, (key, read, expected) in table.items():
        if key in raw:
            try:
                values[name] = read(raw[key])
            except ValueError:
                raise ConfigError(
                    f"{key}: expected {expected}, got {raw[key]!r}") from None
    try:
        return replace(default, **{**given, **values})
    except ParameterError as exc:
        raise ConfigError(f"{table[exc.field][0]}: {exc}") from None


def parse_config(text: str) -> ExperimentConfig:
    raw = _parse_kv(text)
    default = ExperimentConfig()  # whose train defaults to 100 epochs
    # sections build in this order, so their errors come in it too
    cfg = _section(raw, default, dataset=_section(raw, default.dataset),
                   train=_section(raw, default.train,
                                  kernel=_section(raw, default.train.kernel)))
    unknown = raw.keys() - {key for table in _FIELDS.values()
                            for key, _, _ in table.values()}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        return parse_config(text)
    except KdudaError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# -- single runs -----------------------------------------------------------------


def check_cell(cfg: ExperimentConfig, scenario: str, seed: int):
    """Reject a (scenario, seed) cell of cfg that run_single cannot train,
    or that would leave one of the scenario's phases without epochs."""
    if scenario not in VALID_SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; valid: {', '.join(VALID_SCENARIOS)}")
    if seed < 0:  # numpy generators take only non-negative seeds
        raise ConfigError(f"seed must be >= 0, got {seed}")
    cfg.require_one_student()
    try:
        trainer.phase_epochs(scenario, cfg.train.epochs)
    except ParameterError as exc:
        raise ConfigError(f"train.{exc}") from None


def run_single(cfg: ExperimentConfig, scenario: str, seeds: tuple[int, ...]
               ) -> list[tuple[TrainLog, ScenarioResult]]:
    """Train the (scenario, seed) cells of cfg at the given seeds as one
    stack, and package each cell's log and result, in seed order."""
    if not seeds:
        raise ConfigError("run_single: at least one seed is required")
    for seed in seeds:
        check_cell(cfg, scenario, seed)
    # One seed trains without the stack axis: the same code, minus numpy's
    # per-op cost of a third axis (about 3% of a headline step).
    def join(items, stack_items):
        return items[0] if len(items) == 1 else stack_items(items)

    pair = join([cfg.dataset.make_pair(seed) for seed in seeds], stack_pairs)
    train_cfg = replace(cfg.train, seed=join(tuple(seeds), tuple))
    student = join([build(cfg.student_spec(seed)) for seed in seeds], stack)
    # looked up at call time, so a wrapper installed on the module applies
    train = getattr(trainer, f"train_{scenario}")
    try:
        if scenario == "uda_only":  # the only scenario without a teacher
            log = train(student, pair, train_cfg)
        else:
            teacher = join([build(cfg.teacher_spec(seed)) for seed in seeds], stack)
            log = train(teacher, student, pair, train_cfg)
    except NumericalAbort as exc:
        if len(seeds) > 1:  # _run_share reruns the stack one cell at a time
            raise
        raise NumericalAbort(f"{scenario} seed {seeds[0]}: {exc}") from None
    cells = []
    for seed, cell_log in zip(seeds, log.cells()):
        final = cell_log.final()
        cells.append((cell_log, ScenarioResult(
            scenario=scenario, seed=seed,
            student_tgt_acc=float(final.student_tgt_acc),
            student_src_acc=float(final.student_src_acc),
            teacher_tgt_acc=float(final.teacher_tgt_acc),
            teacher_src_acc=float(final.teacher_src_acc))))
    return cells


# -- cell runner -------------------------------------------------------------------
#
# A stack is (cfg, scenario, seeds): cells that differ only in seed, trained
# together by one run_single call. Stacks are fully seeded and independent,
# so they may run in any process. Before any of them runs, _assign_stacks
# deals them out from the configs alone, longest estimate first; the caller
# runs share 0 and a forked worker each other share, pickling its cells back
# over a pipe. The caller's share does not depend on timing, so a profile of
# the caller always covers the same stacks.


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


def _worker_count(stacks: int) -> int:
    """Processes for a grid: as many as fit on the usable CPUs next to
    BLAS's threads, so processes never compete with BLAS for cores."""
    cpus = _usable_cpus()
    return max(1, min(stacks, cpus // _blas_threads(cpus)))


def _stack_seconds(cfg: ExperimentConfig, scenario: str, seeds) -> float:
    return trainer.estimate_seconds(scenario, cfg.teacher_spec(0),
                                    cfg.student_spec(0), cfg.dataset.n_per_domain,
                                    cfg.train, len(seeds))


def _assign_stacks(stacks: list, n: int) -> list[list[int]]:
    """Indices of the stacks each of n processes runs, each share in stack
    order: longest estimate first, each to the process with the least
    estimated work so far (the lowest-numbered on ties)."""
    loads = [0.0] * n
    shares = [[] for _ in range(n)]
    costs = [_stack_seconds(*job) for job in stacks]
    for i in sorted(range(len(stacks)), key=lambda i: -costs[i]):
        p = loads.index(min(loads))
        shares[p].append(i)
        loads[p] += costs[i]
    return [sorted(share) for share in shares]


def _run_share(stacks) -> tuple[list, Exception | None]:
    """Run stacks in order until a cell fails; return the finished cells'
    (log, result) pairs and the failure, if any. A stack that fails with a
    KdudaError (a term gone non-finite, or a layer past the weight guard, in
    some cell) is rerun one cell at a time, so the cells before its failing
    one are kept and the failure is the one that cell gives on its own."""
    done = []
    try:
        for cfg, scenario, seeds in stacks:
            try:
                done += run_single(cfg, scenario, seeds)
            except KdudaError:
                if len(seeds) == 1:
                    raise
                for seed in seeds:
                    done += run_single(cfg, scenario, (seed,))
    except Exception as exc:  # re-raised by _run_cells at this cell's turn
        return done, exc
    return done, None


def _run_shares(shares: list[list]) -> list[tuple[list, Exception | None]]:
    """The _run_share outcome of each share: the caller runs share 0, and
    a forked worker each other share, whose outcome it pickles to a pipe."""
    # fork: workers inherit the loaded numpy and kduda, their CPU time shows in
    # the caller's RUSAGE_CHILDREN, and each holds only its pipe's write end.
    pipes, pids = [], []
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as out:
                pid = os.fork()
                if pid == 0:  # a worker: it never returns to the caller
                    try:
                        for pipe in pipes:
                            pipe.close()
                        out.write(pickle.dumps(_run_share(share)))
                        out.close()
                    finally:
                        os._exit(0)
            pids.append(pid)
        outcomes = [_run_share(shares[0])]
        for share, pipe in zip(shares[1:], pipes):
            try:
                outcomes.append(pickle.load(pipe))
            except Exception:  # an empty or cut-off pipe: no outcome came
                cells = ", ".join(f"{scenario} seed {seed}"
                                  for _, scenario, seeds in share
                                  for seed in seeds)
                outcomes.append(([], KdudaError(
                    f"a worker process died running cells {cells}")))
    finally:  # pipes close first: a worker blocked writing one then exits
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
    return outcomes


def _run_cells(stacks: list[tuple[ExperimentConfig, str, tuple[int, ...]]]):
    """Yield the (log, result) of every cell of every stack, in stack and
    seed order, once every share has run. A failing cell raises its error
    at its turn, so callers see the cells before it and then the error a
    serial loop over single cells would give; a worker that dies fails at
    its share's first cell."""
    n = _worker_count(len(stacks)) if hasattr(os, "fork") else 1
    shares = _assign_stacks(stacks, n)
    outcomes = _run_shares([[stacks[i] for i in share] for share in shares])
    # each process's cells come in the order of its stacks
    pending = [iter(done) for done, _ in outcomes]
    for i, p in sorted((i, p) for p, share in enumerate(shares) for i in share):
        for _ in stacks[i][2]:
            cell = next(pending[p], None)
            if cell is None:
                raise outcomes[p][1]
            yield cell


# -- experiment orchestration -------------------------------------------------------


SUMMARY_COLUMNS = ("scenario", "n_seeds", "student_tgt_acc_mean",
                   "student_tgt_acc_std", "student_src_acc_mean",
                   "teacher_tgt_acc_mean", "teacher_src_acc_mean",
                   "student_params", "student_macs", "teacher_params",
                   "teacher_macs", "student_teacher_mac_ratio")


def summary_rows(cfg: ExperimentConfig,
                 results: list[ScenarioResult]) -> list[list[str]]:
    s_params, s_macs = count_complexity(cfg.student_spec(0))
    t_params, t_macs = count_complexity(cfg.teacher_spec(0))
    rows = []
    for scenario in cfg.scenarios:
        group = [r for r in results if r.scenario == scenario]
        tgt = np.array([r.student_tgt_acc for r in group])
        src = np.array([r.student_src_acc for r in group])
        t_tgt = np.array([r.teacher_tgt_acc for r in group])
        t_src = np.array([r.teacher_src_acc for r in group])
        rows.append([
            scenario, str(len(group)),
            repr(float(tgt.mean())), repr(float(tgt.std())),
            repr(float(src.mean())), repr(float(t_tgt.mean())),
            repr(float(t_src.mean())),
            str(s_params), str(s_macs), str(t_params), str(t_macs),
            repr(s_macs / t_macs),
        ])
    return rows


def output_path(cfg: ExperimentConfig, name: str) -> str:
    """Where cfg's artifact name goes: `{hash}_{name}` in its output
    directory."""
    return os.path.join(cfg.output_dir, f"{cfg.config_hash()}_{name}")


def run_experiment(cfg: ExperimentConfig) -> list[ScenarioResult]:
    """Train every (scenario, seed) pair; write per-pair logs and a summary.
    Every cell is checked before anything is created."""
    for scenario in cfg.scenarios:
        for seed in cfg.seeds:
            check_cell(cfg, scenario, seed)
    os.makedirs(cfg.output_dir, exist_ok=True)
    stacks = [(cfg, scenario, cfg.seeds) for scenario in cfg.scenarios]
    results = []
    for log, result in _run_cells(stacks):
        log.to_csv(output_path(cfg, f"{result.scenario}_seed{result.seed}.csv"))
        results.append(result)
    write_csv(output_path(cfg, "summary.csv"), SUMMARY_COLUMNS,
              summary_rows(cfg, results))
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
    stacks = [(replace(cfg, teacher_hidden=teacher_hidden_for(tw),
                       student_hidden=(student_hidden_for(sw),),
                       scenarios=("joint",)), "joint", cfg.seeds)
              for tw, sw in widths]
    accs = np.array([result.student_tgt_acc for _, result in _run_cells(stacks)])
    rows = [[str(tw), str(sw), repr(float(a.mean())), repr(float(a.std()))]
            for (tw, sw), a in zip(widths, accs.reshape(len(widths), -1))]
    write_csv(output_path(cfg, "sweep.csv"), SWEEP_COLUMNS, rows)
    return rows

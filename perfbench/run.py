"""kduda benchmark: training workloads measured from outside the program.

    python3 perfbench/run.py --workload joint_headline --seed 0 --seconds 40 --trace 0

A closed loop on one core budget: one training command at a time, each in a
fresh interpreter (`child.py`), no worker pool. Every command goes through
`kduda.cli.main` with a config generated from the committed workload file in
`perfbench/workloads/` plus the seeds derived from --seed. The outputs of
every command are checked; a command that fails or fails a check counts in
`failed`.

--trace 0 measures the end-to-end metrics over repeated untraced commands
until --seconds have passed. --trace 1 runs one untraced and two traced
commands on the same seed and reports the per-layer metrics; the exact
counts of the two traced commands must agree.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Environment, per-metric
sample counts and raw values go to the lines above it and to
`.perfbench/results/`; traced spans go to `.perfbench/traces/`.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import EXACT_COUNTS, percentile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench")

# command and program seeds per cell of each workload
WORKLOADS = {
    "joint_headline": {"command": "train", "seeds_per_set": 1},
    "wide_batch": {"command": "train", "seeds_per_set": 1},
    "scenario_grid": {"command": "scenarios", "seeds_per_set": 2},
}

# An untraced run cycles through this many seed sets derived from --seed, so
# student_tgt_acc averages over all of them; a set met again is a rerun whose
# outputs must repeat byte for byte.
SEED_SETS = 4
SETUP_PROBES = 6  # set-up-only commands per untraced run, for setup_s
MAX_REPEATS = 200
RUN_BUDGET_S = 170.0  # the whole run, children included, ends within this

# Thread pools of the BLAS and OpenMP runtimes in every command. On a box
# of 2 vCPUs the default pool spans both, and each small GEMM waits on a
# worker that any other process can preempt: a load of a quarter of one
# vCPU made a joint_headline command 12x slower with the default pool and
# 1.4x slower with one thread. One thread leaves a vCPU for the rest of
# the box, so the timings measure the program rather than the scheduler.
PINNED_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("train_samples_per_s", "1/s"),
    ("epoch_ms_p50", "ms"), ("epoch_ms_p90", "ms"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("student_tgt_acc", "ratio"),
)
PER_LAYER = (
    ("autodiff.backward_calls", "count"), ("autodiff.backward_ms_p50", "ms"),
    ("autodiff.backward_ms_p99", "ms"), ("autodiff.nodes_per_da_step", "count"),
    ("autodiff.nodes_per_kd_step", "count"),
    ("autodiff.graphs_live_max", "count"),
    ("losses.teacher_da_loss_ms_p50", "ms"), ("losses.mmd_squared_ms_p50", "ms"),
    ("losses.kernel_resolve_ms_p50", "ms"),
    ("losses.target_kd_loss_ms_p50", "ms"),
    ("losses.source_kd_loss_ms_p50", "ms"), ("losses.self_s", "s"),
    ("models.predict_logits_calls", "count"),
    ("models.predict_logits_rows", "count"),
    ("models.predict_logits_ms_p50", "ms"), ("models.self_s", "s"),
    ("trainer.sgd_steps", "count"), ("trainer.sgd_step_us_p50", "us"),
    ("trainer.evaluate_calls", "count"), ("trainer.evaluate_ms_p50", "ms"),
    ("trainer.self_s", "s"),
    ("data.batches_ms_p50", "ms"), ("data.make_pair_ms", "ms"),
    ("harness.load_config_ms", "ms"), ("harness.cells", "count"),
    ("harness.run_single_s_sum", "s"), ("harness.run_single_s_max", "s"),
    ("harness.self_s", "s"),
    ("cli.import_s", "s"), ("cli.main_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.spans", "count"),
)

CSV_COLUMNS = ["epoch", "beta", "gamma", "L_mmd", "L_tda", "L_tkd", "L_skd",
               "L_total", "teacher_src_acc", "teacher_tgt_acc",
               "student_src_acc", "student_tgt_acc", "seconds"]
LOSS_COLUMNS = ("L_mmd", "L_tda", "L_tkd", "L_skd", "L_total")
ACC_COLUMNS = ("teacher_src_acc", "teacher_tgt_acc", "student_src_acc",
               "student_tgt_acc")
BLEND_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """A training command's outputs are wrong."""


# -- workload description ----------------------------------------------------------


def read_workload(name: str) -> tuple[str, dict[str, str]]:
    """Committed config text and its `key = value` pairs."""
    with open(os.path.join(BENCH_DIR, "workloads", f"{name}.cfg")) as fh:
        text = fh.read()
    keys = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            keys[key.strip()] = value.strip()
    return text, keys


def scenarios_of(keys: dict[str, str], command: str) -> list[str]:
    if command == "train":
        return ["joint"]
    return [s.strip() for s in keys["experiment.scenarios"].split(",")]


def program_seeds(seed: int, seed_set: int, per_set: int) -> list[int]:
    base = (seed % 1_000_000) * SEED_SETS * per_set + seed_set * per_set
    return [base + i for i in range(per_set)]


def write_config(work: str, text: str, seeds: list[int], tag: str) -> tuple[str, str]:
    out = os.path.join(work, f"out_{tag}")
    path = os.path.join(work, f"{tag}.cfg")
    with open(path, "w") as fh:
        fh.write(text.rstrip("\n") + "\n")
        fh.write(f"experiment.seeds = {', '.join(str(s) for s in seeds)}\n")
        fh.write(f"experiment.output_dir = {out}\n")
    return path, out


# -- one training command ----------------------------------------------------------


def run_child(command: str, config: str, result: str, timeout: float,
              spans: str | None = None, setup_only: bool = False) -> dict:
    """Run one training command (or only its set-up) in a fresh interpreter;
    returns its measurements with `setup_s` added. Raises CheckFailed on
    failure."""
    cli_args = [command, "--config", config]
    if command == "train":
        cli_args += ["--scenario", "joint"]
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--root", ROOT,
           "--config", config, "--result", result]
    if spans:
        cmd += ["--spans", spans]
    if setup_only:
        cmd += ["--setup-only"]
    cmd += ["--", *cli_args]
    spawned = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **PINNED_THREADS},
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise CheckFailed(f"command exceeded {timeout:.0f} s and was killed")
    try:
        with open(result) as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        raise CheckFailed(f"no result (exit {proc.returncode}): {err[-2000:]}")
    if res.get("error"):
        raise CheckFailed(res["error"][-2000:])
    if proc.returncode != 0 or res["rc"] != 0:
        raise CheckFailed(f"exit code {res['rc']}: {err[-2000:]}")
    res["setup_s"] = res["t_ready"] - spawned
    return res


def _read_cell_csv(path: str, epochs: int, scenario: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_COLUMNS:
        raise CheckFailed(f"{path}: header {rows[:1]} is not {CSV_COLUMNS}")
    body = rows[1:]
    if [r[0] for r in body] != [str(e) for e in range(epochs)]:
        raise CheckFailed(f"{path}: expected one row per epoch 0..{epochs - 1}, "
                          f"got {len(body)} rows")
    col = {name: i for i, name in enumerate(CSV_COLUMNS)}
    for r in body:
        vals = {name: float(r[i]) for name, i in col.items()}
        for name in LOSS_COLUMNS:
            if not math.isfinite(vals[name]):
                raise CheckFailed(f"{path} epoch {r[0]}: {name} = {vals[name]}")
        beta = vals["beta"]
        blend = (1.0 - beta) * vals["L_tda"] + beta * (vals["L_tkd"] + vals["L_skd"])
        if abs(vals["L_total"] - blend) > BLEND_TOLERANCE:
            raise CheckFailed(f"{path} epoch {r[0]}: L_total {vals['L_total']!r} "
                              f"!= blend {blend!r}")
        for name in ACC_COLUMNS:
            acc = vals[name]
            # uda_only trains the student alone; its teacher columns are nan
            absent = scenario == "uda_only" and name.startswith("teacher")
            if (math.isnan(acc) != absent) or not (absent or 0.0 <= acc <= 1.0):
                raise CheckFailed(f"{path} epoch {r[0]}: {name} = {acc}")
        if not vals["seconds"] > 0.0:
            raise CheckFailed(f"{path} epoch {r[0]}: seconds = {vals['seconds']}")
    return body


def check_outputs(out: str, keys: dict[str, str], seeds: list[int],
                  command: str) -> dict:
    """Validate one command's CSVs. Returns the cells' rows and the summary."""
    epochs = int(keys["train.epochs"])
    scenarios = scenarios_of(keys, command)
    cells = {}
    for scenario in scenarios:
        for seed in seeds:
            found = glob.glob(os.path.join(out, f"*_{scenario}_seed{seed}.csv"))
            if len(found) != 1:
                raise CheckFailed(f"expected one CSV for {scenario} seed {seed}, "
                                  f"found {len(found)}")
            cells[(scenario, seed)] = _read_cell_csv(found[0], epochs, scenario)
    summary = None
    if command == "scenarios":
        found = glob.glob(os.path.join(out, "*_summary.csv"))
        if len(found) != 1:
            raise CheckFailed(f"expected one summary, found {len(found)}")
        with open(found[0], "rb") as fh:
            summary = fh.read()
        lines = summary.decode().splitlines()
        if [ln.split(",")[:2] for ln in lines[1:]] != [[s, str(len(seeds))]
                                                      for s in scenarios]:
            raise CheckFailed(f"summary rows do not match scenarios x seeds: {lines}")
    return {"cells": cells, "summary": summary}


def samples_per_command(keys: dict[str, str], seeds: list[int], command: str) -> int:
    """Source rows swept by the epoch loops: one per source row per epoch and
    cell; source_only trains two models and sweeps twice."""
    sweeps = sum(2 if s == "source_only" else 1 for s in scenarios_of(keys, command))
    return sweeps * len(seeds) * int(keys["train.epochs"]) * int(keys["data.n_per_domain"])


def _without_seconds(cells: dict) -> dict:
    return {k: [r[:-1] for r in rows] for k, rows in cells.items()}


# -- run modes ---------------------------------------------------------------------


class Runner:
    def __init__(self, workload: str, seed: int, work: str, deadline: float):
        self.spec = WORKLOADS[workload]
        self.text, self.keys = read_workload(workload)
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.first_outputs: dict[int, dict] = {}

    def _start(self, seed_set: int):
        seeds = program_seeds(self.seed, seed_set, self.spec["seeds_per_set"])
        config, out = write_config(self.work, self.text, seeds, f"set{seed_set}")
        shutil.rmtree(out, ignore_errors=True)
        result = os.path.join(self.work, "result.json")
        if os.path.exists(result):
            os.remove(result)
        self.attempted += 1
        return seeds, config, out, result

    def fail(self, message: str):
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def setup(self, seed_set: int):
        """Time the set-up alone, in a fresh interpreter; None if it failed."""
        _, config, _, result = self._start(seed_set)
        try:
            return run_child(self.spec["command"], config, result,
                             self.deadline - time.perf_counter(), setup_only=True)
        except CheckFailed as exc:
            self.fail(str(exc))
            return None

    def command(self, seed_set: int, spans: str | None = None):
        """Run, check and compare one command; None if it failed."""
        seeds, config, out, result = self._start(seed_set)
        try:
            res = run_child(self.spec["command"], config, result,
                            self.deadline - time.perf_counter(), spans)
            outputs = check_outputs(out, self.keys, seeds, self.spec["command"])
            first = self.first_outputs.setdefault(seed_set, outputs)
            if _without_seconds(first["cells"]) != _without_seconds(outputs["cells"]):
                raise CheckFailed(f"seeds {seeds}: epoch CSVs differ from the "
                                  f"first command on the same seeds")
            if first["summary"] != outputs["summary"]:
                raise CheckFailed(f"seeds {seeds}: summary is not byte-identical "
                                  f"to the first command on the same seeds")
        except (CheckFailed, OSError, ValueError) as exc:  # unreadable output too
            self.fail(str(exc))
            return None
        res["seeds"] = seeds
        res["samples"] = samples_per_command(self.keys, seeds, self.spec["command"])
        res["epoch_s"] = {f"{scenario}/seed{seed}": [float(r[-1]) for r in rows]
                          for (scenario, seed), rows in outputs["cells"].items()}
        res["final_student_tgt_acc"] = [float(rows[-1][CSV_COLUMNS.index(
            "student_tgt_acc")]) for rows in outputs["cells"].values()]
        return res


def timed_run(runner: Runner, seconds: float):
    """Untraced commands until --seconds have passed; end-to-end metrics."""
    started = time.perf_counter()
    setups = [runner.setup(k % SEED_SETS) for k in range(SETUP_PROBES)]
    setup_s = [r["setup_s"] for r in setups if r is not None]
    done, walls = [], []
    accs = []
    for k in range(MAX_REPEATS):
        tic = time.perf_counter()
        res = runner.command(k % SEED_SETS)
        walls.append(time.perf_counter() - tic)
        if res is not None:
            done.append(res)
            if k < SEED_SETS:
                accs.extend(res["final_student_tgt_acc"])
        elapsed = time.perf_counter() - started
        next_end = elapsed + statistics.median(walls)
        if k + 1 > SEED_SETS and next_end > seconds:  # one rerun at least
            break
        if time.perf_counter() + max(walls) > runner.deadline:
            break
    if not done:
        return {}, {}
    setup_s += [r["setup_s"] for r in done]
    run_s = [r["run_s"] for r in done]
    # Epoch percentiles of the run's typical epoch profile. Every command
    # trains the same cells in the same order, so each epoch of each cell has
    # one time per command; their median drops the seconds-long slow spells
    # of the shared host that a single command's CSV catches. Percentiles
    # are taken per cell, then the median over the cells: a cell's epochs
    # come from one scenario, and a grid command mixes five, whose pooled
    # percentiles land between their modes.
    cells = [[statistics.median(times) * 1e3 for times in zip(*cell)]
             for cell in zip(*(r["epoch_s"].values() for r in done))]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(run_s),
        "train_samples_per_s": done[0]["samples"] / statistics.median(run_s),
        "epoch_ms_p50": statistics.median(percentile(c, 50) for c in cells),
        "epoch_ms_p90": statistics.median(percentile(c, 90) for c in cells),
        "cpu_s": statistics.median(r["cpu_s"] for r in done),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in done),
        "student_tgt_acc": statistics.fmean(accs) if accs else float("nan"),
    }
    samples = {"commands": len(done), "setups": len(setup_s),
               "epoch_cells": len(cells), "epochs_per_cell": len(cells[0]),
               "student_tgt_acc_cells": len(accs)}
    raw = {"setup_s": setup_s, "run_s": run_s,
           "cpu_s": [r["cpu_s"] for r in done],
           "student_tgt_acc": accs,
           "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in done],
           "seeds": [r["seeds"] for r in done],
           "epoch_s": [r["epoch_s"] for r in done]}
    return metrics, {"samples": samples, "raw": raw}


def traced_run(runner: Runner, workload: str):
    """One untraced and two traced commands on one seed set; per-layer metrics."""
    traces = os.path.join(OUT_DIR, "traces")
    os.makedirs(traces, exist_ok=True)
    plain = runner.command(0)
    traced = []
    for i in range(2):
        spans = os.path.join(traces, f"{workload}-seed{runner.seed}-{i}.spans.csv")
        res = runner.command(0, spans=spans)
        if res is not None:
            traced.append(res)
    if plain is None or len(traced) != 2:
        return {}, {}
    counts = [{k: r["layers"][k] for k in EXACT_COUNTS} for r in traced]
    if counts[0] != counts[1]:
        runner.fail(f"exact counts differ across traced runs: {counts}")
    metrics = {}
    for name, _ in PER_LAYER:
        if name == "cli.import_s":
            metrics[name] = statistics.median(r["import_s"] for r in traced)
        elif name == "trace.overhead_ratio":
            metrics[name] = (statistics.median(r["run_s"] for r in traced)
                             / plain["run_s"])
        else:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
    return metrics, {"exact_counts": counts,
                     "untraced_run_s": plain["run_s"],
                     "traced_run_s": [r["run_s"] for r in traced]}


# -- environment -----------------------------------------------------------------


def git_rev() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        # as found; every command runs with PINNED_THREADS instead
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "command_threads": PINNED_THREADS,
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "git_rev": git_rev(),
    }


# -- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "kduda", "cli.py")):
        print(f"error: no kduda sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    env = environment()
    os.makedirs(os.path.join(OUT_DIR, "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(OUT_DIR, "work"))
    try:
        runner = Runner(args.workload, args.seed, work, deadline)
        if args.trace:
            metrics, detail = traced_run(runner, args.workload)
            units = dict(PER_LAYER)
        else:
            metrics, detail = timed_run(runner, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, value in metrics.items():
        if not math.isfinite(value):
            runner.fail(f"metric {name} is {value}")
            metrics[name] = None
    failed = len(runner.failures)
    error_rate = failed / runner.attempted
    print("env " + json.dumps(env, sort_keys=True))
    for key, value in detail.get("samples", {}).items():
        print(f"samples {key} = {value}")
    print(f"error_rate = {error_rate!r} ({failed} of {runner.attempted} commands)")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "error_rate": error_rate, "failures": runner.failures,
              "metrics": metrics, **detail}
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    correct = failed == 0 and len(metrics) == len(units)
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())

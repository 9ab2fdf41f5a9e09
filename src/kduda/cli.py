"""Command-line front end.

Exit codes: 0 success, 1 config/usage error, an output path that cannot be
written or a model too large to allocate, 2 numerical abort during
training. All outputs are CSV files or CSV text on stdout.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

import numpy as np

from .errors import KdudaError, NumericalAbort
from .harness import (SUMMARY_COLUMNS, check_cell, load_config, output_path,
                      report_complexity, run_experiment, run_single,
                      summary_rows, sweep_sizes)

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def _keep_freed_heap():
    """Stop glibc from returning the heap top to the kernel whenever a
    training step frees its temporaries, which the next step then faults
    back in page by page. Only the program entry point calls this, so
    importing kduda leaves the allocator alone; where the C library has no
    mallopt it does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # not glibc, or no libc handle
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)  # keep up to 1 GiB of freed heap top
    # blocks below 32 MiB, glibc's 64-bit maximum, come from the heap rather
    # than from mappings of their own
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kduda",
        description="Joint progressive distillation + domain adaptation runner")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one scenario for one seed")
    train.add_argument("--config", required=True)
    train.add_argument("--scenario", default="joint")
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--out", default=None, help="log CSV path override")

    scen = sub.add_parser("scenarios", help="full scenario comparison")
    scen.add_argument("--config", required=True)

    comp = sub.add_parser("complexity", help="params/MACs table")
    comp.add_argument("--config", required=True)

    sweep = sub.add_parser("sweep", help="teacher/student width sweep")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--teachers", required=True,
                       help="comma-separated teacher widths")
    sweep.add_argument("--students", required=True,
                       help="comma-separated student widths")
    return parser


def _parse_widths(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise KdudaError(f"--{what}: expected comma-separated integers, "
                         f"got {text!r}") from None


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    seed = cfg.seeds[0] if args.seed is None else args.seed
    # the cell is checked before anything is created, and the log path is
    # opened before anything trains, so a bad one fails fast; if training
    # then fails, a log file that this opening created is removed
    check_cell(cfg, args.scenario, seed)
    out = args.out
    if out is None:
        os.makedirs(cfg.output_dir, exist_ok=True)
        out = output_path(cfg, f"{args.scenario}_seed{seed}.csv")
    created = not os.path.exists(out)
    open(out, "a").close()
    try:
        (log, result), = run_single(cfg, args.scenario, (seed,))
    except BaseException:
        if created:  # through a symlink, the file is its target
            os.remove(os.path.realpath(out))
        raise
    log.to_csv(out)
    print(f"log: {out}")
    print(f"scenario={result.scenario} seed={result.seed} "
          f"student_tgt_acc={result.student_tgt_acc:.4f} "
          f"student_src_acc={result.student_src_acc:.4f}")
    return 0


def _cmd_scenarios(args) -> int:
    cfg = load_config(args.config)
    results = run_experiment(cfg)
    print(f"summary: {output_path(cfg, 'summary.csv')}")
    print(",".join(SUMMARY_COLUMNS))
    for row in summary_rows(cfg, results):
        print(",".join(row))
    return 0


def _cmd_complexity(args) -> int:
    cfg = load_config(args.config)
    print("model,hidden,params,macs,mac_ratio")
    for row in report_complexity(cfg):
        hidden = "x".join(str(w) for w in row["hidden"])
        print(f"{row['model']},{hidden},{row['params']},{row['macs']},"
              f"{row['mac_ratio']!r}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    teachers = _parse_widths(args.teachers, "teachers")
    students = _parse_widths(args.students, "students")
    rows = sweep_sizes(cfg, teachers, students)
    print("teacher_width,student_width,student_tgt_acc_mean,student_tgt_acc_std")
    for row in rows:
        print(",".join(row))
    return 0


def main(argv=None) -> int:
    _keep_freed_heap()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after help, 2 on a usage error: the abort code here
        return 1 if exc.code else 0
    handlers = {"train": _cmd_train, "scenarios": _cmd_scenarios,
                "complexity": _cmd_complexity, "sweep": _cmd_sweep}
    try:
        # a diverging run ends in a NumericalAbort: numpy's overflow,
        # invalid-value and divide-by-zero warnings on the way (a kernel
        # bandwidth whose square underflows divides by zero) would only
        # precede it on stderr. Forked grid workers inherit the setting;
        # library callers keep numpy's defaults.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return handlers[args.command](args)
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2
    # OSError: an unwritable output path; MemoryError: a model too large
    # to allocate
    except (KdudaError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 success, 1 config/usage error or an output path that cannot
be written, 2 numerical abort during training. All outputs are CSV files or
CSV text on stdout.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import KdudaError, NumericalAbort
from .harness import (SUMMARY_COLUMNS, load_config, report_complexity,
                      run_experiment, run_single, summary_rows, sweep_sizes)


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
    log, result = run_single(cfg, args.scenario, seed)
    out = args.out
    if out is None:
        os.makedirs(cfg.output_dir, exist_ok=True)
        out = os.path.join(cfg.output_dir,
                           f"{cfg.config_hash()}_{args.scenario}_seed{seed}.csv")
    log.to_csv(out)
    print(f"log: {out}")
    print(f"scenario={result.scenario} seed={result.seed} "
          f"student_tgt_acc={result.student_tgt_acc:.4f} "
          f"student_src_acc={result.student_src_acc:.4f}")
    return 0


def _cmd_scenarios(args) -> int:
    cfg = load_config(args.config)
    results = run_experiment(cfg)
    tag = cfg.config_hash()
    print(f"summary: {os.path.join(cfg.output_dir, f'{tag}_summary.csv')}")
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
    args = _build_parser().parse_args(argv)
    handlers = {"train": _cmd_train, "scenarios": _cmd_scenarios,
                "complexity": _cmd_complexity, "sweep": _cmd_sweep}
    try:
        return handlers[args.command](args)
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2
    except (KdudaError, OSError) as exc:  # OSError: an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

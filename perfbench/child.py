"""One benchmark run in a fresh interpreter.

Imports kduda from the checkout's `src`, sets the workload up (load_config,
make_pair and build for every seed of the config), then runs one training
command through `kduda.cli.main` and writes its measurements as JSON.

    python3 perfbench/child.py --root ROOT --config CFG --result OUT.json \
        [--spans SPANS.csv] [--setup-only] -- train --config CFG

With --spans, the tracing wrappers are installed before set-up and the span
list and per-layer metrics are written too. With --setup-only the child
stops once the workload is ready to train.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    """CPU time of this process and of any child processes it waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _maxrss_kb() -> int:
    """Peak resident set of this process or its largest waited-for child."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop when the workload is ready to train")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    result = {"rc": None, "error": None}
    try:
        import kduda.cli
        from kduda import harness, models
        if not os.path.abspath(kduda.cli.__file__).startswith(src + os.sep):
            raise RuntimeError(f"kduda imported from {kduda.cli.__file__}, "
                               f"not from {src}")
        result["import_s"] = time.perf_counter() - started

        tracer = None
        if args.spans:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()

        cfg = harness.load_config(args.config)
        for seed in cfg.seeds:
            cfg.dataset.make_pair(seed)
            models.build(cfg.teacher_spec(seed))
            models.build(cfg.student_spec(seed))
        result["t_ready"] = time.perf_counter()
        if args.setup_only:
            result["rc"] = 0
        else:
            _run(kduda.cli.main, cli_args, tracer, args.spans, result)
    except Exception:  # reported to the parent, which counts the failure
        result["error"] = traceback.format_exc()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0 if result["error"] is None else 1


def _run(cli_main, cli_args, tracer, spans, result):
    """One training command: wall, CPU and peak memory; spans when traced."""
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    result["rc"] = cli_main(cli_args)
    result["run_s"] = time.perf_counter() - t0
    result["cpu_s"] = _cpu_s() - cpu0
    result["maxrss_kb"] = _maxrss_kb()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(spans)


if __name__ == "__main__":
    sys.exit(main())

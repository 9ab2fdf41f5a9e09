"""Span recorder for traced benchmark runs.

The recorder wraps public functions of the kduda modules from outside the
package. Each call records one span: the function, its start and end on the
monotonic clock, and the span that was open when it started. Spans live in
flat in-memory lists until the run ends; then `layer_metrics` derives the
per-layer numbers and `write_spans` writes the spans out.

A name imported elsewhere with `from .x import f` is a second reference to
the same function object, so the wrapper replaces every reference found in
a loaded `kduda` module, e.g. `kduda.trainer.teacher_da_loss` as well as
`kduda.losses.teacher_da_loss`.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
import weakref

# (layer, module, attribute) of every wrapped function; "Class.method"
# attributes are patched on the class.
TARGETS = (
    ("autodiff", "kduda.autodiff", "backward"),
    ("losses", "kduda.losses", "teacher_da_loss"),
    ("losses", "kduda.losses", "target_kd_loss"),
    ("losses", "kduda.losses", "source_kd_loss"),
    ("losses", "kduda.losses", "mmd_squared"),
    ("losses", "kduda.losses", "KernelConfig.resolve"),
    ("losses", "kduda.losses", "cross_entropy"),
    ("models", "kduda.models", "build"),
    ("models", "kduda.models", "Model.features"),
    ("models", "kduda.models", "Model.logits"),
    ("models", "kduda.models", "Model.predict_logits"),
    ("trainer", "kduda.trainer", "sgd_step"),
    ("trainer", "kduda.trainer", "evaluate"),
    ("trainer", "kduda.trainer", "train_joint"),
    ("trainer", "kduda.trainer", "train_uda_only"),
    ("trainer", "kduda.trainer", "train_kd_then_uda"),
    ("trainer", "kduda.trainer", "train_uda_then_kd"),
    ("trainer", "kduda.trainer", "train_source_only"),
    ("data", "kduda.data", "batches"),
    ("data", "kduda.data", "gen_blob_shift"),
    ("data", "kduda.data", "standardize"),
    ("data", "kduda.harness", "DatasetConfig.make_pair"),
    ("harness", "kduda.harness", "load_config"),
    ("harness", "kduda.harness", "run_single"),
    ("harness", "kduda.harness", "run_experiment"),
    ("cli", "kduda.cli", "main"),
)

# loss functions whose graph is tagged, so backward can tell a DA step
# (adaptation, teacher) from a KD step (distillation, student); the value is
# the position of a graph tensor among the call's arguments
GRAPH_TAGS = {"teacher_da_loss": ("da", 1), "target_kd_loss": ("kd", 2),
              "source_kd_loss": ("kd", 2)}
TAG_ATTR = "_perfbench_step"


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0..100) of a non-empty sample."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


class Tracer:
    """Records spans and step counts around the wrapped functions."""

    def __init__(self):
        self.functions: list[tuple[str, str]] = []  # (layer, name) per id
        # one entry per span; flat lists of floats and ints allocate no
        # garbage-collected objects, so recording barely moves GC timing
        self.fids: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]
        self.nodes = {"da": [], "kd": [], "other": []}  # len(graph) at backward
        self.predict_rows = 0
        self.live_graphs = weakref.WeakSet()
        self.graphs_live_max = 0

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target; kduda must already be imported."""
        for layer, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            name = attr
            if "." in attr:
                class_name, name = attr.split(".")
                owner = getattr(owner, class_name)
                original = owner.__dict__[name]
            else:
                original = getattr(owner, name)
            fid = len(self.functions)
            self.functions.append((layer, name))
            wrapper = self._wrap(original, fid, self._before_hook(name))
            setattr(owner, name, wrapper)
            if owner is sys.modules[module_name]:
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not mod_name.startswith("kduda"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        graph_cls = sys.modules["kduda.autodiff"].Graph
        graph_cls.__init__ = self._graph_init(graph_cls.__init__)

    def _wrap(self, fn, fid, before):
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.wraps(fn)(wrapper)

    def _before_hook(self, name):
        if name == "backward":
            nodes = self.nodes

            def count_nodes(args):
                graph = args[0].graph
                nodes[getattr(graph, TAG_ATTR, "other")].append(len(graph.nodes))
            return count_nodes
        if name == "predict_logits":
            def count_rows(args):
                self.predict_rows += len(args[1])
            return count_rows
        if name in GRAPH_TAGS:
            step, pos = GRAPH_TAGS[name]

            def tag_graph(args):
                if len(args) > pos:
                    setattr(args[pos].graph, TAG_ATTR, step)
            return tag_graph
        return None

    def _graph_init(self, original):
        live = self.live_graphs

        def init(graph, *args, **kwargs):
            original(graph, *args, **kwargs)
            live.add(graph)
            if len(live) > self.graphs_live_max:
                self.graphs_live_max = len(live)
        return init

    # -- results ---------------------------------------------------------------

    def _by_function(self):
        """Durations and self times grouped by function name, split into
        spans inside the outermost `main` call and all spans."""
        n = len(self.fids)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                covered[self.parents[i]] += dur[i]
        main_fid = next(f for f, (_, name) in enumerate(self.functions)
                        if name == "main")
        in_main = [False] * n
        for i in range(n):
            p = self.parents[i]
            in_main[i] = self.fids[i] == main_fid or (p >= 0 and in_main[p])
        out = {}
        for i in range(n):
            name = self.functions[self.fids[i]][1]
            rec = out.setdefault(name, {"all": [], "main": [], "self": []})
            rec["all"].append(dur[i])
            if in_main[i]:
                rec["main"].append(dur[i])
                rec["self"].append(dur[i] - covered[i])
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced run, keyed without units."""
        f = self._by_function()

        def main_durs(name):
            return f.get(name, {}).get("main", [])

        def all_durs(name):
            return f.get(name, {}).get("all", [])

        def self_sum(*names):
            return sum(sum(f.get(nm, {}).get("self", [])) for nm in names)

        def p50_ms(durs):
            return statistics.median(durs) * 1e3 if durs else float("nan")

        layer_of = {name: layer for layer, name in self.functions}
        train_fns = [nm for nm in layer_of if nm.startswith("train_")]
        backward = main_durs("backward")
        run_single = main_durs("run_single")
        return {
            "autodiff.backward_calls": len(backward),
            "autodiff.backward_ms_p50": p50_ms(backward),
            "autodiff.backward_ms_p99": (percentile(backward, 99) * 1e3
                                         if backward else float("nan")),
            "autodiff.nodes_per_da_step": _median_or_nan(self.nodes["da"]),
            "autodiff.nodes_per_kd_step": _median_or_nan(self.nodes["kd"]),
            "autodiff.graphs_live_max": self.graphs_live_max,
            "losses.teacher_da_loss_ms_p50": p50_ms(main_durs("teacher_da_loss")),
            "losses.mmd_squared_ms_p50": p50_ms(main_durs("mmd_squared")),
            "losses.kernel_resolve_ms_p50": p50_ms(main_durs("resolve")),
            "losses.target_kd_loss_ms_p50": p50_ms(main_durs("target_kd_loss")),
            "losses.source_kd_loss_ms_p50": p50_ms(main_durs("source_kd_loss")),
            "losses.self_s": self_sum(*[nm for nm, ly in layer_of.items()
                                        if ly == "losses"]),
            "models.predict_logits_calls": len(main_durs("predict_logits")),
            "models.predict_logits_rows": self.predict_rows,
            "models.predict_logits_ms_p50": p50_ms(main_durs("predict_logits")),
            "models.self_s": self_sum(*[nm for nm, ly in layer_of.items()
                                        if ly == "models"]),
            "trainer.sgd_steps": len(main_durs("sgd_step")),
            "trainer.sgd_step_us_p50": p50_ms(main_durs("sgd_step")) * 1e3,
            "trainer.evaluate_calls": len(main_durs("evaluate")),
            "trainer.evaluate_ms_p50": p50_ms(main_durs("evaluate")),
            "trainer.self_s": self_sum(*train_fns),
            "data.batches_ms_p50": p50_ms(main_durs("batches")),
            "data.make_pair_ms": p50_ms(all_durs("make_pair")),
            "harness.load_config_ms": p50_ms(all_durs("load_config")),
            "harness.cells": len(run_single),
            "harness.run_single_s_sum": sum(run_single),
            "harness.run_single_s_max": max(run_single, default=float("nan")),
            "harness.self_s": self_sum("run_experiment", "run_single"),
            "cli.main_s": sum(main_durs("main")),
            "trace.spans": len(self.fids),
        }

    def write_spans(self, path: str):
        """One CSV row per span; times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("span,parent,layer,function,start_s,end_s\n")
            for i, fid in enumerate(self.fids):
                layer, name = self.functions[fid]
                fh.write(f"{i},{self.parents[i]},{layer},{name},"
                         f"{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f}\n")


# counts that must repeat exactly across traced runs of one input
EXACT_COUNTS = ("autodiff.backward_calls", "autodiff.nodes_per_da_step",
                "autodiff.nodes_per_kd_step", "autodiff.graphs_live_max",
                "models.predict_logits_calls", "models.predict_logits_rows",
                "trainer.sgd_steps", "trainer.evaluate_calls", "harness.cells",
                "trace.spans")


def _median_or_nan(values):
    return statistics.median(values) if values else float("nan")

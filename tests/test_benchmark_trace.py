"""The traced benchmark still reaches every function it wraps.

perfbench's tracer wraps kduda functions by name and derives its per-layer
metrics from their spans; a renamed or unreached function leaves a metric
empty (nan) rather than failing. This runs one traced benchmark command,
perfbench/child.py with --spans, in a fresh interpreter on a short copy of
the scenario_grid workload, and reads perfbench without changing it.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def test_traced_grid_command_gives_every_layer_metric(tmp_path):
    with open(os.path.join(BENCH, "workloads", "scenario_grid.cfg")) as fh:
        text = fh.read()
    assert "train.epochs = 20\n" in text
    config = tmp_path / "grid.cfg"
    # 3 epochs: the fewest that give each of kd_then_uda's phases one
    config.write_text(text.replace("train.epochs = 20\n", "train.epochs = 3\n")
                      + "experiment.seeds = 0, 1\n"
                      + f"experiment.output_dir = {tmp_path / 'out'}\n")
    result = tmp_path / "result.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "--root", ROOT,
         "--config", str(config), "--result", str(result),
         "--spans", str(tmp_path / "spans.csv"), "--",
         "scenarios", "--config", str(config)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    res = json.loads(result.read_text())
    assert res["error"] is None and res["rc"] == 0
    layers = res["layers"]
    assert len(layers) == 30  # the other two of the 32 come from run.py
    missing = {name: value for name, value in layers.items()
               if not math.isfinite(value)}
    assert not missing
    assert math.isfinite(res["import_s"])
    assert layers["harness.cells"] >= 1
    assert layers["autodiff.nodes_per_da_step"] > 0
    assert layers["autodiff.nodes_per_kd_step"] > 0

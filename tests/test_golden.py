"""Golden bytes: sha256 digests of what training writes.

Every scenario runs for 3 epochs on two benchmark workload configs, read
as they are: scenario_grid (at 3 epochs the very cells joint_headline
trains) and wide_batch. Each config trains seed 0 alone and seeds 0 and 1
as one stack. The digests cover each cell's epoch CSV without its seconds
column, and one run_experiment summary. A change that moves these bits on
purpose updates the digests and says why.

The digests hold for one numpy build, whose BLAS fixes the bits; under any
other numpy version the test skips.
"""

import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from kduda.harness import VALID_SCENARIOS, load_config, run_experiment, run_single

NUMPY = "2.4.6"
WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "workloads")

# (config, scenario, seed) -> digest of its 3-epoch epoch CSV; seed 0 of
# the stack must equal seed 0 alone, so one digest covers both
EPOCH_CSVS = {
    ("scenario_grid", "joint", 0):
        "a0f2363925bf6622a359a568635936e97dc91d789a55812be9765953f016aa0b",
    ("scenario_grid", "joint", 1):
        "02e1a9f2f43af57463480a7c19e490fd494631f3e0d3f5574370f3a32a136af0",
    ("scenario_grid", "uda_then_kd", 0):
        "220276c118c11ad73ea956c96b6ba4bb747f718d2bcb734aacf4e77695bb935f",
    ("scenario_grid", "uda_then_kd", 1):
        "b174416b74c5283d85d1f80ccac2041c6a8fe9fe53f189e2f4039effc16ddc6b",
    ("scenario_grid", "kd_then_uda", 0):
        "60734c45beff4b0371fc6992b6b306df8e035633f4805fb9d18a8983344c12d2",
    ("scenario_grid", "kd_then_uda", 1):
        "a39c9fac897dfd2621bd1959c92639785b81595f9226c3a7bfcf91ee6ae9637a",
    ("scenario_grid", "uda_only", 0):
        "a892a57cf1baf509701b2cdbd4119f543e2a236b7c924f1c1aa0eb1e9388d15a",
    ("scenario_grid", "uda_only", 1):
        "c1450a48b4fdb7b057291ed8853eb45dfe9d77b0a33e975f9d1233e4811a9a24",
    ("scenario_grid", "source_only", 0):
        "17f76800f7287bfc35052709d1e072674edfa29d09446451fb4fbab4e020d62f",
    ("scenario_grid", "source_only", 1):
        "be1ec36745ede6fb189434ae2de48a199a84e3d6f9e650b2700769ccb1faac04",
    ("wide_batch", "joint", 0):
        "4ef18a3f7721341df5111aa49f6fe991ed2423372af2e995c5972bf30ecb7a56",
    ("wide_batch", "joint", 1):
        "fb23003a19e059cf2ade73507fc26f84f9c9b5d6b6f2f256f6a7c1914e612bfa",
    ("wide_batch", "uda_then_kd", 0):
        "82eae3bb3a29a68066da92b5d6a4c8ee23f0af90bdd5f08694849bff3504b3b0",
    ("wide_batch", "uda_then_kd", 1):
        "ede9f2a949cc0961496989711500d815bb6b761480290219b3ef7836ebc188d5",
    ("wide_batch", "kd_then_uda", 0):
        "4172fa90631434e86543e5291faf32b1ab8a9e806d1f60c68013c5fb8c6f278e",
    ("wide_batch", "kd_then_uda", 1):
        "659a650cf5548959108f3fb3e99a13199066b01ba41a7c68049248e2c50c953e",
    ("wide_batch", "uda_only", 0):
        "cfee68f9bbeb3390068ad480cc00da9e40caaaa64fff5683f37f510f514e3f16",
    ("wide_batch", "uda_only", 1):
        "19a62b2657428e15cad873508b3da1c8c49d4d51a2462975855bbffa18d125cc",
    ("wide_batch", "source_only", 0):
        "eb7c0a4124f785f55f2dea5dcbb93fe731159cc37803d5aed813796f6ef5b755",
    ("wide_batch", "source_only", 1):
        "691019e9a3d39c3c8c948d23bce91a8c0ad5e04a095ebbd867d1294e34b8e60d",
}
SUMMARY = "0f95f477fd1b19227e6e7ced259c1943598ecacc3e69d555886e190a57fb1262"

pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY,
    reason=f"golden digests are for numpy {NUMPY}, not {np.__version__}")


def workload_cfg(name: str, out):
    """The workload config at 3 epochs, every scenario and seeds 0 and 1."""
    cfg = load_config(os.path.join(WORKLOADS, f"{name}.cfg"))
    return replace(cfg, train=replace(cfg.train, epochs=3),
                   scenarios=VALID_SCENARIOS, seeds=(0, 1), output_dir=str(out))


def digest(path, drop_seconds=False) -> str:
    with open(path) as fh:
        lines = fh.read().split("\n")
    if drop_seconds:
        assert lines[0].endswith(",seconds")
        lines = [line.rsplit(",", 1)[0] for line in lines]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def epoch_digests(cfg, scenario, seeds, out) -> list[str]:
    digests = []
    for log, result in run_single(cfg, scenario, seeds):
        path = out / f"{scenario}_seed{result.seed}_of{len(seeds)}.csv"
        log.to_csv(str(path))
        digests.append(digest(path, drop_seconds=True))
    return digests


@pytest.mark.parametrize("name", ["scenario_grid", "wide_batch"])
def test_epoch_csvs_keep_their_bytes(tmp_path, name):
    cfg = workload_cfg(name, tmp_path)
    found = {}
    for scenario in VALID_SCENARIOS:
        single, = epoch_digests(cfg, scenario, (0,), tmp_path)
        stacked = epoch_digests(cfg, scenario, (0, 1), tmp_path)
        assert stacked[0] == single, f"{scenario}: stacked seed 0 differs"
        found.update({(name, scenario, 0): single, (name, scenario, 1): stacked[1]})
    assert found == {key: value for key, value in EPOCH_CSVS.items()
                     if key[0] == name}


def test_summary_keeps_its_bytes(tmp_path):
    cfg = workload_cfg("scenario_grid", tmp_path)
    run_experiment(cfg)
    assert digest(tmp_path / f"{cfg.config_hash()}_summary.csv") == SUMMARY

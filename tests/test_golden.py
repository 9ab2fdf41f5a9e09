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
        "79d9839f19be38a43a289bcd1868c5153b386e2dda3c458e23d7a6c59ec367f3",
    ("scenario_grid", "joint", 1):
        "f691bbb1a9de0638ac5fc500247b54cf4e8bd547ccfd4316f0a6f6ba8402b6cd",
    ("scenario_grid", "uda_then_kd", 0):
        "dc4e52282feb7bb09cd6e45902b6909fa1edbf9024bdabc162512545c7275183",
    ("scenario_grid", "uda_then_kd", 1):
        "7bc4358d62d453c59d6432010476d99451a2e2f2d94470e1084787900eb6fabc",
    ("scenario_grid", "kd_then_uda", 0):
        "bf500ea0640a1da9bb87ad939dc88285923f7192277a3cbb235415c47ddd2901",
    ("scenario_grid", "kd_then_uda", 1):
        "a39c9fac897dfd2621bd1959c92639785b81595f9226c3a7bfcf91ee6ae9637a",
    ("scenario_grid", "uda_only", 0):
        "e3b65a16a83cfb2e1baf27fd57c25241f5217f8f2814726d77decda190a8ba1f",
    ("scenario_grid", "uda_only", 1):
        "be548233f54ffebb5c70df5f092b62ac13fedfa0bdb3bd5a76f953b00ce77eed",
    ("scenario_grid", "source_only", 0):
        "17f76800f7287bfc35052709d1e072674edfa29d09446451fb4fbab4e020d62f",
    ("scenario_grid", "source_only", 1):
        "be1ec36745ede6fb189434ae2de48a199a84e3d6f9e650b2700769ccb1faac04",
    ("wide_batch", "joint", 0):
        "e47216e7cdc26cfc5c8d9aa966a2326b70b33d262b851e57c595c07c537e9c1b",
    ("wide_batch", "joint", 1):
        "513660a85db33ce1fa2df4adb441b6eb1666aeebb22961daa2dc43e1b839e03b",
    ("wide_batch", "uda_then_kd", 0):
        "0065c24edcbe20036dca7afd4ca10f730df32450d8a89f1f290920df6e1e6204",
    ("wide_batch", "uda_then_kd", 1):
        "d91f38aedccdc9d09bb2785adc5b6f3fa50edab91db7d920e9c88ee2b843decd",
    ("wide_batch", "kd_then_uda", 0):
        "4172fa90631434e86543e5291faf32b1ab8a9e806d1f60c68013c5fb8c6f278e",
    ("wide_batch", "kd_then_uda", 1):
        "88faa42ce8fe6e93c5f1f925f5ec45555a985674ea746051f75afd5f1ab68545",
    ("wide_batch", "uda_only", 0):
        "1db2d51c38a5c085256fa76e665b897af7d64bc922525f7b19e1c5088ab66d55",
    ("wide_batch", "uda_only", 1):
        "e78fe39ffb000695c3f755960a625266378677e82247b2916eaac6df803409ad",
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

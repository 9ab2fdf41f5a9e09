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
        "d4424083e047c6ab0197bee55a3ba561cc3ab7735ab41193ae8899d9f5bc81db",
    ("scenario_grid", "joint", 1):
        "fa7c61ea0465d9c991405bc07a75fdb975354022ed0219bdb35590d5d293251e",
    ("scenario_grid", "uda_then_kd", 0):
        "9510efdca89aa6e124778fd818797a1ac8ee691f0a6337a8c8d5986c98ac4195",
    ("scenario_grid", "uda_then_kd", 1):
        "cab18870aa6c815fcfbc08fdea2a4258a49426cb0878309d59e236ad601a3b28",
    ("scenario_grid", "kd_then_uda", 0):
        "5173ada98537b758e653d8817712af8694c178ce9ecf91550f5bd06d5af79c58",
    ("scenario_grid", "kd_then_uda", 1):
        "d182fd4deec1e765ebffac6cb7e748c032a1fd9e3a0a9b203e81689e39ad3958",
    ("scenario_grid", "uda_only", 0):
        "f7d9a3771c65ac76d1b00f8fbf07be12894adc565d3a8117869138f27faae8f7",
    ("scenario_grid", "uda_only", 1):
        "d30edf914cc7b14bf815cb48becb3564d9872d7203a920790aa5a28a8b791dcf",
    ("scenario_grid", "source_only", 0):
        "17f76800f7287bfc35052709d1e072674edfa29d09446451fb4fbab4e020d62f",
    ("scenario_grid", "source_only", 1):
        "be1ec36745ede6fb189434ae2de48a199a84e3d6f9e650b2700769ccb1faac04",
    ("wide_batch", "joint", 0):
        "cb9fde88f2ee773b0a92794c53afba99684e0b48e97b444fd59c160594c4cd71",
    ("wide_batch", "joint", 1):
        "f17ebdfd8cc45de30ca8fdca2eba034fa21958381d062f31bb0a92f6d8ae50cf",
    ("wide_batch", "uda_then_kd", 0):
        "a614c4e9eb63c63ff2a3f81162d9de02831bd292da01ec47c1b21edea5b6a663",
    ("wide_batch", "uda_then_kd", 1):
        "ac9a33a99ffa0fec68385075a726f0257fbf8c894ce6c7b7a5d954a14291cb5b",
    ("wide_batch", "kd_then_uda", 0):
        "d7d8f3bcaf7521cc47dad5b42c4d215c4076b3b5b5452a049befb4aed5c09e76",
    ("wide_batch", "kd_then_uda", 1):
        "7d9c2a83698e63e6486cc1034d29fbccbb4c81953d662e7a2a20317b0794fea3",
    ("wide_batch", "uda_only", 0):
        "99bf5c613457fd5e97505cfcd288a32e3dbd0567593bc7efedf33996b28637b1",
    ("wide_batch", "uda_only", 1):
        "9b4ec33a3fb37c4c2972a4c3b2c7a394a3c64a040a6f081eea33f480278a3b7e",
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

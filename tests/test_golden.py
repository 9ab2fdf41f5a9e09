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
        "a228b85d28f6fb201e511dea00ce03f92db76c83ee52dea1ead54268c4dd279c",
    ("scenario_grid", "joint", 1):
        "36e48df7c721f4ec36b4dbf174d266406a0d2b8b8e0b09f562e8c9bfd7bc66bc",
    ("scenario_grid", "uda_then_kd", 0):
        "0c658d21891f1d8b2f917c3d5feef20c485f9fa4a1057f571585752765e5e673",
    ("scenario_grid", "uda_then_kd", 1):
        "69173fa968f0643d514c81e846746732395a3566a606bab5e1c0635665fddeee",
    ("scenario_grid", "kd_then_uda", 0):
        "b8e869b4272588e1ce3768ce82e518317326476060bf9f99c2ddbc13f01dc540",
    ("scenario_grid", "kd_then_uda", 1):
        "a962de67246657e27157e33d481c9025b63b3db4ccc07fda53e7aa36c40699fe",
    ("scenario_grid", "uda_only", 0):
        "ed87e51ac63514fb63b337e3e452307c3981aff7b83be41c4d4ac98f212e09a8",
    ("scenario_grid", "uda_only", 1):
        "09f9d0fa296adacfa49374fb113392fd5404e12465f3672066f580c52bb871dc",
    ("scenario_grid", "source_only", 0):
        "17f76800f7287bfc35052709d1e072674edfa29d09446451fb4fbab4e020d62f",
    ("scenario_grid", "source_only", 1):
        "be1ec36745ede6fb189434ae2de48a199a84e3d6f9e650b2700769ccb1faac04",
    ("wide_batch", "joint", 0):
        "c7c71359ddd6af4c310e32274a927c47dece92e8ddb502847db9e7cacb8943ec",
    ("wide_batch", "joint", 1):
        "ed6baf30dd7fd928c8fd5e980c7ea1d2c6eb412e27e0156fc7617a93f841368c",
    ("wide_batch", "uda_then_kd", 0):
        "511a6b5c1037aaad29119ded08d9872da8eabd0da864b4723be10268495db9c0",
    ("wide_batch", "uda_then_kd", 1):
        "3a67ffc05dd42f444cd439bd481f124b12fe4379bd8ff34c098c2f0600486f73",
    ("wide_batch", "kd_then_uda", 0):
        "7c5ec672aa752acafdae9b0b6d5c5202c06286ac0935a685c3f77dc5f8f4b14e",
    ("wide_batch", "kd_then_uda", 1):
        "e7846806a5a489bc71ec77cec6ccd4607edd17cfd09e6d4ae0da9dff6cb23f73",
    ("wide_batch", "uda_only", 0):
        "872e904d9c4b3a7ab78ac12b21c04780a6792c1dc004e501ecbe3a3f6e40dd83",
    ("wide_batch", "uda_only", 1):
        "8a01aedec9606b100d2b7dccff5d2ca42ae5b83531f2778693f29391cf4a1650",
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

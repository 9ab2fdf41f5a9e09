"""Golden bytes: sha256 digests of what training writes.

Every scenario runs for 3 epochs on two benchmark workload configs, read
as they are: scenario_grid (at 3 epochs the very cells joint_headline
trains) and wide_batch. Each config trains seed 0 alone and seeds 0 and 1
as one stack, in float32 as run_single trains. The digests cover each
cell's epoch CSV without its seconds column, and one run_experiment
summary. A change that moves these bits on purpose updates the digests and
says why.

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
        "ca007c66db4f4d4ec659ac3af313fa6243b84ff8736a28093e23ac37d8334399",
    ("scenario_grid", "joint", 1):
        "d13fa59702915184f5e551e1bb56b4678006d9007da47380f6a412e9372b0e93",
    ("scenario_grid", "uda_then_kd", 0):
        "a72f26da5de89566b6e1771cff11557fef239f855fcea66479d05fcf68208223",
    ("scenario_grid", "uda_then_kd", 1):
        "5eb53121313f5f19cc9a05ac78f71612892f855cdd9ee703a05dc26e513c6976",
    ("scenario_grid", "kd_then_uda", 0):
        "d8047e5180cf6262f281857a0bad39652c340cf0b03f0501888fd93a633e8b5b",
    ("scenario_grid", "kd_then_uda", 1):
        "6cef0624e07234c0279b9ef131942a6649a779074529c5e2feddc3f19fd110fe",
    ("scenario_grid", "uda_only", 0):
        "f96e27b4cc2867f93d2ce559f1df0556c6ea7d89f1e04553cfc3828186fd2145",
    ("scenario_grid", "uda_only", 1):
        "37f83bb7953dfadb5bd84cb7bfdf8d964763e8c825a267799fadf0901fe0fa2a",
    ("scenario_grid", "source_only", 0):
        "5db3ae3f916ab9d2de4881b9f059d4b00392b7838bc3b5421e5d269e8be3a865",
    ("scenario_grid", "source_only", 1):
        "75c6b949de37acadaf3b58402acf2936df2c064960eabbc19e06a653768a97f3",
    ("wide_batch", "joint", 0):
        "8de858fe1d7cbb4028d0e06ca4c3b3f584bc4233a1b3902a554206da99f2c0ff",
    ("wide_batch", "joint", 1):
        "51a559630941721f90abe51151e8d8dccb05275c42f7864a911a803c78330a6a",
    ("wide_batch", "uda_then_kd", 0):
        "40d90d8727bd955c596903c7d070d911686016e95f52ca8475f390797ad951de",
    ("wide_batch", "uda_then_kd", 1):
        "0f4183df9b9a3f8dbd4a7eaa206a759a192bfb450ffd2d3a01c9384dd83e7104",
    ("wide_batch", "kd_then_uda", 0):
        "cb236df71e11988e9e10e721cf6449cea9ddcb333f9c282981e019a0270b5dbd",
    ("wide_batch", "kd_then_uda", 1):
        "b2c888d855b6eeaa18f4ae9aa5aef17aaaec91d2787cc40263193d63e9efff0e",
    ("wide_batch", "uda_only", 0):
        "0136a144b0a5c52f135be82e977f7ad8e57a487c910beb0b656d08e2e4063a0a",
    ("wide_batch", "uda_only", 1):
        "041ff46f257a066c3d8e60ed99de800dfb86df7dd941fcd10082f4e969adc0d3",
    ("wide_batch", "source_only", 0):
        "ae092dce195d0a94d1ad394d1455a44e7f4d5f39b9c63498f1ec1493d822aefb",
    ("wide_batch", "source_only", 1):
        "bf4b966038af0582f1ee04856e7f8b4bdb5fe3b5be12653e670635f1c252800f",
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

import csv
import ctypes
import math
import os
import re
import signal
import subprocess
import sys
import types
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kduda
from kduda import cli, harness, trainer
from kduda.cli import main
from kduda.data import gen_blob_shift
from kduda.errors import ConfigError, KdudaError, NumericalAbort, ParameterError
from kduda.harness import (
    SUMMARY_COLUMNS,
    DatasetConfig,
    ExperimentConfig,
    load_config,
    parse_config,
    report_complexity,
    run_experiment,
    run_single,
    student_hidden_for,
    summary_rows,
    sweep_sizes,
    teacher_hidden_for,
)
from kduda.losses import KernelConfig
from kduda.models import count_complexity
from kduda.trainer import TrainConfig


# every key parse_config reads, and keys it does not know
CONFIG_KEYS = (
    "data.generator", "data.n_per_domain", "data.classes", "data.dim",
    "data.mean_shift", "data.scale", "train.epochs", "train.batch_size",
    "train.beta_start", "train.beta_end", "train.tau", "train.alpha",
    "train.gamma", "train.lr_da", "train.lr_kd", "train.momentum",
    "train.lr_da_final_fraction", "train.eval_every", "train.beta_override",
    "train.kernel_bandwidths", "model.teacher_hidden", "model.student_hidden",
    "experiment.scenarios", "experiment.seeds", "experiment.output_dir")
OTHER_KEYS = ("train.lr", "model.depth", "seed")

# values in range, out of range, of the wrong type, and malformed lists,
# plus arbitrary text
CONFIG_VALUES = st.one_of(
    st.sampled_from([
        "0", "1", "2", "3", "-1", "0.5", "-0.5", "1.0001", "1e400", "nan",
        "-inf", "99999999999999999999", "true", "maybe", "blobs", "two_moons",
        "circles", "median", "fixed", "ramp", "constant", "linear", "joint",
        "warmup", "joint, joint", "joint, uda_only", "1, 1", "0, -1", "8; 4",
        "8,, 4", ",", ";", "1, x", "4;;2"]),
    st.text(min_size=1, max_size=10))
CONFIG_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(CONFIG_KEYS + OTHER_KEYS),
              CONFIG_VALUES),
    st.builds("{} {}".format, st.sampled_from(CONFIG_KEYS), CONFIG_VALUES))


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def config_text(value) -> str:
    """value as a config file writes it."""
    if isinstance(value, tuple):
        sep = "; " if isinstance(value[0], tuple) else ", "
        return sep.join(map(config_text, value))
    return str(value)


def tiny_cfg(output_dir, **overrides):
    base = dict(
        dataset=DatasetConfig(n_per_domain=60, classes=3, dim=2,
                              mean_shift=1.5, scale=1.0),
        teacher_hidden=(8,),
        student_hidden=((4,),),
        train=TrainConfig(epochs=3, batch_size=30, tau=4.0,
                          lr_da=0.05, lr_kd=0.05),
        scenarios=("joint", "uda_only"),
        seeds=(0, 1, 2),
        output_dir=str(output_dir),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


FULL_CONFIG = """
# dataset block
data.generator = blobs
data.n_per_domain = 80     # per domain
data.classes = 4
data.dim = 3
data.mean_shift = 2.0
data.scale = 1.25

train.epochs = 7
train.batch_size = 16
train.beta_start = 0.2
train.beta_end = 0.8
train.tau = 10.0
train.alpha = 0.5
train.gamma = 1.5
train.lr_da = 0.01
train.lr_kd = 0.02
train.momentum = 0.8
train.lr_da_final_fraction = 0.5
train.eval_every = 2
train.kernel_bandwidths = 0.5, 1.0, 2.0

model.teacher_hidden = 32, 16
model.student_hidden = 8, 4; 6

experiment.scenarios = joint, source_only
experiment.seeds = 3, 5
experiment.output_dir = out
"""


class TestConfigParsing:
    def test_full_round_trip_of_types(self):
        cfg = parse_config(FULL_CONFIG)
        assert cfg.dataset.generator == "blobs"
        assert cfg.dataset.n_per_domain == 80
        assert cfg.dataset.classes == 4
        assert cfg.dataset.dim == 3
        assert cfg.dataset.mean_shift == 2.0
        assert cfg.dataset.scale == 1.25
        t = cfg.train
        assert t.epochs == 7
        assert t.batch_size == 16
        assert (t.beta_start, t.beta_end) == (0.2, 0.8)
        assert t.tau == 10.0 and t.alpha == 0.5 and t.gamma == 1.5
        assert (t.lr_da, t.lr_kd, t.momentum) == (0.01, 0.02, 0.8)
        assert t.lr_da_final_fraction == 0.5
        assert t.eval_every == 2
        assert t.kernel.bandwidths == (0.5, 1.0, 2.0)
        assert cfg.teacher_hidden == (32, 16)
        assert cfg.student_hidden == ((8, 4), (6,))
        assert cfg.scenarios == ("joint", "source_only")
        assert cfg.seeds == (3, 5)
        assert cfg.output_dir == "out"

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == ExperimentConfig()

    def test_comments_and_blank_lines_are_ignored(self):
        cfg = parse_config("\n# full-line comment\n\ntrain.epochs = 9 # tail\n")
        assert cfg.train.epochs == 9

    def test_missing_equals_reports_the_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("\n\ntrain.epochs 9\n")

    def test_empty_value_reports_the_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("train.epochs =\n")

    def test_duplicate_key_reports_the_line(self):
        with pytest.raises(ConfigError, match="line 2.*duplicate"):
            parse_config("train.epochs = 3\ntrain.epochs = 4\n")

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys.*train.lr"):
            parse_config("train.lr = 0.1\n")

    @pytest.mark.parametrize("key", ["train.single_optimizer",
                                     "train.beta_per_batch"])
    def test_removed_training_keys_are_unknown(self, tmp_path, capsys, key):
        with pytest.raises(ConfigError, match=f"unknown config keys: {key}"):
            parse_config(f"{key} = false\n")
        path = tmp_path / "old.cfg"
        path.write_text(f"{key} = true\n")
        assert main(["complexity", "--config", str(path)]) == 1
        assert key in capsys.readouterr().err

    def test_type_errors_name_the_key(self):
        with pytest.raises(ConfigError, match="train.epochs.*integer"):
            parse_config("train.epochs = seven\n")
        with pytest.raises(ConfigError, match="train.kernel_bandwidths.*"
                                              "comma-separated finite numbers"):
            parse_config("train.kernel_bandwidths = wide\n")

    def test_unknown_scenario_lists_the_valid_ones(self):
        with pytest.raises(ConfigError, match="joint.*uda_then_kd.*kd_then_uda"):
            parse_config("experiment.scenarios = joint, warmup\n")

    def test_two_moons_shape_constraint(self):
        with pytest.raises(ConfigError, match="two_moons"):
            parse_config("data.generator = two_moons\ndata.classes = 3\n")

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ConfigError, match="experiment.seeds must be >= 0"):
            parse_config("experiment.seeds = 0, -1\n")

    def test_duplicate_seeds_are_rejected(self):
        with pytest.raises(ConfigError, match="experiment.seeds: duplicate.*0"):
            parse_config("experiment.seeds = 0, 1, 0\n")

    def test_duplicate_scenarios_are_rejected(self):
        with pytest.raises(ConfigError,
                           match="experiment.scenarios: duplicate.*joint"):
            parse_config("experiment.scenarios = joint, uda_only, joint\n")

    @pytest.mark.parametrize("lines,key", [
        ("data.n_per_domain = 0", "data.n_per_domain"),
        ("data.n_per_domain = 2\ndata.classes = 3", "data.n_per_domain"),
        ("data.classes = 1", "data.classes"),
        ("data.dim = 1", "data.dim"),
    ])
    def test_dataset_ranges_are_checked_at_load(self, lines, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(lines + "\n")

    @pytest.mark.parametrize("lines,key", [
        ("train.epochs = 0", "train.epochs"),
        ("train.lr_kd = -1", "train.lr_kd"),
        ("train.lr_da_decay = linear", "train.lr_da_decay"),
        ("train.beta_override = 2", "train.beta_override"),
        ("train.kernel_mode = adaptive", "train.kernel_mode"),
        ("train.kernel_bandwidths = 1, -2", "train.kernel_bandwidths"),
        ("train.kernel_multipliers = 1, -2", "train.kernel_multipliers"),
        ("data.generator = circles", "data.generator"),
        ("data.generator = two_moons\ndata.dim = 3", "data.generator"),
        ("experiment.scenarios = ,", "experiment.scenarios"),
        ("experiment.seeds = ,", "experiment.seeds"),
        ("model.student_hidden = ;", "model.student_hidden"),
        ("train.gamma_mode = linear", "train.gamma_mode"),
        ("train.tau = -1", "train.tau"),
        ("train.beta_start = 2", "train.beta_start"),
        # beta_end / beta_start overflows, so beta would be nan from epoch 0
        ("train.beta_start = 1e-320", "train.beta_start"),
        ("train.beta_end = 0", "train.beta_end"),
        ("train.gamma = -1", "train.gamma"),
        ("train.alpha = -1", "train.alpha"),
        ("model.teacher_hidden = 0", "model.teacher_hidden"),
        ("model.student_hidden = 0", "model.student_hidden"),
        ("model.student_hidden = 8, 4; 3, 0", "model.student_hidden"),
        ("data.classes = 4\ndata.dim = 2", "data.classes"),
        ("data.scale = 0", "data.scale"),
        ("data.n_per_domain = 40\ntrain.batch_size = 64", "train.batch_size"),
    ])
    def test_range_errors_name_the_key(self, lines, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(lines + "\n")

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(lines=st.lists(CONFIG_LINES, min_size=1, max_size=6))
    def test_every_rejection_is_a_config_error_naming_a_line_or_key(self,
                                                                     lines):
        try:
            parse_config("\n".join(lines))
        except ConfigError as exc:
            message = str(exc)
            assert re.search(r"\bline \d+", message) or any(
                re.search(re.escape(key) + r"\b", message)
                for key in CONFIG_KEYS + OTHER_KEYS), message

    def test_the_table_holds_every_key(self):
        keys = [key for table in harness._FIELDS.values()
                for key, _, _ in table.values()]
        assert sorted(keys) == sorted(CONFIG_KEYS)

    def test_each_key_set_to_its_default_parses_to_the_defaults(self):
        default = ExperimentConfig()
        sections = {DatasetConfig: default.dataset, TrainConfig: default.train,
                    KernelConfig: default.train.kernel, ExperimentConfig: default}
        unwritable = []
        for cls, table in harness._FIELDS.items():
            for name, (key, _, _) in table.items():
                value = getattr(sections[cls], name)
                if value in (None, ()):  # a config line cannot be empty
                    unwritable.append(key)
                    continue
                assert parse_config(f"{key} = {config_text(value)}\n") == default, key
        assert sorted(unwritable) == ["train.beta_override",
                                      "train.kernel_bandwidths"]

    def test_a_keyed_field_without_a_reader_fails(self):
        @dataclass
        class Odd:
            widths: "list[int]" = ()
        with pytest.raises(KeyError):
            harness._keyed(Odd, {"widths": "odd.widths"})

    def test_the_readme_config_block_is_the_defaults(self):
        with open(os.path.join(REPO, "README.md")) as fh:
            readme = fh.read()
        block, = re.findall(r"```ini\n(.*?)```", readme, re.S)
        assert parse_config(block) == ExperimentConfig()

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.cfg"))

    def test_load_config_prefixes_the_path(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("train.epochs = never\n")
        with pytest.raises(ConfigError, match="bad.cfg"):
            load_config(str(path))


# a tiny 3-epoch joint run whose accuracies move every epoch, and a value
# other than its own for every key a config may set but data.generator (one
# choice) and experiment.* (which cells run and where their files go)
GUARD_BASE = {
    "data.n_per_domain": "60", "data.mean_shift": "1.5", "train.epochs": "3",
    "train.batch_size": "10", "train.tau": "4.0", "train.lr_da": "0.1",
    "train.lr_kd": "0.1", "model.teacher_hidden": "8",
    "model.student_hidden": "4"}
GUARD_VALUES = {
    "data.n_per_domain": "61", "data.classes": "2", "data.dim": "3",
    "data.mean_shift": "2.5", "data.scale": "1.5", "train.epochs": "2",
    "train.batch_size": "20", "train.beta_start": "0.2", "train.beta_end": "0.8",
    "train.tau": "2.0", "train.alpha": "0.5", "train.gamma": "0.5",
    "train.lr_da": "0.02", "train.lr_kd": "0.02", "train.momentum": "0.5",
    "train.lr_da_final_fraction": "0.5", "train.eval_every": "2",
    "train.beta_override": "0.5", "train.kernel_bandwidths": "0.7, 1.3",
    "model.teacher_hidden": "6", "model.student_hidden": "3"}


class TestMakePair:
    @pytest.mark.parametrize("dataset", [
        DatasetConfig(),
        DatasetConfig(n_per_domain=50, classes=4, dim=5, mean_shift=0.5, scale=3.0),
        DatasetConfig(n_per_domain=7, classes=2, dim=2, mean_shift=6.0, scale=0.2)])
    def test_a_pair_is_its_generator_standardized_on_the_source(self, dataset):
        pair = dataset.make_pair(3)
        raw = gen_blob_shift(dataset.n_per_domain, dataset.classes, dataset.dim,
                             dataset.mean_shift, dataset.scale, 3)
        mu, sd = raw.xs.mean(axis=0), raw.xs.std(axis=0)
        np.testing.assert_allclose(pair.xs.mean(axis=0), 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pair.xs.std(axis=0), 1.0, rtol=1e-12, atol=0)
        np.testing.assert_allclose(pair.xt, (raw.xt - mu) / sd, rtol=1e-12,
                                   atol=1e-12)
        assert pair.ys.tobytes() == raw.ys.tobytes()
        assert pair.yt_eval.tobytes() == raw.yt_eval.tobytes()


class TestNoKeyIsIgnored:
    @staticmethod
    def epoch_rows(settings: dict) -> list[list[str]]:
        """The joint epoch CSV rows of seed 0, seconds excepted."""
        cfg = parse_config("".join(f"{k} = {v}\n" for k, v in settings.items()))
        (log, _), = run_single(cfg, "joint", (0,))
        return [rec.row()[:-1] for rec in log.records]

    def test_every_key_moves_the_epoch_csv(self):
        keys = [key for table in harness._FIELDS.values()
                for key, _, _ in table.values()
                if key != "data.generator" and not key.startswith("experiment.")]
        assert sorted(GUARD_VALUES) == sorted(keys)
        default = self.epoch_rows(GUARD_BASE)
        ignored = [key for key, value in GUARD_VALUES.items()
                   if self.epoch_rows({**GUARD_BASE, key: value}) == default]
        assert ignored == []


class TestConfigHash:
    def test_stable_and_hexlike(self):
        cfg = ExperimentConfig()
        tag = cfg.config_hash()
        assert tag == ExperimentConfig().config_hash()
        assert len(tag) == 10
        assert all(c in "0123456789abcdef" for c in tag)

    def test_output_dir_does_not_move_the_hash(self):
        a = ExperimentConfig(output_dir="a")
        b = ExperimentConfig(output_dir="elsewhere/b")
        assert a.config_hash() == b.config_hash()

    def test_any_field_change_moves_the_hash(self):
        a = ExperimentConfig()
        b = ExperimentConfig(seeds=(0,))
        assert a.config_hash() != b.config_hash()


    # output file names come from these hashes
    @pytest.mark.parametrize("name,tag", [("joint_headline", "d9323ee375"),
                                          ("scenario_grid", "ec96b4fb90"),
                                          ("wide_batch", "b24e401eb4")])
    def test_benchmark_workloads_keep_their_hash(self, name, tag):
        path = os.path.join(REPO, "perfbench", "workloads", f"{name}.cfg")
        assert load_config(path).config_hash() == tag


class TestRunSingle:
    def test_source_only_fills_both_model_columns(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        (log, result), = run_single(cfg, "source_only", (0,))
        assert not math.isnan(result.student_src_acc)
        assert not math.isnan(result.teacher_src_acc)
        assert len(log.records) == cfg.train.epochs

    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown scenario"):
            run_single(tiny_cfg(tmp_path), "warmup", (0,))

    def test_no_seeds(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one seed"):
            run_single(tiny_cfg(tmp_path), "joint", ())

    @pytest.mark.parametrize("scenario", harness.VALID_SCENARIOS)
    def test_procedure_is_looked_up_when_the_cell_runs(self, tmp_path,
                                                       monkeypatch, scenario):
        # a wrapper installed on kduda.trainer after import must be called
        name = f"train_{scenario}"
        real = getattr(trainer, name)
        calls = []

        def wrapper(*args):
            calls.append(len(args))
            return real(*args)

        monkeypatch.setattr(trainer, name, wrapper)
        run_single(tiny_cfg(tmp_path), scenario, (0, 1))
        assert calls == [3 if scenario == "uda_only" else 4]


class TestRunExperiment:
    def test_file_and_result_bookkeeping(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "runs")
        results = run_experiment(cfg)
        assert len(results) == 6
        assert [(r.scenario, r.seed) for r in results] == [
            ("joint", 0), ("joint", 1), ("joint", 2),
            ("uda_only", 0), ("uda_only", 1), ("uda_only", 2)]
        tag = cfg.config_hash()
        names = sorted(os.listdir(tmp_path / "runs"))
        expected = sorted(
            [f"{tag}_{s}_seed{k}.csv" for s in ("joint", "uda_only")
             for k in (0, 1, 2)] + [f"{tag}_summary.csv"])
        assert names == expected

    def test_rerun_reproduces_the_summary_bytes(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "runs")
        summary = tmp_path / "runs" / f"{cfg.config_hash()}_summary.csv"
        run_experiment(cfg)
        first = summary.read_bytes()
        run_experiment(cfg)
        assert summary.read_bytes() == first

    def test_summary_agrees_with_the_logs(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "runs")
        run_experiment(cfg)
        tag = cfg.config_hash()
        with open(tmp_path / "runs" / f"{tag}_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["scenario"] for r in rows] == ["joint", "uda_only"]
        for row in rows:
            finals = []
            for seed in cfg.seeds:
                with open(tmp_path / "runs"
                          / f"{tag}_{row['scenario']}_seed{seed}.csv") as fh:
                    finals.append(list(csv.DictReader(fh))[-1])
            tgt = np.array([float(r["student_tgt_acc"]) for r in finals])
            assert int(row["n_seeds"]) == 3
            np.testing.assert_allclose(float(row["student_tgt_acc_mean"]),
                                       tgt.mean(), rtol=0, atol=1e-9)
            np.testing.assert_allclose(float(row["student_tgt_acc_std"]),
                                       tgt.std(), rtol=0, atol=1e-9)
            t_tgt = np.array([float(r["teacher_tgt_acc"]) for r in finals])
            np.testing.assert_allclose(float(row["teacher_tgt_acc_mean"]),
                                       t_tgt.mean(), rtol=0, atol=1e-9,
                                       equal_nan=True)

    def test_summary_has_no_timing_column(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "runs")
        run_experiment(cfg)
        with open(tmp_path / "runs" / f"{cfg.config_hash()}_summary.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == list(SUMMARY_COLUMNS)
        assert all("seconds" not in col for col in header)


class TestOneStudent:
    def two_students(self, tmp_path):
        return tiny_cfg(tmp_path / "runs", student_hidden=((4,), (6,)))

    def test_training_entry_points_reject_two_students(self, tmp_path):
        cfg = self.two_students(tmp_path)
        for call in (lambda: run_single(cfg, "joint", (0,)),
                     lambda: run_experiment(cfg),
                     lambda: sweep_sizes(cfg, [8], [4])):
            with pytest.raises(ConfigError, match="lists 2 students"):
                call()
        assert not os.path.exists(tmp_path / "runs")

    def test_complexity_still_reports_both(self, tmp_path):
        rows = report_complexity(self.two_students(tmp_path))
        assert [r["model"] for r in rows] == ["teacher", "student_0", "student_1"]

    def test_cli_exit_code(self, tmp_path, capsys):
        path = tmp_path / "two.cfg"
        path.write_text(
            CLI_CONFIG.replace("model.student_hidden = 4\n",
                               "model.student_hidden = 4; 6\n")
            + f"experiment.output_dir = {tmp_path / 'runs'}\n")
        assert main(["scenarios", "--config", str(path)]) == 1
        assert "students" in capsys.readouterr().err
        assert main(["complexity", "--config", str(path)]) == 0


class TestComplexityReport:
    def test_rows_and_ratios(self, tmp_path):
        cfg = tiny_cfg(tmp_path, teacher_hidden=(128, 128, 64),
                       student_hidden=((32, 16), (64, 32)))
        rows = report_complexity(cfg)
        assert [r["model"] for r in rows] == ["teacher", "student_0", "student_1"]
        t = rows[0]
        assert (t["params"], t["macs"]) == count_complexity(cfg.teacher_spec(0))
        assert t["mac_ratio"] == 1.0
        for r in rows[1:]:
            assert r["mac_ratio"] == r["macs"] / t["macs"]
            assert r["mac_ratio"] < 0.5


class TestSweep:
    def test_width_mappings(self):
        assert teacher_hidden_for(128) == (128, 128, 64)
        assert student_hidden_for(32) == (32, 16)
        assert teacher_hidden_for(5) == (5, 5, 2)
        with pytest.raises(ConfigError):
            teacher_hidden_for(1)
        with pytest.raises(ConfigError):
            student_hidden_for(0)

    def test_single_cell_matches_a_direct_run(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "runs", teacher_hidden=(8, 8, 4),
                       student_hidden=((4, 2),), scenarios=("joint",),
                       seeds=(0, 1))
        results = run_experiment(cfg)
        direct = np.array([r.student_tgt_acc for r in results])
        rows = sweep_sizes(cfg, [8], [4])
        assert len(rows) == 1
        assert rows[0][:2] == ["8", "4"]
        np.testing.assert_allclose(float(rows[0][2]), direct.mean(),
                                   rtol=0, atol=0)
        np.testing.assert_allclose(float(rows[0][3]), direct.std(),
                                   rtol=0, atol=0)

    def test_grid_shape_and_output_file(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "runs", seeds=(0,))
        rows = sweep_sizes(cfg, [4, 8], [2, 4])
        assert [(r[0], r[1]) for r in rows] == [
            ("4", "2"), ("4", "4"), ("8", "2"), ("8", "4")]
        path = tmp_path / "runs" / f"{cfg.config_hash()}_sweep.csv"
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "teacher_width,student_width," \
            "student_tgt_acc_mean,student_tgt_acc_std"
        assert len(lines) == 5

    def test_empty_width_lists(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one"):
            sweep_sizes(tiny_cfg(tmp_path), [], [4])

    def test_duplicate_widths_are_rejected(self, tmp_path, cli_config, capsys):
        cfg = tiny_cfg(tmp_path / "runs")
        with pytest.raises(ConfigError, match="teacher widths: duplicate.*32"):
            sweep_sizes(cfg, [32, 8, 32], [4])
        with pytest.raises(ConfigError, match="student widths: duplicate.*4"):
            sweep_sizes(cfg, [8], [4, 4])
        assert not os.path.exists(tmp_path / "runs")
        assert main(["sweep", "--config", cli_config, "--teachers", "32,32",
                     "--students", "4"]) == 1
        assert "duplicate" in capsys.readouterr().err


CLI_CONFIG = """
data.n_per_domain = 60
data.mean_shift = 1.5
train.epochs = 3
train.batch_size = 30
train.tau = 4.0
train.lr_da = 0.05
train.lr_kd = 0.05
model.teacher_hidden = 8
model.student_hidden = 4
experiment.scenarios = joint, uda_only
experiment.seeds = 0, 1
"""


# numpy's words for an allocation it cannot make, here of a 3M x 3M layer
TOO_LARGE = ("Unable to allocate 65.5 TiB for an array with shape "
             "(3000000, 3000000) and data type float64")


@pytest.fixture
def no_training(monkeypatch):
    """Fail the test if any command starts to train a cell."""
    def refuse(*args):
        raise AssertionError("training started")
    monkeypatch.setattr(harness, "run_single", refuse)
    monkeypatch.setattr(cli, "run_single", refuse)


@pytest.fixture
def cli_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CLI_CONFIG
                    + f"experiment.output_dir = {tmp_path / 'runs'}\n")
    return str(path)


class TestCli:
    def test_train_writes_the_requested_log(self, tmp_path, cli_config, capsys):
        out = str(tmp_path / "one.csv")
        assert main(["train", "--config", cli_config, "--scenario", "uda_only",
                     "--out", out]) == 0
        assert os.path.exists(out)
        assert "student_tgt_acc=" in capsys.readouterr().out

    def test_scenarios_prints_and_writes_the_summary(self, tmp_path, cli_config,
                                                     capsys):
        assert main(["scenarios", "--config", cli_config]) == 0
        captured = capsys.readouterr().out
        assert ",".join(SUMMARY_COLUMNS) in captured
        summaries = [f for f in os.listdir(tmp_path / "runs")
                     if f.endswith("_summary.csv")]
        assert len(summaries) == 1

    def test_complexity_table(self, cli_config, capsys):
        assert main(["complexity", "--config", cli_config]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("model,hidden,params,macs,mac_ratio")
        assert "teacher,8," in captured

    def test_sweep_runs_a_grid(self, cli_config, capsys):
        assert main(["sweep", "--config", cli_config, "--teachers", "8",
                     "--students", "4"]) == 0
        assert "8,4," in capsys.readouterr().out

    def test_missing_config_is_a_usage_error(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.cfg")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        # argparse's own usage errors exit 1 too, not its 2, which is the
        # numerical-abort code: no --config, and no command at all
        assert main(["train"]) == 1
        assert "required: --config" in capsys.readouterr().err
        assert main([]) == 1
        assert "required: command" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["train", "--help"]) == 0
        assert "--config" in capsys.readouterr().out

    @pytest.mark.parametrize("command,content", [
        ("train", b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256))),
        ("complexity", b"data.classes = 3\xff\n"),
    ])
    def test_a_config_that_is_not_utf8_is_a_usage_error(self, tmp_path, capsys,
                                                         command, content):
        path = tmp_path / "bin.cfg"
        path.write_bytes(content)
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {path}: ")
        assert len(err.splitlines()) == 1

    def test_a_model_too_large_to_allocate_is_an_error(self, tmp_path,
                                                       cli_config, monkeypatch,
                                                       capsys):
        def too_large(spec):
            raise MemoryError(TOO_LARGE)

        monkeypatch.setattr(harness, "build", too_large)
        assert main(["train", "--config", cli_config]) == 1
        assert capsys.readouterr().err == f"error: {TOO_LARGE}\n"

    def test_unknown_scenario_is_a_usage_error(self, tmp_path, cli_config,
                                               capsys, no_training):
        assert main(["train", "--config", cli_config,
                     "--scenario", "warmup"]) == 1
        assert "unknown scenario 'warmup'" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, cli_config,
                                                 capsys, no_training):
        assert main(["train", "--config", cli_config, "--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert main(["train", "--config", cli_config, "--seed", "abc"]) == 1
        assert "invalid int value: 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("line,key", [("train.tau = -1", "train.tau"),
                                          ("train.beta_start = 2",
                                           "train.beta_start"),
                                          ("train.beta_start = 1e-320",
                                           "train.beta_start"),
                                          ("model.teacher_hidden = 0",
                                           "model.teacher_hidden")])
    def test_out_of_range_key_fails_before_any_output(self, tmp_path, capsys,
                                                      line, key, no_training):
        kept = [ln for ln in CLI_CONFIG.splitlines()
                if not ln.startswith(f"{key} ")]
        path = tmp_path / "exp.cfg"
        path.write_text("\n".join(kept + [
            line, f"experiment.output_dir = {tmp_path / 'runs'}", ""]))
        assert main(["train", "--config", str(path)]) == 1
        assert f"{key}: " in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("lines,key", [
        ("data.classes = 4\ndata.dim = 2", "data.classes"),
        ("data.scale = 0", "data.scale"),
        ("data.n_per_domain = 40\ntrain.batch_size = 64", "train.batch_size"),
    ])
    def test_bad_dataset_values_fail_before_any_output(self, tmp_path, capsys,
                                                       lines, key, no_training):
        path = tmp_path / "exp.cfg"
        path.write_text(f"{lines}\nexperiment.output_dir = {tmp_path / 'runs'}\n")
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("line,key", [
        ("train.kernel_mode = fixed", "train.kernel_mode"),
        ("train.lr_da_decay = constant", "train.lr_da_decay"),
        ("data.rotation_deg = 30", "data.rotation_deg"),
        ("data.noise_std = 0.2", "data.noise_std"),
        ("data.generator = two_moons", "data.generator"),
        ("train.gamma_mode = ramp", "train.gamma_mode"),
        ("train.scale_kd_by_tau_sq = false", "train.scale_kd_by_tau_sq"),
        ("data.standardize = false", "data.standardize"),
        ("train.kernel_multipliers = 0.5, 2.0", "train.kernel_multipliers"),
    ])
    def test_removed_keys_and_generator_fail_before_any_output(
            self, tmp_path, capsys, line, key, no_training):
        # the given bandwidths choose the kernel bank, lr_da_final_fraction
        # = 1 keeps lr_da, and blobs is the one generator; gamma is
        # constant, distillation is scaled by tau^2, pairs are standardized
        # and the median bank takes MEDIAN_MULTIPLIERS
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(line + "\n")
        path = tmp_path / "old.cfg"
        path.write_text(f"{line}\nexperiment.output_dir = {tmp_path / 'runs'}\n")
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["train", "scenarios"])
    @pytest.mark.parametrize("scenario,epochs,phase", [
        ("kd_then_uda", 2, "teacher_supervised"), ("uda_then_kd", 1, "teacher_uda")])
    def test_a_phase_without_epochs_fails_before_any_cell_trains(
            self, tmp_path, capsys, no_training, command, scenario, epochs, phase):
        # joint runs first in the grid, and a single epoch is enough for it
        path = tmp_path / "short.cfg"
        path.write_text(f"train.epochs = {epochs}\n"
                        f"experiment.scenarios = joint, {scenario}\n"
                        f"experiment.output_dir = {tmp_path / 'runs'}\n")
        message = (f"train.epochs = {epochs} leaves the {phase} phase of "
                   f"{scenario} without epochs")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_experiment(load_config(str(path)))
        assert main([command, "--config", str(path), "--scenario", scenario]
                    if command == "train" else [command, "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "runs").exists()

    def test_empty_dataset_fails_before_any_command(self, tmp_path, capsys):
        path = tmp_path / "empty.cfg"
        path.write_text("data.n_per_domain = 0\n")
        assert main(["complexity", "--config", str(path)]) == 1
        assert "data.n_per_domain" in capsys.readouterr().err

    def test_bad_width_list_is_a_usage_error(self, cli_config, capsys):
        assert main(["sweep", "--config", cli_config, "--teachers", "a,b",
                     "--students", "4"]) == 1

    def test_out_into_a_missing_directory_is_a_usage_error(self, tmp_path,
                                                           cli_config, capsys,
                                                           no_training):
        out = tmp_path / "absent" / "one.csv"
        assert main(["train", "--config", cli_config, "--scenario", "uda_only",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert not (tmp_path / "absent").exists()

    def test_out_naming_a_directory_is_a_usage_error(self, tmp_path, cli_config,
                                                     capsys, no_training):
        assert main(["train", "--config", cli_config, "--out",
                     str(tmp_path)]) == 1
        assert str(tmp_path) in capsys.readouterr().err

    @pytest.mark.parametrize("link", [False, True])
    def test_out_naming_no_file_is_a_usage_error(self, tmp_path, cli_config,
                                                 capsys, no_training, link):
        # an empty path, or a symlink into a missing directory
        out = ""
        if link:
            out = str(tmp_path / "dangling.csv")
            os.symlink(tmp_path / "absent" / "one.csv", out)
        assert main(["train", "--config", cli_config, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "absent").exists()

    def test_a_failed_run_leaves_no_log_behind(self, tmp_path, cli_config,
                                               capsys, monkeypatch):
        def abort(*args):
            raise NumericalAbort("L_mmd is not finite at epoch 0")

        monkeypatch.setattr(cli, "run_single", abort)
        out = tmp_path / "one.csv"
        assert main(["train", "--config", cli_config, "--out", str(out)]) == 2
        assert not out.exists()
        out.write_text("kept\n")
        assert main(["train", "--config", cli_config, "--out", str(out)]) == 2
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["train", "scenarios"])
    def test_output_dir_naming_a_file_is_a_usage_error(self, tmp_path, capsys,
                                                       command, no_training):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        path = tmp_path / "exp.cfg"
        path.write_text(CLI_CONFIG + f"experiment.output_dir = {taken}\n")
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(taken) in err
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("key,value", [
        ("train.tau", "nan"), ("train.gamma", "nan"), ("train.lr_da", "nan"),
        ("train.alpha", "inf"), ("data.scale", "nan"),
        ("data.mean_shift", "inf"), ("train.kernel_bandwidths", "1.0, nan"),
    ])
    def test_non_finite_numbers_are_config_errors(self, tmp_path, capsys,
                                                  no_training, key, value):
        path = tmp_path / "exp.cfg"
        path.write_text(f"{key} = {value}\n"
                        f"experiment.output_dir = {tmp_path / 'runs'}\n")
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key}: expected" in err
        assert not (tmp_path / "runs").exists()

    def test_numerical_abort_exit_code(self, tmp_path, capsys):
        path = tmp_path / "explode.cfg"
        path.write_text(
            "data.n_per_domain = 60\ntrain.epochs = 3\n"
            "train.batch_size = 30\ntrain.lr_da = 1e154\n"
            "train.lr_kd = 1e154\nmodel.teacher_hidden = 8\n"
            "model.student_hidden = 4\nexperiment.seeds = 0\n"
            f"experiment.output_dir = {tmp_path / 'runs'}\n")
        with np.errstate(all="ignore"):
            code = main(["train", "--config", str(path), "--scenario", "joint"])
        assert code == 2
        assert "numerical abort" in capsys.readouterr().err

    @pytest.mark.parametrize("lr,code", [("10", 2), ("1", 2), ("0.3", 2),
                                         ("0.1", 0)])
    def test_weights_grown_past_ten_times_abort(self, tmp_path, capsys, lr, code):
        # at lr 0.3 and above the default models end at chance accuracy with
        # every loss finite; at 0.1 they learn
        path = tmp_path / "hot.cfg"
        path.write_text(f"data.n_per_domain = 200\ntrain.epochs = 5\n"
                        f"train.lr_da = {lr}\ntrain.lr_kd = {lr}\n"
                        f"experiment.output_dir = {tmp_path / 'runs'}\n")
        assert main(["train", "--config", str(path)]) == code
        err = capsys.readouterr().err
        if code:
            assert re.fullmatch(r"numerical abort: joint seed 0: (teacher|student) "
                                r"layer \d weight norm grew \S+x at epoch \d\n", err)
        else:
            assert err == ""

    @pytest.mark.parametrize("command", ["train", "scenarios"])
    def test_a_numerical_abort_names_its_cell(self, tmp_path, capsys, workers,
                                              command):
        workers(2)
        path = tmp_path / "explode.cfg"
        path.write_text("data.n_per_domain = 60\ntrain.epochs = 3\n"
                        "train.batch_size = 30\ntrain.lr_da = 1e308\n"
                        "experiment.scenarios = joint, uda_only\n"
                        "experiment.seeds = 0, 1\n"
                        f"experiment.output_dir = {tmp_path / 'runs'}\n")
        with np.errstate(all="ignore"):
            assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "numerical abort: joint seed 0: L_tkd is not finite at epoch 0\n")

    @pytest.mark.parametrize("processes", [1, 2])
    def test_a_diverging_grid_prints_its_abort_alone(self, tmp_path, capsys,
                                                     workers, processes):
        # no errstate of the test's own: a numpy warning that reached the
        # suite's warnings-as-errors filter would end main in a traceback
        workers(processes)
        path = tmp_path / "explode.cfg"
        path.write_text("data.n_per_domain = 60\ntrain.epochs = 3\n"
                        "train.batch_size = 30\ntrain.lr_da = 1e308\n"
                        "experiment.scenarios = joint, uda_only\n"
                        "experiment.seeds = 0, 1\n"
                        f"experiment.output_dir = {tmp_path / 'runs'}\n")
        before = np.geterr()
        assert main(["scenarios", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "numerical abort: joint seed 0: L_tkd is not finite at epoch 0\n")
        assert np.geterr() == before

    @pytest.mark.parametrize("kernel", ["train.kernel_bandwidths = 1e-300"])
    def test_a_vanishing_bandwidth_prints_its_abort_alone(self, tmp_path, capsys,
                                                          kernel):
        # the bandwidth's square underflows to zero, so the kernel divides
        # by it; no errstate of the test's own, as above. The MMD slopes are
        # -inf * 0, so its value is nan too, and the abort names it before
        # the teacher steps on nan gradients.
        path = tmp_path / "tiny.cfg"
        path.write_text(f"{kernel}\ndata.n_per_domain = 40\ntrain.epochs = 2\n"
                        f"experiment.output_dir = {tmp_path / 'runs'}\n")
        before = np.geterr()
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "numerical abort: joint seed 0: L_mmd is not finite at epoch 0\n")
        assert np.geterr() == before


# -- parallel cells ------------------------------------------------------------


@pytest.fixture
def workers(monkeypatch):
    """workers(n) makes the cell runner see n usable CPUs and one BLAS
    thread per process, so grids run on n processes."""
    def use(n):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(harness, "_usable_cpus", lambda: n)
    return use


def grid_outputs(out_dir):
    """Lines of every output file; epoch logs without their seconds column."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name)) as fh:
            lines = fh.read().split("\n")
        if lines[0].endswith(",seconds"):
            lines = [ln.rsplit(",", 1)[0] for ln in lines]
        files[name] = lines
    return files


SCENARIO_GRID = os.path.join(os.path.dirname(__file__), os.pardir,
                             "perfbench", "workloads", "scenario_grid.cfg")


class TestWorkerCount:
    @pytest.mark.parametrize("env,cpus,cells,expected", [
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 10, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 3, 3),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 8, 10, 4),
        ({"OPENBLAS_NUM_THREADS": "3"}, 8, 10, 2),
        ({"OPENBLAS_NUM_THREADS": "16"}, 8, 10, 1),
        ({"OMP_NUM_THREADS": "1"}, 4, 10, 4),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4, 10, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 4, 10, 2),
        ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "1"}, 4, 10, 4),
        ({}, 8, 10, 1),  # OpenBLAS's default pool spans every CPU
        ({}, 1, 10, 1),
    ])
    def test_usable_cpus_over_blas_threads(self, monkeypatch, env, cpus,
                                           cells, expected):
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        assert harness._worker_count(cells) == expected

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="no CPU affinity call on this platform")
    def test_usable_cpus_follow_the_affinity_mask(self):
        assert harness._usable_cpus() == len(os.sched_getaffinity(0))


class UnpicklableError(KdudaError):
    """A library error that cannot be pickled: it holds a lambda."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestParallelCells:
    @pytest.mark.parametrize("source", ["criterion_9", "scenario_grid"])
    def test_outputs_match_a_serial_run(self, tmp_path, workers, source):
        if source == "criterion_9":
            cfg = tiny_cfg(tmp_path, seeds=(0, 1))
        else:
            with open(SCENARIO_GRID) as fh:
                cfg = parse_config(fh.read() + "experiment.seeds = 0, 1\n")
        outputs = {}
        for n in (1, 2):
            workers(n)
            out = tmp_path / f"workers{n}"
            results = run_experiment(replace(cfg, output_dir=str(out)))
            outputs[n] = (grid_outputs(out),
                          [(r.scenario, r.seed, r.student_tgt_acc)
                           for r in results])
        assert len(outputs[1][0]) == len(cfg.scenarios) * 2 + 1
        assert outputs[1] == outputs[2]

    def test_sweep_rows_match_a_serial_run(self, tmp_path, workers):
        cfg = tiny_cfg(tmp_path)
        rows = {}
        for n in (1, 2):
            workers(n)
            out = tmp_path / f"workers{n}"
            rows[n] = (sweep_sizes(replace(cfg, output_dir=str(out)),
                                   [4, 8], [2, 4]),
                       grid_outputs(out))
        assert rows[1] == rows[2]

    # the grid is two stacks, joint and uda_only, at seeds 0-2; the joint
    # stack has the longer estimate, so it goes to the caller
    @pytest.mark.parametrize("n,forks,caller_cells", [
        (1, True, [("joint", (0, 1, 2)), ("uda_only", (0, 1, 2))]),
        (2, True, [("joint", (0, 1, 2))]),
        (3, True, [("joint", (0, 1, 2))]),  # no more processes than stacks
        (2, False, [("joint", (0, 1, 2)), ("uda_only", (0, 1, 2))]),
    ])
    def test_the_caller_runs_share_zero(self, tmp_path, monkeypatch, workers,
                                        n, forks, caller_cells):
        # stacks a forked worker runs are recorded in the worker's copy of
        # the list, so the caller's list holds only the stacks it ran
        workers(n)
        if not forks:
            monkeypatch.delattr(harness.os, "fork")
        ran_here = []
        real = harness.run_single

        def recording(cfg, scenario, seeds):
            ran_here.append((scenario, tuple(seeds)))
            return real(cfg, scenario, seeds)

        monkeypatch.setattr(harness, "run_single", recording)
        results = run_experiment(tiny_cfg(tmp_path / "runs"))
        assert ran_here == caller_cells
        assert len(results) == 6

    @pytest.mark.parametrize("failures,expected,written", [
        # uda_only seed 0 (cell 3) fails in the worker's stack, whose rerun
        # stops there, before uda_only seed 1 (cell 4) is reached
        ({("uda_only", 0): ParameterError("cell 3 failed"),
          ("uda_only", 1): NumericalAbort("cell 4 failed")},
         (ParameterError, "cell 3 failed"),
         [("joint", 0), ("joint", 1), ("joint", 2)]),
        # the caller's joint seed 2 (cell 2) fails before the worker's cell 3
        ({("joint", 2): NumericalAbort("cell 2 failed"),
          ("uda_only", 0): ParameterError("cell 3 failed")},
         (NumericalAbort, "cell 2 failed"),
         [("joint", 0), ("joint", 1)]),
    ])
    def test_first_failing_cell_wins(self, tmp_path, monkeypatch, workers,
                                     failures, expected, written):
        real = harness.run_single

        def failing(cfg, scenario, seeds):
            # a stack fails with the error of its first failing cell
            for seed in seeds:
                if (scenario, seed) in failures:
                    raise failures[(scenario, seed)]
            return real(cfg, scenario, seeds)

        monkeypatch.setattr(harness, "run_single", failing)
        cfg = tiny_cfg(tmp_path)
        tag = cfg.config_hash()
        for n in (1, 2):
            workers(n)
            out = tmp_path / f"workers{n}"
            with pytest.raises(KdudaError) as info:
                run_experiment(replace(cfg, output_dir=str(out)))
            assert (type(info.value), str(info.value)) == expected
            assert sorted(os.listdir(out)) == sorted(
                f"{tag}_{s}_seed{k}.csv" for s, k in written)

    def test_numerical_abort_keeps_exit_code_2(self, tmp_path, workers,
                                                capsys):
        workers(2)
        path = tmp_path / "explode.cfg"
        path.write_text(
            "data.n_per_domain = 60\ntrain.epochs = 3\n"
            "train.batch_size = 30\ntrain.lr_da = 1e154\n"
            "train.lr_kd = 1e154\nmodel.teacher_hidden = 8\n"
            "model.student_hidden = 4\nexperiment.seeds = 0, 1\n"
            "experiment.scenarios = joint\n"
            f"experiment.output_dir = {tmp_path / 'runs'}\n")
        with np.errstate(all="ignore"):
            assert main(["scenarios", "--config", str(path)]) == 2
        assert "numerical abort" in capsys.readouterr().err
        assert os.listdir(tmp_path / "runs") == []

    def test_a_dead_worker_is_a_kduda_error(self, tmp_path, monkeypatch,
                                            workers, capsys):
        workers(2)
        caller = os.getpid()
        real = harness.run_single

        def dying(cfg, scenario, seeds):
            if scenario == "uda_only" and 0 in seeds and os.getpid() != caller:
                os._exit(3)
            return real(cfg, scenario, seeds)

        monkeypatch.setattr(harness, "run_single", dying)
        cfg = tiny_cfg(tmp_path / "runs")
        with pytest.raises(KdudaError, match="worker process died running "
                           "cells uda_only seed 0, uda_only seed 1, "
                           "uda_only seed 2"):
            run_experiment(cfg)
        # the dead worker's share starts at cell 3, so cells 0-2 are written
        tag = cfg.config_hash()
        assert sorted(os.listdir(tmp_path / "runs")) == [
            f"{tag}_joint_seed{k}.csv" for k in range(3)]

        path = tmp_path / "exp.cfg"
        path.write_text(
            CLI_CONFIG.replace("experiment.seeds = 0, 1\n",
                               "experiment.seeds = 0, 1, 2\n")
            + f"experiment.output_dir = {tmp_path / 'cli'}\n")
        assert main(["scenarios", "--config", str(path)]) == 1
        assert "worker process died" in capsys.readouterr().err

    def test_a_worker_out_of_memory_is_an_error(self, tmp_path, monkeypatch,
                                                workers, cli_config, capsys):
        workers(2)
        caller = os.getpid()
        real = harness.build

        def build(spec):
            if os.getpid() != caller:
                raise MemoryError(TOO_LARGE)
            return real(spec)

        monkeypatch.setattr(harness, "build", build)
        assert main(["scenarios", "--config", cli_config]) == 1
        assert capsys.readouterr().err == f"error: {TOO_LARGE}\n"
        # the caller's joint stack is written; the worker's uda_only is not
        tag = load_config(cli_config).config_hash()
        assert sorted(os.listdir(tmp_path / "runs")) == [
            f"{tag}_joint_seed{k}.csv" for k in (0, 1)]

    @pytest.mark.parametrize("escape", [
        SystemExit(5),  # not an Exception, so _run_share lets it through
        UnpicklableError("no pickle holds a lambda"),
    ], ids=["system_exit", "unpicklable"])
    def test_a_worker_that_cannot_report_is_a_kduda_error(
            self, tmp_path, monkeypatch, workers, cli_config, capsys, escape):
        workers(2)
        caller = os.getpid()
        real = harness.run_single

        def escaping(cfg, scenario, seeds):
            if os.getpid() != caller:
                raise escape
            return real(cfg, scenario, seeds)

        monkeypatch.setattr(harness, "run_single", escaping)
        cfg = tiny_cfg(tmp_path / "lib")
        with pytest.raises(KdudaError) as info:
            run_experiment(cfg)
        assert type(info.value) is KdudaError
        assert str(info.value) == ("a worker process died running cells "
                                   "uda_only seed 0, uda_only seed 1, "
                                   "uda_only seed 2")
        tag = cfg.config_hash()
        assert sorted(os.listdir(tmp_path / "lib")) == [
            f"{tag}_joint_seed{k}.csv" for k in range(3)]

        assert main(["scenarios", "--config", cli_config]) == 1
        assert capsys.readouterr().err == (
            "error: a worker process died running cells uda_only seed 0, "
            "uda_only seed 1\n")
        tag = load_config(cli_config).config_hash()
        assert sorted(os.listdir(tmp_path / "runs")) == [
            f"{tag}_joint_seed{k}.csv" for k in (0, 1)]

    def test_a_caller_that_raises_still_reaps_every_worker(
            self, tmp_path, monkeypatch, workers):
        # each worker's outcome is larger than a pipe holds, so its write
        # blocks until the caller reads or closes the pipe; the caller's own
        # share escapes with an error _run_share does not catch
        class Interrupt(BaseException):
            pass

        workers(3)
        caller = os.getpid()

        def run_single(cfg, scenario, seeds):
            if os.getpid() == caller:
                raise Interrupt
            return [(bytes(1 << 20), None)]

        monkeypatch.setattr(harness, "run_single", run_single)
        cfg = tiny_cfg(tmp_path / "runs",
                       scenarios=("joint", "uda_only", "source_only"))
        assert harness._worker_count(len(cfg.scenarios)) == 3

        def hung(signum, frame):
            raise AssertionError("the caller hung waiting for its workers")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(Interrupt):
                run_experiment(cfg)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.listdir(tmp_path / "runs") == []

    def test_two_processes_load_no_pool_machinery(self, monkeypatch,
                                                  cli_config):
        # workers are plain forks that pickle their cells back over a pipe
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        code = ("import sys\n"
                "from kduda import harness\n"
                "harness._usable_cpus = lambda: 2\n"
                "assert harness._worker_count(2) == 2\n"
                "cfg = harness.load_config(sys.argv[1])\n"
                "assert len(harness.run_experiment(cfg)) == 4\n"
                "print(sorted({'concurrent.futures', 'multiprocessing'}"
                " & set(sys.modules)))\n")
        assert run_fresh(code, cli_config).split() == ["[]"]

    def test_one_process_loads_no_pool_machinery(self, monkeypatch,
                                                 cli_config):
        # importing the pool modules after numpy moved the heap so that a
        # pool process took about 56k more page faults; a grid on one
        # process has no pool, so it should not import them at all
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(harness._usable_cpus()))
        code = ("import sys\n"
                "from kduda import harness\n"
                "assert harness._worker_count(2) == 1\n"
                "harness.run_experiment(harness.load_config(sys.argv[1]))\n"
                "print(sorted({'concurrent.futures', 'multiprocessing'}"
                " & set(sys.modules)))\n")
        assert run_fresh(code, cli_config).split() == ["[]"]


def scenario_grid_cfg(tmp_path, seeds="0, 1", epochs=20):
    with open(SCENARIO_GRID) as fh:
        text = fh.read()
    assert "train.epochs = 20\n" in text
    return parse_config(text.replace("train.epochs = 20\n", f"train.epochs = {epochs}\n")
                        + f"experiment.seeds = {seeds}\n"
                        + f"experiment.output_dir = {tmp_path}\n")


class TestStackAssignment:
    def test_scenario_grid_splits_by_estimate(self, tmp_path):
        cfg = scenario_grid_cfg(tmp_path)
        stacks = [(cfg, scenario, cfg.seeds) for scenario in cfg.scenarios]
        costs = {scenario: harness._stack_seconds(cfg, scenario, cfg.seeds)
                 for scenario in cfg.scenarios}
        assert max(costs, key=costs.get) == "joint"
        shares = harness._assign_stacks(stacks, 2)
        assert shares == harness._assign_stacks(stacks, 2)  # config alone
        assert sorted(i for share in shares for i in share) == list(range(5))
        assert all(share == sorted(share) for share in shares)
        assert 0 in shares[0]  # the longest stack goes to the caller
        # jobs[i::2] would give one process joint, kd_then_uda and
        # source_only, the three longest cells
        assert [0, 2, 4] not in shares
        loads = [sum(costs[cfg.scenarios[i]] for i in share) for share in shares]
        assert abs(loads[0] - loads[1]) <= min(costs.values())

    def test_criterion_7_sweep_puts_one_teacher_width_on_each_process(self):
        cfg = ExperimentConfig(train=TrainConfig(epochs=100))
        stacks = [(replace(cfg, teacher_hidden=teacher_hidden_for(tw),
                           student_hidden=(student_hidden_for(16),)),
                   "joint", cfg.seeds) for tw in (32, 128)]
        small, large = (harness._stack_seconds(*job) for job in stacks)
        assert large > small
        assert harness._assign_stacks(stacks, 2) == [[1], [0]]
        assert harness._assign_stacks(stacks, 1) == [[0, 1]]

    def test_estimates_grow_with_seeds_and_epochs(self):
        cfg = ExperimentConfig(train=TrainConfig(epochs=20))
        longer = replace(cfg, train=TrainConfig(epochs=40))
        for scenario in harness.VALID_SCENARIOS:
            one = harness._stack_seconds(cfg, scenario, (0,))
            assert 0 < one < harness._stack_seconds(cfg, scenario, (0, 1))
            assert one < harness._stack_seconds(longer, scenario, (0,))


@pytest.fixture
def single_cells(monkeypatch):
    """single_cells() makes every stack train its cells one at a time, as
    separate runs without a stack axis."""
    real = harness.run_single

    def one_by_one(cfg, scenario, seeds):
        return [cell for seed in seeds for cell in real(cfg, scenario, (seed,))]

    return lambda: monkeypatch.setattr(harness, "run_single", one_by_one)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestStacksMatchSingleCells:
    """Stacked training writes the bytes of one-cell-at-a-time training:
    every epoch CSV but its seconds column, summaries and sweep rows."""

    def _outputs(self, run, out, workers, n):
        workers(n)
        result = run(str(out))
        return result, grid_outputs(out)

    @pytest.mark.parametrize("source", ["scenario_grid", "criterion_9"])
    def test_scenario_grids(self, tmp_path, workers, single_cells, source):
        if source == "scenario_grid":
            # the workload's data and models at seeds 0-4, on fewer epochs
            cfg = scenario_grid_cfg(tmp_path, "0, 1, 2, 3, 4", epochs=6)
        else:
            cfg = tiny_cfg(tmp_path, seeds=(0, 1))

        def run(out):
            return [(r.scenario, r.seed, repr(r.student_tgt_acc),
                     repr(r.teacher_tgt_acc))
                    for r in run_experiment(replace(cfg, output_dir=out))]

        stacked = self._outputs(run, tmp_path / "stacked", workers, 2)
        single_cells()
        single = self._outputs(run, tmp_path / "single", workers, 1)
        assert len(single[1]) == len(cfg.scenarios) * len(cfg.seeds) + 1
        assert stacked == single

    def test_sweep(self, tmp_path, workers, single_cells):
        cfg = tiny_cfg(tmp_path)

        def run(out):
            return sweep_sizes(replace(cfg, output_dir=out), [4, 8], [2, 4])

        stacked = self._outputs(run, tmp_path / "stacked", workers, 2)
        single_cells()
        assert stacked == self._outputs(run, tmp_path / "single", workers, 1)

    def test_a_diverging_seed_fails_as_in_a_single_cell_run(
            self, tmp_path, workers, single_cells):
        # at this rate uda_only's weights explode at seed 4 while its losses
        # stay finite: the stack fails, and its rerun one cell at a time
        # stops at uda_only seed 4 on the weight guard, writing nothing
        cfg = tiny_cfg(tmp_path, scenarios=("uda_only", "joint"), seeds=(4, 5, 6),
                       train=TrainConfig(epochs=3, batch_size=30, tau=4.0,
                                         lr_da=1e154, lr_kd=1e154))
        outcomes = []
        for n, single in ((1, False), (2, False), (1, True)):
            if single:
                single_cells()
            workers(n)
            out = tmp_path / f"run{len(outcomes)}"
            with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as info:
                run_experiment(replace(cfg, output_dir=str(out)))
            outcomes.append((str(info.value), grid_outputs(out)))
        assert outcomes[0][1] == {}
        assert re.fullmatch(r"uda_only seed 4: student layer 0 weight norm "
                            r"(grew \S+x|is not finite) at epoch 0",
                            outcomes[0][0])
        assert outcomes[0] == outcomes[1] == outcomes[2]


# -- allocator settings ---------------------------------------------------------


def libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def run_fresh(code: str, *args: str) -> str:
    """Standard output of code run in a fresh interpreter that imports kduda
    from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kduda.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


# counts lookups of mallopt through ctypes.CDLL, the setter's only way in
COUNT_MALLOPT_LOOKUPS = """
import ctypes, sys
lookups = []
class Recording(ctypes.CDLL):
    def __getattr__(self, name):
        if name == "mallopt":
            lookups.append(name)
        return super().__getattr__(name)
ctypes.CDLL = Recording
"""

# the joint_headline workload's data and models, shortened to 20 epochs
HEADLINE_SHAPED = """
data.generator = blobs
data.n_per_domain = 400
data.classes = 3
data.dim = 2
data.mean_shift = 3.0
model.teacher_hidden = 128, 128, 64
model.student_hidden = 32, 16
train.epochs = 20
train.batch_size = 32
experiment.scenarios = joint
experiment.seeds = 0
"""


class TestHeapSettings:
    def test_main_sets_the_heap_once_per_call(self, monkeypatch, cli_config,
                                              capsys):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append(1))
        assert main(["complexity", "--config", cli_config]) == 0
        assert calls == [1]
        assert main(["train", "--config", cli_config,
                     "--scenario", "warmup"]) == 1
        assert calls == [1, 1]
        # set before the arguments are parsed
        assert main(["no-such-command"]) == 1
        assert calls == [1, 1, 1]

    @pytest.mark.parametrize("libc", ["without_mallopt", "unloadable"])
    def test_a_libc_without_mallopt_is_left_alone(self, tmp_path, monkeypatch,
                                                  capsys, libc):
        opened = []

        def fake_cdll(name, *args, **kwargs):
            opened.append(name)
            if libc == "unloadable":
                raise OSError("no C library")
            return types.SimpleNamespace()

        monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
        path = tmp_path / "one.cfg"
        path.write_text(CLI_CONFIG.replace("train.epochs = 3", "train.epochs = 1")
                        + f"experiment.output_dir = {tmp_path / 'runs'}\n")
        assert main(["train", "--config", str(path)]) == 0
        assert opened == [None]
        assert "student_tgt_acc=" in capsys.readouterr().out

    @pytest.mark.skipif(not libc_has_mallopt(), reason="libc has no mallopt")
    def test_the_library_leaves_the_allocator_alone(self, cli_config):
        library = COUNT_MALLOPT_LOOKUPS + (
            "import kduda, kduda.cli\n"
            "from kduda.harness import load_config, run_single\n"
            "run_single(load_config(sys.argv[1]), 'joint', (0,))\n"
            "print(len(lookups))\n")
        program = COUNT_MALLOPT_LOOKUPS + (
            "from kduda import cli\n"
            "assert cli.main(['train', '--config', sys.argv[1]]) == 0\n"
            "print(len(lookups))\n")
        assert run_fresh(library, cli_config).split() == ["0"]
        assert run_fresh(program, cli_config).split()[-1] == "1"

    @pytest.mark.skipif(not libc_has_mallopt(), reason="libc has no mallopt")
    def test_training_does_not_fault_its_heap_back_in(self, tmp_path):
        # glibc trimming the heap after each step made this run take about
        # 54k minor page faults; with the trim kept it takes under 1k
        path = tmp_path / "headline.cfg"
        path.write_text(HEADLINE_SHAPED
                        + f"experiment.output_dir = {tmp_path / 'runs'}\n")
        code = ("import resource, sys\n"
                "from kduda import cli\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "assert cli.main(['train', '--config', sys.argv[1]]) == 0\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
                " - before)\n")
        faults = int(run_fresh(code, str(path)).split()[-1])
        assert faults < 10_000

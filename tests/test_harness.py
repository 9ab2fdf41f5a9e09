import csv
import ctypes
import math
import os
import re
import subprocess
import sys
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kduda
from kduda import cli, harness, trainer
from kduda.cli import main
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
from kduda.models import count_complexity
from kduda.trainer import TrainConfig


# every key parse_config reads, and keys it does not know
CONFIG_KEYS = (
    "data.generator", "data.n_per_domain", "data.classes", "data.dim",
    "data.mean_shift", "data.scale", "data.rotation_deg", "data.noise_std",
    "data.standardize", "train.epochs", "train.batch_size", "train.beta_start",
    "train.beta_end", "train.tau", "train.alpha", "train.gamma",
    "train.gamma_mode", "train.lr_da", "train.lr_kd", "train.momentum",
    "train.lr_da_decay", "train.lr_da_final_fraction", "train.eval_every",
    "train.scale_kd_by_tau_sq", "train.beta_override", "train.kernel_mode",
    "train.kernel_bandwidths", "train.kernel_multipliers",
    "model.teacher_hidden", "model.student_hidden", "experiment.scenarios",
    "experiment.seeds", "experiment.output_dir")
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
data.standardize = false

train.epochs = 7
train.batch_size = 16
train.beta_start = 0.2
train.beta_end = 0.8
train.tau = 10.0
train.alpha = 0.5
train.gamma = 1.5
train.gamma_mode = ramp
train.lr_da = 0.01
train.lr_kd = 0.02
train.momentum = 0.8
train.lr_da_decay = constant
train.eval_every = 2
train.scale_kd_by_tau_sq = false
train.kernel_mode = fixed
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
        assert cfg.dataset.standardize is False
        t = cfg.train
        assert t.epochs == 7
        assert t.batch_size == 16
        assert (t.beta_start, t.beta_end) == (0.2, 0.8)
        assert t.tau == 10.0 and t.alpha == 0.5 and t.gamma == 1.5
        assert t.gamma_mode == "ramp"
        assert (t.lr_da, t.lr_kd, t.momentum) == (0.01, 0.02, 0.8)
        assert t.lr_da_decay == "constant"
        assert t.eval_every == 2
        assert t.scale_kd_by_tau_sq is False
        assert t.kernel.mode == "fixed"
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
        with pytest.raises(ConfigError, match="data.standardize.*true or false"):
            parse_config("data.standardize = maybe\n")

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
        ("train.kernel_mode = fixed", "train.kernel_bandwidths"),
        ("train.kernel_multipliers = 1, -2", "train.kernel_multipliers"),
        ("data.generator = circles", "data.generator"),
        ("data.generator = two_moons\ndata.dim = 3", "data.generator"),
        ("experiment.scenarios = ,", "experiment.scenarios"),
        ("experiment.seeds = ,", "experiment.seeds"),
        ("model.student_hidden = ;", "model.student_hidden"),
        ("train.gamma_mode = linear", "train.gamma_mode"),
        ("train.tau = -1", "train.tau"),
        ("train.beta_start = 2", "train.beta_start"),
        ("train.beta_end = 0", "train.beta_end"),
        ("train.gamma = -1", "train.gamma"),
        ("train.alpha = -1", "train.alpha"),
        ("model.teacher_hidden = 0", "model.teacher_hidden"),
        ("model.student_hidden = 0", "model.student_hidden"),
        ("model.student_hidden = 8, 4; 3, 0", "model.student_hidden"),
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

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.cfg"))

    def test_load_config_prefixes_the_path(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("train.epochs = never\n")
        with pytest.raises(ConfigError, match="bad.cfg"):
            load_config(str(path))


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


class TestRunSingle:
    def test_source_only_fills_both_model_columns(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        log, result = run_single(cfg, "source_only", 0)
        assert not math.isnan(result.student_src_acc)
        assert not math.isnan(result.teacher_src_acc)
        assert len(log.records) == cfg.train.epochs

    def test_result_carries_complexity_counts(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        _, result = run_single(cfg, "joint", 1)
        assert (result.student_params, result.student_macs) == \
            count_complexity(cfg.student_spec(1))
        assert (result.teacher_params, result.teacher_macs) == \
            count_complexity(cfg.teacher_spec(1))
        assert result.seed == 1

    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown scenario"):
            run_single(tiny_cfg(tmp_path), "warmup", 0)

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
        run_single(tiny_cfg(tmp_path), scenario, 0)
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
        for call in (lambda: run_single(cfg, "joint", 0),
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
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("line,key", [("train.tau = -1", "train.tau"),
                                          ("train.beta_start = 2",
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
        # bandwidths are read only under the fixed kernel mode
        mode = "fixed" if key == "train.kernel_bandwidths" else "median"
        path = tmp_path / "exp.cfg"
        path.write_text(f"train.kernel_mode = {mode}\n{key} = {value}\n"
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

    @pytest.mark.parametrize("n,forks,caller_cells", [
        (1, True, [("joint", 0), ("joint", 1), ("joint", 2),
                   ("uda_only", 0), ("uda_only", 1), ("uda_only", 2)]),
        (2, True, [("joint", 0), ("joint", 2), ("uda_only", 1)]),
        (3, True, [("joint", 0), ("uda_only", 0)]),
        (2, False, [("joint", 0), ("joint", 1), ("joint", 2),
                    ("uda_only", 0), ("uda_only", 1), ("uda_only", 2)]),
    ])
    def test_the_caller_runs_share_zero(self, tmp_path, monkeypatch, workers,
                                        n, forks, caller_cells):
        # cells a forked worker runs are recorded in the worker's copy of
        # the list, so the caller's list holds only the cells it ran
        workers(n)
        if not forks:
            monkeypatch.delattr(harness.os, "fork")
        ran_here = []
        real = harness.run_single

        def recording(cfg, scenario, seed):
            ran_here.append((scenario, seed))
            return real(cfg, scenario, seed)

        monkeypatch.setattr(harness, "run_single", recording)
        results = run_experiment(tiny_cfg(tmp_path / "runs"))
        assert ran_here == caller_cells
        assert len(results) == 6

    @pytest.mark.parametrize("failures,expected,written", [
        # uda_only seed 0 (cell 3) fails in the worker before the caller's
        # uda_only seed 1 (cell 4) does
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

        def failing(cfg, scenario, seed):
            if (scenario, seed) in failures:
                raise failures[(scenario, seed)]
            return real(cfg, scenario, seed)

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

        def dying(cfg, scenario, seed):
            if (scenario, seed) == ("uda_only", 0) and os.getpid() != caller:
                os._exit(3)
            return real(cfg, scenario, seed)

        monkeypatch.setattr(harness, "run_single", dying)
        cfg = tiny_cfg(tmp_path / "runs")
        with pytest.raises(KdudaError, match="worker process died running "
                           "cells joint seed 1, uda_only seed 0, "
                           "uda_only seed 2"):
            run_experiment(cfg)
        # the dead worker's share starts at cell 1, so only cell 0 is written
        assert os.listdir(tmp_path / "runs") == [
            f"{cfg.config_hash()}_joint_seed0.csv"]

        path = tmp_path / "exp.cfg"
        path.write_text(
            CLI_CONFIG.replace("experiment.seeds = 0, 1\n",
                               "experiment.seeds = 0, 1, 2\n")
            + f"experiment.output_dir = {tmp_path / 'cli'}\n")
        assert main(["scenarios", "--config", str(path)]) == 1
        assert "worker process died" in capsys.readouterr().err


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
        with pytest.raises(SystemExit):  # set before the arguments are parsed
            main(["no-such-command"])
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
            "run_single(load_config(sys.argv[1]), 'joint', 0)\n"
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

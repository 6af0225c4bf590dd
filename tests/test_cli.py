"""Command-line behavior: success paths for every subcommand, exit
codes and stderr on bad input, in-process via main(argv).
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import bad_banks

import swoks.cli
import swoks.runner
from swoks.cli import main
from swoks.config import load_config
from swoks.runner import detect_offline
from swoks.seeding import child_seed
from swoks.stream import StreamBlock, write_stream
from swoks.trace import read_trace

MIRROR_CFG = """
[experiment]
master_seed = 3

[detector]
history_length = 10
swd_history_length = 6
significance_threshold = 0.01
ks_adjustment = 1.1
stable_phase_duration = 0
n_projections = 32
probe_swd_samples = 8

[env]
observation_dim = 8

[agent]
latent_dim = 4
learning_rate = 0.1

[tasks]
rewarded_leaves = 0,3

[curriculum]
order = 1,2,1
segment_steps = 900
"""


@pytest.fixture()
def mirror_cfg(tmp_path):
    path = tmp_path / "mirror.cfg"
    path.write_text(MIRROR_CFG)
    return str(path)


@pytest.fixture()
def flat_cfg(tmp_path):
    text = MIRROR_CFG.replace("order = 1,2,1", "order = 1").replace(
        "segment_steps = 900", "segment_steps = 600"
    )
    path = tmp_path / "flat.cfg"
    path.write_text(text)
    return str(path)


def shifted_stream(tmp_path):
    rng = np.random.default_rng(11)
    rows = [  # t, gt_task, reward, action, phi; the action drawn before phi
        (i + 1, 2 if i >= 300 else 1, -1.0 if i >= 300 else 1.0,
         int(rng.integers(0, 2)), rng.normal(3.0 if i >= 300 else 0.0, 1.0, size=3))
        for i in range(600)
    ]
    path = tmp_path / "stream.csv"
    write_stream(path, StreamBlock(*map(np.array, zip(*rows))))
    return str(path)


class TestRunCommand:
    def test_writes_artifacts_and_summary(self, mirror_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", mirror_cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "labels: 2" in stdout
        assert "events: 2" in stdout
        trace = read_trace(out / "trace.csv")
        assert trace.t[0] == 1
        # Every live episode played, those the events roll back included: whole
        # episodes of the default depth 2 fill the live rows.
        episodes = int(re.search(r"^episodes: (\d+)$", stdout, re.M).group(1))
        assert episodes * 2 == (trace.probe_flag == 0).sum()
        assert json.loads((out / "events.json").read_text())

    def test_save_bank_flag(self, mirror_cfg, tmp_path):
        out = tmp_path / "out"
        bank = tmp_path / "bank.npz"
        code = main(["run", "--config", mirror_cfg, "--out", str(out),
                     "--save-bank", str(bank)])
        assert code == 0
        with np.load(bank, allow_pickle=False) as archive:
            assert 1 in archive["labels"].tolist()

    @pytest.mark.parametrize("case", sorted(bad_banks(2, 4)))
    def test_bad_load_bank_exits_2_before_any_step(self, mirror_cfg, tmp_path, capsys,
                                                   monkeypatch, case):
        def no_step(self, action):
            raise AssertionError("the env took a step")

        config = load_config(mirror_cfg)
        data, message = bad_banks(config.env.branching, config.agent.latent_dim)[case]
        bank = tmp_path / "bank.npz"
        bank.write_bytes(data)
        monkeypatch.setattr(swoks.runner.TreeGraphEnv, "advance", no_step)
        code = main(["run", "--config", mirror_cfg, "--out", str(tmp_path / "out"),
                     "--load-bank", str(bank)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bank}: ")
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["leaf-off-the-tree", "missing-bank"])
    def test_refused_run_leaves_no_out_directory(self, mirror_cfg, tmp_path, capsys, case):
        if case == "leaf-off-the-tree":
            config, flags = tmp_path / "leaf.cfg", []
            config.write_text("[experiment]\npreset = desk\n\n[tasks]\nrewarded_leaves = 0,1,2,9\n")
            message = f"error: {config}: rewarded_leaf 9 out of range for 4 leaves"
        else:
            bank = tmp_path / "absent.npz"
            config, flags, message = mirror_cfg, ["--load-bank", str(bank)], "error: [Errno 2]"
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_out_is_a_file_exits_2_before_any_step(self, mirror_cfg, tmp_path, capsys,
                                                   monkeypatch):
        def no_step(self, action):
            raise AssertionError("the env took a step")

        monkeypatch.setattr(swoks.runner.TreeGraphEnv, "advance", no_step)
        out = tmp_path / "taken"
        out.write_text("not a directory")
        assert main(["run", "--config", mirror_cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert out.read_text() == "not a directory"
        # trace.csv is opened before the first step, so it cannot fail after the run.
        out = tmp_path / "out"
        (out / "trace.csv").mkdir(parents=True)
        assert main(["run", "--config", mirror_cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "events.json").exists()

    def test_tree_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        # The tree's 2^51 - 1 rows of 16 doubles need 2^58 B, more than any
        # 64-bit address space maps: numpy raises MemoryError, allocating nothing.
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("[experiment]\npreset = desk\n\n[detector]\nhistory_length = 50\n\n"
                       "[env]\ntree_depth = 50\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("command", ["run", "detect"])
def test_sets_that_split_an_episode_exit_2(tmp_path, capsys, command):
    """A recorded stream has no episode ends, so ``detect`` refuses such windows too."""
    config = tmp_path / "split.cfg"
    config.write_text("[experiment]\npreset = desk\n\n[detector]\nhistory_length = 61\n")
    out = tmp_path / "out"
    flags = ["--stream", shifted_stream(tmp_path)] if command == "detect" else []
    assert main([command, "--config", str(config), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == (f"error: {config}: history_len 61 is not a multiple of "
                                       "depth 2: a set must hold whole episodes\n")
    assert not out.exists()


class TestDetectCommand:
    def test_stdout_report(self, mirror_cfg, tmp_path, capsys):
        stream = shifted_stream(tmp_path)
        assert main(["detect", "--stream", stream, "--config", mirror_cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["probe_mode"] == "disabled"
        assert payload["steps"] == 600
        assert payload["final_labels"] == 2
        assert [e["kind"] for e in payload["events"]] == ["new-task"]

    def test_out_file(self, mirror_cfg, tmp_path, capsys):
        stream = shifted_stream(tmp_path)
        target = tmp_path / "events.json"
        assert main(["detect", "--stream", stream, "--config", mirror_cfg,
                     "--out", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert json.loads(target.read_text())["steps"] == 600

    def test_detector_is_seeded_from_the_master_seed(self, mirror_cfg, tmp_path, capsys,
                                                      monkeypatch):
        seen = []

        def recording(stream, det_config):
            seen.append(det_config)
            return detect_offline(stream, det_config)

        monkeypatch.setattr(swoks.cli, "detect_offline", recording)
        assert main(["detect", "--stream", shifted_stream(tmp_path), "--config", mirror_cfg]) == 0
        config = load_config(mirror_cfg)
        assert seen == [replace(config.detector, master_seed=child_seed(3, "detector"))]

    def test_stream_id_past_int64_exits_2(self, mirror_cfg, tmp_path, capsys):
        stream = tmp_path / "big.csv"
        stream.write_text(f"t,gt_task,r,a,phi_1\n1,1,0.5,1,0.1\n{2 ** 63},1,0.5,1,0.1\n")
        assert main(["detect", "--stream", str(stream), "--config", mirror_cfg]) == 2
        assert capsys.readouterr().err.startswith(f"error: {stream}:3: t {2 ** 63} is outside int64")

    def test_missing_stream_exits_2(self, mirror_cfg, tmp_path, capsys):
        code = main(["detect", "--stream", str(tmp_path / "nope.csv"),
                     "--config", mirror_cfg])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSweepBetaCommand:
    def test_prints_one_row_per_beta(self, mirror_cfg, capsys):
        assert main(["sweep-beta", "--config", mirror_cfg, "--betas", "1.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["beta", "new-task", "re-detected", "labels", "accuracy"]
        assert len(lines) == 2
        assert lines[1].split()[0] == "1.10"

    def test_bad_beta_list_exits_2(self, mirror_cfg, capsys):
        assert main(["sweep-beta", "--config", mirror_cfg, "--betas", "fast"]) == 2
        assert "bad --betas" in capsys.readouterr().err

    @pytest.mark.parametrize("betas", ["1.0,,1.4", "1.0,", ",1.1"])
    def test_empty_beta_item_exits_2_before_any_run(self, mirror_cfg, capsys, monkeypatch,
                                                     betas):
        def no_run(config):
            raise AssertionError("a run started")

        monkeypatch.setattr(swoks.runner, "run_experiment", no_run)
        assert main(["sweep-beta", "--config", mirror_cfg, "--betas", betas]) == 2
        assert "bad --betas value" in capsys.readouterr().err

    @pytest.mark.parametrize("betas", ["", " "])
    def test_empty_beta_list_exits_2(self, mirror_cfg, capsys, betas):
        assert main(["sweep-beta", "--config", mirror_cfg, "--betas", betas]) == 2
        assert "betas must not be empty" in capsys.readouterr().err

    @pytest.mark.parametrize("betas", ["nan", "1.1,nan", "inf"])
    def test_non_finite_beta_exits_2_before_any_run(self, mirror_cfg, capsys, monkeypatch,
                                                     betas):
        def no_run(config):
            raise AssertionError("a run started")

        monkeypatch.setattr(swoks.runner, "run_experiment", no_run)
        assert main(["sweep-beta", "--config", mirror_cfg, "--betas", betas]) == 2
        assert "beta must be >= 1 and finite" in capsys.readouterr().err


class TestCalibrateFprCommand:
    def test_stationary_rate_is_zero(self, flat_cfg, capsys):
        code = main(["calibrate-fpr", "--config", flat_cfg, "--runs", "2",
                     "--seed", "9"])
        assert code == 0
        assert "false-positive rate: 0.000000" in capsys.readouterr().out

    def test_multi_task_config_exits_2_before_any_run(self, mirror_cfg, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("a run started")

        monkeypatch.setattr(swoks.runner, "run_experiment", no_run)
        assert main(["calibrate-fpr", "--config", mirror_cfg, "--runs", "3"]) == 2
        assert "single-task curriculum" in capsys.readouterr().err

    def test_zero_runs_exits_2_before_any_run(self, flat_cfg, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("a run started")

        monkeypatch.setattr(swoks.runner, "run_experiment", no_run)
        assert main(["calibrate-fpr", "--config", flat_cfg, "--runs", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: n_runs must be >= 1, got 0\n" and captured.out == ""


class TestParser:
    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "swoks.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "sweep-beta" in proc.stdout

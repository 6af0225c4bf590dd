"""Config parsing: section/key grammar, line-numbered errors, presets,
override precedence, and construction of the experiment dataclasses.
"""
from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import pytest

from swoks.agent import Policy
from swoks.config import (
    _SCHEMA,
    PRESETS,
    AgentConfig,
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config_text,
)
from swoks.detector import DetectorConfig
from swoks.env import TreeGraphConfig

MINIMAL = """
[tasks]
rewarded_leaves = 0, 3

[curriculum]
order = 1, 2
segment_steps = 500
"""


def write_cfg(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


class TestGrammar:
    def test_sections_keys_and_comments(self):
        text = ("# top comment\n[detector]\nn_projections = 8  # inline\n\nhistory_length = 30\n"
                "[env]  # a note after a header\ndepth = 3\n")
        parsed = parse_config_text(text, origin="x")
        assert parsed == {
            "detector": {"n_projections": ("8", 3), "history_length": ("30", 5)},
            "env": {"depth": ("3", 7)},
        }

    @pytest.mark.parametrize(
        "text, where",
        [
            ("x = 1\n", r"x:1: key outside any \[section\]"),
            ("[detector]\nwhat now\n", r"x:2: expected 'key = value'"),
            ("[]\n", r"x:1: empty section name"),
            ("[detector]\n= 5\n", r"x:2: empty key"),
            (
                "[detector]\nn_projections = 8\nn_projections = 9\n",
                r"x:3: duplicate key 'n_projections'",
            ),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, where):
        with pytest.raises(ConfigError, match=where):
            parse_config_text(text, origin="x")


class TestSchemaErrors:
    @pytest.mark.parametrize(
        "text, where",
        [
            ("[nosuch]\nx = 1\n", r":1: unknown section \[nosuch\]"),
            ("[detector]\n[nosuch]\n", r":2: unknown section \[nosuch\]"),
            ("[detector]\nbogus = 1\n", r":2: unknown key 'bogus'"),
            ("[detector]\nhistory_length = soon\n", r":2: history_length expects int, got 'soon'"),
            ("[agent]\nlearning_rate = fast\n", r":2: learning_rate expects float"),
        ],
    )
    def test_line_numbered_schema_errors(self, tmp_path, text, where):
        with pytest.raises(ConfigError, match=where):
            load_config(write_cfg(tmp_path, text + MINIMAL))

    def test_out_of_range_value_is_a_config_error(self, tmp_path):
        path = write_cfg(tmp_path, "[detector]\nks_adjustment = 0.5\n" + MINIMAL)
        with pytest.raises(ConfigError, match="beta must be >= 1"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[curriculum]\norder = 1\nsegment_steps = 500\n", r"missing \[tasks\] rewarded_leaves"),
            ("[tasks]\nrewarded_leaves = 0\n[curriculum]\nsegment_steps = 5\n", r"missing \[curriculum\] order"),
            ("[tasks]\nrewarded_leaves = 0\n[curriculum]\norder = 1\n", r"missing \[curriculum\] segment_steps"),
            ("[tasks]\nrewarded_leaves =\n[curriculum]\norder = 1\nsegment_steps = 5\n", "must not be empty"),
            (MINIMAL + "[experiment]\nmaster_seed = 1\n" ,None),
        ],
    )
    def test_required_blocks(self, tmp_path, text, message):
        path = write_cfg(tmp_path, text)
        if message is None:
            load_config(path)
        else:
            with pytest.raises(ConfigError, match=message):
                load_config(path)

    def test_leaf_list_must_be_integers(self, tmp_path):
        path = write_cfg(tmp_path, "[tasks]\nrewarded_leaves = 0, x\n[curriculum]\norder = 1\nsegment_steps = 5\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: rewarded_leaves "
                                              "must be a comma-separated integer list, got '0, x'$"):
            load_config(path)

    def test_order_list_must_be_integers(self, tmp_path):
        path = write_cfg(tmp_path, "[tasks]\nrewarded_leaves = 0\n[curriculum]\norder = 1, x\nsegment_steps = 5\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:4: order "
                                              "must be a comma-separated integer list, got '1, x'$"):
            load_config(path)

    @pytest.mark.parametrize("leaves, order, line, key", [
        ("0,,3", "1, 2", 2, "rewarded_leaves"),
        ("0, 3,", "1, 2", 2, "rewarded_leaves"),
        (",0", "1", 2, "rewarded_leaves"),
        (" , ", "1", 2, "rewarded_leaves"),
        ("0, 3", "1,,2", 4, "order"),
        ("0, 3", "1, 2, ", 4, "order"),
    ])
    def test_empty_list_item_is_refused(self, tmp_path, leaves, order, line, key):
        text = f"[tasks]\nrewarded_leaves = {leaves}\n[curriculum]\norder = {order}\nsegment_steps = 5\n"
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:{line}: {key} "
                                              "must be a comma-separated integer list, got "):
            load_config(path)

    @pytest.mark.parametrize("leaves, order, message", [
        ("", "1", "rewarded_leaves must not be empty"),
        ("0", "", "curriculum needs at least one segment"),
    ])
    def test_empty_list_is_refused_as_empty(self, tmp_path, leaves, order, message):
        text = f"[tasks]\nrewarded_leaves = {leaves}\n[curriculum]\norder = {order}\nsegment_steps = 5\n"
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: {message}$"):
            load_config(path)

    def test_curriculum_must_reference_defined_tasks(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL.replace("order = 1, 2", "order = 1, 9"))
        with pytest.raises(ConfigError, match=r"curriculum task 9 not defined"):
            load_config(path)

    @pytest.mark.parametrize("leaf", [4, -1])
    def test_rewarded_leaf_must_be_on_the_tree(self, tmp_path, leaf):
        leaves = MINIMAL.replace("0, 3", f"0, {leaf}")
        path = write_cfg(tmp_path, "[env]\ntree_depth = 2\nbranching_factor = 2\n" + leaves)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: rewarded_leaf {leaf} "
                                              "out of range for 4 leaves$"):
            load_config(path)

    def test_negative_master_seed_names_the_file(self, tmp_path):
        path = write_cfg(tmp_path, "[experiment]\nmaster_seed = -3\n" + MINIMAL)
        with pytest.raises(ConfigError,
                           match=rf"^{re.escape(str(path))}: master_seed must be non-negative$"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found"):
            load_config(tmp_path / "nope.cfg")


class TestDefaultsAndBuild:
    def test_minimal_file_gets_documented_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.detector.history_len == 240
        assert cfg.detector.swd_history_len == 125
        assert cfg.detector.alpha == 0.001
        assert cfg.detector.beta == 1.1
        assert cfg.detector.stable_phase == 50_000
        assert cfg.detector.probe_swd_samples is None
        assert cfg.detector.resolved_probe_samples == 25
        assert cfg.env.depth == 2 and cfg.env.branching == 2
        assert cfg.env.obs_dim == 16
        assert cfg.agent.latent_dim == 8
        assert cfg.agent.learning_rate == 0.08
        assert cfg.master_seed == 0

    def test_tasks_and_curriculum_built_from_lists(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        assert [(t.task_id, t.rewarded_leaf) for t in cfg.tasks] == [(1, 0), (2, 3)]
        assert cfg.curriculum.segments == ((1, 500), (2, 500))
        assert cfg.curriculum.total_steps == 1000

    def test_seed_argument_replaces_only_the_master_seed(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL)
        cfg = load_config(path)
        assert cfg.master_seed == 0
        assert load_config(path, seed=123) == replace(cfg, master_seed=123)


class TestPresets:
    def test_desk_preset_loads(self):
        cfg = load_config("desk")
        assert cfg.preset == "desk"
        assert cfg.detector.history_len == 60
        assert cfg.detector.swd_history_len == 12
        assert cfg.detector.stable_phase == 2000
        assert cfg.detector.resolved_probe_samples == 12
        assert cfg.agent.learning_rate == 0.15
        assert cfg.master_seed == 1
        assert len(cfg.tasks) == 4
        assert cfg.curriculum.total_steps == 8 * 8000

    def test_paper_preset_loads(self):
        cfg = load_config("paper")
        assert cfg.detector.history_len == 240
        assert cfg.detector.swd_history_len == 125
        assert cfg.detector.stable_phase == 50_000
        assert cfg.detector.resolved_probe_samples == 25
        assert cfg.agent.learning_rate == 0.08
        assert cfg.curriculum.total_steps == 8 * 150_000

    def test_file_entries_override_named_preset(self, tmp_path):
        text = (
            "[experiment]\npreset = desk\nmaster_seed = 42\n"
            "[detector]\nhistory_length = 30\n"
        )
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.preset == "desk"
        assert cfg.detector.history_len == 30          # file wins
        assert cfg.detector.swd_history_len == 12      # preset value kept
        assert cfg.agent.learning_rate == 0.15         # preset value kept
        assert cfg.master_seed == 42

    def test_unknown_preset_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "[experiment]\npreset = huge\n" + MINIMAL)
        with pytest.raises(ConfigError,
                           match=rf"^{re.escape(str(path))}:2: unknown preset 'huge'"):
            load_config(path)

    def test_seed_argument_wins_over_everything(self, tmp_path):
        assert load_config("desk", seed=77).master_seed == 77
        text = "[experiment]\npreset = desk\nmaster_seed = 42\n"
        assert load_config(write_cfg(tmp_path, text), seed=77).master_seed == 77


ROOT = Path(__file__).parents[1]
SHIPPED = [*PRESETS, *sorted((ROOT / "tools" / "configs").glob("*.cfg")),
           ROOT / "perfbench" / "configs" / "stationary.cfg"]


class TestWholeEpisodeSets:
    """Every episode is ``tree_depth`` steps, so a set holds whole episodes only
    if ``history_length`` is a multiple of it; any other config is refused."""

    @pytest.mark.parametrize("source", SHIPPED, ids=lambda s: Path(s).stem)
    def test_every_shipped_config_loads(self, source):
        cfg = load_config(source)
        assert cfg.detector.history_len % cfg.env.depth == 0

    @pytest.mark.parametrize("text, h, depth", [
        ("[detector]\nhistory_length = 61\n", 61, 2),
        ("[env]\ntree_depth = 7\n", 60, 7),
    ], ids=["history_length", "tree_depth"])
    def test_file_is_refused_with_its_name(self, tmp_path, text, h, depth):
        path = write_cfg(tmp_path, "[experiment]\npreset = desk\n" + text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: history_len {h} "
                           rf"is not a multiple of depth {depth}: a set must hold whole "
                           "episodes$"):
            load_config(path)

    def test_config_built_in_python_is_refused(self):
        desk = load_config("desk")
        for make in (
                lambda: replace(desk, detector=replace(desk.detector, history_len=61)),
                lambda: replace(desk, env=replace(desk.env, depth=7)),
                lambda: ExperimentConfig(replace(desk.detector, history_len=50),
                                         TreeGraphConfig(depth=3), desk.agent, desk.tasks,
                                         desk.curriculum)):
            with pytest.raises(ValueError, match="is not a multiple of depth"):
                make()


# Every dataclass key, its field written out by hand (not read from the
# schema) and a value that no other key uses and the desk preset does not set.
FIELD_KEYS = [
    ("detector", "history_length", "history_len", 62),
    ("detector", "swd_history_length", "swd_history_len", 13),
    ("detector", "significance_threshold", "alpha", 0.002),
    ("detector", "ks_adjustment", "beta", 1.3),
    ("detector", "stable_phase_duration", "stable_phase", 2001),
    ("detector", "n_projections", "n_projections", 129),
    ("detector", "probe_swd_samples", "probe_swd_samples", 11),
    ("env", "tree_depth", "depth", 3),
    ("env", "branching_factor", "branching", 4),
    ("env", "high_reward_value", "high_reward", 2.5),
    ("env", "fail_reward_value", "fail_reward", -0.3),
    ("env", "observation_dim", "obs_dim", 17),
    ("env", "observation_noise_sigma", "obs_noise_sigma", 0.07),
    ("agent", "latent_dim", "latent_dim", 9),
    ("agent", "learning_rate", "learning_rate", 0.17),
    ("agent", "model_backup_freq", "backup_freq", 51),
]


class TestKeyTable:
    def test_every_dataclass_key_is_covered(self):
        assert len(FIELD_KEYS) == 16
        assert len({value for *_, value in FIELD_KEYS}) == 16
        assert {(section, key) for section, key, *_ in FIELD_KEYS} == {
            (section, key) for section in ("detector", "env", "agent") for key in _SCHEMA[section]}

    @pytest.mark.parametrize("section, key, name, value", FIELD_KEYS)
    def test_key_sets_its_field(self, tmp_path, section, key, name, value):
        desk = getattr(load_config("desk"), section)
        assert getattr(desk, name) != value
        text = f"[experiment]\npreset = desk\n[{section}]\n{key} = {value}\n"
        cfg = getattr(load_config(write_cfg(tmp_path, text)), section)
        assert getattr(cfg, name) == value
        assert type(getattr(cfg, name)) is type(value)


FLOAT_KEYS = [(section, key) for section, keys in _SCHEMA.items()
              for key, (_, kind) in keys.items() if kind is float]
NON_FINITE = ["nan", "inf", "-inf"]


class TestNonFiniteFloats:
    def test_every_float_key_is_covered(self):
        assert len(FLOAT_KEYS) == 6

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("section, key", FLOAT_KEYS)
    def test_rejected_with_path_and_line(self, tmp_path, section, key, value):
        path = write_cfg(tmp_path, f"[experiment]\npreset = desk\n[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError,
                           match=rf"^{re.escape(str(path))}:4: {key} must be finite, got '{value}'"):
            load_config(path)

    @pytest.mark.parametrize("value", [float(v) for v in NON_FINITE])
    @pytest.mark.parametrize("make", [
        lambda v: DetectorConfig(alpha=v),
        lambda v: DetectorConfig(beta=v),
        lambda v: TreeGraphConfig(high_reward=v),
        lambda v: TreeGraphConfig(fail_reward=v),
        lambda v: TreeGraphConfig(obs_noise_sigma=v),
        lambda v: AgentConfig(learning_rate=v),
        lambda v: Policy(2, 2, learning_rate=v),
    ])
    def test_rejected_by_the_classes(self, make, value):
        with pytest.raises(ValueError):
            make(value)


class TestDetectorThatCannotFire:
    """At statistic 1 the shift test's p-value is exp(-L) and a probe's
    exp(-2 n L / (n + L)); a config whose alpha is not above it is refused."""

    def load(self, tmp_path, detector):
        text = f"[experiment]\npreset = desk\n[detector]\nsignificance_threshold = 0.001\n{detector}"
        return load_config(write_cfg(tmp_path, text))

    def test_shift_test_that_cannot_reject_is_refused(self, tmp_path):
        # exp(-6) = 0.0025 >= 0.001
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(tmp_path / 'exp.cfg'))}: "
                           r"the shift test can never reject: at swd_history_length = 6 .*"
                           r"0\.00248.* significance_threshold = 0\.001$"):
            self.load(tmp_path, "swd_history_length = 6\n")

    def test_shift_test_that_can_reject_is_accepted(self, tmp_path):
        # exp(-7) = 0.00091 < 0.001, and the probe floor exp(-2*12*7/19) is lower still
        assert self.load(tmp_path, "swd_history_length = 7\n").detector.swd_history_len == 7

    def test_probe_test_that_cannot_reject_is_refused(self, tmp_path):
        # exp(-2 * 1 * 12 / 13) = 0.158 >= 0.001
        with pytest.raises(ConfigError, match=r"the probe test can never reject: at "
                           r"probe_swd_samples = 1 and swd_history_length = 12 .*0\.158"):
            self.load(tmp_path, "probe_swd_samples = 1\n")

    def test_the_class_still_accepts_both(self):
        assert DetectorConfig(swd_history_len=2, probe_swd_samples=1).swd_history_len == 2

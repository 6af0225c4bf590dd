"""Experiment configuration: line-based ``key = value`` files with
``[section]`` headers, preset resolution, and validation that reports
offending line numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Callable

from .detector import DetectorConfig
from .env import Curriculum, TaskSpec, TreeGraphConfig
from .stats import ks_pvalue

__all__ = ["ConfigError", "ExperimentConfig", "AgentConfig", "load_config", "parse_config_text"]

PRESETS = ("desk", "paper")


class ConfigError(ValueError):
    """Invalid configuration; message carries file and line context."""


@dataclass(frozen=True)
class AgentConfig:
    latent_dim: int = 8
    learning_rate: float = 0.08
    backup_freq: int = 50

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be > 0 and finite, got {self.learning_rate}")
        if self.backup_freq < 1:
            raise ValueError(f"backup_freq must be >= 1, got {self.backup_freq}")


@dataclass(frozen=True)
class ExperimentConfig:
    detector: DetectorConfig
    env: TreeGraphConfig
    agent: AgentConfig
    tasks: tuple[TaskSpec, ...]
    curriculum: Curriculum
    master_seed: int = 0
    preset: str = ""

    def __post_init__(self):
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        # Every episode is ``depth`` steps, so sets, checks and probes fall on episode ends.
        if self.detector.history_len % self.env.depth:
            raise ValueError(f"history_len {self.detector.history_len} is not a multiple of "
                             f"depth {self.env.depth}: a set must hold whole episodes")


def _ints(raw: str) -> tuple[int, ...]:
    if not raw.strip():
        return ()  # refused as empty where the list is required
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ValueError("must be a comma-separated integer list") from None


# Every key a file may set: section -> file key -> (name, converter).
# In [detector], [env] and [agent] the name is the dataclass field. Only
# the keys a file sets are passed on, so every default lives in the
# dataclasses.
_SCHEMA: dict[str, dict[str, tuple[str, Callable[[str], object]]]] = {
    "experiment": {"preset": ("preset", str), "master_seed": ("master_seed", int)},
    "detector": {
        "history_length": ("history_len", int),
        "swd_history_length": ("swd_history_len", int),
        "significance_threshold": ("alpha", float),
        "ks_adjustment": ("beta", float),
        "stable_phase_duration": ("stable_phase", int),
        "n_projections": ("n_projections", int),
        "probe_swd_samples": ("probe_swd_samples", int),
    },
    "env": {
        "tree_depth": ("depth", int),
        "branching_factor": ("branching", int),
        "high_reward_value": ("high_reward", float),
        "fail_reward_value": ("fail_reward", float),
        "observation_dim": ("obs_dim", int),
        "observation_noise_sigma": ("obs_noise_sigma", float),
    },
    "agent": {
        "latent_dim": ("latent_dim", int),
        "learning_rate": ("learning_rate", float),
        "model_backup_freq": ("backup_freq", int),
    },
    "tasks": {"rewarded_leaves": ("rewarded_leaves", _ints)},
    "curriculum": {"order": ("order", _ints), "segment_steps": ("segment_steps", int)},
}
_REQUIRED = (("tasks", "rewarded_leaves"), ("curriculum", "order"), ("curriculum", "segment_steps"))


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, dict[str, tuple[str, int]]]:
    """Parse ``[section]`` / ``key = value`` lines.

    Returns ``{section: {key: (raw_value, line_number)}}``. Blank lines
    and ``#`` comments, also after a header or value, are ignored; a
    section not in the schema is rejected at its header line.
    """
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"{origin}:{lineno}: empty section name")
            if current not in _SCHEMA:
                raise ConfigError(f"{origin}:{lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{origin}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (value, lineno)
    return sections


def _convert(sections, origin: str) -> dict[str, dict[str, object]]:
    """``{section: {name: value}}``; an unknown key, a value that does not
    convert and a non-finite float are reported at ``origin:line``."""
    values: dict[str, dict[str, object]] = {}
    for section, entries in sections.items():
        values[section] = {}
        for key, (raw, lineno) in entries.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{origin}:{lineno}: unknown key {key!r} in [{section}]")
            name, convert = _SCHEMA[section][key]
            try:
                value = convert(raw)
            except ValueError as exc:
                why = f"expects {convert.__name__}" if isinstance(convert, type) else exc
                raise ConfigError(f"{origin}:{lineno}: {key} {why}, got {raw!r}") from None
            if convert is float and not math.isfinite(value):
                raise ConfigError(f"{origin}:{lineno}: {key} must be finite, got {raw!r}")
            values[section][name] = value
    return values


def _load_preset(name: str) -> dict[str, dict[str, object]]:
    origin = f"<preset:{name}>"
    text = resources.files("swoks.presets").joinpath(f"{name}.cfg").read_text()
    return _convert(parse_config_text(text, origin), origin)


def _build(values: dict[str, dict[str, object]], origin: str, preset: str) -> ExperimentConfig:
    for section, key in _REQUIRED:
        if key not in values.get(section, {}):
            raise ConfigError(f"{origin}: missing [{section}] {key}")
    leaves = values["tasks"]["rewarded_leaves"]
    order = values["curriculum"]["order"]
    if not leaves:
        raise ConfigError(f"{origin}: rewarded_leaves must not be empty")
    for tid in order:
        if tid not in range(1, len(leaves) + 1):
            raise ConfigError(f"{origin}: curriculum task {tid} not defined in [tasks]")
    steps = values["curriculum"]["segment_steps"]
    try:
        config = ExperimentConfig(
            detector=DetectorConfig(**values.get("detector", {})),
            env=TreeGraphConfig(**values.get("env", {})),
            agent=AgentConfig(**values.get("agent", {})),
            tasks=tuple(TaskSpec(task_id=i + 1, rewarded_leaf=leaf) for i, leaf in enumerate(leaves)),
            curriculum=Curriculum(tuple((tid, steps) for tid in order)),
            preset=preset, **values.get("experiment", {}),
        )
    except ValueError as exc:
        raise ConfigError(f"{origin}: {exc}") from None
    n_leaves = config.env.branching ** config.env.depth
    for leaf in leaves:
        if not 0 <= leaf < n_leaves:
            raise ConfigError(f"{origin}: rewarded_leaf {leaf} out of range for {n_leaves} leaves")
    # A KS test whose smallest p-value, ks_pvalue(1, m, n), is not below alpha never rejects.
    d, L = config.detector, config.detector.swd_history_len
    n = d.resolved_probe_samples
    for test, floor, keys in (
            ("shift", ks_pvalue(1.0, L, L), f"swd_history_length = {L}"),
            ("probe", ks_pvalue(1.0, n, L), f"probe_swd_samples = {n} and swd_history_length = {L}")):
        if floor >= d.alpha:
            raise ConfigError(f"{origin}: the {test} test can never reject: at {keys} its smallest "
                              f"p-value, {floor:.3g}, is not below significance_threshold = {d.alpha}")
    return config


def load_config(source: str | Path, seed: int | None = None) -> ExperimentConfig:
    """Load an experiment config from a file path or a preset name.

    A file may name a ``preset`` under ``[experiment]``; its values are
    loaded first and the file's own entries override them. ``seed``
    overrides the master seed when given.
    """
    source = str(source)
    if source in PRESETS:
        origin, values, preset = f"<preset:{source}>", _load_preset(source), source
    else:
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"config file not found: {source}")
        origin = str(path)
        sections = parse_config_text(path.read_text(), origin)
        values = _convert(sections, origin)
        preset = values.get("experiment", {}).pop("preset", None)
        if preset is not None:
            if preset not in PRESETS:
                raise ConfigError(f"{origin}:{sections['experiment']['preset'][1]}: unknown preset "
                                  f"{preset!r}, expected one of {PRESETS}")
            merged = _load_preset(preset)
            for section, entries in values.items():
                merged.setdefault(section, {}).update(entries)
            values = merged
    config = _build(values, origin, preset or source)
    if seed is not None:
        config = replace(config, master_seed=seed)
    return config

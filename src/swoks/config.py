"""Experiment configuration: line-based ``key = value`` files with
``[section]`` headers, preset resolution, and validation that reports
offending line numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .detector import DetectorConfig
from .env import Curriculum, TaskSpec, TreeGraphConfig

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

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, master_seed=seed)


# -- raw text parsing ----------------------------------------------------


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, dict[str, tuple[str, int]]]:
    """Parse ``[section]`` / ``key = value`` lines.

    Returns ``{section: {key: (raw_value, line_number)}}``. Blank lines
    and ``#`` comments are ignored.
    """
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"{origin}:{lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{origin}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (value, lineno)
    return sections


# The sections that build DetectorConfig, TreeGraphConfig and
# AgentConfig: file key -> (dataclass field, value type). Only the keys a
# file sets are passed on, so every default lives in the dataclass.
_FIELDS: dict[str, dict[str, tuple[str, type]]] = {
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
}

_SCHEMA: dict[str, dict[str, type]] = {
    "experiment": {"preset": str, "master_seed": int},
    **{section: {key: kind for key, (_, kind) in keys.items()}
       for section, keys in _FIELDS.items()},
    "tasks": {"rewarded_leaves": str},
    "curriculum": {"order": str, "segment_steps": int},
}


def _validate_keys(sections, origin: str) -> None:
    for section, entries in sections.items():
        if section not in _SCHEMA:
            lineno = min(line for _, line in entries.values()) if entries else 0
            raise ConfigError(f"{origin}:{lineno}: unknown section [{section}]")
        for key, (_, lineno) in entries.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{origin}:{lineno}: unknown key {key!r} in [{section}]")


def _convert(sections, origin: str) -> dict[str, dict[str, object]]:
    out: dict[str, dict[str, object]] = {}
    for section, entries in sections.items():
        out[section] = {}
        for key, (raw, lineno) in entries.items():
            want = _SCHEMA[section][key]
            try:
                value = want(raw)
            except ValueError:
                raise ConfigError(
                    f"{origin}:{lineno}: {key} expects {want.__name__}, got {raw!r}"
                ) from None
            if want is float and not math.isfinite(value):
                raise ConfigError(f"{origin}:{lineno}: {key} must be finite, got {raw!r}")
            out[section][key] = value
    return out


def _merge(base: dict, overlay: dict) -> dict:
    merged = {s: dict(kv) for s, kv in base.items()}
    for section, entries in overlay.items():
        merged.setdefault(section, {})
        merged[section].update(entries)
    return merged


def _preset_text(name: str) -> str:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}, expected one of {PRESETS}")
    return resources.files("swoks.presets").joinpath(f"{name}.cfg").read_text()


def _int_list(raw: str, origin: str, what: str) -> list[int]:
    try:
        return [int(part.strip()) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{origin}: {what} must be a comma-separated integer list, got {raw!r}") from None


def _build(values: dict[str, dict[str, object]], origin: str, preset: str) -> ExperimentConfig:
    def fields(section: str) -> dict[str, object]:
        return {_FIELDS[section][key][0]: value
                for key, value in values.get(section, {}).items()}

    try:
        detector = DetectorConfig(**fields("detector"))
        env_cfg = TreeGraphConfig(**fields("env"))
        agent_cfg = AgentConfig(**fields("agent"))
    except ValueError as exc:
        raise ConfigError(f"{origin}: {exc}") from None

    leaves_raw = values.get("tasks", {}).get("rewarded_leaves")
    if leaves_raw is None:
        raise ConfigError(f"{origin}: missing [tasks] rewarded_leaves")
    leaves = _int_list(str(leaves_raw), origin, "rewarded_leaves")
    if not leaves:
        raise ConfigError(f"{origin}: rewarded_leaves must not be empty")
    tasks = tuple(TaskSpec(task_id=i + 1, rewarded_leaf=leaf) for i, leaf in enumerate(leaves))

    cur = values.get("curriculum", {})
    order_raw = cur.get("order")
    if order_raw is None:
        raise ConfigError(f"{origin}: missing [curriculum] order")
    order = _int_list(str(order_raw), origin, "order")
    segment_steps = cur.get("segment_steps")
    if segment_steps is None:
        raise ConfigError(f"{origin}: missing [curriculum] segment_steps")
    task_ids = {t.task_id for t in tasks}
    for tid in order:
        if tid not in task_ids:
            raise ConfigError(f"{origin}: curriculum task {tid} not defined in [tasks]")
    try:
        curriculum = Curriculum(tuple((tid, int(segment_steps)) for tid in order))
    except ValueError as exc:
        raise ConfigError(f"{origin}: {exc}") from None

    master_seed = values.get("experiment", {}).get("master_seed", 0)
    return ExperimentConfig(
        detector=detector, env=env_cfg, agent=agent_cfg, tasks=tasks,
        curriculum=curriculum, master_seed=int(master_seed), preset=preset,
    )


def load_config(source: str | Path, seed: int | None = None) -> ExperimentConfig:
    """Load an experiment config from a file path or a preset name.

    A file may name a ``preset`` under ``[experiment]``; its values are
    loaded first and the file's own entries override them. ``seed``
    overrides the master seed when given.
    """
    source = str(source)
    if source in PRESETS:
        origin = f"<preset:{source}>"
        sections = parse_config_text(_preset_text(source), origin)
        _validate_keys(sections, origin)
        preset_name = source
    else:
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"config file not found: {source}")
        origin = str(path)
        sections = parse_config_text(path.read_text(), origin)
        _validate_keys(sections, origin)
        preset_name = ""
        preset_entry = sections.get("experiment", {}).get("preset")
        if preset_entry is not None:
            preset_name = preset_entry[0]
            base = parse_config_text(_preset_text(preset_name), f"<preset:{preset_name}>")
            _validate_keys(base, f"<preset:{preset_name}>")
            sections = _merge(base, sections)
    values = _convert(sections, origin)
    values.get("experiment", {}).pop("preset", None)
    config = _build(values, origin, preset_name or source)
    if seed is not None:
        config = config.with_seed(seed)
    return config

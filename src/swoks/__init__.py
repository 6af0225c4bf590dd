"""Online task-change detection for streaming RL experience.

Sliced Wasserstein distances over sliding windows of latent-action-reward
tuples, tested with a one-sided KS statistic, drive label switches in a
per-task policy bank with checkpoint rollback.
"""
from .agent import Encoder, EpisodeBuffer, Policy, PolicyBank
from .config import AgentConfig, ConfigError, ExperimentConfig, load_config
from .detector import (
    EVENT_NEW_TASK,
    EVENT_PROBE_ERROR,
    EVENT_RE_DETECTED,
    EVENT_SUPPRESSED,
    DetectionEvent,
    Detector,
    DetectorConfig,
    TaskLabel,
)
from .env import Curriculum, TaskSpec, TreeGraphConfig, TreeGraphEnv
from .metrics import (
    detection_delay,
    false_positive_rate,
    label_alignment_accuracy,
    optimal_label_map,
    run_included_mask,
    sweep_beta,
)
from .ot import (
    sample_unit_directions,
    sliced_wasserstein,
    wasserstein_1d,
    wasserstein_exact,
)
from .runner import RunResult, detect_offline, run_experiment
from .stats import KsResult, detect_shift, ks_critical, ks_one_sided, ks_pvalue
from .stream import (
    NotReadyError,
    StreamBlock,
    SwdHistory,
    make_datapoints,
    read_stream_blocks,
    write_stream,
)
from .trace import Trace, TraceRow, read_trace, write_events

__version__ = "0.1.0"

__all__ = [
    "AgentConfig",
    "ConfigError",
    "Curriculum",
    "DetectionEvent",
    "Detector",
    "DetectorConfig",
    "Encoder",
    "EpisodeBuffer",
    "EVENT_NEW_TASK",
    "EVENT_PROBE_ERROR",
    "EVENT_RE_DETECTED",
    "EVENT_SUPPRESSED",
    "ExperimentConfig",
    "KsResult",
    "NotReadyError",
    "Policy",
    "PolicyBank",
    "RunResult",
    "StreamBlock",
    "SwdHistory",
    "TaskLabel",
    "TaskSpec",
    "Trace",
    "TraceRow",
    "TreeGraphConfig",
    "TreeGraphEnv",
    "detect_offline",
    "detect_shift",
    "detection_delay",
    "false_positive_rate",
    "ks_critical",
    "ks_one_sided",
    "ks_pvalue",
    "label_alignment_accuracy",
    "load_config",
    "make_datapoints",
    "optimal_label_map",
    "read_stream_blocks",
    "read_trace",
    "run_experiment",
    "run_included_mask",
    "sample_unit_directions",
    "sliced_wasserstein",
    "sweep_beta",
    "wasserstein_1d",
    "wasserstein_exact",
    "write_events",
    "write_stream",
    "__version__",
]

"""Spatiotemporal LID outlier detection for ground-displacement monitoring."""

from types import ModuleType as _ModuleType

from .data import (
    FailureRegion,
    GroundTruth,
    MonitoredPoint,
    MonitoringDataset,
    load_dataset,
    load_ground_truth,
    save_dataset,
    save_ground_truth,
)
from .detection import (
    AlarmDecision,
    DetectionConfig,
    DetectionEvent,
    DetectionState,
    StLidField,
    default_epsilon,
    sigmoid,
    st_lid_field,
    update_detection,
)
from .fusion import (
    FusionConfig,
    GammaParams,
    fuse_all,
    fused_slid,
    gaussian_weights,
    observation_params,
    prior_from_neighbors,
)
from .lid import (
    LidConfig,
    LidField,
    mle_lid,
    s_lid_all,
    t_lid,
    t_lid_field,
)
from .metrics import (
    EvaluationReport,
    benchmark,
    format_lead,
    lead_time,
    precision,
)
from .baselines import (
    BaselineResult,
    dbscan,
    dbscan_labels,
    edq_select,
    kmeans2,
    lof,
    lof_scores,
    raw_slid_baseline,
    write_baseline_scores_csv,
)
from .pipeline import RunResult, iter_run, run_detection
from .synthetic import (
    CreepScenarioSpec,
    generate_creep_scenario,
    shipped_scenario_spec,
)

__version__ = "0.1.0"

__all__ = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)]

"""The package's export list: one list, derived from what ``__init__`` binds."""

import types

import stlid

EXPORTS = [
    "AlarmDecision", "BaselineResult", "CreepScenarioSpec", "DetectionConfig",
    "DetectionEvent", "DetectionState", "EvaluationReport", "FailureRegion",
    "FusionConfig", "GammaParams", "GroundTruth", "LidConfig", "LidField",
    "MonitoredPoint", "MonitoringDataset", "RunResult", "StLidField",
    "benchmark", "dbscan", "dbscan_labels", "default_epsilon", "edq_select",
    "format_lead", "fuse_all", "fused_slid", "gaussian_weights",
    "generate_creep_scenario", "iter_run", "kmeans2", "lead_time", "load_dataset",
    "load_ground_truth", "lof", "lof_scores", "mle_lid", "observation_params",
    "precision", "prior_from_neighbors", "raw_slid_baseline", "run_detection",
    "s_lid_all", "save_dataset", "save_ground_truth", "shipped_scenario_spec",
    "sigmoid", "st_lid_field", "t_lid", "t_lid_field", "update_detection",
    "write_baseline_scores_csv",
]


def test_the_export_set_is_pinned():
    # a name that goes missing or appears by accident fails here
    assert sorted(stlid.__all__) == EXPORTS
    for name in stlid.__all__:
        assert not isinstance(getattr(stlid, name), types.ModuleType), name


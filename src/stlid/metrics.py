"""Precision and lead-time evaluation against ground-truth failure regions.

Precision is the share of a method's detections (its high-risk points at the
time of failure) whose coordinates fall inside any ground-truth rectangle;
with zero detections it is undefined, which is reported as None rather
than 0. Recall is deliberately not computed: a reliable count of all true
failures does not exist for this problem.

Lead time scans backward from the time of failure for the earliest step from
which the method's selected points stay inside the region at every subsequent
step; the strictest reading (zero tolerated excursions) is the default.
Baselines are denoised to their top-10 selection before the scan, while the
st-LID detector keeps its full detection set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import (
    DEFAULT_EDQ_LEVELS,
    BaselineResult,
    dbscan,
    edq_select,
    kmeans2,
    lof,
    slid_result,
)
from .data import REPORT_HEADER, FailureRegion, GroundTruth, MonitoringDataset, fmt_float
from .detection import DetectionConfig, default_epsilon
from .errors import ConfigError, StlidError, require
from .fusion import FusionConfig
from .lid import S_LID_FIRST_COL, T_LID_FIRST_COL, LidConfig
from .pipeline import RunResult, run_detection

METHOD_NAMES = ("kmeans", "dbscan", "lof", "edq", "slid", "stlid")
TOP_SET_SIZE = 10


def precision(detected_coords, truth: GroundTruth):
    """(precision | None, correct, total) of detections against any region."""
    coords = np.asarray(detected_coords, dtype=np.float64).reshape(-1, 2)
    total = coords.shape[0]
    if total == 0:
        return None, 0, 0
    inside = np.zeros(total, dtype=bool)
    for region in truth.regions:
        inside |= region.contains(coords)
    correct = int(inside.sum())
    return correct / total, correct, total


def lead_time(
    top_sets,
    region: FailureRegion,
    coords: np.ndarray,
    step_interval_minutes: float,
    first_step: int,
    slack: int = 0,
):
    """Steps and wall-clock minutes gained over the failure.

    ``top_sets`` maps a step to the method's selected point indices (or None
    where the method is undefined). A step is consistent when the selection
    is non-empty and entirely inside the region; ``slack`` excursion steps may
    be forgiven without breaking the backward scan.
    """
    coords = np.asarray(coords, dtype=np.float64)

    def consistent(step):
        sel = top_sets(step)
        if sel is None or len(sel) == 0:
            return False
        return bool(region.contains(coords[np.asarray(sel, dtype=int)]).all())

    if region.tof < first_step or not consistent(region.tof):
        return 0, 0.0
    t_det = region.tof
    budget = slack
    step = region.tof - 1
    while step >= first_step:
        if consistent(step):
            t_det = step
        elif budget > 0:
            budget -= 1
        else:
            break
        step -= 1
    steps = region.tof - t_det
    return steps, steps * step_interval_minutes


def format_lead(steps: int, minutes: float) -> str:
    """Human form used in reports: '80 (3.3 hrs)', '1726 (3.0 days)', '0'."""
    if steps == 0:
        return "0"
    hours = minutes / 60.0
    if hours < 1.0:
        return f"{steps} ({minutes:.1f} mins)"
    if hours < 24.0:
        return f"{steps} ({hours:.1f} hrs)"
    return f"{steps} ({hours / 24.0:.1f} days)"


@dataclass
class RegionEval:
    label: str
    precision: float | None
    correct: int
    total: int
    lead_steps: int
    lead_minutes: float


@dataclass
class EvaluationReport:
    method: str
    regions: list[RegionEval] = field(default_factory=list)
    result: BaselineResult | None = None  # at the first region's tof; None where undefined
    error: StlidError | None = None  # what the method raised there where undefined
    timing_seconds: float | None = None  # one detection pass at the eval step
    per_step_seconds: tuple | None = None  # (median, max) across pipeline steps

    def region(self, label: str) -> RegionEval:
        for r in self.regions:
            if r.label == label:
                return r
        raise KeyError(label)


@dataclass
class BaselineConfig:
    """Knobs for the comparison methods used by the benchmark."""

    dbscan_eps: float | None = None  # None: 2x median kinematic NN spacing per step
    dbscan_min_pts: int = 4
    lof_k: int = 20
    lof_cutoff: float = 1.5
    edq_levels: tuple = DEFAULT_EDQ_LEVELS

    def validate(self) -> None:
        if self.dbscan_eps is not None:
            require("dbscan_eps", self.dbscan_eps, "(0, inf)")
        require("dbscan_min_pts", self.dbscan_min_pts, "[1, inf)")
        require("lof_k", self.lof_k, "[1, inf)")
        require("lof_cutoff", self.lof_cutoff)
        if not self.edq_levels:
            raise ConfigError("edq_levels must hold at least one level")
        require("edq_levels", np.asarray(self.edq_levels, dtype=np.float64), "[0, 1]")


# the RunResult arrays (steps, values, valid) each detector-based method reads
RUN_ROWS = {
    "slid": ("s_steps", "s_hist", "s_valid_hist"),
    "stlid": ("st_steps", "st_hist", "st_valid_hist"),
}
# first evaluable column per method: two-means needs only displacement, the
# detector a full st-LID field, the rest a velocity
_FIRST_COL = {"kmeans": 0, "stlid": T_LID_FIRST_COL}


def _run_rows(run: RunResult | None, name: str):
    """(steps, values, valid) arrays ``name`` reads from ``run``."""
    names = RUN_ROWS[name]
    rows = [None if run is None else getattr(run, attr) for attr in names]
    if rows[1] is None:
        raise ConfigError(f"method {name!r} needs a run that kept {names[1]}")
    return rows


def method_result(
    name: str,
    dataset: MonitoringDataset,
    step: int,
    baseline_config: BaselineConfig | None = None,
    run: RunResult | None = None,
    threshold: float = 0.5,
) -> BaselineResult:
    """One evaluated method's result at ``step``.

    ``slid`` and ``stlid`` read the rows of a pipeline ``run``; the st-LID
    detector's high-risk set is its valid points at or above ``threshold``,
    in index order. Raises StlidError where the method is undefined.
    """
    blc = baseline_config or BaselineConfig()
    if name == "kmeans":
        return kmeans2(dataset.displacement[:, dataset.column(step)], step=step)
    if name == "dbscan":
        samples = dataset.samples_at(step)
        eps = blc.dbscan_eps
        if eps is None:
            eps = max(default_epsilon(samples), 1e-9)
        return dbscan(samples, eps, blc.dbscan_min_pts, step=step)
    if name == "lof":
        return lof(dataset.samples_at(step), blc.lof_k, blc.lof_cutoff, step=step)
    if name == "edq":
        return edq_select(dataset, blc.edq_levels, end_step=step)
    if name not in RUN_ROWS:
        raise ConfigError(f"unknown method {name!r}; valid: {', '.join(METHOD_NAMES)}")
    steps, values, valid = _run_rows(run, name)
    pos = np.flatnonzero(steps == step)
    if len(pos) == 0:
        raise ConfigError(f"the run holds no {name} field at step {step}")
    if name == "slid":
        return slid_result(values[pos[0]], step)
    high = valid[pos[0]] & (values[pos[0]] >= threshold)
    return BaselineResult("stlid", step, values[pos[0]], high, np.flatnonzero(high))


def benchmark(
    dataset: MonitoringDataset,
    truth: GroundTruth,
    methods=METHOD_NAMES,
    lid_config: LidConfig | None = None,
    fusion_config: FusionConfig | None = None,
    detection_config: DetectionConfig | None = None,
    baseline_config: BaselineConfig | None = None,
    parallel: int = 1,
    run: RunResult | None = None,
    max_backscan: int | None = None,
) -> list[EvaluationReport]:
    """Evaluate each method's precision and lead time on every truth region.

    A prior pipeline RunResult can be passed to avoid rerunning st-LID; it
    must keep the fields the methods read (store="all" for slid, "all" or
    "st" for stlid). Otherwise one run is executed with the given configs,
    keeping only those fields. ``max_backscan`` caps how many steps before
    each failure the lead-time scan reaches.
    """
    truth.validate_against(dataset)
    for m in methods:
        if m not in METHOD_NAMES:
            raise ConfigError(f"unknown method {m!r}; valid: {', '.join(METHOD_NAMES)}")
    baseline_config = baseline_config or BaselineConfig()
    baseline_config.validate()
    if max_backscan is not None:
        require("max_backscan", max_backscan, "[0, inf)")
    needs_run = [m for m in methods if m in RUN_ROWS]
    if needs_run and run is None:
        run = run_detection(
            dataset,
            truth=truth,
            lid_config=lid_config,
            fusion_config=fusion_config,
            detection_config=detection_config,
            parallel=parallel,
            store="all" if "slid" in needs_run else "st",
        )
    for m in needs_run:  # fail before evaluating when the run lacks a method's rows
        _run_rows(run, m)

    det_threshold = (detection_config or DetectionConfig()).threshold
    reports = []
    for name in methods:
        memo = {}

        def result_at(step):
            # (result, None), or (None, the error) where the method is undefined at the step
            if step not in memo:
                try:
                    res = method_result(name, dataset, step, baseline_config, run, det_threshold)
                    memo[step] = res, None
                except StlidError as exc:
                    memo[step] = None, exc
            return memo[step]

        # the detector keeps its full detection set; baselines their top 10
        top_size = None if name == "stlid" else TOP_SET_SIZE

        def top_set_at(step):
            res, _ = result_at(step)
            return None if res is None else res.ranking[:top_size]

        report = EvaluationReport(method=name)
        if name == "stlid" and run.per_step_seconds is not None:
            report.per_step_seconds = (
                float(np.median(run.per_step_seconds)),
                float(run.per_step_seconds.max()),
            )
        t0 = time.perf_counter()
        report.result, report.error = result_at(truth.regions[0].tof)
        report.timing_seconds = time.perf_counter() - t0
        for region in truth.regions:
            res, _ = result_at(region.tof)
            det = np.empty(0, dtype=int) if res is None else np.flatnonzero(res.high_risk)
            prec, correct, total = precision(dataset.coords[det], truth)
            first = dataset.start_step + _FIRST_COL.get(name, S_LID_FIRST_COL)
            if max_backscan is not None:
                first = max(first, region.tof - max_backscan)
            steps, minutes = lead_time(
                top_set_at,
                region,
                dataset.coords,
                dataset.step_interval_minutes,
                first_step=first,
            )
            report.regions.append(
                RegionEval(region.label, prec, correct, total, steps, minutes)
            )
        reports.append(report)
    return reports


def report_table(reports: list[EvaluationReport]) -> str:
    """Aligned text table: precision and lead time per method and region."""
    if not reports:
        return ""
    labels = [r.label for r in reports[0].regions]
    rows = [["metric", "method", *labels, "time"]]
    for rep in reports:
        cells = [
            "n.a." if r.precision is None else f"{r.precision:.3f}" for r in rep.regions
        ]
        timing = f"{rep.timing_seconds:.3f} s" if rep.timing_seconds is not None else ""
        rows.append(["Prec.", rep.method, *cells, timing])
    for rep in reports:
        cells = [format_lead(r.lead_steps, r.lead_minutes) for r in rep.regions]
        per_step = (
            f"{rep.per_step_seconds[0]:.3f} s/step"
            if rep.per_step_seconds is not None
            else ""
        )
        rows.append(["Lead", rep.method, *cells, per_step])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def report_csv(reports: list[EvaluationReport]) -> str:
    lines = [",".join(REPORT_HEADER)]
    for rep in reports:
        for r in rep.regions:
            prec = "" if r.precision is None else fmt_float(r.precision)
            timing = "" if rep.timing_seconds is None else fmt_float(rep.timing_seconds)
            lines.append(
                f"{rep.method},{r.label},{prec},{r.correct},{r.total},"
                f"{r.lead_steps},{fmt_float(r.lead_minutes)},{timing}"
            )
    return "\n".join(lines) + "\n"

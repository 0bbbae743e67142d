"""Precision and lead-time evaluation against ground-truth failure regions.

Precision is the share of a method's detections (its high-risk points at the
time of failure) whose coordinates fall inside any ground-truth rectangle;
with zero detections it is undefined, which is reported as None rather
than 0. Recall is deliberately not computed: a reliable count of all true
failures does not exist for this problem.

Lead time scans backward from the time of failure for the earliest step from
which the method's selected points stay inside the region at every subsequent
step; the scan is strict, so the first excursion ends it.
Baselines are denoised to their top-10 selection before the scan, while the
st-LID detector keeps its full detection set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import (
    BaselineResult,
    dbscan,
    edq_select,
    kmeans2,
    lof,
    slid_result,
)
from .data import REPORT_HEADER, FailureRegion, GroundTruth, MonitoringDataset, fmt_float
from .detection import THRESHOLD, DetectionConfig, default_epsilon
from .errors import ConfigError, DataError, StlidError, require_int
from .fusion import FusionConfig
from .lid import S_LID_FIRST_COL, LidConfig
from .pipeline import iter_run

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
):
    """Steps and wall-clock minutes gained over the failure.

    ``top_sets`` maps a step to the method's selected point indices (or None
    where the method is undefined). A step is consistent when the selection
    is non-empty and entirely inside the region; the backward scan ends at
    the first step that is not.
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
    while t_det > first_step and consistent(t_det - 1):
        t_det -= 1
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


def method_result(name: str, dataset: MonitoringDataset, step: int) -> BaselineResult:
    """Baseline ``name``'s (kmeans, dbscan, lof or edq) result at ``step``, each
    at its function's default settings and DBSCAN at the step's eps (twice the
    median kinematic NN spacing); StlidError where it is undefined.
    ``benchmark`` streams slid and stlid."""
    if name == "kmeans":
        return kmeans2(dataset.displacement[:, dataset.column(step)], step=step)
    if name == "dbscan":
        samples = dataset.samples_at(step)
        return dbscan(samples, max(default_epsilon(samples), 1e-9), step=step)
    if name == "lof":
        return lof(dataset.samples_at(step), step=step)
    if name == "edq":
        return edq_select(dataset, end_step=step)
    raise ConfigError(f"unknown method {name!r}; valid: {', '.join(METHOD_NAMES)}")


def _streamed(names, dataset, tofs, **run_args):
    """One ``iter_run`` stream to the last time of failure, read for the
    detector methods ``names``: each one's (result, None) or (None, error) at
    each time of failure, its top set at each step (None where undefined),
    and each step's seconds. The st-LID high set is its valid points at or
    above the alarm's ``THRESHOLD``, in index order."""
    results = {m: {t: (None, ConfigError(f"the run holds no {m} field at step {t}"))
                   for t in tofs} for m in names}
    tops, seconds = {m: {} for m in names}, {}
    stop = max(*tofs, dataset.start_step + S_LID_FIRST_COL)  # no stop inside the warm-up
    for rec in iter_run(dataset, stop_step=stop, **run_args):
        seconds[rec.step] = rec.seconds
        for name in names:
            fld = rec.s if name == "slid" else rec.st
            if fld is None:
                continue
            try:
                if name == "slid":
                    res = slid_result(fld.values, rec.step)
                else:
                    high = fld.valid & (fld.values >= THRESHOLD)
                    res = BaselineResult("stlid", rec.step, fld.values, high, np.flatnonzero(high))
                # the detector keeps its full detection set, raw s-LID its top 10
                # (a copy, so that no view keeps the step's whole ranking)
                top = res.ranking[:TOP_SET_SIZE if name == "slid" else None].copy()
                result = res, None
            except StlidError as exc:
                result, top = (None, exc), None
            tops[name][rec.step] = top
            if rec.step in tofs:
                results[name][rec.step] = result
    return results, tops, seconds


def benchmark(
    dataset: MonitoringDataset,
    truth: GroundTruth,
    methods=METHOD_NAMES,
    lid_config: LidConfig | None = None,
    fusion_config: FusionConfig | None = None,
    detection_config: DetectionConfig | None = None,
    parallel: int = 1,
    max_backscan: int | None = None,
) -> list[EvaluationReport]:
    """Evaluate each method's precision and lead time on every truth region.

    ``slid`` and ``stlid`` read one detector run with the given configs,
    streamed up to the last time of failure: per step only the set the
    lead-time scan reads is kept, and the full result only at each time of
    failure. A baseline is computed at each step the scan reaches, which
    ``max_backscan`` caps. DataError when the truth holds no region.
    """
    if not truth.regions:
        raise DataError("the truth holds no failure region")
    truth.validate_against(dataset)
    for i, m in enumerate(methods):
        if m not in METHOD_NAMES:
            raise ConfigError(f"unknown method {m!r}; valid: {', '.join(METHOD_NAMES)}")
        if m in methods[:i]:
            raise ConfigError(f"method {m!r} is named twice")
    if max_backscan is not None:
        require_int("max_backscan", max_backscan, "[0, inf)")
    results, tops, seconds = {}, {}, {}
    if "slid" in methods or "stlid" in methods:
        results, tops, seconds = _streamed(
            [m for m in ("slid", "stlid") if m in methods], dataset, {r.tof for r in truth.regions},
            lid_config=lid_config, fusion_config=fusion_config,
            detection_config=detection_config, parallel=parallel,
        )

    reports = []
    for name in methods:
        memo = results.get(name, {})  # the stream filled a detector's at every failure

        def result_at(step):
            # (result, None), or (None, the error) where the method is undefined at the step
            if step not in memo:
                try:
                    memo[step] = method_result(name, dataset, step), None
                except StlidError as exc:
                    memo[step] = None, exc
            return memo[step]

        def top_set_at(step):
            if name in tops:  # kept by the stream
                return tops[name].get(step)
            res, _ = result_at(step)
            return None if res is None else res.ranking[:TOP_SET_SIZE]

        report = EvaluationReport(method=name)
        if name == "stlid":
            steps = list(seconds.values())
            report.per_step_seconds = float(np.median(steps)), float(max(steps))
        t0 = time.perf_counter()
        report.result, report.error = result_at(truth.regions[0].tof)
        report.timing_seconds = (
            seconds.get(truth.regions[0].tof) if name in tops else time.perf_counter() - t0
        )
        for region in truth.regions:
            res, _ = result_at(region.tof)
            det = np.empty(0, dtype=int) if res is None else np.flatnonzero(res.high_risk)
            prec, correct, total = precision(dataset.coords[det], truth)
            # every scan ends by itself at the first step where its method is undefined
            first = dataset.start_step
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

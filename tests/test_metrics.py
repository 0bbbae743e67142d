import gc
import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import stlid.lid
import stlid.metrics
from stlid import (
    BaselineResult,
    CreepScenarioSpec,
    EvaluationReport,
    FailureRegion,
    GroundTruth,
    LidConfig,
    MonitoringDataset,
    benchmark,
    format_lead,
    generate_creep_scenario,
    lead_time,
    precision,
    run_detection,
)
from stlid.baselines import slid_result
from stlid.detection import THRESHOLD
from stlid.errors import ConfigError, DataError, StlidError
from stlid.lid import S_LID_FIRST_COL, T_LID_FIRST_COL
from stlid.metrics import (
    METHOD_NAMES, TOP_SET_SIZE, RegionEval, method_result, report_csv, report_table,
)

from conftest import make_dataset

REGION = FailureRegion("r", 0.0, 0.0, 10.0, 10.0, 1000)
TRUTH = GroundTruth([REGION])


def test_precision_all_inside():
    coords = np.full((10, 2), 5.0)
    p, correct, total = precision(coords, TRUTH)
    assert p == 1.0 and correct == 10 and total == 10


def test_precision_empty_is_undefined():
    p, correct, total = precision(np.empty((0, 2)), TRUTH)
    assert p is None and correct == 0 and total == 0


def test_precision_partial():
    coords = np.array([[5.0, 5.0], [5.0, 6.0], [20.0, 20.0], [30.0, 0.0],
                       [15.0, 15.0], [11.0, 0.0], [0.0, 11.0], [12.0, 12.0]])
    p, correct, total = precision(coords, TRUTH)
    assert p == 0.25 and correct == 2 and total == 8


def test_precision_monotonicity():
    rng = np.random.default_rng(0)
    coords = list(rng.uniform(0, 10, size=(5, 2)))
    for _ in range(20):
        p0, *_ = precision(np.array(coords), TRUTH)
        with_correct = coords + [np.array([5.0, 5.0])]
        with_wrong = coords + [np.array([50.0, 50.0])]
        assert precision(np.array(with_correct), TRUTH)[0] >= p0
        assert precision(np.array(with_wrong), TRUTH)[0] <= p0
        coords = with_correct if rng.uniform() < 0.5 else with_wrong


def grid_coords():
    return np.array([(float(i % 40), float(i // 40)) for i in range(1600)])


def test_lead_time_hand_trace():
    # inside from step 990 through the failure at 1000, one excursion at 995
    coords = grid_coords()
    inside_set = [5]  # coords[5] = (5, 0), inside the rectangle
    outside_set = [45 + 40 * 20]  # far row, outside

    def sets(step):
        if 990 <= step <= 1000 and step != 995:
            return inside_set
        if step == 995:
            return outside_set
        return outside_set

    region = FailureRegion("r", 0.0, 0.0, 10.0, 10.0, 1000)
    steps, minutes = lead_time(sets, region, coords, 2.5, first_step=0)
    assert steps == 4  # from 996
    assert minutes == 10.0


def test_lead_time_never_inside_is_zero():
    coords = grid_coords()

    def sets(step):
        return [1599]  # always outside

    steps, minutes = lead_time(sets, REGION, coords, 1.0, first_step=0)
    assert steps == 0 and minutes == 0.0


def test_lead_time_empty_breaks():
    coords = grid_coords()

    def sets(step):
        return [5] if step >= 998 else []

    steps, _ = lead_time(sets, REGION, coords, 1.0, first_step=0)
    assert steps == 2


def test_lead_time_an_excursion_ends_the_scan():
    coords = grid_coords()
    asked = []

    def sets(step):
        asked.append(step)
        if step == 995:
            return [1599]
        return [5] if step >= 990 else [1599]

    assert lead_time(sets, REGION, coords, 1.0, first_step=0) == (4, 4.0)
    assert asked == [1000, 999, 998, 997, 996, 995]  # no step before the excursion is read


def test_lead_time_monotone_in_region_size():
    rng = np.random.default_rng(1)
    coords = grid_coords()
    picks = {s: [int(rng.integers(0, 1600))] for s in range(900, 1001)}

    def sets(step):
        return picks.get(step, [0])

    small = FailureRegion("s", 0.0, 0.0, 8.0, 8.0, 1000)
    large = FailureRegion("l", 0.0, 0.0, 30.0, 30.0, 1000)
    lead_small, _ = lead_time(sets, small, coords, 1.0, first_step=900)
    lead_large, _ = lead_time(sets, large, coords, 1.0, first_step=900)
    assert lead_large >= lead_small


def test_worked_lead_arithmetic():
    # detection at step 3305 against a failure at 3385 on a 2.5-minute interval:
    # 80 steps, which the report renders as 3.3 hours
    coords = grid_coords()

    def sets(step):
        return [5] if step >= 3305 else [1599]

    region = FailureRegion("c1", 0.0, 0.0, 10.0, 10.0, 3385)
    steps, minutes = lead_time(sets, region, coords, 2.5, first_step=3200)
    assert steps == 80
    assert minutes == 200.0
    assert format_lead(steps, minutes) == "80 (3.3 hrs)"


def test_format_lead_variants():
    assert format_lead(0, 0.0) == "0"
    assert format_lead(10, 25.0) == "10 (25.0 mins)"
    assert format_lead(214, 214 * 6.0) == "214 (21.4 hrs)"
    assert format_lead(1726, 1726 * 2.5) == "1726 (3.0 days)"
    assert format_lead(427, 427 * 6.0) == "427 (1.8 days)"


def test_benchmark_small_scenario(small_scenario):
    ds, truth = small_scenario
    reports = benchmark(ds, truth, max_backscan=120)
    assert [r.method for r in reports] == list(METHOD_NAMES)
    by_name = {r.method: r for r in reports}
    st = by_name["stlid"].region("failure")
    sl = by_name["slid"].region("failure")
    assert st.precision == 1.0
    assert st.precision >= (sl.precision or 0.0)
    assert st.lead_steps > 0
    for rep in reports:
        assert rep.timing_seconds is not None and rep.timing_seconds >= 0.0
    assert by_name["stlid"].per_step_seconds is not None

    table = report_table(reports)
    assert "stlid" in table and "Prec." in table and "failure" in table
    csv_text = report_csv(reports)
    header = csv_text.splitlines()[0]
    assert header.startswith("method,region,precision")
    assert "recall" not in csv_text.lower()
    assert len(csv_text.strip().splitlines()) == 1 + len(reports)


def test_benchmark_rejects_unknown_method(small_scenario):
    ds, truth = small_scenario
    with pytest.raises(ConfigError, match="unknown method"):
        benchmark(ds, truth, methods=("kmeans", "svm"))


def test_benchmark_refuses_a_repeated_method_before_any_run(small_scenario, monkeypatch):
    # it used to report the method twice, once per name
    ds, truth = small_scenario

    def no_run(*args, **kwargs):
        raise AssertionError("the detector ran")

    monkeypatch.setattr(stlid.metrics, "iter_run", no_run)
    monkeypatch.setattr(stlid.metrics, "kmeans2", no_run)
    with pytest.raises(ConfigError, match="method 'kmeans' is named twice"):
        benchmark(ds, truth, methods=("kmeans", "slid", "kmeans"))


def test_benchmark_refuses_a_truth_with_no_region_before_any_run(small_scenario, monkeypatch):
    ds, _ = small_scenario

    def no_run(*args, **kwargs):
        raise AssertionError("the detector ran")

    monkeypatch.setattr(stlid.metrics, "iter_run", no_run)
    with pytest.raises(DataError, match="the truth holds no failure region"):
        benchmark(ds, GroundTruth([]), methods=("kmeans", "slid", "stlid"))


@pytest.mark.parametrize("kwargs, key", [
    ({"max_backscan": -1}, "max_backscan"),
])
def test_benchmark_rejects_bad_settings(grid_noise_dataset, kwargs, key):
    truth = GroundTruth([FailureRegion("r", 0.0, 0.0, 4.0, 4.0, 30)])
    with pytest.raises(ConfigError, match=key):
        benchmark(grid_noise_dataset, truth, methods=("kmeans",), **kwargs)


def test_benchmark_reports_the_error_of_an_undefined_method(grid_noise_dataset):
    ds = grid_noise_dataset
    ds.displacement[:, ds.column(30)] = 1.0  # two-means is undefined at the failure
    truth = GroundTruth([FailureRegion("r", 0.0, 0.0, 4.0, 4.0, 30)])
    kmeans, lof_report = benchmark(ds, truth, methods=("kmeans", "lof"), max_backscan=3)
    assert kmeans.result is None and kmeans.region("r").precision is None
    assert "two-means undefined" in str(kmeans.error)
    assert lof_report.result is not None and lof_report.error is None


def test_benchmark_times_the_detectors_by_their_step_at_the_first_failure(
    grid_noise_dataset, monkeypatch
):
    ds = grid_noise_dataset
    # the first region fails before the second, so the stream runs past it
    truth = GroundTruth([FailureRegion("a", 0.0, 0.0, 4.0, 4.0, 25),
                         FailureRegion("b", 0.0, 0.0, 4.0, 4.0, 30)])
    records = []
    real = stlid.metrics.iter_run

    def recorded(*args, **kwargs):
        for rec in real(*args, **kwargs):
            records.append(rec)
            yield rec

    monkeypatch.setattr(stlid.metrics, "iter_run", recorded)
    reports = benchmark(ds, truth, methods=("slid", "stlid", "kmeans"), max_backscan=3)
    seconds = {rec.step: rec.seconds for rec in records}
    assert max(seconds) == 30
    slid_report, stlid_report, kmeans_report = reports
    assert slid_report.timing_seconds == stlid_report.timing_seconds == seconds[25]
    assert kmeans_report.timing_seconds is not None and kmeans_report.timing_seconds >= 0.0


def test_benchmark_computes_each_step_once(small_scenario, monkeypatch):
    ds, truth = small_scenario
    calls = Counter()
    real = stlid.metrics.kmeans2

    def counted(values, *args, **kwargs):
        calls[np.asarray(values).tobytes()] += 1  # one displacement column per step
        return real(values, *args, **kwargs)

    monkeypatch.setattr(stlid.metrics, "kmeans2", counted)
    (report,) = benchmark(ds, truth, methods=("kmeans",), max_backscan=30)
    tof_column = ds.displacement[:, ds.column(truth.regions[0].tof)]
    assert report.region("failure").lead_steps > 0
    assert calls[tof_column.tobytes()] == 1
    assert set(calls.values()) == {1}


def test_report_has_no_recall_field():
    fields = {f.name for f in EvaluationReport.__dataclass_fields__.values()}
    assert "recall" not in fields


# settings under which the detector leads the 12 x 10 scenario's failure
DIFF_RUN = dict(lid_config=LidConfig(s=10))


def _reference_reports(ds, truth, max_backscan):
    """Each method's (regions, result at the first failure, its error), as the
    evaluation read a whole ``run_detection(store="all")`` run before the
    benchmark streamed it: the detector results come from the history rows."""
    run = run_detection(ds, store="all", **DIFF_RUN)
    rows = {"slid": (run.s_steps, run.s_hist, run.s_valid_hist),
            "stlid": (run.st_steps, run.st_hist, run.st_valid_hist)}

    def result(name, step):
        if name not in rows:
            return method_result(name, ds, step)
        steps, values, valid = rows[name]
        pos = np.flatnonzero(steps == step)
        if len(pos) == 0:
            raise ConfigError(f"the run holds no {name} field at step {step}")
        if name == "slid":
            return slid_result(values[pos[0]], step)
        high = valid[pos[0]] & (values[pos[0]] >= THRESHOLD)
        return BaselineResult("stlid", step, values[pos[0]], high, np.flatnonzero(high))

    reference = {}
    for name in METHOD_NAMES:
        def at(step, name=name):
            try:
                return result(name, step), None
            except StlidError as exc:
                return None, exc

        def top(step, name=name):
            res, _ = at(step)
            return None if res is None else res.ranking[:None if name == "stlid" else TOP_SET_SIZE]

        regions = []
        for region in truth.regions:
            res, _ = at(region.tof)
            det = np.empty(0, dtype=int) if res is None else np.flatnonzero(res.high_risk)
            first_col = {"kmeans": 0, "stlid": T_LID_FIRST_COL}.get(name, S_LID_FIRST_COL)
            first = ds.start_step + first_col
            if max_backscan is not None:
                first = max(first, region.tof - max_backscan)
            lead = lead_time(top, region, ds.coords, ds.step_interval_minutes, first_step=first)
            regions.append(RegionEval(region.label, *precision(ds.coords[det], truth), *lead))
        reference[name] = regions, *at(truth.regions[0].tof)
    return reference


def test_every_lead_scan_starts_at_the_first_step():
    # two-means and EDQ read displacement only, so both are defined from the
    # first step; with every point inside the region both lead back to it
    ds = make_dataset(np.random.default_rng(0).normal(size=(3, 8)))
    truth = GroundTruth([FailureRegion("r", -1.0, -1.0, 3.0, 1.0, 6)])
    reports = benchmark(ds, truth, methods=("kmeans", "edq"))
    assert [rep.region("r").lead_steps for rep in reports] == [6, 6]


@pytest.fixture(scope="module")
def twelve_by_ten():
    """120 points x 120 steps from step 5, and the region that fails at column 100."""
    spec = CreepScenarioSpec(
        grid_nx=12, grid_ny=10, num_steps=120, noise_sd=0.08, region=(4.0, 3.0, 8.0, 7.0),
        time_of_failure=100, onset_step=60, steady_rate=0.3, rate_floor=0.5,
        bump_width=0.45, rate_jitter=0.06, slip_theta=0.0, seed=3,
    )
    ds, truth = generate_creep_scenario(spec)
    shifted = MonitoringDataset(ds.points, ds.displacement, ds.step_interval_minutes, start_step=5)
    return shifted, truth.regions[0]


@pytest.mark.parametrize("max_backscan", [None, 0, 30])
@pytest.mark.parametrize("case", ["two-regions", "before-st-lid", "first-step", "noise-grid"])
def test_the_streamed_benchmark_equals_the_whole_run_evaluation(
    twelve_by_ten, grid_noise_dataset, case, max_backscan
):
    ds, failure = twelve_by_ten
    box = failure.xmin, failure.ymin, failure.xmax, failure.ymax
    regions = {
        "two-regions": [FailureRegion("failure", *box, 105), FailureRegion("wide", 3, 2, 9, 8, 85)],
        "before-st-lid": [FailureRegion("failure", *box, 7)],  # st-LID starts at step 8
        "first-step": [FailureRegion("failure", *box, 5)],
        # raw s-LID's high sets outgrow its top 10 on noise, and the cut changes its lead
        "noise-grid": [FailureRegion("all-but-the-top-row", 0, 0, 15, 14, 30)],
    }[case]
    if case == "noise-grid":
        ds = grid_noise_dataset
    truth = GroundTruth(regions)
    reference = _reference_reports(ds, truth, max_backscan)
    reports = benchmark(ds, truth, max_backscan=max_backscan, parallel=2, **DIFF_RUN)
    assert [r.method for r in reports] == list(METHOD_NAMES)
    for report in reports:
        regions, result, error = reference[report.method]
        assert report.regions == regions, report.method
        assert (report.result is None) == (result is None), report.method
        if result is not None:
            for f in fields(BaselineResult):
                got, want = getattr(report.result, f.name), getattr(result, f.name)
                assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want
        assert type(report.error) is type(error) and str(report.error) == str(error), report.method
    if case == "before-st-lid":
        assert str(reports[-1].error) == "the run holds no stlid field at step 7"
    if case == "two-regions" and max_backscan != 0:  # each detector method leads the failure
        assert all(r.regions[0].lead_steps > 0 for r in reports[-2:])


@pytest.mark.parametrize("parallel", [1, 2])
def test_benchmark_holds_no_history_sized_array(parallel, monkeypatch):
    # as test_pipeline's run-memory test: 32 KB tiles, full at both lengths,
    # and the dataset is built before the trace starts; the failure is at the
    # last step, so the run covers the whole dataset
    monkeypatch.setattr(stlid.lid, "_TILE_CELLS", 4096)
    n, steps = 400, 150
    coords = [(float(i % 20), float(i // 20)) for i in range(n)]
    peaks = []
    for t in (steps, 2 * steps):
        rng = np.random.default_rng(7)
        ds = make_dataset(np.cumsum(rng.normal(0, 0.1, size=(n, t)), axis=1), coords=coords)
        truth = GroundTruth([FailureRegion("r", 0.0, 0.0, 4.0, 4.0, t - 1)])
        # a full collection empties the interpreter's free lists, so that both
        # traces count the same allocations whatever the tests before left there
        gc.collect()
        tracemalloc.start()
        try:
            reports = benchmark(ds, truth, methods=("slid", "stlid"), parallel=parallel)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert [r.result.step for r in reports] == [t - 1, t - 1]
    # one more n x steps float64 array would add n * steps * 8 bytes; the top
    # sets kept per step (ten s-LID points, about 35 st-LID points here) add
    # about 0.9 of the bound
    assert peaks[1] - peaks[0] < n * steps * 8 / 4, peaks

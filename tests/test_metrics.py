from collections import Counter

import numpy as np
import pytest

import stlid.metrics
from stlid import (
    EvaluationReport,
    FailureRegion,
    GroundTruth,
    LidConfig,
    benchmark,
    format_lead,
    lead_time,
    precision,
    run_detection,
)
from stlid.errors import ConfigError
from stlid.metrics import METHOD_NAMES, report_csv, report_table

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


def test_lead_time_slack_forgives_excursion():
    coords = grid_coords()

    def sets(step):
        if step == 995:
            return [1599]
        return [5] if step >= 990 else [1599]

    strict, _ = lead_time(sets, REGION, coords, 1.0, first_step=0)
    lax, _ = lead_time(sets, REGION, coords, 1.0, first_step=0, slack=1)
    assert strict == 4
    assert lax == 10


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


def test_benchmark_rejects_run_without_method_rows(grid_noise_dataset):
    ds = grid_noise_dataset
    truth = GroundTruth([FailureRegion("r", 0.0, 0.0, 4.0, 4.0, 30)])
    lid = LidConfig(s=6)
    lean = run_detection(ds, lid_config=lid, store="none")
    st_only = run_detection(ds, lid_config=lid, store="st")
    with pytest.raises(ConfigError, match="st_hist"):
        benchmark(ds, truth, methods=("stlid",), run=lean)
    with pytest.raises(ConfigError, match="s_hist"):
        benchmark(ds, truth, methods=("slid",), run=st_only)
    (report,) = benchmark(ds, truth, methods=("stlid",), run=st_only)
    assert report.method == "stlid"


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

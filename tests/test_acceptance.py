"""Acceptance gate: one test per release criterion, each printing a PASS line.

The heavyweight fixtures (the bundled 2000-point scenario, its noise-only
control, and the 2622-point timing scenario) are module-scoped so the
end-to-end run is paid once and shared by the criteria that inspect it.
"""

import os
import time

import numpy as np
import pytest

from stlid import (
    CreepScenarioSpec,
    DetectionConfig,
    DetectionState,
    FailureRegion,
    GammaParams,
    StLidField,
    benchmark,
    dbscan_labels,
    edq_select,
    format_lead,
    fused_slid,
    generate_creep_scenario,
    lead_time,
    lof_scores,
    precision,
    prior_from_neighbors,
    run_detection,
    shipped_scenario_spec,
    update_detection,
)
from stlid.lid import lid_rows

from conftest import make_dataset
from test_baselines import (
    labels_match_up_to_renaming,
    reference_dbscan,
    reference_edq,
    reference_lof,
)


@pytest.fixture(scope="module")
def shipped_run():
    spec = shipped_scenario_spec()
    t0 = time.perf_counter()
    dataset, truth = generate_creep_scenario(spec)
    run = run_detection(dataset, truth=truth, parallel=1, store="st")
    seconds = time.perf_counter() - t0
    return dataset, truth, run, seconds


def noise_only_spec(seed: int = 77) -> CreepScenarioSpec:
    """Control twin of the shipped scenario: same grid and noise, no failure."""
    spec = shipped_scenario_spec(seed=seed)
    spec.region = None
    spec.time_of_failure = None
    spec.onset_step = None
    return spec


@pytest.fixture(scope="module")
def control_run():
    spec = noise_only_spec()
    t0 = time.perf_counter()
    dataset, _ = generate_creep_scenario(spec)
    run = run_detection(dataset, parallel=1, store="st")
    seconds = time.perf_counter() - t0
    return run, seconds


def test_criterion_1_estimator_recovers_ball_dimension():
    rng = np.random.default_rng(20240501)
    n, s = 5000, 100
    t0 = time.perf_counter()
    medians = {}
    for d in (1, 2, 3):
        u = rng.standard_normal((n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        pts = u * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / d)
        from scipy.spatial import cKDTree

        tree = cKDTree(pts)
        interior = np.flatnonzero(np.linalg.norm(pts, axis=1) < 0.6)
        dist, _ = tree.query(pts[interior], k=s + 1)
        values, valid = lid_rows(dist[:, 1:])
        assert valid.all()
        med = float(np.median(values))
        medians[d] = med
        assert 0.7 * d <= med <= 1.3 * d, f"d={d}: median {med:.3f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(
        "[criterion 1] PASS - ball-dimension medians "
        + ", ".join(f"d={d}: {m:.3f}" for d, m in medians.items())
        + f" (all within +-30%), {elapsed:.1f}s"
    )


def test_criterion_2_gamma_conjugacy_algebra():
    rng = np.random.default_rng(77)
    worst_mean, worst_var = 0.0, 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 20))
        slids = rng.uniform(0.1, 12.0, size=k)
        w = rng.uniform(0.01, 1.0, size=k)
        w /= w.sum()
        p = prior_from_neighbors(slids, w)
        mu = float(np.dot(w, slids))
        var = max(float(np.dot(w, (slids - mu) ** 2)), 1e-6)
        err_mean = abs(p.alpha / p.beta - mu) / max(1.0, mu)
        err_var = abs(p.alpha / p.beta**2 - var) / max(1.0, var)
        worst_mean = max(worst_mean, err_mean)
        worst_var = max(worst_var, err_var)
        assert err_mean <= 1e-12 and err_var <= 1e-12
        obs = GammaParams(float(rng.integers(1, 30)), float(rng.uniform(0.0, 5.0)))
        assert fused_slid(p, obs) == (p.alpha + obs.alpha) / (p.beta + obs.beta)
    print(
        f"[criterion 2] PASS - 1000 draws, worst mean error {worst_mean:.2e}, "
        f"worst variance error {worst_var:.2e}, posterior mean exact"
    )


def test_criterion_3_brute_force_oracle_equivalence():
    rng = np.random.default_rng(555)
    for trial in range(100):
        n = int(rng.integers(10, 101))
        scale = float(rng.choice([0.3, 1.0, 3.0]))
        x = rng.normal(0.0, scale, size=(n, 2))
        eps = float(rng.uniform(0.2, 1.2)) * scale
        min_pts = int(rng.integers(2, 7))
        assert labels_match_up_to_renaming(
            dbscan_labels(x, eps, min_pts), reference_dbscan(x, eps, min_pts)
        ), f"dbscan mismatch on trial {trial}"
        k = int(rng.integers(2, min(10, n - 1)))
        assert np.allclose(
            lof_scores(x, k), reference_lof(x, k), atol=1e-9
        ), f"lof mismatch on trial {trial}"
    edq_checked = 0
    for trial in range(20):
        series = rng.normal(0, 1, size=(20, 12)).cumsum(axis=1)
        ds = make_dataset(series)
        for q in (0.5, 0.7, 0.9):
            got = edq_select(ds, [q]).edq_selection[0][0]
            assert got == reference_edq(series, q)
            edq_checked += 1
    print(
        "[criterion 3] PASS - dbscan labels and lof scores match brute-force "
        f"references on 100 instances; {edq_checked} quantile selections exact"
    )


def test_criterion_4_end_to_end_detection(shipped_run, control_run):
    dataset, truth, run, seconds = shipped_run
    control, control_seconds = control_run
    region = truth.regions[0]

    assert len(run.events) == 1, f"expected exactly one event, got {run.events}"
    event = run.events[0]
    assert region.contains(np.array([event.location]))[0], "event outside truth"
    lead_steps, _ = run.lead_times[region.label]
    assert event.detection_step < region.tof
    assert lead_steps > 0

    at_tof = int(np.flatnonzero(run.st_steps == region.tof)[0])
    detected = run.st_valid_hist[at_tof] & (run.st_hist[at_tof] >= 0.5)
    prec, correct, total = precision(dataset.coords[detected], truth)
    assert total > 0, "no detections at the time of failure"
    assert prec == 1.0, f"precision {prec} ({correct}/{total})"

    assert control.events == [], f"control scenario fired {control.events}"
    elapsed = seconds + control_seconds
    assert elapsed < 300.0, f"end-to-end took {elapsed:.0f}s"
    print(
        f"[criterion 4] PASS - one event at step {event.detection_step} inside "
        f"the region, lead {lead_steps} steps, precision {correct}/{total} at "
        f"failure, control clean, {elapsed:.0f}s total"
    )


def test_criterion_5_ordering_against_raw_slid(shipped_run):
    dataset, truth, _, _ = shipped_run
    reports = benchmark(
        dataset, truth, methods=("slid", "stlid"), max_backscan=400, parallel=2
    )
    by_name = {r.method: r for r in reports}
    st = by_name["stlid"].region(truth.regions[0].label)
    sl = by_name["slid"].region(truth.regions[0].label)
    st_prec = st.precision if st.precision is not None else 0.0
    sl_prec = sl.precision if sl.precision is not None else 0.0
    assert st_prec >= sl_prec
    assert st.lead_steps >= sl.lead_steps
    print(
        f"[criterion 5] PASS - precision {st_prec:.3f} >= {sl_prec:.3f} and "
        f"lead {st.lead_steps} >= {sl.lead_steps} steps (st-LID vs raw s-LID)"
    )


@pytest.fixture(scope="module")
def timing_scenario():
    # 57 x 46 = 2622 monitored points, matching the field-scale step count
    spec = CreepScenarioSpec(
        grid_nx=57,
        grid_ny=46,
        num_steps=620,
        noise_sd=0.08,
        region=(22.0, 16.0, 35.0, 29.0),
        time_of_failure=560,
        steady_rate=0.3,
        onset_step=380,
        accel_exponent=1.0,
        seed=31,
        rate_floor=0.5,
        bump_width=0.45,
        rate_jitter=0.06,
        slip_theta=0.0,
    )
    dataset, truth = generate_creep_scenario(spec)
    return dataset, truth


def test_criterion_6_per_step_performance(timing_scenario):
    dataset, truth = timing_scenario
    assert dataset.num_points == 2622
    runs = {}
    for workers in (1, 2, 8):
        runs[workers] = run_detection(dataset, parallel=workers, store="all")
    for other in (2, 8):
        assert np.array_equal(runs[1].st_hist, runs[other].st_hist)
        assert np.array_equal(runs[1].s_hist, runs[other].s_hist)
        assert np.array_equal(runs[1].fused_hist, runs[other].fused_hist)
        assert np.array_equal(runs[1].t_hist, runs[other].t_hist)
        assert runs[1].events == runs[other].events

    # steady-state per-step cost: the median over the last 100 steps, where
    # the temporal history is at its longest
    seq = float(np.median(runs[1].per_step_seconds[-100:]))
    par = float(np.median(runs[8].per_step_seconds[-100:]))
    assert seq <= 5.4, f"sequential step took {seq:.3f}s"
    speedup = seq / par
    line = (
        f"[criterion 6] sequential step {seq * 1e3:.1f} ms (<= 5.4 s), "
        f"8-way step {par * 1e3:.1f} ms, speedup {speedup:.2f}x, "
        f"outputs bit-identical across parallelism 1/2/8"
    )
    cores = os.cpu_count() or 1
    if cores < 8:
        print(line + f" - speedup assertion skipped: host has {cores} cores")
        pytest.skip(
            f"8-way speedup needs >= 8 cores; host has {cores} "
            f"(measured {speedup:.2f}x; timing and determinism checks passed)"
        )
    assert speedup >= 3.0, line
    print(line.replace("[criterion 6]", "[criterion 6] PASS -"))


def test_criterion_7_detection_state_machine():
    coords = np.array([(0.0, 0.0), (0.1, 0.0), (5.0, 5.0), (9.0, 9.0)])

    def play(values_steps, config, ids=None):
        state, events = DetectionState(), []
        for step, vals in enumerate(values_steps):
            fld = StLidField(step=step, values=np.asarray(vals, float),
                             valid=np.ones(len(vals), bool))
            _, ev = update_detection(state, fld, coords, config, point_ids=ids)
            if ev:
                events.append(ev)
        return state, events

    # n = 1 fires on the first qualifying step
    _, ev = play([[0.9, 0.1, 0.1, 0.1]], DetectionConfig(n=1, epsilon=0.5))
    assert len(ev) == 1 and ev[0].detection_step == 0

    # argmax alternating between two points 0.1 apart fires on the 10th step
    steps = []
    for i in range(10):
        vals = [0.1, 0.1, 0.1, 0.1]
        vals[i % 2] = 0.8
        steps.append(vals)
    _, ev = play(steps, DetectionConfig(n=10, epsilon=0.5))
    assert len(ev) == 1 and ev[0].detection_step == 9

    # a sub-threshold step after n-1 qualifying steps resets the chain
    steps = [[0.9, 0.1, 0.1, 0.1]] * 4 + [[0.45, 0.1, 0.1, 0.1]]
    state, ev = play(steps, DetectionConfig(n=5, epsilon=0.5))
    assert ev == [] and state.hits == 0

    # ties resolve to the lowest point id
    _, ev = play([[0.7, 0.7, 0.7, 0.7]], DetectionConfig(n=1, epsilon=0.5),
                 ids=np.array([9, 4, 7, 1]))
    assert ev[0].point_id == 1

    # an unbroken chain emits exactly once
    _, ev = play([[0.9, 0.1, 0.1, 0.1]] * 25, DetectionConfig(n=10, epsilon=0.5))
    assert len(ev) == 1
    print("[criterion 7] PASS - persistence rule: n=1, fluctuation, reset, ties, single fire")


def test_criterion_8_lead_time_arithmetic():
    coords = np.array([(float(i), 0.0) for i in range(20)])
    region = FailureRegion("c1", -0.5, -0.5, 5.0, 0.5, 3385)

    def sets(step):
        return [2] if step >= 3305 else [19]

    steps, minutes = lead_time(sets, region, coords, 2.5, first_step=3200)
    assert steps == 3385 - 3305 == 80
    assert minutes == 80 * 2.5 == 200.0
    assert minutes / 60.0 == pytest.approx(10.0 / 3.0, rel=1e-12)
    assert format_lead(steps, minutes) == "80 (3.3 hrs)"
    print("[criterion 8] PASS - 3385 - 3305 = 80 steps at 2.5 min -> '80 (3.3 hrs)'")

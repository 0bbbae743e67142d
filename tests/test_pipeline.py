import json
from dataclasses import replace

import numpy as np
import pytest

from stlid import (
    DetectionConfig,
    FusionConfig,
    GroundTruth,
    LidConfig,
    MonitoredPoint,
    MonitoringDataset,
    fuse_all,
    generate_creep_scenario,
    iter_run,
    run_detection,
    s_lid_all,
    t_lid_field,
)
from stlid import lid
from stlid.errors import ConfigError
from stlid.pipeline import (
    PipelineState,
    load_checkpoint,
    save_checkpoint,
    write_events_csv,
    write_scores_csv,
)

from conftest import SMALL_SPEC, make_dataset

SMALL = dict(lid_config=LidConfig(s=6), fusion_config=FusionConfig(k=4))
# SMALL plus the fusion-weight and log-sum variants: kinematic-space weights,
# fixed bandwidths, an observation neighborhood other than s, floored zeros
CONFIGS = [
    SMALL,
    dict(lid_config=LidConfig(s=6), fusion_config=FusionConfig(k=4, weight_space="kinematic")),
    dict(
        lid_config=LidConfig(s=6),
        fusion_config=FusionConfig(k=4, weight_space="kinematic", bandwidth=0.3),
    ),
    dict(lid_config=LidConfig(s=6), fusion_config=FusionConfig(k=4, bandwidth=1.5, obs_k=9)),
    dict(
        lid_config=LidConfig(s=6, zero_distance_policy="floor"),
        fusion_config=FusionConfig(k=4, obs_k=3),
    ),
]


def test_parallel_degrees_bit_identical(grid_noise_dataset):
    for cfg in CONFIGS:
        runs = [run_detection(grid_noise_dataset, parallel=p, **cfg) for p in (1, 2, 3)]
        for other in runs[1:]:
            assert np.array_equal(runs[0].s_hist, other.s_hist), cfg
            assert np.array_equal(runs[0].fused_hist, other.fused_hist), cfg
            assert np.array_equal(runs[0].t_hist, other.t_hist), cfg
            assert np.array_equal(runs[0].st_hist, other.st_hist), cfg
            assert runs[0].events == other.events, cfg


def test_tile_and_chunk_boundaries_interleave(grid_noise_dataset, monkeypatch):
    # the default tile holds every 256-point block whole; a 100-cell tile
    # splits each chunk into tiles that end off the chunk boundaries
    whole = run_detection(grid_noise_dataset, **SMALL)
    monkeypatch.setattr(lid, "_TILE_CELLS", 100)
    for p in (1, 2, 3):
        run = run_detection(grid_noise_dataset, parallel=p, **SMALL)
        for name in ("s_hist", "fused_hist", "t_hist", "t_valid_hist", "st_hist"):
            assert getattr(run, name).tobytes() == getattr(whole, name).tobytes(), (p, name)
        assert run.events == whole.events, p


def test_step_layout(grid_noise_dataset):
    recs = list(iter_run(grid_noise_dataset, **SMALL, stop_step=4))
    assert [r.step for r in recs] == [1, 2, 3, 4]
    assert recs[0].st is None and recs[1].st is None
    assert recs[2].st is not None and recs[3].st is not None
    # bootstrap: the first fused field is exactly the raw field
    assert np.array_equal(recs[0].fused.values, recs[0].s.values)


def test_fields_match_standalone_functions(grid_noise_dataset):
    ds = grid_noise_dataset
    for cfg in CONFIGS:
        recs = {r.step: r for r in iter_run(ds, **cfg, stop_step=5)}
        lid_cfg, fus_cfg = cfg["lid_config"], cfg["fusion_config"]
        s4 = s_lid_all(ds, 4, lid_cfg)
        assert np.allclose(recs[4].s.values, s4.values, rtol=1e-12), cfg
        t4 = t_lid_field(ds, 4, lid_cfg)
        assert np.allclose(recs[4].t.values, t4.values, rtol=1e-12), cfg
        fused4 = fuse_all(ds, recs[3].s.values, 4, fus_cfg, lid_cfg)
        assert np.allclose(recs[4].fused.values, fused4.values, rtol=1e-12), cfg


def test_store_modes(grid_noise_dataset):
    full = run_detection(grid_noise_dataset, store="all", **SMALL)
    st_only = run_detection(grid_noise_dataset, store="st", **SMALL)
    lean = run_detection(grid_noise_dataset, store="none", **SMALL)
    assert full.s_hist is not None and full.t_hist is not None
    assert st_only.s_hist is None and st_only.st_hist is not None
    assert lean.st_hist is None and lean.per_step_seconds is not None
    assert np.array_equal(full.st_hist, st_only.st_hist)
    with pytest.raises(ConfigError):
        run_detection(grid_noise_dataset, store="some", **SMALL)


def test_stop_step(grid_noise_dataset):
    res = run_detection(grid_noise_dataset, stop_step=10, **SMALL)
    assert res.s_steps[-1] == 10
    with pytest.raises(ConfigError):
        run_detection(grid_noise_dataset, stop_step=0, **SMALL)


def test_checkpoint_resume_matches_uninterrupted(grid_noise_dataset, tmp_path):
    ds = grid_noise_dataset
    straight = run_detection(ds, **SMALL)

    state = PipelineState(next_col=1, prev_slid=None, det_state=None, events=[])
    first_half = []
    for rec in iter_run(ds, **SMALL, stop_step=20, state=state):
        if rec.st is not None:
            first_half.append(rec.st.values)
    save_checkpoint(tmp_path / "ck.npz", state)

    resumed = load_checkpoint(tmp_path / "ck.npz")
    second_half = []
    for rec in iter_run(ds, **SMALL, state=resumed):
        if rec.st is not None:
            second_half.append(rec.st.values)
    rebuilt = np.vstack(first_half + second_half)
    assert np.array_equal(rebuilt, straight.st_hist)
    assert resumed.events == straight.events


def test_checkpoint_roundtrip_detection_state(grid_noise_dataset, tmp_path):
    ds = grid_noise_dataset
    state = PipelineState(next_col=1, prev_slid=None, det_state=None, events=[])
    for _ in iter_run(ds, **SMALL, stop_step=12, state=state):
        pass
    # a name without the .npz suffix is written and read as given
    save_checkpoint(tmp_path / "state.ckpt", state)
    assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]
    back = load_checkpoint(tmp_path / "state.ckpt")
    assert back.next_col == state.next_col
    assert back.det_state == state.det_state
    assert back.events == state.events
    assert np.array_equal(back.prev_slid, state.prev_slid)


def test_checkpoint_meta_holds_only_the_bounded_state(grid_noise_dataset, tmp_path):
    state = PipelineState()
    for _ in iter_run(grid_noise_dataset, **SMALL, stop_step=30, state=state):
        pass
    save_checkpoint(tmp_path / "ck.npz", state)
    with np.load(tmp_path / "ck.npz") as npz:
        meta = json.loads(bytes(npz["meta"]).decode())
    assert set(meta) == {
        "next_col", "candidate_coord", "candidate_id", "hits", "fired", "events",
    }


def test_resume_rejects_state_of_another_dataset(grid_noise_dataset):
    ds = grid_noise_dataset
    state = PipelineState(next_col=1, prev_slid=None, det_state=None, events=[])
    for _ in iter_run(ds, **SMALL, stop_step=20, state=state):
        pass
    fewer_points = make_dataset(ds.displacement[:100], coords=ds.coords[:100])
    fewer_steps = make_dataset(ds.displacement[:, :15], coords=ds.coords)
    for other in (fewer_points, fewer_steps):
        with pytest.raises(ConfigError):
            next(iter_run(other, **SMALL, state=state))
    # the state is untouched by the rejected runs and still resumes its own dataset
    assert state.next_col == 21
    assert next(iter_run(ds, **SMALL, state=state)).step == 21


def test_load_checkpoint_rejects_missing_fields(tmp_path):
    path = tmp_path / "old.ckpt"
    meta = np.frombuffer(json.dumps({"next_col": 5, "has_prev": False}).encode(), np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, meta=meta)
    with pytest.raises(ConfigError, match="old.ckpt"):
        load_checkpoint(path)


def test_history_normalization_mode(grid_noise_dataset):
    cfg = DetectionConfig(normalization="zscore-history")
    res = run_detection(grid_noise_dataset, detection_config=cfg, store="st", **SMALL)
    default = run_detection(grid_noise_dataset, store="st", **SMALL)
    assert res.st_hist.shape == default.st_hist.shape
    assert not np.array_equal(res.st_hist, default.st_hist)


def test_raw_normalization_floor(grid_noise_dataset):
    # raw LID values are positive, so every sigmoid exceeds 0.5 and the
    # product exceeds 0.25: the documented weakness of the unnormalized mode
    cfg = DetectionConfig(normalization="raw")
    res = run_detection(grid_noise_dataset, detection_config=cfg, store="st", **SMALL)
    assert res.st_hist.min() > 0.25


def test_run_detection_lead_times(small_scenario):
    ds, truth = small_scenario
    res = run_detection(ds, truth=truth, store="st")
    assert len(res.events) == 1
    region = truth.regions[0]
    assert region.contains(np.array([res.events[0].location]))[0]
    steps, minutes = res.lead_times["failure"]
    assert steps > 0
    assert minutes == steps * ds.step_interval_minutes


def test_neighborhood_size_guard():
    ds = make_dataset(np.random.default_rng(0).normal(size=(8, 6)),
                      coords=np.random.default_rng(1).normal(size=(8, 2)))
    with pytest.raises(ConfigError):
        run_detection(ds, lid_config=LidConfig(s=8), fusion_config=FusionConfig(k=2))
    with pytest.raises(ConfigError):
        run_detection(ds, lid_config=LidConfig(s=3), fusion_config=FusionConfig(k=8))
    with pytest.raises(ConfigError):
        run_detection(ds, parallel=0, lid_config=LidConfig(s=3), fusion_config=FusionConfig(k=2))


def test_score_and_event_csv(grid_noise_dataset, tmp_path):
    res = run_detection(grid_noise_dataset, store="all", **SMALL)
    scores = tmp_path / "scores.csv"
    events = tmp_path / "events.csv"
    write_scores_csv(scores, res, grid_noise_dataset)
    write_events_csv(events, res.events)
    lines = scores.read_text().splitlines()
    assert lines[0] == (
        "t,point_id,s_lid,fused_s_lid,t_lid,st_lid,s_valid,fused_valid,t_valid,st_valid"
    )
    n = grid_noise_dataset.num_points
    assert len(lines) == 1 + n * len(res.st_steps)
    first = lines[1].split(",")
    assert int(first[0]) == int(res.st_steps[0])
    assert float(first[5]) == res.st_hist[0, 0]  # 17-digit round trip
    # the last row's flags: every family's history ends at the same step
    last = lines[-1].split(",")
    flags = [res.s_valid_hist[-1, -1], res.fused_valid_hist[-1, -1],
             res.t_valid_hist[-1, -1], res.st_valid_hist[-1, -1]]
    assert last[6:] == [str(int(f)) for f in flags]
    assert events.read_text().splitlines()[0] == "detection_step,point_id,x,y,st_lid"
    with pytest.raises(ConfigError):
        write_scores_csv(scores, run_detection(grid_noise_dataset, store="st", **SMALL),
                         grid_noise_dataset)


def test_successive_failures_in_distinct_areas_through_the_pipeline():
    # the paper's headline case on one slope: area A fails at step 450, then
    # area B, 40 units east, at step 700; the areas are the single regions of
    # two generated scenarios placed side by side
    a_ds, a_truth = generate_creep_scenario(
        replace(SMALL_SPEC, seed=3, time_of_failure=450, onset_step=250)
    )
    b_ds, b_truth = generate_creep_scenario(
        replace(SMALL_SPEC, seed=4, time_of_failure=700, onset_step=500)
    )
    shift, id_shift = 40.0, 500
    points = a_ds.points + [
        MonitoredPoint(p.id + id_shift, (p.coord[0] + shift, p.coord[1])) for p in b_ds.points
    ]
    ds = MonitoringDataset(
        points,
        np.vstack([a_ds.displacement, b_ds.displacement]),
        step_interval_minutes=a_ds.step_interval_minutes,
    )
    a, b = a_truth.regions[0], b_truth.regions[0]
    truth = GroundTruth([
        replace(a, label="A"),
        replace(b, label="B", xmin=b.xmin + shift, xmax=b.xmax + shift),
    ])

    res = run_detection(ds, truth=truth, store="none")
    assert len(res.events) == 2
    for ev, region in zip(res.events, truth.regions):
        assert region.contains(np.array([ev.location]))[0], (ev, region)
        assert ev.detection_step < region.tof
        assert res.lead_times[region.label][0] == region.tof - ev.detection_step

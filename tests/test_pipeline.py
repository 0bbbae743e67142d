import json
import threading
import tracemalloc
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
from stlid.detection import st_lid_field
from stlid.errors import ConfigError, DataError
from stlid.pipeline import (
    PipelineState,
    load_checkpoint,
    save_checkpoint,
    write_events_csv,
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


def test_the_thread_pool_opens_at_the_first_step_and_closes_with_the_generator(
    grid_noise_dataset
):
    before = threading.active_count()
    records = iter_run(grid_noise_dataset, **SMALL, parallel=3)
    assert threading.active_count() == before  # a generator never started opens no thread
    next(records)
    assert threading.active_count() > before
    records.close()
    assert threading.active_count() == before


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


@pytest.mark.parametrize("parallel", [1, 2])
def test_a_run_holds_no_history_sized_array(parallel, monkeypatch):
    # 32 KB tiles, full at both lengths, so only a history-sized array
    # can make the traced peak grow with the history
    monkeypatch.setattr(lid, "_TILE_CELLS", 4096)
    n, steps = 100, 300
    coords = [(float(i % 10), float(i // 10)) for i in range(n)]
    peaks = []
    for t in (steps, 2 * steps):
        rng = np.random.default_rng(7)
        ds = make_dataset(np.cumsum(rng.normal(0, 0.1, size=(n, t)), axis=1), coords=coords)
        tracemalloc.start()
        try:
            run_detection(ds, parallel=parallel, store="none")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        ds.samples_at(t - 1)
        arrays = {k for k, v in vars(ds).items() if isinstance(v, np.ndarray)}
        assert arrays == {"displacement", "ids", "coords"}
    # one more n x steps float64 array would add n * steps * 8 bytes
    assert peaks[1] - peaks[0] < n * steps * 8 / 4, peaks


@pytest.mark.parametrize("parallel", [1, 2])
def test_run_detection_holds_each_history_once(parallel, monkeypatch):
    # the traced peak may exceed the returned histories by less than a
    # quarter of them, so no history is ever held twice
    monkeypatch.setattr(lid, "_TILE_CELLS", 4096)
    n, steps = 100, 600
    coords = [(float(i % 10), float(i // 10)) for i in range(n)]
    rng = np.random.default_rng(7)
    ds = make_dataset(np.cumsum(rng.normal(0, 0.1, size=(n, steps)), axis=1), coords=coords)
    tracemalloc.start()
    try:
        res = run_detection(ds, parallel=parallel, store="all")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(
        getattr(res, f"{fam}_{kind}").nbytes
        for fam in ("s", "fused", "t", "st")
        for kind in ("hist", "valid_hist")
    )
    # s and fused rows from step 1, t and st rows from step 3
    assert held == (2 * (steps - 1) + 2 * (steps - 3)) * n * 9
    assert peak - held < held / 4, (peak, held)


def test_step_layout(grid_noise_dataset):
    ds = grid_noise_dataset
    # eight points share one series, so each has only zero distances among
    # its s=6 kinematic neighbours: an invalid point and a sentinel fill
    disp = ds.displacement.copy()
    disp[:8] = disp[0]
    degenerate = make_dataset(disp, coords=ds.coords)
    for parallel in (1, 3):
        recs = list(iter_run(degenerate, **SMALL, parallel=parallel, stop_step=4))
        assert [r.step for r in recs] == [1, 2, 3, 4]
        assert recs[0].st is None and recs[1].st is None
        assert recs[2].st is not None and recs[3].st is not None
        # bootstrap: the first fused field is the raw field, bit for bit,
        # sentinel fills and validity flags included
        boot = recs[0]
        assert not boot.s.valid[:8].any() and boot.s.valid[8:].any()
        assert boot.fused.values.tobytes() == boot.s.values.tobytes()
        assert np.array_equal(boot.fused.valid, boot.s.valid)
        assert boot.fused.values is not boot.s.values


def test_every_field_fills_its_invalid_points_with_the_largest_valid_value(grid_noise_dataset):
    ds = grid_noise_dataset
    # eight points share one series (degenerate s-LID neighbourhoods) and one
    # is constant (no positive distance to its own history)
    disp = ds.displacement.copy()
    disp[:8] = disp[0]
    disp[20] = 0.5
    degenerate = make_dataset(disp, coords=ds.coords)
    rec = list(iter_run(degenerate, **SMALL, stop_step=4))[-1]
    standalone = (
        s_lid_all(degenerate, 4, SMALL["lid_config"]),
        t_lid_field(degenerate, 4, SMALL["lid_config"]),
        fuse_all(degenerate, rec.s.values, 4, SMALL["fusion_config"], SMALL["lid_config"]),
    )
    for fld in (rec.s, rec.fused, rec.t, *standalone):
        assert 0 < fld.valid.sum() < ds.num_points
        assert np.all(fld.values[~fld.valid] == fld.values[fld.valid].max())
    assert not rec.t.valid[20] and not rec.s.valid[:8].any()


def test_history_normalization_follows_the_running_statistics_of_every_t_lid_field(
    grid_noise_dataset,
):
    cfg = DetectionConfig(normalization="zscore-history")
    res = run_detection(grid_noise_dataset, detection_config=cfg, **SMALL)
    lag = lid.T_LID_FIRST_COL - lid.S_LID_FIRST_COL  # fused rows start before t-LID rows
    for row in range(len(res.st_steps)):
        past = res.t_hist[: row + 1]  # this step's t-LID field and every earlier one
        want = st_lid_field(
            res.fused_hist[row + lag], res.t_hist[row], cfg,
            t_history_stats=(past.mean(axis=0), past.std(axis=0)),
        )
        assert np.allclose(res.st_hist[row], want.values, rtol=1e-9, atol=1e-12), row


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
    ds = grid_noise_dataset
    res = run_detection(ds, stop_step=10, **SMALL)
    assert res.s_steps[-1] == 10
    with pytest.raises(ConfigError):
        run_detection(ds, stop_step=0, **SMALL)
    # every kept history holds, byte for byte, the rows iter_run streams
    for parallel in (1, 2):
        for stop in (1, 2, 3, 10, None):
            recs = list(iter_run(ds, parallel=parallel, stop_step=stop, **SMALL))
            for store in ("all", "st", "none"):
                res = run_detection(ds, parallel=parallel, stop_step=stop, store=store, **SMALL)
                case = (parallel, stop, store)
                for fam in ("s", "fused", "t", "st"):
                    fields = [getattr(r, fam) for r in recs if getattr(r, fam) is not None]
                    values, valid = getattr(res, f"{fam}_hist"), getattr(res, f"{fam}_valid_hist")
                    if store == "none" or (store == "st" and fam != "st") or not fields:
                        assert values is None and valid is None, (case, fam)
                        continue
                    assert values.dtype == np.float64 and valid.dtype == bool, (case, fam)
                    assert values.shape == valid.shape == (len(fields), ds.num_points)
                    assert values.tobytes() == np.vstack([f.values for f in fields]).tobytes()
                    assert valid.tobytes() == np.vstack([f.valid for f in fields]).tobytes()
                if store == "all":
                    assert np.array_equal(res.s_steps, [r.step for r in recs]), case
                if store != "none":
                    st_steps = [r.step for r in recs if r.st is not None]
                    assert np.array_equal(res.st_steps, st_steps), case
                if stop in (1, 2):
                    assert res.t_hist is None and res.st_hist is None, case


def test_a_bad_config_is_reported_before_a_bad_stop_step(grid_noise_dataset):
    ds = grid_noise_dataset
    with pytest.raises(DataError):
        run_detection(ds, stop_step=10_000, **SMALL)
    bad = dict(lid_config=LidConfig(s=1), fusion_config=FusionConfig(k=4))
    for stop in (0, 10_000):
        for store in ("all", "none"):
            with pytest.raises(ConfigError, match="neighborhood size s"):
                run_detection(ds, stop_step=stop, store=store, **bad)
        with pytest.raises(ConfigError, match="neighborhood size s"):
            iter_run(ds, stop_step=stop, **bad)


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


def test_a_numpy_integer_start_step_checkpoints_and_resumes(grid_noise_dataset, tmp_path):
    ds = make_dataset(grid_noise_dataset.displacement, coords=grid_noise_dataset.coords,
                      start_step=np.int64(7))
    fast = DetectionConfig(n=2)
    straight = run_detection(ds, detection_config=fast, **SMALL)
    assert straight.events  # the checkpoint holds an event, whose step JSON must write
    state = PipelineState()
    for _ in iter_run(ds, **SMALL, detection_config=fast, stop_step=straight.events[0].detection_step,
                      state=state):
        pass
    save_checkpoint(tmp_path / "ck.npz", state)
    resumed = load_checkpoint(tmp_path / "ck.npz")
    for _ in iter_run(ds, **SMALL, detection_config=fast, state=resumed):
        pass
    assert resumed.events == straight.events
    assert resumed.det_state == straight.final_state


def test_checkpoint_meta_holds_only_the_bounded_state(grid_noise_dataset, tmp_path):
    state = PipelineState()
    for _ in iter_run(grid_noise_dataset, **SMALL, stop_step=30, state=state):
        pass
    save_checkpoint(tmp_path / "ck.npz", state)
    with np.load(tmp_path / "ck.npz") as npz:
        meta = json.loads(bytes(npz["meta"]).decode())
    assert set(meta) == {
        "next_col", "candidate_coord", "hits", "fired", "events",
    }


def test_checkpoint_of_the_earlier_layout_resumes_to_the_uninterrupted_run(
    grid_noise_dataset, tmp_path
):
    # earlier versions also wrote the argmax id to the meta record and a
    # per-point t-LID count, which now follows from next_col
    ds = grid_noise_dataset
    zscore = DetectionConfig(normalization="zscore-history", n=2)
    straight = run_detection(ds, detection_config=zscore, **SMALL)
    assert straight.events  # the resumed tracker and event list are exercised
    state = PipelineState()
    for _ in iter_run(ds, **SMALL, detection_config=zscore, stop_step=20, state=state):
        pass
    meta = {
        "next_col": state.next_col,
        **vars(state.det_state),
        "candidate_id": 7,
        "events": [vars(e) for e in state.events],
    }
    with open(tmp_path / "old.npz", "wb") as fh:
        np.savez(
            fh,
            prev_slid=state.prev_slid,
            t_count=np.full(ds.num_points, float(state.next_col - lid.T_LID_FIRST_COL)),
            t_mean=state.t_mean,
            t_m2=state.t_m2,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
    resumed = load_checkpoint(tmp_path / "old.npz")
    first_row = resumed.next_col - lid.T_LID_FIRST_COL  # st-LID history row of the resumed step
    rest = list(iter_run(ds, **SMALL, detection_config=zscore, state=resumed))
    assert np.array_equal(np.vstack([r.st.values for r in rest]), straight.st_hist[first_row:])
    assert np.array_equal(np.vstack([r.st.valid for r in rest]), straight.st_valid_hist[first_row:])
    assert resumed.events == straight.events
    assert resumed.det_state == straight.final_state


def test_resume_rejects_state_of_another_dataset(grid_noise_dataset):
    ds = grid_noise_dataset
    state = PipelineState(next_col=1, prev_slid=None, det_state=None, events=[])
    for _ in iter_run(ds, **SMALL, stop_step=20, state=state):
        pass
    fewer_points = make_dataset(ds.displacement[:100], coords=ds.coords[:100])
    fewer_steps = make_dataset(ds.displacement[:, :15], coords=ds.coords)
    for other in (fewer_points, fewer_steps):
        with pytest.raises(ConfigError):
            iter_run(other, **SMALL, state=state)
    # the state is untouched by the rejected runs and still resumes its own dataset
    assert state.next_col == 21
    assert next(iter_run(ds, **SMALL, state=state)).step == 21


def test_resume_rejects_state_without_its_carried_fields(grid_noise_dataset):
    ds = grid_noise_dataset
    zscore = DetectionConfig(normalization="zscore-history")
    state = PipelineState()
    for _ in iter_run(ds, **SMALL, detection_config=zscore, stop_step=20, state=state):
        pass
    with pytest.raises(ConfigError, match="holds no prev_slid"):
        iter_run(ds, **SMALL, state=replace(state, prev_slid=None))
    for name in ("t_mean", "t_m2"):
        with pytest.raises(ConfigError, match="only some of t_mean and t_m2"):
            iter_run(ds, **SMALL, detection_config=zscore, state=replace(state, **{name: None}))
    # a state that kept no t-LID statistics past their first column, such as
    # one of a run under another normalization, cannot continue them
    no_stats = [replace(state, t_mean=None, t_m2=None)]
    other = PipelineState()
    for _ in iter_run(ds, **SMALL, stop_step=ds.start_step + lid.T_LID_FIRST_COL, state=other):
        pass
    no_stats.append(other)
    for bad in no_stats:
        with pytest.raises(ConfigError, match="holds no t-LID statistics"):
            iter_run(ds, **SMALL, detection_config=zscore, state=bad)
    # before the first t-LID field there is nothing to continue: they start at zero
    early = PipelineState()
    for _ in iter_run(ds, **SMALL, stop_step=ds.start_step + lid.T_LID_FIRST_COL - 1, state=early):
        pass
    assert next(iter_run(ds, **SMALL, detection_config=zscore, state=early)).st is not None
    # the rejected runs left the state as it was
    assert next(iter_run(ds, **SMALL, detection_config=zscore, state=state)).step == 21


@pytest.mark.parametrize("name, bad", [
    ("prev_slid", lambda a: a.astype(np.int64)),
    ("prev_slid", lambda a: np.where(np.arange(a.size) == 7, np.nan, a)),
    ("prev_slid", lambda a: -a),
    ("prev_slid", lambda a: np.zeros_like(a)),
    ("t_mean", lambda a: np.full_like(a, np.inf)),
    ("t_m2", lambda a: a - a.max() - 1.0),
    ("t_m2", lambda a: a.astype(np.float32)),
    ("t_m2", lambda a: list(a)),
], ids=["int", "nan", "negative", "zero", "inf-mean", "negative-m2", "float32", "list"])
def test_resume_rejects_state_arrays_outside_their_range(grid_noise_dataset, name, bad):
    # a prior from a truncated, NaN or negative field would run on silently
    ds = grid_noise_dataset
    zscore = DetectionConfig(normalization="zscore-history")
    state = PipelineState()
    for _ in iter_run(ds, **SMALL, detection_config=zscore, stop_step=20, state=state):
        pass
    broken = replace(state, **{name: bad(getattr(state, name))})
    with pytest.raises(ConfigError, match=f"state {name}"):
        iter_run(ds, **SMALL, detection_config=zscore, state=broken)
    # the rejected run left the state's shared parts as they were
    assert next(iter_run(ds, **SMALL, detection_config=zscore, state=state)).step == 21


def test_load_checkpoint_rejects_missing_fields(grid_noise_dataset, tmp_path):
    def npz(name, **arrays):
        with open(tmp_path / name, "wb") as fh:
            np.savez(fh, **arrays)
        return tmp_path / name

    def as_meta(record):
        return np.frombuffer(json.dumps(record).encode(), np.uint8)

    prev_slid = np.ones(grid_noise_dataset.num_points)
    meta = np.frombuffer(json.dumps({"next_col": 5, "has_prev": False}).encode(), np.uint8)
    text = tmp_path / "text.ckpt"
    text.write_text("next_col=5\n")
    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(npz("whole.ckpt", meta=meta).read_bytes()[:40])
    unreadable = [
        npz("old.ckpt", meta=meta),
        text,
        truncated,
        npz("no_meta.ckpt", prev_slid=np.zeros(3)),
        npz("bad_json.ckpt", meta=np.frombuffer(b"{next_col", np.uint8)),
    ]
    good = {
        "next_col": 5, "candidate_coord": [1.0, 2.0], "hits": 1, "fired": False,
        "events": [{"detection_step": 3, "point_id": 7, "location": [1.0, 2.0], "value": 0.9}],
    }
    wrong = {  # a field of another type, each in a file of its own
        "next_col": ["5", 5.0, True, None],
        "hits": ["2", 2.0, False],
        "fired": [0, "false", None],
        "candidate_coord": ["1,2", [1.0], [1.0, 2.0, 3.0], [1.0, "2"], [True, 2.0]],
    }
    wrong_event = {
        "detection_step": ["3", 3.0, True],
        "point_id": ["7", None],
        "location": [None, [1.0], "1,2", [1.0, None]],
        "value": ["0.9", None, True],
    }
    metas = [{**good, name: v} for name, values in wrong.items() for v in values]
    metas += [
        {**good, "events": [{**good["events"][0], name: v}]}
        for name, values in wrong_event.items() for v in values
    ]
    metas += [{**good, "events": "none"}, {**good, "events": [[3, 7]]}, [good]]
    for i, m in enumerate(metas):
        unreadable.append(npz(f"typed{i}.ckpt", meta=as_meta(m), prev_slid=prev_slid))
    # the state rule of iter_run: past its first column a state holds the previous s-LID field
    unreadable.append(npz("no_prev_slid.ckpt", meta=as_meta(good)))
    for path in unreadable:
        with pytest.raises(ConfigError, match=f"{path.name} is not in this layout"):
            load_checkpoint(path)
    back = load_checkpoint(npz("good.ckpt", meta=as_meta(good), prev_slid=prev_slid))
    assert (back.next_col, back.det_state.candidate_coord, back.det_state.hits) == (5, (1.0, 2.0), 1)
    assert back.events[0].location == (1.0, 2.0)
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "missing.ckpt")

    # the same fields in a passed state are refused by the iter_run call, which
    # leaves the state as it was
    def refused(state):
        kept = (state.next_col, replace(state.det_state), list(state.events), state.prev_slid)
        with pytest.raises(ConfigError, match="has another type"):
            iter_run(grid_noise_dataset, **SMALL, state=state)
        assert (state.next_col, state.det_state, state.events) == kept[:3]
        assert state.prev_slid is kept[3] and state.t_mean is None and state.t_m2 is None

    def passed(v):  # a loaded state holds its coordinates as tuples
        return tuple(v) if type(v) is list else v

    for name, values in wrong.items():
        for v in map(passed, values):
            if name == "next_col":
                refused(replace(back, next_col=v))
            else:
                refused(replace(back, det_state=replace(back.det_state, **{name: v})))
    for name, values in wrong_event.items():
        for v in map(passed, values):
            refused(replace(back, events=[replace(back.events[0], **{name: v})]))
    refused(replace(back, det_state=replace(back.det_state, hits=0.5, fired="no")))
    assert next(iter_run(grid_noise_dataset, **SMALL, state=back)).step == 5


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


def test_event_csv(grid_noise_dataset, tmp_path):
    # the score dump is written by `stlid detect`; test_cli compares it with
    # the rows of the stored histories
    res = run_detection(grid_noise_dataset, store="none", **SMALL)
    events = tmp_path / "events.csv"
    write_events_csv(events, res.events)
    assert events.read_text().splitlines()[0] == "detection_step,point_id,x,y,st_lid"


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

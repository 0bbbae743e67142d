"""Property tests of the pipeline on small random datasets."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlid import DetectionConfig, FusionConfig, LidConfig, iter_run, run_detection
from stlid.errors import StlidError
from stlid.pipeline import PipelineState, load_checkpoint, save_checkpoint

from conftest import make_dataset


@st.composite
def tied_datasets(draw):
    """Coarsely rounded random walks where some points copy another point's
    series, so kinematic and temporal neighborhoods hold zero distances."""
    n = draw(st.integers(8, 30))
    steps = draw(st.integers(5, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    disp = np.round(np.cumsum(rng.normal(0.0, 1.0, size=(n, steps)), axis=1), 1)
    for _ in range(draw(st.integers(0, n // 2))):
        src, dst = rng.integers(0, n, size=2)
        disp[dst] = disp[src]
    side = int(np.ceil(np.sqrt(n)))
    coords = [(float(i % side), float(i // side)) for i in range(n)]
    return make_dataset(disp, coords=coords)


@settings(max_examples=15, deadline=None)
@given(ds=tied_datasets())
def test_run_bit_identical_across_parallel_degrees(ds):
    cfg = dict(
        lid_config=LidConfig(s=4),
        fusion_config=FusionConfig(k=3),
        detection_config=DetectionConfig(n=2),
    )
    runs = [run_detection(ds, parallel=p, **cfg) for p in (1, 2, 3, 4)]
    first = runs[0]
    assert np.all((first.st_hist >= 0.0) & (first.st_hist <= 1.0))
    for other in runs[1:]:
        for name in ("s_hist", "fused_hist", "t_hist", "st_hist"):
            assert np.array_equal(getattr(first, name), getattr(other, name)), name
        assert first.events == other.events


@settings(max_examples=15, deadline=None)
@given(
    ds=tied_datasets(),
    split=st.floats(0.0, 1.0),
)
def test_resumed_run_equals_uninterrupted(ds, split):
    cfg = dict(
        lid_config=LidConfig(s=4),
        fusion_config=FusionConfig(k=3),
        detection_config=DetectionConfig(n=2),
    )
    straight = run_detection(ds, **cfg)
    # stop after any step from the first velocity step to the second-to-last
    stop = ds.start_step + 1 + int(split * (ds.num_steps - 3))
    kept = {fam: [] for fam in ("s", "fused", "t", "st")}

    def keep(records):
        for rec in records:
            for fam, rows in kept.items():
                if getattr(rec, fam) is not None:
                    rows.append(getattr(rec, fam).values)

    state = PipelineState(next_col=1, prev_slid=None, det_state=None, events=[])
    keep(iter_run(ds, **cfg, stop_step=stop, state=state))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.ckpt")
        save_checkpoint(path, state)
        resumed = load_checkpoint(path)
    keep(iter_run(ds, **cfg, state=resumed))
    for fam, rows in kept.items():
        assert np.array_equal(np.vstack(rows), getattr(straight, f"{fam}_hist")), fam
    assert resumed.events == straight.events
    assert resumed.det_state == straight.final_state


@st.composite
def shuffled_datasets(draw):
    """Random walks on uniform random coordinates, which leave no ties among
    spatial or kinematic distances, plus a permutation of the points."""
    n = draw(st.integers(10, 30))
    steps = draw(st.integers(5, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    disp = np.cumsum(rng.normal(0.0, 1.0, size=(n, steps)), axis=1)
    coords = rng.uniform(0.0, 10.0, size=(n, 2))
    perm = rng.permutation(n)
    ds = make_dataset(disp, coords=coords)
    shuffled = make_dataset(disp[perm], coords=coords[perm], ids=perm)
    return ds, shuffled, perm


@settings(max_examples=15, deadline=None)
@given(data=shuffled_datasets())
def test_point_order_permutes_the_outputs(data):
    # every per-point family is computed row by row, so it only moves with its
    # point; st-LID z-scores sum over the points, whose order changes the
    # rounding
    ds, shuffled, perm = data
    cfg = dict(
        lid_config=LidConfig(s=4),
        fusion_config=FusionConfig(k=3),
        detection_config=DetectionConfig(n=2),
    )
    base = run_detection(ds, **cfg)
    moved = run_detection(shuffled, **cfg)
    back = np.argsort(perm)
    exact = ["s_hist", "fused_hist", "t_hist"]
    exact += [f"{fam}_valid_hist" for fam in ("s", "fused", "t", "st")]
    for name in exact:
        assert np.array_equal(getattr(moved, name)[:, back], getattr(base, name)), name
    np.testing.assert_allclose(moved.st_hist[:, back], base.st_hist, rtol=0.0, atol=1e-12)
    assert len(moved.events) == len(base.events)
    for got, want in zip(moved.events, base.events):
        assert (got.detection_step, got.point_id, got.location) == (
            want.detection_step, want.point_id, want.location,
        )
        assert abs(got.value - want.value) <= 1e-12


GRID = [(float(i % 6), float(i // 6)) for i in range(36)]


@st.composite
def degenerate_datasets(draw):
    """36-point grids with degenerate series, plus masks of the points whose
    s-LID and t-LID neighbourhoods are degenerate at every step."""
    kind = draw(st.sampled_from([
        "constant", "zero", "identical", "per-point-constant", "half-identical",
        "scaled-1e300", "scaled-1e-300",
    ]))
    steps = draw(st.integers(6, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    walk = np.cumsum(rng.normal(0.0, 1.0, size=(36, steps)), axis=1)
    one = walk[0]
    s_deg = np.zeros(36, dtype=bool)
    t_deg = np.zeros(36, dtype=bool)
    if kind in ("constant", "zero"):
        disp = np.full((36, steps), 0.0 if kind == "zero" else draw(st.floats(-1e6, 1e6)))
        s_deg[:] = t_deg[:] = True
    elif kind == "identical":  # every point holds the same series
        disp = np.tile(one, (36, 1))
        s_deg[:] = True
    elif kind == "per-point-constant":  # no velocity anywhere
        disp = np.repeat(rng.normal(0.0, 1.0, size=(36, 1)), steps, axis=1)
        t_deg[:] = True
    elif kind == "half-identical":
        disp = walk.copy()
        disp[::2] = one
        s_deg[::2] = True
    else:
        # squared kinematic distances overflow to inf or underflow to 0
        disp = walk * (1e300 if kind == "scaled-1e300" else 1e-300)
        s_deg[:] = True
    return kind, make_dataset(disp, coords=GRID), s_deg, t_deg


@settings(max_examples=30, deadline=None)
@given(data=degenerate_datasets())
def test_degenerate_inputs_are_flagged_and_never_nan(data):
    kind, ds, s_deg, t_deg = data
    res = run_detection(
        ds,
        lid_config=LidConfig(s=4),
        fusion_config=FusionConfig(k=3),
        detection_config=DetectionConfig(n=2),
    )
    assert not np.isnan(res.st_hist).any(), kind
    assert np.all((res.st_hist >= 0.0) & (res.st_hist <= 1.0)), kind
    assert not res.s_valid_hist[:, s_deg].any(), kind
    assert not res.t_valid_hist[:, t_deg].any(), kind
    assert not res.st_valid_hist[:, s_deg | t_deg].any(), kind


def test_too_small_or_collapsed_grids_raise_stlid_errors():
    cfg = dict(
        lid_config=LidConfig(s=4),
        fusion_config=FusionConfig(k=3),
        detection_config=DetectionConfig(n=2),
    )
    rng = np.random.default_rng(11)
    square = make_dataset(rng.normal(size=(4, 8)), coords=[(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(StlidError):  # n <= k: no neighbourhood of k others
        run_detection(square, **cfg)
    stacked = make_dataset(np.cumsum(rng.normal(size=(36, 8)), axis=1), coords=[(2.0, 3.0)] * 36)
    with pytest.raises(StlidError):  # every point at one coordinate
        run_detection(stacked, **cfg)

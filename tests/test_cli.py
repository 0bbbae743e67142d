import json
import tracemalloc
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import stlid.cli
import stlid.lid
import stlid.metrics
import stlid.pipeline
from stlid import (
    BaselineConfig,
    DetectionConfig,
    FusionConfig,
    LidConfig,
    load_dataset,
    load_ground_truth,
    raw_slid_baseline,
    run_detection,
    save_dataset,
    shipped_scenario_spec,
)
from stlid.cli import build_settings, format_settings, main, parse_kv_file
from stlid.data import POINTS_HEADER, SCORES_HEADER, SERIES_HEADER, fmt_float
from stlid.errors import DataError

from conftest import make_dataset, overflowing_grid

DOCS = Path(__file__).resolve().parents[1] / "docs"


def write_spec(path, **overrides):
    base = dict(
        grid_nx=12,
        grid_ny=10,
        num_steps=120,
        noise_sd=0.08,
        region="4,3,8,7",
        time_of_failure=100,
        onset_step=60,
        steady_rate=0.3,
        rate_floor=0.5,
        bump_width=0.45,
        rate_jitter=0.06,
        slip_theta=0.0,
        seed=3,
    )
    base.update(overrides)
    path.write_text("".join(f"{k}={v}\n" for k, v in base.items()))
    return path


@pytest.fixture
def generated(tmp_path):
    spec = write_spec(tmp_path / "spec.cfg")
    paths = {
        "points": tmp_path / "p.csv",
        "series": tmp_path / "s.csv",
        "truth": tmp_path / "t.csv",
    }
    rc = main([
        "generate", str(spec),
        "--points", str(paths["points"]),
        "--series", str(paths["series"]),
        "--truth", str(paths["truth"]),
    ])
    assert rc == 0
    return paths


def test_generate_outputs_loadable(generated):
    ds = load_dataset(generated["points"], generated["series"])
    assert ds.num_points == 120 and ds.num_steps == 120
    truth = load_ground_truth(generated["truth"])
    assert truth.regions[0].tof == 100


def test_generate_deterministic(tmp_path):
    spec = write_spec(tmp_path / "spec.cfg")
    outs = []
    for tag in ("a", "b"):
        pts, ser = tmp_path / f"p{tag}.csv", tmp_path / f"s{tag}.csv"
        assert main(["generate", str(spec), "--points", str(pts), "--series", str(ser)]) == 0
        outs.append(ser.read_bytes())
    assert outs[0] == outs[1]


def test_generate_invalid_spec_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.cfg", time_of_failure=500)  # > num_steps
    rc = main(["generate", str(spec), "--points", "x.csv", "--series", "y.csv"])
    assert rc == 3
    assert "time_of_failure" in capsys.readouterr().err


def test_generate_unknown_field(tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text("grid_nx=4\ngrid_ny=4\nnum_steps=50\nwobble=3\n")
    assert main(["generate", str(spec), "--points", "x.csv", "--series", "y.csv"]) == 3


def test_detect_runs_and_writes_logs(generated, tmp_path, capsys):
    events = tmp_path / "events.csv"
    scores = tmp_path / "scores.csv"
    rc = main([
        "detect",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--truth", str(generated["truth"]),
        "--set", "lid.s=8", "--set", "fusion.k=4", "--set", "detection.n=5",
        "--events", str(events),
        "--scores", str(scores),
    ])
    assert rc == 0
    assert events.exists() and scores.exists()
    assert scores.read_text().splitlines()[0] == (
        "t,point_id,s_lid,fused_s_lid,t_lid,st_lid,s_valid,fused_valid,t_valid,st_valid"
    )
    out = capsys.readouterr().out
    assert "lead[failure]" in out


def test_detect_at_step_too_early(generated, capsys):
    rc = main([
        "detect",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--at-step", "2",
    ])
    assert rc == 3
    assert "at-step" in capsys.readouterr().err


def _detect_args(generated, *args):
    return [
        "detect",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--truth", str(generated["truth"]),
        "--set", "lid.s=8", "--set", "fusion.k=4",
        *args,
    ]


@pytest.mark.parametrize("scores", [False, True], ids=["no-scores", "scores"])
def test_detect_streams_one_run_without_run_detection(generated, tmp_path, monkeypatch, scores):
    calls = Counter()
    for name in ("run_detection", "iter_run"):
        def counted(*args, _name=name, _real=getattr(stlid.pipeline, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(stlid.pipeline, name, counted)
    args = ["--scores", str(tmp_path / "scores.csv")] if scores else []
    assert main(_detect_args(generated, *args)) == 0
    assert calls == {"iter_run": 1}


@pytest.mark.parametrize("parallel", [1, 2])
def test_detect_scores_holds_no_history_sized_array(tmp_path, monkeypatch, parallel):
    # as test_pipeline's run-memory test: 32 KB tiles, full at both lengths,
    # and the dataset is built before the trace starts
    monkeypatch.setattr(stlid.lid, "_TILE_CELLS", 4096)
    n, steps = 100, 300
    coords = [(float(i % 10), float(i // 10)) for i in range(n)]
    peaks = []
    for t in (steps, 2 * steps):
        rng = np.random.default_rng(7)
        ds = make_dataset(np.cumsum(rng.normal(0, 0.1, size=(n, t)), axis=1), coords=coords)
        monkeypatch.setattr(stlid.cli, "load_dataset", lambda *args, **kwargs: ds)
        scores = tmp_path / f"scores{t}.csv"
        argv = ["detect", "--points", "-", "--series", "-", "--parallel", str(parallel),
                "--scores", str(scores)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(scores.read_text().splitlines()) == 1 + n * (t - 3)
    # one more n x steps float64 array would add n * steps * 8 bytes
    assert peaks[1] - peaks[0] < n * steps * 8 / 4, peaks


@pytest.mark.parametrize("fault", ["refused", "failed", "interrupted"])
def test_a_refused_or_failed_detect_leaves_the_score_dump_untouched(
    generated, tmp_path, monkeypatch, fault
):
    scores = tmp_path / "scores.csv"
    scores.write_text("an earlier dump\n")
    argv = _detect_args(generated, "--scores", str(scores))
    if fault == "refused":
        assert main([*argv, "--set", "detection.epsilon=nan"]) == 3
    else:
        real = stlid.pipeline.iter_run
        error = DataError("stopped midway") if fault == "failed" else KeyboardInterrupt()

        def midway(*args, **kwargs):  # rows of 18 st-LID steps are written first
            for i, rec in enumerate(real(*args, **kwargs)):
                if i == 20:
                    raise error
                yield rec

        monkeypatch.setattr(stlid.pipeline, "iter_run", midway)
        if fault == "failed":
            assert main(argv) == 2
        else:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
    assert scores.read_text() == "an earlier dump\n"
    assert not list(tmp_path.glob("*.tmp"))


def _stored_dump(dataset, res) -> list:
    """The lines of the score dump of a ``store="all"`` run, written row by
    row from its histories: the reference the streamed dump must equal byte
    for byte."""
    hists = [  # each family's histories and the column of their first row
        (getattr(res, f"{fam}_hist"), getattr(res, f"{fam}_valid_hist"), first)
        for fam, first in (
            ("s", stlid.lid.S_LID_FIRST_COL), ("fused", stlid.lid.S_LID_FIRST_COL),
            ("t", stlid.lid.T_LID_FIRST_COL), ("st", stlid.lid.T_LID_FIRST_COL),
        )
    ]
    lines = [",".join(SCORES_HEADER) + "\n"]
    for step in res.st_steps:
        col = step - dataset.start_step
        values = [v[col - first] for v, _, first in hists]
        valid = [m[col - first] for _, m, first in hists]
        for j, pid in enumerate(dataset.ids):
            cells = [fmt_float(v[j]) for v in values] + [str(int(m[j])) for m in valid]
            lines.append(f"{step},{pid},{','.join(cells)}\n")
    return lines


@pytest.mark.parametrize("normalization", ["zscore", "zscore-history"])
@pytest.mark.parametrize("at_step", [None, 20])
@pytest.mark.parametrize("parallel", [1, 3])
@pytest.mark.parametrize("shared", [False, True], ids=["noise", "shared-series"])
def test_score_dump_equals_the_rows_of_the_stored_histories(
    grid_noise_dataset, tmp_path, shared, parallel, at_step, normalization
):
    ds = grid_noise_dataset
    if shared:  # as test_step_layout: eight points share one series, so 0 flags appear
        disp = ds.displacement.copy()
        disp[:8] = disp[0]
        ds = make_dataset(disp, coords=ds.coords)
    points, series, scores = (tmp_path / name for name in ("p.csv", "s.csv", "scores.csv"))
    save_dataset(ds, points, series)
    sets = ["lid.s=6", "fusion.k=4", f"detection.normalization={normalization}"]
    argv = ["detect", "--points", str(points), "--series", str(series),
            *(a for s in sets for a in ("--set", s)), "--parallel", str(parallel),
            "--scores", str(scores), *(["--at-step", str(at_step)] if at_step else [])]
    assert main(argv) == 0
    settings = build_settings(None, sets)
    res = run_detection(
        load_dataset(points, series), stop_step=at_step, store="all",
        lid_config=settings.lid, fusion_config=settings.fusion,
        detection_config=settings.detection,
    )
    assert res.s_valid_hist.all() == (not shared)  # 0 flags appear with the shared series only
    got, want = scores.read_text().splitlines(keepends=True), _stored_dump(ds, res)
    # line by line, so that a failure names its first line, not a diff of the whole file
    assert len(got) == len(want), (len(got), len(want))
    assert not [(g, w) for g, w in zip(got, want) if g != w][:1]
    assert main(["validate", "scores", str(scores)]) == 0


def test_detect_parallel_bit_identical(generated, tmp_path):
    outs = []
    for p in ("1", "2"):
        path = tmp_path / f"scores{p}.csv"
        rc = main([
            "detect",
            "--points", str(generated["points"]),
            "--series", str(generated["series"]),
            "--set", "lid.s=8", "--set", "fusion.k=4",
            "--parallel", p,
            "--scores", str(path),
        ])
        assert rc == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_detect_missing_file_exit_code(tmp_path):
    rc = main([
        "detect", "--points", str(tmp_path / "nope.csv"), "--series", str(tmp_path / "nope2.csv"),
    ])
    assert rc == 2


def test_detect_overflowing_velocity_exits_2(tmp_path, capsys):
    disp, coords = overflowing_grid()
    pts, ser = tmp_path / "p.csv", tmp_path / "s.csv"
    pts.write_text(
        ",".join(POINTS_HEADER) + "\n"
        + "".join(f"{i},{fmt_float(x)},{fmt_float(y)}\n" for i, (x, y) in enumerate(coords))
    )
    ser.write_text(
        ",".join(SERIES_HEADER) + "\n"
        + "".join(
            f"{i},{t},{fmt_float(v)}\n" for i, row in enumerate(disp) for t, v in enumerate(row)
        )
    )
    assert main(["detect", "--points", str(pts), "--series", str(ser)]) == 2
    assert "overflowing velocity for point id 0 at step 1" in capsys.readouterr().err


def test_print_config_and_overrides(generated, capsys):
    rc = main([
        "detect",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--set", "lid.s=8", "--set", "fusion.k=4",
        "--at-step", "10",
        "--print-config",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lid.s=8" in out and "fusion.k=4" in out and "detection.n=10" in out


def test_bad_config_key(generated, capsys):
    rc = main([
        "detect",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--set", "lid.neighbors=8",
    ])
    assert rc == 3
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "detection.epsilon=nan", "detection.epsilon=inf", "lid.epsilon_floor=nan",
    "fusion.bandwidth=nan", "fusion.variance_floor=nan",
    # bad baseline values used to report the method as n.a., or (eps nan, 0)
    # to run another DBSCAN than the one asked for
    "baseline.dbscan_eps=-1", "baseline.dbscan_eps=nan", "baseline.dbscan_eps=0",
    "baseline.dbscan_min_pts=0", "baseline.lof_k=0", "baseline.lof_cutoff=nan",
    "baseline.edq_levels=2",
])
def test_non_finite_config_value_exits_3(generated, capsys, setting):
    # a NaN epsilon-ball holds no point, so it used to run to "no events"
    rc = main([
        "detect",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--set", setting,
    ])
    assert rc == 3
    assert setting.split(".")[1].split("=")[0] in capsys.readouterr().err


def test_config_file_plus_override(generated, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lid.s=9\nfusion.k=4\ndetection.n=7\n")
    rc = main([
        "detect",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--config", str(cfg),
        "--set", "lid.s=6",
        "--at-step", "10",
        "--print-config",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lid.s=6" in out and "detection.n=7" in out


def test_monitor_streams_and_checkpoints(generated, tmp_path, capsys):
    ck = tmp_path / "state.ckpt"  # no .npz suffix: resumed from exactly this name
    ev = tmp_path / "events.csv"
    args = [
        "monitor",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--set", "lid.s=8", "--set", "fusion.k=4", "--set", "detection.n=5",
        "--checkpoint", str(ck),
        "--checkpoint-every", "10",
        "--events", str(ev),
        "--realtime-factor", "0",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "step=" in out and "argmax=" in out
    assert ck.exists()
    full_log = ev.read_bytes()

    # resume from the checkpoint: the final event log matches the full run
    ev2 = tmp_path / "events2.csv"
    args_resume = args[:-4] + ["--events", str(ev2), "--resume"]
    assert main(args_resume) == 0
    assert ev2.read_bytes() == full_log


def test_monitor_resume_against_another_dataset_exits_3(generated, tmp_path, capsys):
    ck = tmp_path / "state.ckpt"
    args = [
        "monitor",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--set", "lid.s=8", "--set", "fusion.k=4",
        "--checkpoint", str(ck),
        "--checkpoint-every", "40",
    ]
    assert main(args) == 0
    # the same spec on a smaller grid, then on a shorter series
    others = {
        "grid": {"grid_nx": 6, "region": "1,1,4,4"},
        "short": {"num_steps": 30, "onset_step": 10, "time_of_failure": 20},
    }
    for name, override in others.items():
        spec = write_spec(tmp_path / f"{name}.cfg", **override)
        pts, ser = tmp_path / f"{name}_p.csv", tmp_path / f"{name}_s.csv"
        assert main(["generate", str(spec), "--points", str(pts), "--series", str(ser)]) == 0
        capsys.readouterr()
        resume = ["monitor", "--points", str(pts), "--series", str(ser), *args[5:], "--resume"]
        assert main(resume) == 3
        assert "config error" in capsys.readouterr().err


def test_monitor_resume_from_unreadable_checkpoint_exits_3(generated, tmp_path, capsys):
    ck = tmp_path / "state.ckpt"
    ck.write_text("next_col=5\n")
    args = ["monitor", "--points", str(generated["points"]), "--series", str(generated["series"])]
    assert main([*args, "--checkpoint", str(ck), "--resume"]) == 3
    assert f"checkpoint {ck} is not in this layout" in capsys.readouterr().err
    assert main([*args, "--checkpoint", str(tmp_path / "missing.ckpt"), "--resume"]) == 2


def test_monitor_resume_from_checkpoint_without_prev_slid_exits_3(generated, tmp_path, capsys):
    ck = tmp_path / "state.ckpt"
    args = [
        "monitor",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--set", "lid.s=8", "--set", "fusion.k=4",
        "--checkpoint", str(ck),
        "--checkpoint-every", "20",
    ]
    assert main(args) == 0  # the last checkpoint is taken after step 100 of 119
    with np.load(ck) as npz:
        kept = {name: npz[name] for name in npz.files if name != "prev_slid"}
    with open(ck, "wb") as fh:
        np.savez(fh, **kept)
    capsys.readouterr()
    assert main([*args, "--resume"]) == 3
    out, err = capsys.readouterr()
    assert "holds no prev_slid" in err
    assert "resuming" not in out  # the refused state was never resumed


def test_monitor_resume_under_history_normalization_of_a_zscore_checkpoint_exits_3(
    generated, tmp_path, capsys
):
    ck = tmp_path / "state.ckpt"
    args = [
        "monitor",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--set", "lid.s=8", "--set", "fusion.k=4",
        "--checkpoint", str(ck),
        "--checkpoint-every", "20",
    ]
    assert main(args) == 0  # the last checkpoint is taken after step 100 of 119
    saved = ck.read_bytes()
    capsys.readouterr()
    history = [*args, "--set", "detection.normalization=zscore-history", "--resume"]
    assert main(history) == 3
    out, err = capsys.readouterr()
    assert "holds no t-LID statistics" in err
    assert "resuming" not in out
    # under its own normalization the checkpoint resumes, announced at its first step
    ck.write_bytes(saved)
    assert main([*args, "--resume"]) == 0
    assert capsys.readouterr().out.startswith("resuming at step 101\nstep=101 ")


@pytest.mark.parametrize("field, value", [
    ("next_col", "101"), ("next_col", 101.0), ("hits", "2"), ("fired", 0),
    ("candidate_coord", [4.0]),
])
def test_monitor_resume_from_checkpoint_with_a_field_of_another_type_exits_3(
    generated, tmp_path, capsys, field, value
):
    ck = tmp_path / "state.ckpt"
    args = [
        "monitor",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--set", "lid.s=8", "--set", "fusion.k=4",
        "--checkpoint", str(ck),
        "--checkpoint-every", "20",
    ]
    assert main(args) == 0
    with np.load(ck) as npz:
        kept = {name: npz[name] for name in npz.files}
    meta = json.loads(bytes(kept["meta"]).decode())
    meta[field] = value
    kept["meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
    with open(ck, "wb") as fh:
        np.savez(fh, **kept)
    capsys.readouterr()
    assert main([*args, "--resume"]) == 3
    out, err = capsys.readouterr()
    assert f"checkpoint {ck} is not in this layout" in err
    assert "resuming" not in out


def test_monitor_event_line(tmp_path, capsys):
    # scenario small enough to run fast but guaranteed to fire: reuse the
    # bundled example spec at reduced length via the events of detect
    spec = DOCS / "example_scenario.cfg"
    pts, ser, tr = (tmp_path / n for n in ("p.csv", "s.csv", "t.csv"))
    assert main(["generate", str(spec), "--points", str(pts), "--series", str(ser), "--truth", str(tr)]) == 0
    capsys.readouterr()
    assert main(["monitor", "--points", str(pts), "--series", str(ser)]) == 0
    out = capsys.readouterr().out
    assert "EVENT" in out and "done: 1 event(s)" in out


def test_monitor_step_without_usable_point(tmp_path, capsys):
    # all-zero series: every neighborhood is degenerate, so no point is usable
    pts, ser = tmp_path / "p.csv", tmp_path / "s.csv"
    pts.write_text("id,x,y\n" + "".join(f"{i},{i % 6},{i // 6}\n" for i in range(36)))
    ser.write_text("id,t,displacement\n" + "".join(
        f"{i},{t},0\n" for i in range(36) for t in range(8)
    ))
    rc = main([
        "monitor", "--points", str(pts), "--series", str(ser),
        "--set", "lid.s=4", "--set", "fusion.k=3",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "step=1 (warm-up)", "step=2 (warm-up)", "step=3 argmax=None st=n.a. hits=0",
    ]
    assert lines[-1] == "done: 0 event(s)"


def test_score_dump_flags_sentinel_rows(tmp_path, capsys):
    # all-zero series: every value in the dump is a sentinel fill
    pts, ser, scores = tmp_path / "p.csv", tmp_path / "s.csv", tmp_path / "scores.csv"
    pts.write_text("id,x,y\n" + "".join(f"{i},{i % 6},{i // 6}\n" for i in range(36)))
    ser.write_text("id,t,displacement\n" + "".join(
        f"{i},{t},0\n" for i in range(36) for t in range(8)
    ))
    rc = main([
        "detect", "--points", str(pts), "--series", str(ser),
        "--set", "lid.s=4", "--set", "fusion.k=3", "--scores", str(scores),
    ])
    assert rc == 0
    rows = [line.split(",") for line in scores.read_text().splitlines()[1:]]
    assert len(rows) == 36 * 5
    assert all(row[6:] == ["0", "0", "0", "0"] for row in rows)
    assert main(["validate", "scores", str(scores)]) == 0


def test_benchmark_cli(generated, tmp_path, capsys):
    table = tmp_path / "table.txt"
    csv_out = tmp_path / "report.csv"
    methods_csv = tmp_path / "methods.csv"
    rc = main([
        "benchmark",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--truth", str(generated["truth"]),
        "--set", "lid.s=8", "--set", "fusion.k=4", "--set", "baseline.lof_k=8",
        "--max-backscan", "30",
        "--table", str(table),
        "--csv", str(csv_out),
        "--method-scores", str(methods_csv),
    ])
    assert rc == 0
    text = table.read_text()
    for name in ("kmeans", "dbscan", "lof", "edq", "slid", "stlid"):
        assert name in text
    assert csv_out.read_text().count("\n") == 1 + 6
    lines = methods_csv.read_text().splitlines()
    assert lines[0] == "t,point_id,method,score,high_risk"
    assert {row.split(",")[2] for row in lines[1:]} == {"kmeans", "dbscan", "lof", "edq", "slid"}
    # the dump reads the detector run's s-LID row; it must equal the standalone baseline
    ds = load_dataset(generated["points"], generated["series"])
    tof = load_ground_truth(generated["truth"]).regions[0].tof
    ref = raw_slid_baseline(ds, tof, LidConfig(s=8))
    slid = [row.split(",") for row in lines[1:] if row.split(",")[2] == "slid"]
    assert [int(r[0]) for r in slid] == [tof] * ds.num_points
    assert [int(r[1]) for r in slid] == list(ds.ids)
    assert np.array_equal([float(r[3]) for r in slid], ref.likelihood)
    assert np.array_equal([r[4] == "1" for r in slid], ref.high_risk)


def test_benchmark_method_scores_compute_each_step_once(generated, tmp_path, monkeypatch):
    calls = Counter()
    real = stlid.metrics.kmeans2

    def counted(values, *args, **kwargs):
        calls[np.asarray(values).tobytes()] += 1  # one displacement column per step
        return real(values, *args, **kwargs)

    monkeypatch.setattr(stlid.metrics, "kmeans2", counted)
    methods_csv = tmp_path / "methods.csv"
    rc = main([
        "benchmark",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--truth", str(generated["truth"]),
        "--methods", "kmeans",
        "--max-backscan", "30",
        "--method-scores", str(methods_csv),
    ])
    assert rc == 0
    assert methods_csv.read_text().count("\n") == 1 + 120
    assert set(calls.values()) == {1}


def _benchmark_args(generated, *args):
    return [
        "benchmark",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--truth", str(generated["truth"]),
        "--set", "lid.s=8", "--set", "fusion.k=4",
        *args,
    ]


@pytest.mark.parametrize("methods, store", [("kmeans,stlid", "st"), ("kmeans,slid,stlid", "all")])
def test_benchmark_makes_one_run_keeping_the_rows_it_reads(
    generated, tmp_path, monkeypatch, methods, store
):
    stores = []
    real = stlid.metrics.run_detection

    def counted(*args, **kwargs):
        stores.append(kwargs["store"])
        return real(*args, **kwargs)

    monkeypatch.setattr(stlid.metrics, "run_detection", counted)
    methods_csv = tmp_path / "methods.csv"
    args = ["--methods", methods, "--max-backscan", "30", "--method-scores", str(methods_csv)]
    assert main(_benchmark_args(generated, *args)) == 0
    assert stores == [store]
    dumped = {row.split(",")[2] for row in methods_csv.read_text().splitlines()[1:]}
    assert dumped == set(methods.split(",")) - {"stlid"}


def test_benchmark_method_scores_of_undefined_method_exits_2(tmp_path, capsys):
    # constant displacement: two-means is undefined at the failure step
    pts, ser, tr = (tmp_path / name for name in ("p.csv", "s.csv", "t.csv"))
    pts.write_text("id,x,y\n" + "".join(f"{i},{i % 6},{i // 6}\n" for i in range(36)))
    ser.write_text("id,t,displacement\n" + "".join(
        f"{i},{t},0\n" for i in range(36) for t in range(8)
    ))
    tr.write_text("label,xmin,ymin,xmax,ymax,tof\nfailure,0,0,2,2,6\n")
    rc = main([
        "benchmark", "--points", str(pts), "--series", str(ser), "--truth", str(tr),
        "--set", "lid.s=4", "--set", "fusion.k=3",
        "--methods", "kmeans,slid", "--method-scores", str(tmp_path / "methods.csv"),
    ])
    assert rc == 2
    assert "all displacement values identical; two-means undefined" in capsys.readouterr().err
    assert not (tmp_path / "methods.csv").exists()


def test_benchmark_method_scores_of_undefined_method_writes_nothing(tmp_path, capsys):
    # every displacement is equal at the failure step only: two-means is
    # undefined there, LOF is not
    rng = np.random.default_rng(5)
    disp = rng.normal(0, 1, size=(36, 10))
    disp[:, 6] = 1.0
    ds = make_dataset(disp, coords=[(float(i % 6), float(i // 6)) for i in range(36)])
    pts, ser, tr = (tmp_path / name for name in ("p.csv", "s.csv", "t.csv"))
    save_dataset(ds, pts, ser)
    tr.write_text("label,xmin,ymin,xmax,ymax,tof\nfailure,0,0,2,2,6\n")
    outputs = [tmp_path / name for name in ("table.txt", "report.csv", "methods.csv")]
    argv = ["benchmark", "--points", str(pts), "--series", str(ser), "--truth", str(tr),
            "--methods", "kmeans,lof", "--print-config",
            *(f"--{flag}={path}" for flag, path in zip(("table", "csv", "method-scores"), outputs))]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and not any(p.exists() for p in outputs)
    assert err == "stlid: error: all displacement values identical; two-means undefined\n"
    # without --method-scores the undefined method is reported as n.a.
    assert main(argv[:-1]) == 0
    assert "n.a." in capsys.readouterr().out


def test_benchmark_negative_max_backscan_exits_3(generated, capsys):
    # it used to cut every scan before it began, reporting every lead as 0
    rc = main(_benchmark_args(generated, "--methods", "kmeans", "--max-backscan", "-3"))
    assert rc == 3
    assert "max_backscan" in capsys.readouterr().err


def test_benchmark_unknown_method(generated, capsys):
    rc = main([
        "benchmark",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--truth", str(generated["truth"]),
        "--methods", "kmeans,voodoo",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "voodoo" in err and "stlid" in err


def test_validate_kinds(generated, tmp_path, capsys):
    assert main(["validate", "points", str(generated["points"])]) == 0
    assert main(["validate", "truth", str(generated["truth"])]) == 0
    assert main([
        "validate", "dataset", str(generated["points"]), "--series", str(generated["series"]),
    ]) == 0

    scores = tmp_path / "scores.csv"
    rc = main([
        "detect",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--set", "lid.s=8", "--set", "fusion.k=4",
        "--scores", str(scores),
    ])
    assert rc == 0
    assert main(["validate", "scores", str(scores)]) == 0

    bad = tmp_path / "bad.csv"
    bad.write_text("t,point_id,s_lid\n1,2,3\n")
    assert main(["validate", "scores", str(bad)]) == 2

    # a bad cell exits 2 and names the file, the line and the column
    header = scores.read_text().splitlines()[0]
    cases = [
        ("scores", header + "\n3,x,1,1,1,0.5,1,1,1,1\n", "point_id"),
        ("scores", header + "\n3,1,1,1,1,0.5,1,2,1,1\n", "fused_valid"),
        ("events", "detection_step,point_id,x,y,st_lid\n3,1,abc,1,0.5\n", "bad x"),
    ]
    for kind, text, column in cases:
        bad.write_text(text)
        capsys.readouterr()
        assert main(["validate", kind, str(bad)]) == 2, text
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err and column in err, err


def test_usage_error_exit_code(capsys):
    assert main(["detect"]) == 1  # missing required arguments
    assert main([]) == 1


def test_shipped_docs_specs_parse():
    from stlid.cli import load_scenario_spec

    small = load_scenario_spec(DOCS / "example_scenario.cfg")
    small.validate()
    big = load_scenario_spec(DOCS / "shipped_scenario.cfg")
    big.validate()
    assert big.grid_nx * big.grid_ny == 2000 and big.num_steps == 2000
    assert big == shipped_scenario_spec(seed=2024)


def test_default_settings_match_default_cfg():
    defaults = format_settings(build_settings(None, None))
    text = (DOCS / "default.cfg").read_text().splitlines()
    lines = [line.split("#", 1)[0].strip() for line in text]
    assert [line for line in lines if line] == defaults.splitlines()
    shipped = build_settings(parse_kv_file(DOCS / "default.cfg"), None)
    assert format_settings(shipped) == defaults


# one value per config key, none of them its default, as --print-config shows it
NON_DEFAULT = {
    "lid.s": "7",
    "lid.zero_distance_policy": "floor",
    "lid.epsilon_floor": "1e-09",
    "fusion.k": "3",
    "fusion.obs_k": "12",
    "fusion.bandwidth": "0.7",
    "fusion.variance_floor": "1e-05",
    "fusion.weight_space": "kinematic",
    "detection.n": "4",
    "detection.epsilon": "3.5",
    "detection.threshold": "0.7",
    "detection.normalization": "raw",
    "baseline.dbscan_eps": "0.2",
    "baseline.dbscan_min_pts": "5",
    "baseline.lof_k": "7",
    "baseline.lof_cutoff": "2.0",
    "baseline.edq_levels": "0.6;0.7;0.8",
    "parallel": "2",
    "step_interval_minutes": "1.0",
}


def test_every_config_field_is_a_settable_key():
    sections = {
        "lid": LidConfig, "fusion": FusionConfig,
        "detection": DetectionConfig, "baseline": BaselineConfig,
    }
    keys = [f"{name}.{f.name}" for name, cls in sections.items() for f in fields(cls)]
    assert list(NON_DEFAULT) == keys + ["parallel", "step_interval_minutes"]
    defaults = format_settings(build_settings(None, None)).splitlines()
    assert [line.split("=", 1)[0] for line in defaults] == list(NON_DEFAULT)
    wanted = [f"{key}={val}" for key, val in NON_DEFAULT.items()]
    assert not set(wanted) & set(defaults)
    assert format_settings(build_settings(None, wanted)).splitlines() == wanted


def _print_config(generated, capsys, *args, command=("detect", "--at-step", "3")):
    """The --print-config lines of a short ``command`` run given ``args``."""
    rc = main([
        *command,
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--print-config",
        *args,
    ])
    assert rc == 0
    return capsys.readouterr().out.splitlines()[:len(NON_DEFAULT)]


@pytest.mark.parametrize("command", [
    ("monitor",),
    ("benchmark", "--methods", "kmeans", "--max-backscan", "5"),
], ids=["monitor", "benchmark"])
def test_print_config_on_every_run_command(generated, capsys, command):
    sets = ["lid.s=8", "fusion.k=4"]
    args = ["--truth", str(generated["truth"]), *(a for s in sets for a in ("--set", s))]
    dump = _print_config(generated, capsys, *args, command=command)
    assert dump == format_settings(build_settings(None, sets)).splitlines()


@pytest.mark.parametrize("sets", [
    [],
    [
        "fusion.obs_k=12", "detection.epsilon=3.5", "baseline.dbscan_eps=0.2",
        "fusion.bandwidth=0.7", "baseline.edq_levels=0.6;0.7;0.8",
    ],
], ids=["defaults", "non-default"])
def test_print_config_reloads_through_config(generated, tmp_path, capsys, sets):
    dump = _print_config(generated, capsys, *(a for s in sets for a in ("--set", s)))
    cfg = tmp_path / "dump.cfg"
    cfg.write_text("\n".join(dump) + "\n")
    assert _print_config(generated, capsys, "--config", str(cfg)) == dump
    assert build_settings(parse_kv_file(cfg), None) == build_settings(None, sets)


def test_detect_reports_example_lead_in_minutes(tmp_path, capsys):
    # the default step interval is the example scenario's 2.5 minutes
    paths = [str(tmp_path / name) for name in ("p.csv", "s.csv", "t.csv")]
    args = ["--points", paths[0], "--series", paths[1], "--truth", paths[2]]
    assert main(["generate", str(DOCS / "example_scenario.cfg"), *args]) == 0
    assert main(["detect", *args]) == 0
    assert "lead[failure] = 60 steps (150.0 min)" in capsys.readouterr().out.splitlines()


# ---------------------------------------------------------------------------
# every outside number is refused where it enters
# ---------------------------------------------------------------------------

ALL = ("nan", "inf", "-1", "0")
# each numeric config key and which of ALL lie outside its range
CONFIG_OUT_OF_RANGE = {
    "lid.s": ALL,
    "lid.epsilon_floor": ALL,
    "fusion.k": ALL,
    "fusion.obs_k": ALL,
    "fusion.bandwidth": ALL,
    "fusion.variance_floor": ALL,
    "detection.n": ALL,
    "detection.epsilon": ALL,
    "detection.threshold": ALL,
    "baseline.dbscan_eps": ALL,
    "baseline.dbscan_min_pts": ALL,
    "baseline.lof_k": ALL,
    "baseline.lof_cutoff": ("nan", "inf"),
    "baseline.edq_levels": ("nan", "inf", "-1"),
    "parallel": ALL,
    "step_interval_minutes": ALL,
}
# each numeric scenario spec field and which of ALL lie outside its range
SPEC_OUT_OF_RANGE = {
    "grid_nx": ALL, "grid_ny": ALL, "num_steps": ALL, "seed": ("nan", "inf", "-1"),
    "noise_sd": ("nan", "inf", "-1"), "region": ALL, "time_of_failure": ALL,
    "steady_rate": ALL, "onset_step": ALL, "accel_exponent": ALL, "spacing": ALL,
    "drift_max": ("nan", "inf", "-1"), "transient_amp": ("nan", "inf", "-1"),
    "transient_tau": ALL, "rate_floor": ALL, "bump_width": ALL,
    "rate_jitter": ("nan", "inf", "-1"), "slip_theta": ("nan", "inf", "-1"),
    "slip_rho": ("nan", "inf", "-1"), "step_interval_minutes": ALL,
}


@pytest.fixture(scope="module")
def example(tmp_path_factory):
    """Points, series and truth of the small spec, shared by the table cases."""
    root = tmp_path_factory.mktemp("example")
    paths = {name: root / f"{name}.csv" for name in ("points", "series", "truth")}
    spec = write_spec(root / "spec.cfg")
    args = [f"--{name}={path}" for name, path in paths.items()]
    assert main(["generate", str(spec), *args]) == 0
    return paths


def test_the_tables_cover_every_number():
    from stlid.cli import _setting_types
    from stlid.synthetic import CreepScenarioSpec

    numeric = [key for key, tp in _setting_types().items() if tp is not str]
    assert list(CONFIG_OUT_OF_RANGE) == numeric
    assert set(SPEC_OUT_OF_RANGE) == {f.name for f in fields(CreepScenarioSpec)}


# the two output files each run command writes
OUTPUT_FLAGS = {
    "detect": ("--scores", "--events"),
    "monitor": ("--checkpoint", "--events"),
    "benchmark": ("--table", "--csv"),
}


def _run_argv(command, example, tmp_path):
    """``command`` over the example, with its output files in ``tmp_path``:
    (argv, the output paths)."""
    outputs = [tmp_path / "out.csv", tmp_path / "ev.csv"]
    argv = [command, *(f"--{name}={path}" for name, path in example.items())]
    argv += [f"{flag}={path}" for flag, path in zip(OUTPUT_FLAGS[command], outputs)]
    return argv, outputs


def _refused(capsys, argv, outputs, code=3):
    """Run ``argv``: it exits with ``code`` before any output, and writes no
    file of ``outputs``."""
    assert main(argv) == code, argv
    out, err = capsys.readouterr()
    assert out == "" and not any(p.exists() for p in outputs), argv
    assert err.startswith(f"stlid: {({1: 'usage', 2: 'data'}).get(code, 'config')} error: ")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["detect", "monitor", "benchmark"])
@pytest.mark.parametrize("key, value", [
    (key, value) for key, values in CONFIG_OUT_OF_RANGE.items() for value in values
])
def test_an_out_of_range_setting_exits_3_before_any_output(
    example, tmp_path, capsys, command, key, value
):
    argv, outputs = _run_argv(command, example, tmp_path)
    err = _refused(capsys, [*argv, "--print-config", "--set", f"{key}={value}"], outputs)
    assert key.rpartition(".")[2] in err


@pytest.mark.parametrize("field, value", [
    *((field, value) for field, values in SPEC_OUT_OF_RANGE.items() for value in values),
    ("region", "30,30,40,40"),  # on the 12 x 10 grid: no point inside
    ("region", "1,2,3"),
])
def test_an_out_of_range_spec_field_exits_3_before_any_output(tmp_path, capsys, field, value):
    spec = write_spec(tmp_path / "spec.cfg", **{field: value})
    outputs = [tmp_path / f"{name}.csv" for name in ("points", "series", "truth")]
    err = _refused(capsys, ["generate", str(spec), *(f"--{p.stem}={p}" for p in outputs)], outputs)
    assert field in err


@pytest.mark.parametrize("command, flag, value, code", [
    ("detect", "--parallel", "-1", 3), ("detect", "--parallel", "0", 3),
    ("detect", "--parallel", "nan", 1), ("detect", "--parallel", "inf", 1),
    ("detect", "--at-step", "-1", 3), ("detect", "--at-step", "0", 3),
    ("detect", "--at-step", "nan", 1), ("detect", "--at-step", "inf", 1),
    ("detect", "--at-step", "120", 3),  # the example's last step is 119
    ("monitor", "--parallel", "0", 3),
    ("monitor", "--checkpoint-every", "0", 3), ("monitor", "--checkpoint-every", "-5", 3),
    ("monitor", "--checkpoint-every", "nan", 1), ("monitor", "--checkpoint-every", "inf", 1),
    ("monitor", "--realtime-factor", "nan", 3), ("monitor", "--realtime-factor", "inf", 3),
    ("monitor", "--realtime-factor", "-1", 3),
    ("benchmark", "--parallel", "0", 3),
    ("benchmark", "--max-backscan", "-1", 3),
    ("benchmark", "--max-backscan", "nan", 1), ("benchmark", "--max-backscan", "inf", 1),
])
def test_an_out_of_range_flag_exits_with_its_code_before_any_output(
    example, tmp_path, capsys, command, flag, value, code
):
    argv, outputs = _run_argv(command, example, tmp_path)
    for dump in ([], ["--print-config"]):
        err = _refused(capsys, [*argv, f"{flag}={value}", *dump], outputs, code)
        assert code == 1 or flag.strip("-").replace("-", "_") in err.replace("-", "_")


@pytest.mark.parametrize("command", ["detect", "monitor", "benchmark"])
def test_a_truth_outside_the_dataset_exits_2_before_any_output(
    example, tmp_path, capsys, command
):
    late = tmp_path / "late.csv"  # the example's last step is 119
    late.write_text("label,xmin,ymin,xmax,ymax,tof\nfailure,4,3,8,7,120\n")
    argv, outputs = _run_argv(command, {**example, "truth": late}, tmp_path)
    err = _refused(capsys, [*argv, "--print-config"], outputs, code=2)
    assert "time of failure 120" in err


def test_parallel_flag_is_checked_before_the_config_dump(example, capsys):
    # the dump used to print parallel=0, which does not load back, and only
    # then did the run refuse it
    argv = ["detect", *(f"--{name}={path}" for name, path in example.items())]
    err = _refused(capsys, [*argv, "--parallel", "0", "--print-config"], [])
    assert "parallel must lie in [1, inf), got 0" in err
    assert main([*argv, "--parallel", "2", "--print-config", "--at-step", "3"]) == 0
    assert "parallel=2" in capsys.readouterr().out.splitlines()


def test_generate_negative_seed_exits_3(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.cfg")
    outputs = [tmp_path / f"{name}.csv" for name in ("points", "series")]
    _refused(capsys, ["generate", str(spec), *(f"--{p.stem}={p}" for p in outputs),
                      "--seed", "-1"], outputs)


@pytest.mark.parametrize("normalization, name, bad", [
    ("zscore", "prev_slid", lambda a: a.astype(np.int64)),
    ("zscore", "prev_slid", lambda a: np.where(np.arange(a.size) == 5, np.nan, a)),
    ("zscore", "prev_slid", lambda a: -a),
    ("zscore-history", "t_m2", lambda a: a - a.max() - 1.0),
], ids=["int-prev_slid", "nan-prev_slid", "negative-prev_slid", "negative-t_m2"])
def test_monitor_resume_from_checkpoint_with_arrays_outside_their_range_exits_3(
    generated, tmp_path, capsys, normalization, name, bad
):
    ck = tmp_path / "state.ckpt"
    args = [
        "monitor",
        "--points", str(generated["points"]),
        "--series", str(generated["series"]),
        "--set", "lid.s=8", "--set", "fusion.k=4",
        "--set", f"detection.normalization={normalization}",
        "--checkpoint", str(ck),
        "--checkpoint-every", "20",
    ]
    assert main(args) == 0  # the last checkpoint is taken after step 100 of 119
    with np.load(ck) as npz:
        kept = {key: npz[key] for key in npz.files}
    kept[name] = bad(kept[name])
    with open(ck, "wb") as fh:
        np.savez(fh, **kept)
    capsys.readouterr()
    assert main([*args, "--resume"]) == 3
    out, err = capsys.readouterr()
    assert f"state {name}" in err
    assert "resuming" not in out


def _monitor_resume_argv(example, tmp_path, checkpoint):
    """``monitor --resume --print-config`` over the example from ``checkpoint``,
    with its event log in ``tmp_path``: (argv, the output paths)."""
    events = tmp_path / "ev.csv"
    argv = ["monitor", *(f"--{name}={path}" for name, path in example.items()),
            f"--events={events}", "--resume", "--print-config"]
    if checkpoint is not None:
        argv.append(f"--checkpoint={checkpoint}")
    return argv, [events]


def _written_checkpoint(example, tmp_path, capsys):
    """The example's checkpoint after step 100 of 119, as its arrays and meta record."""
    ck = tmp_path / "state.ckpt"
    argv = ["monitor", *(f"--{name}={path}" for name, path in example.items()),
            f"--checkpoint={ck}", "--checkpoint-every=20"]
    assert main(argv) == 0
    capsys.readouterr()
    with np.load(ck) as npz:
        kept = {key: npz[key] for key in npz.files}
    return ck, kept, json.loads(bytes(kept["meta"]).decode())


def _rewrite(ck, arrays, meta):
    with open(ck, "wb") as fh:
        np.savez(fh, **{**arrays, "meta": np.frombuffer(json.dumps(meta).encode(), np.uint8)})


def test_a_refused_resume_prints_no_config_dump(example, tmp_path, capsys):
    argv, outputs = _monitor_resume_argv(example, tmp_path, None)
    assert "--resume needs --checkpoint" in _refused(capsys, argv, outputs)

    text = tmp_path / "text.ckpt"
    text.write_text("next_col=5\n")
    argv, outputs = _monitor_resume_argv(example, tmp_path, text)
    assert "is not in this layout" in _refused(capsys, argv, outputs)

    argv, outputs = _monitor_resume_argv(example, tmp_path, tmp_path / "missing.ckpt")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "No such file" in err and not outputs[0].exists()

    ck, arrays, meta = _written_checkpoint(example, tmp_path, capsys)
    argv, outputs = _monitor_resume_argv(example, tmp_path, ck)
    _rewrite(ck, {**arrays, "prev_slid": np.full_like(arrays["prev_slid"], -1.0)}, meta)
    assert "state prev_slid must lie in (0, inf), got -1.0" in _refused(capsys, argv, outputs)
    _rewrite(ck, arrays, {**meta, "hits": 0.5})
    assert "is not in this layout" in _refused(capsys, argv, outputs)
    # the checkpoint as written resumes, announced after the dump
    _rewrite(ck, arrays, meta)
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[len(format_settings(stlid.cli.RunSettings()).splitlines())] == "resuming at step 101"


def test_a_resume_from_a_finished_checkpoint_prints_only_its_events(example, tmp_path, capsys):
    ck = tmp_path / "state.ckpt"
    argv = ["monitor", *(f"--{name}={path}" for name, path in example.items()),
            f"--checkpoint={ck}", "--checkpoint-every=1"]
    assert main(argv) == 0
    done = capsys.readouterr().out.splitlines()[-1]
    assert main([*argv, "--resume"]) == 0
    assert capsys.readouterr().out.splitlines() == [done]


@pytest.fixture(scope="module")
def twelve_points(tmp_path_factory):
    """A 4 x 3 grid: too few points for the default s=20 neighbourhoods."""
    root = tmp_path_factory.mktemp("twelve")
    paths = {name: root / f"{name}.csv" for name in ("points", "series", "truth")}
    spec = write_spec(root / "spec.cfg", grid_nx=4, grid_ny=3, region="1,1,2,2")
    assert main(["generate", str(spec), *(f"--{name}={path}" for name, path in paths.items())]) == 0
    return paths


@pytest.mark.parametrize("command", ["detect", "monitor", "benchmark"])
def test_too_few_points_for_the_neighbourhoods_exits_3_before_any_output(
    twelve_points, tmp_path, capsys, command
):
    argv, outputs = _run_argv(command, twelve_points, tmp_path)
    if command == "benchmark":
        argv.append("--methods=stlid")
    err = _refused(capsys, [*argv, "--print-config"], outputs)
    assert "must lie in (20, inf), got 12" in err


def test_a_benchmark_of_displacement_methods_runs_on_too_few_points(twelve_points, tmp_path, capsys):
    argv, outputs = _run_argv("benchmark", twelve_points, tmp_path)
    assert main([*argv, "--methods=kmeans", "--print-config"]) == 0
    assert capsys.readouterr().out.startswith("lid.s=20\n")
    assert all(p.exists() for p in outputs)

from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import stlid.metrics
from stlid import (
    BaselineConfig,
    DetectionConfig,
    FusionConfig,
    LidConfig,
    load_dataset,
    load_ground_truth,
    raw_slid_baseline,
    shipped_scenario_spec,
)
from stlid.cli import build_settings, format_settings, main, parse_kv_file
from stlid.data import POINTS_HEADER, SERIES_HEADER, fmt_float

from conftest import overflowing_grid

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

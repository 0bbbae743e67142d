import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stlid.data
from stlid import (
    FailureRegion,
    GroundTruth,
    KinematicSample,
    MonitoringDataset,
    load_dataset,
    load_ground_truth,
    sample_at,
    save_dataset,
    save_ground_truth,
    velocity_at,
)
from stlid.data import SERIES_HEADER, _load_series_rows, fmt_float, load_points
from stlid.errors import ConsistencyError, DataError, ParseError

from conftest import make_dataset, overflowing_grid


def write_files(tmp_path, points_rows, series_rows):
    pts = tmp_path / "points.csv"
    ser = tmp_path / "series.csv"
    pts.write_text("id,x,y\n" + "\n".join(points_rows) + "\n")
    ser.write_text("id,t,displacement\n" + "\n".join(series_rows) + "\n")
    return pts, ser


def test_load_well_formed(tmp_path):
    pts, ser = write_files(
        tmp_path,
        ["1,0.0,0.0", "2,1.0,0.0", "3,0.0,1.0"],
        [f"{pid},{t},{pid * 10 + t}" for pid in (1, 2, 3) for t in range(4)],
    )
    ds = load_dataset(pts, ser)
    assert ds.displacement.shape == (3, 4)
    assert ds.start_step == 0
    assert ds.displacement[1, 2] == 22.0


def test_load_unknown_id(tmp_path):
    pts, ser = write_files(tmp_path, ["1,0,0"], ["1,0,1.0", "99,0,2.0"])
    with pytest.raises(ConsistencyError, match="99"):
        load_dataset(pts, ser)


def test_load_nan_cell_names_location(tmp_path):
    pts, ser = write_files(
        tmp_path, ["1,0,0"], ["1,0,1.0", "1,1,NaN"]
    )
    with pytest.raises(DataError) as exc:
        load_dataset(pts, ser)
    msg = str(exc.value)
    assert "1" in msg and "displacement" in msg


def test_load_malformed_row_reports_line(tmp_path):
    pts, ser = write_files(tmp_path, ["1,0,0"], ["1,0,1.0", "1,not_an_int,2.0"])
    with pytest.raises(ParseError, match=":3"):
        load_dataset(pts, ser)


def test_load_bad_header(tmp_path):
    pts = tmp_path / "p.csv"
    pts.write_text("idx,x,y\n1,0,0\n")
    with pytest.raises(ParseError, match="header"):
        load_dataset(pts, pts)


def test_load_non_contiguous_steps(tmp_path):
    pts, ser = write_files(tmp_path, ["1,0,0"], ["1,0,1.0", "1,2,2.0"])
    with pytest.raises(ConsistencyError, match="contiguous"):
        load_dataset(pts, ser)


def test_load_mismatched_step_ranges(tmp_path):
    pts, ser = write_files(
        tmp_path,
        ["1,0,0", "2,1,0"],
        ["1,0,1.0", "1,1,2.0", "2,0,1.0"],
    )
    with pytest.raises(ConsistencyError):
        load_dataset(pts, ser)


def test_load_duplicate_point_id(tmp_path):
    pts, ser = write_files(tmp_path, ["1,0,0", "1,2,0"], ["1,0,1.0"])
    with pytest.raises(ConsistencyError, match="duplicate"):
        load_dataset(pts, ser)


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    disp = rng.normal(0, 1, size=(5, 7)) * np.pi  # awkward decimals
    ds = make_dataset(disp, start_step=10)
    save_dataset(ds, tmp_path / "p.csv", tmp_path / "s.csv")
    back = load_dataset(tmp_path / "p.csv", tmp_path / "s.csv")
    assert back.start_step == 10
    assert np.array_equal(back.displacement, ds.displacement)
    assert np.array_equal(back.coords, ds.coords)


@pytest.mark.parametrize("start", [2.5, math.nan, True, "7", None])
def test_a_start_step_that_is_no_integer_is_refused(start):
    with pytest.raises(DataError, match="start_step must be an integer"):
        make_dataset(np.zeros((3, 4)), start_step=start)


def test_a_numpy_integer_start_step_is_stored_as_a_python_int():
    ds = make_dataset(np.zeros((3, 4)), start_step=np.int64(7))
    assert type(ds.start_step) is int and ds.start_step == 7 and ds.last_step == 10


def test_velocity_at_basic():
    ds = make_dataset([[0.0, 2.0, 5.0]])
    assert velocity_at(ds, 0, 2) == 3.0
    assert velocity_at(ds, 0, 1) == 2.0


def test_velocity_constant_series_is_zero():
    ds = make_dataset([[4.0, 4.0, 4.0]])
    assert velocity_at(ds, 0, 1) == 0.0
    assert velocity_at(ds, 0, 2) == 0.0


def test_velocity_at_first_step_errors():
    ds = make_dataset([[0.0, 1.0]])
    with pytest.raises(DataError):
        velocity_at(ds, 0, 0)


def test_velocity_matches_exhaustive_differences():
    rng = np.random.default_rng(8)
    ds = make_dataset(rng.normal(size=(4, 6)))
    for p in range(4):
        for t in range(1, 6):
            expect = ds.displacement[p, t] - ds.displacement[p, t - 1]
            assert velocity_at(ds, p, t) == expect
    vel = np.diff(ds.displacement, axis=1)
    for t in range(1, 6):
        assert np.array_equal(ds.samples_at(t)[:, 1], vel[:, t - 1])


def test_samples_at_velocity_column_is_the_diff_column_bitwise():
    rng = np.random.default_rng(9)
    disp = rng.normal(0, 1, size=(6, 9)) * np.pi * 10.0 ** rng.integers(-8, 8, size=(6, 9))
    ds = make_dataset(disp, start_step=4)
    vel = np.diff(ds.displacement, axis=1)
    for c in range(1, 9):
        samples = ds.samples_at(4 + c)
        assert samples[:, 1].tobytes() == vel[:, c - 1].tobytes(), c
        assert samples[:, 0].tobytes() == ds.displacement[:, c].tobytes(), c


def test_overflowing_velocity_is_a_data_error():
    disp, coords = overflowing_grid()
    with pytest.raises(DataError, match="overflowing velocity for point id 100 at step 6"):
        make_dataset(disp, coords=coords, ids=list(range(100, 136)), start_step=5)
    disp[:6, :5] = 1.0  # finite velocities before the first bad step are fine
    disp[:3] = 1.0
    with pytest.raises(DataError, match="point id 3 at step 6"):
        make_dataset(disp, coords=coords, start_step=0)
    # the largest finite span is accepted
    edge = np.zeros((2, 3))
    edge[0, 1] = np.finfo(np.float64).max
    assert make_dataset(edge).samples_at(1)[0, 1] == np.finfo(np.float64).max


def test_sample_at():
    ds = make_dataset([[0.0, 2.0, 5.0]])
    assert sample_at(ds, 0, 2) == KinematicSample(5.0, 3.0)
    ds2 = make_dataset([[1.0, 1.0]])
    assert sample_at(ds2, 0, 1) == KinematicSample(1.0, 0.0)
    with pytest.raises(DataError):
        sample_at(ds2, 0, 0)


def test_dataset_invariants():
    with pytest.raises(DataError, match="unique"):
        make_dataset(np.zeros((2, 3)), ids=[1, 1])
    with pytest.raises(DataError, match="2 time steps"):
        make_dataset(np.zeros((2, 1)))
    bad = np.zeros((2, 3))
    bad[1, 2] = np.inf
    with pytest.raises(DataError, match="non-finite"):
        make_dataset(bad)


def test_ground_truth_round_trip(tmp_path):
    truth = GroundTruth([FailureRegion("c1", 0.5, 1.5, 3.5, 4.5, 17)])
    save_ground_truth(truth, tmp_path / "t.csv")
    back = load_ground_truth(tmp_path / "t.csv")
    assert back.regions == truth.regions


def test_ground_truth_degenerate_rect():
    with pytest.raises(DataError, match="degenerate"):
        FailureRegion("bad", 1.0, 0.0, 1.0, 2.0, 5)


def test_ground_truth_tof_range():
    ds = make_dataset(np.zeros((2, 5)))
    truth = GroundTruth([FailureRegion("late", 0, 0, 1, 1, 99)])
    with pytest.raises(ConsistencyError):
        truth.validate_against(ds)


def test_region_contains():
    r = FailureRegion("r", 0.0, 0.0, 2.0, 2.0, 1)
    mask = r.contains(np.array([[1.0, 1.0], [2.0, 2.0], [2.1, 1.0]]))
    assert mask.tolist() == [True, True, False]


def test_serialization_precision(tmp_path):
    # ugly floats must survive the decimal round trip exactly
    vals = np.array([[1 / 3, math.pi, 1e-17 + 1, np.nextafter(2.0, 3.0)]])
    ds = make_dataset(vals)
    save_dataset(ds, tmp_path / "p.csv", tmp_path / "s.csv")
    back = load_dataset(tmp_path / "p.csv", tmp_path / "s.csv")
    assert np.array_equal(back.displacement, vals)


def test_series_file_matches_csv_writer(tmp_path):
    # the block writer must give the bytes csv.writer gives row by row
    tiny = np.nextafter(0.0, 1.0)
    disp = np.array([
        [-0.0, 0.0, tiny, -tiny],
        [2.2250738585072014e-308 / 3, 1 / 3, -math.pi, 1e300],
        [np.nextafter(1.0, 2.0), -1e-17, 123456789.0, 0.1],
    ])
    ds = make_dataset(disp, ids=[4, -2, 17], start_step=7)
    save_dataset(ds, tmp_path / "p.csv", tmp_path / "s.csv")
    expected = io.StringIO(newline="")
    w = csv.writer(expected)
    w.writerow(SERIES_HEADER)
    for i, p in enumerate(ds.points):
        for c in range(ds.num_steps):
            w.writerow([p.id, ds.start_step + c, fmt_float(ds.displacement[i, c])])
    assert (tmp_path / "s.csv").read_bytes() == expected.getvalue().encode()


def _load_by_rows(points_file, series_file):
    points = load_points(points_file)
    matrix, start_step = _load_series_rows(points, series_file)
    return MonitoringDataset(points=points, displacement=matrix, start_step=start_step)


def _outcome(load, points_file, series_file):
    try:
        ds = load(points_file, series_file)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    return ds.ids.tolist(), ds.start_step, ds.displacement.shape, ds.displacement.tobytes()


ODD_TOKENS = [
    "1_0", "0x1p3", "1.0", "1e1", "+1", " 2 ", "nan", "-inf", "1e400", "", '"3"',
    "١", "#", "1,2", "0 # 1",
    "\U00100000",  # crashes numpy 2.4's loadtxt in an int column
]


@pytest.mark.parametrize("ids", [[1], [1, 2]])
def test_odd_tokens_match_the_row_reader(tmp_path, ids):
    # each odd token in turn as the last row's id, step or value, as the
    # header, or as the whole last row
    pts = tmp_path / "p.csv"
    pts.write_text("id,x,y\n" + "".join(f"{pid},{pid},0\n" for pid in ids))
    ser = tmp_path / "s.csv"
    for token in ODD_TOKENS:
        for place in range(5):
            lines = ["id,t,displacement"] + [f"{pid},{t},{t}.5" for pid in ids for t in range(3)]
            if place < 3:
                cells = lines[-1].split(",")
                cells[place] = token
                lines[-1] = ",".join(cells)
            else:
                lines[0 if place == 3 else -1] = token
            ser.write_text("\n".join(lines) + "\n", encoding="utf-8")
            got = _outcome(load_dataset, pts, ser)
            assert got == _outcome(_load_by_rows, pts, ser), (token, place)


@st.composite
def series_files(draw):
    """A small points file and a shuffled long-format series file for it, maybe
    with one odd cell, header or line, or a dropped or duplicated row."""
    n = draw(st.integers(1, 4))
    steps = draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(-5, 30), min_size=n, max_size=n, unique=True))
    start = draw(st.integers(-3, 10))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=n * steps, max_size=n * steps))
    rows = [[str(pid), str(start + c), fmt_float(values[k * steps + c])]
            for k, pid in enumerate(ids) for c in range(steps)]
    rows = draw(st.permutations(rows))
    lines = [",".join(SERIES_HEADER)] + [",".join(r) for r in rows]
    token = draw(st.sampled_from(ODD_TOKENS) | st.text(max_size=5))
    where = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
    mutation = draw(st.sampled_from(["none", "cell", "header", "line", "drop", "duplicate"]))
    if mutation == "cell" and where:
        cells = lines[where].split(",")
        cells[draw(st.integers(0, 2))] = token
        lines[where] = ",".join(cells)
    elif mutation == "header":
        lines[0] = token
    elif mutation == "line" and where:
        lines[where] = token
    elif mutation == "drop" and where:
        del lines[where]
    elif mutation == "duplicate" and where:
        lines.insert(where, lines[where])
    end = draw(st.sampled_from(["\r\n", "\n"]))
    points = "id,x,y\n" + "".join(f"{pid},{k},0\n" for k, pid in enumerate(ids))
    return points, end.join(lines) + end


@settings(max_examples=300, deadline=None)
@given(files=series_files())
def test_load_dataset_matches_the_row_reader(files):
    with tempfile.TemporaryDirectory() as tmp:
        pts, ser = Path(tmp) / "p.csv", Path(tmp) / "s.csv"
        pts.write_text(files[0], encoding="utf-8")
        ser.write_bytes(files[1].encode("utf-8", "surrogatepass"))
        assert _outcome(load_dataset, pts, ser) == _outcome(_load_by_rows, pts, ser)


def test_well_formed_files_take_the_fast_path(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("fell back to the row reader")

    monkeypatch.setattr(stlid.data, "_load_series_rows", refuse)
    rng = np.random.default_rng(5)
    ds = make_dataset(rng.normal(size=(6, 9)), ids=[9, 3, 7, 1, 12, 5], start_step=-4)
    save_dataset(ds, tmp_path / "p.csv", tmp_path / "s.csv")
    back = load_dataset(tmp_path / "p.csv", tmp_path / "s.csv")
    assert back.start_step == -4
    assert np.array_equal(back.displacement, ds.displacement)
    # step-major order: every point's row for one step, then the next step
    step_major = "".join(
        f"{p.id},{ds.start_step + c},{fmt_float(ds.displacement[i, c])}\n"
        for c in range(ds.num_steps) for i, p in enumerate(ds.points)
    )
    (tmp_path / "t.csv").write_text("id,t,displacement\n" + step_major)
    back = load_dataset(tmp_path / "p.csv", tmp_path / "t.csv")
    assert back.start_step == -4
    assert np.array_equal(back.displacement, ds.displacement)

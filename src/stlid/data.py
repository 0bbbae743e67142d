"""Data model and file I/O for displacement monitoring grids.

A dataset is a set of monitored points with fixed 2-D coordinates and a
per-point displacement time series (millimetres), sampled at a constant
interval. Velocity is the first difference of displacement, so it is
undefined at the first recorded step; ``MonitoringDataset.samples_at`` gives
every point's (displacement, velocity) sample at one step, and every
per-step computation in the package therefore starts at the second step.

File formats (decimal floats, written with 17 significant digits so that
save/load round-trips are bit-exact):

* points CSV:       header ``id,x,y``, one row per monitored point
* series CSV:       header ``id,t,displacement``, long format, rows in any
  order; steps must be contiguous per point and identical across points
* ground-truth CSV: header ``label,xmin,ymin,xmax,ymax,tof``, one row per
  region; labels are unique

The detector's score dump and event log are checked here too. Each header
lives in one ``*_HEADER`` constant that the reader, the writer and the check
share, and every per-point dump is written by ``format_rows``.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, DataError, ParseError, require


POINTS_HEADER = ("id", "x", "y")
SERIES_HEADER = ("id", "t", "displacement")
TRUTH_HEADER = ("label", "xmin", "ymin", "xmax", "ymax", "tof")
SCORES_HEADER = (
    "t", "point_id", "s_lid", "fused_s_lid", "t_lid", "st_lid",
    "s_valid", "fused_valid", "t_valid", "st_valid",
)
EVENTS_HEADER = ("detection_step", "point_id", "x", "y", "st_lid")
BASELINE_SCORES_HEADER = ("t", "point_id", "method", "score", "high_risk")
REPORT_HEADER = (
    "method", "region", "precision", "correct", "total",
    "lead_steps", "lead_minutes", "timing_seconds",
)


def fmt_float(v) -> str:
    """The float format of every file the package writes: 17 significant
    digits round-trip any float64 exactly."""
    return format(float(v), ".17g")


def format_rows(step: int, ids, *columns) -> str:
    """One CSV row per point, ``step,id,...``, as one string block. Each
    column holds a value per point: a bool array is written as 0 or 1, any
    other array by ``fmt_float``, and a str is the same cell on every row."""
    cells = [map(str, ids.tolist())]
    for col in columns:
        if isinstance(col, str):
            cells.append([col] * len(ids))
        elif col.dtype == bool:
            cells.append(np.where(col, "1", "0").tolist())
        else:
            cells.append(map(fmt_float, col.tolist()))
    return "".join(f"{step},{','.join(row)}\n" for row in zip(*cells))


@contextmanager
def replacing(path, mode="w", newline=None):
    """Open a file that replaces ``path`` once the block ends without error;
    on any error or interrupt it is removed, and ``path`` is left as it was.
    Every file a command writes goes through here."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class MonitoredPoint:
    """A monitored location: integer id and 2-D position (easting, northing)."""

    id: int
    coord: tuple[float, float]


@dataclass
class MonitoringDataset:
    """Immutable grid of monitored points plus a displacement matrix.

    ``displacement`` has shape (num_points, num_steps); column ``c`` holds the
    displacement at external step ``start_step + c``.
    """

    points: list[MonitoredPoint]
    displacement: np.ndarray
    step_interval_minutes: float = 1.0
    start_step: int = 0

    # derived, filled in __post_init__
    ids: np.ndarray = field(init=False, repr=False)
    coords: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if type(self.start_step) is bool or not isinstance(self.start_step, (int, np.integer)):
            raise DataError(f"start_step must be an integer, got {self.start_step!r}")
        self.start_step = int(self.start_step)  # a Python int, which JSON writes
        self.displacement = np.asarray(self.displacement, dtype=np.float64)
        if self.displacement.ndim != 2:
            raise DataError("displacement must be a 2-D matrix")
        n, t = self.displacement.shape
        if len(self.points) != n:
            raise DataError(
                f"displacement has {n} rows but dataset has {len(self.points)} points"
            )
        if t < 2:
            raise DataError("dataset needs at least 2 time steps")
        with np.errstate(over="ignore", invalid="ignore"):
            span = self.displacement.max() - self.displacement.min() if n else 0.0
        if not np.isfinite(span):  # a value is non-finite or a step difference overflows
            self._raise_non_finite()
        ids = np.array([p.id for p in self.points], dtype=np.int64)
        if len(np.unique(ids)) != len(ids):
            raise DataError("point ids must be unique")
        coords = np.array([p.coord for p in self.points], dtype=np.float64)
        if coords.shape != (n, 2) or not np.all(np.isfinite(coords)):
            raise DataError("point coordinates must be finite 2-D positions")
        require("step interval", self.step_interval_minutes, "(0, inf)", DataError)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "coords", coords)

    def _raise_non_finite(self):
        """DataError naming the first point, and its first step, whose
        displacement or velocity (the step's difference) is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            for r, row in enumerate(self.displacement):
                for what, values, lag in (
                    ("non-finite displacement", row, 0), ("overflowing velocity", np.diff(row), 1)
                ):
                    bad = np.flatnonzero(~np.isfinite(values))
                    if bad.size:
                        raise DataError(
                            f"{what} for point id {self.points[r].id} "
                            f"at step {self.start_step + int(bad[0]) + lag}"
                        )

    @property
    def num_points(self) -> int:
        return self.displacement.shape[0]

    @property
    def num_steps(self) -> int:
        return self.displacement.shape[1]

    @property
    def last_step(self) -> int:
        return self.start_step + self.num_steps - 1

    def column(self, step: int) -> int:
        """Map an external step index to a displacement column."""
        c = step - self.start_step
        if not 0 <= c < self.num_steps:
            raise DataError(
                f"step {step} outside [{self.start_step}, {self.last_step}]"
            )
        return c

    def samples_at(self, step: int) -> np.ndarray:
        """All points' (displacement, velocity) pairs at ``step``, shape (n, 2)."""
        c = self.column(step)
        if c < 1:
            raise DataError(f"velocity undefined at the first step ({step})")
        out = np.empty((self.num_points, 2), dtype=np.float64)
        out[:, 0] = self.displacement[:, c]
        np.subtract(self.displacement[:, c], self.displacement[:, c - 1], out=out[:, 1])
        return out


@dataclass(frozen=True)
class FailureRegion:
    """Axis-aligned ground-truth rectangle with its time of failure."""

    label: str
    xmin: float
    ymin: float
    xmax: float
    ymax: float
    tof: int

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise DataError(f"degenerate ground-truth rectangle {self.label!r}")

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """Boolean mask of coordinates inside the rectangle (inclusive edges)."""
        coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
        return (
            (coords[:, 0] >= self.xmin)
            & (coords[:, 0] <= self.xmax)
            & (coords[:, 1] >= self.ymin)
            & (coords[:, 1] <= self.ymax)
        )


@dataclass
class GroundTruth:
    """Collection of failure regions; times of failure are external step indices."""

    regions: list[FailureRegion]

    def validate_against(self, dataset: MonitoringDataset) -> None:
        for r in self.regions:
            if not dataset.start_step <= r.tof <= dataset.last_step:
                raise ConsistencyError(
                    f"time of failure {r.tof} for region {r.label!r} outside "
                    f"dataset steps [{dataset.start_step}, {dataset.last_step}]"
                )


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def utf8_lines(path, error=ParseError):
    """The lines of the file at ``path``, split where text mode splits them
    (at ``\\n``, ``\\r\\n`` or ``\\r``) and each decoded as UTF-8 on its own, so
    that a byte which is not UTF-8 raises ``error(path, line_no, message)``
    naming its line; text mode decodes in chunks and would name another."""
    with open(path, "rb") as fh:
        line_no = 0
        for chunk in fh:
            for raw in chunk.splitlines(keepends=True):
                line_no += 1
                try:
                    yield raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise error(path, line_no, f"byte {raw[exc.start]:#04x} is not UTF-8") from None


def _read_rows(path, expected_header):
    reader = csv.reader(utf8_lines(path))
    try:
        header = next(reader)
        if tuple(h.strip() for h in header) != expected_header:
            raise ParseError(
                path, 1, f"expected header {','.join(expected_header)!r}, got {','.join(header)!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(expected_header):
                raise ParseError(path, line_no, f"expected {len(expected_header)} fields, got {len(row)}")
            yield line_no, row
    except StopIteration:
        raise ParseError(path, 1, "empty file") from None
    except csv.Error as exc:  # a cell over the field size limit, say
        raise ParseError(path, reader.line_num, str(exc)) from None


def _parse_int(path, line_no, text, what):
    try:
        return int(text)
    except ValueError:
        raise ParseError(path, line_no, f"bad {what}: {text!r}") from None


def _parse_float(path, line_no, text, what, point_id=None, step=None):
    try:
        v = float(text)
    except ValueError:
        raise ParseError(path, line_no, f"bad {what}: {text!r}") from None
    if not math.isfinite(v):
        where = ""
        if point_id is not None:
            where = f" (point id {point_id}, step {step})"
        raise DataError(f"{path}:{line_no}: non-finite {what}{where}: {text!r}")
    return v


def load_points(path) -> list[MonitoredPoint]:
    points = []
    seen = set()
    for line_no, row in _read_rows(path, POINTS_HEADER):
        pid = _parse_int(path, line_no, row[0], "id")
        if pid in seen:
            raise ConsistencyError(f"{path}:{line_no}: duplicate point id {pid}")
        seen.add(pid)
        x = _parse_float(path, line_no, row[1], "x coordinate")
        y = _parse_float(path, line_no, row[2], "y coordinate")
        points.append(MonitoredPoint(pid, (x, y)))
    if not points:
        raise DataError(f"{path}: no points")
    return points


def _load_series_fast(points: list[MonitoredPoint], series_file):
    """One vectorized pass over a well-formed series CSV.

    Returns ``(matrix, start_step)``, or ``None`` for any file it does not
    fully accept: a header other than the exact one, a cell numpy cannot
    parse, or rows that do not cover every (point, step) cell exactly once
    with a finite value. The parse decodes as ASCII, so that a non-ASCII
    byte is a ValueError before numpy's tokenizer can crash on it (U+100000
    in an int column, numpy 2.4). ``comments=None`` keeps ``#`` an ordinary
    (invalid) character, and warnings are errors so that numpy releases
    which parse ``1.0`` as an int with only a DeprecationWarning fall back too.
    """
    with open(series_file, "rb") as fh:
        header = fh.readline().removesuffix(b"\n").removesuffix(b"\r")
        if header != ",".join(SERIES_HEADER).encode():
            return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(
                series_file, delimiter=",", skiprows=1, ndmin=1, comments=None, encoding="ascii",
                dtype=[("id", np.int64), ("t", np.int64), ("d", np.float64)],
            )
        point_ids = np.array([p.id for p in points], dtype=np.int64)
    except (ValueError, OverflowError, Warning):
        return None
    n = len(points)
    if len(rows) == 0 or len(rows) % n or not np.all(np.isfinite(rows["d"])):
        return None
    t, lo = len(rows) // n, int(rows["t"].min())
    if int(rows["t"].max()) - lo >= t:
        return None
    order = np.argsort(point_ids)
    flat = np.searchsorted(point_ids[order], rows["id"])  # the one row-length index
    if not np.array_equal(np.take(point_ids[order], flat, mode="clip"), rows["id"]):
        return None
    np.take(order, flat, out=flat, mode="clip")  # each row's point, then its cell
    flat *= t
    flat += rows["t"]
    flat -= lo  # exact modulo 2**64, as every true cell lies in [0, n*t)
    covered = np.zeros(n * t, dtype=bool)
    covered[flat] = True
    if not covered.all():  # n*t rows cover n*t cells: no duplicate, no gap
        return None
    matrix = np.empty(n * t, dtype=np.float64)
    matrix[flat] = rows["d"]
    return matrix.reshape(n, t), lo


def _load_series_rows(points: list[MonitoredPoint], series_file):
    """The row-by-row series reader: ``(matrix, start_step)``, or the
    documented error with its line number."""
    per_point: dict[int, dict[int, float]] = {p.id: {} for p in points}  # in points order
    for line_no, row in _read_rows(series_file, SERIES_HEADER):
        pid = _parse_int(series_file, line_no, row[0], "id")
        if pid not in per_point:
            raise ConsistencyError(
                f"{series_file}:{line_no}: series references unknown point id {pid}"
            )
        t = _parse_int(series_file, line_no, row[1], "step")
        if t in per_point[pid]:
            raise ConsistencyError(
                f"{series_file}:{line_no}: duplicate step {t} for point id {pid}"
            )
        per_point[pid][t] = _parse_float(
            series_file, line_no, row[2], "displacement", point_id=pid, step=t
        )

    ref_id = points[0].id
    ref = per_point[ref_id]
    if not ref:
        raise ConsistencyError(f"{series_file}: no series rows")
    lo, hi = min(ref), max(ref)
    if hi - lo + 1 != len(ref):  # a point's steps are distinct, so only a gap lengthens the span
        raise ConsistencyError(f"{series_file}: steps for point id {ref_id} are not contiguous")
    matrix = np.empty((len(points), len(ref)), dtype=np.float64)
    for row, (pid, steps) in zip(matrix, per_point.items()):
        if steps.keys() != ref.keys():
            raise ConsistencyError(
                f"{series_file}: point id {pid} covers different steps than point id {ref_id}"
            )
        row[:] = [steps[s] for s in range(lo, hi + 1)]
    return matrix, lo


def load_dataset(points_file, series_file, step_interval_minutes: float = 1.0) -> MonitoringDataset:
    """Load a dataset from a points CSV and a long-format series CSV.

    Rows are aligned by point id and may come in any order; steps must be
    contiguous and identical for every point. Missing cells are a hard
    error, as is any non-finite value. A file that a strict vectorized
    parser accepts loads in one pass; any other file is read row by row,
    with the same result or the same error and line number.
    """
    points = load_points(points_file)
    loaded = _load_series_fast(points, series_file)
    matrix, start_step = loaded or _load_series_rows(points, series_file)
    return MonitoringDataset(
        points=points,
        displacement=matrix,
        step_interval_minutes=step_interval_minutes,
        start_step=start_step,
    )


def _write_dataset(dataset: MonitoringDataset, points_fh, series_fh) -> None:
    """The points and series CSVs of a dataset (bit-exact round-trip). The
    series is written one point at a time as a string block, in the same
    bytes ``csv.writer`` gives row by row."""
    w = csv.writer(points_fh)
    w.writerow(POINTS_HEADER)
    for p in dataset.points:
        w.writerow([p.id, fmt_float(p.coord[0]), fmt_float(p.coord[1])])
    steps = [str(dataset.start_step + c) for c in range(dataset.num_steps)]
    series_fh.write(",".join(SERIES_HEADER) + "\r\n")
    for p, row in zip(dataset.points, dataset.displacement):
        series_fh.write("".join(
            f"{p.id},{step},{v}\r\n"
            for step, v in zip(steps, map(fmt_float, row.tolist()))
        ))


def save_dataset(dataset: MonitoringDataset, points_file, series_file) -> None:
    """Write a dataset to the documented CSV formats. Both files are written
    before either is replaced, so a failed write leaves the earlier pair."""
    with replacing(points_file, newline="") as pf, replacing(series_file, newline="") as sf:
        _write_dataset(dataset, pf, sf)


def load_ground_truth(path) -> GroundTruth:
    regions = []
    for line_no, row in _read_rows(path, TRUTH_HEADER):
        if any(r.label == row[0] for r in regions):  # lead times are keyed by label
            raise ConsistencyError(f"{path}:{line_no}: duplicate region label {row[0]!r}")
        vals = [_parse_float(path, line_no, row[k], name)
                for k, name in ((1, "xmin"), (2, "ymin"), (3, "xmax"), (4, "ymax"))]
        tof = _parse_int(path, line_no, row[5], "tof")
        regions.append(FailureRegion(row[0], vals[0], vals[1], vals[2], vals[3], tof))
    return GroundTruth(regions)


def save_ground_truth(truth: GroundTruth, path) -> None:
    with replacing(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRUTH_HEADER)
        for r in truth.regions:
            bounds = (r.xmin, r.ymin, r.xmax, r.ymax)
            w.writerow([r.label, *map(fmt_float, bounds), r.tof])


def check_scores(path) -> None:
    """Check a score dump: integer step and point id, finite scores, st-LID
    in [0, 1] and validity flags of 0 or 1."""
    for line_no, row in _read_rows(path, SCORES_HEADER):
        _parse_int(path, line_no, row[0], "t")
        _parse_int(path, line_no, row[1], "point_id")
        scores = [_parse_float(path, line_no, row[k], SCORES_HEADER[k]) for k in range(2, 6)]
        if not 0.0 <= scores[3] <= 1.0:
            raise DataError(f"{path}:{line_no}: st_lid outside [0, 1]")
        for name, text in zip(SCORES_HEADER[6:], row[6:]):
            if _parse_int(path, line_no, text, name) not in (0, 1):
                raise ParseError(path, line_no, f"{name} must be 0 or 1, got {text!r}")


def check_events(path) -> None:
    """Check an event log: integer step and point id, finite coordinates and
    st-LID in [0, 1]."""
    for line_no, row in _read_rows(path, EVENTS_HEADER):
        _parse_int(path, line_no, row[0], "detection_step")
        _parse_int(path, line_no, row[1], "point_id")
        _, _, st = (_parse_float(path, line_no, row[k], EVENTS_HEADER[k]) for k in range(2, 5))
        if not 0.0 <= st <= 1.0:
            raise DataError(f"{path}:{line_no}: st_lid outside [0, 1]")

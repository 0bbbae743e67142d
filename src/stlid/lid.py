"""Local intrinsic dimensionality estimators over kinematic and temporal neighborhoods.

The maximum-likelihood LID estimate from a query's sorted neighbor distances
``d_1 <= ... <= d_s`` is::

    lid = -1 / mean(ln(d_i / d_s)) = s / sum(ln(d_s / d_i))

A high value means the neighbor distances crowd into a thin shell around the
s-th one, i.e. the query sits isolated from a concentrated mass: an outlier.
A uniform local cloud of dimension d yields values near d.

Two neighborhoods are used:

* s-LID: neighbors of a point's (displacement, velocity) sample among all
  other points at the same time step, distances taken in that 2-D kinematic
  space.
* t-LID: neighbors of a point's current velocity among its own past
  velocities; all history records are candidates and the largest retained
  distance is the denominator. The vectorized kernel streams the points'
  displacement rows through one fixed 512 KB tile: it copies the later
  displacements into the tile and subtracts the earlier ones in place, so a
  call allocates O(tile) and no velocity matrix, however long the run has
  grown. Each tile leaves only its rows' statistics (nonzero count, maximum,
  log-sum), and the estimator runs once over the whole call. The zeros are
  counted only on a tile whose log-sums show that it holds one.

Zero distances (exact ties with the query) make ln undefined, so every
estimator drops them: the MLE runs over the positive distances. Fully degenerate
neighborhoods are flagged and, in field-level results, filled with the step's
maximum finite value so that downstream fusion stays defined while detection
can exclude them from argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.spatial

from .data import MonitoringDataset
from .errors import (
    ConfigError,
    DegenerateNeighborhoodError,
    InsufficientNeighborsError,
    require,
    require_int,
)

DEFAULT_S = 20

# the warm-up, in dataset columns (steps after the first): s-LID needs the
# step's velocity, so it starts at column 1; t-LID needs two velocities before
# the query's, so it (and with it st-LID) starts at column 3
S_LID_FIRST_COL = 1
T_LID_FIRST_COL = 3


@dataclass(frozen=True)
class LidConfig:
    """Kinematic neighborhood size of the s-LID estimator, checked when made."""

    s: int = DEFAULT_S

    def __post_init__(self):
        require_int("neighborhood size s", self.s, "[2, inf)")


@dataclass
class LidField:
    """Per-point LID values at one step plus a validity mask.

    Entries with ``valid == False`` had degenerate or empty neighborhoods;
    their value is the sentinel fill (the step's maximum finite LID, or 1.0
    when no point produced a finite estimate), which ``filled`` writes.
    """

    step: int
    values: np.ndarray
    valid: np.ndarray

    @classmethod
    def filled(cls, step: int, values: np.ndarray, valid: np.ndarray) -> LidField:
        """The field of ``values``, a fresh array whose invalid entries are
        set to the sentinel in place."""
        if valid.any():
            values[~valid] = values[valid].max()
        else:
            values[:] = 1.0
        return cls(step, values, valid)


def _row_stats(d: np.ndarray, count, dmax, logs) -> None:
    """Per row of ``d``, into ``count``, ``dmax`` and ``logs``: the count of
    nonzero distances, the maximum, and the sum of ln over the nonzero ones.
    ``ln`` is taken in place; only a zero gives ``-inf``, so while every
    log-sum is finite each count is the row length. Otherwise the block is
    repaired: the entries other than ``-inf`` are counted (a mask's byte
    sum), the ``-inf`` ones set to ``+0.0`` as ``ln 1`` would be, and the
    rows summed again; a NaN or inf log-sum stays. ``d`` (C-contiguous
    float64) is a scratch array the caller owns."""
    np.max(d, axis=1, out=dmax)
    with np.errstate(divide="ignore", invalid="ignore"):  # ln 0; -inf + inf
        np.sum(np.log(d, out=d), axis=1, out=logs)
    count.fill(d.shape[1])
    if not np.isfinite(logs).all():
        kept = np.not_equal(d, -np.inf)
        np.sum(kept.view(np.uint8), axis=1, out=count)
        np.copyto(d, 0.0, where=np.logical_not(kept, out=kept))
        np.sum(d, axis=1, out=logs)


def _log_sum(count: np.ndarray, dmax: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """``count * ln(d_max) - sum(ln d)`` from the ``_row_stats`` of rows of
    distances: the MLE denominator and the fusion observation rate. A row
    whose distances overflowed to inf yields NaN."""
    with np.errstate(invalid="ignore"):  # inf - inf on overflowed distances
        return count * np.log(np.where(dmax > 0, dmax, 1.0)) - logs


def _log_sums(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``d``: the count of positive distances and, over them, the
    ``_log_sum``; ``_row_stats`` takes the whole array as one block, which
    it repairs at once if any row holds a zero. Works in place on ``d``, a
    C-contiguous float64 scratch array the caller owns."""
    m = d.shape[0]
    count, dmax, logs = np.empty(m, dtype=np.intp), np.empty(m), np.empty(m)
    _row_stats(d, count, dmax, logs)
    return count, _log_sum(count, dmax, logs)


def _estimate(count: np.ndarray, logsum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The estimator ``count / logsum`` and its validity: at least two
    positive distances and a positive log-sum. Invalid rows hold NaN."""
    valid = (count >= 2) & (logsum > 0.0)
    values = np.full(count.shape[0], np.nan)
    np.divide(count, logsum, out=values, where=valid)
    return values, valid


def lid_rows(distances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized estimator over rows of neighbor distances.

    Each row is one query's distances (any order; only the maximum and the
    ratios matter). Returns (values, valid); invalid rows hold NaN. Row-wise
    reductions keep results bit-identical however the rows are chunked.
    ``distances`` is copied, never changed.
    """
    return _estimate(*_log_sums(np.array(distances, dtype=np.float64, order="C")))


def mle_lid(distances) -> float:
    """LID of one query from its sorted ascending neighbor distances.

    Raises InsufficientNeighborsError when fewer than two strictly positive
    distances remain once zeros are dropped, and DegenerateNeighborhoodError
    when all retained distances are equal (zero log-sum).
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 1 or d.size < 2:
        raise InsufficientNeighborsError("need at least 2 neighbor distances")
    require("distances", d, "[0, inf)", ValueError)
    if np.any(np.diff(d) < 0):
        raise ValueError("distances must be sorted ascending")
    d = d[d > 0.0]
    if d.size < 2:
        raise InsufficientNeighborsError(f"only {d.size} positive distance(s) remain")
    values, valid = lid_rows(d[None, :])
    if not valid[0]:
        raise DegenerateNeighborhoodError(
            "all retained neighbor distances are equal; log-sum is zero"
        )
    return float(values[0])


def knn(points: np.ndarray, k: int, rows=slice(None), tree=None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distances and indices of the k nearest other points of each of
    ``points[rows]``, shape (m, k) each.

    Column 0 of the kd-tree query, the point itself, is dropped. ``tree`` is
    a kd-tree over all of ``points``; when None one is built, with
    ``scipy.spatial.cKDTree`` looked up at call time. Every k-nearest query
    of the detector goes through here: kinematic neighbours, physical
    neighbours and the grid spacing behind the alarm's epsilon. Raises
    ConfigError when there are not more than k points.
    """
    n = points.shape[0]
    if n <= k:
        raise ConfigError(f"neighborhoods of k={k} need more than k points, got {n}")
    if tree is None:
        tree = scipy.spatial.cKDTree(points)
    dist, idx = tree.query(points[rows], k=k + 1)
    return dist[:, 1:], idx[:, 1:]


def s_lid_all(
    dataset: MonitoringDataset, step: int, config: LidConfig | None = None
) -> LidField:
    """s-LID of every point's kinematic sample at ``step`` (velocity required,
    so step must be at least start_step + S_LID_FIRST_COL)."""
    config = config or LidConfig()
    dist, _ = knn(dataset.samples_at(step), config.s)
    return LidField.filled(step, *lid_rows(dist))


def t_lid(velocity_history) -> float:
    """LID of the last velocity in ``velocity_history`` against all earlier ones:
    ``mle_lid`` of the sorted distances to them, with its errors.

    The history must contain the query plus at least two records. A constant
    history leaves no positive distances and raises InsufficientNeighborsError.
    """
    v = np.asarray(velocity_history, dtype=np.float64)
    if v.ndim != 1 or v.size < 3:
        raise InsufficientNeighborsError(
            "velocity history must hold the query plus at least 2 records"
        )
    require("velocity history", v, error=ValueError)
    return mle_lid(np.sort(np.abs(v[-1] - v[:-1])))


# float64 cells of the scratch tile t_lid_rows streams the history through:
# 512 KB, small enough that a tile stays in cache across its passes
_TILE_CELLS = 1 << 16


def t_lid_rows(displacement_block: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized t-LID for a block of points.

    ``displacement_block`` holds each point's displacements up to the step
    before the query's, so its h + 1 columns give the h past velocities;
    rows align with ``queries``, the current velocities. The block may be a
    strided view and is not changed. Returns (values, valid) with NaN on
    degenerate rows; callers fill sentinels at field level.

    The rows are streamed through one scratch tile of about ``_TILE_CELLS``
    cells. Each tile's velocities are formed in it by copying the later
    displacements in and subtracting the earlier ones in place; they are
    then turned into distances in place, and ``_row_stats`` writes each
    row's count, maximum and log-sum into arrays of the call's length,
    counting zeros only on a tile that holds one. The estimator then runs
    once over those. So a call allocates O(tile) plus O(rows) and no
    velocity matrix, whatever the history length. The result is
    bit-identical to estimating all rows of
    ``np.diff(displacement_block, axis=1)`` at once.

    Pass displacements, not velocities: a velocity history has a valid
    shape, so it raises no error, but its values come out wrong.
    """
    m, h = np.shape(displacement_block)
    h -= 1
    per_tile = max(1, _TILE_CELLS // max(h, 1))
    tile = np.empty((min(per_tile, m), h))
    count, dmax, logs = np.empty(m, dtype=np.intp), np.empty(m), np.empty(m)
    for lo in range(0, m, per_tile):
        hi = min(lo + per_tile, m)
        d = tile[: hi - lo]
        block = displacement_block[lo:hi]
        d[...] = block[:, 1:]
        np.subtract(d, block[:, :-1], out=d)
        np.subtract(d, queries[lo:hi, None], out=d)
        np.abs(d, out=d)
        _row_stats(d, count[lo:hi], dmax[lo:hi], logs[lo:hi])
    return _estimate(count, _log_sum(count, dmax, logs))


def t_lid_field(dataset: MonitoringDataset, step: int) -> LidField:
    """t-LID of every point at ``step`` over its full velocity history.

    The query needs two earlier velocities, so the first valid step is
    start_step + T_LID_FIRST_COL.
    """
    c = dataset.column(step)
    if c < T_LID_FIRST_COL:
        raise ConfigError(
            f"t-LID needs two historical velocities before the query; "
            f"first valid step is {dataset.start_step + T_LID_FIRST_COL}, got {step}"
        )
    queries = dataset.samples_at(step)[:, 1]
    return LidField.filled(step, *t_lid_rows(dataset.displacement[:, :c], queries))

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
  distance is the denominator. The vectorized kernel streams the history
  through one fixed 1 MB tile, so a call allocates O(tile), not O(n*T),
  however long the run has grown.

Zero distances (exact ties with the query) make ln undefined; the configured
policy either drops them or floors them at a small epsilon. Fully degenerate
neighborhoods are flagged and, in field-level results, filled with the step's
maximum finite value so that downstream fusion stays defined while detection
can exclude them from argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.spatial

from .data import KinematicSample, MonitoringDataset
from .errors import (
    ConfigError,
    DegenerateNeighborhoodError,
    InsufficientNeighborsError,
)

DEFAULT_S = 20


@dataclass
class LidConfig:
    """Neighborhood size and zero-distance handling for the estimators."""

    s: int = DEFAULT_S
    zero_distance_policy: str = "drop"  # "drop" | "floor"
    epsilon_floor: float = 1e-12

    def validate(self) -> None:
        if self.s < 2:
            raise ConfigError(f"neighborhood size s must be >= 2, got {self.s}")
        if self.zero_distance_policy not in ("drop", "floor"):
            raise ConfigError(
                f"zero_distance_policy must be 'drop' or 'floor', got {self.zero_distance_policy!r}"
            )
        if self.epsilon_floor <= 0:
            raise ConfigError("epsilon_floor must be positive")


@dataclass
class LidField:
    """Per-point LID values at one step plus a validity mask.

    Entries with ``valid == False`` had degenerate or empty neighborhoods;
    their value is the sentinel fill (the step's maximum finite LID, or 1.0
    when no point produced a finite estimate).
    """

    step: int
    values: np.ndarray
    valid: np.ndarray


def kinematic_distance(a, b) -> float:
    """Euclidean distance between two (displacement, velocity) samples."""
    if isinstance(a, KinematicSample):
        a = (a.displacement, a.velocity)
    if isinstance(b, KinematicSample):
        b = (b.displacement, b.velocity)
    for v in (*a, *b):
        if not math.isfinite(v):
            raise ValueError("kinematic samples must be finite")
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _log_sums(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``d``: the count of positive distances and, over them,
    ``count * ln(d_max) - sum(ln d)`` (the MLE denominator and the fusion
    observation rate). Zero distances add ``ln 1 = +0.0``; a row whose
    distances overflowed to inf yields NaN.

    Works in place on ``d``, a C-contiguous float64 scratch array the caller
    owns.
    """
    count = np.count_nonzero(d, axis=1)
    dmax = d.max(axis=1)
    if count.sum() < d.size:
        d[d == 0.0] = 1.0
    logs = np.log(d, out=d).sum(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf on overflowed distances
        return count, count * np.log(np.where(dmax > 0, dmax, 1.0)) - logs


def _lid_in_place(d: np.ndarray, config: LidConfig) -> tuple[np.ndarray, np.ndarray]:
    """``lid_rows`` on a scratch array it may overwrite (see ``_log_sums``)."""
    if config.zero_distance_policy == "floor":
        np.maximum(d, config.epsilon_floor, out=d)
    count, logsum = _log_sums(d)
    valid = (count >= 2) & (logsum > 0.0)
    values = np.full(d.shape[0], np.nan)
    np.divide(count, logsum, out=values, where=valid)
    return values, valid


def lid_rows(distances: np.ndarray, config: LidConfig) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized estimator over rows of neighbor distances.

    Each row is one query's distances (any order; only the maximum and the
    ratios matter). Returns (values, valid); invalid rows hold NaN. Row-wise
    reductions keep results bit-identical however the rows are chunked.
    ``distances`` is copied, never changed.
    """
    return _lid_in_place(np.array(distances, dtype=np.float64, order="C"), config)


def mle_lid(distances, config: LidConfig | None = None) -> float:
    """LID of one query from its sorted ascending neighbor distances.

    Raises InsufficientNeighborsError when fewer than two strictly positive
    distances survive the zero policy, and DegenerateNeighborhoodError when
    all retained distances are equal (zero log-sum).
    """
    config = config or LidConfig()
    config.validate()
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 1 or d.size < 2:
        raise InsufficientNeighborsError("need at least 2 neighbor distances")
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise ValueError("distances must be finite and non-negative")
    if np.any(np.diff(d) < 0):
        raise ValueError("distances must be sorted ascending")
    if config.zero_distance_policy == "drop":
        d = d[d > 0.0]
    else:
        d = np.maximum(d, config.epsilon_floor)
    if d.size < 2:
        raise InsufficientNeighborsError(
            f"only {d.size} positive distance(s) remain after the zero policy"
        )
    values, valid = lid_rows(d[None, :], config)
    if not valid[0]:
        raise DegenerateNeighborhoodError(
            "all retained neighbor distances are equal; log-sum is zero"
        )
    return float(values[0])


def _fill_sentinel(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    out = values.copy()
    if valid.any():
        out[~valid] = values[valid].max()
    else:
        out[:] = 1.0
    return out


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
    so step must be at least start_step + 1)."""
    config = config or LidConfig()
    config.validate()
    dist, _ = knn(dataset.samples_at(step), config.s)
    values, valid = lid_rows(dist, config)
    return LidField(step, _fill_sentinel(values, valid), valid)


def t_lid(velocity_history, config: LidConfig | None = None) -> float:
    """LID of the last velocity in ``velocity_history`` against all earlier ones.

    The history must contain the query plus at least two records. A constant
    history leaves no positive distances and raises InsufficientNeighborsError.
    """
    config = config or LidConfig()
    config.validate()
    v = np.asarray(velocity_history, dtype=np.float64)
    if v.ndim != 1 or v.size < 3:
        raise InsufficientNeighborsError(
            "velocity history must hold the query plus at least 2 records"
        )
    if not np.all(np.isfinite(v)):
        raise ValueError("velocity history must be finite")
    d = np.abs(v[-1] - v[:-1])
    if config.zero_distance_policy == "drop":
        d = d[d > 0.0]
    else:
        d = np.maximum(d, config.epsilon_floor)
    if d.size < 2:
        raise InsufficientNeighborsError(
            f"only {d.size} positive distance(s) to the history remain"
        )
    d.sort()
    values, valid = lid_rows(d[None, :], config)
    if not valid[0]:
        raise DegenerateNeighborhoodError(
            "all history distances are equal; log-sum is zero"
        )
    return float(values[0])


# float64 cells of the scratch tile t_lid_rows streams the history through:
# 1 MB, small enough that a tile stays in cache across its passes
_TILE_CELLS = 1 << 17


def t_lid_rows(
    history_block: np.ndarray, queries: np.ndarray, config: LidConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized t-LID for a block of points.

    ``history_block`` holds each point's past velocities (rows aligned with
    ``queries``, the current velocities); it may be a strided view and is
    not changed. Returns (values, valid) with NaN on degenerate rows;
    callers fill sentinels at field level.

    The rows are streamed through one scratch tile of about ``_TILE_CELLS``
    cells: each tile's distances are written into it, floored and reduced
    in place, so a call allocates O(tile), not O(n*T), whatever the history
    length. The result is bit-identical to estimating all rows at once.
    """
    m, h = np.shape(history_block)
    per_tile = max(1, _TILE_CELLS // max(h, 1))
    tile = np.empty((min(per_tile, m), h))
    values = np.empty(m)
    valid = np.empty(m, dtype=bool)
    for lo in range(0, m, per_tile):
        hi = min(lo + per_tile, m)
        d = tile[: hi - lo]
        np.subtract(history_block[lo:hi], queries[lo:hi, None], out=d, dtype=np.float64)
        np.abs(d, out=d)
        values[lo:hi], valid[lo:hi] = _lid_in_place(d, config)
    return values, valid


def t_lid_field(
    dataset: MonitoringDataset, step: int, config: LidConfig | None = None
) -> LidField:
    """t-LID of every point at ``step`` over its full velocity history.

    Velocities exist from start_step + 1, and the query needs two earlier
    records, so the first valid step is start_step + 3.
    """
    config = config or LidConfig()
    config.validate()
    c = dataset.column(step)
    if c < 3:
        raise ConfigError(
            f"t-LID needs two historical velocities before the query; "
            f"first valid step is {dataset.start_step + 3}, got {step}"
        )
    vel = dataset.velocity_matrix()
    values, valid = t_lid_rows(vel[:, : c - 1], vel[:, c - 1], config)
    return LidField(step, _fill_sentinel(values, valid), valid)

"""Score fusion and the persistence-based failure alarm.

The fused s-LID and t-LID scores are each z-scored across the points of the
step, squashed through a sigmoid and multiplied, so a point scores high only
when it is outlying in both the spatial and the temporal sense. Raw LID
values are strictly positive and would keep every product above 0.25; the
z-score makes the fixed ``THRESHOLD`` of 0.5 meaningful. The rule has no
setting and carries no state from one step to the next.

An alarm fires when the field's argmax stays inside a small epsilon-ball and
at or above ``THRESHOLD`` for n consecutive steps. The ball center slides to
the newest argmax so that fluctuation between adjacent points is tolerated
while slow drift cannot accumulate beyond epsilon. Ties at the argmax break
toward the lowest point id; runs are therefore reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, require, require_int
from .lid import LidField, knn

THRESHOLD = 0.5  # the alarm level of the st-LID probability


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), elementwise on arrays."""
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))  # at most 1, so it never overflows
    out = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def zscore(values: np.ndarray) -> np.ndarray:
    """Population z-score; an all-equal input maps to all zeros."""
    v = np.asarray(values, dtype=np.float64)
    sd = v.std()
    if sd == 0:
        return np.zeros_like(v)
    return (v - v.mean()) / sd


@dataclass(frozen=True)
class DetectionConfig:
    """Alarm parameters, checked when made. ``epsilon`` of None derives 2x
    the median nearest-neighbor spacing of the monitored grid at run time."""

    n: int = 10
    epsilon: float | None = None

    def __post_init__(self):
        require_int("persistence length n", self.n, "[1, inf)")
        if self.epsilon is not None:
            require("epsilon", self.epsilon, "(0, inf)")


def default_epsilon(coords: np.ndarray) -> float:
    """Twice the median nearest-neighbor spacing of the coordinates."""
    dist, _ = knn(np.asarray(coords, dtype=np.float64), 1)
    return 2.0 * float(np.median(dist[:, 0]))


@dataclass
class StLidField(LidField):
    """Per-point st-LID probabilities at one step, each in [0, 1].

    ``valid`` marks points whose underlying neighborhoods were non-degenerate;
    invalid points keep a value (computed from the sentinel fill) but are
    excluded from the alarm argmax.
    """

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if np.any((self.values < 0) | (self.values > 1)):  # NaN passes: update_detection skips it
            raise ValueError("st-LID values must lie in [0, 1]")
        self.valid = np.asarray(self.valid, dtype=bool)


def st_lid_field(
    fused_slids,
    t_lids,
    config: DetectionConfig | None = None,
    step: int = 0,
    valid=None,
) -> StLidField:
    """Combine one step's fused s-LID and t-LID scores into per-point
    probabilities: the product of the sigmoids of their z-scores. ``config``
    is not read, since the rule has no setting; it is kept for callers that
    pass one."""
    s = np.asarray(fused_slids, dtype=np.float64)
    t = np.asarray(t_lids, dtype=np.float64)
    if s.shape != t.shape:
        raise ValueError(f"score families differ in length: {s.shape} vs {t.shape}")
    values = sigmoid(zscore(s)) * sigmoid(zscore(t))
    if valid is None:
        valid = np.ones(s.shape, dtype=bool)
    return StLidField(step=step, values=values, valid=valid)


@dataclass(frozen=True)
class DetectionEvent:
    """An alarm: the argmax held inside the epsilon-ball at or above
    ``THRESHOLD`` for n consecutive steps."""

    detection_step: int
    point_id: int
    location: tuple[float, float]
    value: float


@dataclass
class DetectionState:
    """Persistence tracker for the consecutive-step alarm rule, advanced in
    place by ``update_detection``; it holds only what the rule reads, so its
    size does not grow with the run.

    ``candidate_coord`` is the ball centre; ``hits`` counts qualifying
    consecutive steps, capped at n; ``fired`` marks that the current chain
    already produced its event, so an unbroken chain never emits twice. The
    argmax's id is not kept: the step's ``AlarmDecision`` carries it.
    """

    candidate_coord: tuple[float, float] | None = None
    hits: int = 0
    fired: bool = False


class AlarmDecision(NamedTuple):
    """What the tracker saw at one step: the usable argmax (id, coordinate,
    st-LID value) and the hit count after the update. ``point_id``,
    ``location`` and ``value`` are None when no point was usable."""

    step: int
    point_id: int | None
    location: tuple[float, float] | None
    value: float | None
    hits: int


def update_detection(
    state: DetectionState,
    fld: StLidField,
    coords: np.ndarray,
    config: DetectionConfig,
    point_ids: np.ndarray | None = None,
) -> tuple[AlarmDecision, DetectionEvent | None]:
    """Advance the persistence tracker by one step, in place. Returns the
    step's decision and the alarm event if the chain just reached n
    qualifying steps."""
    if config.epsilon is None:
        raise ConfigError("epsilon must be resolved before detection updates")
    coords = np.asarray(coords, dtype=np.float64)
    values = fld.values
    if point_ids is None:
        point_ids = np.arange(len(values))
    if coords.shape[0] != len(values):
        raise ValueError("coords and field must be aligned")

    usable = fld.valid & np.isfinite(values)
    if not usable.any():
        # nothing to track this step: the chain is broken
        state.candidate_coord = None
        state.hits, state.fired = 0, False
        return AlarmDecision(fld.step, None, None, None, 0), None

    vmax = values[usable].max()
    tied = usable & (values == vmax)
    arg = int(np.flatnonzero(tied)[np.argmin(point_ids[tied])])
    pid = int(point_ids[arg])
    x_hat = (float(coords[arg, 0]), float(coords[arg, 1]))
    above = vmax >= THRESHOLD
    center = state.candidate_coord

    if (
        above
        and center is not None
        and math.hypot(x_hat[0] - center[0], x_hat[1] - center[1]) < config.epsilon
    ):
        state.hits = min(state.hits + 1, config.n)
    else:
        state.hits, state.fired = int(above), False
    # the ball center slides to the argmax; a step below the threshold
    # starts no chain
    if above or center is not None:
        state.candidate_coord = x_hat

    event = None
    if state.hits >= config.n and not state.fired:
        event = DetectionEvent(
            detection_step=fld.step, point_id=pid, location=x_hat, value=float(vmax)
        )
        state.fired = True
    return AlarmDecision(fld.step, pid, x_hat, float(vmax), state.hits), event

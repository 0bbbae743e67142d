"""Streaming st-LID pipeline: per-step scores, alarm tracking, parallel map.

Time steps are strictly sequential (the alarm tracker is a single-writer
state machine and the spatial prior consumes the previous step's s-LID
field), but within a step every per-point quantity is independent. Points are
therefore split into contiguous chunks that a thread pool maps over; the
kernels spend their time in numpy reductions and kd-tree queries, which
release the interpreter lock. The caller gathers chunks in a fixed order,
fills sentinels, normalizes, and advances the detector. With ``parallel=1``
the single chunk runs inline and no thread is started.

All per-point reductions are row-wise over C-contiguous blocks, so chunk
boundaries cannot change a single bit of the output: running with any
parallelism degree, including 1, yields identical results.

Step layout, in dataset columns (steps after the first): s-LID and the fused
field start at ``lid.S_LID_FIRST_COL`` (1), where velocities begin; there the
fused field is the s-LID field, and the spatial prior joins a column later.
t-LID and st-LID start at ``lid.T_LID_FIRST_COL`` (3), after two velocities.
"""

from __future__ import annotations

import json
import os
import time
import zipfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.spatial

from .data import EVENTS_HEADER, GroundTruth, MonitoringDataset, fmt_float, replacing
from .detection import (
    AlarmDecision,
    DetectionConfig,
    DetectionEvent,
    DetectionState,
    StLidField,
    default_epsilon,
    st_lid_field,
    update_detection,
)
from .errors import ConfigError, require
from .fusion import FusionConfig, fuse_rows, neighbor_weights
from .lid import (
    S_LID_FIRST_COL, T_LID_FIRST_COL, LidConfig, LidField, knn, lid_rows, t_lid_rows,
)


@dataclass
class StepRecord:
    """Everything the pipeline produced at one step; ``st``, ``decision``
    and ``event`` are None during warm-up, before the first st-LID field."""

    step: int
    s: LidField
    fused: LidField
    t: LidField | None
    st: StLidField | None
    decision: AlarmDecision | None
    event: DetectionEvent | None
    seconds: float


@dataclass
class PipelineState:
    """Resumable between-step state, advanced in place by ``iter_run``;
    everything else is derived from the immutable dataset. ``t_mean`` and
    ``t_m2`` are each point's running t-LID mean and M2 under ``zscore-history``;
    their count follows from ``next_col``."""

    next_col: int = S_LID_FIRST_COL
    prev_slid: np.ndarray | None = None
    det_state: DetectionState = field(default_factory=DetectionState)
    events: list = field(default_factory=list)
    t_mean: np.ndarray | None = None
    t_m2: np.ndarray | None = None


# the per-point arrays of a PipelineState, each None until first set, and the
# range of their values: s-LID is positive, a sum of squares non-negative
_STATE_ARRAYS = {"prev_slid": "(0, inf)", "t_mean": "(-inf, inf)", "t_m2": "[0, inf)"}


@dataclass
class RunResult:
    """Collected output of a full run."""

    events: list
    lead_times: dict
    s_steps: np.ndarray | None = None
    s_hist: np.ndarray | None = None
    s_valid_hist: np.ndarray | None = None
    fused_hist: np.ndarray | None = None
    fused_valid_hist: np.ndarray | None = None
    t_hist: np.ndarray | None = None
    t_valid_hist: np.ndarray | None = None
    st_steps: np.ndarray | None = None
    st_hist: np.ndarray | None = None
    st_valid_hist: np.ndarray | None = None
    per_step_seconds: np.ndarray | None = None
    final_state: DetectionState | None = None
    epsilon: float | None = None


# first column (steps after the dataset's first) of each score family: the
# fused field starts as the s-LID field, and st-LID with t-LID
_FIRST_COL = {
    "s": S_LID_FIRST_COL, "fused": S_LID_FIRST_COL, "t": T_LID_FIRST_COL, "st": T_LID_FIRST_COL
}


def _last_col(dataset, stop_step):
    """The last column a run computes: the dataset's last, or ``stop_step``'s;
    DataError outside the dataset, ConfigError before the first velocity step."""
    if stop_step is None:
        return dataset.num_steps - 1
    last_col = dataset.column(stop_step)
    if last_col < S_LID_FIRST_COL:
        raise ConfigError(
            "pipeline needs velocity; first computable step is "
            f"{dataset.start_step + S_LID_FIRST_COL}"
        )
    return last_col


def _resolved_detection(dataset, config):
    cfg = DetectionConfig() if config is None else config
    if cfg.epsilon is None:
        cfg = replace(cfg, epsilon=default_epsilon(dataset.coords))
    return cfg


def _check_state(state: PipelineState) -> PipelineState:
    """``state``, loaded or passed, if a run can resume it; else ConfigError.
    Its fields hold the JSON types ``save_checkpoint`` writes (a bool is no
    int, a coordinate a pair of numbers, a ``det_state`` of None a fresh
    tracker), each set array is 1-D float64 within its range, ``prev_slid``
    is set past the first velocity column, and t_mean and t_m2 go together."""
    def pair(v):
        return type(v) is tuple and len(v) == 2 and all(type(a) in (int, float) for a in v)

    det = DetectionState() if state.det_state is None else state.det_state
    good = [type(state.next_col) is type(det.hits) is int, type(det.fired) is bool,
            det.candidate_coord is None or pair(det.candidate_coord)]
    good += [type(e) is DetectionEvent and type(e.detection_step) is type(e.point_id) is int
             and pair(e.location) and type(e.value) in (int, float) for e in state.events]
    if not all(good):
        raise ConfigError("a field of the state or of one of its events has another type")
    for name, interval in _STATE_ARRAYS.items():
        arr = getattr(state, name)
        if arr is None:
            continue
        if not isinstance(arr, np.ndarray) or arr.ndim != 1 or arr.dtype != np.float64:
            raise ConfigError(f"state {name} is no 1-D float64 array: {type(arr).__name__} "
                              f"{np.shape(arr)} {getattr(arr, 'dtype', '')}")
        require(f"state {name}", arr, interval)
    if state.next_col > S_LID_FIRST_COL and state.prev_slid is None:
        raise ConfigError(f"state resumes at column {state.next_col} but holds no prev_slid")
    if (state.t_mean is None) != (state.t_m2 is None):
        raise ConfigError("state sets only some of t_mean and t_m2")
    return state


def iter_run(
    dataset: MonitoringDataset,
    lid_config: LidConfig | None = None,
    fusion_config: FusionConfig | None = None,
    detection_config: DetectionConfig | None = None,
    parallel: int = 1,
    stop_step: int | None = None,
    state: PipelineState | None = None,
):
    """Check the run, raising every refusal, then return a generator of one
    StepRecord per step from the first velocity step onward.

    ``parallel`` is the number of threads the points of each step are split
    over (1 runs on the calling thread); the generator opens its pool at the
    first step and closes it when it ends or is closed. The output is
    bit-identical for every degree. ``stop_step`` ends the run after that
    external step. ``state``, checked by ``_check_state``, is updated in
    place after every step, so saving it at any point makes the run
    resumable from the next step. It must also fit the run: each array holds
    one value per point, ``next_col`` lies within the dataset, and under
    ``zscore-history`` t-LID statistics are held past the first t-LID column.
    """
    lid_config = lid_config or LidConfig()
    fusion_config = fusion_config or FusionConfig()
    detection_config = _resolved_detection(dataset, detection_config)
    lid_config.validate()
    fusion_config.validate()
    detection_config.validate()
    require("parallelism degree", parallel, "[1, inf)")
    n = dataset.num_points
    nbr_idx, weights_at = neighbor_weights(dataset.coords, fusion_config)
    s = lid_config.s
    obs_k = fusion_config.effective_obs_k(lid_config)
    require("number of points (each needs max(s, obs_k) neighbours)", n, f"({max(s, obs_k)}, inf)")
    disp = dataset.displacement

    last_col = _last_col(dataset, stop_step)

    state = _check_state(PipelineState() if state is None else state)
    require("state next_col", state.next_col, f"[{S_LID_FIRST_COL}, {dataset.num_steps}]")
    for name in _STATE_ARRAYS:
        arr = getattr(state, name)
        if arr is not None and len(arr) != n:
            raise ConfigError(f"state {name} holds {len(arr)} values; the dataset has {n} points")
    history = detection_config.normalization == "zscore-history"
    if history and state.t_mean is None and state.next_col > T_LID_FIRST_COL:
        raise ConfigError(f"state resumes at column {state.next_col} but holds no t-LID statistics")
    if history and state.t_mean is None:
        state.t_mean, state.t_m2 = np.zeros(n), np.zeros(n)
    if state.det_state is None:
        state.det_state = DetectionState()

    bounds = np.linspace(0, n, parallel + 1).astype(int)
    chunks = [slice(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]

    def steps():
        def kernel(rows):
            """Write the families of ``out`` at column ``col`` for the points in
            the slice ``rows``, from the step's values the loop below sets."""
            dist, _ = knn(samples, max(s, obs_k), rows, tree)
            s_values, s_valid = out["s"]
            s_values[rows], s_valid[rows] = lid_rows(dist[:, :s], lid_config)
            values, valid = out["fused"]
            if col == S_LID_FIRST_COL:  # bootstrap: without a prior the fused field is the raw one
                values[rows], valid[rows] = s_values[rows], s_valid[rows]
            else:
                prior = state.prev_slid[nbr_idx[rows]]
                values[rows], valid[rows] = fuse_rows(
                    prior, weights_at(samples, rows), dist[:, :obs_k], fusion_config.variance_floor
                )
            if "t" in out:
                values, valid = out["t"]
                values[rows], valid[rows] = t_lid_rows(disp[rows, :col], samples[rows, 1], lid_config)

        with ThreadPoolExecutor(max_workers=parallel) if parallel > 1 else nullcontext() as pool:
            map_chunks = map if pool is None else pool.map
            for col in range(state.next_col, last_col + 1):
                t0 = time.perf_counter()
                step = dataset.start_step + col
                samples = dataset.samples_at(step)
                tree = scipy.spatial.cKDTree(samples)
                out = {
                    fam: (np.empty(n), np.empty(n, dtype=bool))
                    for fam, first in _FIRST_COL.items()
                    if fam != "st" and col >= first  # the kernel's families; st-LID comes from them
                }
                list(map_chunks(kernel, chunks))  # chunks write into out; this raises their errors
                fields = {fam: LidField.filled(step, *arrays) for fam, arrays in out.items()}
                s_field, fused_field, t_field = fields["s"], fields["fused"], fields.get("t")

                st = decision = event = None
                if t_field is not None:
                    t_stats = None
                    if history:
                        count = col - T_LID_FIRST_COL + 1  # t-LID fields seen so far
                        delta = t_field.values - state.t_mean
                        state.t_mean += delta / count
                        state.t_m2 += delta * (t_field.values - state.t_mean)
                        sd = np.sqrt(state.t_m2 / count) if count >= 2 else np.zeros(n)
                        t_stats = (state.t_mean, sd)

                    st = st_lid_field(
                        fused_field.values,
                        t_field.values,
                        detection_config,
                        step=step,
                        valid=fused_field.valid & t_field.valid,
                        t_history_stats=t_stats,
                    )
                    decision, event = update_detection(
                        state.det_state, st, dataset.coords, detection_config, dataset.ids
                    )

                state.prev_slid = s_field.values
                state.next_col = col + 1
                if event is not None:
                    state.events.append(event)
                yield StepRecord(
                    step=step,
                    s=s_field,
                    fused=fused_field,
                    t=t_field,
                    st=st,
                    decision=decision,
                    event=event,
                    seconds=time.perf_counter() - t0,
                )

    return steps()


def event_lead_times(events, truth: GroundTruth | None, step_interval_minutes: float):
    """Lead time per ground-truth region: time of failure minus the first
    event inside the region (0 when no event precedes the failure)."""
    leads = {}
    if truth is None:
        return leads
    for region in truth.regions:
        steps = 0
        for ev in sorted(events, key=lambda e: e.detection_step):
            if ev.detection_step <= region.tof and region.contains(ev.location)[0]:
                steps = region.tof - ev.detection_step
                break
        leads[region.label] = (steps, steps * step_interval_minutes)
    return leads


# score families each ``store`` mode of run_detection keeps
_STORED = {"all": tuple(_FIRST_COL), "st": ("st",), "none": ()}


def run_detection(
    dataset: MonitoringDataset,
    truth: GroundTruth | None = None,
    lid_config: LidConfig | None = None,
    fusion_config: FusionConfig | None = None,
    detection_config: DetectionConfig | None = None,
    parallel: int = 1,
    stop_step: int | None = None,
    store: str = "all",
) -> RunResult:
    """Run the full pipeline over the dataset and collect histories.

    ``store`` controls memory. "all" keeps the s-LID, fused s-LID, t-LID and
    st-LID families, "st" keeps only st-LID, "none" keeps just events and
    timings. Each kept family is one steps x points float64 array of values
    and one bool array of validity flags, allocated once before the first
    step and filled row by row; on the shipped 2000 x 2000 scenario "all"
    holds about 144 MB.
    """
    if store not in _STORED:
        raise ConfigError(f"store must be 'all', 'st' or 'none', got {store!r}")
    if truth is not None:
        truth.validate_against(dataset)
    detection_config = _resolved_detection(dataset, detection_config)
    state = PipelineState()
    records = iter_run(
        dataset,
        lid_config=lid_config,
        fusion_config=fusion_config,
        detection_config=detection_config,
        parallel=parallel,
        stop_step=stop_step,
        state=state,
    )
    last_col = _last_col(dataset, stop_step)
    kept = {}  # family -> (values, valid) histories
    for fam in _STORED[store]:
        shape = (last_col - _FIRST_COL[fam] + 1, dataset.num_points)
        if shape[0] > 0:
            kept[fam] = (np.empty(shape), np.empty(shape, dtype=bool))
    seconds = []
    for rec in records:
        seconds.append(rec.seconds)
        col = rec.step - dataset.start_step
        for fam, (values, valid) in kept.items():
            row = col - _FIRST_COL[fam]
            if row >= 0:
                fld = getattr(rec, fam)
                values[row] = fld.values
                valid[row] = fld.valid

    result = RunResult(
        events=state.events,
        lead_times=event_lead_times(state.events, truth, dataset.step_interval_minutes),
        per_step_seconds=np.asarray(seconds),
        final_state=state.det_state,
        epsilon=detection_config.epsilon,
    )
    for fam in _STORED[store]:
        if fam in ("s", "st"):  # the families whose steps RunResult records
            cols = np.arange(_FIRST_COL[fam], last_col + 1)
            setattr(result, f"{fam}_steps", dataset.start_step + cols)
        if fam in kept:
            setattr(result, f"{fam}_hist", kept[fam][0])
            setattr(result, f"{fam}_valid_hist", kept[fam][1])
    return result


# ---------------------------------------------------------------------------
# checkpointing and CSV output
# ---------------------------------------------------------------------------


def save_checkpoint(path, state: PipelineState) -> None:
    """Write ``state`` to ``path``: its set arrays, plus a JSON record of
    ``next_col``, the tracker fields and the events."""
    meta = {
        "next_col": state.next_col,
        **vars(state.det_state),
        "events": [vars(e) for e in state.events],
    }
    arrays = {k: getattr(state, k) for k in _STATE_ARRAYS if getattr(state, k) is not None}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    # np.savez given a name appends ".npz" when it lacks one, so write through an open file
    with replacing(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> PipelineState:
    """Read a state written by ``save_checkpoint``; ConfigError when the
    file is no ``.npz`` archive, lacks a field of that layout or holds a
    state ``_check_state`` refuses, OSError when it cannot be opened. Other
    keys, such as the per-step tracker history, the candidate id and the
    t-LID count that earlier versions wrote, are ignored."""
    try:
        with np.load(path) as npz:
            meta = json.loads(bytes(npz["meta"]).decode())
            arrays = {name: npz[name] if name in npz else None for name in _STATE_ARRAYS}
        det = DetectionState(**{name: meta[name] for name in DetectionState.__dataclass_fields__})
        # JSON turned the coordinate tuples into lists
        xy = det.candidate_coord
        det.candidate_coord = None if xy is None else tuple(xy)
        events = [DetectionEvent(**{**e, "location": tuple(e["location"])}) for e in meta["events"]]
        state = PipelineState(next_col=meta["next_col"], det_state=det, events=events, **arrays)
        return _check_state(state)
    except (ConfigError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"checkpoint {os.fspath(path)} is not in this layout: {exc!r}") from None


def write_events_csv(path, events) -> None:
    """Event log in the ``EVENTS_HEADER`` format: step, point id, x, y and st-LID."""
    with open(path, "w") as fh:
        fh.write(",".join(EVENTS_HEADER) + "\n")
        for e in events:
            fh.write(
                f"{e.detection_step},{e.point_id},{fmt_float(e.location[0])},"
                f"{fmt_float(e.location[1])},{fmt_float(e.value)}\n"
            )

"""Benchmark of the stlid streaming detector: three workloads, one command.

    python3 perfbench/run.py --workload shipped-replay [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all    # each workload untraced, then traced

Inputs are generated from the seed; every workload's default seed has its
outputs recorded in ``reference.json``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The load is a closed loop: the caller asks for the next step only when the
previous one has reached it, as a monitor fed every 2.5 minutes would.

``--trace 0`` times whole runs of the workload (units) back to back until
``--seconds`` have been spent, at least one, and reports end-to-end metrics
as medians over units. The step metrics are taken over each step's lower
median gap across units. Set-up is also probed on its own several times.

``--trace 1`` runs three units: one untraced at the workload's parallelism
degree, one traced at that degree, and one traced at the other degree (1 or
2). The p=1 traced unit gives the per-layer breakdown; a layer the workload
never runs (checkpoints and CSV load on the replays) reads 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import stlid  # noqa: E402
from stlid import data, pipeline  # noqa: E402
from stlid.cli import load_scenario_spec  # noqa: E402
from stlid.detection import (  # noqa: E402
    DetectionConfig,
    DetectionState,
    default_epsilon,
    st_lid_field,
)
from stlid.fusion import fuse_all  # noqa: E402
from stlid.lid import s_lid_all, t_lid_field  # noqa: E402
from stlid.synthetic import (  # noqa: E402
    CreepScenarioSpec,
    generate_creep_scenario,
    shipped_scenario_spec,
)

if not Path(stlid.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"stlid imported from {stlid.__file__}, not from this checkout's src/")

from spans import STEP_LAYERS, FirstRecord, StepClock, Tracer, now  # noqa: E402

SETUP_PROBES = 4  # set-up-only runs per untraced run, besides each unit's own
SHIPPED_STEPS = 210  # replayed tail of the shipped scenario (steps 1790-1999)
MONITOR_SPLIT = 400  # monitor-resume checkpoints, reloads and resumes after this step
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
ATOL = 1e-12  # pipeline vs standalone field functions


# ---------------------------------------------------------------------------
# inputs and outputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    dataset: stlid.MonitoringDataset
    truth: stlid.GroundTruth
    extra: dict

    def fresh(self) -> stlid.MonitoringDataset:
        """A new dataset object over the same arrays, with cold caches."""
        ds = self.dataset
        return stlid.MonitoringDataset(
            ds.points, ds.displacement, ds.step_interval_minutes, ds.start_step
        )


@dataclass
class Output:
    st: np.ndarray  # (steps, points) st-LID fields
    st_valid: np.ndarray
    events: list
    lead: dict  # region label -> lead time in steps

    def summary(self) -> dict:
        return {
            "events": [[e.detection_step, e.point_id] for e in self.events],
            "lead_steps": self.lead,
            "st_sha256": hashlib.sha256(
                np.ascontiguousarray(self.st, dtype=np.float64).tobytes()
            ).hexdigest(),
        }


def _output(st_rows, valid_rows, events, leads) -> Output:
    return Output(
        np.vstack(st_rows), np.vstack(valid_rows), list(events),
        {label: steps for label, (steps, _) in leads.items()},
    )


def _result_output(res: pipeline.RunResult) -> Output:
    return _output(res.st_hist, res.st_valid_hist, res.events, res.lead_times)


# ---------------------------------------------------------------------------
# workloads: prepare(seed, workdir) -> Inputs (untimed);
# start(inputs, parallel) -> run, a callable timed from call to result
# ---------------------------------------------------------------------------


def prepare_shipped(seed, workdir):
    ds, truth = generate_creep_scenario(shipped_scenario_spec(seed=seed))
    first = ds.last_step - SHIPPED_STEPS + 1
    # the s-LID field of the step before the replay is the only state the
    # score fields carry across steps, so the replay's fields equal a full run's
    prior = s_lid_all(ds, first - 1).values
    return Inputs(ds, truth, {"first": first, "prior": prior})


def start_shipped(inputs, parallel):
    ds = inputs.fresh()
    state = pipeline.PipelineState(
        next_col=ds.column(inputs.extra["first"]),
        prev_slid=inputs.extra["prior"].copy(),
        det_state=DetectionState(),
        events=[],
    )

    def run():
        # what run_detection(store="all") keeps, for a resumed run
        kept = {fam: ([], []) for fam in ("s", "fused", "t", "st")}
        for rec in pipeline.iter_run(ds, parallel=parallel, state=state):
            for fam, (values, valid) in kept.items():
                fld = getattr(rec, fam)
                if fld is not None:
                    values.append(fld.values)
                    valid.append(fld.valid)
        leads = pipeline.event_lead_times(state.events, inputs.truth, ds.step_interval_minutes)
        return _output(*kept["st"], state.events, leads)

    return run


def prepare_grid(seed, workdir):
    # the acceptance timing grid: 57 x 46 = 2622 points, 620 steps
    spec = CreepScenarioSpec(
        grid_nx=57, grid_ny=46, num_steps=620, noise_sd=0.08,
        region=(22.0, 16.0, 35.0, 29.0), time_of_failure=560, steady_rate=0.3,
        onset_step=380, accel_exponent=1.0, seed=seed, rate_floor=0.5,
        bump_width=0.45, rate_jitter=0.06, slip_theta=0.0,
    )
    ds, truth = generate_creep_scenario(spec)
    return Inputs(ds, truth, {})


def start_grid(inputs, parallel):
    ds = inputs.fresh()

    def run():
        return _result_output(
            pipeline.run_detection(ds, inputs.truth, parallel=parallel, store="st")
        )

    return run


def prepare_monitor(seed, workdir):
    spec = load_scenario_spec(ROOT / "docs" / "example_scenario.cfg")
    spec.seed = seed
    ds, truth = generate_creep_scenario(spec)
    points, series = workdir / "points.csv", workdir / "series.csv"
    data.save_dataset(ds, points, series)
    return Inputs(ds, truth, {"points": points, "series": series, "ckpt": workdir / "ckpt.npz"})


def start_monitor(inputs, parallel):
    interval = inputs.dataset.step_interval_minutes
    ckpt = inputs.extra["ckpt"]

    def run():
        ds = data.load_dataset(
            inputs.extra["points"], inputs.extra["series"], step_interval_minutes=interval
        )
        st_rows, valid_rows = [], []

        def stream(state, stop=None):
            for rec in pipeline.iter_run(ds, parallel=parallel, stop_step=stop, state=state):
                if rec.st is not None:
                    st_rows.append(rec.st.values)
                    valid_rows.append(rec.st.valid)
                pipeline.save_checkpoint(ckpt, state)

        stream(pipeline.PipelineState(next_col=1, prev_slid=None, det_state=None, events=[]),
               MONITOR_SPLIT)
        state = pipeline.load_checkpoint(ckpt)
        stream(state)
        leads = pipeline.event_lead_times(state.events, inputs.truth, interval)
        return _output(st_rows, valid_rows, state.events, leads)

    return run


def uninterrupted_monitor(inputs) -> Output:
    """The monitor-resume reference: one run over the whole dataset."""
    return _result_output(pipeline.run_detection(inputs.dataset, inputs.truth, store="st"))


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    parallel: int
    prepare: Callable
    start: Callable
    reference_run: Callable | None = None
    after_each: tuple = ()  # layers the caller runs after every step record
    once: tuple = ()  # layers the caller runs once per unit


WORKLOADS = {
    w.name: w
    for w in (
        # long history makes t-LID the blocking layer; single-threaded, stores
        # every score family, bypasses the parallel map
        Workload("shipped-replay", 2024, 1, prepare_shipped, start_shipped),
        # more points and short history shift work to kNN; the only workload
        # on the process pool
        Workload("field-grid", 31, 2, prepare_grid, start_grid),
        # CSV load in set-up and a checkpoint write beside every step, with a
        # reload and resume half way
        Workload("monitor-resume", 2, 1, prepare_monitor, start_monitor, uninterrupted_monitor,
                 after_each=("pipeline.ckpt_save",), once=("data.load", "pipeline.ckpt_load")),
    )
}


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------


@dataclass
class Unit:
    run_s: float
    setup_s: float
    clock: StepClock
    tracer: Tracer | None
    output: Output
    problems: list = field(default_factory=list)


def run_unit(wl, inputs, parallel, trace=False) -> Unit:
    run = wl.start(inputs, parallel)
    clock = StepClock()
    tracer = Tracer(clock) if trace else None
    with clock.installed(), tracer.installed() if trace else nullcontext():
        t0 = now()
        out = run()
        t1 = now()
    return Unit(t1 - t0, clock.steps[0].arrived - t0, clock, tracer, out)


def probe_setup(wl, inputs) -> float:
    """Time from the call until the first step record, cutting the run there."""
    run = wl.start(inputs, wl.parallel)
    clock = StepClock(probe=True)
    with clock.installed():
        t0 = now()
        try:
            run()
        except FirstRecord:
            pass
    return clock.steps[0].arrived - t0


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples above it."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10:
            return p
    raise ValueError(f"{n} steps are too few for a tail percentile")


def step_gaps(unit: Unit) -> np.ndarray:
    """Seconds between successive step records as the caller sees them."""
    return np.diff([s.arrived for s in unit.clock.steps])


def step_costs(units) -> np.ndarray:
    """Each step's gap as the lower median over units, in seconds.

    Every unit does the same work at a given step, so a stall of the host
    that hits one unit's step does not count; with two units this is the
    smaller gap.
    """
    gaps = np.sort(np.vstack([step_gaps(u) for u in units]), axis=0)
    return gaps[(len(units) - 1) // 2]


def end_to_end(units, setups) -> tuple[dict, dict]:
    cost = step_costs(units) * 1e3
    p = tail_percentile(cost.size)
    med = lambda xs: float(np.median(xs))  # noqa: E731
    rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    metrics = {
        "run_s": (med([u.run_s for u in units]), "s"),
        "setup_s": (med(setups), "s"),
        "step_p50_ms": (med(cost), "ms"),
        "step_late_ms": (med(cost[-100:]), "ms"),
        "step_tail_ms": (float(np.percentile(cost, p)), "ms"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }
    info = {
        "units": len(units),
        "setup_samples": len(setups),
        "step_samples": int(cost.size),
        "tail_percentile": p,
    }
    return metrics, info


def per_layer(p1: Unit, p2: Unit, own: Unit, base: Unit) -> dict:
    tr, steps = p1.tracer, p1.clock.steps
    ms = lambda x: float(x) * 1e3  # noqa: E731

    def med(layer, late=False):
        times = tr.per_step(layer)
        times = times[times > 0]
        if late:
            times = times[-100:]
        return ms(np.median(times)) if times.size else 0.0

    def map_ms(unit):
        st_start = unit.tracer.first_start("detection.st_lid")
        gaps = [t0 - unit.clock.steps[seq].asked for seq, t0 in st_start.items() if seq > 0]
        return ms(np.median(gaps))

    spanned = sum(tr.per_step(layer) for layer in STEP_LAYERS)
    busy = np.array([s.arrived - s.asked for s in steps])
    loads = [t1 - t0 for name, _, t0, t1 in tr.spans if name == "data.load"]
    return {
        "lid.knn_build_ms": (med("lid.knn_build"), "ms"),
        "lid.knn_query_ms": (med("lid.knn_query"), "ms"),
        "lid.knn_share": ((tr.total("lid.knn_build") + tr.total("lid.knn_query")) / p1.run_s,
                          "ratio"),
        "lid.s_lid_ms": (med("lid.s_lid"), "ms"),
        "lid.t_lid_ms": (med("lid.t_lid"), "ms"),
        "lid.t_lid_late_ms": (med("lid.t_lid", late=True), "ms"),
        "lid.t_lid_share": (tr.total("lid.t_lid") / p1.run_s, "ratio"),
        "lid.t_lid_cells": (tr.t_lid_cells, "count"),
        "lid.s_invalid": (sum(s.s_invalid for s in steps), "count"),
        "lid.t_invalid": (sum(s.t_invalid for s in steps), "count"),
        "fusion.fuse_ms": (med("fusion.fuse"), "ms"),
        "fusion.invalid": (sum(s.fused_invalid for s in steps), "count"),
        "detection.st_lid_ms": (med("detection.st_lid"), "ms"),
        "detection.alarm_ms": (med("detection.alarm"), "ms"),
        "detection.alarm_late_ms": (med("detection.alarm", late=True), "ms"),
        "detection.events": (len(p1.output.events), "count"),
        "pipeline.map_ms": (map_ms(own), "ms"),
        "pipeline.parallel_speedup": (map_ms(p1) / map_ms(p2), "ratio"),
        "pipeline.self_ms": (ms(np.median((busy - spanned)[1:])), "ms"),
        "pipeline.ckpt_save_ms": (med("pipeline.ckpt_save"), "ms"),
        "pipeline.ckpt_save_late_ms": (med("pipeline.ckpt_save", late=True), "ms"),
        "pipeline.ckpt_load_ms": (med("pipeline.ckpt_load"), "ms"),
        "pipeline.ckpt_bytes": (tr.ckpt_bytes, "count"),
        "data.load_s": (float(np.median(loads)) if loads else 0.0, "s"),
        "trace.overhead_pct": ((own.run_s / base.run_s - 1.0) * 100.0, "%"),
    }


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def standalone_last_field(ds) -> stlid.StLidField:
    """The last step's st-LID field from the package's standalone field functions."""
    step = ds.last_step
    fused = fuse_all(ds, s_lid_all(ds, step - 1).values, step)
    t = t_lid_field(ds, step)
    cfg = DetectionConfig(epsilon=default_epsilon(ds.coords))
    return st_lid_field(fused.values, t.values, cfg, step=step, valid=fused.valid & t.valid)


def check(out: Output, expected: dict[str, dict], last_field) -> list[str]:
    problems = []
    if not np.all((out.st >= 0.0) & (out.st <= 1.0)):
        problems.append("st-LID outside [0, 1]")
    if not (
        np.array_equal(out.st_valid[-1], last_field.valid)
        and np.allclose(out.st[-1], last_field.values, rtol=0.0, atol=ATOL)
    ):
        problems.append("last st-LID field differs from the standalone field functions")
    got = out.summary()
    for source, want in expected.items():
        for key, value in want.items():
            if got[key] != value:
                problems.append(f"{key} differs from {source}: {got[key]} != {value}")
    return problems


def load_reference(name, seed) -> dict:
    ref = json.loads((HERE / "reference.json").read_text()).get(name)
    if ref is None or ref["seed"] != seed:
        return {}
    return {"the recorded reference": {k: v for k, v in ref.items() if k != "seed"}}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def context() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    src_lines = sum(
        1
        for path in sorted((ROOT / "src" / "stlid").glob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_stlid_nonblank_lines": src_lines,
    }


def bench(wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    inputs = wl.prepare(seed, workdir)
    expected = load_reference(wl.name, seed)
    if trace:
        # the first unit in a process pays for fresh memory, so the pair
        # that gives the tracing overhead runs after it
        other = run_unit(wl, inputs, 2 if wl.parallel == 1 else 1, trace=True)
        base = run_unit(wl, inputs, wl.parallel)
        own = run_unit(wl, inputs, wl.parallel, trace=True)
        p1, p2 = (own, other) if wl.parallel == 1 else (other, own)
        units = [other, base, own]
        start = inputs.dataset.start_step
        for unit, degree in ((p1, 1), (p2, 2)):
            gaps = unit.tracer.missing(start, degree, wl.after_each, wl.once)
            unit.problems += [f"trace p={degree}: {m}" for m in gaps]
        expected["the untraced run"] = base.output.summary()
        metrics = per_layer(p1, p2, own, base)
        info = {"units": 3}
    else:
        setups = [probe_setup(wl, inputs) for _ in range(SETUP_PROBES)]
        units, spent = [], 0.0
        while not units or spent < seconds:
            units.append(run_unit(wl, inputs, wl.parallel))
            spent += units[-1].run_s
        metrics, info = end_to_end(units, setups + [u.setup_s for u in units])
    if wl.reference_run is not None:
        expected["the uninterrupted run"] = wl.reference_run(inputs).summary()
    last_field = standalone_last_field(inputs.dataset)
    problems, failed = [], 0
    for i, unit in enumerate(units):
        unit.problems += check(unit.output, expected, last_field)
        problems += [f"unit {i}: {p}" for p in unit.problems]
        failed += bool(unit.problems)
    info["outputs"] = units[0].output.summary()
    info["checked_against"] = sorted(expected)
    return {
        "correct": not problems,
        "attempted": len(units),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "info": info,
    }


def print_result(name, seed, result, ctx):
    for key, (value, unit) in result["metrics"].items():
        print(f"{name} {key} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    for p in result["problems"]:
        print(f"{name} CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"workload": name, "seed": seed, "context": ctx, **result["info"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))


def run_all(args) -> int:
    """Every workload in a fresh process (so peak RSS is its own), untraced then traced."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            last = json.loads(lines[-1])
            merged["correct"] &= last["correct"]
            merged["attempted"] += last["attempted"]
            merged["failed"] += last["failed"]
            for key, metric in last["metrics"].items():
                merged["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=20.0, help="untraced measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    seed = wl.seed if args.seed is None else args.seed
    workdir = Path(tempfile.mkdtemp(prefix=".run-", dir=HERE))
    try:
        result = bench(wl, seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_result(wl.name, seed, result, context())
    return 0


if __name__ == "__main__":
    sys.exit(main())
